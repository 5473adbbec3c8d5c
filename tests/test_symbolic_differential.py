"""Differential suite: the symbolic engine vs the dispatch it models.

``test_compiled`` fuzzes the compiled index against the reference
interpreter packet by packet; this suite turns the same 1000-seed corpus
on the *symbolic* model.  SK101's property — each rule's index cells are
exactly its rule space, with its own action — is proven per seed over
every packet in the universe, and a corrupted index must show as a
witness inside the rule's symmetric difference.  The model itself is
validated by replaying region witnesses: if the symbolic partition says
a rectangle redirects to slot 3, a packet drawn from that rectangle must
come back from the reference and the compiled index with slot 3's
socket.  The same replay covers the checker passes that report through
the algebra (CP004, SK006, SK100): a witness drawn from a finding's first
reported rectangle must meet the DROP or the missing socket the finding
claims.
"""

import os
import random
import re

from repro.check import CheckContext, PolicyInfo, run_checkers
from repro.check.config import load_check_config
from repro.check.symbolic import (
    PacketSpace,
    Rect,
    first_match,
    index_faults,
    mintable_space,
    program_verdicts,
    rule_space,
)
from repro.core.pool import AddressPool
from repro.netsim.addr import parse_address, parse_prefix
from repro.netsim.packet import FiveTuple, IPAddress, Packet, Protocol
from repro.sockets.lookup import LookupPath
from repro.sockets.sklookup import MatchRule, SkLookupProgram, SockArray, Verdict
from repro.sockets.socktable import SocketTable

from test_check_controlplane import STANDBY, WEB, ctx, policy, program, redirect
from test_compiled import build_twin_programs, reference_run
from test_symbolic import _shift_one_network

SRC = parse_address("198.51.100.9")


def _live_slots(program):
    return {k for k in range(program.map.size) if program.map.lookup(k) is not None}


def _witness(rect):
    return Packet(FiveTuple(
        Protocol(rect.proto), SRC, 40_000,
        IPAddress(rect.family, rect.network), rect.port_lo,
    ), syn=True)


def _expected_outcome(program, key):
    """The concrete ``run()`` result a verdict-partition key predicts."""
    if key == "drop":
        return (Verdict.DROP, None)
    if isinstance(key, tuple):  # ("redirect", slot) — must be live
        return (Verdict.PASS, program.map.lookup(key[1]))
    return (Verdict.PASS, None)  # "pass" and "miss" share the runtime encoding


def test_symbolic_equivalence_holds_over_the_full_corpus():
    """SK101's property on all 1000 corpus seeds, whole packet universe:
    every rule's index cells are exactly its rule space, with its action."""
    for seed in range(1000):
        _interp, _compiled, source = build_twin_programs(random.Random(seed))
        faults = index_faults(source)
        assert not faults, f"seed={seed}: {faults[0].render()}"


def test_region_witnesses_replay_on_both_engines():
    """Model soundness: every region's witness behaves as classified, on
    the reference interpreter and on the compiled index."""
    domain = PacketSpace.universe()
    for seed in range(0, 1000, 10):
        rng = random.Random(seed)
        interp, compiled, _source = build_twin_programs(rng)
        verdicts = program_verdicts(interp.rules(), _live_slots(interp), domain)
        for key, space in verdicts.items():
            want = _expected_outcome(interp, key)
            for rect in space.rects[:6]:
                for name, run in (("reference", lambda p: reference_run(interp, p)),
                                  ("compiled", compiled.run)):
                    got = run(_witness(rect))
                    assert got == want, (
                        f"seed={seed} {rect.render()}: symbolic says "
                        f"{key!r}, {name} returned {got}"
                    )


def test_verdict_partition_is_exact_over_the_corpus():
    """Disjointness + coverage in one equation: point counts must add up."""
    domain = PacketSpace.universe()
    for seed in range(0, 1000, 25):
        rng = random.Random(seed)
        interp, _compiled, _source = build_twin_programs(rng)
        verdicts = program_verdicts(interp.rules(), _live_slots(interp), domain)
        union = PacketSpace.empty()
        total = 0
        for space in verdicts.values():
            union = union.union(space)
            total += space.points
        assert total == domain.points, f"seed={seed}"
        assert union.equals(domain), f"seed={seed}"


def test_round_trip_identity_on_corpus_rule_spaces():
    """(a − b) ∪ (a ∩ b) == a holds for the partitions real rules induce."""
    domain = PacketSpace.universe()
    for seed in range(0, 1000, 50):
        rng = random.Random(seed)
        interp, _compiled, _source = build_twin_programs(rng)
        spaces = list(
            program_verdicts(interp.rules(), _live_slots(interp), domain).values()
        )
        for a in spaces:
            for b in spaces[:3]:
                assert a.subtract(b).union(a.intersect(b)).equals(a)


def test_region_witnesses_lie_inside_their_region():
    domain = PacketSpace.universe()
    for seed in range(0, 1000, 50):
        rng = random.Random(seed)
        interp, _compiled, _source = build_twin_programs(rng)
        verdicts = program_verdicts(interp.rules(), _live_slots(interp), domain)
        for space in verdicts.values():
            if space.is_empty():
                continue
            assert space.contains_point(*space.witness())
            for rect in space.rects:
                assert rect.contains_point(
                    rect.family, rect.network, rect.proto, rect.port_lo)


def test_corrupted_description_is_caught_across_the_corpus():
    """Shifting one LPM network of the live index must surface, on every
    seed where the shift changes what the index yields: SK101 reads the
    index's own tables, so damage can't hide behind the shared rule list
    or behind today's sock-array slots."""
    shifted = caught = 0
    for seed in range(1000):
        _interp, _compiled, source = build_twin_programs(random.Random(seed))
        compiled = source.compiled()
        if not _shift_one_network(compiled):
            continue  # no prefix rules this seed
        shifted += 1
        faults = index_faults(source)
        caught += bool(faults)
        for fault in faults:
            t = fault.witness.tuple5
            point = (t.dst.family, t.dst.value, t.protocol.wire_protocol.value, t.dst_port)
            listed = PacketSpace(Rect(*cell) for cell, hits in compiled.cells()
                                 if fault.rule in hits)
            rules = source.rules()
            want = rule_space(rules[fault.rule]) if fault.rule < len(rules) \
                else PacketSpace.empty()
            assert listed.contains_point(*point) != want.contains_point(*point), (
                f"seed={seed}: {fault.render()}")
    assert shifted == 978
    assert caught >= 684, caught


# ---------------------------------------------------------------------------
# Witness replay for the passes that report through the algebra: draw a
# packet from the first rectangle a finding reports and run it through the
# compiled index / lookup path — it must meet the DROP or the missing
# socket the finding claims.

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
_RECT = re.compile(r"([0-9a-f.:]+/\d+) (tcp|udp) (\d+)(?:\.\.(\d+))?")
_PROTOS = {"tcp": Protocol.TCP.value, "udp": Protocol.UDP.value}


def _first_reported(finding):
    """The first rectangle a finding's message names, as a PacketSpace."""
    match = _RECT.search(finding.message)
    assert match is not None, finding.message
    prefix = parse_prefix(match.group(1))
    lo = int(match.group(3))
    hi = int(match.group(4) or lo)
    return PacketSpace([Rect(prefix.family, prefix.network, prefix.length,
                             _PROTOS[match.group(2)], lo, hi)])


def _realise(views):
    """One real lookup path holding a real program per view, a listener in
    every live slot (bound away from the checked space)."""
    table = SocketTable()
    path = LookupPath(table)
    programs = []
    for view in views:
        sock_map = SockArray(view.map_size)
        for slot in sorted(view.live_slots):
            sock_map.update(slot, table.bind_listen(
                Protocol.TCP, IPAddress.v4(SRC.value + 1 + slot), 80, owner="witness"))
        programs.append(SkLookupProgram(view.name, sock_map, list(view.rules)))
        path.attach(programs[-1])
    return path, programs


def test_cp004_witness_meets_the_drop_ahead_of_the_standby():
    context = load_check_config(os.path.join(FIXTURES, "standby_drop_check.json"))
    [cp004] = [f for f in run_checkers(context).findings if f.rule == "CP004"]
    packet = _first_reported(cp004).witness_packet()
    assert parse_prefix("203.0.113.0/25").contains(packet.dst)
    _path, [real] = _realise(context.programs)
    assert real.compiled().run(packet) == (Verdict.DROP, None)


def test_sk100_witness_finds_no_socket_on_the_lookup_path():
    context = ctx(policies=[policy()],
                  programs=[program([redirect((WEB,), lo=443, hi=443)])])
    sk100 = [f for f in run_checkers(context).findings if f.rule == "SK100"]
    assert [f.location for f in sk100] == ["path:edge"]
    packet = _first_reported(sk100[0]).witness_packet()
    path, _programs = _realise(context.programs)
    assert path.dispatch(packet, deliver=False).socket is None
    # The model agrees the other way round: a tcp 443 packet is served.
    served = PacketSpace.for_prefix(WEB, (Protocol.TCP.value,), ((443, 443),))
    assert path.dispatch(served.witness_packet(), deliver=False).socket is not None


def test_sk100_routing_witness_lies_outside_every_announcement():
    context = ctx(policies=[policy()], announced=[STANDBY], programs=[])
    [sk100] = [f for f in run_checkers(context).findings if f.rule == "SK100"]
    packet = _first_reported(sk100).witness_packet()
    assert not any(p.contains(packet.dst) for p in context.announced)
    assert WEB.contains(packet.dst)


def test_sk006_witness_is_mintable_and_dropped():
    pool = AddressPool(WEB, name="web-pool")
    drop = MatchRule(Verdict.DROP, Protocol.TCP, (parse_prefix("192.0.2.128/25"),), 80, 80)
    context = CheckContext(
        policies=[PolicyInfo("web", pool, 30)],
        programs=[program([drop, redirect((WEB,))])],
    )
    [sk006] = [f for f in run_checkers(context).findings if f.rule == "SK006"]
    assert sk006.location == "edge#rule0"
    view = context.programs[0]
    reach, _ = first_match(view.rules, view.live_slots, PacketSpace.universe())
    swallowed = reach[0].intersect(mintable_space(pool, context.service_ports))
    packet = swallowed.witness_packet()
    assert pool.active_prefix.contains(packet.dst)
    _path, [real] = _realise(context.programs)
    assert real.compiled().run(packet) == (Verdict.DROP, None)
