"""The symbolic packet-space verifier: algebra laws, SK100/SK101 proofs.

The algebra half is property-tested over random rectangle soups — the
set identities (round-trip, point conservation, disjointness) must hold
for *every* input or a checker verdict somewhere is wrong.  The checker
half runs against the real seed deployment: clean as shipped, and loud
with an exact rectangle (SK100) or a concrete witness packet (SK101) the
moment a rule goes missing or a compiled index is corrupted or stale —
even when the stale entry hides behind an empty sock-array slot.
"""

import dataclasses
import random

import pytest

from repro.check import ProgramView, context_from_deployment, run_checkers
from repro.check.symbolic import (
    PacketSpace,
    Rect,
    SymbolicChecker,
    index_faults,
    mintable_space,
    port_intervals,
    program_verdicts,
    resolved_space,
    rule_space,
    view_verdicts,
)
from repro.core import AddressPool
from repro.deploy import Deployment, DeploymentConfig
from repro.netsim.addr import IPv4, IPAddress, parse_address, parse_prefix
from repro.netsim.packet import Protocol
from repro.obs import MetricsRegistry
from repro.sockets.sklookup import MatchRule, SkLookupProgram, SockArray, Verdict
from repro.sockets.socktable import SocketTable

from test_compiled import reference_matches, reference_run

TCP, UDP = Protocol.TCP.value, Protocol.UDP.value


def rect(cidr, proto=TCP, lo=1, hi=0xFFFF):
    prefix = parse_prefix(cidr)
    return Rect(prefix.family, prefix.network, prefix.length, proto, lo, hi)


def random_rect(rng):
    length = rng.choice([0, 4, 8, 12, 16, 24, 28, 32])
    mask = 0 if length == 0 else ((1 << length) - 1) << (32 - length)
    lo = rng.randrange(1, 0xFFFF)
    return Rect(
        IPv4, rng.getrandbits(32) & mask, length,
        rng.choice([TCP, UDP]), lo, rng.randrange(lo, 0x10000),
    )


def random_space(rng):
    return PacketSpace(random_rect(rng) for _ in range(rng.randrange(1, 6)))


# ---------------------------------------------------------------------------
# Algebra laws


class TestAlgebraProperties:
    def test_subtract_union_round_trip(self):
        # (a − b) ∪ (a ∩ b) == a, the identity every diff report rests on.
        for seed in range(200):
            rng = random.Random(seed)
            a, b = random_space(rng), random_space(rng)
            assert a.subtract(b).union(a.intersect(b)).equals(a), f"seed={seed}"

    def test_point_conservation(self):
        for seed in range(200):
            rng = random.Random(seed)
            a, b = random_space(rng), random_space(rng)
            overlap = a.intersect(b)
            assert a.subtract(b).points + overlap.points == a.points
            assert a.union(b).points == a.points + b.points - overlap.points

    def test_subtraction_is_disjoint_from_subtrahend(self):
        for seed in range(100):
            rng = random.Random(seed)
            a, b = random_space(rng), random_space(rng)
            assert a.subtract(b).intersect(b).is_empty()

    def test_union_covers_both_operands(self):
        for seed in range(100):
            rng = random.Random(seed)
            a, b = random_space(rng), random_space(rng)
            u = a.union(b)
            assert u.covers(a) and u.covers(b)

    def test_witness_lies_inside_its_space(self):
        for seed in range(100):
            rng = random.Random(seed)
            space = random_space(rng)
            if space.is_empty():
                continue
            assert space.contains_point(*space.witness())
            pkt = space.witness_packet()
            t = pkt.tuple5
            assert space.contains_point(
                t.dst.family, t.dst.value, t.protocol.value, t.dst_port
            )

    def test_internal_rects_stay_pairwise_disjoint(self):
        for seed in range(100):
            rng = random.Random(seed)
            space = random_space(rng)
            assert sum(r.points for r in space.rects) == space.points


class TestCanonicalForm:
    def test_sibling_prefixes_fold_into_parent(self):
        space = PacketSpace([rect("10.0.0.0/25"), rect("10.0.0.128/25")])
        assert space.rects == (rect("10.0.0.0/24"),)

    def test_adjacent_port_intervals_merge(self):
        space = PacketSpace([rect("10.0.0.0/24", lo=1, hi=99),
                             rect("10.0.0.0/24", lo=100, hi=200)])
        assert space.rects == (rect("10.0.0.0/24", lo=1, hi=200),)

    def test_fold_cascades_to_fixpoint(self):
        # Four /26 siblings collapse two levels, to one /24.
        quarters = [rect(f"10.0.0.{i * 64}/26") for i in range(4)]
        assert PacketSpace(quarters).rects == (rect("10.0.0.0/24"),)

    def test_equality_is_semantic_not_structural(self):
        halves = PacketSpace([rect("10.0.0.0/25"), rect("10.0.0.128/25")])
        assert halves.equals(PacketSpace([rect("10.0.0.0/24")]))
        assert not halves.equals(PacketSpace([rect("10.0.0.0/25")]))

    def test_duplicate_and_nested_inputs_normalise(self):
        space = PacketSpace([rect("10.0.0.0/24"), rect("10.0.0.0/24"),
                             rect("10.0.0.64/26")])
        assert space.rects == (rect("10.0.0.0/24"),)

    def test_render_is_stable_and_bounded(self):
        space = PacketSpace([rect("10.0.1.0/24", lo=443, hi=443),
                             rect("10.0.0.0/24", proto=UDP)])
        assert space.render() == "10.0.1.0/24 tcp 443, 10.0.0.0/24 udp 1..65535"
        assert space.render(limit=1).endswith(", +1 more")

    def test_universe_identities(self):
        universe = PacketSpace.universe()
        assert universe.subtract(universe).is_empty()
        assert universe.union(PacketSpace.empty()).equals(universe)
        assert PacketSpace.empty().witness() is None

    def test_port_intervals_collapse_runs(self):
        assert port_intervals([443, 80, 444, 445]) == ((80, 80), (443, 445))
        assert port_intervals([]) == ()


# ---------------------------------------------------------------------------
# Symbolic program evaluation: the model mirrors the kernel contracts


def _listeners(table, n):
    base = parse_address("198.18.0.1").value
    return [table.bind_listen(Protocol.TCP, IPAddress.v4(base + i), 80, owner="t")
            for i in range(n)]


class TestVerdictPartitions:
    def _partition_is_exact(self, verdicts, domain):
        union = PacketSpace.empty()
        total = 0
        for space in verdicts.values():
            union = union.union(space)
            total += space.points
        assert union.equals(domain)
        assert total == domain.points  # disjoint *and* covering

    def test_first_match_wins_and_partition_is_exact(self):
        rules = (
            MatchRule(Verdict.DROP, Protocol.TCP, (parse_prefix("10.0.0.0/16"),)),
            MatchRule(Verdict.PASS, Protocol.TCP, (parse_prefix("10.0.0.0/8"),),
                      map_key=0),
        )
        domain = PacketSpace.for_prefix(parse_prefix("10.0.0.0/8"), protos=(TCP,))
        verdicts = program_verdicts(rules, {0}, domain)
        assert verdicts["drop"].equals(
            PacketSpace.for_prefix(parse_prefix("10.0.0.0/16"), protos=(TCP,)))
        assert verdicts["drop"].intersect(verdicts[("redirect", 0)]).is_empty()
        self._partition_is_exact(verdicts, domain)

    def test_dead_slot_redirect_consumes_nothing(self):
        rules = (
            MatchRule(Verdict.PASS, Protocol.TCP, (parse_prefix("10.0.0.0/16"),),
                      map_key=5),  # slot 5 is empty: kernel fall-through
            MatchRule(Verdict.DROP, Protocol.TCP, (parse_prefix("10.0.0.0/16"),)),
        )
        domain = PacketSpace.for_prefix(parse_prefix("10.0.0.0/8"), protos=(TCP,))
        verdicts = program_verdicts(rules, set(), domain)
        assert ("redirect", 5) not in verdicts
        assert verdicts["drop"].equals(
            PacketSpace.for_prefix(parse_prefix("10.0.0.0/16"), protos=(TCP,)))
        self._partition_is_exact(verdicts, domain)

    def test_compiled_model_matches_interpreter_model(self):
        """The index lists each rule in exactly the cells of its rule
        space, with its own action: SK101's property, on a mixed program."""
        table = SocketTable()
        sock_map = SockArray(4)
        for i, sock in enumerate(_listeners(table, 2)):
            sock_map.update(i, sock)
        program = SkLookupProgram("p", sock_map, [
            MatchRule(Verdict.PASS, Protocol.TCP, (parse_prefix("10.1.0.0/16"),),
                      443, 443, map_key=1),
            MatchRule(Verdict.DROP, None, (parse_prefix("10.0.0.0/8"),), 1, 1024),
            MatchRule(Verdict.PASS, Protocol.UDP, (), 443, 443, map_key=0),
        ])
        compiled = program.compiled()
        for i, rule in enumerate(program.rules()):
            cells = [Rect(*cell) for cell, hits in compiled.cells() if i in hits]
            assert PacketSpace(cells).equals(rule_space(rule)), i
        assert compiled.actions() == tuple(
            (rule.action, rule.map_key) for rule in program.rules())
        assert index_faults(program) == []

    def test_path_composition_forwards_misses(self):
        """The second program sees only what the first one missed: its
        DROP over both /16s cannot take 10.0/16 from the first program."""
        drop, moved = parse_prefix("10.0.0.0/16"), parse_prefix("10.1.0.0/16")
        stage1 = ProgramView("p1", (MatchRule(Verdict.DROP, Protocol.TCP, (drop,)),),
                             1, frozenset())
        stage2 = ProgramView("p2", (
            MatchRule(Verdict.PASS, Protocol.TCP, (moved,), map_key=0),
            MatchRule(Verdict.DROP, Protocol.TCP, (drop, moved)),
        ), 1, frozenset({0}))
        verdicts = view_verdicts(
            [stage1, stage2], PacketSpace([rect("10.0.0.0/16"), rect("10.1.0.0/16")]))
        assert verdicts["drop"].equals(PacketSpace([rect("10.0.0.0/16")]))
        assert verdicts[("redirect", 0)].equals(PacketSpace([rect("10.1.0.0/16")]))
        assert "miss" not in verdicts
        assert resolved_space(verdicts).points == 2 * rect("10.0.0.0/16").points

    def test_mintable_space_explicit_addresses_are_host_rects(self):
        addrs = (parse_address("192.0.2.1"), parse_address("192.0.2.9"))
        pool = AddressPool(parse_prefix("192.0.2.0/24"), active=addrs)
        space = mintable_space(pool, (80, 443))
        assert space.points == len(addrs) * 2 * 2  # two protos × two ports
        assert space.contains_point(IPv4, addrs[1].value, UDP, 443)
        assert not space.contains_point(IPv4, addrs[1].value + 1, TCP, 443)


# ---------------------------------------------------------------------------
# The checker pass against the live seed deployment


def _lpm_tables(compiled):
    """Every ``{network: candidates}`` table of the live index."""
    for index in compiled._by_proto.values():
        for segment in index.segments:
            for groups in segment.lpm.values():
                for _mask, nets in groups:
                    yield nets


def _shift_one_network(compiled):
    """Shift one LPM key of the live index, as a stale or bit-flipped
    index would hold it; False when the index has no prefix entries."""
    for nets in _lpm_tables(compiled):
        if nets:
            key = sorted(nets)[0]
            nets[key ^ (1 << 8)] = nets.pop(key)
            return True
    return False


def _drop_rule_from_index(compiled, rule):
    """Strip one rule from the live index's candidate lists."""
    for index in compiled._by_proto.values():
        for segment in index.segments:
            segment.always = tuple(i for i in segment.always if i != rule)
    for nets in _lpm_tables(compiled):
        for network, hits in list(nets.items()):
            kept = tuple(i for i in hits if i != rule)
            if kept:
                nets[network] = kept
            else:
                del nets[network]


@pytest.fixture(scope="module")
def deployment():
    return Deployment.build(DeploymentConfig(num_hostnames=40))


class TestSymbolicChecker:
    def test_seed_deployment_proves_clean(self, deployment):
        findings = SymbolicChecker().run(context_from_deployment(deployment))
        assert findings == []

    def test_missing_rule_surfaces_the_exact_rectangle(self, deployment):
        ctx = context_from_deployment(deployment)
        ctx.deployment = None  # isolate SK100: no live compiled forms needed
        victim = ctx.programs[0]
        kept = tuple(
            r for r in victim.rules
            if not (r.protocol is Protocol.TCP and r.port_lo <= 443 <= r.port_hi)
        )
        assert len(kept) < len(victim.rules)
        ctx.programs[0] = dataclasses.replace(victim, rules=kept)
        findings = SymbolicChecker().run(ctx)
        assert [f.rule for f in findings] == ["SK100"]
        assert findings[0].location == f"path:{victim.path}"
        # The uncovered region is exact: the whole pool, tcp, port 443 only.
        assert "192.0.0.0/20 tcp 443" in findings[0].message

    def test_corrupted_compiled_index_yields_replayable_counterexample(self):
        dep = Deployment.build(DeploymentConfig(num_hostnames=40))
        dc = dep.cdn.datacenters[sorted(dep.cdn.datacenters)[0]]
        server = dc.servers[sorted(dc.servers)[0]]
        program = server.lookup_path.programs()[0]
        compiled = program.compiled()
        assert _shift_one_network(compiled)

        faults = index_faults(program)
        assert faults
        # Each witness replays: the live index and the rule it names
        # disagree on whether the rule is a candidate for that packet.
        for fault in faults:
            rule = program.rules()[fault.rule]
            pkt = fault.witness
            listed = [cell for cell, hits in compiled.cells() if fault.rule in hits]
            in_index = PacketSpace(Rect(*cell) for cell in listed).contains_point(
                pkt.dst.family, pkt.dst.value, pkt.protocol.wire_protocol.value,
                pkt.dst_port)
            assert in_index != reference_matches(rule, pkt), fault.render()
        # And it misdispatches under today's slots.
        pkt = faults[0].witness
        assert reference_run(program, pkt) != compiled.run(pkt)

        findings = SymbolicChecker().run(context_from_deployment(dep))
        sk101 = [f for f in findings if f.rule == "SK101"]
        assert sk101 and server.name in sk101[0].location
        assert "witness packet dst=" in sk101[0].message

    def test_stale_index_behind_an_empty_slot_is_caught(self):
        """An index that lost a redirect to an *empty* slot dispatches like
        its rules until the slot is filled; SK101 must not wait for that.
        Judged under today's slots alone, this index passes."""
        dep = Deployment.build(DeploymentConfig(num_hostnames=40))
        dc = dep.cdn.datacenters[sorted(dep.cdn.datacenters)[0]]
        server = dc.servers[sorted(dc.servers)[0]]
        live, spare = _listeners(SocketTable(), 2)
        sock_map = SockArray(8)
        sock_map.update(0, live)
        net = parse_prefix("192.0.2.0/24")
        program = SkLookupProgram("stale", sock_map, [
            MatchRule(Verdict.PASS, Protocol.TCP, (net,), 80, 80, map_key=4),  # empty
            MatchRule(Verdict.PASS, Protocol.TCP, (net,), 80, 80, map_key=0),
        ])
        server.lookup_path.attach(program)
        compiled = program.compiled()
        _drop_rule_from_index(compiled, 0)  # as a compile that predates rule 0

        findings = SymbolicChecker().run(context_from_deployment(dep))
        [sk101] = [f for f in findings if f.rule == "SK101"]
        assert sk101.location == f"{server.name}#stale#rule0"
        assert "rule 0 is missing from the index over 192.0.2.0/24 tcp 80" in sk101.message

        [fault] = index_faults(program)
        pkt = fault.witness
        sock_map.update(4, spare)
        assert reference_run(program, pkt) == (Verdict.PASS, spare)
        assert compiled.run(pkt) == (Verdict.PASS, live)

    def test_candidates_out_of_order_are_caught(self):
        """Every rule's cells can be right and first match still broken: a
        cell that lists rule 1 ahead of rule 0 sends the packet to rule 1's
        socket.  SK101 checks the order too."""
        table = SocketTable()
        first, second = _listeners(table, 2)
        sock_map = SockArray(2)
        sock_map.update(0, first)
        sock_map.update(1, second)
        net = parse_prefix("192.0.2.0/24")
        program = SkLookupProgram("p", sock_map, [
            MatchRule(Verdict.PASS, Protocol.TCP, (net,), 80, 80, map_key=0),
            MatchRule(Verdict.PASS, Protocol.TCP, (net,), 80, 80, map_key=1),
        ])
        compiled = program.compiled()
        for nets in _lpm_tables(compiled):
            for network, hits in nets.items():
                nets[network] = hits[::-1]

        [fault] = index_faults(program)
        assert fault.rule == 0
        assert "out of order in index cell 192.0.2.0/24 tcp 80" in fault.render()
        assert reference_run(program, fault.witness) == (Verdict.PASS, first)
        assert compiled.run(fault.witness) == (Verdict.PASS, second)

    def test_pass_metrics_are_recorded(self, deployment):
        ctx = context_from_deployment(deployment)
        ctx.registry = MetricsRegistry()
        report = run_checkers(ctx, [SymbolicChecker()])
        assert report.ok
        assert ctx.registry.gauge("check_symbolic_mintable_regions").value > 0
        assert ctx.registry.gauge("check_symbolic_uncovered_regions").value == 0
        assert ctx.registry.histogram("check_pass_duration_seconds").count == 1
        assert ctx.registry.counter("check_pass_findings_total_symbolic").value == 0
