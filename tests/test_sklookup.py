"""sk_lookup programs, sock arrays, verifier, and the dispatch pipeline."""

import pytest

from repro.netsim.addr import parse_address, parse_prefix
from repro.netsim.packet import FiveTuple, Packet, Protocol
from repro.sockets.errors import ProgramError, ProgramNotAttachedError, VerifierError
from repro.sockets.lookup import LookupPath, LookupStage, flow_hash
from repro.sockets.sklookup import (
    MAX_RULES_PER_PROGRAM,
    MatchRule,
    SkLookupProgram,
    SockArray,
    Verdict,
    verify_program,
)
from repro.sockets.socktable import SocketTable

POOL = parse_prefix("192.0.2.0/24")
OTHER = parse_address("203.0.113.1")
INTERNAL = parse_address("198.18.0.1")


def packet(dst="192.0.2.77", dport=80, proto=Protocol.TCP, sport=40000):
    return Packet(
        FiveTuple(proto, parse_address("198.51.100.9"), sport, parse_address(dst), dport),
        syn=True,
    )


@pytest.fixture
def table():
    return SocketTable()


@pytest.fixture
def listener(table):
    return table.bind_listen(Protocol.TCP, INTERNAL, 80, owner="svc")


class TestSockArray:
    def test_update_and_lookup(self, table, listener):
        arr = SockArray(4)
        arr.update(0, listener)
        assert arr.lookup(0) is listener
        assert len(arr) == 1

    def test_update_requires_listening_socket(self, table):
        arr = SockArray(4)
        idle = table.socket(Protocol.TCP)
        with pytest.raises(ProgramError):
            arr.update(0, idle)

    def test_key_bounds(self, table, listener):
        arr = SockArray(4)
        with pytest.raises(ProgramError):
            arr.update(4, listener)
        with pytest.raises(ProgramError):
            arr.lookup(-1)

    def test_delete(self, table, listener):
        arr = SockArray(4)
        arr.update(1, listener)
        arr.delete(1)
        assert arr.lookup(1) is None
        assert arr.updates == 2

    def test_stale_closed_socket_reads_empty(self, table, listener):
        arr = SockArray(4)
        arr.update(0, listener)
        table.close(listener)
        assert arr.lookup(0) is None

    def test_size_positive(self):
        with pytest.raises(ValueError):
            SockArray(0)

    def test_silent_replacement_is_counted(self, table, listener):
        """Bugfix: ``update`` over an occupied slot silently dropped the
        previous socket from the map — correct sk_lookup semantics, but
        invisible in stats, so a control-plane bug that repeatedly clobbered
        a live listener's slot left no trace.  Replacements now count."""
        other = table.bind_listen(Protocol.TCP, parse_address("198.18.0.2"), 80)
        arr = SockArray(4)
        arr.update(0, listener)
        assert arr.replacements == 0
        arr.update(0, other)  # displaces a live listener
        assert arr.replacements == 1
        arr.update(0, other)  # same socket again: not a replacement
        assert arr.replacements == 1

    def test_replacing_stale_slot_not_counted(self, table, listener):
        """Overwriting a closed socket's slot is cleanup, not displacement."""
        other = table.bind_listen(Protocol.TCP, parse_address("198.18.0.2"), 80)
        arr = SockArray(4)
        arr.update(0, listener)
        table.close(listener)
        arr.update(0, other)
        assert arr.replacements == 0


class TestVerifier:
    def test_bad_port_range_rejected(self, table):
        arr = SockArray(4)
        prog = SkLookupProgram("p", arr)
        with pytest.raises(VerifierError):
            prog.add_rule(MatchRule(Verdict.PASS, port_lo=100, port_hi=10, map_key=0))
        with pytest.raises(VerifierError):
            prog.add_rule(MatchRule(Verdict.PASS, port_lo=0, port_hi=80, map_key=0))

    def test_mixed_family_prefixes_rejected(self):
        arr = SockArray(4)
        prog = SkLookupProgram("p", arr)
        with pytest.raises(VerifierError):
            prog.add_rule(
                MatchRule(
                    Verdict.PASS,
                    prefixes=(POOL, parse_prefix("2001:db8::/44")),
                    map_key=0,
                )
            )

    def test_map_key_out_of_range_rejected(self):
        arr = SockArray(2)
        prog = SkLookupProgram("p", arr)
        with pytest.raises(VerifierError):
            prog.add_rule(MatchRule(Verdict.PASS, map_key=5))

    def test_drop_with_map_key_rejected(self):
        prog = SkLookupProgram("p", SockArray(2))
        with pytest.raises(VerifierError):
            prog.add_rule(MatchRule(Verdict.DROP, map_key=0))

    def test_rule_limit(self):
        prog = SkLookupProgram("p", SockArray(2))
        prog._rules = [MatchRule(Verdict.PASS)] * MAX_RULES_PER_PROGRAM
        with pytest.raises(VerifierError):
            prog.add_rule(MatchRule(Verdict.PASS))

    def test_verify_program_rechecks(self, table, listener):
        arr = SockArray(4)
        prog = SkLookupProgram("p", arr, [MatchRule(Verdict.PASS, map_key=1)])
        verify_program(prog)  # passes


class TestProgramSemantics:
    def test_figure5b_match_and_redirect(self, table, listener):
        """The paper's Figure 5b program: match 192.0.2.0/24 tcp/80."""
        arr = SockArray(4)
        arr.update(0, listener)
        prog = SkLookupProgram("redir_prefix", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),
        ])
        verdict, sock = prog.compiled().run(packet())
        assert verdict is Verdict.PASS and sock is listener
        verdict, sock = prog.compiled().run(packet(dst="203.0.113.1"))
        assert sock is None  # outside prefix: falls through (SK_PASS, no sk)
        verdict, sock = prog.compiled().run(packet(dport=443))
        assert sock is None  # port mismatch

    def test_protocol_match_uses_wire_protocol(self, table):
        udp_listener = table.bind_listen(Protocol.UDP, INTERNAL, 443, owner="quic")
        arr = SockArray(2)
        arr.update(0, udp_listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.UDP, (POOL,), 443, 443, map_key=0),
        ])
        # QUIC packets are UDP on the wire and must match UDP rules.
        verdict, sock = prog.compiled().run(packet(dport=443, proto=Protocol.QUIC))
        assert sock is udp_listener

    def test_first_matching_rule_wins(self, table, listener):
        other = table.bind_listen(Protocol.TCP, parse_address("198.18.0.2"), 80)
        arr = SockArray(4)
        arr.update(0, listener)
        arr.update(1, other)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=1),
        ])
        _, sock = prog.compiled().run(packet())
        assert sock is listener

    def test_empty_slot_falls_through_to_next_rule(self, table, listener):
        doomed = table.bind_listen(Protocol.TCP, parse_address("198.18.0.2"), 80)
        arr = SockArray(4)
        arr.update(1, doomed)
        arr.update(2, listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),  # empty
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=1),  # stale
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=2),
        ])
        table.close(doomed)
        _, sock = prog.compiled().run(packet())
        assert sock is listener
        assert prog.stats["fallthroughs"] == 2

    def test_drop_rule(self):
        """§3.3: keep an internal-only service unreachable from outside."""
        prog = SkLookupProgram("guard", SockArray(2), [
            MatchRule(Verdict.DROP, Protocol.TCP, (parse_prefix("192.0.2.128/25"),), 1, 65535),
        ])
        verdict, sock = prog.compiled().run(packet(dst="192.0.2.200"))
        assert verdict is Verdict.DROP
        verdict, _ = prog.compiled().run(packet(dst="192.0.2.1"))
        assert verdict is Verdict.PASS

    def test_explicit_pass_rule_stops_evaluation(self, table, listener):
        arr = SockArray(2)
        arr.update(0, listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80),          # pass-through
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),
        ])
        _, sock = prog.compiled().run(packet())
        assert sock is None  # explicit pass returned before the redirect

    def test_all_ports_rule(self, table, listener):
        """Figure 4c: one socket receives every port of one address."""
        arr = SockArray(2)
        arr.update(0, listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP,
                      (parse_prefix("203.0.113.1/32"),), 1, 65535, map_key=0),
        ])
        for port in (1, 80, 443, 31337, 65535):
            _, sock = prog.compiled().run(packet(dst="203.0.113.1", dport=port))
            assert sock is listener

    def test_rule_removal_by_label(self, table, listener):
        arr = SockArray(2)
        arr.update(0, listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0, label="pool"),
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 443, 443, map_key=0, label="pool"),
        ])
        assert prog.remove_rules("pool") == 2
        _, sock = prog.compiled().run(packet())
        assert sock is None

    def test_remove_rules_counted_in_stats(self, table, listener):
        arr = SockArray(2)
        arr.update(0, listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0, label="pool"),
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 443, 443, map_key=0, label="pool"),
        ])
        prog.remove_rules("pool")
        assert prog.stats["rules_removed"] == 2
        prog.remove_rules("pool")  # nothing left: counter must not move
        assert prog.stats["rules_removed"] == 2

    def test_remove_rules_empty_label_rejected(self, table, listener):
        """Bugfix: ``remove_rules("")`` used to silently match every
        unlabeled rule — a detach typo could strip a live program."""
        arr = SockArray(2)
        arr.update(0, listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),
        ])
        with pytest.raises(ProgramError):
            prog.remove_rules("")
        assert len(prog.rules()) == 1  # untouched
        assert prog.stats["rules_removed"] == 0

    def test_map_update_takes_effect_immediately(self, table, listener):
        """The §3.3 capability: re-pointing live traffic via map update."""
        other = table.bind_listen(Protocol.TCP, parse_address("198.18.0.2"), 80)
        arr = SockArray(2)
        arr.update(0, listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),
        ])
        _, before = prog.compiled().run(packet())
        arr.update(0, other)
        _, after = prog.compiled().run(packet(sport=40001))
        assert before is listener and after is other


class TestLookupPathPipeline:
    def test_stage_order_connected_first(self, table, listener):
        path = LookupPath(table)
        arr = SockArray(2)
        arr.update(0, listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),
        ])
        path.attach(prog)
        pkt = packet()
        child = table.establish(listener, pkt.tuple5)
        result = path.dispatch(pkt)
        assert result.stage is LookupStage.CONNECTED and result.socket is child

    def test_sk_lookup_beats_specific_listener(self, table, listener):
        """Figure 5a: programs run BEFORE the listening-socket lookup."""
        bound = table.bind_listen(Protocol.TCP, parse_address("192.0.2.77"), 80)
        arr = SockArray(2)
        arr.update(0, listener)
        prog = SkLookupProgram("p", arr, [
            MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0),
        ])
        path = LookupPath(table)
        path.attach(prog)
        result = path.dispatch(packet(dst="192.0.2.77"))
        assert result.stage is LookupStage.SK_LOOKUP
        assert result.socket is listener and result.socket is not bound

    def test_fallback_to_listener_then_wildcard(self, table):
        specific = table.bind_listen(Protocol.TCP, parse_address("192.0.2.5"), 80)
        wild = table.bind_listen(Protocol.TCP, None, 8080)
        path = LookupPath(table)
        r1 = path.dispatch(packet(dst="192.0.2.5"))
        assert r1.stage is LookupStage.LISTENER and r1.socket is specific
        r2 = path.dispatch(packet(dst="203.0.113.9", dport=8080))
        assert r2.stage is LookupStage.WILDCARD and r2.socket is wild

    def test_miss(self, table):
        path = LookupPath(table)
        result = path.dispatch(packet())
        assert result.stage is LookupStage.MISS and not result.delivered

    def test_drop_verdict_short_circuits(self, table):
        wild = table.bind_listen(Protocol.TCP, None, 80)
        prog = SkLookupProgram("guard", SockArray(1), [
            MatchRule(Verdict.DROP, Protocol.TCP, (POOL,), 80, 80),
        ])
        path = LookupPath(table)
        path.attach(prog)
        result = path.dispatch(packet())
        assert result.stage is LookupStage.DROPPED
        assert wild.enqueued == 0

    def test_programs_run_in_attach_order(self, table, listener):
        other = table.bind_listen(Protocol.TCP, parse_address("198.18.0.2"), 80)
        arr1, arr2 = SockArray(1), SockArray(1)
        arr1.update(0, listener)
        arr2.update(0, other)
        p1 = SkLookupProgram("p1", arr1, [MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0)])
        p2 = SkLookupProgram("p2", arr2, [MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0)])
        path = LookupPath(table)
        path.attach(p1)
        path.attach(p2)
        assert path.dispatch(packet()).socket is listener
        path.detach(p1)
        assert path.dispatch(packet(sport=40002)).socket is other

    def test_double_attach_rejected(self, table):
        prog = SkLookupProgram("p", SockArray(1))
        path = LookupPath(table)
        path.attach(prog)
        with pytest.raises(ValueError):
            path.attach(prog)

    def test_detach_never_attached_raises_typed_error(self, table):
        """Bugfix: detaching a program that was never attached leaked a bare
        ``ValueError`` from ``list.remove`` — indistinguishable from every
        other ValueError in a failover handler.  It is now a
        :class:`ProgramNotAttachedError` naming both sides."""
        attached = SkLookupProgram("live", SockArray(1))
        stranger = SkLookupProgram("stranger", SockArray(1))
        path = LookupPath(table)
        path.attach(attached)
        with pytest.raises(ProgramNotAttachedError) as err:
            path.detach(stranger)
        assert "stranger" in str(err.value) and "live" in str(err.value)
        assert isinstance(err.value, ProgramError)
        assert path.programs() == (attached,)  # untouched

    def test_detach_from_empty_path_names_no_programs(self, table):
        path = LookupPath(table)
        with pytest.raises(ProgramNotAttachedError) as err:
            path.detach(SkLookupProgram("p", SockArray(1)))
        assert "none" in str(err.value)

    def test_deliver_enqueues(self, table, listener):
        arr = SockArray(1)
        arr.update(0, listener)
        prog = SkLookupProgram("p", arr, [MatchRule(Verdict.PASS, Protocol.TCP, (POOL,), 80, 80, map_key=0)])
        path = LookupPath(table)
        path.attach(prog)
        path.dispatch(packet(), deliver=True)
        assert listener.enqueued == 1

    def test_stage_counts(self, table, listener):
        path = LookupPath(table)
        path.dispatch(packet())
        path.dispatch(packet(dst="192.0.2.8"))
        assert path.stage_counts[LookupStage.MISS] == 2


class TestFlowHash:
    def test_deterministic_per_flow(self):
        p = packet()
        assert flow_hash(p) == flow_hash(packet())

    def test_differs_across_flows(self):
        hashes = {flow_hash(packet(sport=40000 + i)) for i in range(100)}
        assert len(hashes) == 100

    def test_quic_and_udp_hash_identically(self):
        q = packet(proto=Protocol.QUIC, dport=443)
        u = packet(proto=Protocol.UDP, dport=443)
        assert flow_hash(q) == flow_hash(u)
