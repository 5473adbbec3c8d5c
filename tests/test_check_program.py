"""The sk_lookup program verifier pass (repro.check.program), rule by rule."""

from repro.check import CheckContext, PolicyInfo, ProgramView
from repro.check.program import ProgramChecker, rule_covers, rules_overlap
from repro.core.pool import AddressPool
from repro.netsim.addr import parse_prefix
from repro.netsim.packet import Protocol
from repro.sockets.sklookup import MatchRule, Verdict


def rule(action=Verdict.PASS, proto=Protocol.TCP, prefixes=("192.0.2.0/24",),
         lo=1, hi=0xFFFF, key=None, label=""):
    return MatchRule(
        action=action,
        protocol=proto,
        prefixes=tuple(parse_prefix(p) for p in prefixes),
        port_lo=lo, port_hi=hi, map_key=key, label=label,
    )


def view(rules, live=(0,), size=4, name="prog", path="edge"):
    return ProgramView(name=name, rules=tuple(rules), map_size=size,
                       live_slots=frozenset(live), path=path)


def check(*programs, policies=(), ports=(80, 443)):
    ctx = CheckContext(programs=list(programs), policies=list(policies),
                       service_ports=ports)
    return ProgramChecker().run(ctx)


def rules_of(findings):
    return sorted(f.rule for f in findings)


class TestMatchAlgebra:
    def test_cover_is_conjunctive(self):
        broad = rule(prefixes=("192.0.2.0/24",))
        narrow = rule(prefixes=("192.0.2.0/25",), lo=443, hi=443)
        assert rule_covers(broad, narrow)
        assert not rule_covers(narrow, broad)

    def test_any_protocol_covers_specific_not_vice_versa(self):
        any_proto = rule(proto=None)
        tcp = rule(proto=Protocol.TCP)
        assert rule_covers(any_proto, tcp)
        assert not rule_covers(tcp, any_proto)

    def test_empty_prefixes_mean_match_any_address(self):
        catch_all = rule(prefixes=())
        scoped = rule(prefixes=("192.0.2.0/24",))
        assert rule_covers(catch_all, scoped)
        assert not rule_covers(scoped, catch_all)

    def test_overlap_needs_all_three_axes(self):
        a = rule(prefixes=("192.0.2.0/25",), lo=80, hi=80)
        assert rules_overlap(a, rule(prefixes=("192.0.2.0/24",), lo=80, hi=80))
        # Disjoint ports / prefixes / protocols each kill the overlap.
        assert not rules_overlap(a, rule(prefixes=("192.0.2.0/24",), lo=443, hi=443))
        assert not rules_overlap(a, rule(prefixes=("192.0.2.128/25",), lo=80, hi=80))
        assert not rules_overlap(a, rule(proto=Protocol.UDP, lo=80, hi=80))

    def test_quic_rides_udp(self):
        # QUIC's wire protocol is UDP: the match spaces share packets.
        assert rules_overlap(rule(proto=Protocol.QUIC), rule(proto=Protocol.UDP))


class TestSanitySK001:
    def test_bad_port_range(self):
        findings = check(view([rule(lo=500, hi=80, key=0)]))
        assert any(f.rule == "SK001" and f.name == "bad-port-range" for f in findings)

    def test_mixed_family(self):
        findings = check(view([rule(prefixes=("192.0.2.0/24", "2001:db8::/64"), key=0)]))
        assert any(f.rule == "SK001" and f.name == "mixed-family" for f in findings)

    def test_drop_with_map_key(self):
        findings = check(view([rule(action=Verdict.DROP, key=0)]))
        assert any(f.rule == "SK001" and f.name == "drop-with-map-key" for f in findings)

    def test_map_key_out_of_range(self):
        findings = check(view([rule(key=9)], size=4))
        assert any(f.rule == "SK001" and f.name == "map-key-range" for f in findings)

    def test_clean_program_has_no_findings(self):
        findings = check(view([rule(key=0)], live=(0,)))
        assert findings == []


class TestShadowingSK002:
    def test_terminal_rule_shadows_covered_later_rule(self):
        findings = check(view([
            rule(key=0, label="broad"),
            rule(prefixes=("192.0.2.0/25",), lo=443, hi=443, key=0, label="dead"),
        ], live=(0,)))
        assert rules_of(findings) == ["SK002"]
        assert "shadowed by rule 0" in findings[0].message
        assert "dead" in findings[0].location

    def test_empty_slot_redirect_is_not_terminal(self):
        # The earlier redirect's slot is empty: dispatch falls through, the
        # later rule is reachable, so there is no shadow (only the SK004).
        findings = check(view([
            rule(key=1, label="broad"),
            rule(prefixes=("192.0.2.0/25",), key=0, label="reachable"),
        ], live=(0,)))
        assert "SK002" not in rules_of(findings)

    def test_drop_shadows_too(self):
        findings = check(view([
            rule(action=Verdict.DROP),
            rule(prefixes=("192.0.2.0/25",), key=0),
        ], live=(0,)))
        assert "SK002" in rules_of(findings)

    def test_one_rule_with_two_halves_shadows_the_whole(self):
        # Neither /25 alone contains the /24, but the rule's union does.
        findings = check(view([
            rule(prefixes=("192.0.2.0/25", "192.0.2.128/25"), key=0, label="halves"),
            rule(prefixes=("192.0.2.0/24",), lo=443, hi=443, key=0, label="dead"),
        ], live=(0,)))
        assert rules_of(findings) == ["SK002"]
        assert "shadowed by rule 0" in findings[0].message

    def test_jointly_shadowed_by_two_rules(self):
        findings = check(view([
            rule(prefixes=("192.0.2.0/25",), key=0),
            rule(action=Verdict.DROP, prefixes=("192.0.2.128/25",)),
            rule(prefixes=("192.0.2.0/24",), key=0, label="dead"),
        ], live=(0,)))
        sk002 = [f for f in findings if f.rule == "SK002"]
        assert len(sk002) == 1 and "dead" in sk002[0].location
        assert "earlier rules 0, 1 jointly take every packet" in sk002[0].message

    def test_partial_overlap_is_not_a_shadow(self):
        findings = check(view([
            rule(prefixes=("192.0.2.0/25",), key=0),
            rule(prefixes=("192.0.2.0/24",), key=0),  # wider: still reachable
        ], live=(0,)))
        assert "SK002" not in rules_of(findings)


class TestSlotsSK004SK005:
    def test_redirect_to_empty_slot_warns(self):
        findings = check(view([rule(key=2)], live=(0,)))
        sk004 = [f for f in findings if f.rule == "SK004"]
        assert len(sk004) == 1 and "slot 2" in sk004[0].message

    def test_live_slot_without_rule_warns(self):
        findings = check(view([rule(key=0)], live=(0, 3)))
        sk005 = [f for f in findings if f.rule == "SK005"]
        assert len(sk005) == 1 and "slot 3" in sk005[0].message


class TestDropVsPoliciesSK006:
    def _policy(self, active=None):
        pool = AddressPool(parse_prefix("192.0.2.0/24"),
                           active=parse_prefix(active) if active else None,
                           name="web-pool")
        return PolicyInfo(name="web", pool=pool, ttl=30)

    def test_drop_overlapping_active_set_errors(self):
        findings = check(
            view([rule(action=Verdict.DROP, prefixes=("192.0.2.128/25",), lo=80, hi=80),
                  rule(key=0)]),
            policies=[self._policy()],
        )
        assert "SK006" in rules_of(findings)

    def test_drop_outside_active_set_is_fine(self):
        findings = check(
            view([rule(action=Verdict.DROP, prefixes=("192.0.2.128/25",), lo=80, hi=80),
                  rule(prefixes=("192.0.2.0/25",), key=0)]),
            policies=[self._policy(active="192.0.2.0/25")],
        )
        assert "SK006" not in rules_of(findings)

    def test_drop_outside_service_ports_is_fine(self):
        findings = check(
            view([rule(action=Verdict.DROP, lo=22, hi=22), rule(key=0)]),
            policies=[self._policy()],
        )
        assert "SK006" not in rules_of(findings)

    def test_drop_behind_a_live_redirect_never_fires(self):
        # First-match never reaches the DROP: no SK006, but SK002 calls it dead.
        findings = check(
            view([rule(key=0),
                  rule(action=Verdict.DROP, prefixes=("192.0.2.128/25",), lo=80, hi=80,
                       label="late-drop")]),
            policies=[self._policy()],
        )
        assert rules_of(findings) == ["SK002"]
        assert "late-drop" in findings[0].location

    def test_drop_vs_explicit_active_list(self):
        pool = AddressPool(parse_prefix("192.0.2.0/24"), name="web-pool")
        pool.set_active([parse_prefix("192.0.2.200/32").first])
        findings = check(
            view([rule(action=Verdict.DROP, prefixes=("192.0.2.128/25",)),
                  rule(key=0)]),
            policies=[PolicyInfo(name="web", pool=pool, ttl=30)],
        )
        assert "SK006" in rules_of(findings)


class TestCrossProgramSK003:
    def test_overlapping_redirects_on_one_path_warn(self):
        first = view([rule(key=0)], name="a", path="shared")
        second = view([rule(prefixes=("192.0.2.0/25",), key=1)],
                      live=(1,), name="b", path="shared")
        findings = check(first, second)
        sk003 = [f for f in findings if f.rule == "SK003"]
        assert len(sk003) == 1
        assert sk003[0].location.startswith("b#rule0")
        assert "attached earlier" in sk003[0].message

    def test_different_paths_do_not_conflict(self):
        first = view([rule(key=0)], name="a", path="p1")
        second = view([rule(key=1)], live=(1,), name="b", path="p2")
        assert rules_of(check(first, second)) == []

    def test_earlier_empty_slot_does_not_claim_packets(self):
        first = view([rule(key=2)], live=(0,), name="a", path="shared")
        second = view([rule(key=0)], live=(0,), name="b", path="shared")
        findings = check(first, second)
        assert "SK003" not in rules_of(findings)
