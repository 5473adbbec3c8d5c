"""The control-plane checker pass (repro.check.controlplane), rule by rule."""

from repro.check import CheckContext, PolicyInfo, ProgramView, context_from_deployment, run_checkers
from repro.check.controlplane import ControlPlaneChecker, sample_pool_addresses
from repro.core.pool import AddressPool
from repro.deploy import Deployment, DeploymentConfig
from repro.netsim.addr import parse_address, parse_prefix
from repro.netsim.packet import Protocol
from repro.sockets.sklookup import MatchRule, Verdict

WEB = parse_prefix("192.0.2.0/24")
STANDBY = parse_prefix("203.0.113.0/24")


def pool(prefix=WEB, name="web-pool", active=None):
    return AddressPool(prefix, active=active, name=name)


def policy(name="web", ttl=30, prefix=WEB, pool_name=None):
    return PolicyInfo(name=name, ttl=ttl,
                      pool=pool(prefix, name=pool_name or f"{name}-pool"))


def redirect(prefixes=(WEB,), key=0, lo=1, hi=0xFFFF):
    return MatchRule(action=Verdict.PASS, protocol=Protocol.TCP,
                     prefixes=tuple(prefixes), port_lo=lo, port_hi=hi, map_key=key)


def program(rules, live=(0,), name="edge"):
    return ProgramView(name=name, rules=tuple(rules), map_size=8,
                       live_slots=frozenset(live), path=name)


def ctx(**kwargs):
    kwargs.setdefault("announced", [WEB, STANDBY])
    kwargs.setdefault("listening", [WEB, STANDBY])
    kwargs.setdefault("programs", [program([redirect((WEB,)), redirect((STANDBY,))])])
    return CheckContext(**kwargs)


def run(context):
    return ControlPlaneChecker().run(context)


def prove(context):
    """Every default pass (no lint): the program, control-plane and symbolic ones."""
    return run_checkers(context).findings


def rules_of(findings):
    return sorted(f.rule for f in findings)


class TestSampling:
    def test_prefix_sampling_is_deterministic_and_cornered(self):
        p = pool()
        a, b = sample_pool_addresses(p, 6), sample_pool_addresses(p, 6)
        assert a == b
        assert a[0] == WEB.first and a[1] == WEB.last

    def test_explicit_list_sampled_verbatim(self):
        p = pool()
        p.set_active([WEB.first, WEB.last])
        assert sample_pool_addresses(p, 6) == [WEB.first, WEB.last]


class TestCoverage:
    def test_clean_context(self):
        assert run(ctx(policies=[policy()])) == []

    def test_unrouted_pool_cp001(self):
        findings = run(ctx(policies=[policy(prefix=parse_prefix("198.18.7.0/24"))],
                           programs=[]))
        assert "CP001" in rules_of(findings)

    def test_unlistened_pool_cp002(self):
        findings = run(ctx(policies=[policy()], listening=[STANDBY], programs=[]))
        assert "CP002" in rules_of(findings)

    def test_pool_split_across_two_announcements_is_covered(self):
        # Coverage is against the union: two /25 halves route the whole /24.
        halves = [parse_prefix("192.0.2.0/25"), parse_prefix("192.0.2.128/25")]
        findings = run(ctx(policies=[policy()], announced=[*halves, STANDBY],
                           listening=[*halves, STANDBY]))
        assert "CP001" not in rules_of(findings)
        assert "CP002" not in rules_of(findings)

    def test_no_announcements_known_means_no_coverage_claim(self):
        # An empty announcement table means "not modelled", not "nothing
        # announced" — the checker must not cry wolf.
        findings = run(CheckContext(policies=[policy()]))
        assert "CP001" not in rules_of(findings)


class TestOverlapCP003:
    def test_distinct_pools_sharing_space_warn(self):
        findings = run(ctx(policies=[
            policy("a"), policy("b", prefix=parse_prefix("192.0.2.0/25")),
        ]))
        cp003 = [f for f in findings if f.rule == "CP003"]
        assert len(cp003) == 1 and "'b'" in cp003[0].message

    def test_shared_pool_object_is_deliberate(self):
        shared = pool()
        findings = run(ctx(policies=[
            PolicyInfo("a", shared, 30), PolicyInfo("b", shared, 30),
        ]))
        assert "CP003" not in rules_of(findings)


class TestShadowedCP009:
    @staticmethod
    def info(name, match=None, priority=100, prefix=WEB):
        return PolicyInfo(name, pool(prefix, name=f"{name}-pool"), 30, priority,
                          match={k: frozenset(v) for k, v in (match or {}).items()})

    def shadowed(self, *policies):
        findings = run(CheckContext(policies=list(policies)))
        return [f.location for f in findings if f.rule == "CP009"]

    def test_later_catch_all_is_shadowed_by_an_earlier_one(self):
        assert self.shadowed(self.info("a"), self.info("b")) == ["policy:b"]
        # Priority, not config order, decides who is earlier.
        assert self.shadowed(self.info("a"), self.info("b", priority=1)) == ["policy:a"]

    def test_narrow_rule_behind_a_broad_one_is_shadowed(self):
        assert self.shadowed(
            self.info("broad", {"pop": ["iad", "lhr"]}, priority=1),
            self.info("narrow", {"pop": ["iad"], "account_type": ["free"]}, priority=2),
        ) == ["policy:narrow"]

    def test_jointly_shadowed_by_several_earlier_policies(self):
        assert self.shadowed(
            self.info("iad", {"pop": ["iad"]}, priority=1),
            self.info("lhr", {"pop": ["lhr"]}, priority=2),
            self.info("both", {"pop": ["iad", "lhr"]}, priority=3),
        ) == ["policy:both"]

    def test_match_that_can_never_hold(self):
        assert self.shadowed(
            self.info("nobody", {"pop": []}),
            self.info("wrong-family", {"family": [6]}),  # a v4 pool
        ) == ["policy:nobody", "policy:wrong-family"]

    def test_overlapping_but_reachable_policies_are_clean(self):
        assert self.shadowed(
            self.info("free-iad", {"pop": ["iad"], "account_type": ["free"]}, priority=1),
            self.info("iad", {"pop": ["iad"]}, priority=2),
            self.info("v6", prefix=parse_prefix("2001:db8::/44"), priority=3),
            self.info("rest", priority=4),
        ) == []

    def test_from_policy_carries_the_match(self):
        from repro.core.policy import Policy

        live = Policy("p", pool(), match={"pop": {"iad"}})
        assert PolicyInfo.from_policy(live).match == {"pop": frozenset({"iad"})}


class TestTTL:
    def test_ttl_zero_warns_cp005(self):
        findings = run(ctx(policies=[policy(ttl=0)]))
        assert "CP005" in rules_of(findings)

    def test_ttl_past_horizon_warns_cp006(self):
        findings = run(ctx(policies=[policy(ttl=7200)]))
        assert "CP006" in rules_of(findings)

    def test_horizon_is_configurable(self):
        context = ctx(policies=[policy(ttl=7200)])
        context.ttl_horizon_max = 10_000
        assert "CP006" not in rules_of(run(context))

    def test_soa_minimum_cp007(self):
        context = ctx(policies=[policy()])
        context.soa_minimum = 0
        assert "CP007" in rules_of(run(context))
        context.soa_minimum = 100_000
        assert "CP007" in rules_of(run(context))
        context.soa_minimum = 300
        assert "CP007" not in rules_of(run(context))


class TestStandbyCP004:
    def test_undispatched_standby_errors(self):
        findings = run(ctx(standby_pools=[pool(STANDBY, name="backup")],
                           programs=[program([redirect((WEB,))])]))
        assert "CP004" in rules_of(findings)

    def test_dispatched_standby_is_fine(self):
        # The standby is dispatched on both wire protocols the edge terminates.
        both = MatchRule(action=Verdict.PASS, protocol=None, prefixes=(STANDBY,), map_key=0)
        findings = run(ctx(standby_pools=[pool(STANDBY, name="backup")],
                           programs=[program([redirect((WEB,)), both])]))
        assert "CP004" not in rules_of(findings)

    def test_tcp_only_standby_leaves_udp_undispatched(self):
        findings = run(ctx(standby_pools=[pool(STANDBY, name="backup")]))
        cp004 = [f for f in findings if f.rule == "CP004"]
        assert len(cp004) == 1
        assert "(203.0.113.0/24 udp 80, 203.0.113.0/24 udp 443)" in cp004[0].message

    def test_drop_ahead_of_the_standby_redirect_is_named(self):
        # A live redirect overlapping the standby used to be enough; the DROP
        # in front of it takes half the pool, and CP004 names exactly that half.
        scrub = MatchRule(action=Verdict.DROP, protocol=None,
                          prefixes=(parse_prefix("203.0.113.0/25"),))
        both = MatchRule(action=Verdict.PASS, protocol=None, prefixes=(STANDBY,), map_key=0)
        findings = run(ctx(standby_pools=[pool(STANDBY, name="backup")],
                           programs=[program([scrub, both])]))
        cp004 = [f for f in findings if f.rule == "CP004"]
        assert len(cp004) == 1
        assert "path 'edge' (203.0.113.0/25 tcp 80, " in cp004[0].message
        assert "203.0.113.128" not in cp004[0].message

    def test_redirect_with_empty_slot_does_not_count(self):
        # Protocol-any, so the dead slot is the only reason the pool is left over.
        dead = MatchRule(action=Verdict.PASS, protocol=None, prefixes=(STANDBY,), map_key=5)
        findings = run(ctx(
            standby_pools=[pool(STANDBY, name="backup")],
            programs=[program([redirect((WEB,)), dead])],
        ))
        cp004 = [f for f in findings if f.rule == "CP004"]
        assert len(cp004) == 1
        assert cp004[0].message.startswith("standby pool 203.0.113.0/24 is not covered")

    def test_redirect_outside_service_ports_does_not_count(self):
        # Protocol-any, so the port range 22..22 is the only reason the pool is left over.
        ssh = MatchRule(action=Verdict.PASS, protocol=None, prefixes=(STANDBY,),
                        port_lo=22, port_hi=22, map_key=0)
        findings = run(ctx(
            standby_pools=[pool(STANDBY, name="backup")],
            programs=[program([redirect((WEB,)), ssh])],
        ))
        cp004 = [f for f in findings if f.rule == "CP004"]
        assert len(cp004) == 1
        assert cp004[0].message.startswith("standby pool 203.0.113.0/24 is not covered")

    def test_no_programs_means_dispatch_not_modelled(self):
        findings = run(ctx(standby_pools=[pool(STANDBY, name="backup")], programs=[]))
        assert "CP004" not in rules_of(findings)


class TestEndToEndCP008:
    """End-to-end reachability.  In config mode SK100 and SK006 now prove
    what CP008 used to sample; CP008 itself is the live probe only."""

    def test_unannounced_addresses_fail_statically(self):
        findings = prove(ctx(policies=[policy()], announced=[STANDBY], programs=[]))
        assert "CP008" not in rules_of(findings)
        sk100 = [f for f in findings if f.rule == "SK100"]
        assert len(sk100) == 1 and sk100[0].location == "routing"
        assert "outside every announced prefix: 192.0.2.0/24 tcp 80" in sk100[0].message

    def test_drop_rule_fails_the_probe(self):
        findings = prove(ctx(
            policies=[policy()],
            programs=[program([
                MatchRule(action=Verdict.DROP, protocol=Protocol.TCP,
                          prefixes=(WEB,), port_lo=80, port_hi=80),
                redirect((WEB,)),
            ])],
        ))
        sk006 = [f for f in findings if f.rule == "SK006"]
        assert [f.location for f in sk006] == ["edge#rule0"]
        assert "policy 'web'" in sk006[0].message

    def test_uncovered_port_fails_the_probe(self):
        findings = prove(ctx(
            policies=[policy()],
            programs=[program([redirect((WEB,), lo=443, hi=443)])],
        ))
        sk100 = [f for f in findings if f.rule == "SK100"]
        assert len(sk100) == 1 and sk100[0].location == "path:edge"
        assert "192.0.2.0/24 tcp 80" in sk100[0].message
        assert "192.0.2.0/24 tcp 443" not in sk100[0].message

    def test_empty_slot_falls_through_to_next_rule(self):
        findings = prove(ctx(
            policies=[policy()],
            programs=[program([redirect((WEB,), key=5), redirect((WEB,), key=0)])],
        ))
        # TCP falls through to the live slot; only UDP (no rule) is left over.
        sk100 = [f for f in findings if f.rule == "SK100"]
        assert len(sk100) == 1
        assert sk100[0].message == (
            "2 mintable region(s) reach no live socket and no explicit DROP via this path: "
            "192.0.2.0/24 udp 80, 192.0.2.0/24 udp 443")

    def test_findings_aggregate_per_policy(self):
        findings = prove(ctx(policies=[policy()], announced=[STANDBY], programs=[]))
        sk100 = [f for f in findings if f.rule == "SK100"]
        assert len(sk100) == 1 and sk100[0].message.startswith("4 mintable region(s)")

    def test_config_mode_runs_no_probe(self):
        findings = run(ctx(policies=[policy()], announced=[STANDBY], programs=[]))
        assert "CP008" not in rules_of(findings)

    def test_live_probe_checks_every_service_port(self):
        dep = Deployment.build(DeploymentConfig(num_hostnames=40))
        dc = dep.cdn.datacenters[sorted(dep.cdn.datacenters)[0]]
        program = next(iter(dc.servers.values())).lookup_path.programs()[0]
        rules = program.rules()
        program.remove_rules(rules[0].label)
        for rule in rules:
            if rule.port_lo != 443:
                program.add_rule(rule)
        cp008 = [f for f in run(context_from_deployment(dep)) if f.rule == "CP008"]
        assert cp008 and all("for port 443" in f.message for f in cp008)


class TestSamplePoolAddresses:
    def test_explicit_list_respects_the_sample_cap(self):
        # Regression: the cap used to be max(samples, 2) + 2, silently
        # probing two more addresses than asked for.
        addrs = tuple(parse_address(f"192.0.2.{i}") for i in range(1, 11))
        assert sample_pool_addresses(pool(active=addrs), 4) == list(addrs[:4])
        assert len(sample_pool_addresses(pool(active=addrs), 64)) == 10

    def test_explicit_list_keeps_the_two_sample_floor(self):
        addrs = tuple(parse_address(f"192.0.2.{i}") for i in range(1, 11))
        assert sample_pool_addresses(pool(active=addrs), 1) == list(addrs[:2])

    def test_prefix_sampling_is_deterministic_with_corners_first(self):
        probes = sample_pool_addresses(pool(), 4)
        assert probes == sample_pool_addresses(pool(), 4)
        assert probes[0] == WEB.first and probes[1] == WEB.last
