"""Policies, the engine, the policy answer source, the agility controller."""

import random

import pytest

from repro.clock import Clock
from repro.core.agility import AgilityController
from repro.core.authoritative import PolicyAnswerSource
from repro.core.policy import Policy, PolicyAttributes, PolicyEngine
from repro.core.pool import AddressPool
from repro.core.strategies import MappedAssignment
from repro.dns.records import DomainName, Question, RRType
from repro.dns.server import Answer, AnswerSource, QueryContext
from repro.dns.wire import Rcode
from repro.edge.customers import AccountType, Customer, CustomerRegistry
from repro.netsim.addr import IPv4, IPv6, parse_prefix

V4_POOL = AddressPool(parse_prefix("192.0.2.0/24"), name="v4")
CTX_IAD = QueryContext(pop="iad")


def attrs(pop="iad", account="free", family=IPv4, hostname="x.example.com"):
    return PolicyAttributes(pop=pop, account_type=account, family=family, hostname=hostname)


class TestPolicyMatching:
    def test_empty_match_matches_all(self):
        policy = Policy("all", V4_POOL)
        assert policy.matches(attrs())
        assert policy.matches(attrs(pop="lhr", account=None))

    def test_attribute_sets(self):
        policy = Policy("narrow", V4_POOL,
                        match={"pop": {"iad", "ord"}, "account_type": {"free"}})
        assert policy.matches(attrs(pop="iad"))
        assert policy.matches(attrs(pop="ord"))
        assert not policy.matches(attrs(pop="lhr"))
        assert not policy.matches(attrs(account="enterprise"))

    def test_unknown_match_key_rejected(self):
        with pytest.raises(ValueError):
            Policy("bad", V4_POOL, match={"favourite_colour": {"blue"}})

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            Policy("bad", V4_POOL, ttl=-1)

    @pytest.mark.parametrize("values", ["lhr", b"lhr", 4, None])
    def test_bare_match_value_rejected(self, values):
        # set("lhr") is {"l", "h", "r"}: it would never match lhr and would
        # match a PoP named "l".
        with pytest.raises(ValueError, match=r"match\['pop'\] must be a collection"):
            Policy("typo", V4_POOL, match={"pop": values})

    def test_match_is_frozen_after_construction(self):
        allowed = {"iad"}
        policy = Policy("narrow", V4_POOL, match={"pop": allowed})
        allowed.add("lhr")  # the caller's set is not the policy's
        assert not policy.matches(attrs(pop="lhr"))
        with pytest.raises(AttributeError):
            policy.match["pop"].add("lhr")
        with pytest.raises(TypeError):
            policy.match["pop"] = {"lhr"}


class TestPolicyEngine:
    def test_first_match_by_priority(self):
        engine = PolicyEngine(random.Random(0))
        engine.add(Policy("broad", V4_POOL, match={}, priority=200))
        engine.add(Policy("specific", V4_POOL, match={"pop": {"iad"}}, priority=10))
        decision = engine.evaluate(attrs(pop="iad"))
        assert decision.policy.name == "specific"
        decision = engine.evaluate(attrs(pop="lhr"))
        assert decision.policy.name == "broad"

    def test_family_gating(self):
        """A v4 pool must never answer an AAAA query."""
        engine = PolicyEngine(random.Random(0))
        engine.add(Policy("v4only", V4_POOL, match={}))
        assert engine.evaluate(attrs(family=IPv6)) is None

    def test_no_match_returns_none(self):
        engine = PolicyEngine(random.Random(0))
        engine.add(Policy("narrow", V4_POOL, match={"pop": {"iad"}}))
        assert engine.evaluate(attrs(pop="lhr")) is None

    def test_duplicate_names_rejected(self):
        engine = PolicyEngine()
        engine.add(Policy("p", V4_POOL))
        with pytest.raises(ValueError):
            engine.add(Policy("p", V4_POOL))

    def test_remove_and_get(self):
        engine = PolicyEngine()
        policy = Policy("p", V4_POOL)
        engine.add(policy)
        assert engine.get("p") is policy
        assert engine.remove("p") is policy
        with pytest.raises(KeyError, match="no policy named 'p'"):
            engine.get("p")
        with pytest.raises(KeyError, match="no policy named 'p'"):
            engine.remove("p")
        engine.add(Policy("p", V4_POOL))  # the name is free again

    def test_add_and_remove_act_on_the_next_query(self):
        engine = PolicyEngine(random.Random(0))
        engine.add(Policy("broad", V4_POOL, match={}, priority=200))
        assert engine.evaluate(attrs()).policy.name == "broad"
        engine.add(Policy("specific", V4_POOL, match={"pop": {"iad"}}, priority=10))
        assert engine.evaluate(attrs()).policy.name == "specific"
        engine.remove("specific")
        assert engine.evaluate(attrs()).policy.name == "broad"
        engine.remove("broad")
        assert engine.evaluate(attrs()) is None

    def test_randomizing_policy_never_reads_the_hostname(self):
        """§3.2 through the engine, which hands strategies the attributes
        themselves: same seed, same draws, whatever the names."""
        def draws(hostnames):
            engine = PolicyEngine(random.Random(5))
            engine.add(Policy("p", V4_POOL))
            return [engine.evaluate(attrs(hostname=h)).address for h in hostnames]

        assert draws(["a.com"] * 3) == draws(["a.com", "b.com", "c.com"])

    def test_hit_counters(self):
        engine = PolicyEngine(random.Random(0))
        policy = Policy("p", V4_POOL)
        engine.add(policy)
        engine.evaluate(attrs())
        engine.evaluate(attrs(family=IPv6))
        assert policy.hits == 1
        assert engine.evaluations == 2 and engine.matches == 1

    def test_decision_carries_ttl_and_pool_address(self):
        engine = PolicyEngine(random.Random(0))
        engine.add(Policy("p", V4_POOL, ttl=17))
        decision = engine.evaluate(attrs())
        assert decision.ttl == 17
        assert V4_POOL.contains(decision.address)


def make_registry():
    registry = CustomerRegistry()
    registry.add(Customer("free-co", AccountType.FREE, {"free.example.com"}))
    registry.add(Customer("big-co", AccountType.ENTERPRISE, {"big.example.com"}))
    return registry


class TestPolicyAnswerSource:
    def make(self, fallback=None, match=None):
        engine = PolicyEngine(random.Random(0))
        engine.add(Policy("p", V4_POOL, match=match or {}, ttl=30))
        return PolicyAnswerSource(engine, make_registry(), fallback=fallback)

    def question(self, hostname="free.example.com", rrtype=RRType.A):
        return Question(DomainName.from_text(hostname), rrtype)

    def test_a_query_answered_from_pool(self):
        source = self.make()
        answer = source.answer(self.question(), CTX_IAD)
        assert answer.rcode == Rcode.NOERROR
        record = answer.records[0]
        assert record.ttl == 30
        assert V4_POOL.contains(record.rdata.address)
        assert source.log.by_policy["p"] == 1

    def test_account_type_matching(self):
        source = self.make(match={"account_type": {"enterprise"}})
        free = source.answer(self.question("free.example.com"), CTX_IAD)
        big = source.answer(self.question("big.example.com"), CTX_IAD)
        assert free.rcode == Rcode.REFUSED  # no fallback configured
        assert big.rcode == Rcode.NOERROR

    def test_unknown_hostname_has_no_account(self):
        source = self.make(match={"account_type": {"free"}})
        answer = source.answer(self.question("stranger.example.org"), CTX_IAD)
        assert answer.rcode == Rcode.REFUSED

    def test_aaaa_falls_through_for_v4_pool(self):
        source = self.make()
        answer = source.answer(self.question(rrtype=RRType.AAAA), CTX_IAD)
        assert answer.rcode == Rcode.REFUSED

    def test_v6_pool_answers_aaaa(self):
        engine = PolicyEngine(random.Random(0))
        v6_pool = AddressPool(parse_prefix("2001:db8::/44"))
        engine.add(Policy("p6", v6_pool, ttl=30))
        source = PolicyAnswerSource(engine, make_registry())
        answer = source.answer(self.question(rrtype=RRType.AAAA), CTX_IAD)
        assert answer.rcode == Rcode.NOERROR
        assert answer.records[0].rdata.address in parse_prefix("2001:db8::/44")

    def test_non_address_types_fall_through(self):
        class Always(AnswerSource):
            def answer(self, question, context):
                return Answer(Rcode.NOERROR)

        source = self.make(fallback=Always())
        answer = source.answer(self.question(rrtype=RRType.TXT), CTX_IAD)
        assert answer.rcode == Rcode.NOERROR
        assert source.log.fallback_answers == 1

    def test_refused_counter_without_fallback(self):
        source = self.make(match={"pop": {"lhr"}})
        source.answer(self.question(), CTX_IAD)
        assert source.log.refused == 1


class TestAgilityController:
    def make(self, clock):
        engine = PolicyEngine(random.Random(0))
        pool = AddressPool(parse_prefix("192.0.0.0/20"), name="live")
        engine.add(Policy("p", pool, ttl=60))
        return AgilityController(engine, clock), engine, pool

    def test_set_active(self):
        clock = Clock(100.0)
        controller, engine, pool = self.make(clock)
        op = controller.set_active("p", parse_prefix("192.0.2.0/24"))
        assert pool.size == 256
        assert op.at == 100.0
        assert op.propagation_horizon == 160.0  # now + old TTL

    def test_swap_pool(self):
        clock = Clock()
        controller, engine, pool = self.make(clock)
        backup = AddressPool(parse_prefix("203.0.113.0/24"), name="backup")
        controller.swap_pool("p", backup)
        assert engine.get("p").pool is backup

    def test_swap_pool_family_checked(self):
        clock = Clock()
        controller, *_ = self.make(clock)
        with pytest.raises(ValueError):
            controller.swap_pool("p", AddressPool(parse_prefix("2001:db8::/44")))

    def test_set_strategy(self):
        clock = Clock()
        controller, engine, _ = self.make(clock)
        strategy = MappedAssignment()
        controller.set_strategy("p", strategy)
        assert engine.get("p").strategy is strategy

    def test_set_ttl_horizon_uses_old_ttl(self):
        """Lowering TTL still waits out answers cached under the old one."""
        clock = Clock(10.0)
        controller, engine, _ = self.make(clock)
        op = controller.set_ttl("p", 5)
        assert engine.get("p").ttl == 5
        assert op.propagation_horizon == 70.0  # 10 + old ttl 60

    def test_negative_ttl_rejected(self):
        controller, *_ = self.make(Clock())
        with pytest.raises(ValueError):
            controller.set_ttl("p", -5)

    def test_operations_logged_in_order(self):
        clock = Clock()
        controller, *_ = self.make(clock)
        controller.set_ttl("p", 5)
        clock.advance(30)
        controller.set_active("p", parse_prefix("192.0.2.0/24"))
        ops = controller.operations()
        assert [op.kind for op in ops] == ["set_ttl", "set_active"]
        assert ops[1].at == 30.0
