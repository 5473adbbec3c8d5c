"""Declarative policy specs and the static verifier (§4.3 future work)."""

import pytest

from repro.core.policy import PolicyAttributes
from repro.core.spec import (
    AttributeDomain,
    PolicySpecError,
    compile_and_verify,
    compile_policy,
    verify_policy_set,
)
from repro.core.strategies import PerPopAssignment, RandomSelection, StaticAssignment
from repro.netsim.addr import IPv4, IPv6, parse_prefix

DOMAIN = AttributeDomain(pops=frozenset({"iad", "lhr"}))
SPACE = [parse_prefix("192.0.0.0/20"), parse_prefix("2001:db8::/44")]


def spec(**overrides) -> dict:
    base = {
        "name": "randomize-free",
        "pool": {"advertised": "192.0.0.0/20", "active": "192.0.2.0/24"},
        "match": {"account_type": ["free"]},
        "strategy": "random",
        "ttl": 30,
    }
    base.update(overrides)
    return base


class TestCompile:
    def test_minimal_spec(self):
        policy = compile_policy(spec())
        assert policy.name == "randomize-free"
        assert policy.pool.size == 256
        assert isinstance(policy.strategy, RandomSelection)
        assert policy.ttl == 30

    def test_strategy_with_params(self):
        policy = compile_policy(spec(strategy="static", params={"per_address": 8}))
        assert isinstance(policy.strategy, StaticAssignment)
        assert policy.strategy.per_address == 8

    def test_per_pop_strategy(self):
        policy = compile_policy(
            spec(strategy="per_pop", params={"pop_order": ["iad", "lhr"]})
        )
        assert isinstance(policy.strategy, PerPopAssignment)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(PolicySpecError, match="unknown strategy"):
            compile_policy(spec(strategy="telepathic"))

    def test_missing_strategy_param_rejected(self):
        with pytest.raises(PolicySpecError, match="missing parameter"):
            compile_policy(spec(strategy="per_pop", params={}))

    def test_unknown_keys_rejected(self):
        with pytest.raises(PolicySpecError, match="unknown spec keys"):
            compile_policy(spec(colour="blue"))

    def test_unknown_match_keys_rejected(self):
        with pytest.raises(PolicySpecError, match="unknown match keys"):
            compile_policy(spec(match={"weather": ["sunny"]}))

    def test_bad_prefix_rejected(self):
        with pytest.raises(PolicySpecError):
            compile_policy(spec(pool={"advertised": "not-a-prefix"}))

    def test_active_outside_advertised_rejected(self):
        with pytest.raises(PolicySpecError):
            compile_policy(spec(pool={"advertised": "192.0.0.0/20",
                                      "active": "10.0.0.0/24"}))

    def test_missing_required_keys(self):
        with pytest.raises(PolicySpecError, match="missing required"):
            compile_policy({"pool": {"advertised": "192.0.0.0/20"}})

    def test_bare_string_match_value_rejected(self):
        # set("lhr") is {"l", "h", "r"}; the JSON author meant ["lhr"].
        with pytest.raises(PolicySpecError, match="'randomize-free': match: pop must be a list"):
            compile_policy(spec(match={"pop": "lhr"}))

    @pytest.mark.parametrize("overrides,complaint", [
        ({"pool": "192.0.2.0/24"}, "pool must be an object"),
        ({"match": ["pop"]}, "match must be an object"),
        ({"match": {"pop": [["iad"]]}}, "pop values must be scalars"),
        ({"ttl": "30"}, "ttl must be an integer"),
        ({"ttl": None}, "ttl must be an integer"),
        ({"ttl": True}, "ttl must be an integer"),
        ({"priority": 2.5}, "priority must be an integer"),
        ({"params": [1]}, "params must be an object"),
        ({"strategy": "static", "params": {"per_address": "x"}}, "strategy 'static'"),
    ])
    def test_wrongly_typed_fields_are_spec_errors(self, overrides, complaint):
        # Each of these used to escape as a TypeError/ValueError traceback
        # (or, for "30" and 2.5, be silently coerced).
        with pytest.raises(PolicySpecError, match=complaint):
            compile_policy(spec(**overrides))

    @pytest.mark.parametrize("not_a_spec", ["p", ["name", "pool"], None])
    def test_non_object_spec_rejected(self, not_a_spec):
        with pytest.raises(PolicySpecError, match="must be an object"):
            compile_policy(not_a_spec)


class TestVerifier:
    def test_clean_set_passes(self):
        engine = compile_and_verify([spec()], DOMAIN, SPACE)
        decision = engine.evaluate(
            PolicyAttributes(pop="iad", account_type="free", family=IPv4)
        )
        assert decision is not None

    def test_unrouted_pool_rejected(self):
        bad = spec(pool={"advertised": "203.0.113.0/24"})
        with pytest.raises(PolicySpecError, match="unrouted-pool"):
            compile_and_verify([bad], DOMAIN, SPACE)

    def test_impossible_match_rejected(self):
        bad = spec(match={"pop": ["atlantis"]})
        with pytest.raises(PolicySpecError, match="impossible-match"):
            compile_and_verify([bad], DOMAIN, SPACE)

    def test_family_mismatch_rejected(self):
        bad = spec(match={"family": [IPv6]})  # v4 pool, v6-only match
        with pytest.raises(PolicySpecError, match="family-mismatch"):
            compile_and_verify([bad], DOMAIN, SPACE)

    def test_shadowed_policy_rejected(self):
        broad = spec(name="broad", match={}, priority=1)
        narrow = spec(name="narrow", match={"pop": ["iad"]}, priority=50)
        with pytest.raises(PolicySpecError, match="shadowed"):
            compile_and_verify([broad, narrow], DOMAIN, SPACE)

    def test_disjoint_policies_not_shadowed(self):
        a = spec(name="a", match={"pop": ["iad"]}, priority=1)
        b = spec(name="b", match={"pop": ["lhr"]}, priority=50)
        engine = compile_and_verify([a, b], DOMAIN, SPACE)
        assert len(engine) == 2

    def test_coverage_gap_is_warning_not_error(self):
        narrow = spec(match={"pop": ["iad"], "account_type": ["enterprise"]})
        engine = compile_and_verify([narrow], DOMAIN, SPACE)  # must not raise
        policies = engine.policies()
        issues = verify_policy_set(policies, DOMAIN, SPACE)
        gaps = [i for i in issues if i.kind == "coverage-gap"]
        assert gaps and gaps[0].severity == "warning"

    def test_full_coverage_no_gap_warning(self):
        v4 = spec(name="v4", match={})
        v6 = spec(name="v6", match={},
                  pool={"advertised": "2001:db8::/44"})
        engine = compile_and_verify([v4, v6], DOMAIN, SPACE)
        issues = verify_policy_set(engine.policies(), DOMAIN, SPACE)
        assert not [i for i in issues if i.kind == "coverage-gap"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(PolicySpecError, match="duplicate"):
            compile_and_verify([spec(), spec()], DOMAIN, SPACE)

    def test_issue_str(self):
        issues = verify_policy_set(
            [compile_policy(spec(pool={"advertised": "203.0.113.0/24"}))],
            DOMAIN, SPACE,
        )
        assert any("unrouted-pool" in str(i) for i in issues)
