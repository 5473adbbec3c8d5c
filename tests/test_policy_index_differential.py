"""Compiled policy table ≡ the ordered walk it replaced, over state.

``PolicyEngine`` answers "first match" from a :class:`PolicyIndex` — one
cell per class of attribute values, filled lazily.  The engine as it stood
(every policy tried per query, counters folded through a ``Counter`` in a
``try/finally``, a ``SelectionContext`` copied per selection) is kept here
as the reference, and the two are driven through the same interleaving of
queries, table changes and agility operations.
"""

import itertools
import random
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import Clock
from repro.core.agility import AgilityController
from repro.core.policy import Policy, PolicyAttributes, PolicyDecision, PolicyEngine, PolicyIndex
from repro.core.pool import AddressPool
from repro.core.strategies import (
    HashedAssignment,
    MappedAssignment,
    PerPopAssignment,
    RandomSelection,
    SelectionContext,
    SelectionStrategy,
    StaticAssignment,
)
from repro.netsim.addr import Prefix, parse_prefix


class _RefEngine:
    """``PolicyEngine`` as it stood before the index: the ordered walk."""

    def __init__(self, rng: random.Random) -> None:
        self._policies: list[Policy] = []
        self._rng = rng
        self.evaluations = 0
        self.matches = 0

    def add(self, policy: Policy) -> None:
        if any(p.name == policy.name for p in self._policies):
            raise ValueError(f"duplicate policy name {policy.name!r}")
        self._policies.append(policy)
        self._policies.sort(key=lambda p: p.priority)

    def remove(self, name: str) -> Policy:
        for i, policy in enumerate(self._policies):
            if policy.name == name:
                return self._policies.pop(i)
        raise KeyError(f"no policy named {name!r}")

    def get(self, name: str) -> Policy:
        for policy in self._policies:
            if policy.name == name:
                return policy
        raise KeyError(f"no policy named {name!r}")

    def policies(self) -> list[Policy]:
        return list(self._policies)

    def first_match(self, attrs: PolicyAttributes) -> Policy | None:
        for policy in self._policies:
            if policy.pool.family != attrs.family:
                continue
            if policy.matches(attrs):
                return policy
        return None

    def evaluate_batch(self, batch):
        policies = self._policies
        rng = self._rng
        evaluations = matches = 0
        hit_counts: Counter[Policy] = Counter()
        decisions: list[PolicyDecision | None] = []
        append = decisions.append
        try:
            for attrs in batch:
                evaluations += 1
                decision = None
                for policy in policies:
                    if policy.pool.family != attrs.family:
                        continue
                    if policy.matches(attrs):
                        hit_counts[policy] += 1
                        matches += 1
                        ctx = SelectionContext(
                            hostname=attrs.hostname,
                            pop=attrs.pop,
                            account_type=attrs.account_type,
                            client_subnet=attrs.client_subnet,
                        )
                        address = policy.strategy.select(policy.pool, ctx, rng)
                        decision = PolicyDecision(
                            policy=policy, address=address, ttl=policy.ttl
                        )
                        break
                append(decision)
        finally:
            self.evaluations += evaluations
            self.matches += matches
            for policy, n in hit_counts.items():
                policy.hits += n
        return decisions


class _Exploding(SelectionStrategy):
    """Answers ``fuse`` selections, then raises on every later one."""

    def __init__(self, fuse: int) -> None:
        self.fuse = fuse

    def select(self, pool, ctx, rng):
        if self.fuse <= 0:
            raise RuntimeError("strategy failed mid-batch")
        self.fuse -= 1
        return pool.random_address(rng)


POOLS = {
    4: ["192.0.2.0/24", "198.51.100.0/24"],
    6: ["2001:db8::/64", "2001:db8:1::/64"],
}
POPS = ["iad", "lhr", "sin"]
ACCOUNTS = ["free", "pro", None]  # None as a *named* value, too
STRATEGIES = {
    "random": RandomSelection,
    "hashed": HashedAssignment,
    "static": lambda: StaticAssignment(per_address=2),
    "per_pop": lambda: PerPopAssignment(["iad", "lhr"]),
    "mapped": MappedAssignment,
    "exploding": lambda: _Exploding(2),
}


def _subset(values):
    """Any subset, the empty one (a policy that can never match) included."""
    return st.lists(st.sampled_from(values), max_size=len(values), unique=True)


_match = st.fixed_dictionaries({}, optional={
    "pop": _subset(POPS),
    "account_type": _subset(ACCOUNTS),
    "family": _subset([4, 6]),  # may contradict the pool's family
})
_policy = st.fixed_dictionaries({
    "family": st.sampled_from([4, 6]),
    "pool": st.integers(0, 1),
    "match": _match,
    "priority": st.integers(0, 3),  # few values: equal priorities are common
    "ttl": st.integers(0, 300),
    "strategy": st.sampled_from(sorted(set(STRATEGIES) - {"exploding"})),
})
_table = st.lists(_policy, max_size=8)
_attrs = st.builds(
    PolicyAttributes,
    pop=st.sampled_from([*POPS, "ams", "zzz"]),
    account_type=st.sampled_from([*ACCOUNTS, "business"]),
    family=st.sampled_from([4, 4, 6, 5]),
    hostname=st.sampled_from(["a.example", "B.example.", "c.example"]),
    client_subnet=st.sampled_from([None, "203.0.113.0/24"]),
)
_slot = st.integers(0, 11)  # names the policy an operation acts on, modulo the table
_step = st.one_of(
    st.tuples(st.just("query"), st.lists(_attrs, min_size=1, max_size=6)),
    st.tuples(st.just("query"), st.lists(_attrs, min_size=1, max_size=6)),
    st.tuples(st.just("add"), _policy),
    st.tuples(st.just("remove"), _slot),
    st.tuples(st.just("swap_pool"), _slot, st.integers(0, 1)),
    st.tuples(st.just("set_ttl"), _slot, st.integers(0, 300)),
    st.tuples(st.just("set_strategy"), _slot, st.sampled_from(sorted(STRATEGIES))),
    st.tuples(st.just("set_active"), _slot, st.integers(0, 3)),
)


def _build(spec: dict, name: str) -> Policy:
    return Policy(
        name,
        AddressPool(parse_prefix(POOLS[spec["family"]][spec["pool"]])),
        match=spec["match"],
        strategy=STRATEGIES[spec["strategy"]](),
        ttl=spec["ttl"],
        priority=spec["priority"],
    )


class _Twin:
    """The engine and the reference, given the same instructions.

    Each side owns its policies, pools and strategies (hit counters, active
    sets and strategy state are per object) and an identically seeded RNG.
    """

    def __init__(self, table: list[dict], seed: int) -> None:
        self.engine = PolicyEngine(random.Random(seed))
        self.ref = _RefEngine(random.Random(seed))
        self.sides = (
            (self.engine, AgilityController(self.engine, Clock())),
            (self.ref, AgilityController(self.ref, Clock())),
        )
        self.added = 0
        for spec in table:
            self.add(spec)

    def add(self, spec: dict) -> None:
        name = f"p{self.added}"
        self.added += 1
        for engine, _ in self.sides:
            engine.add(_build(spec, name))

    def name_at(self, slot: int) -> str | None:
        names = [policy.name for policy in self.ref.policies()]
        return names[slot % len(names)] if names else None

    def apply(self, step: tuple) -> None:
        kind, *args = step
        if kind == "query":
            return self.query(args[0])
        if kind == "add":
            return self.add(args[0])
        name = self.name_at(args[0])
        if name is None:
            return None
        for engine, controller in self.sides:
            if kind == "remove":
                assert engine.remove(name).name == name
            elif kind == "swap_pool":
                family = engine.get(name).pool.family
                controller.swap_pool(name, AddressPool(parse_prefix(POOLS[family][args[1]])))
            elif kind == "set_ttl":
                controller.set_ttl(name, args[1])
            elif kind == "set_strategy":
                controller.set_strategy(name, STRATEGIES[args[1]]())
            elif kind == "set_active":
                advertised = engine.get(name).pool.advertised
                controller.set_active(name, Prefix.of(
                    advertised.address_at(args[1] * 16), advertised.length + 4
                ))
        return None

    def query(self, batch: list[PolicyAttributes]) -> None:
        outcomes = []
        for engine, _ in self.sides:
            try:
                if len(batch) == 1 and engine is self.engine:
                    decisions = [engine.evaluate(batch[0])]  # the scalar entry point
                else:
                    decisions = engine.evaluate_batch(batch)
                outcomes.append([
                    None if d is None else (d.policy.name, d.address, d.ttl) for d in decisions
                ])
            except RuntimeError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], batch
        self.check_state()

    def check_state(self) -> None:
        engine, ref = self.engine, self.ref
        assert (engine.evaluations, engine.matches) == (ref.evaluations, ref.matches)
        assert [(p.name, p.hits) for p in engine.policies()] == [
            (p.name, p.hits) for p in ref.policies()
        ]
        assert engine._rng.getstate() == ref._rng.getstate()


@settings(max_examples=250, deadline=None)
@given(table=_table, steps=st.lists(_step, max_size=30), seed=st.integers(0, 1 << 16))
def test_index_matches_the_walk_through_any_interleaving(table, steps, seed):
    twin = _Twin(table, seed)
    for step in steps:
        twin.apply(step)
    twin.check_state()


def test_mid_batch_failure_counts_the_in_flight_item_and_nothing_after():
    table = [{"family": 4, "pool": 0, "match": {}, "priority": 1, "ttl": 30,
              "strategy": "exploding"}]
    twin = _Twin(table, seed=5)
    batch = [PolicyAttributes(pop="iad", family=family) for family in (4, 6, 4, 4, 4)]
    twin.query(batch)  # the third matching item raises; item five is never reached
    assert (twin.engine.evaluations, twin.engine.matches) == (4, 3)
    assert twin.engine.get("p0").hits == 3


def _class_space(table: list[dict]):
    """Every named value plus one fresh value, per attribute; the fresh
    family is neither 4 nor 6, and both of those are always tried."""
    named = {"pop": set(), "account_type": set(), "family": {4, 6}}
    for spec in table:
        for key, values in spec["match"].items():
            named[key].update(values)
    return itertools.product(
        [*named["family"], 7],
        [*named["pop"], "\x00fresh-pop"],
        [*named["account_type"], "\x00fresh-account"],
    )


@settings(max_examples=250, deadline=None)
@given(table=_table)
def test_index_matches_the_walk_over_the_whole_class_space(table):
    # The classes partition the input space, so agreeing on one member of
    # each class triple is agreeing everywhere.
    twin = _Twin(table, seed=1)
    index = PolicyIndex(tuple(twin.engine.policies()))
    reachable = set()
    for family, pop, account in _class_space(table):
        attrs = PolicyAttributes(pop=pop, account_type=account, family=family)
        expected = twin.ref.first_match(attrs)
        for _ in range(2):  # filling the cell, then reading it
            decision = twin.engine.evaluate(attrs)
            assert (decision and decision.policy.name) == (expected and expected.name), attrs
        assert (index.walk(attrs) and index.walk(attrs).name) == (expected and expected.name)
        if expected is not None:
            reachable.add(expected.name)
    # CP009's verdict is this same enumeration, done by the index itself.
    assert {policy.name for policy in index.owners()} == reachable


class TestTheWalkRunsOncePerClass:
    """After a class's first query its cell answers: ``Policy.matches`` and
    ``PolicyAttributes.as_mapping`` — the walk — run 0 times per evaluation,
    and agility operations do not bring them back."""

    @staticmethod
    @contextmanager
    def _counted():
        calls = {"matches": 0, "as_mapping": 0}
        with pytest.MonkeyPatch.context() as patch:
            for owner, attr in ((Policy, "matches"), (PolicyAttributes, "as_mapping")):
                def counting(*args, _fn=vars(owner)[attr], _attr=attr, **kwargs):
                    calls[_attr] += 1
                    return _fn(*args, **kwargs)

                patch.setattr(owner, attr, counting)
            yield calls

    @staticmethod
    def _engine(decoys: int = 15) -> PolicyEngine:
        engine = PolicyEngine(random.Random(3))
        for i in range(decoys):
            engine.add(Policy(f"decoy-{i:02d}", AddressPool(parse_prefix(POOLS[4][1])),
                              match={"pop": {f"pop-{i // 4}"}, "account_type": {ACCOUNTS[i % 2]}},
                              priority=i))
        engine.add(Policy("all", AddressPool(parse_prefix("192.0.0.0/20")), priority=100))
        return engine

    def test_first_query_walks_later_ones_do_not(self):
        engine = self._engine()
        attrs = PolicyAttributes(pop="here", account_type="free", hostname="a.example")
        with self._counted() as calls:
            assert engine.evaluate(attrs).policy.name == "all"
            assert calls == {"matches": 16, "as_mapping": 16}
            for i in range(50):  # same class: unnamed pop, named account
                other = PolicyAttributes(pop=f"pop-x{i}", account_type="free")
                assert engine.evaluate(other).policy.name == "all"
            assert calls == {"matches": 16, "as_mapping": 16}

    def test_agility_operations_leave_the_cells_alone(self):
        engine = self._engine()
        controller = AgilityController(engine, Clock())
        attrs = PolicyAttributes(pop="here", account_type="free", hostname="a.example")
        engine.evaluate(attrs)
        spare = AddressPool(parse_prefix("203.0.113.0/24"))
        with self._counted() as calls:
            controller.set_active("all", parse_prefix("192.0.2.0/24"))
            assert engine.evaluate(attrs).address in parse_prefix("192.0.2.0/24")
            controller.set_ttl("all", 7)
            assert engine.evaluate(attrs).ttl == 7
            controller.set_strategy("all", PerPopAssignment(["here"]))
            assert engine.evaluate(attrs).address == parse_prefix("192.0.2.0/24").first
            controller.swap_pool("all", spare)
            assert engine.evaluate(attrs).address == spare.advertised.first
        assert calls == {"matches": 0, "as_mapping": 0}

    def test_add_and_remove_drop_the_cells_lazily(self):
        engine = self._engine(decoys=3)
        attrs = PolicyAttributes(pop="here", account_type="free")
        engine.evaluate(attrs)
        with self._counted() as calls:
            for i in range(20):  # no rebuild per add
                engine.add(Policy(f"late-{i}", AddressPool(parse_prefix(POOLS[4][0])),
                                  match={"pop": {"here"}}, priority=50 - i))
            assert calls == {"matches": 0, "as_mapping": 0}
            assert engine.evaluate(attrs).policy.name == "late-19"
            for i in range(20):
                engine.remove(f"late-{i}")
            assert engine.evaluate(attrs).policy.name == "all"
            assert engine.evaluate(attrs).policy.name == "all"
        # One walk per rebuilt cell: three decoys then late-19; three decoys then "all".
        assert calls["matches"] == 4 + 4


def test_index_size_is_bounded_by_the_table_not_by_the_queries():
    engine = PolicyEngine(random.Random(9))
    pops, accounts = ["iad", "lhr", "sin"], ["free", "pro"]
    for i, (pop, account) in enumerate(itertools.product(pops, accounts)):
        engine.add(Policy(f"p{i}", AddressPool(parse_prefix(POOLS[4][0])),
                          match={"pop": {pop}, "account_type": {account}}, priority=i))
    engine.add(Policy("v6", AddressPool(parse_prefix(POOLS[6][0])), priority=50))
    rng = random.Random(4)
    for i in range(10_000):
        engine.evaluate(PolicyAttributes(
            pop=rng.choice(pops) if i % 3 == 0 else f"pop-{rng.getrandbits(64):x}",
            account_type=rng.choice([*accounts, "business", None]),
            family=rng.choice([4, 6]),
        ))
    assert engine.evaluations == 10_000
    bound = (len(pops) + 1) * (len(accounts) + 1) * 2
    assert len(engine._index) == bound  # every class was presented; none twice
