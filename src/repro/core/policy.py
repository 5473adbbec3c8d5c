"""Policies and the policy engine: matching queries without names.

Figure 3b: "Our architecture matches policy without name … For: PoP
location, account type → Use: a.b.c.d/xx".  A :class:`Policy` is a set of
attribute constraints plus an address pool, a selection strategy, and a
TTL.  The :class:`PolicyEngine` evaluates policies in priority order and
returns the first match; queries matching no policy "are resolved as
normal" (§4.3) by whatever fallback the caller wires in.  "First match" is
answered from a :class:`PolicyIndex` — the ordered table lowered to one
cell per class of attribute values — so its cost does not grow with the
table (DESIGN.md §15).

Attribute constraints are value sets per key — deliberately not arbitrary
code: §4.3 leaves "safe and verifiable policy expression" as future work,
and set-membership constraints are the verifiable core that the deployment
actually used (datacenter ∈ {…} ∧ account_type ∈ {…}).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Sequence
from types import MappingProxyType
from typing import NamedTuple

from ..netsim.addr import IPAddress
from ..value import Value
from .pool import AddressPool
from .strategies import RandomSelection, SelectionStrategy

__all__ = ["PolicyAttributes", "Policy", "PolicyIndex", "PolicyEngine", "PolicyDecision"]

#: The attributes a policy may constrain, in index-key order.
MATCH_KEYS = ("family", "pop", "account_type")
#: Stands for every presented value that no policy names.
_OTHER = object()


class _PolicyAttributesFields(NamedTuple):
    pop: str
    account_type: str | None = None
    family: int = 4  # 4 for A queries, 6 for AAAA
    hostname: str = ""
    client_subnet: str | None = None


class PolicyAttributes(Value, _PolicyAttributesFields):
    """The attribute tuple a query presents for matching.

    ``hostname`` is carried for *strategies* that need it (static
    baselines, DoS maps); the paper's randomizing policies never read it —
    a property tested explicitly.  ``client_subnet`` is the EDNS Client
    Subnet (RFC 7871) when the resolver sent one; like the hostname it is
    strategy input, not a match key (matching on unbounded prefixes is not
    statically verifiable — see :mod:`repro.core.spec`).
    """

    __slots__ = ()

    def as_mapping(self) -> dict[str, object]:
        return {
            "pop": self.pop,
            "account_type": self.account_type,
            "family": self.family,
        }


class Policy:
    """One match→pool rule.

    ``match`` maps attribute names (``pop``, ``account_type``, ``family``)
    to the set of acceptable values; absent keys are unconstrained.  Lower
    ``priority`` evaluates first.  ``match`` is frozen at construction (a
    read-only mapping of frozensets): a :class:`PolicyIndex` built over the
    policy must not go stale behind a mutated set.
    """

    def __init__(
        self,
        name: str,
        pool: AddressPool,
        match: dict[str, Iterable] | None = None,
        strategy: SelectionStrategy | None = None,
        ttl: int = 30,
        priority: int = 100,
    ) -> None:
        if ttl < 0:
            raise ValueError("TTL must be non-negative")
        match = match or {}
        unknown = set(match) - set(MATCH_KEYS)
        if unknown:
            raise ValueError(f"policy {name!r}: unknown attribute keys {sorted(unknown)}")
        for key, values in match.items():
            # set("lhr") is {"l", "h", "r"}: a bare string is a typo for ["lhr"].
            if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
                raise ValueError(
                    f"policy {name!r}: match[{key!r}] must be a collection of "
                    f"values, got {values!r}"
                )
        self.name = name
        self.pool = pool
        self.match = MappingProxyType({k: frozenset(v) for k, v in match.items()})
        self.strategy = strategy or RandomSelection()
        self.ttl = ttl
        self.priority = priority
        self.hits = 0

    def matches(self, attrs: PolicyAttributes) -> bool:
        mapping = attrs.as_mapping()
        return all(mapping.get(key) in allowed for key, allowed in self.match.items())

    def select(self, attrs: PolicyAttributes, rng: random.Random) -> IPAddress:
        # ``attrs`` carries every SelectionContext field; no copy per query.
        return self.strategy.select(self.pool, attrs, rng)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Policy({self.name!r}, match={dict(self.match)}, pool={self.pool.name!r})"


class _PolicyDecisionFields(NamedTuple):
    policy: Policy
    address: IPAddress
    ttl: int


class PolicyDecision(Value, _PolicyDecisionFields):
    """The engine's verdict for one query."""

    __slots__ = ()


class PolicyIndex:
    """An ordered policy table lowered to a first-match decision index.

    Every matched attribute splits its values into *classes*: one per value
    some policy names (in a ``match`` set, or as its pool's family) and one
    for all the rest.  Attribute tuples with the same class triple pass and
    fail exactly the same family and ``value in allowed`` tests, so the
    ordered walk gives them the same first match, and a *cell* keyed on the
    triple remembers it.  Cells are filled by :meth:`walk` on first use;
    there is at most one per class triple however many distinct values
    queries present.

    A cell holds the :class:`Policy` object and nothing read from it — pool,
    active set, TTL and strategy are looked up per decision — so the index
    stays valid until the table itself changes (``policies``, their ``match``
    sets, or a pool's *family*; :class:`PolicyEngine` drops it on ``add`` /
    ``remove``, and ``swap_pool`` refuses a family change).
    """

    def __init__(self, policies: Sequence[Policy]) -> None:
        self.policies = policies
        named: dict[str, set] = {key: set() for key in MATCH_KEYS}
        for policy in policies:
            named["family"].add(policy.pool.family)
            for key, allowed in policy.match.items():
                named[key] |= allowed
        self._families, self._pops, self._accounts = (named[key] for key in MATCH_KEYS)
        self._cells: dict[tuple, Policy | None] = {}

    def __len__(self) -> int:
        """Cells filled so far."""
        return len(self._cells)

    def first_match(self, attrs: PolicyAttributes) -> Policy | None:
        family, pop, account = attrs.family, attrs.pop, attrs.account_type
        key = (
            family if family in self._families else _OTHER,
            pop if pop in self._pops else _OTHER,
            account if account in self._accounts else _OTHER,
        )
        try:
            return self._cells[key]
        except KeyError:
            cell = self._cells[key] = self.walk(attrs)
            return cell

    def walk(self, attrs: PolicyAttributes) -> Policy | None:
        """The table's meaning: the first policy, in order, whose pool
        family and match sets accept ``attrs``.  Fills cells; never runs
        for a class that has one."""
        for policy in self.policies:
            if policy.pool.family == attrs.family and policy.matches(attrs):
                return policy
        return None

    def owners(self) -> set[Policy]:
        """Fill every cell of the class space and return the policies that
        own one.  The classes partition all inputs, so a policy outside the
        result can never answer.  (A class triple stands for itself: the
        "other" marker is a value no policy names.)"""
        classes = ((*named, _OTHER) for named in (self._families, self._pops, self._accounts))
        for family, pop, account in itertools.product(*classes):
            self.first_match(PolicyAttributes(pop, account, family))
        return {policy for policy in self._cells.values() if policy is not None}


class PolicyEngine:
    """Ordered policy evaluation with runtime add/remove.

    Policies sort by (priority, insertion order); the first match wins.
    Returning ``None`` means "no policy applies — resolve conventionally".
    """

    def __init__(self, rng: random.Random | None = None) -> None:
        self._policies: list[Policy] = []
        self._by_name: dict[str, Policy] = {}
        #: Compiled from ``_policies`` by the first query after a change.
        self._index: PolicyIndex | None = None
        self._rng = rng or random.Random(0xA91)
        self.evaluations = 0
        self.matches = 0

    # -- management ----------------------------------------------------------

    def add(self, policy: Policy) -> None:
        if policy.name in self._by_name:
            raise ValueError(f"duplicate policy name {policy.name!r}")
        self._by_name[policy.name] = policy
        self._policies.append(policy)
        self._policies.sort(key=lambda p: p.priority)
        self._index = None

    def remove(self, name: str) -> Policy:
        policy = self.get(name)
        del self._by_name[name]
        self._policies.remove(policy)
        self._index = None
        return policy

    def get(self, name: str) -> Policy:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no policy named {name!r}") from None

    def policies(self) -> list[Policy]:
        return list(self._policies)

    def __len__(self) -> int:
        return len(self._policies)

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, attrs: PolicyAttributes) -> PolicyDecision | None:
        """First-match policy evaluation; selects an address on match.

        :meth:`evaluate_batch` of one — scalar and batched evaluation share
        one code path so their decisions and counters cannot drift."""
        return self.evaluate_batch((attrs,))[0]

    def evaluate_batch(
        self, batch: Sequence[PolicyAttributes]
    ) -> list[PolicyDecision | None]:
        """Evaluate many attribute tuples against the compiled table.

        Selection draws from the engine RNG in item order, so a batch
        produces the same address sequence as scalar calls in a loop.  Each
        item is counted (evaluations, and hits/matches when it matched)
        before its strategy runs, so a strategy raising partway leaves the
        in-flight item counted and the rest not.
        """
        index = self._index
        if index is None:
            index = self._index = PolicyIndex(tuple(self._policies))
        first_match = index.first_match
        rng = self._rng
        decisions: list[PolicyDecision | None] = []
        for attrs in batch:
            self.evaluations += 1
            policy = first_match(attrs)
            if policy is None:
                decisions.append(None)
                continue
            policy.hits += 1
            self.matches += 1
            decisions.append(PolicyDecision(policy, policy.select(attrs, rng), policy.ttl))
        return decisions
