"""Address-selection strategies: how a matched policy picks an address.

§3.2's deployment default is per-query uniform random selection — the
headline mechanism.  The other strategies exist because the paper uses
them too:

* :class:`StaticAssignment` — the pre-agility baseline: each hostname is
  pinned to pool addresses by configuration (Figure 7a's world);
* :class:`HashedAssignment` — deterministic hostname→address hashing, a
  stronger static baseline that still cannot equalize load (ablation A2);
* :class:`PerPopAssignment` — a distinct address per PoP inside a shared
  anycast prefix: the route-leak detector's policy (§6, Figure 9);
* :class:`MappedAssignment` — an explicit hostname→address map updated at
  runtime: the DoS k-ary search's slicing step (§6);
* one-address is not a strategy: it is a pool whose active set is a /32.

Strategies are stateless w.r.t. queries (i.i.d. per query, §3.2: responses
for (hᵢ,hⱼ,hₖ) and (hᵢ,hᵢ,hᵢ) are equivalent), except where their *job* is
state (static/mapped assignments).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..netsim.addr import IPAddress
from .pool import AddressPool

__all__ = [
    "SelectionContext",
    "SelectionStrategy",
    "RandomSelection",
    "StaticAssignment",
    "HashedAssignment",
    "PerPopAssignment",
    "EcsPerPopAssignment",
    "MappedAssignment",
]


@dataclass(frozen=True, slots=True)
class SelectionContext:
    """Query-time facts a strategy may consult.

    The engine hands a strategy the query's
    :class:`~repro.core.policy.PolicyAttributes` as ``ctx`` — it has these
    four fields — rather than copying them per query; construct this class
    to drive a strategy directly."""

    hostname: str
    pop: str
    account_type: str | None = None
    client_subnet: str | None = None  # EDNS Client Subnet, textual prefix


class SelectionStrategy:
    """Pick one address from a pool for a query."""

    def select(self, pool: AddressPool, ctx: SelectionContext, rng: random.Random) -> IPAddress:
        raise NotImplementedError


class RandomSelection(SelectionStrategy):
    """The paper's mechanism: a fresh uniform draw per query."""

    def select(self, pool: AddressPool, ctx: SelectionContext, rng: random.Random) -> IPAddress:
        return pool.random_address(rng)


def _fnv(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode():
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class HashedAssignment(SelectionStrategy):
    """hostname-hash → stable pool index.

    Deterministic and stateless: every PoP computes the same binding, as a
    config-generated zone file would.  Load per address then mirrors the
    (heavy-tailed) hostname popularity distribution — the fundamental limit
    of *any* static scheme that Figure 7a exhibits.
    """

    def select(self, pool: AddressPool, ctx: SelectionContext, rng: random.Random) -> IPAddress:
        return pool.address_at(_fnv(ctx.hostname.lower().rstrip(".")) % pool.size)


class StaticAssignment(SelectionStrategy):
    """Explicit operator-chosen bindings, assigned once on first sight.

    Models historical allocation: hostnames are packed onto addresses in
    arrival order, ``per_address`` hostnames per IP (CDNs co-host many
    names per address, §3.2).  The assignment persists — this is the
    "slow to plan, costly to execute" world the paper leaves behind.
    """

    def __init__(self, per_address: int = 1) -> None:
        if per_address <= 0:
            raise ValueError("per_address must be positive")
        self.per_address = per_address
        self._assignments: dict[str, int] = {}
        self._next = 0

    def select(self, pool: AddressPool, ctx: SelectionContext, rng: random.Random) -> IPAddress:
        key = ctx.hostname.lower().rstrip(".")
        index = self._assignments.get(key)
        if index is None:
            index = (self._next // self.per_address) % pool.size
            self._assignments[key] = index
            self._next += 1
        return pool.address_at(index % pool.size)

    def assignment_count(self) -> int:
        return len(self._assignments)


class PerPopAssignment(SelectionStrategy):
    """Each PoP answers with its own dedicated address from the pool.

    §6: "a policy can be expressed in DNS so that each PoP expects to
    receive traffic on a unique address … all or most of the ensuing
    request traffic at each PoP should arrive on its corresponding IP."
    Unknown PoPs get deterministic overflow slots after the known ones.
    """

    def __init__(self, pop_order: list[str]) -> None:
        if len(set(pop_order)) != len(pop_order):
            raise ValueError("duplicate PoPs in pop_order")
        self._index = {pop: i for i, pop in enumerate(pop_order)}

    def address_for_pop(self, pool: AddressPool, pop: str) -> IPAddress:
        index = self._index.get(pop)
        if index is None:
            index = len(self._index) + (_fnv(pop) % max(1, pool.size - len(self._index)))
        return pool.address_at(index % pool.size)

    def select(self, pool: AddressPool, ctx: SelectionContext, rng: random.Random) -> IPAddress:
        return self.address_for_pop(pool, ctx.pop)

    def expected_pop(self, pool: AddressPool, address: IPAddress) -> str | None:
        """Invert the mapping: which PoP should traffic on ``address`` hit?"""
        for pop, index in self._index.items():
            if pool.address_at(index % pool.size) == address:
                return pop
        return None


class EcsPerPopAssignment(SelectionStrategy):
    """Per-PoP assignment keyed on the *client's* catchment, via ECS.

    The plain :class:`PerPopAssignment` hands out the address of the PoP
    the *query* arrived at — correct only when resolver and client share a
    catchment.  §6's measurement experiment shows they often don't, which
    puts legitimate "bleed" on other PoPs' addresses and forces the leak
    detector to run with noise thresholds.

    When the resolver forwards an EDNS Client Subnet, the authoritative
    can instead look up which PoP the *client's prefix* would be routed to
    and answer with that PoP's unique address — removing the mismatch at
    its source.  ``catchment_of`` is the control-plane oracle (in the
    simulator, a closure over the anycast substrate; in production, a
    BGP-informed geo map).  Queries without ECS fall back to
    arrival-PoP assignment.
    """

    def __init__(self, per_pop: PerPopAssignment, catchment_of) -> None:
        """``catchment_of(prefix_text) -> pop name | None``."""
        self.per_pop = per_pop
        self.catchment_of = catchment_of

    def select(self, pool: AddressPool, ctx: SelectionContext, rng: random.Random) -> IPAddress:
        pop = ctx.pop
        if ctx.client_subnet is not None:
            client_pop = self.catchment_of(ctx.client_subnet)
            if client_pop is not None:
                pop = client_pop
        return self.per_pop.address_for_pop(pool, pop)


class MappedAssignment(SelectionStrategy):
    """An explicit, runtime-mutable hostname→address map with a fallback.

    The DoS k-ary search (§6) repeatedly re-partitions affected hostnames
    onto slice addresses; each round is a bulk :meth:`assign` call.  Lookups
    for unmapped hostnames fall back to ``fallback`` (default: random).
    """

    def __init__(self, fallback: SelectionStrategy | None = None) -> None:
        self.fallback = fallback or RandomSelection()
        self._map: dict[str, IPAddress] = {}

    def assign(self, hostname: str, address: IPAddress) -> None:
        self._map[hostname.lower().rstrip(".")] = address

    def assign_many(self, hostnames: "list[str] | set[str]", address: IPAddress) -> None:
        for hostname in hostnames:
            self.assign(hostname, address)

    def clear(self) -> None:
        self._map.clear()

    def mapped_count(self) -> int:
        return len(self._map)

    def address_of(self, hostname: str) -> IPAddress | None:
        return self._map.get(hostname.lower().rstrip("."))

    def select(self, pool: AddressPool, ctx: SelectionContext, rng: random.Random) -> IPAddress:
        address = self._map.get(ctx.hostname.lower().rstrip("."))
        if address is not None:
            return address
        return self.fallback.select(pool, ctx, rng)
