"""Experiment E13: authoritative answering rate with per-query randomness.

§4.2: the deployment served "~5–6K DNS queries per second (mean)" and "the
scale of the deployment show[s] that random per-query addresses can be
generated at rates of 1000s per second."  The claim under reproduction is
that per-query randomization adds no meaningful cost over conventional
zone serving — the random path must sustain the same order of throughput
as the static path in the same harness.

Builders construct both servers over identical hostname sets; the bench
times wire-level query/response cycles through each.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.authoritative import PolicyAnswerSource
from ..core.policy import Policy, PolicyEngine
from ..core.pool import AddressPool
from ..dns.records import A, RRType
from ..dns.server import AuthoritativeServer, QueryContext, ZoneAnswerSource
from ..dns.wire import Message, Rcode
from ..dns.zone import Zone
from ..edge.customers import AccountType, Customer, CustomerRegistry
from ..netsim.addr import parse_prefix

__all__ = ["QPSSetup", "build_policy_server", "build_zone_server", "make_queries", "answer_all"]

POOL = parse_prefix("192.0.0.0/20")
DECOY_POOL = parse_prefix("198.51.100.0/24")
CONTEXT = QueryContext(pop="dc1")


@dataclass(slots=True)
class QPSSetup:
    label: str
    server: AuthoritativeServer


def _hostnames(n: int) -> list[str]:
    return [f"site{i:06d}.qps.example" for i in range(n)]


def build_policy_server(num_hostnames: int = 10_000, seed: int = 1, rules: int = 1) -> QPSSetup:
    """The agile path: policy match + per-query random generation.

    ``rules`` sizes the policy table: ``rules - 1`` (pop, account type)
    decoys for other PoPs come first and the rule that matches comes last,
    so a first-match cost that grows with the table shows in the rate."""
    registry = CustomerRegistry()
    registry.add(Customer("all", AccountType.FREE, set(_hostnames(num_hostnames))))
    engine = PolicyEngine(random.Random(seed))
    accounts = [account.value for account in AccountType]
    for i in range(rules - 1):
        engine.add(Policy(
            f"decoy-{i:03d}", AddressPool(DECOY_POOL), ttl=30, priority=i,
            match={"pop": {f"pop-{i // len(accounts):02d}"},
                   "account_type": {accounts[i % len(accounts)]}},
        ))
    engine.add(Policy("qps", AddressPool(POOL), ttl=30, priority=rules))
    return QPSSetup("policy-random", AuthoritativeServer(PolicyAnswerSource(engine, registry)))


def build_zone_server(num_hostnames: int = 10_000, seed: int = 1) -> QPSSetup:
    """The conventional path: static zone lookup (Figure 3a)."""
    zone = Zone("qps.example")
    rng = random.Random(seed)
    for hostname in _hostnames(num_hostnames):
        zone.add_address(hostname, A(POOL.random_address(rng)), ttl=30)
    return QPSSetup("zone-static", AuthoritativeServer(ZoneAnswerSource([zone])))


def make_queries(n: int, num_hostnames: int = 10_000, seed: int = 2) -> list[bytes]:
    rng = random.Random(seed)
    hostnames = _hostnames(num_hostnames)
    return [
        Message.query(i & 0xFFFF, rng.choice(hostnames), RRType.A).encode()
        for i in range(n)
    ]


def answer_all(setup: QPSSetup, queries: list[bytes]) -> int:
    """Serve a batch at the wire level; returns NOERROR count."""
    ok = 0
    handle = setup.server.handle_wire
    for query in queries:
        response = handle(query, CONTEXT)
        if response is not None and Message.decode(response).flags.rcode == Rcode.NOERROR:
            ok += 1
    return ok
