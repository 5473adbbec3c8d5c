"""The default serving world and the one-shot / smoke drivers.

``build_server(seed)`` assembles the same stack every simulation PR has
been exercising — :class:`~repro.core.authoritative.PolicyAnswerSource`
minting agile addresses over a pool, with a conventional zone fallback —
and :func:`run_oneshot` binds it to real sockets and proves the two wire
behaviours the frontend exists to demonstrate:

* a plain A query answered over UDP with a policy-minted address;
* an oversize TXT answer truncated on UDP (TC set) and completed over
  TCP, full record set intact.

The zone deliberately contains an RRset too large for any sane UDP
budget (``big.example.com`` TXT, ~1.6 kB) and a CNAME into the policy
hostname, so one world covers the truncation, stream, and chain paths.
"""

from __future__ import annotations

import random
import struct

from ..core.authoritative import PolicyAnswerSource
from ..core.policy import Policy, PolicyEngine
from ..core.pool import AddressPool
from ..dns.records import A, CNAME, DomainName, OPTPseudo, ResourceRecord, RRType, TXT
from ..dns.server import AuthoritativeServer, ZoneAnswerSource
from ..dns.wire import Message, Rcode
from ..dns.zone import Zone
from ..edge.customers import AccountType, Customer, CustomerRegistry
from ..netsim.addr import parse_prefix
from .client import LoopbackClient
from .workers import DEFAULT_BIND, WorkerPool

__all__ = [
    "AGILE_PREFIX",
    "AGILE_HOSTNAME",
    "BIG_HOSTNAME",
    "ALIAS_HOSTNAME",
    "BIG_TXT_RECORDS",
    "DEFAULT_SEED",
    "build_server",
    "build_pool",
    "wide_scope_query",
    "run_oneshot",
    "run_smoke",
]

AGILE_PREFIX = parse_prefix("192.0.2.0/24")
AGILE_HOSTNAME = "www.example.com"
BIG_HOSTNAME = "big.example.com"
ALIAS_HOSTNAME = "alias.example.com"
#: Enough ~60-byte TXT records to exceed even a 1232-byte EDNS budget.
BIG_TXT_RECORDS = 28
DEFAULT_SEED = 0x5E12E


def build_server(seed: int = DEFAULT_SEED) -> AuthoritativeServer:
    """The demo authoritative: policy-minted A records + zone fallback.

    Runs inside each forked worker (each gets its own seed), so it must
    build everything from scratch — no references into the parent.
    """
    customers = CustomerRegistry()
    customers.add(Customer("demo", AccountType.FREE, {AGILE_HOSTNAME}))
    engine = PolicyEngine(random.Random(seed))
    engine.add(
        Policy(
            "agile",
            AddressPool(AGILE_PREFIX, name="agile-pool"),
            match={"account_type": {AccountType.FREE.value}},
            ttl=30,
        )
    )

    zone = Zone("example.com")
    big = DomainName.from_text(BIG_HOSTNAME)
    for i in range(BIG_TXT_RECORDS):
        zone.add_record(
            ResourceRecord(big, TXT((f"filler-{i:02d}-" + "x" * 46,)), 300)
        )
    zone.add_record(
        ResourceRecord(
            DomainName.from_text(ALIAS_HOSTNAME),
            CNAME(DomainName.from_text(AGILE_HOSTNAME)),
            300,
        )
    )
    # Static fallback address for the agile hostname: what a non-A path
    # (the in-zone CNAME chase) resolves to when the policy engine is not
    # consulted for the tail.
    zone.add_record(
        ResourceRecord(
            DomainName.from_text(AGILE_HOSTNAME),
            A(AGILE_PREFIX.address_at(80)),
            300,
        )
    )
    source = PolicyAnswerSource(engine, customers, fallback=ZoneAnswerSource([zone]))
    return AuthoritativeServer(source, name="serve-auth")


def wide_scope_query(qid: int) -> bytes:
    """An A query for the agile hostname whose ECS option gives an IPv4 /24
    a SCOPE PREFIX-LENGTH of 33, wider than the family: malformed, so the
    answer is FORMERR and the worker that read it serves on."""
    option = struct.pack("!HBB", 1, 24, 33) + bytes((203, 0, 113))
    opt = OPTPseudo(1232, 0, struct.pack("!HH", 8, len(option)) + option)
    query = Message.query(qid, AGILE_HOSTNAME, RRType.A)
    return query._replace(additional=(ResourceRecord(DomainName.root(), opt, 0),)).encode()


def build_pool(
    bind: str = DEFAULT_BIND,
    workers: int = 1,
    seed: int = DEFAULT_SEED,
    drain_s: float = 2.0,
) -> WorkerPool:
    return WorkerPool(
        build_server, bind=bind, workers=workers, seed=seed, pop="serve", drain_s=drain_s
    )


def run_oneshot(
    bind: str = DEFAULT_BIND,
    workers: int = 1,
    seed: int = DEFAULT_SEED,
    timeout_s: float = 3.0,
) -> dict:
    """Start a pool, prove both wire paths, stop the pool; returns a report.

    The report's ``ok`` key is the overall verdict; everything else is
    evidence (dig-style answer summaries, pool counters).
    """
    with build_pool(bind=bind, workers=workers, seed=seed) as pool:
        client = LoopbackClient(pool.address, timeout_s=timeout_s)

        plain = client.query(AGILE_HOSTNAME)
        addresses = [
            str(r.rdata.address)
            for r in plain.message.answers
            if r.rrtype == RRType.A
        ]
        plain_ok = (
            plain.transport == "udp"
            and not plain.truncated_first
            and plain.message.flags.rcode == Rcode.NOERROR
            and bool(addresses)
            and all(a in AGILE_PREFIX for a in (
                r.rdata.address for r in plain.message.answers if r.rrtype == RRType.A
            ))
        )

        big = client.query(BIG_HOSTNAME, RRType.TXT)
        big_ok = (
            big.truncated_first
            and big.transport == "tcp"
            and big.message.flags.rcode == Rcode.NOERROR
            and len(big.message.answers) == BIG_TXT_RECORDS
        )

        address = pool.address

    counters = pool.snapshot()  # after stop: includes the drain markers
    return {
        "ok": plain_ok and big_ok,
        "address": f"{address[0]}:{address[1]}",
        "workers": workers,
        "plain": {
            "question": f"{AGILE_HOSTNAME} IN A",
            "transport": plain.transport,
            "rcode": int(plain.message.flags.rcode),
            "addresses": addresses,
            "ok": plain_ok,
        },
        "truncated": {
            "question": f"{BIG_HOSTNAME} IN TXT",
            "transport": big.transport,
            "tc_on_udp": big.truncated_first,
            "answers": len(big.message.answers),
            "expected_answers": BIG_TXT_RECORDS,
            "ok": big_ok,
        },
        "counters": counters,
        "client": {
            "udp_queries": client.stats.udp_queries,
            "tcp_fallbacks": client.stats.tcp_fallbacks,
            "timeouts": client.stats.timeouts,
        },
    }


def run_smoke(
    queries: int = 50,
    workers: int = 2,
    bind: str = DEFAULT_BIND,
    seed: int = DEFAULT_SEED,
    timeout_s: float = 3.0,
) -> dict:
    """CI smoke: N plain queries plus one forced truncation, zero drops.

    Every query must be answered (no timeouts), the one oversize answer
    must complete over TCP, and the pool must report zero malformed
    inputs — the wire path never silently eats a well-formed query.
    Halfway through, one hostile query (:func:`wide_scope_query`) must come
    back FORMERR and leave every worker serving and draining.
    """
    if queries < 1:
        raise ValueError("need at least one query")
    with build_pool(bind=bind, workers=workers, seed=seed) as pool:
        client = LoopbackClient(pool.address, timeout_s=timeout_s)
        plain = queries - 1
        outcomes = [client.query(AGILE_HOSTNAME) for _ in range(plain // 2)]
        hostile = client.query_udp_wire(wide_scope_query(0), 0).flags.rcode
        outcomes += [client.query(AGILE_HOSTNAME) for _ in range(plain - plain // 2)]
        rcodes_ok = all(o.message.flags.rcode == Rcode.NOERROR for o in outcomes)
        forced = client.query(BIG_HOSTNAME, RRType.TXT)

    counters = pool.snapshot()  # after stop: includes the drain markers
    ok = (
        rcodes_ok
        and hostile == Rcode.FORMERR
        and client.stats.timeouts == 0
        and forced.transport == "tcp"
        and forced.truncated_first
        and len(forced.message.answers) == BIG_TXT_RECORDS
        and counters.get("malformed", 0) == 0
        and counters.get("truncated", 0) >= 1
        and counters.get("drained", 0) == workers
    )
    return {
        "ok": ok,
        "queries_sent": queries,
        "workers": workers,
        "counters": counters,
        "client_timeouts": client.stats.timeouts,
        "forced_tc_completed": forced.transport == "tcp",
        "hostile_ecs_rcode": int(hostile),
    }
