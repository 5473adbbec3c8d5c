"""Experiment E-flow: end-to-end columnar flow-engine throughput.

ROADMAP.md's "Measured performance" pillar asks for the request path to
keep up at CDN scale: PR 4 batched the sk_lookup dispatch stage, and this
experiment measures the rest — DNS query → policy match → mint → resolver
cache → ECMP → dispatch → serve — scalar versus columnar, per stage and
end to end.

Builders here construct one self-contained world (a single PoP terminating
a policy-minted /24, a hostname universe with certificates, a resolver
cache, and a :class:`~repro.flow.FlowEngine`); ``bench_flow_engine.py``
times the stages over identical seeded workloads and the perf gate pins
the batched/scalar ratios.  Absolute flows/s are machine-bound and stay
ungated; the *ratios* are the reproducible claim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..clock import Clock
from ..core.authoritative import PolicyAnswerSource
from ..core.policy import Policy, PolicyEngine
from ..core.pool import AddressPool
from ..dns.cache import DNSCache
from ..edge.datacenter import Datacenter
from ..edge.server import ListenMode
from ..flow.batch import FlowBatch
from ..flow.engine import FlowEngine
from ..netsim.geo import GeoPoint
from ..netsim.packet import Protocol
from ..web.tls import CertificateStore
from ..workload.hostnames import HostnameUniverse, UniverseConfig
from ..workload.traffic import RequestStream

__all__ = [
    "FlowWorld",
    "build_flow_world",
    "make_flow_columns",
    "run_engine",
    "run_scalar",
]

POOL_PREFIX_TEXT = "192.0.2.0/24"


@dataclass(slots=True)
class FlowWorld:
    """One ready-to-drive deployment for flow-engine experiments."""

    clock: Clock
    universe: HostnameUniverse
    dc: Datacenter
    cache: DNSCache
    source: PolicyAnswerSource
    engine: FlowEngine


def build_flow_world(
    num_hostnames: int = 64,
    num_servers: int = 8,
    seed: int = 7,
    ttl: int = 300,
    pop: str = "bench-pop",
) -> FlowWorld:
    """A single-PoP policy deployment behind a resolver cache.

    ``ttl`` defaults high so steady-state workloads exercise the cache-hit
    path; pass ``ttl=0`` (use-once answers, never cached) to force every
    flow through the mint path instead.
    """
    from ..netsim.addr import parse_prefix

    clock = Clock()
    universe = HostnameUniverse(UniverseConfig(num_hostnames=num_hostnames, seed=seed))
    certs = CertificateStore()
    for customer in universe.registry.customers():
        for cert in customer.make_certificates():
            certs.add(cert)

    dc = Datacenter(
        name=pop,
        location=GeoPoint(pop, 0.0, 0.0),
        registry=universe.registry,
        origins=universe.origins,
        certs=certs,
        num_servers=num_servers,
    )
    pool_prefix = parse_prefix(POOL_PREFIX_TEXT)
    dc.configure_listening(
        pool_prefix, ports=(443,), mode=ListenMode.SK_LOOKUP, protocols=(Protocol.TCP,)
    )

    engine = PolicyEngine(random.Random(seed))
    pool = AddressPool(pool_prefix, name="flow-pool")
    engine.add(Policy("randomize-all", pool, match={}, ttl=ttl))
    source = PolicyAnswerSource(engine, universe.registry)
    cache = DNSCache(clock)
    flow_engine = FlowEngine(source, cache, dc, pop)
    return FlowWorld(clock, universe, dc, cache, source, flow_engine)


def make_flow_columns(
    world: FlowWorld,
    n: int,
    seed: int = 99,
    batch_size: int = 1024,
    zipf_s: float = 1.1,
) -> list[tuple[list[str], list, list[int]]]:
    """A seeded flow corpus as struct-of-arrays column batches."""
    stream = RequestStream(world.universe, zipf_s=zipf_s)
    return list(stream.sample_flow_batches(n, seed, batch_size=batch_size))


def run_engine(world: FlowWorld, columns: list[tuple[list[str], list, list[int]]]) -> int:
    """Drive the columnar engine over a corpus; returns flows served OK."""
    engine = world.engine
    before = engine.stats.served_ok
    for hostnames, src_addrs, src_ports in columns:
        engine.run_batch(FlowBatch(list(hostnames), list(src_addrs), list(src_ports)))
    return engine.stats.served_ok - before


def run_scalar(world: FlowWorld, columns: list[tuple[list[str], list, list[int]]]) -> int:
    """Drive the loop-of-scalars reference over a corpus; returns 200s."""
    engine = world.engine
    ok = 0
    for hostnames, src_addrs, src_ports in columns:
        batch = engine.run_scalar(hostnames, src_addrs, src_ports)
        ok += sum(1 for s in batch.statuses if s == 200)
    return ok
