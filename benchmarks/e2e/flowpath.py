"""The simulated request path: worlds, the timed driver, the traced run.

resolve → hash → ECMP → L4LB → sk_lookup → TLS select → cache → origin,
driven only through ``FlowEngine.run_batch``.  Worlds are assembled here
from the layer constructors so the baseline does not depend on any
experiment helper.
"""

from __future__ import annotations

import random
import time
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.clock import Clock
from repro.core.authoritative import PolicyAnswerSource
from repro.core.policy import Policy, PolicyEngine
from repro.core.pool import AddressPool
from repro.dns.cache import DNSCache
from repro.edge.customers import AccountType
from repro.edge.datacenter import Datacenter
from repro.edge.server import DEFAULT_SERVICE_PORTS, EdgeServer, ListenMode
from repro.flow import FlowBatch, FlowEngine
from repro.netsim.addr import IPAddress, parse_prefix
from repro.netsim.geo import GeoPoint
from repro.netsim.packet import FiveTuple, Packet, Protocol
from repro.sockets.lookup import LookupStage
from repro.web.tls import CertificateStore
from repro.workload.hostnames import HostnameUniverse, UniverseConfig

import loadgen
import measure
import trace

__all__ = ["SPECS", "FlowSpec", "World", "build_world", "run_timed", "run_traced"]

POP = "bench-pop"
POOL = parse_prefix("192.0.2.0/24")
SPARE_POOL = parse_prefix("198.51.100.0/24")
SERVERS = 8
WORLD_SEED = 7
WARMUP_BATCHES = 8
PROBE_SYNS = 8 * loadgen.BATCH_SIZE
#: Timed batches per second of ``--seconds``: what ``flow_cold``, the slower
#: workload, runs on the reference host.
BATCHES_PER_S = 6


@dataclass(frozen=True, slots=True)
class FlowSpec:
    sites: int
    zipf_s: float
    ttl: int
    decoy_policies: int
    cache_node_bytes: int
    #: ``(low, high)`` the resolver and edge-cache hit ratios must fall in.
    resolver_hits: tuple[float, float]
    edge_hits: tuple[float, float]


SPECS = {
    "flow_steady": FlowSpec(
        sites=1024, zipf_s=1.1, ttl=300, decoy_policies=0, cache_node_bytes=1 << 30,
        resolver_hits=(0.85, 1.0), edge_hits=(0.85, 1.0),
    ),
    "flow_cold": FlowSpec(
        sites=16384, zipf_s=0.6, ttl=0, decoy_policies=15, cache_node_bytes=1 << 20,
        resolver_hits=(0.0, 0.0), edge_hits=(0.0, 0.05),
    ),
}


@dataclass(slots=True)
class World:
    spec: FlowSpec
    universe: HostnameUniverse
    dc: Datacenter
    engine: FlowEngine


def build_world(spec: FlowSpec) -> World:
    """One PoP terminating a policy-minted /24 behind a resolver cache."""
    universe = HostnameUniverse(UniverseConfig(num_hostnames=spec.sites, seed=WORLD_SEED))
    certs = CertificateStore()
    for customer in universe.registry.customers():
        for cert in customer.make_certificates():
            certs.add(cert)
    dc = Datacenter(
        name=POP,
        location=GeoPoint(POP, 0.0, 0.0),
        registry=universe.registry,
        origins=universe.origins,
        certs=certs,
        num_servers=SERVERS,
        cache_node_capacity=spec.cache_node_bytes,
    )
    dc.configure_listening(POOL, ports=DEFAULT_SERVICE_PORTS, mode=ListenMode.SK_LOOKUP)

    policies = PolicyEngine(random.Random(WORLD_SEED))
    accounts = [account.value for account in AccountType]
    for i in range(spec.decoy_policies):
        # A (pop, account_type) table for other PoPs: walked, never matched.
        policies.add(Policy(
            f"decoy-{i:02d}",
            AddressPool(SPARE_POOL, name=f"decoy-pool-{i:02d}"),
            match={"pop": {f"pop-{i // len(accounts):02d}"},
                   "account_type": {accounts[i % len(accounts)]}},
            ttl=spec.ttl,
            priority=i,
        ))
    policies.add(Policy("randomize-all", AddressPool(POOL, name="flow-pool"),
                        match={}, ttl=spec.ttl, priority=100))
    source = PolicyAnswerSource(policies, universe.registry)
    engine = FlowEngine(source, DNSCache(Clock()), dc, POP)
    return World(spec, universe, dc, engine)


# -- driving ----------------------------------------------------------------------


@dataclass(slots=True)
class Drive:
    """One world under load: feeds batches, verifies every flow, and keeps
    the samples the metrics are computed from."""

    world: World
    batches: Iterator
    host: measure.Host
    attempted: int = 0
    failed: int = 0
    corpus_ns: int = 0
    #: Wall time inside ``run_batch`` so far: as the host ran it, and at
    #: reference speed with the time the hypervisor stole left out.
    raw_ns: int = 0
    net_ns: float = 0.0
    minted_addresses: list[int] = field(default_factory=list)
    last_batch: FlowBatch | None = None

    def run(self, n: int) -> list[tuple[float, float]]:
        """Run ``n`` batches; returns per batch ``(wall_ns, cpu_ns)`` around
        ``run_batch`` alone, at reference host speed — input generation,
        checks and the calibration probes are outside."""
        run_batch = self.world.engine.run_batch
        samples = []
        for _ in range(n):
            started = time.perf_counter_ns()
            batch = FlowBatch(*next(self.batches))
            self.corpus_ns += time.perf_counter_ns() - started
            # One batch per stretch: the shorter the stretch, the better its
            # two probes stand for the host's speed while it ran.
            self.host.begin()
            cpu0, t0 = time.process_time_ns(), time.perf_counter_ns()
            run_batch(batch)
            t1, cpu1 = time.perf_counter_ns(), time.process_time_ns()
            speed = self.host.end()
            self.raw_ns += t1 - t0
            self.net_ns += (t1 - t0) * speed * (1 - self.host.stolen_share)
            samples.append(((t1 - t0) * speed, (cpu1 - cpu0) * speed))
            self._verify(batch)
        return samples

    def _verify(self, batch: FlowBatch) -> None:
        self.attempted += len(batch)
        for status, address, stage, cached in zip(
            batch.statuses, batch.addresses, batch.stages, batch.cached
        ):
            if status != 200 or address not in POOL or stage is not LookupStage.CONNECTED:
                self.failed += 1
            elif not cached:
                self.minted_addresses.append(address.value)
        self.last_batch = batch


def start(spec: FlowSpec, seed: int) -> tuple[Drive, float]:
    """Set-up as a user pays it: build the world, run the warm-up.  Returns
    the drive and the set-up seconds at reference host speed (input
    generation excluded)."""
    host = measure.Host()
    host.begin()
    t0 = time.perf_counter()
    world = build_world(spec)
    build_s = (time.perf_counter() - t0) * host.end() * (1 - host.stolen_share)
    drive = Drive(world, loadgen.flow_batches(world.universe, spec.zipf_s, seed), host)
    drive.run(WARMUP_BATCHES)
    return drive, build_s + drive.net_ns / 1e9


def _hit_counts(world: World) -> tuple[int, int, int, int]:
    stats = world.engine.stats
    nodes = world.dc.cache.nodes().values()
    edge_hits = sum(node.stats.hits for node in nodes)
    return stats.cache_hits, stats.flows, edge_hits, edge_hits + sum(
        node.stats.misses for node in nodes
    )


def _check(drive: Drive, before: tuple[int, int, int, int], problems: list[str]) -> dict:
    """Anti-shortcut checks over everything run since ``before``."""
    spec, stats = drive.world.spec, drive.world.engine.stats
    res_hits, flows, edge_hits, edge_total = (
        now - then for now, then in zip(_hit_counts(drive.world), before)
    )
    ratios = {"resolver": res_hits / flows, "edge": edge_hits / edge_total}
    for name, (low, high) in (("resolver", spec.resolver_hits), ("edge", spec.edge_hits)):
        if not low <= ratios[name] <= high:
            problems.append(f"{name} hit ratio {ratios[name]:.3f} outside [{low}, {high}]")
    if stats.cache_hits + stats.minted != stats.flows:
        problems.append(f"hits {stats.cache_hits} + minted {stats.minted} != flows {stats.flows}")
    problems += measure.repeated_answers(drive.minted_addresses)
    if drive.failed:
        problems.append(f"{drive.failed} of {drive.attempted} flows failed")
    return ratios


def run_timed(spec: FlowSpec, seed: int, seconds: float, setups: int) -> dict:
    """Set up ``setups`` times (the last world is the one measured), then
    run ``BATCHES_PER_S`` batches per second of ``seconds``.

    Fixed work, not a fixed time: connection state is never freed, so the
    heap, the collector's pauses and the resident set all grow with flows
    run.  The same number of batches on every commit keeps them comparable;
    on the reference host it takes about ``seconds``."""
    setup_s = []
    for _ in range(setups):
        drive = None  # drop the previous world before building the next
        drive, elapsed = start(spec, seed)
        setup_s.append(elapsed)

    before, net0 = _hit_counts(drive.world), drive.net_ns
    samples = drive.run(max(2, round(seconds * BATCHES_PER_S)))
    flows = len(samples) * loadgen.BATCH_SIZE
    problems: list[str] = []
    ratios = _check(drive, before, problems)
    return {
        "attempted": drive.attempted,
        "failed": drive.failed,
        "problems": problems,
        # Whole-run totals, not a median over batches: the collector's pauses
        # land on one batch in six, and they are a cost the engine incurs.
        "ops_per_s": flows / ((drive.net_ns - net0) / 1e9),
        "cpu_us_per_op": sum(cpu for _, cpu in samples) / 1e3 / flows,
        "latencies_ms": [wall / 1e6 for wall, _ in samples],
        "segments": {
            "ops_per_s": [loadgen.BATCH_SIZE / (wall / 1e9) for wall, _ in samples],
            "cpu_us_per_op": [cpu / 1e3 / loadgen.BATCH_SIZE for _, cpu in samples],
        },
        "peak_rss_mb": measure.peak_rss_mb(),
        "setup_s": setup_s,
        "diagnostics": {
            "dns.cache.hit_ratio": ratios["resolver"],
            "edge.cache.hit_ratio": ratios["edge"],
            "loadgen.corpus_s": drive.corpus_ns / 1e9,
            **measure.tail_ratios([wall for wall, _ in samples]),
        },
    }


# -- the traced run -----------------------------------------------------------------


def _syn_rate(mode: str, packets: list[Packet], world: World) -> float:
    """SYNs per second through one server's ``dispatch_batch``, lookup only."""
    server = EdgeServer(f"probe-{mode}", world.universe.registry, world.dc.cache,
                        world.dc.certs, IPAddress.from_text("198.18.1.1"))
    server.configure_listening(POOL, DEFAULT_SERVICE_PORTS, mode)
    host = measure.Host()
    rates = []
    for _ in range(5):
        host.begin()
        t0 = time.perf_counter_ns()
        for lo in range(0, len(packets), loadgen.BATCH_SIZE):
            results = server.dispatch_batch(packets[lo:lo + loadgen.BATCH_SIZE], deliver=False)
            if any(result.socket is None for result in results):
                raise AssertionError(f"{mode}: a pool SYN found no listener")
        elapsed = time.perf_counter_ns() - t0
        rates.append(len(packets) / (elapsed / 1e9) / host.end())
    return measure.percentile(rates, 0.5)


def probe_syn_dispatch(world: World, seed: int) -> dict[str, float]:
    """Paper §3.3 (E5): SYN dispatch cost with the pool on an sk_lookup
    program versus one bound listener per (address, port)."""
    rng = random.Random(seed)
    addrs, ports = loadgen.SourceAllocator(seed).take(PROBE_SYNS)
    packets = [
        Packet(FiveTuple(Protocol.TCP, src, sport, POOL.random_address(rng),
                         rng.choice(DEFAULT_SERVICE_PORTS)), syn=True)
        for src, sport in zip(addrs, ports)
    ]
    sk = _syn_rate(ListenMode.SK_LOOKUP, packets, world)
    binds = _syn_rate(ListenMode.PER_IP_BINDS, packets, world)
    return {
        "sockets.lookup.syn_per_s_sk_lookup": sk,
        "sockets.lookup.syn_per_s_per_ip_binds": binds,
        "sockets.lookup.sk_vs_bind_ratio": binds / sk,
    }


def probe_repoint(drive: Drive, problems: list[str]) -> float:
    """Re-point the PoP to a second /24 and back with every flow run so far
    still established; those flows must keep resolving ``CONNECTED``."""
    dc, engine, batch = drive.world.dc, drive.world.engine, drive.last_batch
    host = measure.Host()
    host.begin()
    elapsed = 0
    for pool in (SPARE_POOL, POOL):
        t0 = time.perf_counter_ns()
        dc.repoint_pool(pool)
        elapsed += time.perf_counter_ns() - t0
        if any(s is not LookupStage.CONNECTED for s in engine.dispatch_stage(batch).stages):
            problems.append(f"an established flow left CONNECTED with the pool at {pool}")
    return 2 / (elapsed / 1e9) / host.end()


def run_traced(spec: FlowSpec, seed: int, batches: int, dump_to=None) -> dict:
    """The same ``batches`` batches through two identical worlds: untraced
    (the reference wall time), then with every layer boundary wrapped."""
    flows = batches * loadgen.BATCH_SIZE

    plain, _ = start(spec, seed)
    rss0 = measure.rss_bytes()
    plain_samples = plain.run(batches)
    plain_wall = sum(wall for wall, _ in plain_samples)
    bytes_per_conn = (measure.rss_bytes() - rss0) / flows
    attempted, failed, corpus_ns = plain.attempted, plain.failed, plain.corpus_ns
    del plain

    with trace.traced(trace.FLOW_TARGETS) as recorder:
        drive, _ = start(spec, seed)
        before = _hit_counts(drive.world)
        recorder.clear()  # the ledger covers the measured batches only
        raw0 = drive.raw_ns
        traced_wall = sum(wall for wall, _ in drive.run(batches))
        raw_wall = drive.raw_ns - raw0
    if dump_to is not None:
        recorder.dump(dump_to)

    problems: list[str] = []
    ratios = _check(drive, before, problems)
    dc = drive.world.dc
    stage_counts = [server.lookup_path.stage_counts for server in dc.servers.values()]
    node_loads = [node.stats.hits + node.stats.misses for node in dc.cache.nodes().values()]
    counts = {
        "dns.cache.hit_ratio": ratios["resolver"],
        "edge.cache.hit_ratio": ratios["edge"],
        "edge.ecmp.imbalance": measure.max_over_mean(dc.ecmp.stats.per_server.values()),
        "edge.cache.node_imbalance": measure.max_over_mean(node_loads),
        "sockets.lookup.sk_lookup_stage_ratio": (
            sum(c[LookupStage.SK_LOOKUP] for c in stage_counts) / dc.connection_count()
        ),
        "edge.datacenter.bytes_per_conn": bytes_per_conn,
        "edge.datacenter.repoints_per_s": probe_repoint(drive, problems),
        **probe_syn_dispatch(drive.world, seed),
        "loadgen.corpus_s": (corpus_ns + drive.corpus_ns) / 1e9,
        **measure.tail_ratios([wall for wall, _ in plain_samples]),
        "trace.overhead_ratio": traced_wall / plain_wall - 1,
    }
    return {
        "attempted": attempted + drive.attempted,
        "failed": failed + drive.failed,
        "problems": problems,
        "ops": flows,
        "wall_us_per_op": traced_wall / 1e3 / flows,
        "ledger": recorder.ledger(flows, raw_wall, traced_wall / raw_wall),
        "counts": counts,
    }
