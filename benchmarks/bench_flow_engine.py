"""E-flow: columnar flow-engine throughput, batched versus scalar, per stage.

ROADMAP.md's "Measured performance" pillar (keep the request path fast at
CDN scale): PR 4 batched the sk_lookup dispatch stage; the flow engine
batches the rest of the pipeline.  Each test here times one stage both ways on the *same* world
and workload — the columnar ``FlowEngine`` stage against the
loop-of-scalars seams ``FlowEngine.run_scalar`` uses — and persists a
``BENCH_flow_<stage>.json`` snapshot whose ``batch_speedup`` ratio the CI
perf gate (``benchmarks/perf_gate.py``) pins against committed baselines.

Resolve has no arm: it runs the scalar seams flow by flow on both sides
(a Zipf batch's duplicates must see each other's cache stores), so there
is no second path to compare.  Both arms are timed with the same
best-of-``REPEATS`` harness so the ratio is apples-to-apples; absolute
flows/s are machine-bound and stay ungated.  The differential suite
(``tests/test_flow_differential.py``) separately proves the two arms
produce identical verdicts and counters — these benches only measure them.
"""

import itertools
import time

import pytest

from repro.analysis.reporting import TextTable
from repro.experiments.flow_perf import build_flow_world
from repro.flow import FlowBatch
from repro.netsim.addr import IPAddress
from repro.obs import MetricsRegistry
from repro.obs.adapters import watch_flow_engine
from repro.web.http import Request

N_HOSTNAMES = 128
N_FLOWS = 1024
REPEATS = 5  # best-of, absorbing warm-up and scheduler noise

#: Globally unique client sources (10.0.0.0/8) so no benchmark round ever
#: replays a live 5-tuple — a client cannot reconnect on a bound port.
_src_counter = itertools.count(1)


@pytest.fixture(scope="module")
def rates():
    return {}


@pytest.fixture(scope="module")
def world():
    w = build_flow_world(num_hostnames=N_HOSTNAMES, num_servers=8)
    # Prime the resolver cache: stage benches measure the steady state
    # (every hostname already bound), not first-contact minting.
    primer = FlowBatch(*_columns(w, N_HOSTNAMES))
    w.engine.resolve_batch(primer)
    assert all(a is not None for a in primer.addresses)
    return w


def _columns(world, n):
    """``n`` flows cycling the universe's hostnames, fresh sources each call."""
    sites = world.universe.sites
    hostnames = [sites[i % len(sites)] for i in range(n)]
    src_addrs = [IPAddress.v4(0x0A000000 + next(_src_counter)) for _ in range(n)]
    return hostnames, src_addrs, [33_333] * n


def _resolved_batch(world, n):
    batch = FlowBatch(*_columns(world, n))
    world.engine.resolve_batch(batch)
    return batch


def _connected_batch(world, n):
    batch = _resolved_batch(world, n)
    world.engine.connect_stage(batch)
    return batch


def _rate(fn, n_items, fresh=None):
    """Best-of-``REPEATS`` items/s; ``fresh`` builds per-round arguments
    outside the timed region (stages that consume 5-tuples need new ones)."""
    best = float("inf")
    for _ in range(REPEATS):
        args = fresh() if fresh is not None else ()
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return n_items / best


def _save_stage(save_bench, rates, stage, batched_fps, scalar_fps):
    rates[f"{stage}-batched"] = batched_fps
    rates[f"{stage}-scalar"] = scalar_fps
    speedup = batched_fps / scalar_fps
    rates[f"{stage}-speedup"] = speedup
    save_bench(
        f"flow_{stage}",
        batched_fps=batched_fps,
        scalar_fps=scalar_fps,
        batch_speedup=speedup,
    )


def test_connect_stage(world, rates, save_bench, benchmark):
    """ECMP → L4LB → handshake: ``connect_batch`` versus ``connect`` loops.

    Every round consumes fresh 5-tuples (built outside the timed region):
    a handshake binds its tuple for good."""
    from repro.netsim.packet import FiveTuple
    from repro.web.tls import ClientHello

    engine = world.engine
    dc = world.dc
    transport = engine.version.transport

    def batched():
        return (_resolved_batch(world, N_FLOWS),)

    def scalar_args():
        return (_resolved_batch(world, N_FLOWS),)

    def scalar(batch):
        owners = []  # the batched arm fills a ``servers`` column too
        for i in batch.resolved_indices():
            t5 = FiveTuple(
                transport, batch.src_addrs[i], batch.src_ports[i],
                batch.addresses[i], engine.port,
            )
            conn = dc.connect(t5, ClientHello(sni=batch.hostnames[i]), engine.version)
            owners.append(conn.owner)

    batched_fps = _rate(engine.connect_stage, N_FLOWS, fresh=batched)
    scalar_fps = _rate(scalar, N_FLOWS, fresh=scalar_args)
    _save_stage(save_bench, rates, "connect", batched_fps, scalar_fps)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_serve_stage(world, rates, save_bench, benchmark):
    """HTTP serving on established flows: ``serve_batch`` versus a loop."""
    engine = world.engine
    dc = world.dc
    batch = _connected_batch(world, N_FLOWS)
    loops = 4

    def batched():
        for _ in range(loops):
            engine.serve_stage(batch)

    def scalar():
        for _ in range(loops):
            for i in range(len(batch)):
                dc.serve(batch.connections[i], Request(authority=batch.hostnames[i]))

    batched_fps = _rate(batched, loops * N_FLOWS)
    scalar_fps = _rate(scalar, loops * N_FLOWS)
    _save_stage(save_bench, rates, "serve", batched_fps, scalar_fps)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_end_to_end(world, rates, save_bench, benchmark):
    """The whole pipeline: ``run_batch`` versus ``run_scalar``."""
    engine = world.engine

    def fresh():
        return (_columns(world, N_FLOWS),)

    def batched(columns):
        batch = engine.run_batch(FlowBatch(*columns))
        assert all(status == 200 for status in batch.statuses)

    def scalar(columns):
        batch = engine.run_scalar(*columns)
        assert all(status == 200 for status in batch.statuses)

    batched_fps = _rate(batched, N_FLOWS, fresh=fresh)
    scalar_fps = _rate(scalar, N_FLOWS, fresh=fresh)
    _save_stage(save_bench, rates, "end_to_end", batched_fps, scalar_fps)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_flow_throughput_report(world, rates, save_table, save_bench, benchmark):
    stages = ("connect", "serve", "end_to_end")
    assert {f"{stage}-speedup" for stage in stages} <= set(rates)
    table = TextTable(
        "Columnar flow engine: batched vs scalar throughput "
        f"(hash backend: {world.engine.backend.name})",
        ["stage", "batched flows/s", "scalar flows/s", "speedup"],
    )
    for stage in stages:
        table.add_row(
            stage,
            f"{rates[f'{stage}-batched']:,.0f}",
            f"{rates[f'{stage}-scalar']:,.0f}",
            f"{rates[f'{stage}-speedup']:.2f}x",
        )
    save_table("flow_engine", table.render())

    # The claim worth defending: batching never *loses* to the scalar
    # loop on any stage (the gate pins the measured ratios tighter).
    for stage in stages:
        assert rates[f"{stage}-speedup"] > 0.8, (
            f"{stage}: batched path slower than scalar "
            f"({rates[f'{stage}-speedup']:.2f}x)"
        )

    registry = MetricsRegistry()
    watch_flow_engine(registry, "flow", world.engine)
    save_bench(
        "flow_engine",
        metrics=registry,
        **{f"{stage}_speedup": rates[f"{stage}-speedup"] for stage in stages},
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
