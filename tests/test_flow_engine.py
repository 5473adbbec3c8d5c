"""The columnar flow engine end to end: stages, stats, backends, obs.

Parity against the scalar reference lives in
``tests/test_flow_differential.py``; these tests pin the engine's own
behaviour — what each stage writes into the batch, how the per-batch stats
fold, and how the engine surfaces through ``repro.obs``.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from contextlib import contextmanager

import pytest

from repro import hashing
from repro.core.policy import Policy
from repro.edge import cache as edge_cache
from repro.edge import ecmp
from repro.experiments.flow_perf import (
    build_flow_world,
    make_flow_columns,
    run_engine,
    run_scalar,
)
from repro.flow import FlowBatch, FlowEngine, NumpyHashBackend, PythonHashBackend
from repro.netsim import parse_address
from repro.dns.records import Question
from repro.netsim.packet import FiveTuple, Packet, Protocol
from repro.obs import MetricsRegistry
from repro.obs.adapters import watch_flow_engine
from repro.sockets import socktable
from repro.sockets.lookup import DispatchResult, LookupStage
from repro.web.http import Response, Status
from repro.workload.traffic import RequestStream


def _columns(world, n=96, seed=11, batch_size=32):
    return make_flow_columns(world, n, seed=seed, batch_size=batch_size)


class TestPipelineStages:
    def test_full_pipeline_serves_everything(self):
        world = build_flow_world(num_hostnames=16, num_servers=4)
        served = run_engine(world, _columns(world))
        assert served == 96
        stats = world.engine.stats
        assert stats.flows == 96
        assert stats.batches == 3
        assert stats.unresolved == 0
        assert stats.connections == 96
        assert stats.dispatched == 96
        assert stats.served_errors == 0
        assert stats.cache_hits + stats.minted == 96
        assert stats.bytes_served > 0

    def test_stage_columns_populated(self):
        world = build_flow_world(num_hostnames=8, num_servers=2)
        (hostnames, src_addrs, src_ports) = _columns(world, n=16, batch_size=16)[0]
        batch = world.engine.run_batch(FlowBatch(hostnames, src_addrs, src_ports))
        assert all(addr is not None for addr in batch.addresses)
        assert all(t5 is not None for t5 in batch.tuple5s)
        assert all(isinstance(fh, int) for fh in batch.flow_hashes)
        assert all(server in world.dc.servers for server in batch.servers)
        # Request packets on established flows resolve at the connected-
        # socket stage — the 4-tuple match, never a fresh listener walk.
        assert all(stage is LookupStage.CONNECTED for stage in batch.stages)
        assert all(status == 200 for status in batch.statuses)

    def test_flow_hashes_threaded_not_recomputed(self):
        """The engine's hash column must be the exact hash the scalar path
        computes — ECMP keys on it, so a drift would re-home flows."""
        from repro.sockets.lookup import flow_hash_tuple

        world = build_flow_world(num_hostnames=8, num_servers=2)
        (hostnames, src_addrs, src_ports) = _columns(world, n=8, batch_size=8)[0]
        batch = world.engine.run_batch(FlowBatch(hostnames, src_addrs, src_ports))
        assert batch.flow_hashes == [flow_hash_tuple(t) for t in batch.tuple5s]

    def test_second_pass_hits_resolver_cache(self):
        world = build_flow_world(num_hostnames=8, num_servers=2, ttl=300)
        columns = _columns(world, n=32, batch_size=32)
        run_engine(world, columns)
        minted_first = world.engine.stats.minted
        assert minted_first > 0
        # Same hostnames, fresh 5-tuples (a client can't reuse a live
        # ephemeral port for a second connection to the same address).
        fresh = [
            (hostnames, src_addrs, list(range(10_000, 10_000 + len(src_ports))))
            for hostnames, src_addrs, src_ports in columns
        ]
        run_engine(world, fresh)
        assert world.engine.stats.minted == minted_first  # all cache hits
        assert world.engine.stats.cache_hits >= 32

    def test_duplicate_hostnames_fall_back_to_scalar_resolve(self):
        """In-batch duplicates must observe earlier stores, like a scalar
        loop: first occurrence mints, second hits the cache — and both get
        the *same* address (the bound name, not a fresh mint)."""
        world = build_flow_world(num_hostnames=8, num_servers=2)
        host = world.universe.sites[0]
        batch = FlowBatch(
            [host, host],
            [parse_address("100.64.0.1"), parse_address("100.64.0.2")],
            [20_001, 20_002],
        )
        world.engine.run_batch(batch)
        assert batch.cached == [False, True]
        assert batch.addresses[0] == batch.addresses[1]
        assert world.cache.stats.hits == 1
        assert world.cache.stats.misses == 1

    def test_unmatched_flows_fall_out_at_resolve(self):
        """A flow no policy matches (and no fallback answers) carries
        ``None`` through every later column and counts as unresolved."""
        world = build_flow_world(num_hostnames=8, num_servers=2)
        engine = world.source.engine
        pool = engine.get("randomize-all").pool
        engine.remove("randomize-all")
        engine.add(
            Policy("enterprise-only", pool,
                   match={"account_type": {"enterprise"}}, ttl=30)
        )
        free_host = next(
            h for h in world.universe.sites
            if world.universe.customer_of(h).account_type.value != "enterprise"
        )
        batch = FlowBatch([free_host], [parse_address("100.64.0.1")], [20_001])
        world.engine.run_batch(batch)
        assert batch.addresses == [None]
        assert batch.connections == [None]
        assert batch.stages == [None]
        assert batch.statuses == [None]
        assert world.engine.stats.unresolved == 1
        assert world.engine.stats.connections == 0
        assert world.source.log.refused == 1

    def test_run_columns_convenience(self):
        world = build_flow_world(num_hostnames=8, num_servers=2)
        host = world.universe.sites[0]
        batch = world.engine.run_columns(
            (host,), (parse_address("100.64.0.9"),), (23_456,)
        )
        assert batch.statuses == [200]


class TestBackendsThroughEngine:
    def test_numpy_and_python_engines_agree(self):
        pytest.importorskip("numpy")
        cols = None
        batches = {}
        for backend in ("python", "numpy"):
            world = build_flow_world(num_hostnames=16, num_servers=4)
            assert isinstance(world.engine.backend, NumpyHashBackend)  # the default
            if backend == "python":
                world.engine = FlowEngine(world.source, world.cache, world.dc,
                                          world.dc.name, backend=PythonHashBackend())
            cols = _columns(world, n=64, batch_size=64)
            (hostnames, src_addrs, src_ports) = cols[0]
            batches[backend] = world.engine.run_batch(
                FlowBatch(hostnames, src_addrs, src_ports)
            )
        py, np_ = batches["python"], batches["numpy"]
        assert py.flow_hashes == np_.flow_hashes
        assert py.servers == np_.servers
        assert py.addresses == np_.addresses
        assert py.statuses == np_.statuses


class TestFlowObservability:
    def test_watch_flow_engine_snapshot(self):
        world = build_flow_world(num_hostnames=8, num_servers=2)
        registry = MetricsRegistry()
        watch_flow_engine(registry, "flow", world.engine)
        run_engine(world, _columns(world, n=32, batch_size=16))
        counters = registry.snapshot()["counters"]
        assert counters["flow.flows"] == 32
        assert counters["flow.batches"] == 2
        assert counters["flow.served_ok"] == 32
        assert counters[f"flow.backend.{world.engine.backend.name}"] == 1


class TestFlowWorkload:
    def test_sample_flow_batches_columns_parallel_and_deterministic(self):
        world = build_flow_world(num_hostnames=16, num_servers=2)
        stream = RequestStream(world.universe)
        a = list(stream.sample_flow_batches(100, seed=5, batch_size=32))
        b = list(stream.sample_flow_batches(100, seed=5, batch_size=32))
        assert [x[0] for x in a] == [x[0] for x in b]
        assert [x[1] for x in a] == [x[1] for x in b]
        assert [x[2] for x in a] == [x[2] for x in b]
        assert sum(len(h) for h, _, _ in a) == 100
        cgnat_lo = parse_address("100.64.0.0").value
        cgnat_hi = parse_address("100.128.0.0").value
        for hostnames, src_addrs, src_ports in a:
            assert len(hostnames) == len(src_addrs) == len(src_ports)
            assert all(cgnat_lo <= addr.value < cgnat_hi for addr in src_addrs)
            assert all(20_000 <= port < 60_000 for port in src_ports)
        # The exact columns, short last batch included, as they came out
        # when the chunking lived in ``batched`` / ``sample_batches``.
        assert [len(hostnames) for hostnames, _, _ in a] == [32, 32, 32, 4]
        flows = [(h, addr.value, port) for hs, addrs, ports in a
                 for h, addr, port in zip(hs, addrs, ports)]
        assert hashlib.sha256(repr(flows).encode()).hexdigest() == (
            "7a354eae22326729e673cd946f672447d9c94082fc19a71f80db81ddcee0a300"
        )
        assert flows[0] == ("site0000007.example.com", 1682433577, 51543)
        assert a[-1] == (
            ["site0000004.example.com", "img.site0000004.example.com",
             "static.site0000004.example.com", "api.site0000004.example.com"],
            [parse_address(text) for text in ("100.118.32.252", "100.75.76.90",
                                              "100.68.252.102", "100.127.137.216")],
            [54123, 23571, 23138, 27597],
        )

    def test_run_scalar_reference_serves_everything(self):
        world = build_flow_world(num_hostnames=8, num_servers=2)
        assert run_scalar(world, _columns(world, n=24, batch_size=8)) == 24
        # The control arm never folds engine stats.
        assert world.engine.stats.flows == 0


class TestCallCounts:
    """What one batch may cost, as exact counts (the PR 17 idiom: wrap by
    module or class attribute, the way ``benchmarks/e2e/trace.py`` does).

    The rendezvous picks and content-key hashes run as columns, so the
    scalar functions are never entered; every flow gets one 5-tuple, is
    wrapped in a packet twice (its SYN, its request), lands through two
    dispatch results and is answered with one response, plus one more per
    origin fetch; a batch parses each distinct hostname into one question;
    and no receive queue is allocated for a child nothing is delivered to.

    Value types are built by ``__new__`` (tuples have no ``__init__`` to
    run), so that is what is counted."""

    FLOWS = 1024
    VALUES = (FiveTuple, Packet, DispatchResult, Question, Response)

    @contextmanager
    def _counted(self):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with pytest.MonkeyPatch.context() as patch:
            # ``pick`` / ``fnv1a64`` are bound by name where they are used.
            for module in (hashing, ecmp, edge_cache):
                for name in ("splitmix64", "pick", "fnv1a64"):
                    if name in vars(module):
                        patch.setattr(module, name, counting(name, vars(module)[name]))
            for cls in self.VALUES:
                patch.setattr(cls, "__new__", counting(cls.__name__, cls.__new__))
            patch.setattr(socktable, "deque", counting("deque", socktable.deque))
            yield calls

    def test_one_batch_hashes_by_column_and_builds_each_object_once(self):
        world = build_flow_world(num_hostnames=64, num_servers=8)
        warm, timed = make_flow_columns(world, 2 * self.FLOWS, seed=5, batch_size=self.FLOWS)
        world.engine.run_batch(FlowBatch(*warm))
        origins = world.universe.origins.origins()
        fetched = sum(origin.requests for origin in origins)
        with self._counted() as calls:
            batch = world.engine.run_batch(FlowBatch(*timed))
        fetched = sum(origin.requests for origin in origins) - fetched
        assert all(status == 200 for status in batch.statuses)
        assert 0 < fetched < self.FLOWS  # hits and misses both rode along
        hostnames = len(set(timed[0]))
        assert 1 < hostnames < self.FLOWS  # the batch repeats names
        assert dict(calls) == {
            "FiveTuple": self.FLOWS,
            "Packet": 2 * self.FLOWS,
            "DispatchResult": 2 * self.FLOWS,
            "Question": hostnames,
            "Response": self.FLOWS + fetched,
        }

    def test_counting_through_new_leaves_the_types_as_they_were(self):
        """The patch is undone on exit: construction and equality behave as
        before, and no class keeps a ``__new__`` it did not define."""
        own = {cls: "__new__" in vars(cls) for cls in self.VALUES}
        with self._counted() as calls:
            Packet(FiveTuple(Protocol.TCP, parse_address("192.0.2.1"), 1,
                             parse_address("192.0.2.2"), 443))
        assert calls["Packet"] == calls["FiveTuple"] == 1
        assert {cls: "__new__" in vars(cls) for cls in self.VALUES} == own
        assert Response(Status.OK) == Response(Status.OK, body_len=0)

    def test_the_scalar_path_is_what_the_counters_would_have_caught(self):
        """The same wrappers around ``run_scalar``: the pins above are not
        vacuous — the scalar seams do enter every counted function."""
        world = build_flow_world(num_hostnames=64, num_servers=8)
        (columns,) = make_flow_columns(world, 64, seed=5, batch_size=64)
        with self._counted() as calls:
            world.engine.run_scalar(*columns)
        assert calls["pick"] == 2 * 64 and calls["fnv1a64"] == 64
        assert calls["splitmix64"] == 2 * 64 * 8
