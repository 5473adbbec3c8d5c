"""FlowBatch shape enforcement, BatchShapeError regressions, hash backends.

Satellite regressions for the silent-truncation family: every ``*_batch``
entry point must reject mismatched parallel columns with a typed
:class:`BatchShapeError` *before* doing any work — the old ``zip`` simply
dropped the unpaired tail.
"""

from __future__ import annotations

import pytest

from repro.experiments.sklookup_perf import build_sk_lookup, make_packets
from repro.flow import FlowBatch, NumpyHashBackend, PythonHashBackend
from repro.netsim import parse_address
from repro.netsim.packet import FiveTuple, Protocol
from repro.sockets.errors import BatchShapeError
from repro.sockets.lookup import flow_hash, flow_hash_tuple


def _tuples(n: int, v6: bool = False) -> list[FiveTuple]:
    tuples = []
    for i in range(n):
        if v6:
            src = parse_address(f"2001:db8::{i + 1:x}")
            dst = parse_address(f"2001:db8:1::{i + 1:x}")
        else:
            src = parse_address(f"100.64.{i % 250}.{(i * 7) % 250 + 1}")
            dst = parse_address(f"192.0.2.{i % 250 + 1}")
        proto = Protocol.QUIC if i % 3 == 0 else Protocol.TCP
        tuples.append(FiveTuple(proto, src, 20_000 + i, dst, 443))
    return tuples


class TestDispatchBatchTruncationFix:
    """The satellite bugfix: ``zip(packets, flow_hashes)`` used to drop the
    unpaired tail silently.  This test fails before the fix."""

    def test_short_hash_column_raises(self):
        setup = build_sk_lookup()
        packets = make_packets(8)
        hashes = [flow_hash(p) for p in packets[:5]]  # 3 short
        with pytest.raises(BatchShapeError) as excinfo:
            setup.path.dispatch_batch(packets, deliver=False, flow_hashes=hashes)
        assert excinfo.value.lengths == {"packets": 8, "flow_hashes": 5}
        assert "packets=8" in str(excinfo.value)
        assert "flow_hashes=5" in str(excinfo.value)

    def test_long_hash_column_raises_too(self):
        setup = build_sk_lookup()
        packets = make_packets(4)
        hashes = [flow_hash(p) for p in make_packets(6)]
        with pytest.raises(BatchShapeError):
            setup.path.dispatch_batch(packets, deliver=False, flow_hashes=hashes)

    def test_rejected_batch_leaves_no_trace(self):
        """The shape check runs before any packet is dispatched: counters,
        batch accounting, and socket queues are untouched."""
        setup = build_sk_lookup()
        packets = make_packets(8)
        before = dict(setup.path.stage_counts)
        with pytest.raises(BatchShapeError):
            setup.path.dispatch_batch(packets, deliver=True, flow_hashes=[1, 2])
        assert setup.path.stage_counts == before
        assert setup.path.batches == 0
        assert setup.path.batch_packets == 0
        assert all(len(s.queue) == 0 for s in setup.table.sockets())

    def test_matched_columns_still_dispatch_everything(self):
        setup = build_sk_lookup()
        packets = make_packets(8)
        hashes = [flow_hash(p) for p in packets]
        results = setup.path.dispatch_batch(packets, deliver=False, flow_hashes=hashes)
        assert len(results) == 8
        assert setup.path.batch_packets == 8


class TestOtherBatchSeamsShapeChecks:
    def test_choose_many_is_one_choice_per_hash(self):
        """``choose_many`` has a single column, so no pair to mismatch: its
        shape contract is one choice per hash, in order, nothing recorded."""
        from repro.edge.ecmp import ECMPRouter

        router = ECMPRouter(["s0", "s1"])
        hashes = [flow_hash(p) for p in make_packets(4)]
        assert router.choose_many(hashes) == [router.choose(fh) for fh in hashes]
        assert router.choose_many([]) == []
        assert router.stats.routed == 0
        with pytest.raises(RuntimeError):
            ECMPRouter().choose_many(hashes)

    def test_connect_batch_mismatch(self):
        from repro.experiments.flow_perf import build_flow_world
        from repro.web.http import HTTPVersion
        from repro.web.tls import ClientHello

        world = build_flow_world(num_hostnames=4, num_servers=2)
        t5 = _tuples(2)
        requests = [(t, ClientHello(sni="site0000000.example.com"), HTTPVersion.H2) for t in t5]
        with pytest.raises(BatchShapeError):
            world.dc.connect_batch(requests, flow_hashes=[flow_hash_tuple(t5[0])])
        assert world.dc.ecmp.stats.routed == 0
        assert world.dc.connection_count() == 0


class TestFlowBatchContainer:
    def test_parallel_inputs_enforced(self):
        with pytest.raises(BatchShapeError) as excinfo:
            FlowBatch(["a", "b"], [parse_address("100.64.0.1")], [1, 2])
        assert excinfo.value.lengths["hostnames"] == 2
        assert excinfo.value.lengths["src_addrs"] == 1

    def test_set_column_enforces_length(self):
        batch = FlowBatch(
            ["a", "b"],
            [parse_address("100.64.0.1"), parse_address("100.64.0.2")],
            [1, 2],
        )
        with pytest.raises(BatchShapeError):
            batch.set_column("addresses", [None])
        batch.set_column("addresses", [None, parse_address("192.0.2.9")])
        assert batch.resolved_indices() == [1]

    def test_len(self):
        batch = FlowBatch([], [], [])
        assert len(batch) == 0


class TestHashBackends:
    def test_python_backend_matches_reference(self):
        tuples = _tuples(64)
        assert PythonHashBackend().hash_tuples(tuples) == [
            flow_hash_tuple(t) for t in tuples
        ]

    def test_numpy_backend_bit_exact_v4(self):
        pytest.importorskip("numpy")
        tuples = _tuples(257)
        assert NumpyHashBackend().hash_tuples(tuples) == [
            flow_hash_tuple(t) for t in tuples
        ]

    def test_numpy_backend_bit_exact_v6(self):
        """IPv6 exercises the high-64-bit fold of the FNV chain — the part
        a careless vectorisation would drop."""
        pytest.importorskip("numpy")
        tuples = _tuples(64, v6=True)
        assert NumpyHashBackend().hash_tuples(tuples) == [
            flow_hash_tuple(t) for t in tuples
        ]

    def test_numpy_backend_bit_exact_mixed_families(self):
        """One batch, both families: a column holding any IPv6 value above
        2^64 folds high halves for every row (zero for the IPv4 rows), and
        a column whose IPv6 values all fit 64 bits (``::1``) has none."""
        tuples = _tuples(8) + _tuples(8, v6=True) + [
            FiveTuple(Protocol.UDP, parse_address("::1"), 53, parse_address("192.0.2.1"), 53),
        ]
        for batch in (tuples, tuples[-1:], tuples[::-1]):
            assert NumpyHashBackend().hash_tuples(batch) == [flow_hash_tuple(t) for t in batch]

    def test_numpy_backend_empty(self):
        pytest.importorskip("numpy")
        assert NumpyHashBackend().hash_tuples([]) == []

    def test_flow_hash_packet_and_tuple_agree(self):
        for packet in make_packets(16):
            assert flow_hash(packet) == flow_hash_tuple(packet.tuple5)
