"""Real sockets: bind parsing, shared counters, pool lifecycle, repoint.

These tests fork worker processes and exchange datagrams over loopback —
they are the tier-1 proof that ``repro.serve`` actually serves.  Kept
small (one or two workers, a handful of queries) so the suite stays fast.
"""

import socket

import pytest

from repro.dns.records import RRType
from repro.dns.wire import Message, Rcode
from repro.obs import MetricsRegistry, watch_serve
from repro.serve import LoopbackClient, ServeCounters, build_pool, parse_bind
from repro.serve.app import AGILE_HOSTNAME, BIG_HOSTNAME, BIG_TXT_RECORDS, wide_scope_query
from repro.serve.counters import LATENCY_BUCKETS_US


class TestParseBind:
    def test_host_and_port(self):
        assert parse_bind("127.0.0.1:5300") == ("127.0.0.1", 5300)

    def test_bare_port_defaults_to_loopback(self):
        assert parse_bind(":5300") == ("127.0.0.1", 5300)

    def test_port_zero_allowed(self):
        assert parse_bind("127.0.0.1:0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize("spec", ["nocolon", "host:notaport", "host:70000"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_bind(spec)


class TestServeCounters:
    def test_rows_are_independent_and_sum(self):
        counters = ServeCounters(workers=3)
        counters.row(0).inc("queries", 5)
        counters.row(2).inc("queries", 2)
        counters.row(2).inc("truncated")
        assert counters.worker_snapshot(0)["queries"] == 5
        assert counters.worker_snapshot(1)["queries"] == 0
        total = counters.snapshot()
        assert total["queries"] == 7
        assert total["truncated"] == 1

    def test_latency_buckets(self):
        counters = ServeCounters(workers=1)
        row = counters.row(0)
        row.observe_us(40)       # <= 50
        row.observe_us(50)       # <= 50 (inclusive bound)
        row.observe_us(51)       # <= 100
        row.observe_us(10**6)    # +Inf
        snap = counters.worker_snapshot(0)
        assert snap["latency_bucket_le_50us"] == 2
        assert snap["latency_bucket_le_100us"] == 1
        assert snap["latency_bucket_le_inf"] == 1
        assert snap["latency_count"] == 4
        assert snap["latency_sum_us"] == 40 + 50 + 51 + 10**6

    def test_bucket_bounds_are_sorted(self):
        assert list(LATENCY_BUCKETS_US) == sorted(LATENCY_BUCKETS_US)

    def test_index_checked(self):
        with pytest.raises(IndexError):
            ServeCounters(workers=1).row(1)


@pytest.fixture(scope="module")
def pool():
    with build_pool(workers=2, drain_s=2.0) as running:
        yield running


@pytest.fixture
def client(pool):
    return LoopbackClient(pool.address, timeout_s=5.0, retries=3)


class TestPoolServing:
    def test_policy_answer_over_udp(self, pool, client):
        outcome = client.query(AGILE_HOSTNAME)
        assert outcome.transport == "udp"
        assert outcome.message.flags.rcode == Rcode.NOERROR
        (answer,) = outcome.message.answers
        assert answer.rrtype == RRType.A
        assert str(answer.rdata.address).startswith("192.0.2.")

    def test_truncated_answer_completes_over_tcp(self, pool, client):
        outcome = client.query(BIG_HOSTNAME, RRType.TXT)
        assert outcome.truncated_first   # the UDP leg came back TC'd
        assert outcome.transport == "tcp"
        assert len(outcome.message.answers) == BIG_TXT_RECORDS
        assert client.stats.tcp_fallbacks >= 1

    def test_direct_tcp_query(self, pool, client):
        outcome = client.query_tcp(BIG_HOSTNAME, RRType.TXT)
        assert len(outcome.message.answers) == BIG_TXT_RECORDS

    def test_nxdomain_over_the_wire(self, pool, client):
        outcome = client.query("missing.example.com")
        assert outcome.message.flags.rcode == Rcode.NXDOMAIN

    def test_counters_track_served_queries(self, pool, client):
        import time

        before = pool.snapshot()["responses"]
        for _ in range(5):
            client.query(AGILE_HOSTNAME)
        # The worker increments its row just after sendto(); give the last
        # increment a moment to land before reading the shared block.
        deadline = time.monotonic() + 2.0  # repro: allow-wall-clock real-socket counter settling
        while time.monotonic() < deadline:  # repro: allow-wall-clock real-socket counter settling
            after = pool.snapshot()
            if after["responses"] >= before + 5:
                break
            time.sleep(0.01)  # repro: allow-wall-clock real-socket counter settling
        assert after["responses"] >= before + 5
        assert after["malformed"] == 0
        assert after["latency_count"] >= 5

    def test_load_is_visible_per_worker(self, pool, client):
        for _ in range(5):
            client.query(AGILE_HOSTNAME)
        rows = pool.worker_snapshots()
        assert len(rows) == 2
        # The module pool has served every query in this class so far; the
        # per-worker rows carry all of them (whichever worker the kernel
        # picked each time).
        assert sum(row["queries"] for row in rows) >= 5

    def test_watch_serve_exports_pool_metrics(self, pool, client):
        registry = MetricsRegistry()
        watch_serve(registry, "serve", pool)
        client.query(AGILE_HOSTNAME)
        collected = registry.collected()
        assert collected["serve.queries"] >= 1
        assert collected["serve.malformed"] == 0
        # Per-worker rows are exported under w<i>.
        assert "serve.w0.queries" in collected
        assert "serve.w1.queries" in collected


class TestStreamCounting:
    def test_pipelined_tcp_queries_count_per_message(self):
        # Two framed queries in one segment on one live connection: the
        # worker reads them as one chunk and used to count one query.  A
        # pool of its own, so no earlier test's last increment is in flight.
        wires = [Message.query(qid, AGILE_HOSTNAME, RRType.A).encode() for qid in (21, 22)]
        with build_pool(workers=1, drain_s=2.0) as pool:
            with socket.create_connection(pool.address, timeout=5.0) as conn:
                conn.sendall(b"".join(len(wire).to_bytes(2, "big") + wire for wire in wires))
                stream = conn.makefile("rb")
                answers = [
                    Message.decode(stream.read(int.from_bytes(stream.read(2), "big")))
                    for _ in wires
                ]
                assert [answer.id for answer in answers] == [21, 22]
        # Stopped: the worker has drained, so its row is final.
        snap = pool.snapshot()
        assert (snap["queries"], snap["responses"], snap["tcp_sessions"]) == (2, 2, 1)


class TestHostileDatagram:
    def test_worker_answers_formerr_and_keeps_serving(self):
        # An ECS scope wider than IPv4 used to raise out of the worker's
        # loop and end the process.  One worker, so the plain query after
        # it reaches the same process.
        with build_pool(workers=1, drain_s=2.0) as pool:
            client = LoopbackClient(pool.address, timeout_s=2.0, retries=0)
            hostile = client.query_udp_wire(wide_scope_query(0x0EC5), 0x0EC5)
            assert hostile.flags.rcode == Rcode.FORMERR
            assert client.query(AGILE_HOSTNAME).message.flags.rcode == Rcode.NOERROR
            assert pool.alive() == 1
        snap = pool.snapshot()
        assert client.stats.timeouts == 0
        assert (snap["queries"], snap["responses"], snap["malformed"], snap["drained"]) == (
            2, 2, 0, 1)


class TestRepointAndDrain:
    def test_repoint_swaps_generations_without_dropping_service(self):
        with build_pool(workers=2, drain_s=2.0) as pool:
            client = LoopbackClient(pool.address, timeout_s=5.0, retries=3)
            client.query(AGILE_HOSTNAME)
            first_gen = pool.snapshot()["queries"]
            generation = pool.repoint()
            assert generation >= 1
            assert pool.alive() == 2
            # The same address answers after the swap; no timeout needed.
            outcome = client.query(AGILE_HOSTNAME)
            assert outcome.message.flags.rcode == Rcode.NOERROR
            assert client.stats.timeouts == 0
            snap = pool.snapshot()
            # Totals fold the retired generation in rather than resetting.
            assert snap["queries"] > first_gen >= 1
            assert snap["drained"] == 2  # the old generation drained cleanly

    def test_stop_right_after_start_still_drains(self):
        # SIGTERM used to be able to land between fork and the worker
        # installing its drain handler, killing the worker undrained
        # (about one start/stop in three on a two-CPU host).
        for _ in range(6):
            pool = build_pool(workers=2, drain_s=2.0).start()
            pool.stop()
            assert pool.snapshot()["drained"] == 2

    def test_stop_drains_every_worker_and_keeps_totals(self):
        pool = build_pool(workers=2, drain_s=2.0).start()
        client = LoopbackClient(pool.address, timeout_s=5.0, retries=3)
        client.query(AGILE_HOSTNAME)
        pool.stop()
        assert pool.alive() == 0
        snap = pool.snapshot()
        assert snap["drained"] == 2
        assert snap["queries"] >= 1
