"""Lock-free shared counters between serve workers and their parent.

Worker processes are forked, so ordinary Python counters in the child are
invisible to the parent that exports metrics.  The classic fix (gunicorn's
statsd hooks, NSD's per-child stats blocks) is a shared-memory region with
one row per worker: each worker writes only its own row (single writer —
no lock needed), the parent sums rows at read time.

The row layout is ``COUNTER_FIELDS`` followed by a fixed-bucket latency
histogram in microseconds (bucket counts, then sum and count).  Fixed
buckets keep the export mergeable across workers and deterministic in
shape, matching :class:`~repro.obs.metrics.Histogram`.
"""

from __future__ import annotations

import multiprocessing

__all__ = [
    "COUNTER_FIELDS",
    "LATENCY_BUCKETS_US",
    "ServeCounters",
    "WorkerCounters",
]

COUNTER_FIELDS = (
    "queries",        # datagrams received + framed stream messages answered
    "responses",      # responses actually written back
    "truncated",      # UDP responses that went out TC-flagged
    "malformed",      # inputs dropped (undecodable datagram / bad frame)
    "tcp_sessions",   # stream sessions accepted
    "drained",        # set to 1 when the worker finished a graceful drain
)

#: Latency bucket upper bounds in microseconds (+Inf bucket is implicit).
LATENCY_BUCKETS_US = (50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000)

_N_FIELDS = len(COUNTER_FIELDS)
_SLOT = {name: slot for slot, name in enumerate(COUNTER_FIELDS)}
_N_BUCKETS = len(LATENCY_BUCKETS_US) + 1  # +Inf
#: int64 slots per worker row: counters, buckets, latency sum, latency count.
ROW_SLOTS = _N_FIELDS + _N_BUCKETS + 2


class WorkerCounters:
    """One worker's window onto its own row.  Single writer by contract."""

    __slots__ = ("_array", "_base")

    def __init__(self, array, base: int) -> None:
        self._array = array
        self._base = base

    def inc(self, field: str, amount: int = 1) -> None:
        self._array[self._base + _SLOT[field]] += amount

    def observe_us(self, micros: int) -> None:
        """Record one request latency, in whole microseconds."""
        slot = _N_BUCKETS - 1
        for i, bound in enumerate(LATENCY_BUCKETS_US):
            if micros <= bound:
                slot = i
                break
        base = self._base + _N_FIELDS
        self._array[base + slot] += 1
        self._array[base + _N_BUCKETS] += micros
        self._array[base + _N_BUCKETS + 1] += 1


class ServeCounters:
    """The shared block: parent-side aggregation over per-worker rows."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("need at least one worker row")
        self.workers = workers
        # lock=False: every slot has exactly one writer (its worker); the
        # parent only reads, and int64 reads are atomic on every platform
        # CPython runs multiprocessing on.
        self._array = multiprocessing.Array("q", workers * ROW_SLOTS, lock=False)

    def row(self, index: int) -> WorkerCounters:
        if not 0 <= index < self.workers:
            raise IndexError(f"worker index {index} out of range")
        return WorkerCounters(self._array, index * ROW_SLOTS)

    def worker_snapshot(self, index: int) -> dict[str, int]:
        """One worker's row as a flat metric dict."""
        base = index * ROW_SLOTS
        out: dict[str, int] = {}
        for i, name in enumerate(COUNTER_FIELDS):
            out[name] = int(self._array[base + i])
        hbase = base + _N_FIELDS
        for i, bound in enumerate(LATENCY_BUCKETS_US):
            out[f"latency_bucket_le_{bound}us"] = int(self._array[hbase + i])
        out["latency_bucket_le_inf"] = int(self._array[hbase + _N_BUCKETS - 1])
        out["latency_sum_us"] = int(self._array[hbase + _N_BUCKETS])
        out["latency_count"] = int(self._array[hbase + _N_BUCKETS + 1])
        return out

    def snapshot(self) -> dict[str, int]:
        """All rows summed — the pool-wide totals."""
        total: dict[str, int] = {}
        for index in range(self.workers):
            for name, value in self.worker_snapshot(index).items():
                total[name] = total.get(name, 0) + value
        return total
