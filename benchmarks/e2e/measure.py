"""Measurement helpers shared by both paths: host-speed calibration, order
statistics, process CPU and memory readings."""

from __future__ import annotations

import os
import resource
import statistics
from time import perf_counter_ns

__all__ = [
    "CPUS",
    "calibrate",
    "Host",
    "percentile",
    "spread",
    "cpu_ns",
    "rss_bytes",
    "peak_rss_mb",
    "max_over_mean",
    "tail_ratios",
    "repeated_answers",
]

_PAGE = os.sysconf("SC_PAGE_SIZE")
_TICK_NS = 1_000_000_000 // os.sysconf("SC_CLK_TCK")

#: The CPUs this process may run on.
CPUS = sorted(os.sched_getaffinity(0))

#: What the calibration loop takes on the reference host, in ns.  Times are
#: reported as if every host ran the loop in exactly this long.
_CAL_NOMINAL_NS = 1_600_000
_CAL_ROUNDS = 4
#: How much faster another CPU must probe before the measured code moves.
_MOVE_MARGIN = 1.1


def _calibration_loop() -> int:
    """Fixed interpreter-bound work in the style of the code under test:
    dict and tuple traffic, integer arithmetic, a method call per step."""
    table: dict[int, tuple[int, int]] = {}
    get = table.get
    acc = 0
    t0 = perf_counter_ns()
    for i in range(12_000):
        key = (i * 7) & 1023
        table[i & 1023] = (i, acc)
        acc += get(key, (1, 0))[0]
    return perf_counter_ns() - t0


def calibrate(cpu: int) -> float:
    """How fast ``cpu`` runs right now, relative to the reference host;
    leaves this process pinned to ``cpu``.  The mean of the rounds, not the
    fastest: the measured code cannot dodge short interruptions either, and
    over a four-minute run the mean tracked its slow phases better."""
    os.sched_setaffinity(0, {cpu})
    return _CAL_NOMINAL_NS * _CAL_ROUNDS / sum(_calibration_loop() for _ in range(_CAL_ROUNDS))


class Host:
    """Where and how fast the measured code runs, stretch by stretch.

    On a shared host a virtual CPU's speed moves by tens of percent for
    seconds at a time (a busy hyperthread sibling), each CPU on its own
    schedule — which no amount of repetition averages out of a ten-second
    run.  So every stretch of measured work (a few tenths of a second)
    starts with a calibration probe on each CPU, runs pinned to the one
    that is fastest right now, and ends with a second probe there.  Times
    measured in the stretch are multiplied by the mean of its two probes
    (rates divided), so what is reported is the time on the reference
    host, and a slow phase of this one does not read as a slow program.

    The hypervisor can also take the CPU away altogether; the kernel
    reports that as steal time, and :attr:`stolen_share` is the part of
    the last stretch it covered, for wall-clock rates to leave out."""

    def __init__(self) -> None:
        self.cpu = CPUS[0]
        self.stolen_share = 0.0
        self._before = 1.0
        self._opened = (0, 0)

    def _clocks(self) -> tuple[int, int]:
        """``(wall ns, ns stolen from this stretch's CPU)``, both since boot."""
        with open("/proc/stat") as stat:
            for line in stat:
                if line.startswith(f"cpu{self.cpu} "):
                    return perf_counter_ns(), int(line.split()[8]) * _TICK_NS
        raise RuntimeError(f"/proc/stat has no line for cpu{self.cpu}")

    def begin(self, *also_pin: int) -> None:
        """Open a stretch: move this process, and the processes ``also_pin``
        names, to the CPU that is fastest at this moment — staying put
        unless another is clearly faster, since a move costs warm caches."""
        self._before = calibrate(self.cpu)
        for cpu in CPUS:
            speed = calibrate(cpu) if cpu != self.cpu else 0.0
            if speed > self._before * _MOVE_MARGIN:
                self._before, self.cpu = speed, cpu
        for pid in (0, *also_pin):
            os.sched_setaffinity(pid, {self.cpu})
        self._opened = self._clocks()

    def end(self) -> float:
        """Close the stretch; returns the host's speed over it."""
        wall, stolen = (now - then for now, then in zip(self._clocks(), self._opened))
        self.stolen_share = min(stolen / wall, 0.9)
        return (self._before + calibrate(self.cpu)) / 2


def percentile(values, q: float) -> float:
    """The ``q`` quantile (0..1) with linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def spread(values) -> float:
    """Inter-quartile range as a share of the median — the statistic the
    acceptance check applies to repeated runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cpu_ns(pid: int | str = "self") -> int:
    """CPU time (user + system) a process has consumed, in ns.

    ``/proc/<pid>/schedstat`` has ns resolution and works for a process
    that is not ours to ``getrusage`` — the forked serve worker."""
    with open(f"/proc/{pid}/schedstat") as stat:
        return int(stat.read().split()[0])


def rss_bytes() -> int:
    """This process's current resident set."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * _PAGE


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """High-water resident set of this process, or with ``RUSAGE_CHILDREN``
    of its largest waited-for child."""
    return resource.getrusage(who).ru_maxrss / 1024


def max_over_mean(counts) -> float:
    """Load imbalance across members: 1.0 is perfectly even."""
    counts = list(counts)
    return max(counts) * len(counts) / sum(counts)


def tail_ratios(latencies, quantiles=(0.9, 0.99)) -> dict[str, float]:
    """Tail percentiles as multiples of the median, under their metric names
    (``loadgen.latency_p90_vs_p50`` …): diagnostics, because on a shared
    host the tail measures the scheduler and, on the flow path, which
    batches the collector's pauses fell on."""
    ordered = sorted(latencies)  # once; sorting it again is linear
    p50 = percentile(ordered, 0.5)
    return {
        f"loadgen.latency_p{f'{q * 100:g}'.replace('.', '')}_vs_p50": percentile(ordered, q) / p50
        for q in quantiles
    }


def repeated_answers(minted) -> list[str]:
    """Problems with the randomisation of a sequence of minted addresses.

    Every 10,000 consecutive answers must show at least 200 distinct
    addresses of the /24: uniform draws show all 256, a cached or encoded-
    once answer shows one — and would win a benchmark that did not look."""
    problems = []
    for lo in range(0, len(minted) - 9_999, 10_000):
        distinct = len(set(minted[lo:lo + 10_000]))
        if distinct < 200:
            problems.append(f"only {distinct} distinct addresses in 10,000 minted answers")
    return problems
