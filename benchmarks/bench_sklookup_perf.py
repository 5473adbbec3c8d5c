"""E5: §3.3 — sk_lookup dispatch cost relative to the classic lookup path.

The kernel evaluation reported ~1M TCP SYN/s and ~2.5M UDP pkt/s baseline
with a 1–5 % penalty when an sk_lookup program runs.  Our Python model's
absolute rates are ~3 orders lower; the claims checked are relative:

* attaching a program that must RUN on every packet (and falls through)
  costs only a modest fraction of baseline dispatch;
* steering a whole /20 via sk_lookup is not slower than the classic path
  by more than a small factor — i.e. program execution is O(rules), not
  O(pool);
* UDP dispatch ≥ TCP dispatch in pps (no connected-table probe… both do
  the probe here, so we assert they are within noise instead — and report
  both, as the kernel numbers do);
* per-rule cost does not show: the compiled index
  (:mod:`repro.sockets.compiled`, the only executor) dispatches a 64-rule
  program as fast as a 1-rule one, and batching through
  :meth:`LookupPath.dispatch_batch` never loses to per-packet dispatch.

``rules64_vs_rules1`` — 64-rule ÷ 1-rule dispatch rate, the median of
per-round ratios with the two arms timed back to back in each round — is
persisted with the rates to ``BENCH_sklookup_perf.json``, the snapshot the
CI ``bench-smoke`` job gates against ``benchmarks/baselines/`` (see
``benchmarks/perf_gate.py``).
"""

import statistics
import time

import pytest

from repro.analysis.reporting import TextTable
from repro.experiments.sklookup_perf import (
    DEFAULT_POOL,
    build_baseline_listener,
    build_sk_lookup,
    dispatch_all,
    dispatch_all_batched,
    make_packets,
)
from repro.netsim.packet import Protocol
from repro.obs import MetricsRegistry, time_lookup_path, watch_lookup_path

N_PACKETS = 30_000
ENGINE_RULES = 64  # the acceptance configuration: 63 fillers + 1 hit
RULE_ROUNDS = 7


@pytest.fixture(scope="module")
def rates():
    return {}


@pytest.fixture(scope="module")
def ratios():
    return {}


@pytest.fixture(scope="module")
def obs():
    """Module-lived metrics registry for the batched-dispatch run."""
    return MetricsRegistry()


def _bench_dispatch(benchmark, setup, packets, label, rates, runner=dispatch_all):
    delivered = benchmark(runner, setup, packets)
    assert delivered == len(packets)
    rates[label] = len(packets) / benchmark.stats["mean"]


def test_baseline_tcp_dispatch(benchmark, rates):
    setup = build_baseline_listener(protocol=Protocol.TCP)
    packets = make_packets(N_PACKETS, to_internal=True, protocol=Protocol.TCP)
    _bench_dispatch(benchmark, setup, packets, "baseline-tcp", rates)


def test_baseline_udp_dispatch(benchmark, rates):
    setup = build_baseline_listener(protocol=Protocol.UDP)
    packets = make_packets(N_PACKETS, to_internal=True, protocol=Protocol.UDP)
    _bench_dispatch(benchmark, setup, packets, "baseline-udp", rates)


def test_sklookup_tcp_dispatch(benchmark, rates):
    setup = build_sk_lookup(protocol=Protocol.TCP)
    packets = make_packets(N_PACKETS, pool=DEFAULT_POOL, protocol=Protocol.TCP)
    _bench_dispatch(benchmark, setup, packets, "sklookup-tcp", rates)


def test_sklookup_udp_dispatch(benchmark, rates):
    setup = build_sk_lookup(protocol=Protocol.UDP)
    packets = make_packets(N_PACKETS, pool=DEFAULT_POOL, protocol=Protocol.UDP)
    _bench_dispatch(benchmark, setup, packets, "sklookup-udp", rates)


def test_program_overhead_on_miss_path(benchmark, rates):
    """A program with 8 non-matching rules ahead of the hit: the pure
    'program ran' overhead the kernel's 1–5 % figure describes."""
    setup = build_sk_lookup(protocol=Protocol.TCP, extra_rules=8)
    packets = make_packets(N_PACKETS, pool=DEFAULT_POOL, protocol=Protocol.TCP)
    _bench_dispatch(benchmark, setup, packets, "sklookup-tcp-8rules", rates)


def test_compiled_64rule_dispatch(benchmark, rates):
    """The acceptance configuration: 63 non-matching filler rules ahead of
    the pool rule, which protocol bucket + port segment + mask-grouped LPM
    probes skip without scanning."""
    setup = build_sk_lookup(protocol=Protocol.TCP, extra_rules=ENGINE_RULES - 1)
    packets = make_packets(N_PACKETS, pool=DEFAULT_POOL, protocol=Protocol.TCP)
    _bench_dispatch(benchmark, setup, packets, "64rules-compiled", rates)


def test_dispatch_rate_is_flat_in_rule_count(benchmark, ratios):
    """One round times the 1-rule and the 64-rule program back to back, and
    the ratio is the median of the per-round ratios: between two separately
    benchmarked arms a shared host drifts by more than the effect gated."""
    setups = {rules: build_sk_lookup(protocol=Protocol.TCP, extra_rules=rules - 1)
              for rules in (1, ENGINE_RULES)}
    packets = make_packets(N_PACKETS, pool=DEFAULT_POOL, protocol=Protocol.TCP)
    seconds: dict[int, list[float]] = {rules: [] for rules in setups}

    def one_round():
        for rules, setup in setups.items():
            start = time.perf_counter()
            assert dispatch_all(setup, packets) == N_PACKETS
            seconds[rules].append(time.perf_counter() - start)

    one_round()  # warm-up: compiles both programs, fills the allocator
    for samples in seconds.values():
        samples.clear()
    benchmark.pedantic(one_round, rounds=RULE_ROUNDS, iterations=1)
    ratios["rules64_vs_rules1"] = statistics.median(
        one / many for one, many in zip(seconds[1], seconds[ENGINE_RULES])
    )


def test_compiled_batch_dispatch(benchmark, rates, obs):
    """The 64-rule program through dispatch_batch, with the repro.obs hookup
    live (stage counters + dispatch-latency histogram) to show the
    instrumented batch path still clears the bar."""
    setup = build_sk_lookup(protocol=Protocol.TCP, extra_rules=ENGINE_RULES - 1)
    watch_lookup_path(obs, "dispatch", setup.path)
    time_lookup_path(obs, "dispatch_latency_seconds", setup.path, time.perf_counter)
    packets = make_packets(N_PACKETS, pool=DEFAULT_POOL, protocol=Protocol.TCP)
    _bench_dispatch(benchmark, setup, packets, "64rules-compiled-batch", rates,
                    runner=dispatch_all_batched)


def test_relative_penalty_report(benchmark, rates, ratios, save_table, save_bench, obs):
    assert {"baseline-tcp", "sklookup-tcp", "sklookup-udp",
            "64rules-compiled", "64rules-compiled-batch"} <= set(rates)
    assert "rules64_vs_rules1" in ratios
    table = TextTable(
        "§3.3 dispatch throughput (simulated stack; kernel reported "
        "~1M TCP / ~2.5M UDP pps with 1-5% sk_lookup penalty)",
        ["configuration", "pkts/s", "vs TCP baseline"],
    )
    base = rates["baseline-tcp"]
    for label, rate in sorted(rates.items()):
        table.add_row(label, f"{rate:,.0f}", f"{rate / base:6.2%}")
    save_table("sklookup_dispatch", table.render())

    # The claim: running the program costs a few percent, not a multiple.
    assert rates["sklookup-tcp"] > 0.5 * base
    assert rates["sklookup-tcp-8rules"] > 0.4 * base

    # Batching never loses to per-packet dispatch.  How flat the rate is
    # in rule count is gated by perf_gate.py (rules64_vs_rules1).
    assert rates["64rules-compiled-batch"] >= 0.9 * rates["64rules-compiled"]

    save_bench(
        "sklookup_perf",
        metrics=obs,
        compiled_pps=rates["64rules-compiled"],
        compiled_batch_pps=rates["64rules-compiled-batch"],
        baseline_tcp_pps=base,
        rules=ENGINE_RULES,
        **ratios,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
