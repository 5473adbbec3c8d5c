"""E13: §4.2 — per-query randomized answering rate.

The deployment answered ~5–6K queries/s; the reproduction's claim is that
policy-randomized answering sustains the same order of throughput as
conventional zone serving in the same harness (the randomization is not
the bottleneck), and comfortably exceeds "1000s per second" even in pure
Python through the full wire codec.

The policy path is also timed behind 16- and 256-rule tables (decoys
first, the matching rule last): Figure 3b's "match policy" step is an
index lookup, so the rate must not fall as the table grows.
``table256_vs_table1`` is the gated form of that.
"""

import statistics
import time

import pytest

from repro.analysis.reporting import TextTable
from repro.experiments.dnsqps import (
    answer_all,
    build_policy_server,
    build_zone_server,
    make_queries,
)

N_QUERIES = 4_000
N_HOSTNAMES = 5_000
TABLE_SIZES = (1, 16, 256)
TABLE_ROUNDS = 7


@pytest.fixture(scope="module")
def queries():
    return make_queries(N_QUERIES, num_hostnames=N_HOSTNAMES)


@pytest.fixture(scope="module")
def rates():
    return {}


@pytest.fixture(scope="module")
def ratios():
    return {}


def test_policy_random_answering_rate(benchmark, queries, rates):
    setup = build_policy_server(num_hostnames=N_HOSTNAMES)
    ok = benchmark(answer_all, setup, queries)
    assert ok == N_QUERIES
    rates["policy"] = N_QUERIES / benchmark.stats["mean"]


def test_policy_rate_is_flat_in_table_size(benchmark, queries, rates, ratios):
    """One round times every table size back to back, and the ratio is the
    median of the per-round ratios: between two separately benchmarked arms
    a shared host drifts by more than the effect being gated."""
    setups = [build_policy_server(num_hostnames=N_HOSTNAMES, rules=n) for n in TABLE_SIZES]
    seconds: dict[int, list[float]] = {n: [] for n in TABLE_SIZES}

    def one_round():
        for rules, setup in zip(TABLE_SIZES, setups):
            start = time.perf_counter()
            assert answer_all(setup, queries) == N_QUERIES
            seconds[rules].append(time.perf_counter() - start)

    one_round()  # warm-up: fills the index cells and the allocator
    for samples in seconds.values():
        samples.clear()
    benchmark.pedantic(one_round, rounds=TABLE_ROUNDS, iterations=1)
    for rules in TABLE_SIZES:
        rates[f"policy, table of {rules}"] = N_QUERIES / statistics.median(seconds[rules])
    ratios["table256_vs_table1"] = statistics.median(
        one / many for one, many in zip(seconds[1], seconds[256])
    )


def test_zone_static_answering_rate(benchmark, queries, rates):
    setup = build_zone_server(num_hostnames=N_HOSTNAMES)
    ok = benchmark(answer_all, setup, queries)
    assert ok == N_QUERIES
    rates["zone"] = N_QUERIES / benchmark.stats["mean"]


def test_rates_comparable_and_sufficient(benchmark, rates, ratios, save_table, save_bench):
    assert {"policy", "zone", *(f"policy, table of {n}" for n in TABLE_SIZES)} <= set(rates)
    table = TextTable(
        "§4.2 authoritative answering rate (wire-level, pure Python; "
        "deployment served 5-6K qps)",
        ["answer source", "queries/s"],
    )
    for label, rate in sorted(rates.items()):
        table.add_row(label, f"{rate:,.0f}")
    save_table("dns_qps", table.render())
    # "random per-query addresses can be generated at rates of 1000s/sec".
    assert rates["policy"] > 1_000
    # Randomization is not the bottleneck vs conventional serving.
    assert rates["policy"] > 0.5 * rates["zone"]
    save_bench(
        "dns_qps",
        policy_qps=rates["policy"],
        zone_qps=rates["zone"],
        policy_vs_zone=rates["policy"] / rates["zone"],
        **{f"table{n}_qps": rates[f"policy, table of {n}"] for n in TABLE_SIZES},
        **ratios,
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
