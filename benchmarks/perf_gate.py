#!/usr/bin/env python3
"""Perf-regression gate: fresh ``BENCH_*.json`` vs committed baselines.

CI machines differ wildly in raw speed, so gating on absolute
packets-per-second would flap on every runner change.  Dimensionless
*ratios* measured within one run don't have that problem — both sides of
the ratio ran on the same machine seconds apart — so the gate reads only
those:

``sklookup_perf``
    ``speedup``        — compiled / interpreter dispatch throughput,
                         64-rule program (the tentpole claim; hard floor 3×)
    ``batch_speedup``  — batched-compiled / interpreter throughput

``dns_qps``
    ``policy_vs_zone`` — randomized answering / static zone serving
    ``table256_vs_table1`` — the same policy path behind a 256-rule table /
                         behind one rule (first match is an index lookup,
                         so the rate must be flat in table size)

``flow_connect`` / ``flow_serve`` / ``flow_end_to_end``
    ``batch_speedup``  — columnar flow-engine stage throughput over the
                         loop-of-scalars reference (``bench_flow_engine``;
                         resolve, hash and dispatch have no ratio — one
                         path, or a second kept only as the test
                         reference; a batch seam that stays must earn its
                         keep, so the floors are the bar of ROADMAP.md's
                         "Quality of design" pillar, not "never slower
                         than scalar")

``readdressing``
    ``drill_vs_soak``  — fetch throughput with a staged-shrink campaign
                         running / the same world under plain chaos
                         (``bench_readdressing``; the engine's per-tick
                         bookkeeping must stay nearly free)

A metric fails the gate when it drops more than its tolerance (default
``--tolerance``, 20 %; noisy metrics carry a wider per-metric override in
``GATED``) below its committed baseline in ``benchmarks/baselines/``, or
below its absolute floor.  Refresh a baseline deliberately by re-running the
bench and copying the fresh snapshot over the committed one::

    PYTHONPATH=src python -m pytest benchmarks/bench_sklookup_perf.py -q
    cp benchmarks/results/BENCH_sklookup_perf.json benchmarks/baselines/

Exit status: 0 = all gates pass, 1 = regression or missing snapshot.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).parent

#: bench -> {ratio metric -> gate spec}.  ``floor`` is the absolute
#: minimum regardless of baseline; ``tolerance`` (optional) overrides the
#: CLI drop allowance for metrics whose run-to-run variance exceeds it
#: (policy_vs_zone swings ±15 % between runs of the short DNS bench, so a
#: 20 % band around a ~1.0 baseline would flap — the 0.5 floor is the
#: actual claim being defended).
GATED: dict[str, dict[str, dict[str, float]]] = {
    "sklookup_perf": {"speedup": {"floor": 3.0}, "batch_speedup": {"floor": 3.0}},
    # table256_vs_table1: 1.0 when first match is flat in table size (0.97-1.05
    # over five runs; the arms are interleaved round by round, so host drift
    # mostly cancels); the ordered walk it replaced read 0.19.
    "dns_qps": {"policy_vs_zone": {"floor": 0.5, "tolerance": 0.45},
                "table256_vs_table1": {"floor": 0.7, "tolerance": 0.30}},
    # Flow-engine stage ratios (batched / scalar, measured back to back on
    # one machine).  connect and serve batch what the scalar seams cannot —
    # the ECMP picks and the cache home nodes as one rendezvous matrix per
    # batch, one SYN packet and one response per flow — and are held to
    # "every batch seam that survives earns >= 1.5x" (connect, whose
    # per-flow handshake the column does not touch, to 1.3x).
    "flow_connect": {"batch_speedup": {"floor": 1.3, "tolerance": 0.25}},
    "flow_serve": {"batch_speedup": {"floor": 1.5, "tolerance": 0.25}},
    "flow_end_to_end": {"batch_speedup": {"floor": 1.5, "tolerance": 0.25}},
    # Real-socket pool (bench_serve_qps): multi-worker / single-worker UDP
    # throughput.  On multi-core runners SO_REUSEPORT spreads load and the
    # ratio exceeds 1; on a single-core container the arms tie (measured
    # 0.95-1.17 run to run).  The floor defends against pool *collapse* —
    # a drain bug serializing workers or a dead worker timing out its
    # share — not against missing parallelism the hardware can't give.
    "serve_qps": {"multi_vs_single": {"floor": 0.6, "tolerance": 0.45}},
    # Re-addressing drill (bench_readdressing): fetch throughput while a
    # staged shrink campaign runs / the same world running plain chaos.
    # Both arms are one-round wall-clock samples, so the ratio is noisy
    # (measured 0.9-1.4 run to run); the 0.5 floor defends the claim that
    # matters — the campaign engine's per-tick bookkeeping must never
    # come close to doubling the cost of serving.
    "readdressing": {"drill_vs_soak": {"floor": 0.5, "tolerance": 0.50}},
}
DEFAULT_TOLERANCE = 0.20


def load_results(path: pathlib.Path) -> dict[str, float]:
    payload = json.loads(path.read_text())
    results = payload.get("results")
    if not isinstance(results, dict):
        raise ValueError(f"{path}: no 'results' section")
    return results


def run_gate(results_dir: pathlib.Path, baselines_dir: pathlib.Path,
             tolerance: float, only: list[str] | None = None) -> list[str]:
    """Returns a list of failure descriptions (empty = gate passes)."""
    failures: list[str] = []
    gated = GATED
    if only:
        unknown = sorted(set(only) - set(GATED))
        if unknown:
            return [f"--only: unknown bench(es) {unknown}; "
                    f"gated benches: {sorted(GATED)}"]
        gated = {bench: GATED[bench] for bench in only}
    width = max(len(f"{b}.{m}") for b, ms in gated.items() for m in ms)
    print(f"perf gate: tolerance {tolerance:.0%} below baseline")
    for bench, metrics in sorted(gated.items()):
        fresh_path = results_dir / f"BENCH_{bench}.json"
        base_path = baselines_dir / f"BENCH_{bench}.json"
        if not fresh_path.exists():
            failures.append(f"{bench}: fresh snapshot missing ({fresh_path}) "
                            "— did the bench run?")
            continue
        if not base_path.exists():
            failures.append(f"{bench}: no committed baseline ({base_path})")
            continue
        fresh = load_results(fresh_path)
        base = load_results(base_path)
        for metric, spec in metrics.items():
            name = f"{bench}.{metric}"
            if metric not in fresh or metric not in base:
                failures.append(f"{name}: metric missing from snapshot")
                continue
            floor = spec.get("floor")
            allowed_drop = spec.get("tolerance", tolerance)
            current, reference = fresh[metric], base[metric]
            minimum = reference * (1.0 - allowed_drop)
            if floor is not None:
                minimum = max(minimum, floor)
            ok = current >= minimum
            print(f"  {name:<{width}}  current {current:8.2f}  "
                  f"baseline {reference:8.2f}  min {minimum:8.2f}  "
                  f"{'ok' if ok else 'REGRESSED'}")
            if not ok:
                failures.append(
                    f"{name}: {current:.2f} < {minimum:.2f} "
                    f"(baseline {reference:.2f}, tolerance {allowed_drop:.0%}"
                    + (f", floor {floor:.2f})" if floor is not None else ")")
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=pathlib.Path,
                        default=BENCH_DIR / "results",
                        help="directory with fresh BENCH_*.json (default: results/)")
    parser.add_argument("--baselines", type=pathlib.Path,
                        default=BENCH_DIR / "baselines",
                        help="directory with committed baselines (default: baselines/)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional drop below baseline (default: 0.20)")
    parser.add_argument("--only", action="append", default=None, metavar="BENCH",
                        help="gate only the named bench(es); jobs that run a "
                             "subset of the suite skip the other snapshots")
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    failures = run_gate(args.results, args.baselines, args.tolerance, only=args.only)
    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
