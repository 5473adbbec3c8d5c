#!/usr/bin/env python3
"""One benchmark, two paths: ``flow_*`` drives the simulated request path,
``wire_*`` drives real loopback sockets.

    python benchmarks/e2e/run.py                       # every workload, timed + traced
    python benchmarks/e2e/run.py --quick               # the same, seconds instead of minutes
    python benchmarks/e2e/run.py --aa 2                # the whole set twice; spreads vs bounds
    python benchmarks/e2e/run.py --workload flow_cold --seed 3 --seconds 12 --trace 0

With ``--workload`` it runs that one workload in this process and prints,
as its last line, the result object ``BENCHMARK.json`` describes: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without it, every workload runs in a subprocess of its own
(a fresh interpreter, so memory readings are per workload) and the
results land in ``benchmarks/results/e2e/``.

``BENCHMARK.json`` at the repository root is the one list of metric
names, units and bounds; this file reads it and refuses to print a
result that does not match it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = ROOT / "benchmarks" / "results" / "e2e"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402  (needs the path set above)

#: Traced runs do fixed work so their counts repeat exactly: this many flow
#: batches, and this many socket operations, per second of ``--seconds``.
TRACE_BATCHES_PER_S = 1
TRACE_OPS_PER_S = 2_500
#: Per-layer metrics that two runs with the same seed must reproduce exactly.
EXACT_SUFFIXES = (
    ".calls_per_op", ".hit_ratio", "imbalance", ".sk_lookup_stage_ratio",
    ".truncated_ratio", ".tcp_sessions_per_op",
)
#: The ledger must account for the traced wall time to within this share.
MIN_COVERAGE = 0.95


def _path_of(workload: str):
    """The module that runs ``workload`` and its spec, imported on demand so
    a wire run never pays for numpy and a flow run never forks."""
    if workload.startswith("flow_"):
        import flowpath as path
    else:
        import wirepath as path
    return path, path.SPECS[workload]


# -- one workload, in this process ----------------------------------------------------


def run_timed(workload: str, seed: int, seconds: float, quick: bool) -> tuple[dict, dict]:
    path, spec = _path_of(workload)
    raw = path.run_timed(spec, seed, seconds, setups=1 if quick else 3)
    latencies = raw["latencies_ms"]
    values = {
        "ops_per_s": raw["ops_per_s"],
        "latency_ms_p50": measure.percentile(latencies, 0.5),
        "cpu_us_per_op": raw["cpu_us_per_op"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(raw["setup_s"]),
    }
    print(f"{workload}: {raw['attempted']} operations, {raw['failed']} failed, "
          f"{len(latencies)} latency samples")
    for name, series in (*raw["segments"].items(), ("setup_s", raw["setup_s"])):
        if len(series) > 1:
            print(f"  {name}: inter-quartile range {measure.spread(series):.1%} of the "
                  f"median over {len(series)} segments")
    for name, value in raw["diagnostics"].items():
        print(f"  ({name} = {value:.6g})")
    return raw, values


def run_traced(workload: str, seed: int, seconds: float, out: Path | None
               ) -> tuple[dict, dict]:
    path, spec = _path_of(workload)
    if workload.startswith("flow_"):
        work = max(2, round(seconds * TRACE_BATCHES_PER_S))
    else:
        work = max(500, round(seconds * TRACE_OPS_PER_S))
    dump_to = None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        dump_to = out / f"trace_{workload}.json"
    raw = path.run_traced(spec, seed, work, dump_to)

    ledger = raw["ledger"]
    coverage = sum(row["share"] for row in ledger.values())
    values = {f"{layer}.{key}": row[key]
              for layer, row in ledger.items() for key in ("share", "calls_per_op")}
    values.update(raw["counts"])
    values["trace.wall_us_per_op"] = raw["wall_us_per_op"]
    values["trace.coverage"] = coverage
    if coverage < MIN_COVERAGE:
        raw["problems"].append(f"ledger covers {coverage:.1%} of the traced wall time")

    print(f"{workload}: traced {raw['ops']} operations, "
          f"{raw['wall_us_per_op']:.2f} us each at reference speed")
    print(f"  {'layer':<20}{'self us/op':>12}{'calls/op':>10}{'share':>8}")
    for layer, row in ledger.items():
        if row["calls_per_op"]:
            print(f"  {layer:<20}{row['self_us_per_op']:>12.3f}"
                  f"{row['calls_per_op']:>10.3f}{row['share']:>8.1%}")
    if out is not None:
        with open(out / f"ledger_{workload}.json", "w") as handle:
            json.dump({"workload": workload, "seed": seed, "ops": raw["ops"],
                       "wall_us_per_op": raw["wall_us_per_op"], "layers": ledger,
                       "counts": raw["counts"]}, handle, indent=2)
    return raw, values


def run_one(args: argparse.Namespace, spec: dict) -> int:
    if args.trace:
        raw, values = run_traced(args.workload, args.seed, args.seconds, args.out)
        declared = spec["per_layer"]
    else:
        raw, values = run_timed(args.workload, args.seed, args.seconds, args.quick)
        declared = spec["end_to_end"]
    # A layer the workload never enters reports 0 for its metrics.
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for problem in raw["problems"]:
        print(f"  CHECK FAILED: {problem}")
    correct = not raw["problems"]
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


# -- every workload, each in a subprocess ----------------------------------------------


def _child(workload: str, args: argparse.Namespace, traced: bool) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(traced)), "--out", str(RESULTS)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{workload} (trace={int(traced)}) exited {done.returncode}")
    return json.loads(lines[-1])


def run_set(args: argparse.Namespace, workloads: list[str]) -> dict:
    """``{workload: {"end_to_end": result, "per_layer": result}}``."""
    return {
        workload: {"end_to_end": _child(workload, args, traced=False),
                   "per_layer": _child(workload, args, traced=True)}
        for workload in workloads
    }


def run_all(args: argparse.Namespace, spec: dict) -> int:
    workloads = [w["name"] for w in spec["workloads"]]
    sets = [run_set(args, workloads) for _ in range(max(args.aa, 1))]
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / "summary.json", "w") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds, "quick": args.quick,
                   "sets": sets}, handle, indent=2)
    print(f"\nresults written to {RESULTS.relative_to(ROOT)}/")
    if args.aa < 2:
        return 0

    # A/A: the same code, the same seed, `aa` times over.
    failures = 0
    print(f"\nA/A over {args.aa} sets — spread is the inter-quartile range as a share "
          "of the median")
    print(f"{'workload':<13}{'metric':<17}{'median':>12}{'spread':>9}{'bound':>8}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            series = [s[workload]["end_to_end"]["metrics"][name]["value"] for s in sets]
            spread = measure.spread(series)
            verdict = "" if spread <= metric["bound"] else "  EXCEEDS"
            failures += bool(verdict)
            print(f"{workload:<13}{name:<17}{statistics.median(series):>12.5g}"
                  f"{spread:>9.1%}{metric['bound']:>8.0%}{verdict}")
        layers = [s[workload]["per_layer"]["metrics"] for s in sets]
        for name in layers[0]:
            if name.endswith(EXACT_SUFFIXES) and len({m[name]["value"] for m in layers}) > 1:
                failures += 1
                print(f"{workload:<13}{name}: count differs between sets  DIFFERS")
    return 1 if failures else 0


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run and the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke size: one short segment, one set-up")
    parser.add_argument("--aa", type=int, default=0, metavar="K",
                        help="run the whole set K times and compare the sets")
    parser.add_argument("--out", type=Path,
                        help="with --workload --trace 1: write ledger and spans here")
    args = parser.parse_args()
    if args.quick:
        args.seconds = 0.0  # every run falls back to its minimum amount of work
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
