"""Command-line front end: regenerate any paper artefact from a shell.

::

    python -m repro list
    python -m repro fig7 --sites 8000 --requests 120000
    python -m repro fig8 --sessions 200
    python -m repro fig9 --ttl 30
    python -m repro dos --n 1000 --k 8
    python -m repro reduction
    python -m repro ttl
    python -m repro spillover
    python -m repro coloring
    python -m repro dnsload
    python -m repro failover --ttl 20
    python -m repro chaos --seed 7 --campaigns 20
    python -m repro chaos --campaign tests/fixtures/chaos_bad_campaign.json
    python -m repro chaos --minimize tests/fixtures/chaos_bad_campaign.json
    python -m repro bgp --seed 7 [--json]
    python -m repro scaling
    python -m repro check [config.json] [--strict] [--only NAME]
    python -m repro plan plan.json
    python -m repro metrics [--experiment ttl|failover] [--format json|prom]
    python -m repro metrics --diff before.json after.json

Each subcommand prints the same table its benchmark saves under
``benchmarks/results/``.  For timing data use the benchmarks.  ``check``
is different: it runs the :mod:`repro.check` static-analysis passes and
exits non-zero when they find errors.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

__all__ = ["main", "build_parser"]


class _CommandFailed(Exception):
    """A handler produced output but the command must exit non-zero."""

    def __init__(self, output: str, code: int) -> None:
        super().__init__(output)
        self.output = output
        self.code = code


def _cmd_fig7(args) -> str:
    from .experiments.fig7 import Fig7Config, render_fig7_table, run_fig7

    config = Fig7Config(num_sites=args.sites, requests=args.requests, zipf_s=args.zipf)
    return render_fig7_table(run_fig7(config))


def _cmd_fig8(args) -> str:
    from .experiments.fig8 import Fig8Config, render_fig8_table, run_fig8

    config = Fig8Config(sessions=args.sessions, num_sites=args.sites)
    return render_fig8_table(run_fig8(config))


def _cmd_fig9(args) -> str:
    from .experiments.fig9 import Fig9Config, render_fig9_table, run_fig9

    return render_fig9_table(run_fig9(Fig9Config(ttl=args.ttl)))


def _cmd_dos(args) -> str:
    from .experiments.dos import render_dos_table, run_dos_case

    run = run_dos_case(n_services=args.n, k=args.k, probe_ttl=args.probe_ttl,
                       initial_ttl=args.initial_ttl, attack=args.attack)
    return render_dos_table([run])


def _cmd_reduction(args) -> str:
    from .experiments.reduction import render_reduction_table, run_reduction_table

    return render_reduction_table(run_reduction_table(args.hostnames), args.hostnames)


def _cmd_ttl(args) -> str:
    from .experiments.ttl import render_ttl_table, run_ttl_experiment

    return render_ttl_table(run_ttl_experiment(authoritative_ttl=args.ttl))


def _cmd_spillover(args) -> str:
    from .experiments.spillover import render_spillover_table, run_spillover

    return render_spillover_table(run_spillover(clients=args.clients))


def _cmd_coloring(args) -> str:
    from .experiments.coloring import render_coloring_table, run_coloring_sweep

    return render_coloring_table(run_coloring_sweep())


def _cmd_dnsload(args) -> str:
    from .experiments.dnsload import render_dns_load_table, run_dns_load

    return render_dns_load_table(run_dns_load(sessions=args.sessions))


def _cmd_failover(args) -> str:
    from .experiments.failover import FailoverConfig, render_failover_table, run_failover_pair

    config = FailoverConfig(ttl=args.ttl, probe_interval=args.probe_interval)
    return render_failover_table(run_failover_pair(config))


def _cmd_chaos(args) -> str:
    from .chaos import minimize_campaign, run_campaign

    if args.minimize:
        campaign = _load_campaign(args.minimize)
        try:
            result = minimize_campaign(campaign, invariant=args.invariant)
        except ValueError as exc:
            raise _CommandFailed(f"chaos --minimize: {exc}", 2)
        kinds = [spec.kind for spec in result.minimized.faults]
        lines = [
            f"campaign {campaign.name!r}: {len(campaign.faults)} fault(s) -> "
            f"{len(result.minimized.faults)} (invariant {result.invariant!r}, "
            f"{result.tests_run} replays)",
            f"minimal schedule: {', '.join(kinds)}",
            result.minimized.to_json(indent=2),
        ]
        output = "\n".join(lines)
        if args.expect_minimal is not None:
            expected = [k for k in args.expect_minimal.split(",") if k]
            if kinds != expected:
                raise _CommandFailed(
                    f"{output}\nexpected minimal schedule "
                    f"{', '.join(expected)} — got {', '.join(kinds)}", 1)
        return output

    if args.campaign:
        campaign = _load_campaign(args.campaign)
        result = run_campaign(campaign)
        output = _json_dumps(result.report())
        if result.violations:
            raise _CommandFailed(output, 1)
        return output

    from .chaos import ChaosConfig
    from .experiments.chaos_soak import (
        ChaosSoakConfig,
        render_chaos_soak_table,
        run_chaos_soak,
    )

    overrides = {"horizon": args.horizon, "clients_per_region": args.clients,
                 "num_sites": args.sites}
    chaos = ChaosConfig().apply(
        {k: v for k, v in overrides.items() if v is not None})
    soak = run_chaos_soak(
        ChaosSoakConfig(seed=args.seed, campaigns=args.campaigns, chaos=chaos))
    output = soak.reports_json() if args.json else render_chaos_soak_table(soak)
    if not soak.ok:
        raise _CommandFailed(output, 1)
    return output


def _cmd_campaign(args) -> str:
    from .campaign import (
        ReaddressingSpec,
        default_readdressing_spec,
        minimize_rollback_faults,
        run_readdressing,
    )

    if args.spec:
        try:
            with open(args.spec) as fh:
                spec = ReaddressingSpec.from_json(fh.read())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise _CommandFailed(
                f"campaign: cannot load spec {args.spec!r}: {exc}", 2)
    else:
        spec = default_readdressing_spec()

    if args.minimize:
        chaos_campaign = _load_campaign(args.minimize)
        try:
            minimal = minimize_rollback_faults(chaos_campaign, spec)
        except ValueError as exc:
            raise _CommandFailed(f"campaign --minimize: {exc}", 2)
        kinds = [fault.kind for fault in minimal.faults]
        output = "\n".join([
            f"campaign {chaos_campaign.name!r}: {len(chaos_campaign.faults)} "
            f"fault(s) -> {len(minimal.faults)} (property: campaign rolls back)",
            f"minimal schedule: {', '.join(kinds)}",
            minimal.to_json(indent=2),
        ])
        if args.expect_minimal is not None:
            expected = [k for k in args.expect_minimal.split(",") if k]
            if kinds != expected:
                raise _CommandFailed(
                    f"{output}\nexpected minimal schedule "
                    f"{', '.join(expected)} — got {', '.join(kinds)}", 1)
        return output

    faults = ()
    if args.faults:
        faults = _load_campaign(args.faults).faults
    elif args.chaos:
        from .experiments.readdressing import background_faults

        faults = background_faults()

    result = run_readdressing(spec, seed=args.seed, faults=faults)
    if args.json:
        output = _json_dumps(result.report())
    else:
        campaign = result.readdressing
        lines = [
            f"campaign {campaign['name']!r} (policy {campaign['policy']!r}, "
            f"seed {args.seed}): {campaign['state']}",
        ]
        for step in campaign["steps"]:
            lines.append(
                f"  step {step['step']} {step['name']} [{step['kind']}] "
                f"{step['outcome'] or 'in flight'}: "
                f"drained={step['drained_completed']} "
                f"migrated={step['drained_migrated']} "
                f"dropped={len(step['dropped'])} holds={step['holds']}"
            )
        lines.append(
            f"availability {result.availability:.4f}, "
            f"{campaign['holds']} hold(s), {campaign['rollbacks']} rollback(s), "
            f"{len(result.violations)} violation(s)"
        )
        for violation in result.violations:
            lines.append(f"  VIOLATION {violation.invariant} at "
                         f"t={violation.at:g}: {violation.detail}")
        output = "\n".join(lines)
    if result.violations:
        raise _CommandFailed(output, 1)
    return output


def _load_campaign(path: str):
    from .chaos import Campaign
    from .faults import FaultConfigError

    try:
        with open(path) as fh:
            return Campaign.from_json(fh.read())
    except (OSError, ValueError, KeyError, FaultConfigError) as exc:
        raise _CommandFailed(f"chaos: cannot load campaign {path!r}: {exc}", 2)


def _json_dumps(document) -> str:
    import json

    return json.dumps(document, indent=2)


def _cmd_bgp(args) -> str:
    from .experiments.bgp_convergence import (
        BGPConvergenceConfig,
        render_bgp_table,
        run_bgp_convergence,
    )

    outcome = run_bgp_convergence(BGPConvergenceConfig(seed=args.seed))
    output = outcome.reports_json() if args.json else render_bgp_table(outcome)
    if not outcome.ok:
        raise _CommandFailed(output, 1)
    return output


def _cmd_scaling(args) -> str:
    from .experiments.sklookup_perf import render_scaling_table

    return render_scaling_table()


def _cmd_metrics(args) -> str:
    import json

    from .obs import diff_snapshots, render_diff, to_json, to_prometheus

    if args.diff:
        before_path, after_path = args.diff
        try:
            with open(before_path) as fh:
                before = json.load(fh)
            with open(after_path) as fh:
                after = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise _CommandFailed(f"metrics --diff: {exc}", 2)
        # Accept both bare registry snapshots and the documents this
        # command writes (metrics nested under a "metrics" key).
        before = before.get("metrics", before)
        after = after.get("metrics", after)
        header = f"metrics diff: {before_path} -> {after_path}"
        return f"{header}\n{render_diff(diff_snapshots(before, after))}"

    snapshot, traces = _collect_metrics(args.experiment)
    if args.format == "prom":
        output = to_prometheus(snapshot)
    else:
        document = {"experiment": args.experiment, "metrics": snapshot, "traces": traces}
        output = to_json(document)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(output + "\n")
        return (
            f"wrote {args.format} snapshot of '{args.experiment}' to {args.out} "
            f"({len(snapshot['counters'])} counters, "
            f"{len(snapshot['histograms'])} histograms)"
        )
    return output


def _collect_metrics(experiment: str) -> tuple[dict, dict]:
    """Run ``experiment`` instrumented; returns (snapshot, trace summary)."""
    from .obs import MetricsRegistry

    if experiment == "failover":
        from .experiments.failover import FailoverConfig, run_failover

        outcome = run_failover(FailoverConfig())
        mitigation = [
            {"trace": s.trace, "phase": s.phase, "start": s.start,
             "end": s.end, "duration": s.duration, "detail": s.detail}
            for s in outcome.tracer if s.trace.startswith("failover")
        ]
        traces = {
            "span_count": len(outcome.tracer),
            "phase_durations": outcome.tracer.phase_durations(),
            "mitigation_spans": mitigation,
        }
        return outcome.registry.snapshot(), traces

    from .experiments.ttl import run_ttl_experiment

    registry = MetricsRegistry()
    run_ttl_experiment(registry=registry)
    return registry.snapshot(), {}


def _cmd_serve(args) -> str:
    from .serve import run_oneshot, run_smoke
    from .serve.app import DEFAULT_SEED

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    if args.smoke or args.queries is not None:
        report = run_smoke(
            queries=args.queries if args.queries is not None else 50,
            workers=args.workers,
            bind=args.bind,
            seed=seed,
        )
        output = _json_dumps(report)
        if not report["ok"]:
            raise _CommandFailed(output, 1)
        return output

    if not args.oneshot:
        raise _CommandFailed(
            "serve: long-running mode is not wired into the reproduction "
            "harness; use --oneshot (demo both wire paths once) or "
            "--smoke/--queries N (CI soak)", 2)

    report = run_oneshot(bind=args.bind, workers=args.workers, seed=seed)
    plain, truncated = report["plain"], report["truncated"]
    lines = [
        f"; serving {report['address']} with {report['workers']} worker(s)",
        "",
        f";; QUESTION: {plain['question']}",
        f";; transport: {plain['transport']}  rcode: {plain['rcode']}",
        *(f"{plain['question'].split()[0]}  30  IN  A  {a}" for a in plain["addresses"]),
        "",
        f";; QUESTION: {truncated['question']}",
        f";; flags: TC on UDP -> retried over {truncated['transport']}",
        f";; answers: {truncated['answers']}/{truncated['expected_answers']} "
        "(complete over TCP)",
        "",
        ";; pool counters: " + ", ".join(
            f"{k}={v}" for k, v in sorted(report["counters"].items())
            if not k.startswith("latency")
        ),
        f";; verdict: {'ok' if report['ok'] else 'FAILED'}",
    ]
    output = "\n".join(lines)
    if not report["ok"]:
        raise _CommandFailed(output, 1)
    return output


def _cmd_check(args) -> str:
    from .check.cli import UnknownCheckerError, run_check

    try:
        output, code = run_check(
            config=args.config,
            lint=args.lint,
            no_lint=args.no_lint,
            strict=args.strict,
            no_deployment=args.no_deployment,
            only=args.only,
        )
    except UnknownCheckerError as exc:
        raise _CommandFailed(f"check: {exc}", 2)
    if code != 0:
        raise _CommandFailed(output, code)
    return output


def _cmd_plan(args) -> str:
    from .check.cli import run_plan

    output, code = run_plan(args.plan, strict=args.strict)
    if code != 0:
        raise _CommandFailed(output, code)
    return output


def _cmd_list(args) -> str:
    lines = ["available experiments:"]
    for name, (_, help_text) in sorted(_COMMANDS.items()):
        lines.append(f"  {name:<10} {help_text}")
    return "\n".join(lines)


_COMMANDS: dict[str, tuple[Callable, str]] = {
    "fig7": (_cmd_fig7, "Figure 7: per-IP load under static vs random addressing"),
    "fig8": (_cmd_fig8, "Figure 8: connection coalescing, one-IP vs rest-of-world"),
    "fig9": (_cmd_fig9, "Figure 9: anycast route-leak detection & mitigation"),
    "dos": (_cmd_dos, "§6: DoS k-ary search isolation"),
    "reduction": (_cmd_reduction, "§4.2: address-usage reduction table"),
    "ttl": (_cmd_ttl, "§4.4: binding lifetime vs resolver TTL behaviour"),
    "spillover": (_cmd_spillover, "§6: DC2 measurement (resolver/client mismatch)"),
    "coloring": (_cmd_coloring, "§6: map colouring for anycast traffic tuning"),
    "dnsload": (_cmd_dnsload, "§5.2: DNS-stress reduction under one-address"),
    "failover": (_cmd_failover, "§3.4/§4.4: failover recovery time vs BGP reconvergence"),
    "chaos": (_cmd_chaos, "§3.4/§6: seeded chaos campaigns vs control-plane invariants"),
    "campaign": (_cmd_campaign, "§4.2/§6: staged re-addressing campaign under traffic/chaos"),
    "bgp": (_cmd_bgp, "§4.4/§6: BGP convergence windows racing the DNS rebind"),
    "scaling": (_cmd_scaling, "Figure 4: socket-table scaling comparison"),
    "serve": (_cmd_serve, "real-socket authoritative frontend (UDP+TCP, pre-fork workers)"),
    "check": (_cmd_check, "static analysis: program verifier + control-plane + determinism lint"),
    "plan": (_cmd_plan, "symbolic pre-flight verification of a rebind-plan JSON file"),
    "metrics": (_cmd_metrics, "repro.obs: run an instrumented experiment, export metrics"),
    "list": (_cmd_list, "list available experiments"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate artefacts from 'The Ties that un-Bind' (SIGCOMM 2021).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig7", help=_COMMANDS["fig7"][1])
    p.add_argument("--sites", type=int, default=5_000)
    p.add_argument("--requests", type=int, default=100_000)
    p.add_argument("--zipf", type=float, default=1.1)

    p = sub.add_parser("fig8", help=_COMMANDS["fig8"][1])
    p.add_argument("--sessions", type=int, default=150)
    p.add_argument("--sites", type=int, default=300)

    p = sub.add_parser("fig9", help=_COMMANDS["fig9"][1])
    p.add_argument("--ttl", type=int, default=30)

    p = sub.add_parser("dos", help=_COMMANDS["dos"][1])
    p.add_argument("--n", type=int, default=1_000)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--probe-ttl", type=int, default=5, dest="probe_ttl")
    p.add_argument("--initial-ttl", type=int, default=300, dest="initial_ttl")
    p.add_argument("--attack", choices=("l7", "l34"), default="l7")

    p = sub.add_parser("reduction", help=_COMMANDS["reduction"][1])
    p.add_argument("--hostnames", type=int, default=20_000_000)

    p = sub.add_parser("ttl", help=_COMMANDS["ttl"][1])
    p.add_argument("--ttl", type=int, default=30)

    p = sub.add_parser("spillover", help=_COMMANDS["spillover"][1])
    p.add_argument("--clients", type=int, default=40)

    sub.add_parser("coloring", help=_COMMANDS["coloring"][1])

    p = sub.add_parser("dnsload", help=_COMMANDS["dnsload"][1])
    p.add_argument("--sessions", type=int, default=120)

    p = sub.add_parser("failover", help=_COMMANDS["failover"][1])
    p.add_argument("--ttl", type=int, default=20)
    p.add_argument("--probe-interval", type=float, default=5.0, dest="probe_interval")

    p = sub.add_parser("chaos", help=_COMMANDS["chaos"][1])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--campaigns", type=int, default=20)
    p.add_argument("--horizon", type=float, default=None,
                   help="simulated seconds per campaign (default 180)")
    p.add_argument("--clients", type=int, default=None,
                   help="clients per region (default 3)")
    p.add_argument("--sites", type=int, default=None,
                   help="hosted sites in the universe (default 12)")
    p.add_argument("--json", action="store_true",
                   help="emit per-campaign reports as JSON (deterministic bytes)")
    p.add_argument("--campaign", metavar="FILE", default=None,
                   help="replay one campaign JSON instead of generating; "
                        "exits non-zero if it violates any invariant")
    p.add_argument("--minimize", metavar="FILE", default=None,
                   help="delta-minimize the violating campaign in FILE")
    p.add_argument("--invariant", default=None,
                   help="with --minimize: which invariant to preserve")
    p.add_argument("--expect-minimal", dest="expect_minimal", default=None,
                   metavar="KINDS",
                   help="with --minimize: fail unless the minimal schedule "
                        "is exactly this comma-separated kind list")

    p = sub.add_parser("campaign", help=_COMMANDS["campaign"][1])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--spec", metavar="FILE", default=None,
                   help="ReaddressingSpec JSON (default: the /20→/24→/32 "
                        "shrink drill); exits non-zero on any violation")
    p.add_argument("--chaos", action="store_true",
                   help="run the drill over E20's background fault schedule")
    p.add_argument("--faults", metavar="FILE", default=None,
                   help="chaos campaign JSON whose fault schedule fires "
                        "during the drill (overrides --chaos)")
    p.add_argument("--json", action="store_true",
                   help="emit the full run report as JSON (deterministic bytes)")
    p.add_argument("--minimize", metavar="FILE", default=None,
                   help="ddmin the fault schedule in FILE to the minimal "
                        "subset that still rolls the campaign back")
    p.add_argument("--expect-minimal", dest="expect_minimal", default=None,
                   metavar="KINDS",
                   help="with --minimize: fail unless the minimal schedule "
                        "is exactly this comma-separated kind list")

    p = sub.add_parser("bgp", help=_COMMANDS["bgp"][1])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--json", action="store_true",
                   help="emit per-scenario reports as JSON (deterministic bytes)")

    sub.add_parser("scaling", help=_COMMANDS["scaling"][1])

    p = sub.add_parser("metrics", help=_COMMANDS["metrics"][1])
    p.add_argument("--experiment", choices=("ttl", "failover"), default="ttl",
                   help="which instrumented scenario produces the snapshot")
    p.add_argument("--format", choices=("json", "prom"), default="json",
                   help="JSON document (metrics + traces) or Prometheus text")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the export to FILE instead of stdout")
    p.add_argument("--diff", nargs=2, metavar=("BEFORE", "AFTER"), default=None,
                   help="compare two saved JSON snapshots instead of running")

    p = sub.add_parser("serve", help=_COMMANDS["serve"][1])
    p.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="bind spec; port 0 picks a free port (default %(default)s)")
    p.add_argument("--workers", type=int, default=1,
                   help="pre-fork workers sharing the port via SO_REUSEPORT")
    p.add_argument("--seed", type=int, default=None,
                   help="world seed (worker i uses seed+i)")
    p.add_argument("--oneshot", action="store_true",
                   help="answer one plain query and one forced-truncation "
                        "query over real sockets, print dig-style, exit")
    p.add_argument("--smoke", action="store_true",
                   help="CI soak: many queries incl. one forced-TC; JSON report")
    p.add_argument("--queries", type=int, default=None, metavar="N",
                   help="with --smoke: how many queries to send (implies --smoke)")

    p = sub.add_parser("check", help=_COMMANDS["check"][1])
    p.add_argument("config", nargs="?", default=None,
                   help="check-config JSON (default: verify the built-in deployment "
                        "and lint the repro package sources)")
    p.add_argument("--lint", action="append", default=None, metavar="PATH",
                   help="additional file/directory for the determinism lint")
    p.add_argument("--no-lint", action="store_true", dest="no_lint",
                   help="skip the determinism lint pass")
    p.add_argument("--no-deployment", action="store_true", dest="no_deployment",
                   help="without a config, skip building the default deployment "
                        "(lint-only run)")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on warnings too")
    p.add_argument("--only", action="append", default=None, metavar="NAME",
                   help="run only the named checker(s); unknown names exit 2")

    p = sub.add_parser("plan", help=_COMMANDS["plan"][1])
    p.add_argument("plan", metavar="FILE",
                   help="rebind-plan JSON (kind/policy plus active, pool, release)")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on info findings too")

    sub.add_parser("list", help=_COMMANDS["list"][1])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    try:
        print(handler(args))
    except _CommandFailed as failure:
        print(failure.output)
        return failure.code
    except BrokenPipeError:  # output piped into head/less that closed early
        return 0
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
