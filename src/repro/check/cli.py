"""``python -m repro check`` / ``python -m repro plan``: static analysis.

Check modes:

* **no config argument** — build the default in-memory deployment
  (:meth:`repro.deploy.Deployment.build`), verify its programs and control
  plane, and run the determinism lint over the installed ``repro``
  package sources.  This is the CI gate: the shipped configuration and
  the shipped code must both come back clean.
* **a check-config JSON path** — load the described control plane
  (:mod:`repro.check.config`) and verify *it*, plus any ``lint`` paths it
  names.  Broken configs exit non-zero with one finding per defect.

Both modes run the program, control-plane and symbolic passes (plus the
determinism lint when there are paths to lint); see
:mod:`repro.check` for which finding answers which question.  CP008's
live probe runs only against the built deployment.
``--only <name>`` restricts the run to named checkers — an unknown name
is a typed :class:`UnknownCheckerError` and exit code 2, never a silent
no-op run.  ``python -m repro plan <plan.json>`` verifies a rebind plan
against the default deployment (:func:`repro.check.plan.verify_plan`).

Exit status: 0 when no error findings (``--strict``: no findings at all),
1 otherwise; 2 for an unreadable/malformed config or plan file, or an
unknown ``--only`` checker name.
"""

from __future__ import annotations

import json
import os

from ..core.pool import AddressPool, PoolError
from ..netsim.addr import parse_prefix
from .config import CheckConfigError, load_check_config
from .core import Checker, Report, run_checkers
from .deployment import context_from_deployment

__all__ = ["run_check", "run_plan", "UnknownCheckerError", "CHECKERS"]


def _make_program() -> Checker:
    from .program import ProgramChecker

    return ProgramChecker()


def _make_controlplane() -> Checker:
    from .controlplane import ControlPlaneChecker

    return ControlPlaneChecker()


def _make_determinism() -> Checker:
    from .determinism import DeterminismChecker

    return DeterminismChecker()


def _make_symbolic() -> Checker:
    from .symbolic import SymbolicChecker

    return SymbolicChecker()


#: name -> factory; the vocabulary ``--only`` accepts.
CHECKERS = {
    "program": _make_program,
    "controlplane": _make_controlplane,
    "determinism": _make_determinism,
    "symbolic": _make_symbolic,
}


class UnknownCheckerError(ValueError):
    """``--only`` named a checker that does not exist."""

    def __init__(self, checker: str, known: tuple[str, ...]) -> None:
        self.checker = checker
        self.known = known
        super().__init__(
            f"unknown checker {checker!r}; known checkers: {', '.join(known)}"
        )


def _default_lint_paths() -> list[str]:
    import repro

    return [os.path.dirname(os.path.abspath(repro.__file__))]


def run_check(
    config: str | None = None,
    lint: list[str] | None = None,
    no_lint: bool = False,
    strict: bool = False,
    no_deployment: bool = False,
    only: list[str] | None = None,
) -> tuple[str, int]:
    """Run the requested passes; returns (rendered report, exit code)."""
    selected: list[Checker] | None = None
    if only:
        known = tuple(sorted(CHECKERS))
        for name in only:
            if name not in CHECKERS:
                raise UnknownCheckerError(name, known)
        selected = []
        seen: set[str] = set()
        for name in only:
            if name in seen:
                continue
            seen.add(name)
            selected.append(CHECKERS[name]())
    if config is not None:
        try:
            ctx = load_check_config(config)
        except CheckConfigError as exc:
            return f"check-config error: {exc}", 2
    elif no_deployment:
        from .core import CheckContext

        ctx = CheckContext(service_ports=())
    else:
        from ..deploy import Deployment

        ctx = context_from_deployment(Deployment.build())
    if lint:
        ctx.lint_paths = [*ctx.lint_paths, *lint]
    elif config is None and not ctx.lint_paths:
        ctx.lint_paths = _default_lint_paths()
    if no_lint:
        ctx.lint_paths = []
    report: Report = run_checkers(ctx, selected)
    return report.render(), report.exit_code(strict=strict)


def _load_plan(path: str):
    from .plan import RebindPlan

    with open(path, encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError("plan file must hold a JSON object")
    kind = raw.get("kind")
    policy = raw.get("policy")
    if not isinstance(kind, str) or not isinstance(policy, str):
        raise ValueError("plan needs string 'kind' and 'policy' fields")
    active = parse_prefix(raw["active"]) if "active" in raw else None
    pool = None
    if "pool" in raw:
        spec = raw["pool"]
        if not isinstance(spec, dict) or "advertised" not in spec:
            raise ValueError("plan 'pool' must be an object with 'advertised'")
        pool = AddressPool(
            parse_prefix(spec["advertised"]),
            active=parse_prefix(spec["active"]) if spec.get("active") else None,
            name=spec.get("name", ""),
        )
    release = tuple(parse_prefix(p) for p in raw.get("release", ()))
    return RebindPlan(
        kind=kind, policy=policy, active=active, pool=pool,
        release=release, name=raw.get("name", ""),
    )


def run_plan(path: str, strict: bool = False) -> tuple[str, int]:
    """Verify one rebind-plan file against the default deployment."""
    from ..deploy import Deployment
    from .plan import verify_plan

    try:
        plan = _load_plan(path)
    except (OSError, ValueError, KeyError) as exc:
        return f"plan error: {exc}", 2
    dep = Deployment.build()
    try:
        diff = verify_plan(
            plan, dep.cdn, dep.engine,
            service_ports=tuple(dep.config.ports),
        )
    except (KeyError, ValueError, PoolError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        return f"plan error: {message}", 2
    return diff.render(), diff.report.exit_code(strict=strict)
