"""The Finding/Checker framework every static pass reports through.

Modelled on the role the kernel BPF verifier plays for sk_lookup programs
(§3.3): a checker examines a *description* of the system — never the live
traffic — and either blesses it or explains precisely what is wrong and
how to fix it.  Every pass (program verifier, control-plane checker,
symbolic verifier, determinism lint) emits :class:`Finding`s; callers
decide whether errors abort (strict mode, like an attach-time
``-EINVAL``) or are logged.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field

from ..core.pool import AddressPool
from ..netsim.addr import Prefix
from ..sockets.sklookup import MatchRule, SkLookupProgram

__all__ = [
    "Severity",
    "Finding",
    "CheckError",
    "PolicyInfo",
    "ProgramView",
    "CheckContext",
    "Checker",
    "Report",
    "run_checkers",
]


class Severity(enum.Enum):
    """Finding severity, ordered: errors block, warnings inform."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True, slots=True)
class Finding:
    """One verifier/checker/lint result.

    ``rule`` is a short stable identifier (``SK002``, ``CP001``,
    ``DT003``); ``location`` names where (program#rule index, policy name,
    or ``file:line``); ``hint`` says how to fix it.
    """

    rule: str
    name: str
    severity: Severity
    message: str
    location: str = ""
    hint: str = ""

    def render(self) -> str:
        where = f" {self.location}:" if self.location else ""
        line = f"{self.severity.value:<7} {self.rule} [{self.name}]{where} {self.message}"
        if self.hint:
            line += f"\n        hint: {self.hint}"
        return line


class CheckError(RuntimeError):
    """Raised in strict mode when a check pass reports errors."""

    def __init__(self, message: str, findings: list[Finding]) -> None:
        super().__init__(message)
        self.findings = list(findings)


@dataclass(frozen=True, slots=True)
class PolicyInfo:
    """The slice of a live :class:`~repro.core.policy.Policy` the
    control-plane checker consumes.

    Using a value type instead of the live object lets a rebind be
    *prechecked*: substitute the candidate pool here and verify the
    hypothetical state without touching the serving engine.
    """

    name: str
    pool: AddressPool
    ttl: int
    priority: int = 100
    #: attribute -> acceptable values, as on the live policy (CP009).
    match: Mapping[str, frozenset] = field(default_factory=dict)

    @classmethod
    def from_policy(cls, policy) -> "PolicyInfo":
        return cls(name=policy.name, pool=policy.pool, ttl=policy.ttl,
                   priority=policy.priority, match=policy.match)


@dataclass(frozen=True, slots=True)
class ProgramView:
    """A verifier's-eye view of one sk_lookup program.

    ``live_slots`` is the set of SOCKARRAY keys that currently hold a
    listening socket; ``path`` identifies the lookup path the program is
    attached to (programs sharing a path are checked against each other,
    in attach order).  Views are built either from a live program or
    directly from a JSON check-config, so broken rule sets that
    ``add_rule`` would reject at construction can still be described and
    diagnosed.
    """

    name: str
    rules: tuple[MatchRule, ...]
    map_size: int
    live_slots: frozenset[int]
    path: str = ""

    @classmethod
    def from_program(cls, program: SkLookupProgram, path: str = "") -> "ProgramView":
        live = frozenset(
            key for key in range(program.map.size) if program.map.lookup(key) is not None
        )
        return cls(
            name=program.name,
            rules=program.rules(),
            map_size=program.map.size,
            live_slots=live,
            path=path or program.name,
        )


@dataclass(slots=True)
class CheckContext:
    """Everything the passes cross-validate, in one place.

    Built from a live :class:`~repro.deploy.Deployment`
    (:func:`~repro.check.deployment.context_from_deployment`) or from a
    JSON config (:func:`~repro.check.config.load_check_config`).  Any
    field may be empty; each checker skips what it cannot see.
    """

    policies: list[PolicyInfo] = field(default_factory=list)
    standby_pools: list[AddressPool] = field(default_factory=list)
    announced: list[Prefix] = field(default_factory=list)
    listening: list[Prefix] = field(default_factory=list)
    programs: list[ProgramView] = field(default_factory=list)
    service_ports: tuple[int, ...] = (80, 443)
    soa_minimum: int | None = None
    deployment: object | None = None  # live Deployment for end-to-end dispatch
    lint_paths: list[str] = field(default_factory=list)
    #: TTLs above this defeat TTL-bounded agility (§4.4's rebind bound).
    ttl_horizon_max: int = 3600
    #: Addresses sampled per pool for end-to-end reachability (plus corners).
    samples_per_pool: int = 6
    #: Optional MetricsRegistry; passes record region counts / durations here.
    registry: object | None = None

    def paths(self) -> dict[str, list[ProgramView]]:
        """Programs grouped by lookup path, each group in attach order."""
        by_path: dict[str, list[ProgramView]] = {}
        for program in self.programs:
            by_path.setdefault(program.path, []).append(program)
        return by_path


class Checker:
    """Base class: one static pass over a :class:`CheckContext`."""

    name = "checker"

    def run(self, ctx: CheckContext) -> list[Finding]:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(slots=True)
class Report:
    """The combined result of a check run."""

    findings: list[Finding] = field(default_factory=list)
    checkers_run: int = 0

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """No errors (warnings tolerated — the compile_and_verify contract)."""
        return not self.errors

    @property
    def clean(self) -> bool:
        return not self.findings

    def exit_code(self, strict: bool = False) -> int:
        if self.errors:
            return 1
        if strict and self.findings:
            return 1
        return 0

    def render(self) -> str:
        ordered = sorted(
            self.findings,
            key=lambda f: (f.severity.rank, f.rule, f.location, f.message),
        )
        lines = [f.render() for f in ordered]
        summary = (
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.findings) - len(self.errors) - len(self.warnings)} info "
            f"from {self.checkers_run} checker(s)"
        )
        if not lines:
            return f"ok — no findings ({summary})"
        return "\n".join([*lines, summary])


def run_checkers(ctx: CheckContext, checkers: list[Checker] | None = None) -> Report:
    """Run a set of checkers over ``ctx`` (default: the program, control-plane
    and symbolic passes, plus the determinism lint when ``ctx`` names paths)."""
    if checkers is None:
        from .controlplane import ControlPlaneChecker
        from .determinism import DeterminismChecker
        from .program import ProgramChecker
        from .symbolic import SymbolicChecker

        checkers = [ProgramChecker(), ControlPlaneChecker(), SymbolicChecker()]
        if ctx.lint_paths:
            checkers.append(DeterminismChecker())
    report = Report(checkers_run=len(checkers))
    registry = ctx.registry
    for checker in checkers:
        if registry is None:
            report.findings.extend(checker.run(ctx))
            continue
        import time

        start = time.perf_counter()  # repro: allow-wall-clock pass-duration metric only
        found = checker.run(ctx)
        elapsed = time.perf_counter() - start  # repro: allow-wall-clock pass-duration metric only
        report.findings.extend(found)
        registry.histogram(
            "check_pass_duration_seconds",
            help="Wall-clock duration of one checker pass",
        ).observe(elapsed)
        registry.counter(
            f"check_pass_findings_total_{checker.name}",
            help="Findings emitted by this checker pass",
        ).inc(len(found))
    return report
