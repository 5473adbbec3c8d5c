"""Pre-flight rebind-plan analysis: diff the packet space, then decide.

``precheck_rebind`` answers "is the *end state* of a rebind coherent?";
this module answers the sharper operational question: "what happens to
packets and live connections *during and after* the maneuver?"  A
:class:`RebindPlan` describes an intended shrink / failover / migration;
:func:`verify_plan` computes the exact before/after mintable spaces with
the symbolic algebra and reports:

* **SK102 plan-blackhole** — packets the post-plan policy can mint that
  either leave the announced space (once ``release`` withdrawals take
  effect) or reach no sk_lookup disposition on any edge server.  These
  are addresses the paper's §3.1 invariant says must never be minted.
* **SK103 plan-stranded-flows** — established connections whose local
  address lies inside a prefix the plan *releases*: routing withdrawal
  strands them mid-flight even though the connected-socket lookup (§3.3)
  would still dispatch the packets that no longer arrive.
* **SK103 stale-binding-window** — the space the *old* policy minted
  that the new one no longer will: resolvers may keep handing it out for
  up to one TTL (§4.4's exposure bound), reported as an informational
  window, not an error, because the addresses stay routed and served.

The verdict is recorded on the fault timeline (phase ``"check"``) before
strict mode raises, so a chaos campaign can assert — via the
``plan_safety`` invariant — that no failover was enacted on an unsafe or
unverified plan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..core.pool import AddressPool, PoolError
from ..netsim.addr import Prefix, parse_prefix
from ..sockets.socktable import SocketState
from .core import CheckError, Finding, Report, Severity
from .deployment import context_from_cdn
from .symbolic import PacketSpace, mintable_space, prefix_space, program_verdicts, resolved_space

__all__ = ["PlanError", "RebindPlan", "PlanDiff", "verify_plan"]

PLAN_KINDS = ("shrink", "failover", "migrate")


class PlanError(PoolError):
    """A manoeuvre whose target is not derived from the pool it rebinds.

    Subclasses :class:`~repro.core.pool.PoolError` (itself a
    ``ValueError``) so existing callers that catch the broad classes keep
    working, while new code can catch the typed plan-shape error
    precisely.  Messages always name *both* prefixes involved.
    """


@dataclass(frozen=True, slots=True)
class RebindPlan:
    """One intended control-plane maneuver, as data.

    ``kind`` selects the move: ``shrink`` re-scopes the current pool's
    active set to ``active``; ``failover``/``migrate`` move the policy to
    ``pool``.  ``release`` lists prefixes whose announcements the plan
    withdraws afterwards (the vacated space of §4.2's timetable) — the
    part that can strand established flows.
    """

    kind: str
    policy: str
    active: Prefix | None = None
    pool: AddressPool | None = None
    release: tuple[Prefix, ...] = ()
    name: str = ""

    def describe(self) -> str:
        bits = [f"{self.kind} policy={self.policy}"]
        if self.active is not None:
            bits.append(f"active={self.active}")
        if self.pool is not None:
            bits.append(f"pool={self.pool.advertised}")
        if self.release:
            bits.append("release=" + ",".join(str(p) for p in self.release))
        return " ".join(bits)

    def to_dict(self) -> dict:
        payload: dict = {"kind": self.kind, "policy": self.policy}
        if self.active is not None:
            payload["active"] = str(self.active)
        if self.pool is not None:
            pool: dict = {"advertised": str(self.pool.advertised)}
            if self.pool.active_prefix is not None:
                pool["active"] = str(self.pool.active_prefix)
            if self.pool.name:
                pool["name"] = self.pool.name
            payload["pool"] = pool
        if self.release:
            payload["release"] = [str(p) for p in self.release]
        if self.name:
            payload["name"] = self.name
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RebindPlan":
        if not isinstance(payload, dict):
            raise ValueError("plan must be a JSON object")
        kind = payload.get("kind")
        policy = payload.get("policy")
        if not isinstance(kind, str) or not isinstance(policy, str):
            raise ValueError("plan needs string 'kind' and 'policy' fields")
        if kind not in PLAN_KINDS:
            raise ValueError(
                f"unknown plan kind {kind!r} (expected one of {PLAN_KINDS})"
            )
        active = payload.get("active")
        pool_spec = payload.get("pool")
        pool = None
        if pool_spec is not None:
            if not isinstance(pool_spec, dict) or "advertised" not in pool_spec:
                raise ValueError("plan 'pool' must be an object with 'advertised'")
            pool_active = pool_spec.get("active")
            pool = AddressPool(
                parse_prefix(pool_spec["advertised"]),
                active=parse_prefix(pool_active) if pool_active else None,
                name=pool_spec.get("name", ""),
            )
        return cls(
            kind=kind,
            policy=policy,
            active=parse_prefix(active) if active else None,
            pool=pool,
            release=tuple(parse_prefix(p) for p in payload.get("release", ())),
            name=payload.get("name", ""),
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RebindPlan":
        return cls.from_dict(json.loads(text))


@dataclass(slots=True)
class PlanDiff:
    """The symbolic before/after of one plan, plus the verdict."""

    plan: RebindPlan
    before: PacketSpace
    after: PacketSpace
    blackholed: PacketSpace
    stale: PacketSpace
    stranded: tuple[str, ...] = ()
    exposure_s: float = 0.0
    report: Report = field(default_factory=Report)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def render(self) -> str:
        lines = [
            f"plan: {self.plan.describe()}",
            f"before: {len(self.before)} region(s): {self.before.render(limit=4)}",
            f"after:  {len(self.after)} region(s): {self.after.render(limit=4)}",
        ]
        if not self.blackholed.is_empty():
            lines.append(f"blackholed: {self.blackholed.render(limit=4)}")
        if self.stranded:
            lines.append(f"stranded flows: {len(self.stranded)}")
        if not self.stale.is_empty():
            lines.append(
                f"stale-binding window: {self.exposure_s:g}s over "
                f"{self.stale.render(limit=4)}"
            )
        lines.append(self.report.render())
        return "\n".join(lines)


def _candidate_pool(plan: RebindPlan, current_pool: AddressPool) -> AddressPool:
    if plan.kind == "shrink":
        if plan.active is None:
            raise ValueError("shrink plan needs an 'active' prefix")
        return AddressPool(
            current_pool.advertised, active=plan.active, name=current_pool.name,
        )
    if plan.kind in ("failover", "migrate"):
        if plan.pool is None:
            raise ValueError(f"{plan.kind} plan needs a 'pool'")
        return plan.pool
    raise ValueError(f"unknown plan kind {plan.kind!r} (expected one of {PLAN_KINDS})")


def _stranded_flows(cdn, release: tuple[Prefix, ...]) -> tuple[str, ...]:
    if not release:
        return ()
    flows: list[str] = []
    for dc in cdn.datacenters.values():
        for server in dc.servers.values():
            for sock in server.table.sockets():
                if sock.state is not SocketState.CONNECTED:
                    continue
                if sock.local_addr is None or sock.remote is None:
                    continue
                if not any(p.contains(sock.local_addr) for p in release):
                    continue
                raddr, rport = sock.remote
                flows.append(
                    f"{sock.protocol.name.lower()} "
                    f"{sock.local_addr}:{sock.local_port} <- {raddr}:{rport}"
                )
    return tuple(sorted(flows))


def verify_plan(
    plan: RebindPlan,
    cdn,
    engine,
    *,
    service_ports: tuple[int, ...] | None = None,
    timeline=None,
    clock=None,
    strict: bool = False,
    registry=None,
) -> PlanDiff:
    """Symbolically diff the packet space across ``plan`` and judge it.

    Reads the live CDN and policy engine but mutates neither.  Returns a
    :class:`PlanDiff`; in strict mode raises
    :class:`~repro.check.core.CheckError` when the diff contains errors —
    *after* recording the verdict on ``timeline`` (phase ``"check"``), so
    the record survives the abort.  Raises :class:`KeyError` for an
    unknown policy and :class:`ValueError`/:class:`PoolError` for a plan
    that is malformed on its face.
    """
    policy = next((p for p in engine.policies() if p.name == plan.policy), None)
    if policy is None:
        raise KeyError(f"no policy named {plan.policy!r} to verify a plan for")
    candidate = _candidate_pool(plan, policy.pool)  # may raise PoolError

    ctx = context_from_cdn(cdn, engine, service_ports=service_ports)
    before = mintable_space(policy.pool, ctx.service_ports)
    after = mintable_space(candidate, ctx.service_ports)

    announced_after = [
        prefix for prefix in ctx.announced
        if not any(r.contains(prefix) for r in plan.release)
    ]
    findings: list[Finding] = []

    blackholed = after.subtract(prefix_space(announced_after))
    routable_after = after.subtract(blackholed)
    if ctx.programs:
        # Lenient union across every edge program: the plan is safe if
        # *some* server disposes of the packet — per-server coverage is
        # SK100's stricter job.
        dispatched = PacketSpace.empty()
        for view in ctx.programs:
            dispatched = dispatched.union(resolved_space(
                program_verdicts(view.rules, view.live_slots, routable_after)))
        blackholed = blackholed.union(routable_after.subtract(dispatched))
    if not blackholed.is_empty():
        findings.append(Finding(
            "SK102", "plan-blackhole", Severity.ERROR,
            f"plan mints {len(blackholed)} unreachable region(s): "
            f"{blackholed.render(limit=4)}",
            f"plan:{plan.policy}",
            "announce + dispatch the candidate space before rebinding, or "
            "pick a pool the edge already serves",
        ))

    stranded = _stranded_flows(cdn, plan.release)
    if stranded:
        shown = "; ".join(stranded[:4])
        extra = len(stranded) - min(len(stranded), 4)
        if extra > 0:
            shown += f"; +{extra} more"
        findings.append(Finding(
            "SK103", "plan-stranded-flows", Severity.ERROR,
            f"releasing {', '.join(str(p) for p in plan.release)} strands "
            f"{len(stranded)} established flow(s): {shown}",
            f"plan:{plan.policy}",
            "drain connections off the released space first (the §4.2 "
            "timetable holds announcements until flows age out)",
        ))

    stale = before.subtract(after)
    exposure_s = float(policy.ttl)
    if not stale.is_empty():
        findings.append(Finding(
            "SK103", "stale-binding-window", Severity.INFO,
            f"resolvers may mint {stale.render(limit=4)} for up to "
            f"{exposure_s:g}s after the rebind (TTL exposure window)",
            f"plan:{plan.policy}",
            "keep the vacated space announced and dispatched for one TTL",
        ))

    report = Report(findings=findings, checkers_run=1)
    diff = PlanDiff(
        plan=plan, before=before, after=after, blackholed=blackholed,
        stale=stale, stranded=stranded, exposure_s=exposure_s, report=report,
    )

    if registry is not None:
        registry.gauge(
            "check_plan_blackholed_regions",
            help="Rectangles the last verified plan would blackhole",
        ).set(len(blackholed))
        registry.gauge(
            "check_plan_stranded_flows",
            help="Established flows the last verified plan would strand",
        ).set(len(stranded))

    if timeline is not None:
        if clock is not None:
            at = clock.now()
        else:
            events = timeline.events()
            at = events[-1].at if events else 0.0
        if report.ok:
            timeline.emit(at, "plan_verified", plan.policy,
                          detail=plan.describe(), phase="check")
        else:
            first = report.errors[0]
            timeline.emit(at, "plan_unsafe", plan.policy,
                          detail=f"{first.rule} {first.message}", phase="check")
    if strict and not report.ok:
        raise CheckError(
            f"rebind plan rejected: {plan.describe()}\n{report.render()}",
            report.errors,
        )
    return diff
