"""Invariant monitors: what a healthy deployment must satisfy under chaos.

Each invariant is a pure function over a finished
:class:`~repro.chaos.runner.CampaignResult` — evaluated over the per-tick
sample stream the runner recorded, so a violation names the simulated
instant it first held.  Registered checkers (run in sorted-name order):

``availability``
    Outside every fault window the aggregate success rate meets the SLO.
    A fault window runs from injection to its *recovery deadline* (see
    :func:`fault_windows`): faults may break service, but only while they
    — plus the promised recovery — are in effect.
``recovery``
    After each fault episode's deadline the service is fully back: a
    reverted fault allows ``grace`` past the revert; a fault that never
    reverts inside the horizon must be mitigated (rebind to standby)
    within ``ChaosConfig.recovery_bound`` — TTL plus the *declared*
    detection budget.  This is the invariant that catches a mis-tuned
    monitor: detection slower than the budget leaves failing ticks past
    the deadline.
``stale_binding``
    §4.4's bound made checkable: once a failover has rebound the policy
    and a TTL (+ grace) has elapsed, no *freshly dialled* fetch may still
    land on the old pool's prefix.  Coalesced fetches are exempt —
    riding an established connection past TTL is the legal
    ``max(connection lifetime, TTL)`` half of the bound.
``single_failover``
    At most one failover per fault episode: the monitor must latch, not
    flap between pools while a fault oscillates.
``stats_coherence``
    The dispatch layer's accounting identities hold: every sk_lookup
    program's ``runs`` equals its outcomes, every ECMP router's total
    equals the sum of its per-server counts.
``bgp_oracle``
    Speakers mode, differential: once the event-driven network has fully
    converged (no down sessions, suppressions, or live flaps at the
    horizon), per-client anycast catchments must equal the static
    Gao–Rexford fixpoint of :class:`~repro.netsim.bgp.BGPSimulation` —
    event scheduling may reorder the path to the answer, never the
    answer.
``convergence_window``
    Speakers mode: during a withdrawal-class fault, client-visible
    unavailability is bounded by ``min(TTL + detection budget, measured
    BGP convergence time)`` — whichever control plane (DNS rebind or
    route withdrawal propagation) heals first sets the deadline.
``leak_containment``
    Speakers mode: no fresh fetch may still ride a route learned from a
    :class:`~repro.netsim.bgp.LeakingExport` AS past the leak-detection
    budget (+ TTL + grace) — the monitor's catchment-churn detection
    must have drained production traffic off the leaked path by then.
``plan_safety``
    Every enacted failover must be preceded by a symbolic pre-flight
    verdict on the timeline (:func:`repro.check.plan.verify_plan`,
    phase ``"check"``): a ``failover_triggered`` with no ``plan_verified``
    on record — or following a ``plan_unsafe`` — means the monitor
    rebound the policy onto space it could not prove reachable.
``no_dropped_established``
    Re-addressing runs only: a staged campaign may complete or migrate
    an established connection off vacated space, never drop one.  Every
    drain-timeout drop the engine recorded is a violation.
``stale_binding_bound``
    Re-addressing runs only: per advanced step, once the step's
    propagation horizon (enactment + the old TTL) plus grace has
    passed, no fresh dial may land in the space the step vacated.
``rollback_restores``
    Re-addressing runs only: a rolled-back step must leave the world at
    the campaign-scope fingerprint (policy binding, pool shape,
    overlapping announcements) it started from.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..netsim.addr import parse_prefix

if TYPE_CHECKING:
    from .generator import Campaign
    from .runner import CampaignResult
    from .world import ChaosConfig

__all__ = ["Violation", "INVARIANTS", "check_invariants", "fault_windows"]


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant breach: which invariant, when, and the evidence."""

    invariant: str
    at: float
    detail: str


def fault_windows(campaign: "Campaign", config: "ChaosConfig") -> list[tuple[float, float]]:
    """Per-fault ``(inject, recovery deadline)`` intervals.

    A fault that reverts inside the horizon must be healed ``grace_s``
    after the revert; a permanent (or horizon-crossing) fault must be
    *mitigated* within ``recovery_bound`` of injection — the §6 rebind is
    the only exit, so the deadline does not wait for a revert that never
    comes.
    """
    windows = []
    for spec in campaign.faults:
        end = None if spec.duration is None else spec.when + spec.duration
        if end is not None and end < config.horizon:
            deadline = end + config.grace_s
        else:
            deadline = spec.when + config.recovery_bound
        windows.append((spec.when, deadline))
    return sorted(windows)


def _episodes(windows: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge overlapping fault windows into disjoint episodes."""
    merged: list[tuple[float, float]] = []
    for start, end in windows:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _inside(t: float, windows: list[tuple[float, float]]) -> bool:
    return any(start <= t <= end for start, end in windows)


# -- checkers ------------------------------------------------------------------


def _check_availability(result: "CampaignResult") -> list[Violation]:
    windows = fault_windows(result.campaign, result.config)
    outside = [s for s in result.ticks if not _inside(s.t, windows)]
    successes = sum(s.successes for s in outside)
    total = successes + sum(s.failures for s in outside)
    if not total:
        return []
    rate = successes / total
    if rate >= result.config.slo:
        return []
    first_bad = next((s.t for s in outside if s.failures), outside[0].t)
    return [Violation(
        "availability", first_bad,
        f"success rate {rate:.4f} < SLO {result.config.slo} outside fault windows "
        f"({total - successes}/{total} failed)",
    )]


def _check_recovery(result: "CampaignResult") -> list[Violation]:
    episodes = _episodes(fault_windows(result.campaign, result.config))
    violations = []
    for i, (start, deadline) in enumerate(episodes):
        next_start = episodes[i + 1][0] if i + 1 < len(episodes) else float("inf")
        late = [s for s in result.ticks
                if deadline < s.t < next_start and s.failures]
        if late:
            violations.append(Violation(
                "recovery", late[0].t,
                f"episode starting t={start:g} still failing "
                f"{late[0].t - deadline:.0f}s past its recovery deadline "
                f"t={deadline:g} ({len(late)} failing tick(s))",
            ))
    return violations


def _check_stale_binding(result: "CampaignResult") -> list[Violation]:
    failover = result.timeline.first("failover_triggered")
    if failover is None:
        return []
    primary = parse_prefix(result.config.primary_prefix)
    boundary = failover.at + result.config.ttl + result.config.grace_s
    for fetch in result.fetches:
        if not fetch.ok or fetch.coalesced or fetch.t <= boundary:
            continue
        if fetch.address is not None and fetch.address in primary:
            return [Violation(
                "stale_binding", fetch.t,
                f"fresh dial to {fetch.address} (old pool {primary}) "
                f"{fetch.t - failover.at:.0f}s after failover — past "
                f"TTL {result.config.ttl}s + grace",
            )]
    return []


def _check_single_failover(result: "CampaignResult") -> list[Violation]:
    failovers = result.timeline.events(kind="failover_triggered")
    if len(failovers) <= 1:
        return []
    episodes = _episodes(fault_windows(result.campaign, result.config))
    violations = []
    for start, end in episodes:
        inside = [f for f in failovers if start <= f.at <= end]
        if len(inside) > 1:
            violations.append(Violation(
                "single_failover", inside[1].at,
                f"{len(inside)} failovers within episode "
                f"[{start:g}, {end:g}] — the monitor is flapping",
            ))
    if not violations and len(failovers) > len(episodes):
        violations.append(Violation(
            "single_failover", failovers[-1].at,
            f"{len(failovers)} failovers for {len(episodes)} fault episode(s)",
        ))
    return violations


def _check_stats_coherence(result: "CampaignResult") -> list[Violation]:
    horizon = result.config.horizon
    violations = []
    for dc_name in sorted(result.cdn.datacenters):
        dc = result.cdn.datacenters[dc_name]
        routed = dc.ecmp.stats.routed
        per_server = sum(dc.ecmp.stats.per_server.values())
        if routed != per_server:
            violations.append(Violation(
                "stats_coherence", horizon,
                f"{dc_name}: ECMP routed {routed} != per-server sum {per_server}",
            ))
        for server_name in sorted(dc.servers):
            program = dc.servers[server_name]._sk_program
            if program is None:
                continue
            outcomes = (program.stats["redirects"] + program.stats["drops"]
                        + program.stats["fallthroughs"])
            if program.stats["runs"] != outcomes:
                violations.append(Violation(
                    "stats_coherence", horizon,
                    f"{dc_name}/{server_name}: sk_lookup runs "
                    f"{program.stats['runs']} != outcome sum {outcomes}",
                ))
    return violations


def _check_bgp_oracle(result: "CampaignResult") -> list[Violation]:
    if not result.oracle_checked or not result.oracle_mismatches:
        return []
    client, address, event_driven, static = result.oracle_mismatches[0]
    return [Violation(
        "bgp_oracle", result.config.horizon,
        f"{len(result.oracle_mismatches)} catchment mismatch(es) vs the "
        f"static Gao–Rexford fixpoint; first: client {client} -> {address} "
        f"reaches {event_driven} event-driven but {static} static",
    )]


#: Fault kinds that withdraw the primary PoP's announcement (directly or by
#: taking the whole PoP down) — the faults a convergence window must cover.
_WITHDRAWAL_KINDS = frozenset({"pop_withdrawal", "pop_outage"})


def _check_convergence_window(result: "CampaignResult") -> list[Violation]:
    if result.routing == "static":
        return []
    config = result.config
    all_windows = fault_windows(result.campaign, config)
    violations = []
    for spec in result.campaign.faults:
        if spec.kind not in _WITHDRAWAL_KINDS:
            continue
        # The convergence window this withdrawal opened: the first one
        # starting within a couple of simulated seconds of injection
        # (injection lands on a tick boundary; the first UPDATE follows
        # within one MRAI round).
        window = next(
            (w for w in result.convergence_windows
             if spec.when <= w[0] <= spec.when + 2.0),
            None,
        )
        if window is None:
            continue
        convergence = window[1] - spec.when
        dns_bound = config.ttl + config.detection_budget_s
        deadline = spec.when + min(dns_bound, convergence) + config.grace_s
        end = config.horizon if spec.duration is None else spec.when + spec.duration
        others = [w for w in all_windows if w[0] != spec.when]
        late = [
            s for s in result.ticks
            if deadline < s.t <= end and s.failures and not _inside(s.t, others)
        ]
        if late:
            violations.append(Violation(
                "convergence_window", late[0].t,
                f"{spec.kind} at t={spec.when:g}: still failing at "
                f"t={late[0].t:g}, past min(TTL+budget={dns_bound:g}s, "
                f"convergence={convergence:.1f}s) + grace deadline "
                f"t={deadline:.1f} ({len(late)} failing tick(s))",
            ))
    return violations


def _check_leak_containment(result: "CampaignResult") -> list[Violation]:
    if result.routing == "static":
        return []
    config = result.config
    violations = []
    for spec in result.campaign.faults:
        if spec.kind != "route_leak":
            continue
        boundary = (spec.when + config.detection_budget_s + config.ttl
                    + config.grace_s)
        leaked = next(
            (f for f in result.fetches
             if f.ok and f.via_leaker and not f.coalesced and f.t > boundary),
            None,
        )
        if leaked is not None:
            violations.append(Violation(
                "leak_containment", leaked.t,
                f"route_leak at t={spec.when:g}: fresh fetch by "
                f"{leaked.client} still riding the leaked path at "
                f"t={leaked.t:g}, {leaked.t - boundary:.0f}s past the "
                f"containment boundary t={boundary:g} "
                f"(budget {config.detection_budget_s:g}s + TTL "
                f"{config.ttl}s + grace)",
            ))
    return violations


def _check_plan_safety(result: "CampaignResult") -> list[Violation]:
    violations = []
    for failover in result.timeline.events(kind="failover_triggered"):
        checks = [
            e for e in result.timeline.events(until=failover.at)
            if e.kind in ("plan_verified", "plan_unsafe") and e.phase == "check"
        ]
        if not checks:
            violations.append(Violation(
                "plan_safety", failover.at,
                f"failover of {failover.target!r} enacted with no symbolic "
                f"plan verification on record",
            ))
        elif checks[-1].kind == "plan_unsafe":
            violations.append(Violation(
                "plan_safety", failover.at,
                f"failover of {failover.target!r} enacted despite an unsafe "
                f"plan verdict: {checks[-1].detail}",
            ))
    return violations


# -- re-addressing campaign checkers -------------------------------------------
#
# These three judge a staged re-addressing drill (``result.readdressing``
# is the :meth:`~repro.campaign.engine.CampaignEngine.report` dict) and
# are no-ops on plain chaos runs.


def _check_no_dropped_established(result: "CampaignResult") -> list[Violation]:
    campaign = getattr(result, "readdressing", None)
    if not campaign:
        return []
    violations = []
    for step in campaign["steps"]:
        for t, client, address in step["dropped"]:
            violations.append(Violation(
                "no_dropped_established", t,
                f"step {step['name']!r}: established connection of {client} "
                f"to {address} dropped by the drain timeout — zero-downtime "
                f"means completed or migrated, never dropped",
            ))
    return violations


def _check_stale_binding_bound(result: "CampaignResult") -> list[Violation]:
    campaign = getattr(result, "readdressing", None)
    if not campaign:
        return []
    violations = []
    for step in campaign["steps"]:
        if step["outcome"] != "advanced" or step["kind"] == "cadence":
            continue
        old_space = parse_prefix(step["old_active"])
        new_space = parse_prefix(step["new_active"])
        # The step's propagation horizon is enactment + the old TTL: past
        # it (+ measurement grace) no resolver cache may mint the vacated
        # space, so a fresh dial landing there is a stale binding.
        boundary = step["horizon"] + result.config.grace_s
        for fetch in result.fetches:
            if (not fetch.ok or fetch.coalesced or fetch.address is None
                    or fetch.t <= boundary):
                continue
            if fetch.address in old_space and fetch.address not in new_space:
                violations.append(Violation(
                    "stale_binding_bound", fetch.t,
                    f"step {step['name']!r}: fresh dial by {fetch.client} to "
                    f"{fetch.address} in vacated space {step['old_active']} "
                    f"at t={fetch.t:g}, past the horizon+grace boundary "
                    f"t={boundary:g}",
                ))
                break  # one exhibit per step
    return violations


def _check_rollback_restores(result: "CampaignResult") -> list[Violation]:
    campaign = getattr(result, "readdressing", None)
    if not campaign:
        return []
    violations = []
    for step in campaign["steps"]:
        if step["outcome"] != "rolled_back":
            continue
        before, after = step["fingerprint_before"], step["fingerprint_after"]
        if before != after:
            drifted = sorted(
                k for k in set(before) | set(after)
                if before.get(k) != after.get(k)
            )
            violations.append(Violation(
                "rollback_restores", step["completed_at"],
                f"step {step['name']!r} rolled back but did not restore the "
                f"world it started from (drifted: {', '.join(drifted)})",
            ))
    return violations


INVARIANTS: dict[str, Callable[["CampaignResult"], list[Violation]]] = {
    "availability": _check_availability,
    "recovery": _check_recovery,
    "stale_binding": _check_stale_binding,
    "single_failover": _check_single_failover,
    "stats_coherence": _check_stats_coherence,
    "bgp_oracle": _check_bgp_oracle,
    "convergence_window": _check_convergence_window,
    "leak_containment": _check_leak_containment,
    "plan_safety": _check_plan_safety,
    "no_dropped_established": _check_no_dropped_established,
    "stale_binding_bound": _check_stale_binding_bound,
    "rollback_restores": _check_rollback_restores,
}


def check_invariants(result: "CampaignResult") -> tuple[Violation, ...]:
    """Run every registered invariant; violations in (name, time) order."""
    violations: list[Violation] = []
    for name in sorted(INVARIANTS):
        violations.extend(INVARIANTS[name](result))
    return tuple(sorted(violations, key=lambda v: (v.invariant, v.at)))
