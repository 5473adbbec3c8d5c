"""Failure-aware control plane: probe PoPs, detect blackholes, rebind.

The paper's robustness claim (§3.4, §6) is that when addresses stop
working — a PoP fails, a prefix is leaked or attacked — the operator
*rebinds* at DNS-TTL timescales instead of waiting out BGP convergence.
This module closes that loop: a :class:`HealthMonitor` periodically probes
the service through the full simulated data path (policy DNS answer →
anycast route → TLS handshake → HTTP response) from a set of vantage ASes,
and after a configurable run of consecutive failures drives the
:class:`~repro.core.agility.AgilityController` to drain the affected pool
(``swap_pool`` to a pre-advertised standby, the §6 mitigation move).

End-to-end recovery is then bounded by ``detection + TTL``: detection
takes at most ``failure_threshold × probe_interval``, and downstream
caches age out the dead addresses within one TTL of the swap — the
``max(connection lifetime, TTL)`` bound of §4.4, measured by
:mod:`repro.experiments.failover`.
"""

from __future__ import annotations

import logging
import random
from collections import deque
from dataclasses import dataclass

from ..clock import Clock
from ..core.agility import AgilityController
from ..core.pool import AddressPool
from ..dns.resolver import RecursiveResolver, ResolveError
from ..edge.cdn import CDN
from ..netsim.addr import IPAddress
from ..obs.trace import TraceRecorder
from ..web.http import HTTPVersion, Request
from ..web.tls import ClientHello, TLSError
from .events import FaultTimeline

__all__ = ["ProbeResult", "HealthMonitor"]


@dataclass(frozen=True, slots=True)
class ProbeResult:
    """One end-to-end probe: DNS answer + data-path fetch from a vantage."""

    at: float
    vantage: object
    address: IPAddress | None  # the answer probed (None: DNS itself failed)
    pop: str | None            # catchment PoP for that address (None: blackhole)
    ok: bool
    detail: str = ""
    #: End-to-end probe time, simulated seconds: DNS path time (delays,
    #: timeouts) plus the server's service time.  The gray-failure signal —
    #: an ``ok=True`` probe can still be ten times slower than baseline.
    latency_s: float = 0.0


class HealthMonitor:
    """Synthetic monitoring + automatic pool drain.

    Parameters
    ----------
    vantages:
        Client ASes to probe from — pick at least one per region so a
        regional blackhole is visible from inside the region.
    failover_pool:
        The standby :class:`AddressPool` (already advertised and
        listening, like the §6 backup prefix).  ``None`` makes the
        monitor observe-only.
    failure_threshold:
        Consecutive failed probe rounds (any vantage failing fails the
        round) before the failover fires.  1 = act on first blood.
    latency_factor / gray_threshold / latency_window / min_latency_samples:
        Gray-failure detection.  Successful probes feed a rolling latency
        window (``latency_window`` samples); the baseline is the median
        after ejecting the slowest eighth (outlier ejection, so one slow
        box never poisons it).  A probe slower than ``latency_factor`` ×
        baseline is *slow*; a round where **every** vantage stays slow even
        after a hedged re-probe is a *gray round*; ``gray_threshold``
        consecutive gray rounds drain the pool exactly like a blackhole
        would — the slow PoP is rebound away *before* it ever fails a
        probe outright.  ``latency_factor=0`` disables gray detection.
    hedged_probes:
        Re-probe a slow vantage once and keep the faster of the pair.  A
        single slow server behind ECMP is absorbed by the hedge (the
        re-probe usually lands elsewhere); a PoP-wide slowdown is not —
        which is the distinction between noise and incident.
    strict_checks:
        Run the control-plane checker against the post-swap state before
        enacting the failover.  ``False`` (default) logs and records a
        timeline event on error findings but still swaps — availability
        over purity, a monitor must not deadlock the mitigation; ``True``
        refuses the swap with :class:`~repro.check.core.CheckError`.
    detect_routing / routing_threshold:
        Routing-aware detection for worlds running the event-driven BGP
        speakers.  The monitor learns each vantage's *baseline* catchment
        PoP from its first healthy probe; a probe that still succeeds but
        lands on a different PoP is *rerouted* (catchment churn — a leak,
        a withdrawal mid-convergence).  ``routing_threshold`` consecutive
        rounds with at least one rerouted vantage drain the pool with
        ``reason="routing"``; and when probes outright *fail* but every
        failing vantage's catchment has shifted from baseline, the
        failover is attributed to routing rather than server health.
        Disabled by default: the static BGP engine flips catchments
        instantaneously and deliberately, so churn there is signal-free.
    """

    def __init__(
        self,
        cdn: CDN,
        clock: Clock,
        controller: AgilityController,
        policy_name: str,
        probe_hostname: str,
        vantages: list[object],
        failover_pool: AddressPool | None = None,
        probe_interval: float = 5.0,
        failure_threshold: int = 2,
        timeline: FaultTimeline | None = None,
        rng: random.Random | None = None,
        strict_checks: bool = False,
        tracer: TraceRecorder | None = None,
        latency_factor: float = 3.0,
        gray_threshold: int = 2,
        latency_window: int = 16,
        min_latency_samples: int = 4,
        hedged_probes: bool = True,
        detect_routing: bool = False,
        routing_threshold: int = 2,
    ) -> None:
        if not vantages:
            raise ValueError("health monitoring needs at least one vantage AS")
        if probe_interval <= 0:
            raise ValueError("probe_interval must be positive")
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if latency_factor < 0:
            raise ValueError("latency_factor must be non-negative (0 disables)")
        if gray_threshold < 1:
            raise ValueError("gray_threshold must be at least 1")
        if min_latency_samples < 1 or latency_window < min_latency_samples:
            raise ValueError("latency_window must hold at least min_latency_samples")
        if routing_threshold < 1:
            raise ValueError("routing_threshold must be at least 1")
        self.cdn = cdn
        self.clock = clock
        self.controller = controller
        self.policy_name = policy_name
        self.probe_hostname = probe_hostname
        self.vantages = list(vantages)
        self.failover_pool = failover_pool
        self.probe_interval = probe_interval
        self.failure_threshold = failure_threshold
        self.timeline = timeline if timeline is not None else FaultTimeline()
        self.strict_checks = strict_checks
        self.tracer = tracer
        #: Trace id of the most recent failover's span group ("detect" /
        #: "precheck" / "rebind"); scenarios append their own "recover"
        #: span to the same trace once they can see recovery.
        self.last_failover_trace: str | None = None
        self._rng = rng or random.Random(0x4EA1)
        self.latency_factor = latency_factor
        self.gray_threshold = gray_threshold
        self.min_latency_samples = min_latency_samples
        self.hedged_probes = hedged_probes
        self.detect_routing = detect_routing
        self.routing_threshold = routing_threshold
        self.consecutive_failures = 0
        self.consecutive_gray = 0
        self.consecutive_rerouted = 0
        self.failed_over = False
        self.probes_run = 0
        self.hedges_run = 0
        self.gray_rounds = 0
        self.reroute_rounds = 0
        #: First healthy catchment PoP seen per vantage — the "where this
        #: vantage's packets are supposed to land" reference for churn.
        self._baseline_pops: dict[object, str] = {}
        #: In-flight hedge state: vantages whose *previous* judged round
        #: stayed slow even after the hedged re-probe.  The hedge is one
        #: second opinion per episode — a latched vantage is not re-hedged
        #: while its slowness persists; a healthy round unlatches it.
        self._hedge_confirmed: set[object] = set()
        self._latencies: deque[float] = deque(maxlen=latency_window)
        self._first_failure_at: float | None = None
        self._next_probe_at: float | None = None  # None: probe on first tick

    # -- probing -------------------------------------------------------------

    def probe_from(self, vantage: object) -> ProbeResult:
        """One full-path probe: fresh resolver (no cache — synthetic
        monitors must see the *current* answer), then a real fetch."""
        now = self.clock.now()
        resolver = RecursiveResolver(
            f"probe-{vantage}-{self.probes_run}",
            self.clock,
            self.cdn.dns_transport(vantage),
            tcp_transport=self.cdn.dns_transport(vantage, protocol="tcp"),
            rng=random.Random(self._rng.getrandbits(32)),
        )
        try:
            addresses = resolver.resolve_addresses(self.probe_hostname)
        except ResolveError as exc:
            return ProbeResult(now, vantage, None, None, False, f"dns: {exc}",
                               latency_s=self.clock.now() - now)
        if not addresses:
            return ProbeResult(now, vantage, None, None, False, "dns: empty answer",
                               latency_s=self.clock.now() - now)
        address = addresses[0]
        pop = self.cdn.network.pop_for(vantage, address)
        transport = self.cdn.transport_for(vantage)
        try:
            connection = transport.handshake(
                f"probe-{vantage}", address, 443,
                ClientHello(sni=self.probe_hostname), HTTPVersion.H2,
            )
            response = transport.serve(
                connection, Request(authority=self.probe_hostname, path="/")
            )
        except (ConnectionRefusedError, ConnectionResetError, TLSError) as exc:
            return ProbeResult(now, vantage, address, pop, False, f"data path: {exc}",
                               latency_s=self.clock.now() - now)
        latency = (self.clock.now() - now) + response.latency_s
        return ProbeResult(now, vantage, address, pop, True, latency_s=latency)

    def probe_round(self) -> list[ProbeResult]:
        """Probe every vantage once and react; returns the results."""
        self.probes_run += 1
        results = [self.probe_from(v) for v in self.vantages]
        failures = [r for r in results if not r.ok]
        rerouted = self._note_catchments(results)
        for r in failures:
            self.timeline.emit(
                r.at, "probe_failed", str(r.vantage),
                f"{r.address} via {r.pop}: {r.detail}", phase="observe",
            )
        if failures:
            if self.consecutive_failures == 0:
                self._first_failure_at = failures[0].at
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.failure_threshold:
                # When every failing vantage's catchment has shifted from
                # its learned baseline, routing churn — not server health —
                # explains the failures.
                reason = (
                    "routing"
                    if self.detect_routing and failures
                    and all(self._is_rerouted(r) for r in failures)
                    else "blackhole"
                )
                self._trigger_failover(failures, reason=reason)
        else:
            if self.consecutive_failures:
                self.timeline.emit(
                    self.clock.now(), "probe_recovered", self.policy_name,
                    phase="observe",
                )
            self.consecutive_failures = 0
            self._first_failure_at = None
            self._observe_reroutes(rerouted)
            self._observe_latencies(results)
        return results

    # -- routing-aware detection ----------------------------------------------

    def _is_rerouted(self, result: ProbeResult) -> bool:
        baseline = self._baseline_pops.get(result.vantage)
        return baseline is not None and result.pop != baseline

    def _note_catchments(self, results: list[ProbeResult]) -> list[ProbeResult]:
        """Learn first-seen baselines; return this round's rerouted probes."""
        if not self.detect_routing:
            return []
        rerouted: list[ProbeResult] = []
        for r in results:
            baseline = self._baseline_pops.get(r.vantage)
            if baseline is None:
                if r.ok and r.pop is not None:
                    self._baseline_pops[r.vantage] = r.pop
                continue
            if r.pop != baseline:
                rerouted.append(r)
                self.timeline.emit(
                    r.at, "probe_rerouted", str(r.vantage),
                    f"{r.address} now via {r.pop or 'blackhole'}, "
                    f"baseline {baseline}", phase="observe",
                )
        return rerouted

    def _observe_reroutes(self, rerouted: list[ProbeResult]) -> None:
        """Healthy-round churn: probes succeed but land on the wrong PoP.

        This is the leak signature — a :class:`LeakingExport` AS pulls a
        vantage cross-region and the probe still *works*, just via the
        wrong catchment — so it must drain the pool on its own, without
        waiting for anything to fail.
        """
        if not self.detect_routing or self.failed_over:
            return
        if rerouted:
            self.reroute_rounds += 1
            if self.consecutive_rerouted == 0:
                self._first_failure_at = rerouted[0].at
            self.consecutive_rerouted += 1
            if self.consecutive_rerouted >= self.routing_threshold:
                self.timeline.emit(
                    self.clock.now(), "routing_churn_detected", self.policy_name,
                    f"{len(rerouted)} vantage(s) rerouted, "
                    f"{self.consecutive_rerouted} consecutive rounds",
                    phase="observe",
                )
                self._trigger_failover(rerouted, reason="routing")
        else:
            self.consecutive_rerouted = 0

    def latency_baseline(self) -> float | None:
        """Median of the latency window after ejecting the slowest eighth.

        ``None`` until ``min_latency_samples`` healthy probes have been
        seen — the monitor never judges slowness against an empty or
        still-warming baseline.  Outlier ejection keeps one chronically
        slow vantage from dragging the baseline up until slow looks
        normal (the classic gray-failure masking bug).
        """
        if len(self._latencies) < self.min_latency_samples:
            return None
        ordered = sorted(self._latencies)
        keep = ordered[: len(ordered) - len(ordered) // 8] or ordered
        return keep[len(keep) // 2]

    def _observe_latencies(self, results: list[ProbeResult]) -> None:
        """Gray-failure detection over an all-ok probe round.

        A probe slower than ``latency_factor × baseline`` is re-probed
        once (the hedge); if the pair's best time is still slow the
        vantage counts as *slow* this round.  Only a round where every
        vantage is slow is a gray round — pop-wide degradation, not one
        bad path — and ``gray_threshold`` consecutive gray rounds drain
        the pool through the same failover path a blackhole takes.
        """
        if self.latency_factor <= 0 or self.failed_over:
            for r in results:
                self._latencies.append(r.latency_s)
            return
        baseline = self.latency_baseline()
        if baseline is None or baseline <= 0:
            for r in results:
                self._latencies.append(r.latency_s)
            return
        threshold = baseline * self.latency_factor
        slow: list[ProbeResult] = []
        healthy: list[ProbeResult] = []
        for r in results:
            if (r.latency_s > threshold and self.hedged_probes
                    and r.vantage not in self._hedge_confirmed):
                self.hedges_run += 1
                hedge = self.probe_from(r.vantage)
                if hedge.ok and hedge.latency_s < r.latency_s:
                    r = hedge
            if r.latency_s > threshold:
                slow.append(r)
                self.timeline.emit(
                    r.at, "probe_slow", str(r.vantage),
                    f"{r.address} via {r.pop}: {r.latency_s * 1e3:.0f}ms "
                    f"vs baseline {baseline * 1e3:.0f}ms", phase="observe",
                )
            else:
                healthy.append(r)
        self._hedge_confirmed = {r.vantage for r in slow}
        if slow and not healthy:
            self.gray_rounds += 1
            if self.consecutive_gray == 0:
                self._first_failure_at = slow[0].at
            self.consecutive_gray += 1
            if self.consecutive_gray >= self.gray_threshold:
                self.timeline.emit(
                    self.clock.now(), "gray_detected", self.policy_name,
                    f"{len(slow)} vantage(s) slow after hedging, "
                    f"{self.consecutive_gray} consecutive rounds",
                    phase="observe",
                )
                self._trigger_failover(slow, reason="latency")
        else:
            if self.consecutive_gray:
                self.timeline.emit(
                    self.clock.now(), "gray_recovered", self.policy_name,
                    phase="observe",
                )
            self.consecutive_gray = 0
            if self.consecutive_rerouted == 0:
                self._first_failure_at = None
            # Only feed the baseline from rounds that are not suspect —
            # learning the gray latency as the new normal would mask it.
            for r in healthy:
                self._latencies.append(r.latency_s)

    def tick(self) -> list[ProbeResult]:
        """Probe if a probe is due; the scenario loop calls this freely."""
        now = self.clock.now()
        if self._next_probe_at is not None and now < self._next_probe_at:
            return []
        self._next_probe_at = now + self.probe_interval
        return self.probe_round()

    # -- reaction ------------------------------------------------------------

    def _precheck_failover(self) -> None:
        """Verify the post-swap control plane before enacting the swap.

        The §6 mitigation only restores service when the standby prefix is
        already announced and already dispatched by the edge — exactly what
        the default check passes prove.  A failing precheck means the
        swap would trade a blackhole for another blackhole.
        """
        from ..check.core import CheckError
        from ..check.deployment import precheck_rebind
        from ..check.plan import RebindPlan, verify_plan

        report = precheck_rebind(
            self.cdn, self.controller.engine, self.policy_name,
            self.failover_pool,
        )
        if not report.ok:
            rendered = "; ".join(f.message for f in report.errors)
            self.timeline.emit(
                self.clock.now(), "precheck_failed", self.policy_name,
                f"standby {self.failover_pool.name or self.failover_pool.advertised}: "
                f"{rendered}",
                phase="check",
            )
            if self.strict_checks:
                raise CheckError(
                    f"failover of {self.policy_name!r} rejected by precheck: "
                    f"{rendered}",
                    report.errors,
                )
            logging.getLogger("repro.check").warning(
                "failover precheck found errors (proceeding; strict_checks "
                "would refuse): %s", rendered,
            )
        # Symbolic pre-flight: diff the packet space across the swap and
        # record plan_verified/plan_unsafe on the timeline (phase="check")
        # — the chaos plan_safety invariant audits exactly this record.
        diff = verify_plan(
            RebindPlan(kind="failover", policy=self.policy_name,
                       pool=self.failover_pool),
            self.cdn, self.controller.engine,
            timeline=self.timeline, clock=self.clock,
            strict=self.strict_checks,
        )
        if not diff.ok:
            logging.getLogger("repro.check").warning(
                "failover plan is unsafe (proceeding; strict_checks would "
                "refuse): %s", "; ".join(f.message for f in diff.report.errors),
            )

    def _trigger_failover(
        self, failures: list[ProbeResult], reason: str = "blackhole"
    ) -> None:
        if self.failed_over or self.failover_pool is None:
            return
        trace = None
        if self.tracer is not None:
            trace = self.tracer.next_trace_id("failover")
            self.last_failover_trace = trace
            # Detection: first failed probe of this run → threshold crossed.
            detect_start = (
                self._first_failure_at if self._first_failure_at is not None
                else self.clock.now()
            )
            if reason == "latency":
                detect_detail = (
                    f"{self.consecutive_gray}/{self.gray_threshold} all-slow rounds"
                )
            elif reason == "routing":
                detect_detail = (
                    f"catchment shifted from baseline "
                    f"({max(self.consecutive_rerouted, self.consecutive_failures)} "
                    f"round(s))"
                )
            else:
                detect_detail = (
                    f"{self.consecutive_failures}/{self.failure_threshold} failed rounds"
                )
            self.tracer.record(
                trace, "detect", detect_start, self.clock.now(), detect_detail,
            )
        if trace is not None:
            with self.tracer.span(trace, "precheck",
                                  f"standby {self.failover_pool.name}"):
                self._precheck_failover()
        else:
            self._precheck_failover()
        rebind_start = self.clock.now()
        op = self.controller.swap_pool(self.policy_name, self.failover_pool)
        if trace is not None:
            self.tracer.record(
                trace, "rebind", rebind_start, self.clock.now(),
                f"swap to {self.failover_pool.name}; "
                f"horizon t={op.propagation_horizon:.0f}",
            )
        self.failed_over = True
        self.consecutive_failures = 0
        self.consecutive_gray = 0
        self.consecutive_rerouted = 0
        verb = {"latency": "slow", "routing": "rerouted"}.get(reason, "failing")
        affected = sorted({str(r.pop) for r in failures})
        self.timeline.emit(
            self.clock.now(), "failover_triggered", self.policy_name,
            f"drained to {self.failover_pool.name} ({verb}: {', '.join(affected)}); "
            f"horizon t={op.propagation_horizon:.0f}",
            phase="react",
        )

    def reset(self) -> None:
        """Re-arm after the operator repairs and fails back manually.

        Clears the failover latch *and* all latency state — the repaired
        pool's baseline must be re-learned from scratch, not judged
        against the pre-incident window.
        """
        self.failed_over = False
        self.consecutive_failures = 0
        self.consecutive_gray = 0
        self.consecutive_rerouted = 0
        self._baseline_pops.clear()
        # In-flight hedge state must not survive a reset: a stale latch
        # would suppress the post-repair hedge and let a one-off slow
        # probe count straight into a second gray episode.
        self._hedge_confirmed.clear()
        self._latencies.clear()
        self._first_failure_at = None
