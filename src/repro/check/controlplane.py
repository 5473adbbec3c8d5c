"""Pass 2: the policy/pool control-plane checker.

§3.1–§3.2 turn addresses into a schedulable resource minted per-query by
policies; nothing in the runtime stops a policy from minting addresses
nobody routes (no BGP announcement covers them), nobody terminates (no
edge server listens), or nobody dispatches (no sk_lookup rule steers
them).  Each of those is a silent blackhole — DNS answers flow, packets
die.  This pass cross-validates the policy layer against the routing and
socket layers *before* a config (or a rebind) goes live, the same
reject-at-attach-time discipline the BPF verifier gives programs.

Checks:

* ``CP001 unrouted-pool``      — pool outside every announced prefix;
* ``CP002 unlistened-pool``    — pool no edge server terminates;
* ``CP003 pool-overlap``       — distinct policies minting from overlapping
  address space (load accounting and DoS attribution become ambiguous);
* ``CP004 standby-undispatched`` — a failover pool the monitor would swap
  in that no program's redirect rules cover: the §6 mitigation move would
  itself blackhole;
* ``CP005/CP006`` — TTL sanity: TTL 0 disables caching (DNS load, §5.2),
  TTLs past the horizon defeat TTL-bounded agility (§4.4);
* ``CP007 soa-minimum``        — negative-TTL sanity for the zone;
* ``CP008 unreachable-address`` — sampled end-to-end reachability: every
  address a policy can mint must route to a PoP and dispatch to a
  listening socket (live deployment), or be covered by announcement +
  redirect rules (config mode);
* ``CP009 shadowed-policy``    — a policy that owns no cell of the engine's
  first-match index (:class:`~repro.core.policy.PolicyIndex`): earlier
  policies answer everything it matches, or its match can never hold.  The
  policy-table analogue of ``SK002``.
"""

from __future__ import annotations

import random

from ..core.policy import Policy, PolicyIndex
from ..core.pool import AddressPool
from ..netsim.addr import IPAddress, Prefix
from ..netsim.packet import FiveTuple, Packet, Protocol
from ..sockets.sklookup import Verdict
from .core import Checker, CheckContext, Finding, PolicyInfo, ProgramView, Severity

__all__ = ["ControlPlaneChecker", "sample_pool_addresses"]

#: Deterministic seed for address sampling — findings must be reproducible.
_SAMPLE_SEED = 0xC3EC


def sample_pool_addresses(pool: AddressPool, samples: int) -> list[IPAddress]:
    """A deterministic probe set from a pool's *active* (mintable) set.

    Corners first (first/last of the active prefix) plus seeded uniform
    draws; explicit address lists are taken verbatim up to a cap.  The
    same pool always yields the same probes, so check output is stable.
    """
    explicit = pool.active_addresses()
    if explicit is not None:
        return list(explicit[: max(samples, 2)])
    prefix = pool.active_prefix
    assert prefix is not None
    rng = random.Random(_SAMPLE_SEED ^ prefix.network ^ prefix.length)
    out = [prefix.first, prefix.last]
    for _ in range(samples):
        out.append(prefix.random_address(rng))
    seen: set[IPAddress] = set()
    unique = []
    for addr in out:
        if addr not in seen:
            seen.add(addr)
            unique.append(addr)
    return unique


class ControlPlaneChecker(Checker):
    """Cross-layer validation of policies, pools, routes, and dispatch."""

    name = "controlplane"

    def run(self, ctx: CheckContext) -> list[Finding]:
        findings: list[Finding] = []
        for policy in ctx.policies:
            findings.extend(self._check_coverage(ctx, policy.pool, f"policy:{policy.name}"))
            findings.extend(self._check_ttl(ctx, policy))
        findings.extend(self._check_overlaps(ctx))
        findings.extend(self._check_shadowed(ctx))
        for pool in ctx.standby_pools:
            where = f"standby:{pool.name}"
            findings.extend(self._check_coverage(ctx, pool, where))
            findings.extend(self._check_standby_dispatch(ctx, pool, where))
        findings.extend(self._check_soa_minimum(ctx))
        for policy in ctx.policies:
            findings.extend(self._check_end_to_end(ctx, policy))
        return findings

    # -- CP001/CP002: route + termination coverage --------------------------------

    def _check_coverage(self, ctx: CheckContext, pool: AddressPool, where: str) -> list[Finding]:
        findings = []
        if ctx.announced and not ctx.covered_by_announced(pool.advertised):
            findings.append(Finding(
                "CP001", "unrouted-pool", Severity.ERROR,
                f"pool {pool.advertised} is outside every announced prefix; "
                "minted answers are unroutable",
                where, "announce the covering prefix via BGP, or re-home the pool",
            ))
        if ctx.listening and not ctx.covered_by_listening(pool.advertised):
            findings.append(Finding(
                "CP002", "unlistened-pool", Severity.ERROR,
                f"no edge server terminates {pool.advertised}; connections to "
                "minted addresses are refused",
                where, "add the prefix to the servers' listening config "
                       "(announce_pool / add_pool)",
            ))
        return findings

    # -- CP003: pools overlapping across policies ----------------------------------

    def _check_overlaps(self, ctx: CheckContext) -> list[Finding]:
        findings = []
        for i, a in enumerate(ctx.policies):
            for b in ctx.policies[i + 1:]:
                if a.pool is b.pool:
                    continue  # sharing one pool object is a deliberate choice
                if a.pool.advertised.overlaps(b.pool.advertised):
                    findings.append(Finding(
                        "CP003", "pool-overlap", Severity.WARNING,
                        f"pool {a.pool.advertised} overlaps policy {b.name!r}'s "
                        f"pool {b.pool.advertised}; per-address load attribution "
                        "and DoS isolation become ambiguous",
                        f"policy:{a.name}",
                        "give each policy disjoint space, or share one pool object",
                    ))
        return findings

    # -- CP009: policies the first-match order leaves nothing to ------------------------

    def _check_shadowed(self, ctx: CheckContext) -> list[Finding]:
        # Rebuilt as Policy objects so the verdict is the engine's own index's.
        table = sorted(
            (Policy(p.name, p.pool, match=p.match, priority=p.priority) for p in ctx.policies),
            key=lambda policy: policy.priority,
        )
        owners = PolicyIndex(table).owners()
        return [
            Finding(
                "CP009", "shadowed-policy", Severity.ERROR,
                "can never answer: earlier policies take every attribute "
                "combination it matches, or its match (or pool family) can never hold",
                f"policy:{policy.name}",
                "remove the dead policy, or reorder/narrow the earlier one",
            )
            for policy in table if policy not in owners
        ]

    # -- CP005/CP006: TTL sanity ------------------------------------------------------

    def _check_ttl(self, ctx: CheckContext, policy: PolicyInfo) -> list[Finding]:
        findings = []
        where = f"policy:{policy.name}"
        if policy.ttl == 0:
            findings.append(Finding(
                "CP005", "ttl-zero", Severity.WARNING,
                "TTL 0 disables downstream caching: every client fetch becomes an "
                "authoritative query (the §5.2 DNS-load regime)",
                where, "use a small positive TTL (the deployment ran 30 s)",
            ))
        elif policy.ttl > ctx.ttl_horizon_max:
            findings.append(Finding(
                "CP006", "ttl-horizon", Severity.WARNING,
                f"TTL {policy.ttl}s exceeds the agility horizon "
                f"({ctx.ttl_horizon_max}s): rebinds/failovers stay blackholed in "
                "caches for that long (§4.4 bound)",
                where, "lower the TTL, or raise ttl_horizon_max if this is deliberate",
            ))
        return findings

    # -- CP007: negative-TTL sanity -----------------------------------------------------

    def _check_soa_minimum(self, ctx: CheckContext) -> list[Finding]:
        if ctx.soa_minimum is None:
            return []
        findings = []
        if ctx.soa_minimum == 0:
            findings.append(Finding(
                "CP007", "soa-minimum-zero", Severity.WARNING,
                "SOA minimum 0 disables negative caching: NXDOMAIN storms hit the "
                "authoritative directly",
                "zone", "set a small positive SOA minimum (minutes)",
            ))
        elif ctx.soa_minimum > ctx.ttl_horizon_max:
            findings.append(Finding(
                "CP007", "soa-minimum-horizon", Severity.WARNING,
                f"SOA minimum {ctx.soa_minimum}s pins negative answers past the "
                f"agility horizon ({ctx.ttl_horizon_max}s): a hostname brought up "
                "after a miss stays dark that long",
                "zone", "lower the SOA minimum",
            ))
        return findings

    # -- CP004: standby pools the failover monitor would swap in ---------------------------

    def _check_standby_dispatch(
        self, ctx: CheckContext, pool: AddressPool, where: str
    ) -> list[Finding]:
        if not ctx.programs:
            return []
        if self._any_program_dispatches(ctx, pool.advertised):
            return []
        return [Finding(
            "CP004", "standby-undispatched", Severity.ERROR,
            f"standby pool {pool.advertised} is not covered by any sk_lookup "
            "redirect rule with a live socket: failing over to it would "
            "blackhole exactly when the monitor fires",
            where, "install redirect rules for the standby prefix on every "
                   "server (add_pool) before arming the monitor",
        )]

    def _any_program_dispatches(self, ctx: CheckContext, prefix: Prefix) -> bool:
        for program in ctx.programs:
            for rule in program.rules:
                if not (rule.is_redirect and rule.map_key in program.live_slots):
                    continue
                if ctx.service_ports and not any(
                    rule.port_lo <= p <= rule.port_hi for p in ctx.service_ports
                ):
                    continue
                if not rule.prefixes or any(p.overlaps(prefix) for p in rule.prefixes):
                    return True
        return False

    # -- CP008: sampled end-to-end reachability ----------------------------------------------

    def _check_end_to_end(self, ctx: CheckContext, policy: PolicyInfo) -> list[Finding]:
        probes = sample_pool_addresses(policy.pool, ctx.samples_per_pool)
        if ctx.deployment is not None:
            failures = self._probe_live(ctx, probes)
        elif ctx.programs or ctx.announced:
            failures = self._probe_static(ctx, probes)
        else:
            return []
        if not failures:
            return []
        addr, reason = failures[0]
        return [Finding(
            "CP008", "unreachable-address", Severity.ERROR,
            f"{len(failures)}/{len(probes)} sampled mintable addresses do not "
            f"reach a listening socket end-to-end; first: {addr} ({reason})",
            f"policy:{policy.name}",
            "every address a policy can mint must be announced, steered by a "
            "redirect rule, and terminate on a live socket",
        )]

    def _probe_static(
        self, ctx: CheckContext, probes: list[IPAddress]
    ) -> list[tuple[IPAddress, str]]:
        """Config mode: walk announcement coverage + program first-match."""
        failures = []
        for addr in probes:
            if ctx.announced and not any(addr in p for p in ctx.announced):
                failures.append((addr, "no announced prefix covers it"))
                continue
            if ctx.programs:
                verdict = self._static_dispatch(ctx, addr)
                if verdict is not None:
                    failures.append((addr, verdict))
        return failures

    def _static_dispatch(self, ctx: CheckContext, addr: IPAddress) -> str | None:
        """First-match walk of every program for (addr, each service port).

        Returns a failure description, or ``None`` when every service port
        dispatches somewhere.
        """
        for port in ctx.service_ports or (443,):
            outcome = "miss"
            for program in ctx.programs:
                outcome = self._program_outcome(program, addr, port)
                if outcome != "miss":
                    break
            if outcome == "drop":
                return f"a DROP rule swallows port {port}"
            if outcome == "miss":
                return f"no program dispatches port {port}"
        return None

    @staticmethod
    def _program_outcome(program: ProgramView, addr: IPAddress, port: int) -> str:
        for rule in program.rules:
            if rule.protocol is not None and rule.protocol.wire_protocol is not Protocol.TCP:
                continue
            if not rule.port_lo <= port <= rule.port_hi:
                continue
            if rule.prefixes and not any(addr in p for p in rule.prefixes):
                continue
            if rule.action is Verdict.DROP:
                return "drop"
            if rule.is_redirect:
                if rule.map_key in program.live_slots:
                    return "redirect"
                continue  # empty slot falls through to the next rule
            return "pass"  # explicit pass-through: normal lookup proceeds
        return "miss"

    def _probe_live(
        self, ctx: CheckContext, probes: list[IPAddress]
    ) -> list[tuple[IPAddress, str]]:
        """Deployment mode: real catchment + real socket dispatch, no DNS.

        Probes the data path the way a minted answer would be used: pick a
        vantage per region, route via BGP catchments, then run the SYN
        through a server's lookup path at the caught PoP.
        """
        dep = ctx.deployment
        network = dep.cdn.network
        vantages = _one_vantage_per_region(network)
        src = IPAddress.from_text("100.64.0.9")
        failures = []
        for addr in probes:
            reason = None
            for vantage in vantages:
                pop = network.pop_for(vantage, addr)
                if pop is None:
                    reason = f"AS {vantage} has no route (blackhole)"
                    break
                dc = dep.cdn.datacenters[pop]
                server = next(
                    (s for s in dc.servers.values() if not s.crashed), None
                )
                if server is None:
                    reason = f"PoP {pop} has no healthy server"
                    break
                port = (ctx.service_ports or (443,))[0]
                packet = Packet(FiveTuple(Protocol.TCP, src, 40_001, addr, port), syn=True)
                result = server.dispatch(packet, deliver=False)
                if result.socket is None:
                    reason = (f"PoP {pop} lookup path returns no socket "
                              f"(stage={result.stage.value}) for port {port}")
                    break
            if reason is not None:
                failures.append((addr, reason))
        return failures


def _one_vantage_per_region(network) -> list[object]:
    """First eyeball AS per region, sorted — deterministic and cheap."""
    by_region: dict[str, object] = {}
    for asn in sorted(network.client_ases(), key=str):
        name = str(asn)
        if not name.startswith("eyeball:"):
            continue
        region = name.split(":")[1] if ":" in name else ""
        by_region.setdefault(region, asn)
    return [by_region[r] for r in sorted(by_region)]
