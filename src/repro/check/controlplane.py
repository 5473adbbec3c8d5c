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
* ``CP004 standby-undispatched`` — standby space the monitor would swap in
  (pool × service ports × {tcp, udp}) that a lookup path's live redirects
  leave uncovered: the §6 mitigation move would itself blackhole;
* ``CP005/CP006`` — TTL sanity: TTL 0 disables caching (DNS load, §5.2),
  TTLs past the horizon defeat TTL-bounded agility (§4.4);
* ``CP007 soa-minimum``        — negative-TTL sanity for the zone;
* ``CP008 unreachable-address`` — the live probe (deployment only):
  sampled mintable addresses replayed on every service port through real
  BGP catchments and real sockets.  It cross-checks the model that SK100
  and SK006 (:mod:`repro.check.symbolic`, :mod:`repro.check.program`)
  prove exactly;
* ``CP009 shadowed-policy``    — a policy that owns no cell of the engine's
  first-match index (:class:`~repro.core.policy.PolicyIndex`): earlier
  policies answer everything it matches, or its match can never hold.  The
  policy-table analogue of ``SK002``.

Every coverage and dispatch verdict is set arithmetic in the packet-space
algebra of :mod:`repro.check.symbolic`.
"""

from __future__ import annotations

import random

from ..core.policy import Policy, PolicyIndex
from ..core.pool import AddressPool
from ..netsim.addr import IPAddress
from ..netsim.packet import FiveTuple, Packet, Protocol
from .core import Checker, CheckContext, Finding, PolicyInfo, Severity
from .symbolic import PacketSpace, mintable_space, prefix_space, view_verdicts

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
        announced, listening = prefix_space(ctx.announced), prefix_space(ctx.listening)
        for policy in ctx.policies:
            where = f"policy:{policy.name}"
            findings.extend(self._check_coverage(ctx, announced, listening, policy.pool, where))
            findings.extend(self._check_ttl(ctx, policy))
        findings.extend(self._check_overlaps(ctx))
        findings.extend(self._check_shadowed(ctx))
        for pool in ctx.standby_pools:
            where = f"standby:{pool.name}"
            findings.extend(self._check_coverage(ctx, announced, listening, pool, where))
            findings.extend(self._check_standby_dispatch(ctx, pool, where))
        findings.extend(self._check_soa_minimum(ctx))
        if ctx.deployment is not None:
            for policy in ctx.policies:
                findings.extend(self._check_end_to_end(ctx, policy))
        return findings

    # -- CP001/CP002: route + termination coverage --------------------------------

    def _check_coverage(
        self, ctx: CheckContext, announced: PacketSpace, listening: PacketSpace,
        pool: AddressPool, where: str,
    ) -> list[Finding]:
        findings = []
        space = prefix_space((pool.advertised,))
        if ctx.announced and not announced.covers(space):
            findings.append(Finding(
                "CP001", "unrouted-pool", Severity.ERROR,
                f"pool {pool.advertised} is outside every announced prefix; "
                "minted answers are unroutable",
                where, "announce the covering prefix via BGP, or re-home the pool",
            ))
        if ctx.listening and not listening.covers(space):
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
        spaces = [prefix_space((p.pool.advertised,)) for p in ctx.policies]
        for i, a in enumerate(ctx.policies):
            for j, b in enumerate(ctx.policies[i + 1:], i + 1):
                if a.pool is b.pool:
                    continue  # sharing one pool object is a deliberate choice
                if not spaces[i].intersect(spaces[j]).is_empty():
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
        standby = mintable_space(pool, ctx.service_ports)
        messages: dict[str, None] = {}
        for path, views in sorted(ctx.paths().items()):
            verdicts = view_verdicts(views, standby)
            # Drop, pass and miss: everything no live redirect takes.
            left = PacketSpace.from_disjoint(
                rect for key, space in verdicts.items()
                if not isinstance(key, tuple) for rect in space
            )
            if left.is_empty():
                continue
            if left.points == standby.points:
                messages[f"standby pool {pool.advertised} is not covered by any "
                         "sk_lookup redirect rule with a live socket"] = None
            else:
                messages[f"standby pool {pool.advertised} leaves {len(left)} "
                         f"region(s) without a live sk_lookup redirect on path "
                         f"{path!r} ({left.render(limit=4)})"] = None
        return [Finding(
            "CP004", "standby-undispatched", Severity.ERROR,
            f"{message}: failing over to it would blackhole exactly when the "
            "monitor fires",
            where, "install redirect rules for the standby prefix on every "
                   "server (add_pool) before arming the monitor",
        ) for message in messages]

    # -- CP008: the live end-to-end probe -------------------------------------------------------

    def _check_end_to_end(self, ctx: CheckContext, policy: PolicyInfo) -> list[Finding]:
        probes = sample_pool_addresses(policy.pool, ctx.samples_per_pool)
        failures = self._probe_live(ctx, probes)
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

    def _probe_live(
        self, ctx: CheckContext, probes: list[IPAddress]
    ) -> list[tuple[IPAddress, str]]:
        """Real catchment + real socket dispatch, no DNS.

        Probes the data path the way a minted answer would be used: pick a
        vantage per region, route via BGP catchments, then run a SYN for
        every service port through a server's lookup path at the caught PoP.
        """
        network = ctx.deployment.cdn.network
        vantages = _one_vantage_per_region(network)
        failures = []
        for addr in probes:
            reason = self._probe_address(ctx, vantages, addr)
            if reason is not None:
                failures.append((addr, reason))
        return failures

    @staticmethod
    def _probe_address(ctx: CheckContext, vantages: list, addr: IPAddress) -> str | None:
        cdn = ctx.deployment.cdn
        src = IPAddress.from_text("100.64.0.9")
        for vantage in vantages:
            pop = cdn.network.pop_for(vantage, addr)
            if pop is None:
                return f"AS {vantage} has no route (blackhole)"
            server = next(
                (s for s in cdn.datacenters[pop].servers.values() if not s.crashed), None
            )
            if server is None:
                return f"PoP {pop} has no healthy server"
            for port in ctx.service_ports or (443,):
                packet = Packet(FiveTuple(Protocol.TCP, src, 40_001, addr, port), syn=True)
                result = server.dispatch(packet, deliver=False)
                if result.socket is None:
                    return (f"PoP {pop} lookup path returns no socket "
                            f"(stage={result.stage.value}) for port {port}")
        return None


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
