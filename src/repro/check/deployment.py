"""Adapters: build a CheckContext from live deployment objects.

The checkers consume value types (:class:`~repro.check.core.PolicyInfo`,
:class:`~repro.check.core.ProgramView`); these helpers extract them from a
running :class:`~repro.deploy.Deployment` or a bare CDN + engine pair, and
implement the *precheck a rebind* pattern: substitute the candidate pool
into the extracted state and verify the hypothetical configuration before
the controller enacts it — the control-plane equivalent of the BPF
verifier rejecting a program at attach time rather than at run time.
"""

from __future__ import annotations

import dataclasses

from ..core.pool import AddressPool
from ..netsim.addr import Prefix
from .controlplane import ControlPlaneChecker
from .core import CheckContext, PolicyInfo, ProgramView, Report, run_checkers

__all__ = [
    "context_from_cdn",
    "context_from_deployment",
    "precheck_rebind",
]


def context_from_cdn(
    cdn,
    engine,
    standby_pools: list[AddressPool] | None = None,
    service_ports: tuple[int, ...] | None = None,
    deployment=None,
) -> CheckContext:
    """Extract checker state from a CDN and a policy engine.

    ``deployment`` (optional) enables the live end-to-end dispatch probe;
    without it the reachability check walks announcements + program rules
    statically.
    """
    policies = [PolicyInfo.from_policy(p) for p in engine.policies()] if engine else []
    announced = list(cdn.network.announced_prefixes())
    listening: list[Prefix] = []
    programs: list[ProgramView] = []
    ports: set[int] = set(service_ports or ())
    for dc in cdn.datacenters.values():
        for server in dc.servers.values():
            for pool in server.pools:
                if pool not in listening:
                    listening.append(pool)
            for program in server.lookup_path.programs():
                programs.append(ProgramView.from_program(program, path=server.name))
            if service_ports is None:
                ports.update(
                    sock.local_port for sock in server.table.sockets()
                    if sock.local_port is not None
                )
    return CheckContext(
        policies=policies,
        standby_pools=list(standby_pools or []),
        announced=announced,
        listening=listening,
        programs=programs,
        service_ports=tuple(sorted(ports)) or (80, 443),
        deployment=deployment,
    )


def context_from_deployment(dep, live: bool = True) -> CheckContext:
    """Checker state for a full :class:`~repro.deploy.Deployment`."""
    standby = [dep.backup_pool] if dep.backup_pool is not None else []
    return context_from_cdn(
        dep.cdn,
        dep.engine,
        standby_pools=standby,
        service_ports=tuple(dep.config.ports),
        deployment=dep if live else None,
    )


def precheck_rebind(
    cdn,
    engine,
    policy_name: str,
    new_pool: AddressPool,
    standby_pools: list[AddressPool] | None = None,
    service_ports: tuple[int, ...] | None = None,
    deployment=None,
    symbolic: bool = False,
) -> Report:
    """Verify the control plane *as it would be* after a rebind.

    Substitutes ``new_pool`` for ``policy_name``'s pool in the extracted
    state and runs the control-plane checker — plus, with ``symbolic``,
    the exact packet-space pass (:class:`~repro.check.symbolic
    .SymbolicChecker`), which upgrades the sampled reachability check to
    a proof over the hypothetical state.  The live engine is never
    touched; an error finding means the maneuver would mint unroutable,
    unterminated, or undispatched addresses — reject it like a bad BPF
    program instead of blackholing at TTL timescales.
    """
    ctx = context_from_cdn(
        cdn, engine,
        standby_pools=standby_pools,
        service_ports=service_ports,
        deployment=deployment,
    )
    replaced = False
    for i, info in enumerate(ctx.policies):
        if info.name == policy_name:
            ctx.policies[i] = dataclasses.replace(info, pool=new_pool)
            replaced = True
    if not replaced:
        raise KeyError(f"no policy named {policy_name!r} to precheck")
    checkers: list = [ControlPlaneChecker()]
    if symbolic:
        from .symbolic import SymbolicChecker

        checkers.append(SymbolicChecker())
    return run_checkers(ctx, checkers)
