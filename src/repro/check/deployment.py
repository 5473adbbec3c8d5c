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

    ``deployment`` (optional) enables CP008's live end-to-end probe on real
    catchments and sockets.  Without ``service_ports``, the ports the edge
    sockets are bound to (``(80, 443)`` if none are).
    """
    policies = [PolicyInfo.from_policy(p) for p in engine.policies()] if engine else []
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
            if not service_ports:
                ports.update(
                    sock.local_port for sock in server.table.sockets()
                    if sock.local_port is not None
                )
    return CheckContext(
        policies=policies,
        standby_pools=list(standby_pools or []),
        announced=list(cdn.network.announced_prefixes()),
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
) -> Report:
    """Verify the control plane *as it would be* after a rebind.

    Substitutes ``new_pool`` for ``policy_name``'s pool in the extracted
    state and runs the default passes over the hypothetical state.  The
    live engine is never touched; an error finding means the maneuver
    would mint unroutable, unterminated, dropped, or undispatched
    addresses — reject it like a bad BPF program instead of blackholing
    at TTL timescales.  The program verifier is one of those passes (its
    SK006 names a DROP over the new pool), so a program-level error
    already in the state also fails the precheck.
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
    return run_checkers(ctx)
