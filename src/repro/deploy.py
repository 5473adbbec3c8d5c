"""One-call deployment assembly: the library's "just give me a CDN" API.

Every experiment, example, and downstream user repeats the same dance:
build a topology, a hostname universe, a CDN, announce pools, install
policies, wire client populations.  :class:`Deployment` packages that
dance behind a config dataclass while keeping every part swappable — the
underlying objects are all exposed.

    from repro.deploy import Deployment, DeploymentConfig

    dep = Deployment.build(DeploymentConfig(num_hostnames=500))
    client = dep.new_client("eyeball:us:0")
    client.fetch(dep.universe.site(0))
    dep.controller.set_active("default", parse_prefix("192.0.2.1/32"))
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

from .clock import Clock
from .core.agility import AgilityController
from .core.authoritative import PolicyAnswerSource
from .core.policy import Policy, PolicyEngine
from .core.pool import AddressPool
from .core.spec import AttributeDomain, compile_and_verify
from .core.strategies import SelectionStrategy
from .dns.cache import TTLPolicy
from .dns.resolver import RecursiveResolver
from .dns.stub import StubResolver
from .edge.cdn import CDN
from .edge.server import ListenMode
from .netsim.addr import Prefix, parse_prefix
from .netsim.anycast import AnycastNetwork, build_regional_topology
from .web.client import BrowserClient
from .web.http import HTTPVersion
from .workload.hostnames import HostnameUniverse, UniverseConfig

__all__ = ["DeploymentConfig", "Deployment"]


@dataclass(frozen=True, slots=True)
class DeploymentConfig:
    """Everything needed to stand up a deployment, with paper-ish defaults."""

    regions: dict[str, list[str]] = field(
        default_factory=lambda: {"us": ["ashburn"], "eu": ["london"]}
    )
    clients_per_region: int = 6
    servers_per_dc: int = 3
    num_hostnames: int = 200
    assets_per_site: int = 2
    advertised: str = "192.0.0.0/20"
    active: str | None = None          # None = full advertisement
    backup: str | None = "203.0.113.0/24"
    ports: tuple[int, ...] = (80, 443)
    listen_mode: str = ListenMode.SK_LOOKUP
    ttl: int = 30
    policy_name: str = "default"
    seed: int = 1
    #: Run the control-plane checker before every rebind manoeuvre and
    #: *refuse* (raise :class:`~repro.check.core.CheckError`) on error
    #: findings — the attach-time-verifier discipline applied to the
    #: control plane.  Default (False) logs instead of raising.
    strict_checks: bool = False

    def __post_init__(self) -> None:
        if self.listen_mode not in ListenMode.ALL:
            raise ValueError(f"unknown listen mode {self.listen_mode!r}")
        if not self.regions:
            raise ValueError("need at least one region")


class Deployment:
    """A fully wired CDN: network, universe, policies, controller."""

    def __init__(
        self,
        config: DeploymentConfig,
        clock: Clock,
        network: AnycastNetwork,
        universe: HostnameUniverse,
        cdn: CDN,
        engine: PolicyEngine,
        pool: AddressPool,
        backup_pool: AddressPool | None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.network = network
        self.universe = universe
        self.cdn = cdn
        self.engine = engine
        self.pool = pool
        self.backup_pool = backup_pool
        self.controller = AgilityController(engine, clock)
        self._client_counter = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        config: DeploymentConfig | None = None,
        strategy: SelectionStrategy | None = None,
    ) -> "Deployment":
        config = config or DeploymentConfig()
        clock = Clock()
        universe = HostnameUniverse(UniverseConfig(
            num_hostnames=config.num_hostnames,
            assets_per_site=config.assets_per_site,
            seed=config.seed,
        ))
        network = build_regional_topology(
            config.regions,
            clients_per_region=config.clients_per_region,
            rng=random.Random(config.seed),
        )
        cdn = CDN(network, universe.registry, universe.origins,
                  servers_per_dc=config.servers_per_dc)
        cdn.provision_certificates()

        advertised = parse_prefix(config.advertised)
        cdn.announce_pool(advertised, ports=config.ports, mode=config.listen_mode)
        backup_pool = None
        if config.backup is not None:
            backup_prefix = parse_prefix(config.backup)
            cdn.announce_pool(backup_prefix, ports=config.ports, mode=config.listen_mode)
            backup_pool = AddressPool(backup_prefix, name="backup")

        pool = AddressPool(
            advertised,
            active=parse_prefix(config.active) if config.active else None,
            name=f"{config.policy_name}-pool",
        )
        engine = PolicyEngine(random.Random(config.seed + 1))
        policy = Policy(config.policy_name, pool, ttl=config.ttl,
                        strategy=strategy) if strategy else Policy(
            config.policy_name, pool, ttl=config.ttl)
        engine.add(policy)
        cdn.set_answer_source(PolicyAnswerSource(engine, universe.registry))
        return cls(config, clock, network, universe, cdn, engine, pool, backup_pool)

    @classmethod
    def from_specs(
        cls,
        specs: list[dict],
        config: DeploymentConfig | None = None,
    ) -> "Deployment":
        """Build with a verified declarative policy set instead of the
        default single catch-all policy (see :mod:`repro.core.spec`)."""
        config = config or DeploymentConfig()
        deployment = cls.build(config)
        domain = AttributeDomain(pops=frozenset(deployment.cdn.pop_names()))
        advertised_space = [parse_prefix(config.advertised)]
        if config.backup:
            advertised_space.append(parse_prefix(config.backup))
        engine = compile_and_verify(specs, domain, advertised_space)
        deployment.engine = engine
        deployment.controller = AgilityController(engine, deployment.clock)
        deployment.cdn.set_answer_source(
            PolicyAnswerSource(engine, deployment.universe.registry)
        )
        return deployment

    # -- client factory --------------------------------------------------------

    def eyeballs(self) -> list[object]:
        return [a for a in self.network.client_ases() if str(a).startswith("eyeball")]

    def new_client(
        self,
        asn: object,
        version: HTTPVersion = HTTPVersion.H2,
        ttl_policy: TTLPolicy | None = None,
        resolver_asn: object | None = None,
    ) -> BrowserClient:
        """A browser attached at ``asn`` (resolver there too, unless told
        otherwise — pass ``resolver_asn`` to model the §6 mismatch)."""
        self._client_counter += 1
        tag = f"{asn}-{self._client_counter}"
        resolver = RecursiveResolver(
            f"res-{tag}", self.clock,
            transport=self.cdn.dns_transport(resolver_asn if resolver_asn is not None else asn),
            tcp_transport=self.cdn.dns_transport(
                resolver_asn if resolver_asn is not None else asn, protocol="tcp"
            ),
            ttl_policy=ttl_policy,
            asn=resolver_asn if resolver_asn is not None else asn,
        )
        stub = StubResolver(f"stub-{tag}", self.clock, resolver)
        return BrowserClient(f"client-{tag}", stub, self.cdn.transport_for(asn),
                             version=version)

    # -- static analysis ---------------------------------------------------------

    def check(self, lint: bool = False):
        """Run the static-analysis passes over this deployment.

        Returns the :class:`~repro.check.core.Report`; ``lint=True`` also
        runs the determinism lint over the installed ``repro`` sources.
        """
        from .check.cli import _default_lint_paths
        from .check.core import run_checkers
        from .check.deployment import context_from_deployment

        ctx = context_from_deployment(self)
        if lint:
            ctx.lint_paths = _default_lint_paths()
        return run_checkers(ctx)

    def _precheck_rebind(self, candidate_pool: AddressPool) -> None:
        """Verify the control plane as it would be *after* a rebind.

        Strict mode refuses the manoeuvre (raises ``CheckError``) when the
        candidate pool would mint unroutable or undispatched addresses;
        otherwise error findings are logged and the caller proceeds.
        """
        from .check.core import CheckError
        from .check.deployment import precheck_rebind

        report = precheck_rebind(
            self.cdn, self.engine, self.config.policy_name, candidate_pool,
            standby_pools=[
                p for p in (self.backup_pool,)
                if p is not None and p is not candidate_pool
            ],
            service_ports=tuple(self.config.ports),
            deployment=self,
        )
        if report.ok:
            return
        rendered = report.render()
        if self.config.strict_checks:
            raise CheckError(
                f"rebind of {self.config.policy_name!r} to "
                f"{candidate_pool.name or candidate_pool.advertised} rejected:\n"
                f"{rendered}",
                report.errors,
            )
        logging.getLogger("repro.check").warning(
            "rebind precheck found errors (proceeding; set strict_checks "
            "to refuse):\n%s", rendered,
        )

    # -- common manoeuvres -------------------------------------------------------

    def shrink_active(self, active: "str | Prefix"):
        """The §4.2 timetable move: narrow the in-use set, one call."""
        from .check.plan import PlanError

        prefix = parse_prefix(active) if isinstance(active, str) else active
        current = self.engine.get(self.config.policy_name).pool
        if (prefix.family != current.advertised.family
                or not current.advertised.contains(prefix)):
            raise PlanError(
                f"shrink target {prefix} is not derived from the current "
                f"pool {current.advertised} (policy "
                f"{self.config.policy_name!r})"
            )
        self._precheck_rebind(AddressPool(
            current.advertised, active=prefix, name=current.name,
        ))
        return self.controller.set_active(self.config.policy_name, prefix)

    def failover_to_backup(self):
        """The §6 mitigation move: keep the policy, change the prefix."""
        from .check.plan import PlanError

        if self.backup_pool is None:
            raise RuntimeError("deployment was built without a backup prefix")
        current = self.engine.get(self.config.policy_name).pool
        backup = self.backup_pool.advertised
        if backup.family != current.advertised.family:
            raise PlanError(
                f"backup pool {backup} and current pool {current.advertised} "
                "differ in address family"
            )
        if backup.overlaps(current.advertised):
            raise PlanError(
                f"backup pool {backup} overlaps the current pool "
                f"{current.advertised} — a failover must move to disjoint "
                "space, not back into the failed one"
            )
        self._precheck_rebind(self.backup_pool)
        return self.controller.swap_pool(self.config.policy_name, self.backup_pool)
