"""Hostname universes: synthetic stand-ins for the 20M+ production zones.

The deployment serves "20+ million hostnames" across customer accounts of
varying account types.  A :class:`HostnameUniverse` builds a scaled-down
but structurally matching population: customers with heavy-tailed site
counts, account types in realistic proportions (free tiers dominate), one
origin per customer, and subdomain "asset" hostnames that pages pull from
— the multi-hostname structure HTTP/2 coalescing (Figure 8) feeds on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..edge.customers import AccountType, Customer, CustomerRegistry
from ..hashing import stable_hash
from ..web.origin import OriginPool, OriginServer, SizeModel

__all__ = ["UniverseConfig", "HostnameUniverse", "lognormal_sizes"]

#: Account-type mix: free tiers dominate real CDN populations.
_ACCOUNT_MIX = (
    (AccountType.FREE, 0.80),
    (AccountType.PRO, 0.12),
    (AccountType.BUSINESS, 0.06),
    (AccountType.ENTERPRISE, 0.02),
)


def lognormal_sizes(median_bytes: float = 20_000.0, sigma: float = 1.2, seed: int = 7) -> SizeModel:
    """Deterministic per-(hostname, path) object sizes, log-normal shaped.

    Web object sizes are famously log-normal-ish with a heavy tail; bytes
    per IP in Figure 7 sweeps ~5 orders of magnitude partly because of it.
    Each (hostname, path) hashes to its own stable draw, computed on its
    first fetch and read from the model's size table after that.
    """
    import math

    mu = math.log(median_bytes)

    tables: dict[str, dict[str, int]] = {}  # path -> hostname -> size

    def model(hostname: str, path: str) -> int:
        table = tables.get(path)
        if table is None:
            table = tables[path] = {}
        size = table.get(hostname)
        if size is None:
            rng = random.Random(stable_hash(seed, hostname, path) & 0xFFFFFFFFFFFF)
            size = table[hostname] = max(64, int(rng.lognormvariate(mu, sigma)))
        return size

    return model


@dataclass(frozen=True, slots=True)
class UniverseConfig:
    """Shape of the synthetic hostname population."""

    num_hostnames: int = 10_000
    assets_per_site: int = 3          # img./static./cdn. style subdomains
    customer_site_zipf: float = 1.2   # heavy tail of sites per customer
    max_sites_per_customer: int = 500
    domain_suffix: str = "example"
    seed: int = 1701


class HostnameUniverse:
    """Builds and owns the registry, origins, and hostname list."""

    def __init__(self, config: UniverseConfig | None = None) -> None:
        self.config = config or UniverseConfig()
        self.registry = CustomerRegistry()
        self.origins = OriginPool()
        self.sites: list[str] = []       # primary hostnames (zipf-ranked)
        self.hostnames: list[str] = []   # all hostnames incl. assets
        self._assets_of: dict[str, list[str]] = {}
        self._build()

    def _build(self) -> None:
        cfg = self.config
        rng = random.Random(cfg.seed)
        size_model = lognormal_sizes(seed=cfg.seed)

        site_index = 0
        customer_index = 0
        while site_index < cfg.num_hostnames:
            account = self._pick_account(rng)
            # Heavy-tailed sites per customer, truncated.
            n_sites = min(
                cfg.max_sites_per_customer,
                max(1, int(rng.paretovariate(cfg.customer_site_zipf))),
                cfg.num_hostnames - site_index,
            )
            customer = Customer(f"cust{customer_index:06d}", account)
            names: set[str] = set()
            for _ in range(n_sites):
                site = f"site{site_index:07d}.{cfg.domain_suffix}.com"
                assets = [
                    f"{prefix}.site{site_index:07d}.{cfg.domain_suffix}.com"
                    for prefix in ("img", "static", "api", "media", "assets")[: cfg.assets_per_site]
                ]
                names.add(site)
                names.update(assets)
                self.sites.append(site)
                self._assets_of[site] = assets
                site_index += 1
            customer.hostnames = names
            self.registry.add(customer)
            self.origins.add(OriginServer(f"origin-{customer.name}", set(names), size_model))
            customer_index += 1

        self.hostnames = sorted(
            h for customer in self.registry.customers() for h in customer.hostnames
        )

    @staticmethod
    def _pick_account(rng: random.Random) -> AccountType:
        u = rng.random()
        acc = 0.0
        for account, share in _ACCOUNT_MIX:
            acc += share
            if u < acc:
                return account
        return _ACCOUNT_MIX[-1][0]

    # -- access ------------------------------------------------------------

    def site(self, rank: int) -> str:
        """The ``rank``-th most popular site (rank 0 = most popular)."""
        return self.sites[rank]

    def assets_of(self, site: str) -> list[str]:
        return list(self._assets_of.get(site, ()))

    def page_resources(self, site: str) -> list[str]:
        """Hostnames a page view touches: the site plus its asset hosts."""
        return [site, *self._assets_of.get(site, ())]

    def customer_of(self, hostname: str) -> Customer | None:
        return self.registry.customer_for(hostname)

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def num_hostnames(self) -> int:
        return len(self.hostnames)
