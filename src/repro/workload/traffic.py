"""Request and query traffic generation.

Two generators feed the experiments:

* :class:`RequestStream` — flat per-request sampling (Zipf over sites),
  used for the Figure 7 load-distribution runs where only (hostname,
  bytes) matter and volume is large;
* :class:`SessionGenerator` — page-view sessions (a site plus its asset
  hosts, several pages per session) for the Figure 8 coalescing runs,
  where *sequencing within a browsing context* is what creates reuse
  opportunities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from collections.abc import Iterator
from itertools import islice

from ..netsim.addr import IPAddress
from .hostnames import HostnameUniverse
from .zipf import ZipfDistribution

__all__ = [
    "RequestStream",
    "PageView",
    "Session",
    "SessionGenerator",
]

#: Client sources are synthesised in CGNAT space (RFC 6598, 100.64/10),
#: matching how the CDN transport fabricates eyeball addresses.
_CLIENT_SRC_BASE = 0x64400000  # 100.64.0.0


@dataclass(frozen=True, slots=True)
class PageView:
    """One page load: the primary site and the resources it pulls."""

    site: str
    resources: tuple[tuple[str, str], ...]  # (hostname, path) pairs


@dataclass(frozen=True, slots=True)
class Session:
    """A browsing session: ordered page views by one client."""

    client_id: int
    pages: tuple[PageView, ...]


class RequestStream:
    """Zipf-popularity request sampling over a universe's sites."""

    def __init__(self, universe: HostnameUniverse, zipf_s: float = 1.1) -> None:
        self.universe = universe
        self.zipf = ZipfDistribution(universe.num_sites, zipf_s)

    def sample_hostnames(self, n: int, seed: int, include_assets: bool = True) -> Iterator[str]:
        """Yield ``n`` request hostnames.

        With ``include_assets`` each sampled page view emits its asset
        hostnames too (asset requests inherit the site's popularity), so
        the hostname-level distribution matches real traffic where one
        popular site fans into several hot hostnames.
        """
        rng = random.Random(seed)
        ranks = self.zipf.sample_many(max(1, n // (1 + self.universe.config.assets_per_site)), seed)
        emitted = 0
        for rank in ranks:
            site = self.universe.site(int(rank))
            for hostname in self.universe.page_resources(site):
                yield hostname
                emitted += 1
                if emitted >= n:
                    return
        # Top up with pure site samples if pages under-filled the quota.
        while emitted < n:
            yield self.universe.site(self.zipf.sample(rng))
            emitted += 1

    def sample_flow_batches(
        self,
        n: int,
        seed: int,
        batch_size: int = 1024,
        include_assets: bool = True,
    ) -> Iterator[tuple[list[str], list[IPAddress], list[int]]]:
        """Yield struct-of-arrays flow columns: ``(hostnames, src_addrs,
        src_ports)``, each batch's columns parallel.

        The flow-engine feed: hostnames are :meth:`sample_hostnames` cut
        into ``batch_size`` chunks (the last may be short; the generator
        stays lazy, so only one batch is ever held), while source addresses
        (CGNAT space) and ephemeral ports are drawn per flow from a second
        seeded RNG — distinct 5-tuples, deterministic corpus.  Columns stay
        plain lists so the caller can hand them straight to
        ``FlowBatch(hostnames, src_addrs, src_ports)`` (or any scalar
        loop) without reshaping.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        rng = random.Random(seed ^ 0x5F10)
        stream = self.sample_hostnames(n, seed, include_assets)
        while hostnames := list(islice(stream, batch_size)):
            src_addrs = [
                IPAddress.v4(_CLIENT_SRC_BASE + rng.randrange(1 << 22))
                for _ in hostnames
            ]
            src_ports = [20_000 + rng.randrange(40_000) for _ in hostnames]
            yield hostnames, src_addrs, src_ports


class SessionGenerator:
    """Browsing sessions for the coalescing experiment.

    Each session: ``pages_mean`` page views (geometric), mostly within one
    site's ecosystem with occasional navigation to another Zipf-sampled
    site — the revisit structure that makes connection reuse valuable.
    """

    def __init__(
        self,
        universe: HostnameUniverse,
        zipf_s: float = 1.1,
        pages_mean: float = 4.0,
        paths_per_page: int = 6,
        same_site_stickiness: float = 0.6,
    ) -> None:
        if pages_mean < 1:
            raise ValueError("pages_mean must be >= 1")
        if not 0 <= same_site_stickiness <= 1:
            raise ValueError("stickiness must be in [0, 1]")
        self.universe = universe
        self.zipf = ZipfDistribution(universe.num_sites, zipf_s)
        self.pages_mean = pages_mean
        self.paths_per_page = paths_per_page
        self.stickiness = same_site_stickiness

    def _page(self, site: str, rng: random.Random) -> PageView:
        resources: list[tuple[str, str]] = [(site, "/")]
        hosts = self.universe.page_resources(site)
        for i in range(self.paths_per_page - 1):
            host = rng.choice(hosts)
            resources.append((host, f"/r/{rng.randrange(1_000_000)}"))
        return PageView(site=site, resources=tuple(resources))

    def session(self, client_id: int, seed: int) -> Session:
        rng = random.Random(seed)
        # Geometric page count with mean pages_mean.
        p = 1.0 / self.pages_mean
        pages: list[PageView] = []
        site = self.universe.site(self.zipf.sample(rng))
        while True:
            pages.append(self._page(site, rng))
            if rng.random() < p:
                break
            if rng.random() > self.stickiness:
                site = self.universe.site(self.zipf.sample(rng))
        return Session(client_id=client_id, pages=tuple(pages))

    def sessions(self, n: int, seed: int) -> Iterator[Session]:
        for i in range(n):
            yield self.session(client_id=i, seed=seed * 1_000_003 + i)
