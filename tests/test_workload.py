"""Workload generators: Zipf, universes, traffic, client populations."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import stable_hash
from repro.workload import hostnames
from repro.workload.clients import ClientPopulation, PopulationConfig
from repro.workload.hostnames import HostnameUniverse, UniverseConfig, lognormal_sizes
from repro.workload.traffic import RequestStream, SessionGenerator
from repro.workload.zipf import ZipfDistribution

from conftest import make_policy_cdn


class TestZipf:
    def test_pmf_sums_to_one(self):
        z = ZipfDistribution(1000, 1.1)
        assert sum(z.pmf(i) for i in range(1000)) == pytest.approx(1.0)

    def test_rank_zero_most_popular(self):
        z = ZipfDistribution(100, 1.0)
        assert z.pmf(0) > z.pmf(1) > z.pmf(99)

    def test_head_share_grows_with_skew(self):
        flat = ZipfDistribution(1000, 0.5)
        skewed = ZipfDistribution(1000, 1.5)
        assert skewed.head_share(10) > flat.head_share(10)

    def test_s_zero_is_uniform(self):
        z = ZipfDistribution(10, 0.0)
        assert z.pmf(0) == pytest.approx(0.1)
        assert z.head_share(5) == pytest.approx(0.5)

    def test_sampling_matches_pmf(self):
        z = ZipfDistribution(50, 1.0)
        ranks = z.sample_many(50_000, seed=3)
        observed = np.bincount(ranks, minlength=50) / 50_000
        for rank in (0, 1, 10):
            assert observed[rank] == pytest.approx(z.pmf(rank), rel=0.15)

    def test_sample_single(self):
        z = ZipfDistribution(10, 1.0)
        rng = random.Random(0)
        assert all(0 <= z.sample(rng) < 10 for _ in range(100))

    def test_deterministic_given_seed(self):
        z = ZipfDistribution(100, 1.2)
        assert list(z.sample_many(100, seed=9)) == list(z.sample_many(100, seed=9))

    def test_expected_counts(self):
        z = ZipfDistribution(10, 1.0)
        counts = z.expected_counts(1000)
        assert counts.sum() == pytest.approx(1000)

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfDistribution(0)
        with pytest.raises(ValueError):
            ZipfDistribution(10, -1)
        with pytest.raises(ValueError):
            ZipfDistribution(10).head_share(0)


@settings(max_examples=50)
@given(n=st.integers(2, 500), s=st.floats(0.0, 2.5), seed=st.integers(0, 1 << 16))
def test_property_zipf_samples_in_range(n, s, seed):
    z = ZipfDistribution(n, s)
    ranks = z.sample_many(100, seed=seed)
    assert ranks.min() >= 0 and ranks.max() < n


class TestUniverse:
    @pytest.fixture(scope="class")
    def universe(self):
        return HostnameUniverse(UniverseConfig(num_hostnames=200, assets_per_site=2))

    def test_site_count_exact(self, universe):
        assert universe.num_sites == 200

    def test_assets_attached(self, universe):
        site = universe.site(0)
        assets = universe.assets_of(site)
        assert len(assets) == 2
        assert all(a.endswith(site) for a in assets)
        assert universe.page_resources(site) == [site, *assets]

    def test_every_hostname_registered(self, universe):
        for hostname in universe.hostnames[:50]:
            assert universe.registry.is_hosted(hostname)
            assert universe.origins.origin_for(hostname) is not None

    def test_same_customer_for_site_and_assets(self, universe):
        site = universe.site(3)
        owner = universe.customer_of(site)
        for asset in universe.assets_of(site):
            assert universe.customer_of(asset) is owner

    def test_account_mix_dominated_by_free(self):
        universe = HostnameUniverse(UniverseConfig(num_hostnames=500, seed=2))
        from repro.edge.customers import AccountType
        counts = {}
        for customer in universe.registry.customers():
            counts[customer.account_type] = counts.get(customer.account_type, 0) + 1
        assert counts[AccountType.FREE] > sum(
            v for k, v in counts.items() if k is not AccountType.FREE
        )

    def test_deterministic_by_seed(self):
        u1 = HostnameUniverse(UniverseConfig(num_hostnames=50, seed=9))
        u2 = HostnameUniverse(UniverseConfig(num_hostnames=50, seed=9))
        assert u1.hostnames == u2.hostnames

    def test_lognormal_sizes_stable_and_positive(self):
        # Two models built apart agree key by key: a size is a function of
        # (seed, hostname, path), not of the table that happens to hold it.
        a, b = lognormal_sizes(seed=4), lognormal_sizes(seed=4)
        keys = [(f"h{i}.example.com", path) for i in range(200) for path in ("/", "/x")]
        sizes = [a(h, p) for h, p in keys]
        assert sizes == [b(h, p) for h, p in keys]
        assert min(sizes) >= 64
        # Both the path and the seed enter the draw.
        assert sizes[0::2] != sizes[1::2]
        assert sizes != [lognormal_sizes(seed=5)(h, p) for h, p in keys]

    def test_lognormal_sizes_table_matches_formula(self, monkeypatch):
        """The size table returns exactly the formula's draw, and hashes each
        distinct (hostname, path) once however often it is fetched."""
        hashed = []

        def counting_hash(*parts):
            hashed.append(parts)
            return stable_hash(*parts)

        monkeypatch.setattr(hostnames, "stable_hash", counting_hash)
        model = lognormal_sizes(seed=11)
        rng = random.Random(3)
        keys = [(f"site{rng.randrange(600):07d}.example.com", rng.choice(("/", "/a", "/img.png")))
                for _ in range(3000)]
        for hostname, path in keys:
            draw = random.Random(stable_hash(11, hostname, path) & 0xFFFFFFFFFFFF)
            assert model(hostname, path) == max(64, int(draw.lognormvariate(math.log(20_000), 1.2)))
        distinct = set(keys)
        assert 1000 <= len(distinct) < len(keys)  # repeats included
        assert sorted(hashed) == sorted((11, h, p) for h, p in distinct)


class TestTraffic:
    @pytest.fixture(scope="class")
    def universe(self):
        return HostnameUniverse(UniverseConfig(num_hostnames=100, assets_per_site=2))

    def test_request_stream_yields_exactly_n(self, universe):
        stream = RequestStream(universe, zipf_s=1.1)
        hostnames = list(stream.sample_hostnames(500, seed=1))
        assert len(hostnames) == 500
        assert all(universe.registry.is_hosted(h) for h in hostnames)

    def test_request_stream_is_skewed(self, universe):
        stream = RequestStream(universe, zipf_s=1.3)
        hostnames = list(stream.sample_hostnames(3000, seed=2))
        counts = {}
        for h in hostnames:
            counts[h] = counts.get(h, 0) + 1
        top = max(counts.values())
        assert top > 3000 / 100  # far above uniform share

    def test_sessions_have_pages_and_resources(self, universe):
        gen = SessionGenerator(universe, pages_mean=3.0, paths_per_page=4)
        sessions = list(gen.sessions(20, seed=5))
        assert len(sessions) == 20
        for session in sessions:
            assert session.pages
            for page in session.pages:
                assert len(page.resources) == 4
                assert page.resources[0] == (page.site, "/")

    def test_sessions_deterministic(self, universe):
        gen = SessionGenerator(universe)
        s1 = gen.session(0, seed=1)
        s2 = gen.session(0, seed=1)
        assert s1 == s2

    def test_session_validation(self, universe):
        with pytest.raises(ValueError):
            SessionGenerator(universe, pages_mean=0.5)
        with pytest.raises(ValueError):
            SessionGenerator(universe, same_site_stickiness=2.0)


class TestClientPopulation:
    def test_population_wiring(self, clock):
        cdn, hostnames, *_ = make_policy_cdn(clock)
        eyeballs = [a for a in cdn.network.client_ases() if str(a).startswith("eyeball")]
        population = ClientPopulation(
            cdn, clock, eyeballs,
            PopulationConfig(clients_per_resolver=3, seed=1),
        )
        assert len(population) == len(eyeballs) * 3
        assert len(population.resolvers) == len(eyeballs)
        client = population.clients[0]
        assert population.asn_of(client) in eyeballs
        # Clients actually work end to end.
        outcome = client.fetch(hostnames[0])
        assert outcome.response.status.value == 200

    def test_version_mix(self, clock):
        cdn, *_ = make_policy_cdn(clock)
        eyeballs = [a for a in cdn.network.client_ases() if str(a).startswith("eyeball")]
        population = ClientPopulation(
            cdn, clock, eyeballs,
            PopulationConfig(clients_per_resolver=10, h3_share=0.3, h1_share=0.2, seed=3),
        )
        from repro.web.http import HTTPVersion
        h3 = len(population.clients_by_version(HTTPVersion.H3))
        h1 = len(population.clients_by_version(HTTPVersion.H1))
        h2 = len(population.clients_by_version(HTTPVersion.H2))
        total = len(population)
        assert h3 + h1 + h2 == total
        assert 0.15 < h3 / total < 0.45
        assert 0.08 < h1 / total < 0.35

    def test_needs_eyeballs(self, clock):
        cdn, *_ = make_policy_cdn(clock)
        with pytest.raises(ValueError):
            ClientPopulation(cdn, clock, [])
