"""ECMP router, L4 load balancer, distributed cache, customer registry."""

import pytest

from repro.edge.cache import DistributedCache, UnknownNodeError
from repro.edge.customers import AccountType, Customer, CustomerRegistry
from repro.edge.ecmp import ECMPRouter, UnknownServerError
from repro.edge.l4lb import L4LoadBalancer
from repro.hashing import pick
from repro.netsim.addr import parse_address, parse_prefix
from repro.netsim.packet import FiveTuple, Packet, Protocol
from repro.web.http import Request, Status
from repro.web.origin import OriginPool, OriginServer, fixed_size


def packet(sport=40000, dst="192.0.2.1"):
    return Packet(FiveTuple(
        Protocol.TCP, parse_address("198.51.100.9"), sport, parse_address(dst), 443,
    ))


class TestECMP:
    def test_deterministic_per_flow(self):
        router = ECMPRouter([f"s{i}" for i in range(8)])
        assert all(router.route(packet(sport=5000)) == router.route(packet(sport=5000))
                   for _ in range(5))

    def test_spreads_flows(self):
        router = ECMPRouter([f"s{i}" for i in range(8)])
        for i in range(4000):
            router.route(packet(sport=10000 + i))
        counts = router.stats.per_server
        assert len(counts) == 8
        expected = 4000 / 8
        for c in counts.values():
            assert abs(c - expected) < 5 * (expected ** 0.5)

    def test_minimal_disruption_on_server_add(self):
        """Consistent hashing: adding a server moves ~1/n of flows."""
        servers = [f"s{i}" for i in range(8)]
        before = ECMPRouter(servers)
        after = ECMPRouter(servers + ["s8"])
        moved = sum(
            1 for i in range(4000)
            if before.route(packet(sport=10000 + i)) != after.route(packet(sport=10000 + i))
        )
        assert 4000 / 9 * 0.5 < moved < 4000 / 9 * 1.6

    def test_destination_address_agnostic_balance(self):
        """§4.3: ECMP complexity is about servers, not pool addresses —
        balance holds whether flows target 1 address or 256."""
        pool = parse_prefix("192.0.2.0/24")
        one, many = ECMPRouter(["a", "b", "c", "d"]), ECMPRouter(["a", "b", "c", "d"])
        for i in range(2000):
            one.route(packet(sport=10000 + i, dst="192.0.2.1"))
            many.route(packet(sport=10000 + i, dst=str(pool.address_at(i % 256))))
        for router in (one, many):
            for c in router.stats.per_server.values():
                assert abs(c - 500) < 5 * (500 ** 0.5)

    def test_empty_group_raises(self):
        with pytest.raises(RuntimeError):
            ECMPRouter().route(packet())

    def test_duplicate_server_rejected(self):
        router = ECMPRouter(["a"])
        with pytest.raises(ValueError):
            router.add_server("a")

    def test_remove_server(self):
        router = ECMPRouter(["a", "b"])
        router.remove_server("a")
        assert router.servers() == ["b"]

    def test_remove_absent_server_raises_typed_error(self):
        """Bugfix: removing an unknown member used to surface as a bare
        ``ValueError`` from ``list.remove`` — now a typed, catchable
        error naming the group."""
        router = ECMPRouter(["a", "b"])
        router.route(packet(sport=1))
        with pytest.raises(UnknownServerError) as exc:
            router.remove_server("zz")
        assert "zz" in str(exc.value)
        assert isinstance(exc.value, LookupError)
        # The failed remove must leave membership and stats untouched.
        assert router.servers() == ["a", "b"]
        assert router.stats.routed == 1
        router.route(packet(sport=2))  # still routable
        assert router.stats.routed == 2

    def test_weight_ties_break_on_name_not_list_position(self):
        """Bugfix: HRW ties used to break on list position (``max`` keeps
        the earliest element), so insertion order leaked into routing.
        Equal seeds make every key a tie: the winner must be the max
        member *name*, whatever order members joined in."""
        for order in ("abc", "cba", "bca"):
            assert pick([(0, name) for name in order], 7) == "c", order

    def test_tied_flows_stable_across_drain_and_restore(self):
        """Drain a member and re-add it (failover's remove-then-restore):
        with position-dependent tie-breaks the restored member re-enters at
        the tail and every tied flow silently rehomes."""
        members = [(0, "a"), (0, "b"), (0, "c")]
        before = pick(members, 9)
        members.remove((0, "a"))
        members.append((0, "a"))  # now last in the member list
        assert pick(members, 9) == before

    def test_minimal_remap_after_membership_churn(self):
        """Rendezvous hashing's contract under churn: removing one server
        remaps exactly that server's flows, and restoring it brings every
        flow back to its original home — zero collateral movement."""
        servers = [f"s{i}" for i in range(8)]
        router = ECMPRouter(list(servers))
        flows = [packet(sport=10000 + i) for i in range(2000)]
        original = {f.tuple5.src_port: router.route(f) for f in flows}
        displaced = {p for p, s in original.items() if s == "s3"}
        assert displaced  # the drained server owned some flows

        router.remove_server("s3")
        during = {f.tuple5.src_port: router.route(f) for f in flows}
        moved = {p for p in original if during[p] != original[p]}
        assert moved == displaced  # only s3's flows moved, all of them

        router.add_server("s3")  # restored at a different list position
        after = {f.tuple5.src_port: router.route(f) for f in flows}
        assert after == original  # every flow back where it started


class TestL4LB:
    def test_new_flow_follows_ecmp(self):
        lb = L4LoadBalancer()
        assert lb.admit(packet(sport=1), "s3") == "s3"
        assert lb.stats.new_flows == 1

    def test_established_flow_pinned_despite_ecmp_change(self):
        lb = L4LoadBalancer()
        p = packet(sport=2)
        lb.admit(p, "s1")
        assert lb.admit(p, "s9") == "s1"  # rehomed by ECMP, pinned by L4LB
        assert lb.stats.rehomed == 1

    def test_conclude_releases(self):
        lb = L4LoadBalancer()
        p = packet(sport=3)
        lb.admit(p, "s1")
        lb.conclude(p.tuple5)
        assert lb.tracked_flows() == 0
        assert lb.admit(p, "s2") == "s2"

    def test_table_size_tracks_flows_not_addresses(self):
        pool = parse_prefix("192.0.2.0/24")
        lb = L4LoadBalancer()
        for i in range(100):
            lb.admit(packet(sport=5000 + i, dst=str(pool.address_at(i))), "s1")
        assert lb.tracked_flows() == 100


def make_cache(nodes=3, capacity=10_000):
    origins = OriginPool()
    origins.add(OriginServer("o", {"a.example.com", "b.example.com"}, fixed_size(100)))
    cache = DistributedCache(origins, node_capacity_bytes=capacity)
    for i in range(nodes):
        cache.add_node(f"n{i}")
    return cache


class TestDistributedCache:
    def test_miss_then_hit(self):
        cache = make_cache()
        r1 = cache.fetch(Request("a.example.com", "/x"))
        r2 = cache.fetch(Request("a.example.com", "/x"))
        assert not r1.cache_hit and r2.cache_hit
        assert r1.served_by == r2.served_by  # same home node

    def test_home_node_stable(self):
        cache = make_cache()
        key = ("a.example.com", "/y")
        assert all(cache.home_node(key).name == cache.home_node(key).name for _ in range(5))

    def test_keys_spread_over_nodes(self):
        cache = make_cache(nodes=4)
        homes = {cache.home_node(("a.example.com", f"/p{i}")).name for i in range(200)}
        assert len(homes) == 4

    def test_unknown_hostname_passes_through_unavailable(self):
        cache = make_cache()
        assert cache.fetch(Request("zzz.example.com")).status is Status.UNAVAILABLE

    def test_lru_eviction(self):
        cache = make_cache(nodes=1, capacity=250)  # fits 2 objects of 100
        cache.fetch(Request("a.example.com", "/1"))
        cache.fetch(Request("a.example.com", "/2"))
        cache.fetch(Request("a.example.com", "/1"))  # touch /1
        cache.fetch(Request("a.example.com", "/3"))  # evicts /2
        node = cache.nodes()["n0"]
        assert node.stats.evictions == 1
        assert cache.fetch(Request("a.example.com", "/1")).cache_hit
        assert not cache.fetch(Request("a.example.com", "/2")).cache_hit

    def test_hit_rate(self):
        cache = make_cache()
        cache.fetch(Request("a.example.com", "/x"))
        cache.fetch(Request("a.example.com", "/x"))
        assert cache.total_hit_rate() == 0.5

    def test_duplicate_node_rejected(self):
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.add_node("n0")

    def test_remove_absent_node_raises_typed_error(self):
        """Bugfix: removing an unknown node leaked a bare ``KeyError``
        carrying only the name — now typed, with the member list, like
        ``ECMPRouter.remove_server``."""
        cache = make_cache()
        key = ("a.example.com", "/x")
        home = cache.home_node(key).name
        with pytest.raises(UnknownNodeError) as exc:
            cache.remove_node("zz")
        assert isinstance(exc.value, LookupError)
        assert "zz" in str(exc.value) and "n0, n1, n2" in str(exc.value)
        # The failed remove leaves membership and placement untouched.
        assert list(cache.nodes()) == ["n0", "n1", "n2"]
        assert cache.home_node(key).name == home

    def test_remove_and_re_add_restores_placement(self):
        """Seeds are rebuilt only by ``add_node``/``remove_node``: a drained
        node owns nothing, and re-adding it (now last in the member list,
        with an empty store) brings every key back to its original home."""
        cache = make_cache(nodes=4)
        keys = [("a.example.com", f"/p{i}") for i in range(400)]
        original = [cache.home_node(key).name for key in keys]
        assert "n1" in original
        cache.remove_node("n1")
        assert "n1" not in {cache.home_node(key).name for key in keys}
        cache.add_node("n1")
        assert list(cache.nodes())[-1] == "n1"
        assert [cache.home_node(key).name for key in keys] == original

    def test_no_nodes_raises(self):
        origins = OriginPool()
        cache = DistributedCache(origins)
        with pytest.raises(RuntimeError):
            cache.fetch(Request("a.example.com"))


class TestCustomerRegistry:
    def test_lookup_by_hostname(self):
        registry = CustomerRegistry()
        registry.add(Customer("acme", AccountType.PRO, {"a.example.com"}))
        assert registry.account_type_for("A.EXAMPLE.COM.") is AccountType.PRO
        assert registry.customer_for("b.example.com") is None
        assert registry.is_hosted("a.example.com")

    def test_duplicate_customer_rejected(self):
        registry = CustomerRegistry()
        registry.add(Customer("acme", AccountType.PRO, set()))
        with pytest.raises(ValueError):
            registry.add(Customer("acme", AccountType.FREE, set()))

    def test_hostname_collision_rejected(self):
        registry = CustomerRegistry()
        registry.add(Customer("a", AccountType.PRO, {"x.example.com"}))
        with pytest.raises(ValueError):
            registry.add(Customer("b", AccountType.FREE, {"x.example.com"}))

    def test_add_hostname_later(self):
        registry = CustomerRegistry()
        registry.add(Customer("a", AccountType.PRO, set()))
        registry.add_hostname("a", "new.example.com")
        assert registry.is_hosted("new.example.com")
        assert registry.hostname_count() == 1

    def test_certificate_minting(self):
        customer = Customer("a", AccountType.PRO, {f"h{i}.example.com" for i in range(5)})
        cert = customer.make_certificate()
        assert all(cert.covers(h) for h in customer.hostnames)

    def test_certificate_san_cap(self):
        customer = Customer("a", AccountType.PRO, {f"h{i:03d}.example.com" for i in range(150)})
        cert = customer.make_certificate(max_san=100)
        assert len(cert.names()) == 101  # subject + 100 SANs
        covered = sum(1 for h in customer.hostnames if cert.covers(h))
        assert covered == 101

    def test_empty_customer_cert_rejected(self):
        with pytest.raises(ValueError):
            Customer("a", AccountType.PRO, set()).make_certificate()
