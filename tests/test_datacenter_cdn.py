"""Datacenter pipeline and whole-CDN integration, incl. the drop-in swap."""

import random

import pytest

from repro.core import AddressPool, Policy, PolicyAnswerSource, PolicyEngine
from repro.dns import A, RRType, Zone, ZoneAnswerSource
from repro.dns.wire import Message
from repro.edge import ListenMode
from repro.netsim.addr import parse_address
from repro.netsim.packet import FiveTuple, Protocol
from repro.web.http import HTTPVersion, Request, Status
from repro.web.tls import ClientHello

from conftest import POOL_PREFIX, make_cdn, make_client, make_policy_cdn


class TestDatacenterPipeline:
    def test_connect_and_serve(self, clock):
        cdn, hostnames = make_cdn()
        cdn.announce_pool(POOL_PREFIX, ports=(443,), mode=ListenMode.SK_LOOKUP)
        dc = cdn.datacenters["ashburn"]
        t = FiveTuple(Protocol.TCP, parse_address("100.64.0.1"), 40000,
                      POOL_PREFIX.address_at(5), 443)
        conn = dc.connect(t, ClientHello(sni=hostnames[0]), HTTPVersion.H2)
        response = dc.serve(conn, Request(hostnames[0]))
        assert response.status is Status.OK
        assert dc.traffic.total_requests() == 1
        assert dc.connection_count() == 1

    def test_flow_affinity_within_dc(self, clock):
        """Same 5-tuple → same server (ECMP + L4LB), every time."""
        cdn, hostnames = make_cdn(servers_per_dc=4)
        cdn.announce_pool(POOL_PREFIX, ports=(443,), mode=ListenMode.SK_LOOKUP)
        dc = cdn.datacenters["ashburn"]
        from repro.netsim.packet import Packet
        t = FiveTuple(Protocol.TCP, parse_address("100.64.0.1"), 41000,
                      POOL_PREFIX.address_at(9), 443)
        choice1 = dc.l4lb.admit(Packet(t), dc.ecmp.route(Packet(t)))
        # Even if a later ECMP decision differed (server set change), the
        # L4LB keeps the established flow on its original server.
        choice2 = dc.l4lb.admit(Packet(t), "someone-else")
        assert choice2 == choice1

    def test_serve_unknown_connection_rejected(self, clock):
        cdn, hostnames = make_cdn()
        cdn.announce_pool(POOL_PREFIX, ports=(443,))
        from repro.web.http import Connection
        from repro.web.tls import Certificate
        ghost = Connection(HTTPVersion.H2, POOL_PREFIX.first, 443, Certificate("x"))
        with pytest.raises(RuntimeError):
            cdn.datacenters["ashburn"].serve(ghost, Request("a.example.com"))

    def test_connection_established_at_another_datacenter_rejected(self, clock):
        """A live connection, just not this PoP's: its owner is a london
        server, so ashburn refuses it — the same error from both entries."""
        cdn, hostnames = make_cdn()
        cdn.announce_pool(POOL_PREFIX, ports=(443,), mode=ListenMode.SK_LOOKUP)
        ashburn, london = cdn.datacenters["ashburn"], cdn.datacenters["london"]
        t = FiveTuple(Protocol.TCP, parse_address("100.64.0.1"), 40000,
                      POOL_PREFIX.address_at(5), 443)
        conn = london.connect(t, ClientHello(sni=hostnames[0]), HTTPVersion.H2)
        assert conn.owner in london.servers and conn.owner not in ashburn.servers
        request = Request(hostnames[0])
        with pytest.raises(RuntimeError) as scalar:
            ashburn.serve(conn, request)
        with pytest.raises(RuntimeError) as batch:
            ashburn.serve_batch([(conn, request)])
        assert str(scalar.value) == str(batch.value)
        assert str(scalar.value).endswith("was not established at ashburn")
        assert ashburn.traffic.total_requests() == 0
        assert london.serve(conn, request).status is Status.OK

    def test_dns_requires_configuration(self, clock):
        cdn, _ = make_cdn()
        with pytest.raises(RuntimeError):
            cdn.datacenters["ashburn"].handle_dns(b"\x00" * 12)

    def test_traffic_sampling(self, clock):
        from repro.edge.datacenter import TrafficLog
        log = TrafficLog(sample_rate=0.5, rng=random.Random(1))
        for _ in range(2000):
            log.record_request(POOL_PREFIX.first, 100)
        assert 800 < log.total_requests() < 1200

    def test_traffic_log_validation(self):
        from repro.edge.datacenter import TrafficLog
        with pytest.raises(ValueError):
            TrafficLog(sample_rate=0.0)
        with pytest.raises(ValueError):
            TrafficLog(sample_rate=1.5)

    def test_sampling_is_flow_coherent(self):
        """Bugfix: the log used to flip an independent coin per record, so
        a sampled connection's requests could land outside the sample and
        vice versa — requests-per-connection ratios were garbage at any
        rate < 1.  The coin is now flipped once per connection and every
        request inherits it: with 3 requests per connection the sampled
        ratio is *exactly* 3, not 3-in-expectation."""
        from repro.edge.datacenter import TrafficLog
        log = TrafficLog(sample_rate=0.3, rng=random.Random(21))
        addr = POOL_PREFIX.address_at(7)
        for _ in range(1000):
            sampled = log.record_connection(addr)
            for _ in range(3):
                log.record_request(addr, 100, sampled=sampled)
        entry = log.by_address()[addr]
        assert 0 < entry.connections < 1000  # sampling actually thinned
        assert entry.requests == 3 * entry.connections
        assert entry.bytes == 100 * entry.requests

    def test_scaled_by_address_inverts_sampling(self):
        """Horvitz–Thompson scale-up: sampled counts × 1/rate estimate the
        true totals, and flow coherence keeps the scaled ratio exact."""
        from repro.edge.datacenter import TrafficLog
        log = TrafficLog(sample_rate=0.25, rng=random.Random(5))
        addr = POOL_PREFIX.address_at(3)
        for _ in range(4000):
            sampled = log.record_connection(addr)
            log.record_request(addr, 50, sampled=sampled)
        scaled = log.scaled_by_address()[addr]
        assert abs(scaled.connections - 4000) < 4 * (4000 * 0.25) ** 0.5 / 0.25
        assert scaled.requests == scaled.connections
        assert abs(log.estimated_total_requests() - 4000) < 1000

    def test_datacenter_requests_inherit_connection_sampling(self, clock):
        """End to end through connect/serve: per-address requests stay an
        exact multiple of connections at sample_rate < 1."""
        from repro.edge.datacenter import TrafficLog
        cdn, hostnames = make_cdn()
        cdn.announce_pool(POOL_PREFIX, ports=(443,), mode=ListenMode.SK_LOOKUP)
        dc = cdn.datacenters["ashburn"]
        dc.traffic = TrafficLog(sample_rate=0.5, rng=random.Random(17))
        dst = POOL_PREFIX.address_at(5)
        for i in range(400):
            t = FiveTuple(Protocol.TCP, parse_address("100.64.0.1"), 30000 + i, dst, 443)
            conn = dc.connect(t, ClientHello(sni=hostnames[0]), HTTPVersion.H2)
            dc.serve(conn, Request(hostnames[0]))
            dc.serve(conn, Request(hostnames[0]))
        entry = dc.traffic.by_address()[dst]
        assert 0 < entry.connections < 400
        assert entry.requests == 2 * entry.connections

    def test_connect_and_serve_batch_match_sequential(self, clock):
        """The batched ingress/serve paths are the sequential ones minus
        per-packet overhead: same owners, same traffic accounting."""
        cdn_a, hostnames = make_cdn(servers_per_dc=4)
        cdn_b, _ = make_cdn(servers_per_dc=4)
        for cdn in (cdn_a, cdn_b):
            cdn.announce_pool(POOL_PREFIX, ports=(443,), mode=ListenMode.SK_LOOKUP)
        dc_seq = cdn_a.datacenters["ashburn"]
        dc_bat = cdn_b.datacenters["ashburn"]
        requests = [
            (FiveTuple(Protocol.TCP, parse_address("100.64.0.9"), 20000 + i,
                       POOL_PREFIX.address_at(i % 32), 443),
             ClientHello(sni=hostnames[i % len(hostnames)]), HTTPVersion.H2)
            for i in range(64)
        ]
        seq_conns = [dc_seq.connect(*req) for req in requests]
        bat_conns = dc_bat.connect_batch(requests)
        assert [c.owner for c in seq_conns] == [c.owner for c in bat_conns]
        assert {c.owner for c in bat_conns} <= set(dc_bat.servers)
        assert dc_bat.connection_count() == 64

        pairs = [(c, Request(req[1].sni)) for c, req in zip(bat_conns, requests)]
        responses = dc_bat.serve_batch(pairs)
        assert all(r.status is Status.OK for r in responses)
        assert dc_bat.traffic.total_requests() == 64

    def test_serve_batch_unknown_connection_rejected(self, clock):
        cdn, hostnames = make_cdn()
        cdn.announce_pool(POOL_PREFIX, ports=(443,), mode=ListenMode.SK_LOOKUP)
        from repro.web.http import Connection
        from repro.web.tls import Certificate
        ghost = Connection(HTTPVersion.H2, POOL_PREFIX.first, 443, Certificate("x"))
        with pytest.raises(RuntimeError):
            cdn.datacenters["ashburn"].serve_batch([(ghost, Request(hostnames[0]))])


class TestCDNEndToEnd:
    def test_fetch_via_policy_dns(self, clock):
        cdn, hostnames, engine, pool = make_policy_cdn(clock)
        client = make_client(cdn, clock, "eyeball:us:0")
        outcome = client.fetch(hostnames[0])
        assert outcome.response.status is Status.OK
        assert outcome.connection.remote_addr in POOL_PREFIX

    def test_client_lands_in_regional_pop(self, clock):
        cdn, hostnames, *_ = make_policy_cdn(clock)
        us_client = make_client(cdn, clock, "eyeball:us:1", name="us")
        eu_client = make_client(cdn, clock, "eyeball:eu:1", name="eu")
        us_client.fetch(hostnames[0])
        eu_client.fetch(hostnames[1])
        assert cdn.datacenters["ashburn"].traffic.total_requests() == 1
        assert cdn.datacenters["london"].traffic.total_requests() == 1

    def test_unrouted_client_refused(self, clock):
        cdn, hostnames, *_ = make_policy_cdn(clock)
        transport = cdn.transport_for("no-such-as")
        with pytest.raises(ConnectionRefusedError):
            transport.handshake("x", POOL_PREFIX.first, 443, ClientHello(sni=hostnames[0]),
                                HTTPVersion.H2)

    def test_per_query_randomization_observed_on_wire(self, clock):
        """Ask the same PoP the same question many times: addresses vary
        across the pool — §3.2's i.i.d. property, measured at the wire."""
        cdn, hostnames, *_ = make_policy_cdn(clock, seed=3)
        dc = cdn.datacenters["ashburn"]
        seen = set()
        for i in range(200):
            wire = Message.query(i, hostnames[0], RRType.A).encode()
            response = Message.decode(dc.handle_dns(wire))
            address = response.answers[0].rdata.address
            assert address in POOL_PREFIX
            seen.add(address)
        assert len(seen) > 100  # 200 draws over 256 addresses

    def test_hostnames_all_appear_on_shared_addresses(self, clock):
        """§3.2: 'all hostnames will appear on all of the addresses in the
        pool given a sufficient window' — distinct hostnames draw from the
        same pool, independent of name."""
        cdn, hostnames, *_ = make_policy_cdn(clock, seed=5)
        dc = cdn.datacenters["ashburn"]
        per_host_addrs: dict[str, set] = {}
        for i, hostname in enumerate(hostnames[:6]):
            for j in range(60):
                wire = Message.query(i * 100 + j, hostname, RRType.A).encode()
                response = Message.decode(dc.handle_dns(wire))
                per_host_addrs.setdefault(hostname, set()).add(
                    response.answers[0].rdata.address
                )
        sets = list(per_host_addrs.values())
        union = set().union(*sets)
        for s in sets:
            assert len(s & union) == len(s)
            assert len(s) > 15  # every hostname spreads over many addresses


class TestDropInSwap:
    """§4.2: the architecture is 'a drop-in software modification' — only
    the answer source changes; the wire format, server scaffolding, edge,
    and cache are bit-for-bit the same code paths."""

    def build_conventional(self, clock, cdn, hostnames):
        zone = Zone("example.com")
        rng = random.Random(11)
        for hostname in hostnames:
            zone.add_address(hostname, A(POOL_PREFIX.random_address(rng)), ttl=30)
        cdn.set_answer_source(ZoneAnswerSource([zone]))

    def test_swap_changes_only_answers(self, clock):
        cdn, hostnames = make_cdn()
        cdn.announce_pool(POOL_PREFIX, ports=(443,), mode=ListenMode.SK_LOOKUP)
        self.build_conventional(clock, cdn, hostnames)
        client = make_client(cdn, clock, "eyeball:us:0", name="before")
        before = client.fetch(hostnames[0])
        assert before.response.status is Status.OK

        # Swap in the policy engine: one call, nothing else touched.
        engine = PolicyEngine(random.Random(2))
        engine.add(Policy("agile", AddressPool(POOL_PREFIX), match={}, ttl=30))
        cdn.set_answer_source(PolicyAnswerSource(engine, cdn.registry))

        client2 = make_client(cdn, clock, "eyeball:us:0", name="after")
        after = client2.fetch(hostnames[0])
        assert after.response.status is Status.OK
        assert after.connection.remote_addr in POOL_PREFIX

    def test_response_shape_identical_across_sources(self, clock):
        """Same query, both sources: flags, sections, rcode all match;
        only the address bits differ."""
        cdn, hostnames = make_cdn()
        cdn.announce_pool(POOL_PREFIX, ports=(443,))
        self.build_conventional(clock, cdn, hostnames)
        dc = cdn.datacenters["ashburn"]
        wire = Message.query(99, hostnames[0], RRType.A).encode()
        conventional = Message.decode(dc.handle_dns(wire))

        engine = PolicyEngine(random.Random(2))
        engine.add(Policy("agile", AddressPool(POOL_PREFIX), match={}, ttl=30))
        cdn.set_answer_source(PolicyAnswerSource(engine, cdn.registry))
        agile = Message.decode(dc.handle_dns(wire))

        assert conventional.flags == agile.flags
        assert conventional.questions == agile.questions
        assert len(conventional.answers) == len(agile.answers) == 1
        assert conventional.answers[0].name == agile.answers[0].name
        assert conventional.answers[0].rrtype == agile.answers[0].rrtype
        assert agile.answers[0].rdata.address in POOL_PREFIX

    def test_fallback_for_unmatched_queries(self, clock):
        """'Queries that do not match are resolved as normal' (§4.3)."""
        cdn, hostnames = make_cdn()
        cdn.announce_pool(POOL_PREFIX, ports=(443,))
        zone = Zone("example.com")
        zone.add_address(hostnames[0], A(parse_address("198.51.100.99")), ttl=300)
        engine = PolicyEngine(random.Random(2))
        # Policy matches only ENTERPRISE accounts at london.
        engine.add(Policy(
            "narrow", AddressPool(POOL_PREFIX),
            match={"pop": {"london"}, "account_type": {"enterprise"}}, ttl=30,
        ))
        source = PolicyAnswerSource(engine, cdn.registry, fallback=ZoneAnswerSource([zone]))
        cdn.set_answer_source(source)
        dc = cdn.datacenters["ashburn"]  # wrong PoP: must fall through
        wire = Message.query(1, hostnames[0], RRType.A).encode()
        response = Message.decode(dc.handle_dns(wire))
        assert str(response.answers[0].rdata.address) == "198.51.100.99"
        assert source.log.fallback_answers == 1
