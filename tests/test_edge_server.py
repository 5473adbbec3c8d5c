"""Edge servers: listen modes, the repoint capability, serving semantics."""

import pytest

from repro.edge.cache import DistributedCache
from repro.edge.customers import AccountType, Customer, CustomerRegistry
from repro.edge.server import DEFAULT_SERVICE_PORTS, EdgeServer, ListenMode
from repro.netsim.addr import parse_address, parse_prefix
from repro.netsim.packet import FiveTuple, Protocol
from repro.sockets.lookup import LookupStage
from repro.sockets.socktable import SOCKET_MEM_BYTES
from repro.web.http import HTTPVersion, Request, Status
from repro.web.origin import OriginPool, OriginServer, fixed_size
from repro.web.tls import Certificate, CertificateStore, ClientHello, TLSError

POOL = parse_prefix("192.0.2.0/28")  # 16 addresses: small enough to bind 1:1
WIDE_POOL = parse_prefix("192.0.0.0/20")


def make_server(name="srv0"):
    registry = CustomerRegistry()
    customer = Customer("acme", AccountType.FREE, {"a.example.com", "b.example.com"})
    registry.add(customer)
    cert = customer.make_certificate()
    origins = OriginPool()
    origins.add(OriginServer("o", set(customer.hostnames), fixed_size(100)))
    cache = DistributedCache(origins)
    cache.add_node(name)
    certs = CertificateStore()
    certs.add(cert)
    return EdgeServer(name, registry, cache, certs, parse_address("198.18.0.1"))


def conn_tuple(dst: str, port=443, proto=Protocol.TCP, sport=40000):
    return FiveTuple(proto, parse_address("100.64.0.1"), sport, parse_address(dst), port)


class TestListenModes:
    def test_per_ip_binds_socket_count(self):
        server = make_server()
        server.configure_listening(POOL, ports=(80, 443), mode=ListenMode.PER_IP_BINDS)
        # 16 addresses × 2 ports × 2 protocols
        assert server.socket_count() == 64
        assert server.socket_memory_bytes() == 64 * SOCKET_MEM_BYTES

    def test_per_ip_binds_refuses_wide_pools(self):
        server = make_server()
        with pytest.raises(ValueError):
            server.configure_listening(parse_prefix("10.0.0.0/8"), mode=ListenMode.PER_IP_BINDS)

    def test_wildcard_socket_count(self):
        server = make_server()
        server.configure_listening(WIDE_POOL, ports=(80, 443), mode=ListenMode.WILDCARD)
        assert server.socket_count() == 4  # 2 ports × 2 protocols

    def test_sk_lookup_socket_count_independent_of_pool(self):
        server = make_server()
        server.configure_listening(WIDE_POOL, ports=(80, 443), mode=ListenMode.SK_LOOKUP)
        assert server.socket_count() == 4
        server2 = make_server("srv0")
        server2.configure_listening(parse_prefix("192.0.2.1/32"), ports=(80, 443))
        assert server2.socket_count() == server.socket_count()

    def test_all_modes_accept_pool_traffic(self):
        for mode in (ListenMode.PER_IP_BINDS, ListenMode.WILDCARD, ListenMode.SK_LOOKUP):
            server = make_server()
            server.configure_listening(POOL, ports=(443,), mode=mode)
            result = server.dispatch(
                __import__("repro.netsim.packet", fromlist=["Packet"]).Packet(
                    conn_tuple("192.0.2.7"), syn=True
                )
            )
            assert result.delivered, mode

    def test_sk_lookup_rejects_outside_pool(self):
        server = make_server()
        server.configure_listening(POOL, ports=(443,), mode=ListenMode.SK_LOOKUP)
        from repro.netsim.packet import Packet
        result = server.dispatch(Packet(conn_tuple("203.0.113.1"), syn=True))
        assert result.stage is LookupStage.MISS

    def test_wildcard_accepts_everything(self):
        """The security hazard of Figure 4b: traffic far outside the pool
        still lands in the catch-all socket."""
        server = make_server()
        server.configure_listening(POOL, ports=(443,), mode=ListenMode.WILDCARD)
        from repro.netsim.packet import Packet
        result = server.dispatch(Packet(conn_tuple("203.0.113.1"), syn=True))
        assert result.stage is LookupStage.WILDCARD  # exposed!

    def test_reconfigure_replaces(self):
        server = make_server()
        server.configure_listening(POOL, ports=(443,), mode=ListenMode.PER_IP_BINDS)
        server.configure_listening(POOL, ports=(443,), mode=ListenMode.SK_LOOKUP)
        assert server.socket_count() == 2
        assert server.listen_mode == ListenMode.SK_LOOKUP

    def test_unknown_mode_rejected(self):
        server = make_server()
        with pytest.raises(ValueError):
            server.configure_listening(POOL, mode="telepathy")

    def test_default_ports_match_deployment(self):
        assert 80 in DEFAULT_SERVICE_PORTS and 443 in DEFAULT_SERVICE_PORTS
        assert len(DEFAULT_SERVICE_PORTS) == 13  # "80, 443, and 11 others"


class TestRepoint:
    def test_repoint_moves_pool_without_socket_churn(self):
        server = make_server()
        server.configure_listening(POOL, ports=(443,), mode=ListenMode.SK_LOOKUP)
        fds_before = sorted(s.fd for s in server.table.sockets())
        new_pool = parse_prefix("203.0.113.0/28")
        server.repoint_pool(new_pool)
        fds_after = sorted(s.fd for s in server.table.sockets())
        assert fds_before == fds_after  # no socket was closed or created
        from repro.netsim.packet import Packet
        assert server.dispatch(Packet(conn_tuple("203.0.113.7"), syn=True)).delivered
        assert not server.dispatch(Packet(conn_tuple("192.0.2.7"), syn=True)).delivered

    def test_repoint_requires_sk_lookup_mode(self):
        server = make_server()
        server.configure_listening(POOL, ports=(443,), mode=ListenMode.WILDCARD)
        with pytest.raises(RuntimeError):
            server.repoint_pool(parse_prefix("203.0.113.0/28"))


class TestHandshakeAndServe:
    def make_ready(self):
        server = make_server()
        server.configure_listening(POOL, ports=(443,), mode=ListenMode.SK_LOOKUP)
        return server

    def test_handshake_on_any_pool_address(self):
        server = self.make_ready()
        for i in (0, 7, 15):
            conn = server.handshake(
                conn_tuple(str(POOL.address_at(i)), sport=41000 + i),
                ClientHello(sni="a.example.com"),
                HTTPVersion.H2,
            )
            assert conn.certificate.covers("a.example.com")
        assert server.stats.connections == 3

    def test_handshake_refused_outside_pool(self):
        server = self.make_ready()
        with pytest.raises(ConnectionRefusedError):
            server.handshake(conn_tuple("203.0.113.1"), ClientHello(sni="a.example.com"),
                             HTTPVersion.H2)
        assert server.stats.refused_syns == 1

    def test_handshake_unknown_sni_fails(self):
        server = self.make_ready()
        with pytest.raises(TLSError):
            server.handshake(conn_tuple("192.0.2.1"), ClientHello(sni="nope.example.org"),
                             HTTPVersion.H2)
        assert server.stats.tls_failures == 1

    def test_serve_through_cache(self):
        server = self.make_ready()
        conn = server.handshake(conn_tuple("192.0.2.1"), ClientHello(sni="a.example.com"),
                                HTTPVersion.H2)
        r1 = server.serve(conn, Request("a.example.com", "/x"))
        r2 = server.serve(conn, Request("a.example.com", "/x"))
        assert r1.status is Status.OK and not r1.cache_hit
        assert r2.cache_hit

    def test_serve_non_canonical_authority_is_the_same_content(self):
        """An upper-case, dot-terminated spelling of a hosted name used to
        clear the certificate, registry and cache-key checks (each
        normalises) and then 404 at the origin, which compared it raw."""
        server = self.make_ready()
        conn = server.handshake(conn_tuple("192.0.2.1"), ClientHello(sni="a.example.com"),
                                HTTPVersion.H2)
        shouted = server.serve(conn, Request("A.EXAMPLE.COM.", "/x"))
        assert shouted.status is Status.OK and not shouted.cache_hit
        assert shouted.body_len == 100 and shouted.latency_s == server.serve_latency_s
        canonical = server.serve(conn, Request("a.example.com", "/x"))
        assert canonical.status is Status.OK and canonical.cache_hit
        assert canonical.served_by == shouted.served_by
        assert server.cache.origin_gateway.origins()[0].requests == 1

    def test_serve_misdirected_off_certificate(self):
        """RFC 7540 §9.1.2: authority outside the presented cert → 421."""
        server = self.make_ready()
        registry_extra = Customer("other", AccountType.FREE, {"z.example.com"})
        server.registry.add(registry_extra)
        conn = server.handshake(conn_tuple("192.0.2.1"), ClientHello(sni="a.example.com"),
                                HTTPVersion.H2)
        response = server.serve(conn, Request("z.example.com"))
        assert response.status is Status.MISDIRECTED

    def test_serve_unknown_hostname_404(self):
        server = self.make_ready()
        # Cert that covers an unhosted name:
        server.certs.add(Certificate("ghost.example.com"))
        conn = server.handshake(conn_tuple("192.0.2.1"), ClientHello(sni="ghost.example.com"),
                                HTTPVersion.H2)
        assert server.serve(conn, Request("ghost.example.com")).status is Status.NOT_FOUND

    def test_quic_handshake(self):
        server = self.make_ready()
        conn = server.handshake(
            conn_tuple("192.0.2.3", proto=Protocol.QUIC),
            ClientHello(sni="a.example.com"),
            HTTPVersion.H3,
        )
        assert conn.version is HTTPVersion.H3
