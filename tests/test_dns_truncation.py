"""UDP truncation + TCP completion: the wire-path bugfix sweep's sim side.

Before this suite's fixes, an oversize response went out mid-record-cut
(undecodable) and a TC-flagged answer was silently cached trimmed.  Every
test here fails on that code: the server must trim whole-record with TC
set, and the resolver must complete truncated answers over its TCP path
rather than caching a partial RRset.
"""

import pytest

from repro.clock import Clock
from repro.dns.edns import OptRecord, attach_opt
from repro.dns.records import A, TXT, DomainName, ResourceRecord, RRType
from repro.dns.resolver import RecursiveResolver, ResolveError
from repro.dns.server import AuthoritativeServer, QueryContext, ZoneAnswerSource
from repro.dns.wire import Message, WireError
from repro.dns.zone import Zone
from repro.netsim.addr import parse_address

UDP = QueryContext(pop="pop1", transport="udp")
TCP = QueryContext(pop="pop1", transport="tcp")

#: Enough ~60-byte TXT records that the full answer tops 2 KiB — over any
#: plausible UDP budget, comfortably under the 64 KiB TCP frame limit.
N_BIG = 40


def make_server() -> AuthoritativeServer:
    zone = Zone("example.com")
    big = DomainName.from_text("big.example.com")
    for i in range(N_BIG):
        zone.add_record(ResourceRecord(big, TXT((f"filler-{i:02d}-" + "x" * 46,)), 300))
    zone.add_address("www.example.com", A(parse_address("192.0.2.1")), ttl=60)
    return AuthoritativeServer(ZoneAnswerSource([zone]))


def big_query(qid: int = 1, payload: int | None = None) -> bytes:
    query = Message.query(qid, "big.example.com", RRType.TXT)
    if payload is not None:
        query = attach_opt(query, OptRecord(udp_payload_size=payload))
    return query.encode()


class TestServerTruncation:
    def test_oversize_udp_response_is_trimmed_with_tc(self):
        server = make_server()
        wire = server.handle_wire(big_query(), UDP)
        assert len(wire) <= 512  # EDNS-less client: RFC 1035 budget
        response = Message.decode(wire)  # whole-record trim: still decodes
        assert response.flags.tc
        assert 0 < len(response.answers) < N_BIG
        assert server.stats.truncations == 1

    def test_edns_budget_is_honoured(self):
        server = make_server()
        wire = server.handle_wire(big_query(payload=4096), UDP)
        response = Message.decode(wire)
        assert not response.flags.tc
        assert len(response.answers) == N_BIG
        assert len(wire) <= 4096
        assert server.stats.truncations == 0

    def test_tiny_edns_budget_clamped_to_512(self):
        # RFC 6891 §6.2.3: values below 512 are treated as 512.
        server = make_server()
        wire = server.handle_wire(big_query(payload=1), UDP)
        response = Message.decode(wire)
        assert response.flags.tc
        assert len(wire) <= 512

    def test_trim_keeps_the_opt_record(self):
        # The client needs the OPT echoed to interpret the TC context.
        server = make_server()
        wire = server.handle_wire(big_query(payload=600), UDP)
        response = Message.decode(wire)
        assert response.flags.tc
        assert any(rr.rrtype == RRType.OPT for rr in response.additional)

    def test_tcp_transport_never_truncates(self):
        server = make_server()
        wire = server.handle_wire(big_query(), TCP)
        response = Message.decode(wire)
        assert not response.flags.tc
        assert len(response.answers) == N_BIG
        assert server.stats.truncations == 0

    def test_small_answers_untouched_on_udp(self):
        server = make_server()
        wire = server.handle_wire(
            Message.query(2, "www.example.com", RRType.A).encode(), UDP
        )
        response = Message.decode(wire)
        assert not response.flags.tc
        assert response.answers[0].rdata == A(parse_address("192.0.2.1"))


class TestRRsetOverSixtyFourKiB:
    """An RRset no frame can carry: ``handle_wire`` used to encode it whole
    before looking at the limit and let ``WireError`` out — which, in a
    worker, ends the process.  It is a TC-flagged whole-record prefix now,
    on both transports."""

    N_HUGE = 1200  # x ~60-byte TXT records: ~85 KiB encoded

    def _server(self) -> AuthoritativeServer:
        zone = Zone("example.com")
        huge = DomainName.from_text("huge.example.com")
        for i in range(self.N_HUGE):
            zone.add_record(ResourceRecord(huge, TXT((f"filler-{i:04d}-" + "x" * 44,)), 300))
        return AuthoritativeServer(ZoneAnswerSource([zone]))

    @pytest.mark.parametrize("context,limit", [(UDP, 512), (TCP, 65535)])
    def test_answer_is_a_tc_prefix_within_the_limit(self, context, limit):
        server = self._server()
        wire = server.handle_wire(Message.query(3, "huge.example.com", RRType.TXT).encode(),
                                  context)
        assert len(wire) <= limit
        response = Message.decode(wire)
        assert response.flags.tc
        assert 0 < len(response.answers) < self.N_HUGE
        assert server.stats.truncations == 1

    def test_encode_without_a_limit_still_refuses(self):
        # A caller that asked for the whole message gets it or an error.
        response = self._server().handle_query(
            Message.query(4, "huge.example.com", RRType.TXT), TCP
        )
        assert len(response.answers) == self.N_HUGE
        with pytest.raises(WireError):
            response.encode()


class TestResolverTcpRetry:
    def _resolver(self, server: AuthoritativeServer, *, tcp: bool) -> RecursiveResolver:
        return RecursiveResolver(
            "r",
            Clock(),
            transport=lambda wire: server.handle_wire(wire, UDP),
            tcp_transport=(
                (lambda wire: server.handle_wire(wire, TCP)) if tcp else None
            ),
        )

    def test_truncated_answer_completes_over_tcp(self):
        server = make_server()
        resolver = self._resolver(server, tcp=True)
        records = resolver.resolve("big.example.com", RRType.TXT)
        assert len(records) == N_BIG
        assert resolver.stats.truncated_retries == 1
        assert server.stats.truncations == 1  # the UDP leg really was TC'd

    def test_completed_answer_is_cached_whole(self):
        server = make_server()
        resolver = self._resolver(server, tcp=True)
        resolver.resolve("big.example.com", RRType.TXT)
        again = resolver.resolve("big.example.com", RRType.TXT)
        assert len(again) == N_BIG
        # Second lookup is a cache hit — and the cache holds the TCP-complete
        # set, not the trimmed UDP one.
        assert resolver.stats.truncated_retries == 1
        assert server.stats.queries == 2  # one UDP attempt + one TCP retry

    def test_without_tcp_path_truncation_is_a_failure(self):
        # The pre-fix behaviour was to cache the trimmed set silently; the
        # contract now is an explicit failure when no TCP path exists.
        server = make_server()
        resolver = self._resolver(server, tcp=False)
        with pytest.raises(ResolveError):
            resolver.resolve("big.example.com", RRType.TXT)

    def test_untruncated_answers_never_touch_tcp(self):
        server = make_server()
        calls = {"tcp": 0}

        def tcp_spy(wire):
            calls["tcp"] += 1
            return server.handle_wire(wire, TCP)

        resolver = RecursiveResolver(
            "r",
            Clock(),
            transport=lambda wire: server.handle_wire(wire, UDP),
            tcp_transport=tcp_spy,
        )
        resolver.resolve("www.example.com")
        assert calls["tcp"] == 0
        assert resolver.stats.truncated_retries == 0
