"""Wire frontend without sockets: framing, malformed-input policy, and the
differential contract against the in-simulation server.

The worker loop in :mod:`repro.serve.workers` assumes two things proven
here: nothing in :class:`ProtocolCore`/:class:`StreamSession` raises on
attacker-controlled bytes, and the frontend answers byte-for-byte what the
simulation's :class:`AuthoritativeServer` answers for the same query —
transport framing is the *only* thing it adds.
"""

import random
import struct
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns import edns
from repro.dns.records import (
    A,
    TXT,
    DomainName,
    OPTPseudo,
    Question,
    ResourceRecord,
    RRType,
)
from repro.dns.server import AuthoritativeServer, QueryContext, ZoneAnswerSource
from repro.dns.wire import Flags, Message, Opcode, Rcode
from repro.dns.zone import Zone
from repro.netsim.addr import parse_address
from repro.serve.app import (
    AGILE_HOSTNAME,
    ALIAS_HOSTNAME,
    BIG_HOSTNAME,
    BIG_TXT_RECORDS,
    build_server,
    wide_scope_query,
)
from repro.serve.protocol import ProtocolCore, StreamSession


def frame(wire: bytes) -> bytes:
    return len(wire).to_bytes(2, "big") + wire


def deframe_all(data: bytes) -> list[Message]:
    out = []
    at = 0
    while at < len(data):
        length = int.from_bytes(data[at : at + 2], "big")
        out.append(Message.decode(data[at + 2 : at + 2 + length]))
        at += 2 + length
    assert at == len(data), "response stream has trailing garbage"
    return out


def _zone_core() -> ProtocolCore:
    zone = Zone("example.com")
    zone.add_address("www.example.com", A(parse_address("192.0.2.1")), ttl=60)
    return ProtocolCore(AuthoritativeServer(ZoneAnswerSource([zone])))


@pytest.fixture
def core() -> ProtocolCore:
    return _zone_core()


class TestStreamSession:
    def test_single_frame(self, core):
        session = StreamSession(core)
        out = session.feed(frame(Message.query(1, "www.example.com", RRType.A).encode()))
        (response,) = deframe_all(out)
        assert response.flags.rcode == Rcode.NOERROR
        assert not session.closed

    def test_frames_split_at_every_byte_boundary(self, core):
        wire = frame(Message.query(2, "www.example.com", RRType.A).encode())
        for split in range(1, len(wire)):
            session = StreamSession(core)
            first = session.feed(wire[:split])
            rest = session.feed(wire[split:])
            (response,) = deframe_all(first + rest)
            assert response.id == 2
            assert response.flags.rcode == Rcode.NOERROR

    def test_pipelined_queries_in_one_chunk(self, core):
        chunk = b"".join(
            frame(Message.query(qid, "www.example.com", RRType.A).encode())
            for qid in (10, 11, 12)
        )
        session = StreamSession(core)
        responses = deframe_all(session.feed(chunk))
        assert [r.id for r in responses] == [10, 11, 12]

    def test_zero_length_frame_closes(self, core):
        session = StreamSession(core)
        assert session.feed(b"\x00\x00") == b""
        assert session.closed
        assert session.feed(frame(b"anything")) == b""

    def test_garbage_payload_closes(self, core):
        session = StreamSession(core)
        assert session.feed(frame(b"\x01\x02\x03")) == b""
        assert session.closed

    def test_good_frames_before_garbage_still_answer(self, core):
        good = frame(Message.query(3, "www.example.com", RRType.A).encode())
        session = StreamSession(core)
        out = session.feed(good + frame(b"junk"))
        (response,) = deframe_all(out)
        assert response.id == 3
        assert session.closed

    def test_answered_counts_framed_messages_not_chunks(self, core):
        # What the worker adds to its ``queries``/``responses`` counters.
        pipelined = StreamSession(core)
        pipelined.feed(b"".join(
            frame(Message.query(qid, "www.example.com", RRType.A).encode())
            for qid in (10, 11, 12)
        ))
        assert pipelined.answered == 3
        split = StreamSession(core)
        for byte in frame(Message.query(2, "www.example.com", RRType.A).encode()):
            split.feed(bytes([byte]))
        assert split.answered == 1
        garbage = StreamSession(core)
        garbage.feed(frame(b"junk"))
        assert garbage.answered == 0

    def test_rrset_over_64k_is_answered_not_raised(self):
        # 1,200 TXT records encode to ~85 KiB, more than a frame can carry:
        # the session must answer with a TC-flagged prefix and stay open
        # (an exception here would leave the worker's loop and end it).
        zone = Zone("example.com")
        huge = DomainName.from_text("huge.example.com")
        for i in range(1200):
            zone.add_record(ResourceRecord(huge, TXT((f"filler-{i:04d}-" + "x" * 44,)), 300))
        core = ProtocolCore(AuthoritativeServer(ZoneAnswerSource([zone])))
        query = Message.query(4, "huge.example.com", RRType.TXT).encode()
        session = StreamSession(core)
        (response,) = deframe_all(session.feed(frame(query)))
        assert response.flags.tc and 0 < len(response.answers) < 1200
        assert not session.closed and session.answered == 1
        datagram = Message.decode(core.datagram(query))
        assert datagram.flags.tc and 0 < len(datagram.answers) < len(response.answers)


class TestMalformedDatagrams:
    """The worker-facing contract: drop or answer, never raise."""

    def _wire(self, qid: int = 1) -> bytearray:
        return bytearray(Message.query(qid, "www.example.com", RRType.A).encode())

    def test_truncated_headers_dropped(self, core):
        full = bytes(self._wire())
        for cut in range(0, 12):
            assert core.datagram(full[:cut]) is None

    def test_pointer_loop_in_qname_dropped(self, core):
        wire = self._wire()[:12] + b"\xc0\x0c" + b"\x00\x01\x00\x01"
        assert core.datagram(bytes(wire)) is None

    @pytest.mark.parametrize("label_type", [0x40, 0x80])
    def test_reserved_label_types_dropped(self, core, label_type):
        wire = self._wire()
        wire[12] = label_type  # first qname length byte
        assert core.datagram(bytes(wire)) is None

    def test_bad_opt_body_gets_formerr(self, core):
        # Message framing is fine; the OPT option TLV claims 16 bytes and
        # carries 2 (RFC 6891 §6.1.3: FORMERR, not a drop).
        query = Message.query(5, "www.example.com", RRType.A)
        opt = ResourceRecord(
            DomainName.root(),
            OPTPseudo(udp_payload_size=1232, ttl_word=0, data=b"\x00\x08\x00\x10\x00\x01"),
            ttl=0,
        )
        response = core.datagram(query._replace(additional=(opt,)).encode())
        assert Message.decode(response).flags.rcode == Rcode.FORMERR

    def test_unknown_class_refused(self, core):
        wire = self._wire(6)
        wire[-1] = 0x03  # qclass IN -> CH
        response = core.datagram(bytes(wire))
        assert Message.decode(response).flags.rcode == Rcode.REFUSED

    def test_unknown_qtype_notimp(self, core):
        wire = self._wire(7)
        wire[-3] = 0x63  # qtype A(1) -> 99 (SPF, unsupported)
        response = core.datagram(bytes(wire))
        assert Message.decode(response).flags.rcode == Rcode.NOTIMP

    def test_non_query_opcode_notimp(self, core):
        query = Message(
            id=8,
            flags=Flags(opcode=Opcode.NOTIFY),
            questions=(Question(DomainName.from_text("www.example.com"), RRType.A),),
        )
        response = core.datagram(query.encode())
        assert Message.decode(response).flags.rcode == Rcode.NOTIMP

    def test_response_bit_set_gets_formerr(self, core):
        query = Message.query(9, "www.example.com", RRType.A)
        response = core.datagram(query._replace(flags=Flags(qr=True)).encode())
        assert Message.decode(response).flags.rcode == Rcode.FORMERR

    def test_seeded_junk_never_raises(self, core):
        rng = random.Random(0xBAD)
        for _ in range(500):
            junk = rng.randbytes(rng.randint(0, 64))
            out = core.datagram(junk)  # must drop or answer, never raise
            assert out is None or Message.decode(out)

    def test_mutated_real_queries_never_raise(self, core):
        rng = random.Random(0xF00D)
        base = bytes(self._wire())
        for _ in range(500):
            wire = bytearray(base)
            for _ in range(rng.randint(1, 6)):
                wire[rng.randrange(len(wire))] = rng.randrange(256)
            out = core.datagram(bytes(wire))
            assert out is None or Message.decode(out)


def _ecs(family: int, source: int, scope: int, address: bytes) -> bytes:
    """One ECS option TLV (RFC 7871 §6), fields as given, checked by nobody."""
    body = struct.pack("!HBB", family, source, scope) + address
    return struct.pack("!HH", 8, len(body)) + body


def _edns_query(*options: bytes, opts: int = 1) -> bytes:
    """An A query with ``opts`` OPT records, each carrying ``options``."""
    opt = ResourceRecord(DomainName.root(), OPTPseudo(1232, 0, b"".join(options)), 0)
    return Message.query(11, "www.example.com", RRType.A)._replace(
        additional=(opt,) * opts).encode()


def _rcode(response: bytes) -> int:
    return Message.decode(response).flags.rcode


class TestHostileEdns:
    """Malformed EDNS that decodes as a message is answered FORMERR
    (RFC 6891 §6.1.1, RFC 7871 §6), never raised and never NOERROR."""

    @pytest.mark.parametrize("family,source,scope,address", [
        (1, 24, 33, b"\xcb\x00\x71"),
        (2, 56, 129, b"\x20\x01\x0d\xb8\x00\x00\x01"),
    ], ids=["v4-scope-33", "v6-scope-129"])
    def test_scope_wider_than_the_family_gets_formerr(self, core, family, source, scope,
                                                      address):
        # Once a ValueError out of ``datagram``, which ended the worker.
        assert _rcode(core.datagram(_edns_query(_ecs(family, source, scope, address)))) \
            == Rcode.FORMERR

    def test_the_smoke_query_gets_formerr(self):
        response = ProtocolCore(build_server()).datagram(wide_scope_query(3))
        assert response[:2] == b"\x00\x03" and _rcode(response) == Rcode.FORMERR

    def test_two_opt_records_get_formerr(self, core):
        assert _rcode(core.datagram(_edns_query(opts=2))) == Rcode.FORMERR
        assert _rcode(core.datagram(_edns_query(_ecs(1, 24, 0, b"\xcb\x00\x71"), opts=2))) \
            == Rcode.FORMERR

    def test_two_ecs_options_get_formerr(self, core):
        ecs = _ecs(1, 24, 0, b"\xcb\x00\x71")
        assert _rcode(core.datagram(_edns_query(ecs))) == Rcode.NOERROR
        assert _rcode(core.datagram(_edns_query(ecs, ecs))) == Rcode.FORMERR

    def test_address_longer_than_source_needs_gets_formerr(self, core):
        assert _rcode(core.datagram(_edns_query(_ecs(1, 24, 0, b"\xcb\x00\x71\x00")))) \
            == Rcode.FORMERR

    def test_address_bits_past_source_get_formerr(self, core):
        # /22 leaves the low two bits of the third octet: 0x71 sets one.
        assert _rcode(core.datagram(_edns_query(_ecs(1, 22, 0, b"\xcb\x00\x71")))) \
            == Rcode.FORMERR
        assert _rcode(core.datagram(_edns_query(_ecs(1, 22, 0, b"\xcb\x00\x70")))) \
            == Rcode.NOERROR


@settings(max_examples=400, deadline=None)
@given(
    family=st.sampled_from([1, 2, 0, 3]),
    source=st.integers(0, 136),
    scope=st.integers(0, 136),
    length_delta=st.sampled_from([0, 0, 0, -1, 1, 2]),
    value=st.integers(0, (1 << 144) - 1),
    clean=st.booleans(),
    count=st.integers(0, 3),
)
def test_datagram_formerrs_exactly_the_malformed_ecs(family, source, scope, length_delta,
                                                     value, clean, count):
    need = (source + 7) // 8
    length = max(0, need + length_delta)
    if clean and source < 8 * length:
        value &= ~((1 << (8 * length - source)) - 1)
    address = value.to_bytes(19, "big")[-length:] if length else b""
    bits = {1: 32, 2: 128}.get(family)
    malformed = count > 1 or count == 1 and (
        bits is None or source > bits or scope > bits or length != need
        or int.from_bytes(address, "big") & ((1 << (8 * need - source)) - 1) != 0
    )
    response = _zone_core().datagram(_edns_query(*[_ecs(family, source, scope, address)] * count))
    decoded = Message.decode(response)  # an answer, whatever came in
    assert decoded.flags.rcode == (Rcode.FORMERR if malformed else Rcode.NOERROR)
    if not malformed:
        echo = edns.extract_opt(decoded)
        if count:
            assert echo.client_subnet.prefix.length == echo.client_subnet.scope == source
        else:
            assert echo.client_subnet is None


class TestDifferentialWireVsSim:
    """Same builder, same seed, same query order: the wire frontend and the
    in-simulation server must produce identical messages."""

    SEED = 0xD1FF

    def _twins(self) -> tuple[ProtocolCore, AuthoritativeServer]:
        return ProtocolCore(build_server(self.SEED)), build_server(self.SEED)

    def _corpus(self) -> list[Message]:
        queries = [
            Message.query(100, AGILE_HOSTNAME, RRType.A),      # policy-minted
            Message.query(101, AGILE_HOSTNAME, RRType.A),      # second mint
            Message.query(102, ALIAS_HOSTNAME, RRType.A),      # CNAME chase
            Message.query(103, "missing.example.com", RRType.A),  # NXDOMAIN
            Message.query(104, AGILE_HOSTNAME, RRType.NS),     # NODATA
            Message.query(105, "other.org", RRType.A),         # out of zone
        ]
        return queries

    @staticmethod
    def _same(wire_response: bytes, sim_response: Message) -> None:
        decoded = Message.decode(wire_response)
        assert decoded.flags == sim_response.flags
        assert decoded.answers == sim_response.answers
        assert decoded.authority == sim_response.authority
        assert decoded.additional == sim_response.additional

    def test_udp_path_matches_sim(self):
        wire_core, sim = self._twins()
        for query in self._corpus():
            response = wire_core.datagram(query.encode())
            expected = sim.handle_query(
                query, QueryContext(pop="edge", transport="udp")
            )
            self._same(response, expected)

    def test_tcp_path_matches_sim_including_big_answers(self):
        wire_core, sim = self._twins()
        session = StreamSession(wire_core)
        queries = [*self._corpus(), Message.query(106, BIG_HOSTNAME, RRType.TXT)]
        out = b"".join(session.feed(frame(q.encode())) for q in queries)
        responses = deframe_all(out)
        assert len(responses) == len(queries)
        context = QueryContext(pop="edge", transport="tcp")
        for query, got in zip(queries, responses):
            expected = sim.handle_query(query, context)
            assert got.flags == expected.flags
            assert got.answers == expected.answers
            assert got.authority == expected.authority
        assert len(responses[-1].answers) == BIG_TXT_RECORDS  # no TC over TCP

    def test_udp_truncation_is_a_prefix_of_the_full_answer(self):
        # The one place the transports legitimately differ: an oversize
        # answer on UDP must be a TC-flagged whole-record prefix of what
        # the sim serves in full.
        wire_core, sim = self._twins()
        query = Message.query(107, BIG_HOSTNAME, RRType.TXT)
        udp = Message.decode(wire_core.datagram(query.encode()))
        full = sim.handle_query(query, QueryContext(pop="edge", transport="tcp"))
        assert udp.flags.tc
        assert 0 < len(udp.answers) < len(full.answers)
        assert udp.answers == full.answers[: len(udp.answers)]

    def test_stats_surfaces_agree(self):
        wire_core, sim = self._twins()
        context = QueryContext(pop="edge", transport="udp")
        for query in self._corpus():
            wire_core.datagram(query.encode())
            sim.handle_wire(query.encode(), context)
        assert wire_core.stats.by_rcode == sim.stats.by_rcode
        assert wire_core.stats.by_type == sim.stats.by_type


class TestCallCounts:
    """The ledger's exact counters (``benchmarks/e2e``: ``dns.wire`` and
    ``dns.edns`` ``calls_per_op``), pinned where tier 1 sees them move.

    Counted the way ``benchmarks/e2e/trace.py`` counts: by swapping the
    attribute on the module or class, so a request path that binds
    ``extract_opt`` at import time — and so escapes the ledger — fails
    here too.
    """

    TARGETS = ((Message, "decode"), (Message, "encode"),
               (edns, "extract_opt"), (edns, "attach_opt"))

    @classmethod
    @contextmanager
    def _counted(cls):
        calls = dict.fromkeys((attr for _, attr in cls.TARGETS), 0)
        with pytest.MonkeyPatch.context() as patch:
            for owner, attr in cls.TARGETS:
                raw = vars(owner)[attr]
                bound = isinstance(raw, classmethod)

                def counting(*args, _fn=raw.__func__ if bound else raw, _attr=attr, **kwargs):
                    calls[_attr] += 1
                    return _fn(*args, **kwargs)

                patch.setattr(owner, attr, classmethod(counting) if bound else counting)
            yield calls

    @staticmethod
    def _query(name: str, rrtype: RRType) -> bytes:
        return edns.attach_opt(
            Message.query(1, name, rrtype), edns.OptRecord(udp_payload_size=1232)
        ).encode()

    def test_edns_a_query_costs_one_of_each(self):
        core = ProtocolCore(build_server())
        query = self._query(AGILE_HOSTNAME, RRType.A)
        with self._counted() as calls:
            assert core.datagram(query)[3] & 0x0F == Rcode.NOERROR
        assert calls == {"decode": 1, "encode": 1, "extract_opt": 1, "attach_opt": 0}

    def test_truncated_answer_is_encoded_once_per_transport(self):
        core = ProtocolCore(build_server())
        query = self._query(BIG_HOSTNAME, RRType.TXT)
        with self._counted() as calls:
            assert core.datagram(query)[2] & 0x02  # TC at the 1232 budget
            assert calls["encode"] == 1
            framed = StreamSession(core).feed(frame(query))
        assert calls == {"decode": 2, "encode": 2, "extract_opt": 2, "attach_opt": 0}
        assert len(deframe_all(framed)[0].answers) == BIG_TXT_RECORDS

    def test_garbage_opt_is_parsed_once(self):
        core = ProtocolCore(build_server())
        opt = ResourceRecord(
            DomainName.root(),
            OPTPseudo(udp_payload_size=1232, ttl_word=0, data=b"\x00\x08\x00\x10\x00\x01"),
            ttl=0,
        )
        query = Message.query(5, AGILE_HOSTNAME, RRType.A)._replace(additional=(opt,)).encode()
        with self._counted() as calls:
            assert core.datagram(query)[3] & 0x0F == Rcode.FORMERR
        assert calls == {"decode": 1, "encode": 1, "extract_opt": 1, "attach_opt": 0}

    def test_contexts_are_built_per_core_not_per_query(self):
        core = ProtocolCore(build_server(), pop="serve")
        query = self._query(AGILE_HOSTNAME, RRType.A)
        contexts = []
        answer = core.server.source.answer

        def seen(question, context):
            contexts.append(context)
            return answer(question, context)

        built = []
        new = QueryContext.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core.server.source, "answer", seen)
            patch.setattr(QueryContext, "__new__", counted)
            core.datagram(query)
            core.datagram(query)
            StreamSession(core).feed(frame(query))
            assert built == []
            resolver = parse_address("198.51.100.53")
            core.datagram(query, resolver)
        assert contexts[0] is contexts[1]
        assert contexts[:3] == [QueryContext("serve"), QueryContext("serve"),
                                QueryContext("serve", transport="tcp")]
        assert contexts[3] == QueryContext("serve", resolver) and core.pop == "serve"
