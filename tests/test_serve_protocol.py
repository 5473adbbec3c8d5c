"""Wire frontend without sockets: framing, malformed-input policy, and the
differential contract against the in-simulation server.

The worker loop in :mod:`repro.serve.workers` assumes two things proven
here: nothing in :class:`ProtocolCore`/:class:`StreamSession` raises on
attacker-controlled bytes, and the frontend answers byte-for-byte what the
simulation's :class:`AuthoritativeServer` answers for the same query —
transport framing is the *only* thing it adds.
"""

import random
from contextlib import contextmanager
from dataclasses import replace

import pytest

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


@pytest.fixture
def core() -> ProtocolCore:
    zone = Zone("example.com")
    zone.add_address("www.example.com", A(parse_address("192.0.2.1")), ttl=60)
    return ProtocolCore(AuthoritativeServer(ZoneAnswerSource([zone])))


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
        response = core.datagram(replace(query, additional=(opt,)).encode())
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
        response = core.datagram(replace(query, flags=Flags(qr=True)).encode())
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
        query = replace(Message.query(5, AGILE_HOSTNAME, RRType.A), additional=(opt,)).encode()
        with self._counted() as calls:
            assert core.datagram(query)[3] & 0x0F == Rcode.FORMERR
        assert calls == {"decode": 1, "encode": 1, "extract_opt": 1, "attach_opt": 0}
