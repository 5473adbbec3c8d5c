"""RFC 1035 wire-format codec: messages, headers, and name compression.

The deployment answers "100 % of DNS responses for 20+ million hostnames"
(§4.2) — real DNS packets on the wire.  The simulator carries *bytes*
between stubs, resolvers and the authoritative server, so changes to the
answering logic (conventional zone vs. the paper's policy engine) are
provably invisible at the protocol layer: same codec, same message shapes.

Implemented: the 12-octet header with its flag fields, QD/AN/NS/AR
sections, pointer-based name compression on encode and decode (with loop
and forward-pointer protection), and the RDATA formats from
:mod:`repro.dns.records`.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple

from ..netsim.addr import IPAddress
from ..value import Value
from .records import (
    A,
    AAAA,
    CNAME,
    NS,
    OPTPseudo,
    SOA,
    TXT,
    DomainName,
    Question,
    RData,
    ResourceRecord,
    RRClass,
    RRType,
)

__all__ = ["Opcode", "Rcode", "Flags", "Message", "WireError", "encode_name", "decode_name"]

_HEADER = struct.Struct("!HHHHHH")
_QUESTION_FIXED = struct.Struct("!HH")  # QTYPE, QCLASS
_RR_FIXED = struct.Struct("!HHIH")  # TYPE, CLASS, TTL, RDLENGTH
_MAX_MESSAGE = 65535  # a TCP frame length is 16 bits; UDP cannot carry more either
_TC = 1 << 9
_POINTER_MASK = 0xC0


class WireError(ValueError):
    """Raised on malformed wire data."""


class Opcode(enum.IntEnum):
    QUERY = 0
    STATUS = 2
    NOTIFY = 4
    UPDATE = 5


class Rcode(enum.IntEnum):
    NOERROR = 0
    FORMERR = 1
    SERVFAIL = 2
    NXDOMAIN = 3
    NOTIMP = 4
    REFUSED = 5


#: Wire value → member, per lenient field; a constant table, built once.
_MEMBERS = {
    enum_cls: {member.value: member for member in enum_cls}
    for enum_cls in (Opcode, Rcode, RRType, RRClass)
}
_OPCODES, _RCODES = _MEMBERS[Opcode], _MEMBERS[Rcode]


def _lenient(enum_cls, value: int):
    """Map a wire value into ``enum_cls``, keeping unknown values as ints.

    A query with opcode IQUERY or qtype MX is *well-formed* — a server must
    answer it (NOTIMP), not crash decoding it.  IntEnum members compare and
    hash equal to their values, so downstream ``==``/``in`` checks behave
    identically whether the field decoded to a member or a raw int.
    """
    return _MEMBERS[enum_cls].get(value, value)


class _FlagsFields(NamedTuple):
    qr: bool = False  # response?
    opcode: Opcode = Opcode.QUERY
    aa: bool = False  # authoritative answer
    tc: bool = False  # truncated
    rd: bool = True   # recursion desired
    ra: bool = False  # recursion available
    rcode: Rcode = Rcode.NOERROR


class Flags(Value, _FlagsFields):
    """The header's second 16-bit word, unpacked."""

    __slots__ = ()

    def pack(self) -> int:
        word = 0
        if self.qr:
            word |= 1 << 15
        word |= (self.opcode & 0xF) << 11
        if self.aa:
            word |= 1 << 10
        if self.tc:
            word |= 1 << 9
        if self.rd:
            word |= 1 << 8
        if self.ra:
            word |= 1 << 7
        word |= self.rcode & 0xF
        return word

    @classmethod
    def unpack(cls, word: int) -> "Flags":
        opcode, rcode = (word >> 11) & 0xF, word & 0xF
        return tuple.__new__(cls, (
            word & 0x8000 != 0,
            _OPCODES.get(opcode, opcode),
            word & 0x0400 != 0,
            word & 0x0200 != 0,
            word & 0x0100 != 0,
            word & 0x0080 != 0,
            _RCODES.get(rcode, rcode),
        ))


def encode_name(name: DomainName, out: bytearray, offsets: dict[tuple[str, ...], int]) -> None:
    """Append ``name`` to ``out`` using RFC 1035 §4.1.4 compression.

    ``offsets`` maps previously emitted name suffixes to their buffer
    offsets.  Invariant: only suffixes starting at or below 0x3FFF — the
    14-bit pointer horizon — are ever registered, so every table entry is a
    legal pointer target and lookup needs no second validation.  A suffix
    first emitted beyond the horizon is written uncompressed and left
    unregistered (it could never be pointed at); an already-registered
    suffix is never overwritten, so a pointer always targets the earliest
    — and therefore pointable — occurrence.  Suffix keys are the
    (already case-normalised) label tuples of :class:`DomainName`, so two
    registrations can only collide when the wire bytes are identical;
    pointers never alias case-folded variants of different on-wire names.
    """
    labels = name.labels
    for i in range(len(labels)):
        suffix = labels[i:]
        at = offsets.get(suffix)
        if at is not None and at <= 0x3FFF:
            out += struct.pack("!H", 0xC000 | at)
            return
        if at is None and len(out) <= 0x3FFF:
            offsets[suffix] = len(out)
        label = labels[i].encode("ascii")
        out.append(len(label))
        out += label
    out.append(0)


def decode_name(data: bytes, offset: int) -> tuple[DomainName, int]:
    """Decode a (possibly compressed) name; returns (name, next offset).

    Guards against pointer loops (each pointer must go strictly backwards)
    and over-long names.
    """
    labels: list[str] = []
    jumped = False
    next_offset = offset
    seen_limit = offset  # pointers must target earlier bytes than any we've followed
    total = 0
    for _ in range(256):  # hard cap on label count — also bounds pointer chains
        if offset >= len(data):
            raise WireError("truncated name")
        length = data[offset]
        if length & _POINTER_MASK == _POINTER_MASK:
            if offset + 1 >= len(data):
                raise WireError("truncated compression pointer")
            pointer = ((length & 0x3F) << 8) | data[offset + 1]
            if pointer >= seen_limit:
                raise WireError("compression pointer does not go backwards")
            if not jumped:
                next_offset = offset + 2
                jumped = True
            seen_limit = pointer
            offset = pointer
            continue
        if length & _POINTER_MASK:
            raise WireError(f"reserved label type {length:#04x}")
        if length == 0:
            if not jumped:
                next_offset = offset + 1
            # Every label was bounded, ASCII-checked and lower-cased below.
            return tuple.__new__(DomainName, (tuple(labels),)), next_offset
        start = offset + 1
        end = start + length
        if end > len(data):
            raise WireError("label runs past end of message")
        total += length + 1
        if total + 1 > 255:
            raise WireError("name exceeds 255 octets")
        try:
            labels.append(data[start:end].decode("ascii", errors="strict").lower())
        except UnicodeDecodeError as exc:
            # The object model is ASCII hostnames (the only names this
            # system mints or serves); binary labels are malformed here.
            raise WireError(f"label contains non-ASCII bytes at offset {start}") from exc
        offset = end
    raise WireError("name has too many labels/pointers")


def _encode_rdata(rdata: RData, out: bytearray, offsets: dict) -> None:
    """Append RDATA preceded by its 16-bit length."""
    len_at = len(out)
    out += b"\x00\x00"  # placeholder
    start = len(out)
    if isinstance(rdata, (A, AAAA)):
        out += rdata.address.packed()
    elif isinstance(rdata, (CNAME, NS)):
        target = rdata.target if isinstance(rdata, CNAME) else rdata.nameserver
        # RFC 3597 discourages compression inside newer RDATA; CNAME/NS may
        # legally compress, and we do, matching common server behaviour.
        encode_name(target, out, offsets)
    elif isinstance(rdata, SOA):
        encode_name(rdata.mname, out, offsets)
        encode_name(rdata.rname, out, offsets)
        out += struct.pack(
            "!IIIII", rdata.serial, rdata.refresh, rdata.retry, rdata.expire, rdata.minimum
        )
    elif isinstance(rdata, TXT):
        for s in rdata.strings:
            raw = s.encode()
            out.append(len(raw))
            out += raw
    else:
        raise WireError(f"cannot encode RDATA type {type(rdata).__name__}")
    rdlen = len(out) - start
    out[len_at:len_at + 2] = struct.pack("!H", rdlen)


def _decode_rdata(rrtype: RRType, data: bytes, start: int, rdlen: int) -> RData:
    end = start + rdlen
    if end > len(data):
        raise WireError("RDATA runs past end of message")
    if rrtype == RRType.A:
        if rdlen != 4:
            raise WireError(f"A RDATA must be 4 bytes, got {rdlen}")
        return A(IPAddress.from_packed(data[start:end]))
    if rrtype == RRType.AAAA:
        if rdlen != 16:
            raise WireError(f"AAAA RDATA must be 16 bytes, got {rdlen}")
        return AAAA(IPAddress.from_packed(data[start:end]))
    if rrtype in (RRType.CNAME, RRType.NS):
        name, used = decode_name(data, start)
        if used > end:
            raise WireError("name RDATA overruns declared length")
        return CNAME(name) if rrtype == RRType.CNAME else NS(name)
    if rrtype == RRType.SOA:
        mname, off = decode_name(data, start)
        rname, off = decode_name(data, off)
        if off + 20 > end:
            raise WireError("SOA RDATA too short")
        serial, refresh, retry, expire, minimum = struct.unpack_from("!IIIII", data, off)
        return SOA(mname, rname, serial, refresh, retry, expire, minimum)
    if rrtype == RRType.TXT:
        strings: list[str] = []
        off = start
        while off < end:
            slen = data[off]
            off += 1
            if off + slen > end:
                raise WireError("TXT character-string overruns RDATA")
            strings.append(data[off:off + slen].decode(errors="replace"))
            off += slen
        return TXT(tuple(strings))
    raise WireError(f"cannot decode RDATA for type {rrtype!r}")


def _read_rrs(data: bytes, count: int, offset: int) -> tuple[list[ResourceRecord], int]:
    """Decode ``count`` records of one section; returns (records, next offset)."""
    records: list[ResourceRecord] = []
    for _ in range(count):
        name, offset = decode_name(data, offset)
        if offset + 10 > len(data):
            raise WireError("truncated RR fixed fields")
        rrtype_raw, rrclass_raw, ttl, rdlen = _RR_FIXED.unpack_from(data, offset)
        offset += 10
        if offset + rdlen > len(data):
            raise WireError("RDATA runs past end of message")
        # Both TTLs below are inside RFC 2181's range: built as tuples.
        if rrtype_raw == RRType.OPT:
            rdata: RData = OPTPseudo(rrclass_raw, ttl, data[offset:offset + rdlen])
            offset += rdlen
            records.append(tuple.__new__(ResourceRecord, (name, rdata, 0, RRClass.IN)))
            continue
        rdata = _decode_rdata(_lenient(RRType, rrtype_raw), data, offset, rdlen)
        offset += rdlen
        records.append(tuple.__new__(ResourceRecord, (
            name, rdata, ttl & 0x7FFFFFFF, _lenient(RRClass, rrclass_raw),
        )))
    return records, offset


class _MessageFields(NamedTuple):
    id: int
    flags: Flags
    questions: tuple[Question, ...] = ()
    answers: tuple[ResourceRecord, ...] = ()
    authority: tuple[ResourceRecord, ...] = ()
    additional: tuple[ResourceRecord, ...] = ()


class Message(Value, _MessageFields):
    """A complete DNS message with all four sections."""

    __slots__ = ()

    def __new__(
        cls,
        id: int,
        flags: Flags,
        questions: tuple[Question, ...] = (),
        answers: tuple[ResourceRecord, ...] = (),
        authority: tuple[ResourceRecord, ...] = (),
        additional: tuple[ResourceRecord, ...] = (),
    ) -> "Message":
        if not 0 <= id <= 0xFFFF:
            raise ValueError("message ID must fit 16 bits")
        return tuple.__new__(cls, (id, flags, questions, answers, authority, additional))

    # -- constructors ------------------------------------------------------

    @classmethod
    def query(cls, qid: int, name: DomainName | str, rrtype: RRType, rd: bool = True) -> "Message":
        if isinstance(name, str):
            name = DomainName.from_text(name)
        return cls(qid, Flags(rd=rd), (Question(name, rrtype),))

    def response(
        self,
        answers: tuple[ResourceRecord, ...] = (),
        rcode: Rcode = Rcode.NOERROR,
        aa: bool = True,
        authority: tuple[ResourceRecord, ...] = (),
        additional: tuple[ResourceRecord, ...] = (),
        ra: bool = False,
    ) -> "Message":
        """Build the response skeleton for this query (echoes id+opcode+question).

        Both values are built from this message's own valid fields, so
        neither needs its checks: they are built as tuples (DESIGN.md §17).
        """
        flags = self.flags
        return tuple.__new__(Message, (
            self.id,
            tuple.__new__(Flags, (True, flags.opcode, aa, False, flags.rd, ra, rcode)),
            self.questions,
            answers,
            authority,
            additional,
        ))

    @property
    def question(self) -> Question:
        if not self.questions:
            raise WireError("message has no question")
        return self.questions[0]

    def with_answers(self, answers: tuple[ResourceRecord, ...]) -> "Message":
        return self._replace(answers=answers)

    # -- codec ---------------------------------------------------------------

    def encode(self, limit: int | None = None) -> bytes:
        """Wire bytes; with ``limit``, at most that many, cut on a record.

        Every record is encoded once, in section order, and the offset it
        ends at remembered.  Compression pointers only point backwards and
        a suffix is registered where it is first emitted, so the encoding
        of a prefix of the records *is* the prefix of the encoding.  An
        encoding over ``limit`` is therefore cut at the last record
        boundary that leaves room for a trailing OPT (whose owner is the
        root, so its bytes do not depend on where they sit), TC is set and
        the section counts are patched in place.  That drops additional
        records first, then authority, then answers, each from the back
        (RFC 2181 §9), and never cuts mid-record.  Header, question and
        OPT always go out, whatever the limit.
        """
        flagword = self.flags.pack()
        out = bytearray(_HEADER.pack(
            self.id,
            flagword,
            len(self.questions),
            len(self.answers),
            len(self.authority),
            len(self.additional),
        ))
        offsets: dict[tuple[str, ...], int] = {}
        for q in self.questions:
            encode_name(q.name, out, offsets)
            out += _QUESTION_FIXED.pack(q.rrtype, q.rrclass)
        records = (*self.answers, *self.authority, *self.additional)
        ends = [len(out)]  # ends[i]: where record i starts, ends[i + 1]: where it ends
        for rr in records:
            encode_name(rr.name, out, offsets)
            rdata = rr.rdata
            if isinstance(rdata, OPTPseudo):
                # RFC 6891: CLASS carries UDP payload size, TTL the
                # extended flags; RDATA is the raw option TLVs.
                out += _RR_FIXED.pack(
                    RRType.OPT, rdata.udp_payload_size, rdata.ttl_word, len(rdata.data)
                )
                out += rdata.data
            else:
                out += struct.pack("!HHI", rr.rrtype, rr.rrclass, rr.ttl)
                _encode_rdata(rdata, out, offsets)
            ends.append(len(out))
        if limit is not None and len(out) > limit:
            keep = len(records)
            opt = b""
            if records and isinstance(records[-1].rdata, OPTPseudo):
                keep -= 1
                opt = out[ends[keep]:]
            room = limit - len(opt)
            while keep and ends[keep] > room:
                keep -= 1
            del out[ends[keep]:]
            out += opt
            answers = min(keep, len(self.answers))
            authority = min(keep - answers, len(self.authority))
            _HEADER.pack_into(
                out, 0, self.id, flagword | _TC, len(self.questions),
                answers, authority, keep - answers - authority + bool(opt),
            )
        if len(out) > _MAX_MESSAGE:
            raise WireError("encoded message exceeds 64 KiB")
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Decode wire bytes; malformed input raises :class:`WireError`, only.

        The real-socket serving loop (:mod:`repro.serve`) feeds attacker-
        controlled datagrams straight through here — any non-WireError
        escape would take a worker down, so stray ``ValueError``/
        ``struct.error`` from enum coercion or unpacking are converted at
        this boundary.
        """
        try:
            return cls._decode(data)
        except WireError:
            raise
        except (ValueError, struct.error, IndexError) as exc:
            raise WireError(f"malformed message: {exc}") from exc

    @classmethod
    def _decode(cls, data: bytes) -> "Message":
        if len(data) < _HEADER.size:
            raise WireError("message shorter than header")
        qid, flagword, qd, an, ns, ar = _HEADER.unpack_from(data, 0)
        offset = _HEADER.size
        questions: list[Question] = []
        for _ in range(qd):
            name, offset = decode_name(data, offset)
            if offset + 4 > len(data):
                raise WireError("truncated question")
            rrtype, rrclass = _QUESTION_FIXED.unpack_from(data, offset)
            offset += 4
            questions.append(
                Question(name, _lenient(RRType, rrtype), _lenient(RRClass, rrclass))
            )

        answers, offset = _read_rrs(data, an, offset)
        authority, offset = _read_rrs(data, ns, offset)
        additional, offset = _read_rrs(data, ar, offset)
        # A 16-bit header field cannot fail the ID check: built as a tuple.
        return tuple.__new__(cls, (
            qid,
            Flags.unpack(flagword),
            tuple(questions),
            tuple(answers),
            tuple(authority),
            tuple(additional),
        ))
