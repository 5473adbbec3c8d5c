"""Tuple-backed value types ≡ the frozen dataclasses they replaced.

The request path's immutable value types are ``NamedTuple`` fields under
:class:`repro.value.Value`.  Each type's previous ``@dataclass(frozen=True,
slots=True)`` definition is kept here, under its own name, as the
reference (the converted types are reached through their modules).  Over
generated field values a converted type and its reference must agree on
accept / raise (type and message), ``repr``, ``str`` and ``hash``, and two
converted values must be equal exactly when their references are.  A
converted value must also refuse assignment, carry no ``__dict__``,
pickle exactly when its reference does (and round-trip), and never equal a
bare tuple or a value of another converted type with the same fields.
Beyond the types themselves, the wire path's responses to a seeded corpus
are pinned to the bytes the dataclasses produced.

Labels stay ASCII here: the one intended difference, the converted
``DomainName`` refusing non-ASCII labels, is pinned in
``tests/test_dns_records.py``.
"""

from __future__ import annotations

import ast
import hashlib
import ipaddress
import os
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import policy
from repro.core.pool import AddressPool
from repro.dns import edns, records, server, wire
from repro.dns.records import DNSNameError, RRClass, RRType
from repro.dns.wire import Opcode, Rcode
from repro.netsim import addr, packet
from repro.netsim.addr import AddressFamilyError, IPv4, IPv6, Prefix, parse_prefix
from repro.netsim.packet import Protocol
from repro.sockets import lookup
from repro.sockets.lookup import LookupStage
from repro.sockets.socktable import Socket
from repro.serve import ProtocolCore, build_server
from repro.serve.app import AGILE_HOSTNAME, ALIAS_HOSTNAME, BIG_HOSTNAME
from repro.value import Value
from repro.web import http, tls
from repro.web.http import Status

# -- the references: each type as the frozen dataclass it was ------------------

_MAX = {IPv4: (1 << 32) - 1, IPv6: (1 << 128) - 1}


@dataclass(frozen=True, slots=True, order=False)
class IPAddress:
    family: int
    value: int

    def __post_init__(self) -> None:
        if self.family not in _MAX:
            raise AddressFamilyError(f"unknown address family: {self.family!r}")
        if not 0 <= self.value <= _MAX[self.family]:
            raise ValueError(
                f"address value {self.value:#x} out of range for IPv{self.family}"
            )

    def __str__(self) -> str:
        if self.family == IPv4:
            return str(ipaddress.IPv4Address(self.value))
        return str(ipaddress.IPv6Address(self.value))

    def __repr__(self) -> str:
        return f"IPAddress({str(self)!r})"

    def _cmp_key(self) -> tuple[int, int]:
        return (self.family, self.value)

    def __lt__(self, other: "IPAddress") -> bool:
        if not isinstance(other, IPAddress):
            return NotImplemented
        return self._cmp_key() < other._cmp_key()

    def __le__(self, other: "IPAddress") -> bool:
        if not isinstance(other, IPAddress):
            return NotImplemented
        return self._cmp_key() <= other._cmp_key()


@dataclass(frozen=True, slots=True)
class FiveTuple:
    protocol: Protocol
    src: addr.IPAddress
    src_port: int
    dst: addr.IPAddress
    dst_port: int

    def __post_init__(self) -> None:
        for name, port in (("src_port", self.src_port), ("dst_port", self.dst_port)):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"{name} {port} outside 0..65535")

    def __str__(self) -> str:
        return (
            f"{self.protocol.name.lower()} "
            f"{self.src}:{self.src_port} -> {self.dst}:{self.dst_port}"
        )


@dataclass(frozen=True, slots=True)
class Packet:
    tuple5: packet.FiveTuple
    payload_len: int = 0
    syn: bool = False


@dataclass(frozen=True, slots=True)
class DispatchResult:
    stage: LookupStage
    socket: Socket | None


@dataclass(frozen=True, slots=True)
class ClientHello:
    sni: str | None
    alpn: tuple[str, ...] = ("h2", "http/1.1")


@dataclass(frozen=True, slots=True)
class Request:
    authority: str
    path: str = "/"
    method: str = "GET"

    def __post_init__(self) -> None:
        if not self.authority:
            raise ValueError("request needs an authority (Host/:authority)")
        if not self.path.startswith("/"):
            raise ValueError(f"path must start with '/': {self.path!r}")


@dataclass(frozen=True, slots=True)
class Response:
    status: Status
    body_len: int = 0
    served_by: str = ""
    cache_hit: bool = False
    latency_s: float = 0.0


@dataclass(frozen=True, slots=True)
class DomainName:
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        total = 0
        for label in self.labels:
            if not label:
                raise DNSNameError("empty label inside name")
            if len(label) > 63:
                raise DNSNameError(f"label too long: {label[:16]!r}…")
            if label != label.lower():
                raise DNSNameError("labels must be normalised lowercase; use from_text")
            total += len(label) + 1
        if total + 1 > 255:
            raise DNSNameError("name exceeds 255 octets")

    @classmethod
    def from_text(cls, text: str) -> "DomainName":
        text = text.rstrip(".")
        if not text:
            return cls(())
        return cls(tuple(label.lower() for label in text.split(".")))

    def __str__(self) -> str:
        return ".".join(self.labels) + "."

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True, slots=True)
class A:
    address: addr.IPAddress

    def __post_init__(self) -> None:
        if self.address.family != IPv4:
            raise ValueError("A record requires an IPv4 address")


@dataclass(frozen=True, slots=True)
class AAAA:
    address: addr.IPAddress

    def __post_init__(self) -> None:
        if self.address.family != IPv6:
            raise ValueError("AAAA record requires an IPv6 address")


@dataclass(frozen=True, slots=True)
class CNAME:
    target: records.DomainName


@dataclass(frozen=True, slots=True)
class NS:
    nameserver: records.DomainName


@dataclass(frozen=True, slots=True)
class SOA:
    mname: records.DomainName
    rname: records.DomainName
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int


@dataclass(frozen=True, slots=True)
class TXT:
    strings: tuple[str, ...]

    def __post_init__(self) -> None:
        for s in self.strings:
            if len(s.encode()) > 255:
                raise ValueError("TXT character-string exceeds 255 octets")


@dataclass(frozen=True, slots=True)
class OPTPseudo:
    udp_payload_size: int
    ttl_word: int
    data: bytes


@dataclass(frozen=True, slots=True)
class ResourceRecord:
    name: records.DomainName
    rdata: records.RData
    ttl: int
    rrclass: RRClass = RRClass.IN

    def __post_init__(self) -> None:
        if not 0 <= self.ttl <= 0x7FFFFFFF:
            raise ValueError(f"TTL {self.ttl} outside RFC 2181 range")

    def __str__(self) -> str:
        return (
            f"{self.name} {self.ttl} {self.rrclass.name} "
            f"{self.rdata.rrtype.name} {self.rdata.rdata_text()}"
        )


@dataclass(frozen=True, slots=True)
class Question:
    name: records.DomainName
    rrtype: RRType
    rrclass: RRClass = RRClass.IN

    def __str__(self) -> str:
        return f"{self.name} {self.rrclass.name} {self.rrtype.name}"


@dataclass(frozen=True, slots=True)
class Flags:
    qr: bool = False
    opcode: Opcode = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = True
    ra: bool = False
    rcode: Rcode = Rcode.NOERROR


@dataclass(frozen=True, slots=True)
class Message:
    id: int
    flags: wire.Flags
    questions: tuple[records.Question, ...] = ()
    answers: tuple[records.ResourceRecord, ...] = ()
    authority: tuple[records.ResourceRecord, ...] = ()
    additional: tuple[records.ResourceRecord, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.id <= 0xFFFF:
            raise ValueError("message ID must fit 16 bits")


@dataclass(frozen=True, slots=True)
class QueryContext:
    pop: str
    resolver_address: addr.IPAddress | None = None
    client_subnet: str | None = None
    transport: str = "udp"


@dataclass(frozen=True, slots=True)
class Answer:
    rcode: Rcode
    records: tuple[records.ResourceRecord, ...] = ()
    authority: tuple[records.ResourceRecord, ...] = ()
    additional: tuple[records.ResourceRecord, ...] = ()
    authoritative: bool = True


@dataclass(frozen=True, slots=True)
class ClientSubnet:
    prefix: Prefix
    scope: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.scope <= self.prefix.bits:
            raise ValueError(f"scope {self.scope} exceeds address width")


@dataclass(frozen=True, slots=True)
class OptRecord:
    udp_payload_size: int = 1232
    extended_rcode: int = 0
    version: int = 0
    dnssec_ok: bool = False
    client_subnet: edns.ClientSubnet | None = None
    raw_options: tuple[tuple[int, bytes], ...] = ()


@dataclass(frozen=True, slots=True)
class PolicyAttributes:
    pop: str
    account_type: str | None = None
    family: int = 4
    hostname: str = ""
    client_subnet: str | None = None


@dataclass(frozen=True, slots=True)
class PolicyDecision:
    policy: policy.Policy
    address: addr.IPAddress
    ttl: int


# -- field values: small pools, so that equal values and every error occur -----

_SOCKET = Socket(fd=3, protocol=Protocol.TCP)
_v4 = st.sampled_from([0, 1, 0xC0000201, _MAX[IPv4]]).map(addr.IPAddress.v4)
_v6 = st.sampled_from([0, 1, 1 << 64, _MAX[IPv6]]).map(addr.IPAddress.v6)
_address = _v4 | _v6
_port = st.sampled_from([-1, 0, 443, 0xFFFF, 0x10000])
_five_tuple = st.builds(packet.FiveTuple, st.sampled_from(Protocol), _address,
                        st.sampled_from([0, 443]), _address, st.sampled_from([53, 443]))
_name = st.lists(st.sampled_from(["a", "b", "www", "com"]), max_size=3).map(
    lambda labels: records.DomainName(tuple(labels))
)
_long = ("x" * 63,) * 3
_labels = st.lists(
    st.sampled_from(["a", "b", "www", "A", "Www", "", "-", "x" * 63, "y" * 64]), max_size=4
).map(tuple) | st.sampled_from([(*_long, "z" * 61), (*_long, "z" * 62)])
_rdata = st.one_of(
    st.builds(records.A, _v4), st.builds(records.AAAA, _v6),
    st.builds(records.CNAME, _name), st.builds(records.NS, _name),
)
_small = st.sampled_from([0, 1, 300])
_question = st.builds(records.Question, _name, st.sampled_from([RRType.A, RRType.TXT]))
_record = st.builds(records.ResourceRecord, _name, _rdata, _small)
_section = st.lists(_record, max_size=2).map(tuple)
_flag_fields = st.tuples(
    st.booleans(), st.sampled_from([*Opcode, 1, 15]), st.booleans(), st.booleans(),
    st.booleans(), st.booleans(), st.sampled_from([*Rcode, 9]),
)
_prefix = st.sampled_from([parse_prefix(text) for text in
                           ("0.0.0.0/0", "203.0.113.0/24", "2001:db8::/56")])
_subnet = _prefix.map(edns.ClientSubnet)
_POLICIES = tuple(policy.Policy(name, AddressPool(parse_prefix("192.0.2.0/24"), name=name))
                  for name in ("agile", "static"))

CASES = {
    "IPAddress": (addr.IPAddress, IPAddress, st.tuples(
        st.sampled_from([IPv4, IPv6, 0, 5]),
        st.sampled_from([-1, 0, 1, 1 << 32, _MAX[IPv4], _MAX[IPv6], 1 << 128]),
    )),
    "FiveTuple": (packet.FiveTuple, FiveTuple, st.tuples(
        st.sampled_from(Protocol), _address, _port, _address, _port,
    )),
    "Packet": (packet.Packet, Packet, st.tuples(
        _five_tuple, st.sampled_from([0, 1500]), st.booleans(),
    )),
    "DispatchResult": (lookup.DispatchResult, DispatchResult, st.tuples(
        st.sampled_from(LookupStage), st.sampled_from([None, _SOCKET]),
    )),
    "ClientHello": (tls.ClientHello, ClientHello, st.tuples(
        st.sampled_from([None, "a.example", "A.example."]),
        st.sampled_from([(), ("h2",), ("h2", "http/1.1")]),
    )),
    "Request": (http.Request, Request, st.tuples(
        st.sampled_from(["", "a.example"]), st.sampled_from(["/", "/x", "x", ""]),
        st.sampled_from(["GET", "HEAD"]),
    )),
    "Response": (http.Response, Response, st.tuples(
        st.sampled_from(Status), st.sampled_from([0, 512]), st.sampled_from(["", "edge-1"]),
        st.booleans(), st.sampled_from([0.0, 0.02, 1.5]),
    )),
    "DomainName": (records.DomainName, DomainName, st.tuples(_labels)),
    "A": (records.A, A, st.tuples(_address)),
    "AAAA": (records.AAAA, AAAA, st.tuples(_address)),
    "CNAME": (records.CNAME, CNAME, st.tuples(_name)),
    "NS": (records.NS, NS, st.tuples(_name)),
    "SOA": (records.SOA, SOA, st.tuples(_name, _name, _small, _small, _small, _small, _small)),
    "TXT": (records.TXT, TXT, st.tuples(
        st.lists(st.sampled_from(["", "a", "é" * 127, "é" * 128, "x" * 256]), max_size=3).map(tuple),
    )),
    "OPTPseudo": (records.OPTPseudo, OPTPseudo, st.tuples(
        st.sampled_from([512, 1232]), st.sampled_from([0, 1 << 15]), st.sampled_from([b"", b"\0\x08"]),
    )),
    "ResourceRecord": (records.ResourceRecord, ResourceRecord, st.tuples(
        _name, _rdata, st.sampled_from([-1, 0, 300, 0x7FFFFFFF, 0x80000000]), st.sampled_from(RRClass),
    )),
    "Question": (records.Question, Question, st.tuples(
        _name, st.sampled_from(RRType), st.sampled_from(RRClass),
    )),
    "Flags": (wire.Flags, Flags, _flag_fields),
    "Message": (wire.Message, Message, st.tuples(
        st.sampled_from([-1, 0, 7, 0xFFFF, 0x10000]), _flag_fields.map(lambda f: wire.Flags(*f)),
        st.lists(_question, max_size=2).map(tuple), _section, _section, _section,
    )),
    "QueryContext": (server.QueryContext, QueryContext, st.tuples(
        st.sampled_from(["dc1", "serve"]), st.none() | _v4,
        st.sampled_from([None, "203.0.113.0/24"]), st.sampled_from(["udp", "tcp"]),
    )),
    "Answer": (server.Answer, Answer, st.tuples(
        st.sampled_from(Rcode), _section, _section, _section, st.booleans(),
    )),
    "ClientSubnet": (edns.ClientSubnet, ClientSubnet, st.tuples(
        _prefix, st.sampled_from([-1, 0, 24, 32, 33, 128, 129]),
    )),
    "OptRecord": (edns.OptRecord, OptRecord, st.tuples(
        st.sampled_from([512, 1232]), st.sampled_from([0, 1]), st.sampled_from([0, 1]),
        st.booleans(), st.none() | _subnet, st.sampled_from([(), ((10, b"\x01"),)]),
    )),
    "PolicyAttributes": (policy.PolicyAttributes, PolicyAttributes, st.tuples(
        st.sampled_from(["dc1", "lhr"]), st.sampled_from([None, "free", "enterprise"]),
        st.sampled_from([IPv4, IPv6]), st.sampled_from(["", "www.example.com"]),
        st.sampled_from([None, "203.0.113.0/24"]),
    )),
    "PolicyDecision": (policy.PolicyDecision, PolicyDecision, st.tuples(
        st.sampled_from(_POLICIES), _v4, st.sampled_from([0, 30]),
    )),
}
VALUE_TYPES = tuple(new for new, _, _ in CASES.values())


def _build(cls, args):
    try:
        return cls(*args), None
    except Exception as exc:  # the outcome itself is what is compared
        return None, exc


def _pairs(data, name, min_size=1, max_size=1):
    """Drawn field tuples built both ways; only those the reference accepts."""
    new_cls, ref_cls, fields = CASES[name]
    built = []
    for args in data.draw(st.lists(fields, min_size=min_size, max_size=max_size)):
        new, _ = _build(new_cls, args)
        ref, _ = _build(ref_cls, args)
        if ref is not None:
            built.append((new, ref))
    return built


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_same_outcome_repr_str_and_hash(name, data):
    new_cls, ref_cls, fields = CASES[name]
    args = data.draw(fields)
    new, new_exc = _build(new_cls, args)
    ref, ref_exc = _build(ref_cls, args)
    assert (type(new_exc), str(new_exc)) == (type(ref_exc), str(ref_exc)), args
    if ref is None:
        return
    assert type(new) is new_cls and isinstance(new, Value)
    assert (repr(new), str(new), hash(new)) == (repr(ref), str(ref), hash(ref))
    assert new_cls(**dict(zip(new_cls._fields, args))) == new  # keyword form too


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_equal_exactly_when_the_references_are(name, data):
    built = _pairs(data, name, min_size=2, max_size=6)
    for a, ref_a in built:
        for b, ref_b in built:
            assert (a == b) is (ref_a == ref_b), (a, b)
            assert (a != b) is (ref_a != ref_b), (a, b)
    # Same hashes and the same equality: a set of either iterates alike.
    assert [repr(v) for v in {new for new, _ in built}] == [
        repr(v) for v in {ref for _, ref in built}
    ]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_addresses_order_as_the_reference_did(data):
    built = _pairs(data, "IPAddress", min_size=2, max_size=6)
    for a, ref_a in built:
        for b, ref_b in built:
            assert (a < b, a <= b, a > b, a >= b) == (
                ref_a < ref_b, ref_a <= ref_b, ref_a > ref_b, ref_a >= ref_b
            )
    assert [repr(v) for v in sorted(new for new, _ in built)] == [
        repr(v) for v in sorted(ref for _, ref in built)
    ]


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_immutable_slot_free_and_picklable(name, data):
    for new, ref in _pairs(data, name):
        for field in type(new)._fields:
            with pytest.raises(AttributeError):
                setattr(new, field, getattr(new, field))
        with pytest.raises(AttributeError):
            new.extra = 1
        assert not hasattr(new, "__dict__")
        # A field may refuse pickling (a Policy's read-only match mapping
        # does): then the value refuses it as its reference does.
        dumped, new_exc = _build(pickle.dumps, (new,))
        _, ref_exc = _build(pickle.dumps, (ref,))
        assert (type(new_exc), str(new_exc)) == (type(ref_exc), str(ref_exc))
        if dumped is None:
            continue
        back = pickle.loads(dumped)
        assert type(back) is type(new) and repr(back) == repr(new)
        if _SOCKET not in new:  # a pickled socket is a copy, equal only to itself
            assert back == new and hash(back) == hash(new)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_never_equal_to_a_bare_tuple_or_another_type(name, data):
    for new, _ in _pairs(data, name):
        bare = tuple(new)
        assert hash(bare) == hash(new)  # one hash, two keys
        assert not new == bare and not bare == new and new != bare and bare != new
        assert len({new, bare}) == 2
        for other in VALUE_TYPES:
            if other is not type(new) and len(other._fields) == len(bare):
                twin = tuple.__new__(other, bare)  # same fields, unchecked
                assert not new == twin and not twin == new and new != twin


def test_same_fields_different_record_kinds_differ():
    target = records.DomainName.from_text("edge.example")
    assert records.CNAME(target) != records.NS(target)
    assert records.CNAME(target) == records.CNAME(target)
    question = records.Question(target, RRType.A)
    assert question != (target, RRType.A, RRClass.IN)
    assert {question: 1}.get((target, RRType.A, RRClass.IN)) is None


_text_label = st.sampled_from(["a", "B", "www", "Example", "", "x" * 63, "y" * 64])


@settings(max_examples=300, deadline=None)
@given(
    text=st.builds(
        lambda labels, dots: ".".join(labels) + "." * dots,
        st.lists(_text_label, max_size=5), st.integers(0, 2),
    ) | st.sampled_from([".".join((*_long, "z" * 61)), ".".join((*_long, "z" * 62))])
)
def test_from_text_matches_the_reference(text):
    new, new_exc = _build(records.DomainName.from_text, (text,))
    ref, ref_exc = _build(DomainName.from_text, (text,))
    assert (type(new_exc), str(new_exc)) == (type(ref_exc), str(ref_exc)), text
    if ref is not None:
        assert type(new) is records.DomainName
        assert (repr(new), str(new), hash(new), len(new)) == (
            repr(ref), str(ref), hash(ref), len(ref)
        )
        # The decoder builds names unchecked, too: same value, same hash.
        encoded = bytearray()
        wire.encode_name(new, encoded, {})
        decoded, _ = wire.decode_name(bytes(encoded), 0)
        assert decoded == new and hash(decoded) == hash(new)


# -- hash values are the dataclasses' to the bit --------------------------------

_PIN = """
from repro.core.policy import PolicyAttributes
from repro.dns.edns import ClientSubnet, OptRecord
from repro.dns.records import (A, AAAA, CNAME, NS, SOA, TXT, DomainName, OPTPseudo,
                               Question, ResourceRecord, RRType)
from repro.dns.server import Answer, QueryContext
from repro.dns.wire import Flags, Message, Rcode
from repro.netsim.addr import IPAddress, Prefix
from repro.netsim.packet import FiveTuple, Packet, Protocol
from repro.web.http import Request, Response, Status
from repro.web.tls import ClientHello

v4, v6 = IPAddress.from_text("192.0.2.1"), IPAddress.from_text("2001:db8::1")
name = DomainName.from_text("www.example.com")
t5 = FiveTuple(Protocol.TCP, IPAddress.from_text("198.51.100.7"), 40000, v4, 443)
ecs = ClientSubnet(Prefix.from_text("203.0.113.0/24"), 24)
print([hash(v) for v in (
    v4, v6, t5, Packet(t5, syn=True), ClientHello("www.example.com"),
    Request("www.example.com", "/a"), Response(Status.OK, 1234, "edge-1", True, 0.02),
    name, DomainName(()), Question(name, RRType.A), A(v4), AAAA(v6), CNAME(name),
    NS(name), SOA(name, name, 1, 2, 3, 4, 5), TXT(("hello", "world")),
    OPTPseudo(1232, 0, b""), ResourceRecord(name, A(v4), 300),
    Flags(qr=True, aa=True), Message(7, Flags(), (Question(name, RRType.A),)),
    QueryContext("dc1", v4, "203.0.113.0/24", "udp"),
    Answer(Rcode.NOERROR, (ResourceRecord(name, A(v4), 300),)), ecs,
    OptRecord(1232, 0, 0, False, ecs),
    PolicyAttributes("dc1", "free", 4, "www.example.com", "203.0.113.0/24"),
)])
"""

#: What the frozen dataclasses hashed the values above to, under
#: ``PYTHONHASHSEED=0``.  (``None`` hashes by address before Python 3.12,
#: so no pinned value holds one; nor a ``PolicyDecision``, whose policy
#: hashes by identity.)
_PINNED = [
    -3290444613702400609, 3835154283381695452, -495087478799257892,
    -2922682365544030413, -6277210478335340318, -7941621089843357710,
    -8264350855066069812, -7153655268448145526, -5486347211504344842,
    7691800312167272089, 5334339999568222686, -6379116538691073752,
    3950927048302105170, 3950927048302105170, -7236127150539782030,
    -6390247806941985728, 2088338460818168044, -2576769537040200869,
    -2741664984704633621, -3766577683315606593, -5830327308627020777,
    -7513447163108241202, 2851447173640740869, -7431879930964366915,
    -5941006929039320709,
]


@pytest.mark.skipif(sys.hash_info.width != 64, reason="pinned on a 64-bit build")
def test_hash_values_are_the_dataclass_hashes_under_a_fixed_seed():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", _PIN], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert ast.literal_eval(out) == _PINNED


# -- the wire path's bytes are the dataclasses' ------------------------------------


def _wire_corpus(seed: int = 0x5EED) -> list[bytes]:
    """Seeded queries over every branch a plain query can take: a minted A,
    a CNAME chain, NXDOMAIN, an oversize TXT (truncated at 512 and 1232, whole
    at 4096), AAAA (NODATA), and ECS of either family at any source length,
    each with or without an OPT of a drawn payload size."""
    rng = random.Random(seed)
    wires = []
    for qid in range(400):
        kind = rng.choice(("a", "alias", "nx", "big", "ecs", "aaaa"))
        name, rrtype = {
            "a": (AGILE_HOSTNAME, RRType.A), "alias": (ALIAS_HOSTNAME, RRType.A),
            "nx": (f"nx-{rng.getrandbits(32):08x}.example.com", RRType.A),
            "big": (BIG_HOSTNAME, RRType.TXT), "ecs": (AGILE_HOSTNAME, RRType.A),
            "aaaa": (AGILE_HOSTNAME, RRType.AAAA),
        }[kind]
        query = wire.Message.query(qid, name, rrtype)
        payload = rng.choice((None, 512, 1232, 4096))
        if kind == "ecs":
            family = rng.choice((IPv4, IPv6))
            bits = 32 if family == IPv4 else 128
            address = addr.IPAddress(family, rng.getrandbits(bits))
            subnet = edns.ClientSubnet(Prefix.of(address, rng.randint(0, bits)))
            query = edns.attach_opt(query, edns.OptRecord(payload or 1232, client_subnet=subnet))
        elif payload is not None:
            query = edns.attach_opt(query, edns.OptRecord(payload))
        wires.append(query.encode())
    return wires


#: sha256 over the length-prefixed responses to ``_wire_corpus()`` from the
#: frozen-dataclass wire path (same world, same seed).
_RESPONSES_SHA256 = "dcfb993ea253f39ba0f8e5f0aa549034df1f5c1af492ee9d7b5f4c67e5c61178"


def test_datagram_responses_are_the_dataclass_bytes():
    core = ProtocolCore(build_server(0xD1FF))
    digest = hashlib.sha256()
    for query in _wire_corpus():
        response = core.datagram(query)
        digest.update(len(response).to_bytes(2, "big") + response)
    assert digest.hexdigest() == _RESPONSES_SHA256
