"""DNS resource records, names, and record data types.

The paper re-architects *authoritative DNS answering* (§3.1–3.2); doing
that credibly requires a real DNS data model underneath: domain names with
case-insensitive label semantics, record classes/types, TTLs, and the RDATA
variants the serving path touches (A, AAAA, CNAME, NS, SOA, TXT).

Wire encoding/decoding lives in :mod:`repro.dns.wire`; this module is the
object model both the servers and resolvers share.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ..netsim.addr import IPAddress, IPv4, IPv6
from ..value import Value

__all__ = [
    "DomainName",
    "RRType",
    "RRClass",
    "RData",
    "A",
    "AAAA",
    "CNAME",
    "NS",
    "SOA",
    "TXT",
    "OPTPseudo",
    "ResourceRecord",
    "Question",
    "DNSNameError",
]

MAX_NAME_LEN = 255
MAX_LABEL_LEN = 63


class DNSNameError(ValueError):
    """Raised for malformed domain names."""


class RRType(enum.IntEnum):
    """Resource record types (the subset this system serves or forwards)."""

    A = 1
    NS = 2
    CNAME = 5
    SOA = 6
    TXT = 16
    AAAA = 28
    OPT = 41
    ANY = 255


class RRClass(enum.IntEnum):
    IN = 1
    ANY = 255


class _DomainNameFields(NamedTuple):
    labels: tuple[str, ...]


class DomainName(Value, _DomainNameFields):
    """A fully-qualified domain name, stored as a tuple of lowercase labels.

    DNS name comparison is case-insensitive (RFC 1035 §2.3.3); labels are
    normalised to lowercase at construction so equality and hashing behave.
    Labels are ASCII, the wire's alphabet: a length in characters is in octets.

    >>> DomainName.from_text("WWW.Example.COM") == DomainName.from_text("www.example.com.")
    True
    """

    __slots__ = ()

    def __new__(cls, labels: tuple[str, ...]) -> "DomainName":
        total = 0
        for label in labels:
            if not label:
                raise DNSNameError("empty label inside name")
            if len(label) > MAX_LABEL_LEN:
                raise DNSNameError(f"label too long: {label[:16]!r}…")
            if not label.isascii():
                raise DNSNameError(f"label is not ASCII: {label[:16]!r}")
            if label != label.lower():
                raise DNSNameError("labels must be normalised lowercase; use from_text")
            total += len(label) + 1
        if total + 1 > MAX_NAME_LEN:
            raise DNSNameError("name exceeds 255 octets")
        return tuple.__new__(cls, (labels,))

    @classmethod
    def from_text(cls, text: str) -> "DomainName":
        text = text.rstrip(".")
        if not text.isascii():
            raise DNSNameError(f"name is not ASCII: {text[:16]!r}")
        labels = tuple(text.lower().split(".")) if text else ()
        # Lower case and no dots already: only the bounds are left, checked in C.
        if len(text) < MAX_NAME_LEN - 1 and "" not in labels and (
                len(text) <= MAX_LABEL_LEN or max(map(len, labels)) <= MAX_LABEL_LEN):
            return tuple.__new__(cls, (labels,))
        return cls(labels)

    @classmethod
    def root(cls) -> "DomainName":
        return cls(())

    # -- structure ---------------------------------------------------------

    @property
    def is_root(self) -> bool:
        return not self.labels

    def parent(self) -> "DomainName":
        if self.is_root:
            raise DNSNameError("the root has no parent")
        return DomainName(self.labels[1:])

    def is_subdomain_of(self, other: "DomainName") -> bool:
        """True if self equals other or sits beneath it."""
        n = len(other.labels)
        if n == 0:
            return True
        return self.labels[-n:] == other.labels

    def child(self, label: str) -> "DomainName":
        return DomainName((label.lower(), *self.labels))

    def __str__(self) -> str:
        return ".".join(self.labels) + "."

    def __len__(self) -> int:
        return len(self.labels)


class RData(Value):
    """Base class for record data; each kind is a value over its fields."""

    __slots__ = ()
    rrtype: RRType

    def rdata_text(self) -> str:
        raise NotImplementedError


class _AddressFields(NamedTuple):
    address: IPAddress


class _AddressRData(RData, _AddressFields):
    __slots__ = ()
    family: int  # of the one address an A / AAAA record carries

    def __new__(cls, address: IPAddress) -> "_AddressRData":
        if address.family != cls.family:
            raise ValueError(f"{cls.__name__} record requires an IPv{cls.family} address")
        return tuple.__new__(cls, (address,))

    def rdata_text(self) -> str:
        return str(self.address)


class A(_AddressRData):
    __slots__ = ()
    rrtype, family = RRType.A, IPv4


class AAAA(_AddressRData):
    __slots__ = ()
    rrtype, family = RRType.AAAA, IPv6


class _CNAMEFields(NamedTuple):
    target: DomainName


class CNAME(RData, _CNAMEFields):
    __slots__ = ()
    rrtype = RRType.CNAME

    def rdata_text(self) -> str:
        return str(self.target)


class _NSFields(NamedTuple):
    nameserver: DomainName


class NS(RData, _NSFields):
    __slots__ = ()
    rrtype = RRType.NS

    def rdata_text(self) -> str:
        return str(self.nameserver)


class _SOAFields(NamedTuple):
    mname: DomainName
    rname: DomainName
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int


class SOA(RData, _SOAFields):
    __slots__ = ()
    rrtype = RRType.SOA

    def rdata_text(self) -> str:
        return (
            f"{self.mname} {self.rname} {self.serial} "
            f"{self.refresh} {self.retry} {self.expire} {self.minimum}"
        )


class _TXTFields(NamedTuple):
    strings: tuple[str, ...]


class TXT(RData, _TXTFields):
    __slots__ = ()
    rrtype = RRType.TXT

    def __new__(cls, strings: tuple[str, ...]) -> "TXT":
        for s in strings:
            if len(s.encode()) > 255:
                raise ValueError("TXT character-string exceeds 255 octets")
        return tuple.__new__(cls, (strings,))

    def rdata_text(self) -> str:
        return " ".join(f'"{s}"' for s in self.strings)


class _OPTPseudoFields(NamedTuple):
    udp_payload_size: int
    ttl_word: int
    data: bytes


class OPTPseudo(RData, _OPTPseudoFields):
    """The EDNS(0) OPT pseudo-record, carried opaquely (RFC 6891).

    OPT overloads the RR fixed fields: CLASS holds the requester's UDP
    payload size and TTL holds extended-RCODE/version/flags.  Both are
    stashed here verbatim; :mod:`repro.dns.edns` interprets them and the
    option TLVs in ``data``.
    """

    __slots__ = ()
    rrtype = RRType.OPT

    def rdata_text(self) -> str:
        return f"OPT payload={self.udp_payload_size} ({len(self.data)} option bytes)"


class _ResourceRecordFields(NamedTuple):
    name: DomainName
    rdata: RData
    ttl: int
    rrclass: RRClass


class ResourceRecord(Value, _ResourceRecordFields):
    """One RR: name, class, TTL, and typed RDATA."""

    __slots__ = ()

    def __new__(cls, name: DomainName, rdata: RData, ttl: int,
                rrclass: RRClass = RRClass.IN) -> "ResourceRecord":
        if not 0 <= ttl <= 0x7FFFFFFF:
            raise ValueError(f"TTL {ttl} outside RFC 2181 range")
        return tuple.__new__(cls, (name, rdata, ttl, rrclass))

    @property
    def rrtype(self) -> RRType:
        return self.rdata.rrtype

    def with_ttl(self, ttl: int) -> "ResourceRecord":
        return ResourceRecord(self.name, self.rdata, ttl, self.rrclass)

    def __str__(self) -> str:
        return (
            f"{self.name} {self.ttl} {self.rrclass.name} "
            f"{self.rrtype.name} {self.rdata.rdata_text()}"
        )


class _QuestionFields(NamedTuple):
    name: DomainName
    rrtype: RRType
    rrclass: RRClass = RRClass.IN


class Question(Value, _QuestionFields):
    """A query triple (QNAME, QTYPE, QCLASS)."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.name} {self.rrclass.name} {self.rrtype.name}"
