"""EDNS(0) OPT pseudo-records and the Client Subnet option (RFC 7871).

Real resolvers attach OPT records to nearly every query; large public
resolvers forward a truncated client prefix (ECS) so authoritatives can
geo-select.  The paper's policy engine matches on where the query
*arrived* (anycast does the geo work), but ECS matters to the reproduction
twice over:

* substrate realism — the §6 measurement experiment is precisely about
  clients whose resolver sits in the wrong catchment, the situation ECS
  was invented to patch; experiments can compare anycast-based against
  ECS-based policy attribution;
* wire-format completeness — an authoritative that FORMERRs on OPT would
  be undeployable.

The OPT record abuses the RR fixed fields (RFC 6891): CLASS carries the
requester's UDP payload size, TTL carries extended RCODE/version/flags.
This module keeps OPT separate from the ordinary RR model — it is not
cacheable data — and provides helpers to attach/extract it on
:class:`~repro.dns.wire.Message`.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from ..netsim.addr import IPv4, IPv6, Prefix
from ..value import Value
from .records import DomainName, OPTPseudo, ResourceRecord
from .wire import Message, WireError

__all__ = ["ClientSubnet", "OptRecord", "attach_opt", "extract_opt"]

_ECS_OPTION_CODE = 8
_FAMILY_IANA = {IPv4: 1, IPv6: 2}
_FAMILY_FROM_IANA = {1: IPv4, 2: IPv6}


class _ClientSubnetFields(NamedTuple):
    prefix: Prefix
    scope: int = 0  # authoritative's answer scope (0 in queries)


class ClientSubnet(Value, _ClientSubnetFields):
    """An RFC 7871 client-subnet option: a truncated client prefix."""

    __slots__ = ()

    def __new__(cls, prefix: Prefix, scope: int = 0) -> "ClientSubnet":
        if not 0 <= scope <= prefix.bits:
            raise ValueError(f"scope {scope} exceeds address width")
        return tuple.__new__(cls, (prefix, scope))

    def pack(self) -> bytes:
        source = self.prefix.length
        addr_bytes = (source + 7) // 8
        packed_addr = self.prefix.network.to_bytes(self.prefix.bits // 8, "big")[:addr_bytes]
        return struct.pack(
            "!HBB", _FAMILY_IANA[self.prefix.family], source, self.scope
        ) + packed_addr

    @classmethod
    def unpack(cls, data: bytes) -> "ClientSubnet":
        """The option body, checked as RFC 7871 §6 asks: a family this
        server knows, prefix lengths inside it, and an ADDRESS of exactly
        ⌈SOURCE / 8⌉ octets with no bit set past SOURCE PREFIX-LENGTH."""
        if len(data) < 4:
            raise WireError("ECS option shorter than its fixed fields")
        family_code, source, scope = struct.unpack_from("!HBB", data, 0)
        family = _FAMILY_FROM_IANA.get(family_code)
        if family is None:
            raise WireError(f"unknown ECS family {family_code}")
        bits = 32 if family == IPv4 else 128
        if source > bits:
            raise WireError(f"ECS source length {source} exceeds family width")
        if scope > bits:
            raise WireError(f"ECS scope length {scope} exceeds family width")
        addr_bytes = (source + 7) // 8
        raw = data[4:]
        if len(raw) < addr_bytes:
            raise WireError("ECS address bytes truncated")
        if len(raw) > addr_bytes:
            raise WireError(
                f"ECS address has {len(raw)} octets, SOURCE {source} needs {addr_bytes}")
        value = int.from_bytes(raw, "big") << (bits - 8 * addr_bytes)
        if value & ((1 << (bits - source)) - 1):
            raise WireError(f"ECS address has bits set past SOURCE {source}")
        return tuple.__new__(cls, (Prefix(family, value, source), scope))


class _OptRecordFields(NamedTuple):
    udp_payload_size: int = 1232
    extended_rcode: int = 0
    version: int = 0
    dnssec_ok: bool = False
    client_subnet: ClientSubnet | None = None
    raw_options: tuple[tuple[int, bytes], ...] = ()


class OptRecord(Value, _OptRecordFields):
    """The decoded OPT pseudo-record."""

    __slots__ = ()

    def to_wire_fields(self) -> tuple[int, int, bytes]:
        """(class word, ttl word, rdata) for embedding into a message."""
        ttl = (self.extended_rcode << 24) | (self.version << 16)
        if self.dnssec_ok:
            ttl |= 1 << 15
        rdata = bytearray()
        options = list(self.raw_options)
        if self.client_subnet is not None:
            options.append((_ECS_OPTION_CODE, self.client_subnet.pack()))
        for code, data in options:
            rdata += struct.pack("!HH", code, len(data))
            rdata += data
        return self.udp_payload_size, ttl, bytes(rdata)

    def record(self) -> ResourceRecord:
        """The pseudo-RR that carries this OPT in ADDITIONAL."""
        return ResourceRecord(DomainName.root(), OPTPseudo(*self.to_wire_fields()), 0)

    @classmethod
    def from_wire_fields(cls, class_word: int, ttl_word: int, rdata: bytes) -> "OptRecord":
        """Decode the OPT's fields and options; one ECS option at most
        (RFC 7871 §6 — a second is malformed, not a replacement)."""
        client_subnet = None
        raw: list[tuple[int, bytes]] = []
        offset = 0
        while offset < len(rdata):
            if offset + 4 > len(rdata):
                raise WireError("truncated OPT option header")
            code, length = struct.unpack_from("!HH", rdata, offset)
            offset += 4
            data = rdata[offset:offset + length]
            if len(data) < length:
                raise WireError("truncated OPT option body")
            offset += length
            if code != _ECS_OPTION_CODE:
                raw.append((code, data))
            elif client_subnet is None:
                client_subnet = ClientSubnet.unpack(data)
            else:
                raise WireError("more than one ECS option")
        return tuple.__new__(cls, (
            class_word,
            (ttl_word >> 24) & 0xFF,
            (ttl_word >> 16) & 0xFF,
            ttl_word & 0x8000 != 0,
            client_subnet,
            tuple(raw),
        ))


def attach_opt(message: Message, opt: OptRecord) -> Message:
    """Return ``message`` with the OPT record appended to ADDITIONAL."""
    return message._replace(additional=(*message.additional, opt.record()))


def extract_opt(message: Message) -> OptRecord | None:
    """Pull the OPT record out of a decoded message, if present.

    A message carrying two is malformed (RFC 6891 §6.1.1: FORMERR), so the
    whole ADDITIONAL section is read."""
    found = None
    for record in message.additional:
        if isinstance(record.rdata, OPTPseudo):
            if found is not None:
                raise WireError("more than one OPT record")
            found = record.rdata
    if found is None:
        return None
    return OptRecord.from_wire_fields(found.udp_payload_size, found.ttl_word, found.data)
