"""Packet, flow, and connection-tuple models for the simulated data plane.

The socket stack (:mod:`repro.sockets`) dispatches on the classic 5-tuple;
the edge datacenter (:mod:`repro.edge`) hashes flows through ECMP; the
route-leak detector (:mod:`repro.agility.leaks`) inspects destination
addresses of arriving flows.  All of them share these value types.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from ..value import Value
from .addr import IPAddress

__all__ = ["Protocol", "FiveTuple", "Packet", "FlowRecord"]


class Protocol(enum.IntEnum):
    """Transport protocols the simulator models.

    QUIC is carried over UDP on the wire; it is distinguished here because
    Figure 8 of the paper reports TCP and QUIC connection-reuse separately,
    and §5.2 discusses QUIC/UDP NAT port exhaustion.
    """

    TCP = 6
    UDP = 17
    QUIC = 1700  # UDP-encapsulated; distinct for accounting purposes

    @property
    def wire_protocol(self) -> "Protocol":
        """The IP-level protocol number actually seen by the socket layer."""
        return Protocol.UDP if self is Protocol.QUIC else self


class _FiveTupleFields(NamedTuple):
    protocol: Protocol
    src: IPAddress
    src_port: int
    dst: IPAddress
    dst_port: int


class FiveTuple(Value, _FiveTupleFields):
    """(proto, src ip, src port, dst ip, dst port) — a connection identity."""

    __slots__ = ()

    def __new__(cls, protocol: Protocol, src: IPAddress, src_port: int,
                dst: IPAddress, dst_port: int) -> "FiveTuple":
        if not (0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF):
            bad = ("dst_port", dst_port) if 0 <= src_port <= 0xFFFF else ("src_port", src_port)
            raise ValueError(f"{bad[0]} {bad[1]} outside 0..65535")
        return tuple.__new__(cls, (protocol, src, src_port, dst, dst_port))

    def reversed(self) -> "FiveTuple":
        """The tuple as seen from the opposite direction."""
        return FiveTuple(self.protocol, self.dst, self.dst_port, self.src, self.src_port)

    def __str__(self) -> str:
        return (
            f"{self.protocol.name.lower()} "
            f"{self.src}:{self.src_port} -> {self.dst}:{self.dst_port}"
        )


class _PacketFields(NamedTuple):
    tuple5: FiveTuple
    payload_len: int = 0
    syn: bool = False


class Packet(Value, _PacketFields):
    """A single simulated datagram/segment.

    ``payload_len`` stands in for actual bytes; the simulator never carries
    payload content at the packet layer (application content lives in
    :mod:`repro.web`).  ``syn`` marks TCP connection-opening segments, which
    is what the listening-socket lookup path cares about.
    """

    __slots__ = ()

    @property
    def protocol(self) -> Protocol:
        return self.tuple5.protocol

    @property
    def dst(self) -> IPAddress:
        return self.tuple5.dst

    @property
    def dst_port(self) -> int:
        return self.tuple5.dst_port

    @property
    def src(self) -> IPAddress:
        return self.tuple5.src

    @property
    def src_port(self) -> int:
        return self.tuple5.src_port


@dataclass(slots=True)
class FlowRecord:
    """Aggregated per-flow accounting: what a sampled netflow record holds.

    Figure 7 of the paper is drawn from 1 % request samples; our analysis
    pipeline aggregates these records into per-destination-address request
    and byte counts.
    """

    tuple5: FiveTuple
    requests: int = 0
    bytes: int = 0
    hostnames: set[str] = field(default_factory=set)

    def add_request(self, hostname: str, nbytes: int) -> None:
        self.requests += 1
        self.bytes += nbytes
        self.hostnames.add(hostname)
