"""HTTP-lite: requests, responses, and multiplexed connections.

What matters to the reproduction:

* the ``Host`` header / ``:authority`` carries the hostname, so one
  connection can serve many hostnames (name-based virtual hosting, §2.3);
* HTTP/2 permits requests for *other* authorities on an existing connection
  under RFC 7540 §9.1.1's two conditions (certificate covers the authority;
  the authority's address matches the connection) — the mechanism behind
  Figure 8;
* HTTP/3 (QUIC) drops the IP-match condition (§4.4), which the client
  model honours;
* HTTP/1.1 reuses connections only for the same authority.

Connections count their requests; requests-per-connection is Figure 8's
y-axis.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from ..netsim.addr import IPAddress
from ..netsim.packet import Protocol
from ..value import Value
from .tls import Certificate

__all__ = ["HTTPVersion", "Request", "Response", "Connection", "Status"]

_conn_ids = itertools.count(1)


class HTTPVersion(enum.Enum):
    H1 = "http/1.1"
    H2 = "h2"
    H3 = "h3"

    @property
    def transport(self) -> Protocol:
        return Protocol.QUIC if self is HTTPVersion.H3 else Protocol.TCP

    @property
    def multiplexes(self) -> bool:
        """Can the connection carry concurrent streams for many authorities?"""
        return self is not HTTPVersion.H1

    @property
    def requires_ip_match_for_coalescing(self) -> bool:
        """RFC 7540 §9.1.1 condition 2 applies to h2 only; h3 waives it."""
        return self is HTTPVersion.H2


class Status(enum.IntEnum):
    OK = 200
    MOVED = 301
    NOT_FOUND = 404
    MISDIRECTED = 421  # served when a coalesced request reaches the wrong box
    UNAVAILABLE = 503


class _RequestFields(NamedTuple):
    authority: str
    path: str
    method: str


class Request(Value, _RequestFields):
    """One HTTP request: authority (hostname), path, and size accounting."""

    __slots__ = ()

    def __new__(cls, authority: str, path: str = "/", method: str = "GET") -> "Request":
        if not authority:
            raise ValueError("request needs an authority (Host/:authority)")
        if not path.startswith("/"):
            raise ValueError(f"path must start with '/': {path!r}")
        return tuple.__new__(cls, (authority, path, method))


class _ResponseFields(NamedTuple):
    status: Status
    body_len: int = 0
    served_by: str = ""
    cache_hit: bool = False
    #: Simulated server-side service time for this response.  Gray-failure
    #: faults (:class:`~repro.faults.gray.SlowServer`) inflate it, and the
    #: health monitor's latency-aware detection reads it back out — a slow
    #: server answers *correctly but late*, which no status code shows.
    latency_s: float = 0.0


class Response(Value, _ResponseFields):
    __slots__ = ()


@dataclass(slots=True, eq=False)
class Connection:
    """A client↔edge connection after TLS establishment.

    ``certificate`` is what the server presented; ``remote_addr`` is the IP
    the client dialled.  ``authorities`` records every hostname that has
    been requested over it — breadth of coalescing in practice.

    What the terminating datacenter knows about the connection rides on
    it too, so there is no per-connection table to keep (or to evict):
    ``owner`` is the edge server that ran the handshake, ``sampled`` the
    traffic log's flow-coherent sampling decision, ``trace`` the id its
    spans are recorded under when a tracer was attached at connect time.
    """

    version: HTTPVersion
    remote_addr: IPAddress
    remote_port: int
    certificate: Certificate
    sni: str | None = None
    conn_id: int = field(default_factory=lambda: next(_conn_ids))
    requests: int = 0
    bytes: int = 0
    authorities: set[str] = field(default_factory=set)
    closed: bool = False
    owner: str = ""
    sampled: bool | None = None
    trace: str | None = None

    @property
    def transport(self) -> Protocol:
        return self.version.transport

    def record(self, request: Request, response: Response) -> None:
        if self.closed:
            raise RuntimeError(f"connection {self.conn_id} is closed")
        self.requests += 1
        self.bytes += response.body_len
        self.authorities.add(request.authority)

    def can_coalesce(self, authority: str, resolved: list[IPAddress],
                     ip_match: str = "exact") -> bool:
        """RFC 7540 §9.1.1: may ``authority`` ride this connection?

        Condition 1: the presented certificate must cover the authority.
        Condition 2 (h2 only): the authority's resolved addresses must
        match the connection.  Browsers disagree on "match" (paper
        footnote 5): ``ip_match="exact"`` requires the connection's address
        to appear in the new resolution; ``ip_match="intersect"`` models
        browsers that accept any transitive intersection — here equivalent
        to exact since we compare against one connection address;
        ``ip_match="none"`` disables the check (h3 semantics).
        """
        if self.closed or not self.version.multiplexes:
            return False
        if not self.certificate.covers(authority):
            return False
        if not self.version.requires_ip_match_for_coalescing or ip_match == "none":
            return True
        if not resolved:
            return False
        return self.remote_addr in resolved

    def close(self) -> None:
        self.closed = True
