"""Transport-independent protocol core for the real-socket frontend.

The serving stack the paper describes (§3.2) ends at "respond" — which in
production means bytes on a socket, not a :class:`Message` handed back to a
test.  This module is the seam between the two: everything protocol-shaped
(datagram handling, RFC 1035 §4.2.2 two-byte stream framing, pipelining,
malformed-input policy) lives here with **no sockets**, so the exact code
the UDP/TCP workers run is also unit-testable byte-for-byte against the
in-simulation :class:`~repro.dns.server.AuthoritativeServer` — that
equivalence is the differential test the wire frontend ships with.

Malformed-input policy, end to end:

* undecodable datagram → drop (``None``), counted by the server;
* well-formed-but-unsupported query → FORMERR/NOTIMP/REFUSED *response*;
* unframeable TCP bytes (zero-length frame, oversize frame) → close the
  session (RFC 7766 §6.2.4 behaviour for a peer speaking garbage).

Nothing in this module may raise on attacker-controlled bytes; the worker
loop above it relies on that.
"""

from __future__ import annotations

from ..dns.server import AuthoritativeServer, QueryContext
from ..netsim.addr import IPAddress

__all__ = ["ProtocolCore", "StreamSession", "MAX_FRAME"]

#: RFC 1035 §4.2.2: a TCP frame length is 16 bits.
MAX_FRAME = 65535


class ProtocolCore:
    """Bytes in → bytes out for one authoritative server, both transports.

    The ``pop`` label is what the :class:`~repro.dns.server.QueryContext`
    carries into policy evaluation — for a single-host frontend it names
    the logical PoP this process stands in for.
    """

    def __init__(self, server: AuthoritativeServer, pop: str = "edge") -> None:
        self.server = server
        #: The context of a query whose resolver address is not given: one
        #: per transport, built here rather than per query.
        self._udp = QueryContext(pop, None, None, "udp")
        self._tcp = QueryContext(pop, None, None, "tcp")

    @property
    def pop(self) -> str:
        return self._udp.pop

    @property
    def stats(self):
        return self.server.stats

    def datagram(self, data: bytes, resolver_address: IPAddress | None = None) -> bytes | None:
        """One UDP datagram; ``None`` means drop (malformed)."""
        context = self._udp
        if resolver_address is not None:
            context = context._replace(resolver_address=resolver_address)
        return self.server.handle_wire(data, context)

    def stream_payload(
        self, data: bytes, resolver_address: IPAddress | None = None
    ) -> bytes | None:
        """One de-framed TCP message; ``None`` means the frame held garbage."""
        context = self._tcp
        if resolver_address is not None:
            context = context._replace(resolver_address=resolver_address)
        return self.server.handle_wire(data, context)


class StreamSession:
    """One DNS-over-TCP session: framing, buffering, pipelining.

    Feed it raw ``recv()`` chunks; it returns response bytes ready for
    ``send()``.  Frames may arrive split at any byte boundary (the length
    prefix itself can straddle two reads) and a single chunk may carry
    several pipelined queries — both are normal TCP behaviour, and both
    are covered by tests because real resolvers (and ``dig +tcp``) do
    them.  After :attr:`closed` goes true the caller must drop the
    connection; further ``feed`` calls return ``b""``.  :attr:`answered`
    counts the framed messages answered so far, whatever the chunking.
    """

    __slots__ = ("core", "resolver_address", "closed", "answered", "_buffer")

    def __init__(
        self, core: ProtocolCore, resolver_address: IPAddress | None = None
    ) -> None:
        self.core = core
        self.resolver_address = resolver_address
        self.closed = False
        self.answered = 0
        self._buffer = bytearray()

    def feed(self, data: bytes) -> bytes:
        if self.closed:
            return b""
        self._buffer += data
        out = bytearray()
        while len(self._buffer) >= 2:
            length = int.from_bytes(self._buffer[:2], "big")
            if length == 0:
                # A zero-length frame can never hold a DNS header; the
                # peer is not speaking this protocol.  Close rather than
                # resynchronise (there is nothing to resynchronise *to*).
                self.closed = True
                break
            if len(self._buffer) < 2 + length:
                break  # partial frame: wait for more bytes
            payload = bytes(self._buffer[2 : 2 + length])
            del self._buffer[: 2 + length]
            response = self.core.stream_payload(payload, self.resolver_address)
            if response is None:
                # Framing was fine but the message inside was not DNS.
                self.closed = True
                break
            out += len(response).to_bytes(2, "big") + response
            self.answered += 1
        return bytes(out)
