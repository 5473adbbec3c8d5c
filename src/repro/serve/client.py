"""In-process loopback DNS client for the real-socket frontend.

The test-side counterpart of :mod:`repro.serve.workers`: a minimal stub
resolver that speaks actual UDP and TCP to a local server, implementing
just the client behaviours our serving path must trigger — EDNS buffer
advertisement, retry on timeout, and the RFC 7766 fall-back to TCP when
an answer comes back TC-flagged.  The benchmark and smoke jobs drive the
pool exclusively through this class, so its counters are the client-side
half of every assertion ("one truncation, one TCP completion, zero
drops").
"""

from __future__ import annotations

import random
import socket
from dataclasses import dataclass, field

from ..dns.edns import OptRecord, attach_opt
from ..dns.records import DomainName, RRType
from ..dns.wire import Message, WireError

__all__ = ["LoopbackClient", "ClientStats", "QueryOutcome"]

_RECV_SIZE = 65535


@dataclass(slots=True)
class ClientStats:
    udp_queries: int = 0
    tcp_fallbacks: int = 0
    timeouts: int = 0
    mismatched: int = 0  # responses discarded (wrong ID / not QR)
    by_rcode: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class QueryOutcome:
    """One resolution: the final message and how it was obtained."""

    message: Message
    transport: str            # "udp" or "tcp"
    truncated_first: bool     # the UDP answer carried TC


class LoopbackClient:
    """Blocking wire client against one ``(host, port)`` server.

    ``payload_size`` is the EDNS buffer size advertised on every query
    (RFC 6891); ``None`` sends EDNS-less queries, capping answers at the
    classic 512 bytes — the easiest way to force the truncation path.
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout_s: float = 2.0,
        retries: int = 2,
        payload_size: int | None = 1232,
        rng: random.Random | None = None,
    ) -> None:
        self.address = address
        self.timeout_s = timeout_s
        self.retries = retries
        self.payload_size = payload_size
        self.stats = ClientStats()
        self._rng = rng or random.Random(0xD16)

    # -- public API ----------------------------------------------------------

    def query(self, name: str | DomainName, rrtype: RRType = RRType.A) -> QueryOutcome:
        """Resolve over UDP, completing over TCP if the answer is truncated.

        Raises :class:`TimeoutError` when every retry is exhausted and
        :class:`~repro.dns.wire.WireError` never escapes a worker — but
        may escape *here*, because a malformed answer from the server
        under test is exactly what the caller wants to hear about.
        """
        if isinstance(name, str):
            name = DomainName.from_text(name)
        qid = self._rng.getrandbits(16)
        wire = self._encode_query(qid, name, rrtype)

        response = self.query_udp_wire(wire, qid)
        if not response.flags.tc:
            self._count_rcode(response)
            return QueryOutcome(response, transport="udp", truncated_first=False)

        self.stats.tcp_fallbacks += 1
        response = self.query_tcp_wire(wire, qid)
        self._count_rcode(response)
        return QueryOutcome(response, transport="tcp", truncated_first=True)

    def query_tcp(self, name: str | DomainName, rrtype: RRType = RRType.A) -> QueryOutcome:
        """Resolve over TCP directly (what ``dig +tcp`` does)."""
        if isinstance(name, str):
            name = DomainName.from_text(name)
        qid = self._rng.getrandbits(16)
        response = self.query_tcp_wire(self._encode_query(qid, name, rrtype), qid)
        self._count_rcode(response)
        return QueryOutcome(response, transport="tcp", truncated_first=False)

    # -- transports ----------------------------------------------------------

    def query_udp_wire(self, wire: bytes, qid: int) -> Message:
        """One UDP exchange, retried on timeout; the answer as it came, TC
        or not."""
        attempts = self.retries + 1
        for _ in range(attempts):
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
                sock.settimeout(self.timeout_s)
                sock.sendto(wire, self.address)
                self.stats.udp_queries += 1
                try:
                    while True:
                        data, _peer = sock.recvfrom(_RECV_SIZE)
                        response = self._accept(data, qid)
                        if response is not None:
                            return response
                        self.stats.mismatched += 1
                except socket.timeout:
                    self.stats.timeouts += 1
        raise TimeoutError(
            f"no answer from {self.address} after {attempts} UDP attempts"
        )

    def query_tcp_wire(self, wire: bytes, qid: int) -> Message:
        """One framed TCP exchange (RFC 1035 §4.2.2)."""
        with socket.create_connection(self.address, timeout=self.timeout_s) as sock:
            sock.sendall(len(wire).to_bytes(2, "big") + wire)
            frame = self._read_exact(sock, 2)
            length = int.from_bytes(frame, "big")
            data = self._read_exact(sock, length)
        response = self._accept(data, qid)
        if response is None:
            self.stats.mismatched += 1
            raise WireError(f"TCP answer from {self.address} does not match query {qid}")
        return response

    # -- internals -------------------------------------------------------------

    def _encode_query(self, qid: int, name: DomainName, rrtype: RRType) -> bytes:
        query = Message.query(qid, name, rrtype)
        if self.payload_size is not None:
            query = attach_opt(query, OptRecord(udp_payload_size=self.payload_size))
        return query.encode()

    def _accept(self, data: bytes, qid: int) -> Message | None:
        try:
            response = Message.decode(data)
        except WireError:
            return None
        if response.id != qid or not response.flags.qr:
            return None
        return response

    def _count_rcode(self, response: Message) -> None:
        rcode = int(response.flags.rcode)
        self.stats.by_rcode[rcode] = self.stats.by_rcode.get(rcode, 0) + 1

    @staticmethod
    def _read_exact(sock: socket.socket, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            chunk = sock.recv(n - len(out))
            if not chunk:
                raise ConnectionError("server closed mid-frame")
            out += chunk
        return bytes(out)
