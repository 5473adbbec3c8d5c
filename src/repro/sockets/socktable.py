"""A simulated kernel socket table with BSD bind/listen semantics.

This is the "before" picture of §3.3, implemented faithfully enough that
its three limitations are observable in experiments:

(i)   each socket costs memory and lengthens lookup,
(ii)  any IP+port selection restricts other selections (EADDRINUSE rules,
      wildcard port claiming),
(iii) once bound, a socket's IP+port cannot change.

The "after" picture — :mod:`repro.sockets.sklookup` — attaches to the
lookup path defined in :mod:`repro.sockets.lookup` without touching
anything here, mirroring how the real sk_lookup leaves socket code alone.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass, field

from ..netsim.addr import IPAddress
from ..netsim.packet import FiveTuple, Packet, Protocol
from .errors import AddressInUseError, InvalidSocketStateError

__all__ = ["SocketState", "Socket", "SocketTable", "SOCKET_MEM_BYTES", "RECEIVE_QUEUE_DEPTH"]

#: Kernel memory charged per socket.  The real number varies by kernel and
#: options (roughly 1–4 KiB for a TCP listener plus queues); the constant
#: only needs to make "4096 listeners per /20, doubled for TCP+UDP" (§3.3)
#: visibly expensive relative to one sk_lookup rule.
SOCKET_MEM_BYTES = 2048

#: Packets a socket's receive queue holds before dropping.  One queue per
#: socket is why INADDR_ANY turns a flood on one address into losses for
#: all addresses (§3.3), and why one-socket-per-IP isolates floods
#: (footnote 2).
RECEIVE_QUEUE_DEPTH = 1024


class SocketState(enum.Enum):
    NEW = "new"
    BOUND = "bound"
    LISTENING = "listening"
    CONNECTED = "connected"
    CLOSED = "closed"


@dataclass(slots=True, eq=False)
class Socket:
    """One socket: identity, binding, state, and a receive queue."""

    fd: int
    protocol: Protocol
    owner: str = ""
    state: SocketState = SocketState.NEW
    local_addr: IPAddress | None = None  # None = INADDR_ANY wildcard
    local_port: int | None = None
    remote: tuple[IPAddress, int] | None = None
    reuseport: bool = False
    enqueued: int = 0
    dropped: int = 0
    _queue: deque | None = field(default=None, repr=False)

    @property
    def queue(self) -> deque:
        """The receive queue, allocated when first touched: an empty bounded
        deque is ~760 B, and most connected children — every one the flow
        engine establishes — are never delivered to."""
        queue = self._queue
        if queue is None:
            queue = self._queue = deque(maxlen=RECEIVE_QUEUE_DEPTH)
        return queue

    @property
    def is_wildcard(self) -> bool:
        return self.state in (SocketState.BOUND, SocketState.LISTENING) and self.local_addr is None

    def deliver(self, packet: Packet) -> bool:
        """Enqueue a packet; returns False (and counts a drop) when full."""
        queue = self.queue
        if len(queue) >= RECEIVE_QUEUE_DEPTH:
            self.dropped += 1
            return False
        queue.append(packet)
        self.enqueued += 1
        return True

    def drain(self, n: int | None = None) -> list[Packet]:
        """Consume up to ``n`` queued packets (all, when ``n`` is None)."""
        out: list[Packet] = []
        queue = self._queue
        while queue and (n is None or len(out) < n):
            out.append(queue.popleft())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        where = f"{self.local_addr or '*'}:{self.local_port}"
        return f"<sk:{self.fd} {self.protocol.name.lower()} {where} {self.state.value}>"


class SocketTable:
    """All sockets of one (simulated) host kernel.

    Lookup-relevant indexes: ``_listeners`` keyed by (proto, addr-int,
    port) with ``None`` addr for wildcards, and ``_connected`` keyed by the
    full 4-tuple.  SO_REUSEPORT groups share one key and hold a list.
    """

    def __init__(self) -> None:
        self._fd_counter = itertools.count(3)  # 0..2 taken, as tradition demands
        self._sockets: dict[int, Socket] = {}
        self._listeners: dict[tuple[Protocol, int | None, int], list[Socket]] = {}
        self._connected: dict[tuple[Protocol, int, int, int, int], Socket] = {}

    # -- creation / teardown ------------------------------------------------

    def socket(self, protocol: Protocol, owner: str = "", reuseport: bool = False) -> Socket:
        if protocol is Protocol.QUIC:
            protocol = Protocol.UDP  # QUIC sockets are UDP sockets
        sock = Socket(fd=next(self._fd_counter), protocol=protocol, owner=owner, reuseport=reuseport)
        self._sockets[sock.fd] = sock
        return sock

    def close(self, sock: Socket) -> None:
        if sock.state is SocketState.CLOSED:
            return
        if sock.local_port is not None and sock.state in (SocketState.BOUND, SocketState.LISTENING):
            key = (
                sock.protocol,
                None if sock.local_addr is None else sock.local_addr.value,
                sock.local_port,
            )
            group = self._listeners.get(key)
            if group and sock in group:
                group.remove(sock)
                if not group:
                    del self._listeners[key]
        if sock.state is SocketState.CONNECTED and sock.remote is not None:
            ckey = self._connected_key(sock)
            self._connected.pop(ckey, None)
        sock.state = SocketState.CLOSED
        self._sockets.pop(sock.fd, None)

    # -- bind / listen -------------------------------------------------------

    def bind(self, sock: Socket, addr: IPAddress | None, port: int) -> None:
        """Bind to (addr, port); ``addr=None`` is INADDR_ANY.

        Conflict rules (the subset of Linux behaviour the paper leans on):

        * same (addr, port, proto) already bound → EADDRINUSE, unless every
          holder and the newcomer set SO_REUSEPORT;
        * binding a specific addr when a wildcard holds the port (or vice
          versa) → EADDRINUSE, again unless all involved use SO_REUSEPORT.
        """
        if sock.state is not SocketState.NEW:
            raise InvalidSocketStateError(f"socket fd={sock.fd} already bound")
        if not 1 <= port <= 0xFFFF:
            raise ValueError(f"port {port} outside 1..65535")

        conflicts = self._binding_conflicts(sock.protocol, addr, port)
        for other in conflicts:
            if not (sock.reuseport and other.reuseport):
                where = f"{addr or '*'}:{port}"
                raise AddressInUseError(
                    f"{where}/{sock.protocol.name.lower()} conflicts with fd={other.fd} "
                    f"({other.local_addr or '*'}:{other.local_port})"
                )
        sock.local_addr = addr
        sock.local_port = port
        sock.state = SocketState.BOUND
        key = (sock.protocol, None if addr is None else addr.value, port)
        self._listeners.setdefault(key, []).append(sock)

    def _binding_conflicts(self, protocol: Protocol, addr: IPAddress | None, port: int) -> list[Socket]:
        found: list[Socket] = []
        exact = self._listeners.get((protocol, None if addr is None else addr.value, port))
        if exact:
            found.extend(exact)
        if addr is not None:
            wild = self._listeners.get((protocol, None, port))
            if wild:
                found.extend(wild)
        else:
            # Wildcard bind conflicts with every specific binding on the port.
            for (proto, a, p), group in self._listeners.items():
                if proto is protocol and p == port and a is not None:
                    found.extend(group)
        return found

    def listen(self, sock: Socket) -> None:
        if sock.state is not SocketState.BOUND:
            raise InvalidSocketStateError(f"socket fd={sock.fd} not bound")
        sock.state = SocketState.LISTENING

    def bind_listen(self, protocol: Protocol, addr: IPAddress | None, port: int,
                    owner: str = "", reuseport: bool = False) -> Socket:
        """Convenience: socket() + bind() + listen()."""
        sock = self.socket(protocol, owner=owner, reuseport=reuseport)
        try:
            self.bind(sock, addr, port)
        except Exception:
            self.close(sock)
            raise
        self.listen(sock)
        return sock

    # -- connected sockets -----------------------------------------------------

    @staticmethod
    def _connected_key(sock: Socket) -> tuple[Protocol, int, int, int, int]:
        assert sock.remote is not None and sock.local_addr is not None and sock.local_port is not None
        raddr, rport = sock.remote
        return (sock.protocol, sock.local_addr.value, sock.local_port, raddr.value, rport)

    def establish(self, listener: Socket, tuple5: FiveTuple) -> Socket:
        """Accept a connection on ``listener``: create the connected child.

        The child's local address is the packet's destination — which under
        sk_lookup may be an address the listener was never bound to.  That
        this works is precisely the decoupling of §3.3.
        """
        if listener.state is not SocketState.LISTENING:
            raise InvalidSocketStateError("cannot accept on a non-listening socket")
        proto = tuple5.protocol.wire_protocol
        key = (proto, tuple5.dst.value, tuple5.dst_port, tuple5.src.value, tuple5.src_port)
        if key in self._connected:
            # Refused before the child exists: a duplicate must not leave
            # an orphan behind in the socket and memory accounting.
            raise AddressInUseError(f"connection {tuple5} already established")
        child = self.socket(proto, owner=listener.owner)
        child.local_addr = tuple5.dst
        child.local_port = tuple5.dst_port
        child.remote = (tuple5.src, tuple5.src_port)
        child.state = SocketState.CONNECTED
        self._connected[key] = child
        return child

    def find_connected(self, packet: Packet) -> Socket | None:
        t = packet.tuple5
        key = (t.protocol.wire_protocol, t.dst.value, t.dst_port, t.src.value, t.src_port)
        return self._connected.get(key)

    def find_listener(self, protocol: Protocol, addr: IPAddress, port: int,
                      flow_hash: int = 0) -> Socket | None:
        """The classic two-step listener lookup: exact address, then wildcard.

        SO_REUSEPORT groups select a member by flow hash, the kernel's
        steering behaviour.
        """
        proto = protocol.wire_protocol
        for key in ((proto, addr.value, port), (proto, None, port)):
            group = [s for s in self._listeners.get(key, ()) if s.state is SocketState.LISTENING]
            if group:
                return group[flow_hash % len(group)]
        return None

    # -- accounting ------------------------------------------------------------

    def sockets(self) -> list[Socket]:
        return list(self._sockets.values())

    def listener_count(self) -> int:
        return sum(
            1 for group in self._listeners.values()
            for s in group if s.state is SocketState.LISTENING
        )

    def connected_count(self) -> int:
        return len(self._connected)

    def memory_bytes(self) -> int:
        """Kernel memory attributable to sockets (the §3.3 cost (i))."""
        return len(self._sockets) * SOCKET_MEM_BYTES
