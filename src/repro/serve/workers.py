"""Pre-fork worker pool behind shared SO_REUSEPORT sockets.

This is the process model the deployment section of the paper leans on
without spelling out: N single-threaded workers all bound to the same
address via ``SO_REUSEPORT``, the kernel spraying queries across them —
gunicorn's arbiter/worker split applied to DNS.  It also gives us a
faithful userspace stand-in for the paper's sk_lookup trick (§5): the
socket a query lands on is *looked up at delivery time*, so re-pointing
the service onto a fresh set of workers (:meth:`WorkerPool.repoint`) is
just adding sockets to the reuseport group and draining the old ones —
in-flight queries complete on the socket they arrived at, and nothing
ever observes a closed port.

Graceful drain on SIGTERM mirrors the same discipline: stop accepting,
finish what is queued, then exit — the parent never hard-kills a worker
that is still mid-response unless the drain deadline passes.

This module touches real sockets, real processes, and the real clock by
design; the determinism pragmas below each mark one such deliberate exit
from simulated time.
"""

from __future__ import annotations

import multiprocessing
import selectors
import signal
import socket
import time

from .counters import ServeCounters, WorkerCounters
from .protocol import ProtocolCore, StreamSession

__all__ = ["WorkerPool", "parse_bind", "DEFAULT_BIND"]

DEFAULT_BIND = "127.0.0.1:0"

#: How many datagrams one readable event may drain before yielding back to
#: the selector — keeps one chatty peer from starving TCP sessions.
_UDP_BATCH = 64

_RECV_SIZE = 65535

#: Flags byte 2 of a DNS header: the TC bit (RFC 1035 §4.1.1).
_TC_BIT = 0x02


def parse_bind(spec: str) -> tuple[str, int]:
    """Parse a gunicorn-style ``HOST:PORT`` bind spec.

    ``:PORT`` binds loopback (this frontend is a reproduction harness, not
    an internet-facing daemon — never default to wildcard).  Port ``0``
    asks the kernel for a free port, which :class:`WorkerPool` then shares
    across every worker socket.
    """
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        raise ValueError(f"bind spec {spec!r} is not HOST:PORT")
    if not host:
        host = "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bind spec {spec!r}: port {port_text!r} is not an integer") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"bind spec {spec!r}: port {port} out of range")
    return host, port


def _reuseport_udp(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.setblocking(False)
    return sock

def _reuseport_tcp(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    sock.listen(128)
    sock.setblocking(False)
    return sock


def _bind_worker_sockets(
    host: str, port: int, workers: int
) -> tuple[list[tuple[socket.socket, socket.socket]], int]:
    """One (UDP, TCP) reuseport pair per worker, all on the same port.

    With ``port == 0`` the kernel picks the UDP port first; the TCP bind to
    that same number can collide with an unrelated listener, so retry the
    whole pair until a port works for both protocols.
    """
    first_udp: socket.socket | None = None
    first_tcp: socket.socket | None = None
    actual = port
    for _ in range(32):
        first_udp = _reuseport_udp(host, port)
        actual = first_udp.getsockname()[1]
        try:
            first_tcp = _reuseport_tcp(host, actual)
        except OSError:
            first_udp.close()
            first_udp = None
            if port != 0:
                raise
            continue
        break
    if first_udp is None or first_tcp is None:
        raise OSError(f"could not find a port usable for both UDP and TCP on {host}")
    pairs = [(first_udp, first_tcp)]
    try:
        for _ in range(workers - 1):
            udp = _reuseport_udp(host, actual)
            pairs.append((udp, _reuseport_tcp(host, actual)))
    except OSError:
        for udp, tcp in pairs:
            udp.close()
            tcp.close()
        raise
    return pairs, actual


# -- the worker process ---------------------------------------------------------


def _worker_main(
    index: int,
    udp_sock: socket.socket,
    tcp_sock: socket.socket,
    builder,
    seed: int,
    counters: WorkerCounters,
    pop: str,
    drain_s: float,
) -> None:
    """One worker: build the world, serve both sockets until told to drain.

    The answer world is built *after* the fork from ``builder(seed+index)``
    — each worker owns its state (no shared interpreter objects), and the
    per-worker seed keeps every worker's policy RNG stream independent yet
    reproducible.
    """
    stopping = False

    def _on_sigterm(signum, frame):
        nonlocal stopping
        stopping = True

    signal.signal(signal.SIGTERM, _on_sigterm)
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C belongs to the parent
    # Forked with SIGTERM blocked (see ``_spawn_generation``): one sent
    # before the handler above existed is delivered now, and drains.
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})

    core = ProtocolCore(builder(seed + index), pop=pop)
    selector = selectors.DefaultSelector()
    selector.register(udp_sock, selectors.EVENT_READ, "udp")
    selector.register(tcp_sock, selectors.EVENT_READ, "accept")
    sessions: dict[socket.socket, StreamSession] = {}

    def _serve_udp() -> None:
        for _ in range(_UDP_BATCH):
            try:
                data, peer = udp_sock.recvfrom(_RECV_SIZE)
            except BlockingIOError:
                return
            except OSError:
                return
            counters.inc("queries")
            started = time.perf_counter()  # repro: allow-wall-clock real-socket latency histogram
            response = core.datagram(data)
            elapsed = time.perf_counter() - started  # repro: allow-wall-clock real-socket latency histogram
            if response is None:
                counters.inc("malformed")
                continue
            if response[2] & _TC_BIT:
                counters.inc("truncated")
            try:
                udp_sock.sendto(response, peer)
            except OSError:
                continue
            counters.inc("responses")
            counters.observe_us(int(elapsed * 1e6))

    def _close_session(conn: socket.socket) -> None:
        try:
            selector.unregister(conn)
        except (KeyError, ValueError):
            pass
        sessions.pop(conn, None)
        try:
            conn.close()
        except OSError:
            pass

    def _serve_accept() -> None:
        while True:
            try:
                conn, _peer = tcp_sock.accept()
            except (BlockingIOError, OSError):
                return
            conn.setblocking(False)
            sessions[conn] = StreamSession(core)
            selector.register(conn, selectors.EVENT_READ, "session")
            counters.inc("tcp_sessions")

    def _serve_session(conn: socket.socket) -> None:
        session = sessions.get(conn)
        if session is None:
            return
        try:
            chunk = conn.recv(_RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            _close_session(conn)
            return
        if not chunk:
            _close_session(conn)
            return
        before = session.answered
        started = time.perf_counter()  # repro: allow-wall-clock real-socket latency histogram
        out = session.feed(chunk)
        elapsed = time.perf_counter() - started  # repro: allow-wall-clock real-socket latency histogram
        # Per framed message, not per chunk: one recv may carry several
        # pipelined queries, or a fraction of one.
        answered = session.answered - before
        counters.inc("queries", answered)
        if out:
            try:
                conn.sendall(out)
            except OSError:
                _close_session(conn)
                return
            counters.inc("responses", answered)
            counters.observe_us(int(elapsed * 1e6))
        if session.closed:
            counters.inc("malformed")
            _close_session(conn)

    handlers = {"udp": _serve_udp, "accept": _serve_accept}
    while not stopping:
        try:
            events = selector.select(timeout=0.1)
        except OSError:
            continue
        for key, _mask in events:
            if key.data == "session":
                _serve_session(key.fileobj)
            else:
                handlers[key.data]()

    # -- graceful drain: stop accepting, finish what is in flight --------------
    try:
        selector.unregister(tcp_sock)
    except (KeyError, ValueError):
        pass
    tcp_sock.close()
    deadline = time.monotonic() + drain_s  # repro: allow-wall-clock drain deadline is real elapsed time
    while time.monotonic() < deadline:  # repro: allow-wall-clock drain deadline is real elapsed time
        _serve_udp()  # whatever the kernel already queued for this socket
        if not sessions:
            break
        try:
            events = selector.select(timeout=0.05)
        except OSError:
            break
        for key, _mask in events:
            if key.data == "session":
                _serve_session(key.fileobj)
    for conn in list(sessions):
        _close_session(conn)
    udp_sock.close()
    selector.close()
    counters.inc("drained")


# -- the parent-side pool -------------------------------------------------------


class WorkerPool:
    """Arbiter for one generation (or more, mid-repoint) of serve workers.

    ``builder(seed)`` must return a fresh
    :class:`~repro.dns.server.AuthoritativeServer`; it runs inside each
    forked worker.  The pool binds every socket *before* forking so a
    ``:0`` bind resolves to one concrete shared port, then hands each
    worker its own reuseport pair.
    """

    def __init__(
        self,
        builder,
        bind: str = DEFAULT_BIND,
        workers: int = 1,
        seed: int = 0,
        pop: str = "edge",
        drain_s: float = 2.0,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.builder = builder
        self.host, self._requested_port = parse_bind(bind)
        self.workers = workers
        self.seed = seed
        self.pop = pop
        self.drain_s = drain_s
        self.port: int | None = None
        self._ctx = multiprocessing.get_context("fork")
        self._generations: list[dict] = []
        self._retired: dict[str, int] = {}
        self._generation_counter = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerPool":
        if self._generations:
            raise RuntimeError("pool already started")
        self._spawn_generation(self.builder, self.seed)
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self.port is None:
            raise RuntimeError("pool not started")
        return (self.host, self.port)

    def _spawn_generation(self, builder, seed: int) -> None:
        port = self.port if self.port is not None else self._requested_port
        pairs, actual = _bind_worker_sockets(self.host, port, self.workers)
        self.port = actual
        counters = ServeCounters(self.workers)
        self._generation_counter += 1
        generation = self._generation_counter
        procs = []
        # A worker inherits this thread's signal mask.  Blocking SIGTERM
        # across the fork keeps a terminate() that arrives before the
        # worker has installed its drain handler pending, where the
        # default action would kill the worker undrained.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        try:
            for index, (udp, tcp) in enumerate(pairs):
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(index, udp, tcp, builder, seed, counters.row(index),
                          self.pop, self.drain_s),
                    name=f"serve-g{generation}-w{index}",
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # The children hold the only references that matter now; keeping
        # parent-side copies open would hold the reuseport group hostage
        # after the workers exit.
        for udp, tcp in pairs:
            udp.close()
            tcp.close()
        self._generations.append(
            {"id": generation, "procs": procs, "counters": counters, "seed": seed}
        )

    def repoint(self, builder=None, seed: int | None = None) -> int:
        """sk_lookup-style re-point: swap in a fresh worker set, same port.

        The new generation joins the reuseport group before the old one is
        asked to drain, so there is no instant at which the port has no
        listener — queries in flight finish wherever they landed.
        Returns the new generation id.
        """
        if not self._generations:
            raise RuntimeError("pool not started")
        old = self._generations[-1]
        self._spawn_generation(builder or self.builder,
                               self.seed if seed is None else seed)
        self._drain_generation(old)
        return self._generations[-1]["id"]

    def _drain_generation(self, generation: dict) -> None:
        for proc in generation["procs"]:
            if proc.is_alive():
                proc.terminate()  # SIGTERM: workers drain, then exit
        deadline = time.monotonic() + self.drain_s + 3.0  # repro: allow-wall-clock process join deadline
        for proc in generation["procs"]:
            remaining = max(0.1, deadline - time.monotonic())  # repro: allow-wall-clock process join deadline
            proc.join(timeout=remaining)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        self._fold(generation["counters"])
        self._generations.remove(generation)

    def stop(self) -> None:
        """Gracefully drain every live generation."""
        for generation in list(self._generations):
            self._drain_generation(generation)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- metrics -------------------------------------------------------------

    def _fold(self, counters: ServeCounters) -> None:
        for name, value in counters.snapshot().items():
            self._retired[name] = self._retired.get(name, 0) + value

    def snapshot(self) -> dict[str, int]:
        """Pool-wide totals: retired generations plus everything live."""
        total = dict(self._retired)
        for generation in self._generations:
            for name, value in generation["counters"].snapshot().items():
                total[name] = total.get(name, 0) + value
        return total

    def worker_snapshots(self) -> list[dict[str, int]]:
        """Per-worker rows of the *current* generation (empty if stopped)."""
        if not self._generations:
            return []
        counters = self._generations[-1]["counters"]
        return [counters.worker_snapshot(i) for i in range(self.workers)]

    def alive(self) -> int:
        return sum(
            1
            for generation in self._generations
            for proc in generation["procs"]
            if proc.is_alive()
        )
