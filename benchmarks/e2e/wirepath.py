"""The wire path: a one-worker pool on real loopback sockets, the closed-loop
driver, and the in-process traced replay.

``recv`` → decode → policy → mint → encode → ``send``.  The worker is a
forked process, so its side is measured from outside — CPU from ``/proc``,
time inside ``ProtocolCore`` from its shared counter row — and the per-layer
spans come from replaying the same query corpus through an in-process
``ProtocolCore``.  One generator thread, two sockets: the generator must
stay a small fraction of the worker's cost or the benchmark measures
itself, so its CPU share is measured and capped.
"""

from __future__ import annotations

import multiprocessing
import resource
import socket
import statistics
import struct
import time
from dataclasses import dataclass, field

from repro.dns.records import RRType
from repro.dns.wire import Message, Rcode
from repro.serve import ProtocolCore, StreamSession, WorkerPool, build_pool, build_server
from repro.serve.app import AGILE_PREFIX, BIG_TXT_RECORDS, DEFAULT_SEED

import loadgen
import measure
import trace
from loadgen import ALIAS, BIG, NX, A

__all__ = ["SPECS", "WireSpec", "run_timed", "run_traced"]

TIMEOUT_S = 5
DECODE_EVERY = 64
#: Outstanding queries: two keep the one worker busy while the generator
#: checks the previous answer, so the worker's cost sets the rate.
WINDOW = 2
#: Generator CPU may be at most this share of worker CPU.
MAX_LOADGEN_CPU_RATIO = 0.25
_POOL_NET = AGILE_PREFIX.address_at(0).packed()[:3]
_NOERROR, _NXDOMAIN = int(Rcode.NOERROR), int(Rcode.NXDOMAIN)


@dataclass(frozen=True, slots=True)
class WireSpec:
    mixed: bool
    warmup_ops: int
    #: Operations between two calibration probes: about a tenth of a second.
    #: The shorter the stretch, the better its two probes stand for the
    #: host's speed while it ran (recorded here: at 0.1 s the worst run of a
    #: noisy twenty minutes was 4 % off, at 0.4 s 6 %, at 0.8 s 10 %).
    segment_ops: int


SPECS = {
    "wire_udp_a": WireSpec(mixed=False, warmup_ops=5_000, segment_ops=1_250),
    "wire_mixed": WireSpec(mixed=True, warmup_ops=2_000, segment_ops=750),
}


def _corpus(spec: WireSpec, seed: int) -> tuple[list[tuple[int, bytes]], float]:
    """The workload's query corpus and the seconds it took to make."""
    t0 = time.perf_counter()
    corpus = loadgen.mixed_corpus(seed) if spec.mixed else loadgen.udp_a_corpus()
    return corpus, time.perf_counter() - t0


@dataclass(slots=True)
class Client:
    """Closed-loop generator and answer checker for one pool address.

    ``WINDOW`` connected UDP sockets, one outstanding query each, reused
    for the whole run; a TC answer is completed on a fresh TCP connection
    before that socket's next query goes out."""

    address: tuple[str, int]
    corpus: list[tuple[int, bytes]]
    socks: list[socket.socket] = field(default_factory=list)
    cursor: int = 0
    attempted: int = 0
    failed: int = 0
    minted: list[bytes] = field(default_factory=list)
    a_offset: int = 0
    problems: list[str] = field(default_factory=list)

    def open(self) -> None:
        """Connect the sockets and wait for the worker's first answer (the
        pool binds before it forks, so the query queues until the worker
        reads).  That answer also shows where a policy answer keeps its
        address: the layout of an A answer to a fixed question is fixed, so
        later answers are checked by slicing, and one in ``DECODE_EVERY``
        by a full decode that must agree with the slice."""
        for _ in range(WINDOW):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            # A kernel-side receive timeout: one syscall per answer, where
            # settimeout() would poll before every recv.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO,
                            struct.pack("ll", TIMEOUT_S, 0))
            sock.connect(self.address)
            self.socks.append(sock)
        self.socks[0].send(b"\xff\xff" + loadgen.udp_a_corpus()[0][1])
        data = self.socks[0].recv(4096)
        self.a_offset = data.rindex(Message.decode(data).answers[0].rdata.address.packed())

    def close(self) -> None:
        for sock in self.socks:
            sock.close()

    def _fail(self, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(why)

    def _check(self, kind: int, qid: bytes, data: bytes, tcp: bool = False) -> bool:
        """Verify one answer; returns whether it asks for a TCP retry."""
        if data[:2] != qid or not data[2] & 0x80:
            self._fail(f"{loadgen.KINDS[kind]}: answer does not match query {qid.hex()}")
            return False
        truncated = bool(data[2] & 0x02)
        rcode = data[3] & 0x0F
        answers = int.from_bytes(data[6:8], "big")
        decode = self.attempted % DECODE_EVERY == 0
        if kind == BIG and not tcp:
            if not truncated or rcode != _NOERROR:
                self._fail("big: oversize UDP answer came back without TC")
            return truncated
        if truncated or rcode != (_NXDOMAIN if kind == NX else _NOERROR):
            self._fail(f"{loadgen.KINDS[kind]}: rcode {rcode} tc {truncated}")
        elif kind == A:
            address = data[self.a_offset:self.a_offset + 4]
            self.minted.append(address)
            if answers != 1 or address[:3] != _POOL_NET:
                self._fail(f"a: {answers} answers, address {address.hex()} outside the pool")
            elif decode and Message.decode(data).answers[0].rdata.address.packed() != address:
                self._fail("a: decoded address differs from the sliced one")
        elif kind == ALIAS:
            if answers != 2:
                self._fail(f"alias: {answers} answers, expected CNAME + A")
            elif decode and [r.rrtype for r in Message.decode(data).answers] != [
                RRType.CNAME, RRType.A
            ]:
                self._fail("alias: answer is not a CNAME chain")
        elif kind == NX:
            if int.from_bytes(data[8:10], "big") != 1:
                self._fail("nx: negative answer without an SOA")
            elif decode and Message.decode(data).authority[0].rrtype != RRType.SOA:
                self._fail("nx: authority record is not an SOA")
        elif answers != BIG_TXT_RECORDS:
            self._fail(f"big: {answers} TXT records over TCP, expected {BIG_TXT_RECORDS}")
        return False

    def _tcp(self, wire: bytes) -> bytes:
        with socket.create_connection(self.address, timeout=TIMEOUT_S) as conn:
            conn.sendall(len(wire).to_bytes(2, "big") + wire)
            buffer = b""
            while len(buffer) < 2 or len(buffer) < 2 + int.from_bytes(buffer[:2], "big"):
                chunk = conn.recv(65535)
                if not chunk:
                    raise ConnectionError("server closed mid-frame")
                buffer += chunk
        return buffer[2:]

    def run(self, ops: int) -> tuple[list[int], list[int]]:
        """Complete ``ops`` operations; returns ``(rtt_ns, kind)`` per
        operation, in completion order.  An operation's time runs from its
        UDP send to its last answer byte, TCP retry included."""
        corpus, socks, now = self.corpus, self.socks, time.perf_counter_ns
        rtts: list[int] = []
        kinds: list[int] = []
        pending: list[tuple[int, bytes, bytes, int] | None] = [None] * len(socks)
        issued = 0

        def send(slot: int) -> None:
            nonlocal issued
            kind, body = corpus[self.cursor % len(corpus)]
            qid = (self.cursor & 0xFFFF).to_bytes(2, "big")
            self.cursor += 1
            issued += 1
            wire = qid + body
            pending[slot] = (kind, qid, wire, now())
            socks[slot].send(wire)

        for slot in range(min(len(socks), ops)):
            send(slot)
        done = 0
        while done < ops:
            slot = done % len(socks)
            kind, qid, wire, sent = pending[slot]
            self.attempted += 1
            try:
                data = socks[slot].recv(4096)
                if self._check(kind, qid, data):
                    self._check(kind, qid, self._tcp(wire), tcp=True)
            except OSError as exc:  # timeout, reset, refused: a failed operation
                self._fail(f"{loadgen.KINDS[kind]}: {type(exc).__name__}")
            rtts.append(now() - sent)
            kinds.append(kind)
            done += 1
            if issued < ops:
                send(slot)
        return rtts, kinds


@dataclass(slots=True)
class Served:
    """A started pool with a ready, warmed client on it."""

    pool: WorkerPool
    client: Client
    worker_pid: int
    setup_s: float


def start(spec: WireSpec, corpus: list, host: measure.Host) -> Served:
    """Set-up as a user pays it: fork the worker, wait for its first
    answer, run the warm-up.

    Generator and worker share one CPU (the forked worker inherits the
    pin).  On a two-vCPU guest a cross-CPU wake-up per query costs the
    worker more than the generator's whole share of the CPU, and is the
    noisiest part of the path; sharing also leaves one CPU to calibrate."""
    host.begin()
    t0 = time.perf_counter()
    pool = build_pool(workers=1).start()
    try:
        (worker,) = multiprocessing.active_children()
        client = Client(pool.address, corpus)
        client.open()
        client.run(spec.warmup_ops)
    except BaseException:
        pool.stop()
        raise
    elapsed = time.perf_counter() - t0
    return Served(pool, client, worker.pid, elapsed * host.end() * (1 - host.stolen_share))


def stop(served: Served) -> None:
    served.client.close()
    served.pool.stop()


def _audit(client: Client) -> Client:
    """Close the client's books once its run is over."""
    client.problems += measure.repeated_answers(client.minted)
    if client.failed:
        client.problems.append(f"{client.failed} of {client.attempted} operations failed")
    return client


def _drive(served: Served, host: measure.Host, segment_ops: int, seconds: float,
           min_segments: int = 1) -> dict:
    """Segments of ``segment_ops`` until ``seconds`` have passed and
    ``min_segments`` are done; per segment the generator's view (wall, round
    trips) and the worker's (CPU, counter row)."""
    client, pid = served.client, served.worker_pid
    row0 = served.pool.worker_snapshots()[0]
    ops_per_s, cpu_us_per_op, latencies_ms, kinds = [], [], [], []
    loadgen_cpu = worker_cpu = 0
    deadline = time.perf_counter() + seconds
    while len(ops_per_s) < min_segments or time.perf_counter() < deadline:
        host.begin(pid)
        failed0 = client.failed
        own0, cpu0, t0 = time.process_time_ns(), measure.cpu_ns(pid), time.perf_counter_ns()
        rtts, seg_kinds = client.run(segment_ops)
        t1, cpu1, own1 = time.perf_counter_ns(), measure.cpu_ns(pid), time.process_time_ns()
        speed = host.end()
        verified = segment_ops - (client.failed - failed0)
        net_s = (t1 - t0) / 1e9 * speed * (1 - host.stolen_share)
        ops_per_s.append(verified / net_s)
        cpu_us_per_op.append((cpu1 - cpu0) / 1e3 / segment_ops * speed)
        latencies_ms.extend(rtt / 1e6 * speed for rtt in rtts)
        kinds += seg_kinds
        loadgen_cpu += own1 - own0
        worker_cpu += cpu1 - cpu0
    row1 = served.pool.worker_snapshots()[0]
    return {
        "ops_per_s": ops_per_s,
        "cpu_us_per_op": cpu_us_per_op,
        "latencies_ms": latencies_ms,
        "kinds": kinds,
        "loadgen_cpu_ratio": loadgen_cpu / worker_cpu,
        "worker_cpu_ns": worker_cpu,
        "row": {name: row1[name] - row0[name] for name in row1},
    }


def run_timed(spec: WireSpec, seed: int, seconds: float, setups: int) -> dict:
    corpus, corpus_s = _corpus(spec, seed)

    host = measure.Host()
    setup_s = []
    for _ in range(setups - 1):
        served = start(spec, corpus, host)
        setup_s.append(served.setup_s)
        stop(served)
    served = start(spec, corpus, host)
    setup_s.append(served.setup_s)
    try:
        driven = _drive(served, host, spec.segment_ops, seconds)
    finally:
        stop(served)
    client = _audit(served.client)
    if driven["loadgen_cpu_ratio"] > MAX_LOADGEN_CPU_RATIO:
        client.problems.append(
            f"generator CPU is {driven['loadgen_cpu_ratio']:.2f} of worker CPU")
    latencies = driven["latencies_ms"]
    return {
        "attempted": client.attempted,
        "failed": client.failed,
        "problems": client.problems,
        "ops_per_s": statistics.median(driven["ops_per_s"]),
        "cpu_us_per_op": statistics.median(driven["cpu_us_per_op"]),
        "latencies_ms": latencies,
        "segments": {name: driven[name] for name in ("ops_per_s", "cpu_us_per_op")},
        "peak_rss_mb": measure.peak_rss_mb(resource.RUSAGE_CHILDREN),
        "setup_s": setup_s,
        "diagnostics": {
            "loadgen.cpu_ratio": driven["loadgen_cpu_ratio"],
            "loadgen.corpus_s": corpus_s,
            **measure.tail_ratios(latencies, (0.9, 0.99, 0.999)),
        },
    }


# -- the traced run -----------------------------------------------------------------


REPLAY_CHUNK = 1_500


def _replay(corpus: list[tuple[int, bytes]], ops: int, host: measure.Host) -> tuple[int, float]:
    """``ops`` operations through a fresh in-process ``ProtocolCore``, as the
    worker runs them: a datagram, and for a TC answer one framed message on
    a new stream session.  Returns wall ns as the host ran it and at
    reference speed, probed every ``REPLAY_CHUNK`` operations."""
    core = ProtocolCore(build_server(DEFAULT_SEED), pop="serve")
    raw_ns, norm_ns = 0, 0.0
    for lo in range(0, ops, REPLAY_CHUNK):
        host.begin()
        t0 = time.perf_counter_ns()
        for i in range(lo, min(lo + REPLAY_CHUNK, ops)):
            wire = (i & 0xFFFF).to_bytes(2, "big") + corpus[i % len(corpus)][1]
            answer = core.datagram(wire)
            if answer[2] & 0x02:
                answer = StreamSession(core).feed(len(wire).to_bytes(2, "big") + wire)[2:]
            if answer[3] & 0x0F not in (_NOERROR, _NXDOMAIN):
                raise AssertionError(f"in-process replay: rcode {answer[3] & 0x0F}")
        elapsed = time.perf_counter_ns() - t0
        raw_ns += elapsed
        norm_ns += elapsed * host.end()
    return raw_ns, norm_ns


def run_traced(spec: WireSpec, seed: int, ops: int, dump_to=None) -> dict:
    """A fixed-work socket run for the worker-side process metrics, then the
    same corpus replayed in-process: untraced, then wrapped."""
    corpus, corpus_s = _corpus(spec, seed)

    host = measure.Host()
    served = start(spec, corpus, host)
    try:
        driven = _drive(served, host, spec.segment_ops, seconds=0.0,
                        min_segments=max(1, ops // spec.segment_ops))
    finally:
        stop(served)
    client = _audit(served.client)

    replay_ops = max(ops // 2, 1)
    _, plain_wall = _replay(corpus, replay_ops, host)
    with trace.traced(trace.WIRE_TARGETS) as recorder:
        raw_wall, traced_wall = _replay(corpus, replay_ops, host)
    if dump_to is not None:
        recorder.dump(dump_to)

    row, rtts = driven["row"], driven["latencies_ms"]
    socket_ops = len(rtts)
    inproc_qps = replay_ops / (plain_wall / 1e9)
    by_kind = {
        kind: [rtt for rtt, k in zip(rtts, driven["kinds"]) if k == kind]
        for kind in (A, ALIAS, NX, BIG)
    }
    a_p50 = measure.percentile(by_kind[A], 0.5)
    counts = {
        "serve.protocol.inproc_qps": inproc_qps,
        "serve.workers.core_cpu_ratio": row["latency_sum_us"] * 1e3 / driven["worker_cpu_ns"],
        "serve.workers.socket_efficiency": statistics.median(driven["ops_per_s"]) / inproc_qps,
        "serve.workers.truncated_ratio": row["truncated"] / socket_ops,
        "serve.workers.tcp_sessions_per_op": row["tcp_sessions"] / socket_ops,
        "loadgen.cpu_ratio": driven["loadgen_cpu_ratio"],
        **measure.tail_ratios(rtts, (0.9, 0.99, 0.999)),
        **{
            f"loadgen.latency_vs_a_{loadgen.KINDS[kind]}": (
                measure.percentile(by_kind[kind], 0.5) / a_p50 if by_kind[kind] else 0.0
            )
            for kind in (ALIAS, NX, BIG)
        },
        "loadgen.corpus_s": corpus_s,
        "trace.overhead_ratio": traced_wall / plain_wall - 1,
    }
    return {
        "attempted": client.attempted,
        "failed": client.failed,
        "problems": client.problems,
        "ops": replay_ops,
        "wall_us_per_op": traced_wall / 1e3 / replay_ops,
        "ledger": recorder.ledger(replay_ops, raw_wall, traced_wall / raw_wall),
        "counts": counts,
    }
