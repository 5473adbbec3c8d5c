"""The kernel socket-lookup path, with the sk_lookup stage injected.

Figure 5a of the paper: on packet arrival the kernel looks for a connected
(4-tuple) socket; sk_lookup programs run next, *before* the listening-
socket lookup; then the exact listener; then the INADDR_ANY wildcard; then
miss.  :class:`LookupPath` implements exactly that pipeline over a
:class:`~repro.sockets.socktable.SocketTable`, with per-stage counters so
experiments can show where packets resolve.

Two engines execute the sk_lookup stage:

``Engine.COMPILED`` (the default)
    each program's rule list lowered to an indexed matcher
    (:mod:`repro.sockets.compiled`) — constant probes per packet;
``Engine.INTERPRETER``
    the faithful rule-by-rule scan of :meth:`SkLookupProgram.run`,
    kept for differential testing and the interpreter-vs-compiled
    benchmarks.

Both produce identical verdicts and identical program stats; the
differential property suite enforces it.  :meth:`LookupPath.dispatch_batch`
is the high-throughput entry: compiled forms are fetched once per batch
(not per packet), flow hashes can be supplied precomputed so the edge
pipeline hashes each packet exactly once, and per-batch counters plus an
optional dispatch-latency histogram feed :mod:`repro.obs`.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from itertools import repeat
from typing import NamedTuple

from ..netsim.packet import FiveTuple, Packet
from ..value import Value
from .errors import BatchShapeError, ProgramNotAttachedError
from .sklookup import SkLookupProgram, Verdict
from .socktable import Socket, SocketTable

__all__ = [
    "Engine",
    "LookupStage",
    "DispatchResult",
    "LookupPath",
    "flow_hash",
    "flow_hash_tuple",
]


class Engine(str, enum.Enum):
    """Which executor runs attached sk_lookup programs."""

    INTERPRETER = "interpreter"
    COMPILED = "compiled"


class LookupStage(enum.Enum):
    # Members are singletons compared by identity, so identity hashes them,
    # in C; ``Enum.__hash__`` is a Python call per ``stage_counts`` update.
    __hash__ = object.__hash__

    CONNECTED = "connected"
    SK_LOOKUP = "sk_lookup"
    LISTENER = "listener"
    WILDCARD = "wildcard"
    DROPPED = "dropped"
    MISS = "miss"


class _DispatchResultFields(NamedTuple):
    stage: LookupStage
    socket: Socket | None


class DispatchResult(Value, _DispatchResultFields):
    """Where a packet landed, and via which stage."""

    __slots__ = ()

    @property
    def delivered(self) -> bool:
        return self.socket is not None


def flow_hash(packet: Packet) -> int:
    """A deterministic per-flow hash (kernel: jhash on the flow key).

    Used for SO_REUSEPORT member selection and by the ECMP router; stable
    across calls for the same 5-tuple.  The edge pipeline computes it once
    per packet and threads it through ECMP, L4LB, and listener selection
    (see :meth:`~repro.edge.datacenter.Datacenter.connect`).
    """
    return flow_hash_tuple(packet.tuple5)


def flow_hash_tuple(t: FiveTuple) -> int:
    """:func:`flow_hash` on a bare 5-tuple — the form the columnar flow
    engine uses, since its batches carry tuple columns, not Packets.  The
    numpy backend (:mod:`repro.flow.backend`) reimplements exactly this
    chain over uint64 arrays; the differential suite pins bit-equality."""
    h = 0xCBF29CE484222325
    for part in (
        int(t.protocol.wire_protocol),
        t.src.value,
        t.src_port,
        t.dst.value,
        t.dst_port,
    ):
        h ^= part & 0xFFFFFFFFFFFFFFFF
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        h ^= part >> 64  # fold in the high bits of IPv6 addresses
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


class LookupPath:
    """The per-host dispatch pipeline.

    ``attach``/``detach`` manage sk_lookup programs; programs run in attach
    order and the first one returning a socket (or a drop) wins, matching
    the kernel's multi-program semantics.
    """

    def __init__(self, table: SocketTable, engine: Engine | str = Engine.COMPILED) -> None:
        self.table = table
        self.engine = Engine(engine)
        self._programs: list[SkLookupProgram] = []
        self.stage_counts: dict[LookupStage, int] = {stage: 0 for stage in LookupStage}
        #: Batch accounting, read by :func:`repro.obs.adapters.watch_lookup_path`.
        self.batches = 0
        self.batch_packets = 0
        #: Optional dispatch-latency hookup (see
        #: :func:`repro.obs.adapters.time_lookup_path`): ``timer`` is a
        #: float-seconds callable supplied by *measurement* code — the
        #: simulation itself never reads the wall clock — and
        #: ``latency_hist`` receives one mean-per-packet observation per
        #: batch.
        self.timer: Callable[[], float] | None = None
        self.latency_hist = None

    # -- program management ------------------------------------------------

    def attach(self, program: SkLookupProgram) -> None:
        if program in self._programs:
            raise ValueError(f"program {program.name} already attached")
        self._programs.append(program)

    def detach(self, program: SkLookupProgram) -> None:
        """Remove an attached program; typed error when it was never here."""
        try:
            self._programs.remove(program)
        except ValueError:
            attached = ", ".join(p.name for p in self._programs) or "none"
            raise ProgramNotAttachedError(
                f"program {program.name} is not attached to this lookup path "
                f"(attached: {attached})"
            ) from None

    def programs(self) -> tuple[SkLookupProgram, ...]:
        return tuple(self._programs)

    def _runners(self) -> list[Callable[[Packet], tuple[Verdict, Socket | None]]]:
        """Per-program executors for the configured engine.

        Fetched once per dispatch call (once per *batch* on the batch
        path), which is also where compiled-form invalidation is checked —
        rule changes mid-batch are not observed, exactly like a kernel
        program swap is atomic per packet.
        """
        if self.engine is Engine.COMPILED:
            return [program.compiled().run for program in self._programs]
        return [program.run for program in self._programs]

    # -- dispatch ------------------------------------------------------------

    def dispatch(
        self,
        packet: Packet,
        deliver: bool = True,
        flow_hash: int | None = None,
    ) -> DispatchResult:
        """Find the receiving socket for ``packet`` (and enqueue it).

        ``deliver=False`` performs lookup only — benchmarks use it to
        measure pure dispatch cost without queue churn.  ``flow_hash``
        reuses a hash the caller already computed (ECMP ingress computes
        it for routing; listener selection must not pay for it twice).
        """
        result = self._lookup(packet, self._runners(), flow_hash)
        self.stage_counts[result.stage] += 1
        if deliver and result.socket is not None:
            result.socket.deliver(packet)
        return result

    def dispatch_batch(
        self,
        packets: Sequence[Packet],
        deliver: bool = True,
        flow_hashes: Sequence[int] | None = None,
    ) -> list[DispatchResult]:
        """Dispatch many packets through one engine/program setup.

        The batch entry point hoists per-packet overhead: compiled program
        forms (and their invalidation check) are fetched once, stage
        counters are folded in once, and ``flow_hashes`` — parallel to
        ``packets`` — lets the edge pipeline reuse the hashes its ECMP
        stage already computed.  Returns one :class:`DispatchResult` per
        packet, in order; semantics are exactly ``dispatch`` in a loop.

        ``flow_hashes`` must be exactly as long as ``packets``: a shorter
        (or longer) column raises :class:`BatchShapeError` up front.  The
        old ``zip`` silently dropped the unpaired tail — those packets were
        never dispatched, never delivered, and never counted.
        """
        if flow_hashes is not None and len(flow_hashes) != len(packets):
            raise BatchShapeError(
                "dispatch_batch", "flow_hashes must parallel packets",
                {"packets": len(packets), "flow_hashes": len(flow_hashes)},
            )
        timer = self.timer
        started = timer() if timer is not None else 0.0
        runners = self._runners()
        lookup = self._lookup
        results: list[DispatchResult] = []
        append = results.append
        try:
            # Without a hash column a lookup hashes for itself, if it gets that far.
            hashes = repeat(None) if flow_hashes is None else flow_hashes
            for packet, fh in zip(packets, hashes):
                result = lookup(packet, runners, fh)
                append(result)
                if deliver and result.socket is not None:
                    result.socket.deliver(packet)
        finally:
            # Fold in a finally so a mid-batch failure (a program raising)
            # leaves the same counters a scalar loop would have left for
            # the packets that did dispatch.
            counts = self.stage_counts
            for result in results:
                counts[result.stage] += 1
            self.batches += 1
            self.batch_packets += len(results)
        if timer is not None and self.latency_hist is not None and results:
            self.latency_hist.observe((timer() - started) / len(results))
        return results

    def _lookup(
        self,
        packet: Packet,
        runners: list[Callable[[Packet], tuple[Verdict, Socket | None]]],
        fh: int | None = None,
    ) -> DispatchResult:
        # Stage 1: connected sockets (4-tuple match).
        connected = self.table.find_connected(packet)
        if connected is not None:
            return DispatchResult(LookupStage.CONNECTED, connected)

        # Stage 2: sk_lookup programs, attach order.
        for run in runners:
            verdict, sock = run(packet)
            if verdict is Verdict.DROP:
                return DispatchResult(LookupStage.DROPPED, None)
            if sock is not None:
                return DispatchResult(LookupStage.SK_LOOKUP, sock)

        # Stages 3+4: exact listener, then wildcard.
        if fh is None:
            fh = flow_hash(packet)
        sock = self.table.find_listener(packet.protocol, packet.dst, packet.dst_port, flow_hash=fh)
        if sock is not None:
            stage = LookupStage.WILDCARD if sock.is_wildcard else LookupStage.LISTENER
            return DispatchResult(stage, sock)

        return DispatchResult(LookupStage.MISS, None)
