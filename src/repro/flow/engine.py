"""The end-to-end columnar flow engine.

One :class:`~repro.flow.batch.FlowBatch` moves through four stages:

resolve
    DNS query → resolver cache → policy match → mint → cache store, flow
    by flow: Zipf workloads are duplicate-heavy and a batch's second
    request for a hostname must see the first request's cache store, so
    the stage runs the scalar seams in flow order.  What it shares across
    a batch is the parse — one ``Question`` per distinct hostname.
connect
    5-tuples built columnwise, flow hashes computed **once for the whole
    batch** by the hash backend, then one
    :meth:`~repro.edge.datacenter.Datacenter.connect_batch` call — ECMP,
    L4LB, SYN dispatch, TLS select, with ECMP and traffic-log accounting
    folded per batch.
dispatch
    Request packets on the established flows, grouped by owning server so
    each lookup path runs one contiguous batch, reusing the connect
    stage's hash column.
serve
    One :meth:`~repro.edge.datacenter.Datacenter.serve_batch` call;
    traffic-log request accounting folds once.

:meth:`FlowEngine.run_scalar` is the loop-of-scalars reference — same
deployment seams, no batching anywhere — and exists so the differential
suite can assert batched ≡ scalar on every verdict column and every
counter surface.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..dns.cache import DNSCache
from ..dns.records import DomainName, Question, ResourceRecord, RRType
from ..dns.server import AnswerSource, QueryContext
from ..dns.wire import Rcode
from ..edge.datacenter import Datacenter
from ..netsim.addr import IPAddress
from ..netsim.packet import FiveTuple, Packet
from ..sockets.lookup import LookupStage, flow_hash_tuple
from ..web.http import Connection, HTTPVersion, Request, Status
from ..web.tls import ClientHello
from .backend import NumpyHashBackend, PythonHashBackend
from .batch import FlowBatch

__all__ = ["FlowEngine", "FlowStats"]


@dataclass(slots=True)
class FlowStats:
    """Per-engine rollup, folded once per batch (never per flow).

    Read by :func:`repro.obs.adapters.watch_flow_engine`."""

    batches: int = 0
    flows: int = 0
    cache_hits: int = 0
    minted: int = 0
    unresolved: int = 0
    connections: int = 0
    dispatched: int = 0
    served_ok: int = 0
    served_errors: int = 0
    bytes_served: int = 0


def _first_address(records: tuple[ResourceRecord, ...]) -> IPAddress:
    return records[0].rdata.address  # type: ignore[union-attr]


class FlowEngine:
    """Drives batches through resolve → connect → dispatch → serve.

    Parameters
    ----------
    source:
        The authoritative answering strategy (normally the policy engine's
        :class:`~repro.core.authoritative.PolicyAnswerSource`).
    cache:
        The resolver-side cache between clients and the authoritative.
    dc:
        The datacenter terminating the minted addresses.
    pop:
        PoP name stamped into the :class:`QueryContext` (where the
        anycast-routed query "arrived").
    version / port:
        Connection parameters for every flow (H2/443 by default).
    backend:
        Flow-hash backend; ``None`` is the numpy one (tests substitute the
        pure-Python reference).
    """

    def __init__(
        self,
        source: AnswerSource,
        cache: DNSCache,
        dc: Datacenter,
        pop: str,
        version: HTTPVersion = HTTPVersion.H2,
        port: int = 443,
        backend: NumpyHashBackend | PythonHashBackend | None = None,
    ) -> None:
        self.source = source
        self.cache = cache
        self.dc = dc
        self.context = QueryContext(pop=pop)
        self.version = version
        self.port = port
        self.backend = backend or NumpyHashBackend()
        self.stats = FlowStats()
        self._fold_serve_bytes = 0

    # -- stages ----------------------------------------------------------------

    def resolve_batch(self, batch: FlowBatch) -> FlowBatch:
        """Fill ``addresses``/``ttls``/``cached`` for every flow."""
        n = len(batch)
        # One parse per distinct hostname: Zipf batches repeat their head.
        by_name = {
            h: Question(DomainName.from_text(h), RRType.A)
            for h in dict.fromkeys(batch.hostnames)
        }
        addresses: list[IPAddress | None] = [None] * n
        ttls = [0] * n
        cached = [False] * n
        for i, hostname in enumerate(batch.hostnames):
            addresses[i], ttls[i], cached[i] = self._resolve_one(by_name[hostname])
        batch.set_column("addresses", addresses)
        batch.set_column("ttls", ttls)
        batch.set_column("cached", cached)
        return batch

    def _resolve_one(self, question: Question) -> tuple[IPAddress | None, int, bool]:
        hit = self.cache.lookup(question)
        if hit is not None:
            records, _nx = hit
            if records:
                return _first_address(records), records[0].ttl, True
            return None, 0, True  # cached negative
        answer = self.source.answer(question, self.context)
        if answer.rcode is Rcode.NOERROR and answer.records:
            self.cache.store(question, answer.records)
            return _first_address(answer.records), answer.records[0].ttl, False
        return None, 0, False

    def connect_stage(self, batch: FlowBatch) -> FlowBatch:
        """Hash once per batch, then one ``connect_batch`` call."""
        n = len(batch)
        transport = self.version.transport
        tuple5s: list[FiveTuple | None] = [None] * n
        flow_hashes: list[int | None] = [None] * n
        servers: list[str | None] = [None] * n
        connections: list[Connection | None] = [None] * n

        idx = batch.resolved_indices()
        live = [
            FiveTuple(
                transport,
                batch.src_addrs[i],
                batch.src_ports[i],
                batch.addresses[i],
                self.port,
            )
            for i in idx
        ]
        hashes = self.backend.hash_tuples(live)
        requests = [
            (t5, ClientHello(batch.hostnames[i]), self.version)
            for i, t5 in zip(idx, live)
        ]
        conns = self.dc.connect_batch(requests, flow_hashes=hashes)
        for i, t5, fh, conn in zip(idx, live, hashes, conns):
            tuple5s[i] = t5
            flow_hashes[i] = fh
            servers[i] = conn.owner
            connections[i] = conn

        batch.set_column("tuple5s", tuple5s)
        batch.set_column("flow_hashes", flow_hashes)
        batch.set_column("servers", servers)
        batch.set_column("connections", connections)
        return batch

    def dispatch_stage(self, batch: FlowBatch) -> FlowBatch:
        """Dispatch one request packet per established flow (lookup only,
        nothing is queued), grouped by owning server, reusing the connect
        stage's hash column."""
        stages: list[LookupStage | None] = [None] * len(batch)
        groups: dict[str, tuple[list[int], list[Packet], list[int]]] = {}
        for i in batch.connected_indices():
            owner = batch.servers[i]
            group = groups.get(owner)
            if group is None:
                group = ([], [], [])
                groups[owner] = group
            group[0].append(i)
            group[1].append(Packet(batch.tuple5s[i]))
            group[2].append(batch.flow_hashes[i])
        servers = self.dc.servers
        for owner, (idxs, packets, hashes) in groups.items():
            results = servers[owner].dispatch_batch(
                packets, deliver=False, flow_hashes=hashes
            )
            for i, result in zip(idxs, results):
                stages[i] = result.stage
        batch.set_column("stages", stages)
        return batch

    def serve_stage(self, batch: FlowBatch) -> FlowBatch:
        """One ``serve_batch`` call for every established flow."""
        statuses: list[int | None] = [None] * len(batch)
        idx = batch.connected_indices()
        pairs = [
            (batch.connections[i], Request(batch.hostnames[i]))
            for i in idx
        ]
        responses = self.dc.serve_batch(pairs)
        for i, response in zip(idx, responses):
            statuses[i] = int(response.status)
        batch.set_column("statuses", statuses)
        self._fold_serve_bytes = sum(r.body_len for r in responses)
        return batch

    # -- drivers ---------------------------------------------------------------

    def run_batch(self, batch: FlowBatch) -> FlowBatch:
        """The full pipeline over one batch, with one stats fold at the end."""
        self.resolve_batch(batch)
        self.connect_stage(batch)
        self.dispatch_stage(batch)
        self.serve_stage(batch)
        self._fold(batch)
        return batch

    def run(self, batches: Iterable[FlowBatch]) -> FlowStats:
        for batch in batches:
            self.run_batch(batch)
        return self.stats

    def run_columns(
        self,
        hostnames: Sequence[str],
        src_addrs: Sequence[IPAddress],
        src_ports: Sequence[int],
    ) -> FlowBatch:
        """Convenience: build a batch from raw columns and run it."""
        return self.run_batch(FlowBatch(list(hostnames), list(src_addrs), list(src_ports)))

    def _fold(self, batch: FlowBatch) -> None:
        stats = self.stats
        stats.batches += 1
        stats.flows += len(batch)
        stats.cache_hits += sum(batch.cached)
        resolved = sum(1 for a in batch.addresses if a is not None)
        stats.minted += resolved - sum(
            1 for a, c in zip(batch.addresses, batch.cached) if a is not None and c
        )
        stats.unresolved += len(batch) - resolved
        stats.connections += sum(1 for c in batch.connections if c is not None)
        stats.dispatched += sum(1 for s in batch.stages if s is not None)
        ok = sum(1 for s in batch.statuses if s == int(Status.OK))
        errors = sum(1 for s in batch.statuses if s is not None and s != int(Status.OK))
        stats.served_ok += ok
        stats.served_errors += errors
        stats.bytes_served += self._fold_serve_bytes
        self._fold_serve_bytes = 0

    # -- the scalar reference -----------------------------------------------------

    def run_scalar(
        self,
        hostnames: Sequence[str],
        src_addrs: Sequence[IPAddress],
        src_ports: Sequence[int],
    ) -> FlowBatch:
        """The loop-of-scalars reference path for the differential suite.

        Touches the exact same deployment seams, one flow at a time, never
        a ``*_batch`` entry point (beyond their own batch-of-one
        delegation).  Engine :class:`FlowStats` are *not* folded here —
        this is the control arm, not the engine.
        """
        batch = FlowBatch(list(hostnames), list(src_addrs), list(src_ports))
        n = len(batch)
        transport = self.version.transport
        addresses: list[IPAddress | None] = [None] * n
        ttls = [0] * n
        cached = [False] * n
        tuple5s: list[FiveTuple | None] = [None] * n
        flow_hashes: list[int | None] = [None] * n
        servers: list[str | None] = [None] * n
        connections: list[Connection | None] = [None] * n
        stages: list[LookupStage | None] = [None] * n
        statuses: list[int | None] = [None] * n

        for i, hostname in enumerate(hostnames):
            question = Question(DomainName.from_text(hostname), RRType.A)
            addresses[i], ttls[i], cached[i] = self._resolve_one(question)

        for i, address in enumerate(addresses):
            if address is None:
                continue
            t5 = FiveTuple(transport, src_addrs[i], src_ports[i], address, self.port)
            tuple5s[i] = t5
            flow_hashes[i] = flow_hash_tuple(t5)
            conn = self.dc.connect(t5, ClientHello(sni=hostnames[i]), self.version)
            connections[i] = conn
            servers[i] = conn.owner

        dc_servers = self.dc.servers
        for i, conn in enumerate(connections):
            if conn is None:
                continue
            result = dc_servers[servers[i]].dispatch(
                Packet(tuple5s[i]), deliver=False, flow_hash=flow_hashes[i]
            )
            stages[i] = result.stage

        for i, conn in enumerate(connections):
            if conn is None:
                continue
            response = self.dc.serve(conn, Request(authority=hostnames[i]))
            statuses[i] = int(response.status)

        batch.set_column("addresses", addresses)
        batch.set_column("ttls", ttls)
        batch.set_column("cached", cached)
        batch.set_column("tuple5s", tuple5s)
        batch.set_column("flow_hashes", flow_hashes)
        batch.set_column("servers", servers)
        batch.set_column("connections", connections)
        batch.set_column("stages", stages)
        batch.set_column("statuses", statuses)
        return batch
