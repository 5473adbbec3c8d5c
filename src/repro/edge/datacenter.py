"""One PoP/datacenter: ECMP ingress, L4LB, server rack, cache, DNS, accounting.

Assembles Figure 6's pipeline.  The datacenter also keeps the per-address
traffic log that Figure 7 is drawn from, and that the §6 leak detector
reads ("every CDN location [can] monitor requests on unexpected IPs").
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from ..dns.server import AuthoritativeServer, QueryContext
from ..hashing import stable_hash
from ..netsim.addr import IPAddress, Prefix
from ..netsim.geo import GeoPoint
from ..netsim.packet import FiveTuple, Packet, Protocol
from ..sockets.errors import BatchShapeError
from ..sockets.lookup import flow_hash_tuple
from ..web.http import Connection, HTTPVersion, Request, Response
from ..web.origin import OriginPool
from ..web.tls import CertificateStore, ClientHello
from .cache import CacheNode, DistributedCache
from .customers import CustomerRegistry
from .ecmp import ECMPRouter
from .l4lb import L4LoadBalancer
from .server import DEFAULT_SERVICE_PORTS, EdgeServer, ListenMode

__all__ = ["AddressTraffic", "TrafficLog", "Datacenter"]


@dataclass(slots=True)
class AddressTraffic:
    """Accumulated load on one destination address."""

    requests: int = 0
    bytes: int = 0
    connections: int = 0


class TrafficLog:
    """Per-destination-address accounting, 1 %-sample style.

    ``sample_rate`` thins recording the way the paper's measurements do
    ("data is comprised of 1 % of all requests", Fig. 7 caption); analysis
    code scales counts back up via :meth:`scaled_by_address`, or, as the
    paper does, plots the sample.

    Sampling is **flow-coherent**: the coin is flipped once per connection
    (:meth:`record_connection` returns the decision) and every request on
    that connection inherits it.  The earlier per-record coin meant a
    sampled flow's connection and its requests landed in *different*
    samples — per-address connections, requests, and bytes were mutually
    incoherent, so ratios like requests-per-connection were garbage at any
    ``sample_rate < 1.0``.
    """

    def __init__(self, sample_rate: float = 1.0, rng: random.Random | None = None) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        self.sample_rate = sample_rate
        self._rng = rng or random.Random(0x10C)
        self._by_addr: dict[IPAddress, AddressTraffic] = {}

    def _flip(self) -> bool:
        return self.sample_rate >= 1.0 or self._rng.random() < self.sample_rate

    def record_connection(self, dst: IPAddress) -> bool:
        """Record (or skip) one connection; returns the sampling decision.

        Callers hold on to the returned flag and pass it back to
        :meth:`record_request` for every request the connection carries.
        :meth:`record_connection_batch` of one.
        """
        return self.record_connection_batch((dst,))[0]

    def record_connection_batch(self, dsts: Sequence[IPAddress]) -> list[bool]:
        """Flip per connection (in order, so batch and scalar sampling
        decisions are identical on the same RNG state) and fold the
        per-address connection counts in once."""
        flip = self._flip
        decisions: list[bool] = []
        append = decisions.append
        sampled_counts: Counter[IPAddress] = Counter()
        try:
            for dst in dsts:
                sampled = flip()
                append(sampled)
                if sampled:
                    sampled_counts[dst] += 1
        finally:
            for dst, n in sampled_counts.items():
                self._entry(dst).connections += n
        return decisions

    def record_request(self, dst: IPAddress, nbytes: int,
                       sampled: bool | None = None) -> None:
        """Record one request.  ``sampled`` is the owning connection's
        decision from :meth:`record_connection`; ``None`` (for
        connectionless callers, e.g. synthetic per-request feeds) flips an
        independent coin.  :meth:`record_request_batch` of one."""
        self.record_request_batch(((dst, nbytes, sampled),))

    def record_request_batch(
        self, items: Sequence[tuple[IPAddress, int, bool | None]]
    ) -> None:
        """Record many ``(dst, nbytes, sampled)`` requests with one fold.

        Independent coins (``sampled=None``) are still flipped per item in
        order; only the per-address counter writes are hoisted."""
        flip = self._flip
        request_counts: Counter[IPAddress] = Counter()
        byte_counts: Counter[IPAddress] = Counter()
        try:
            for dst, nbytes, sampled in items:
                if sampled is None:
                    sampled = flip()
                if not sampled:
                    continue
                request_counts[dst] += 1
                byte_counts[dst] += nbytes
        finally:
            for dst, n in request_counts.items():
                entry = self._entry(dst)
                entry.requests += n
                entry.bytes += byte_counts[dst]

    def _entry(self, dst: IPAddress) -> AddressTraffic:
        entry = self._by_addr.get(dst)
        if entry is None:
            entry = AddressTraffic()
            self._by_addr[dst] = entry
        return entry

    def by_address(self) -> dict[IPAddress, AddressTraffic]:
        return dict(self._by_addr)

    def scaled_by_address(self) -> dict[IPAddress, AddressTraffic]:
        """Counts scaled back up by 1/sample_rate (Horvitz–Thompson style).

        With flow-coherent sampling the same factor applies to connections,
        requests, and bytes, so scaled ratios are unbiased too."""
        factor = 1.0 / self.sample_rate
        return {
            addr: AddressTraffic(
                requests=round(t.requests * factor),
                bytes=round(t.bytes * factor),
                connections=round(t.connections * factor),
            )
            for addr, t in self._by_addr.items()
        }

    def addresses_seen(self) -> set[IPAddress]:
        return set(self._by_addr)

    def total_requests(self) -> int:
        return sum(t.requests for t in self._by_addr.values())

    def estimated_total_requests(self) -> int:
        """Sampled request count scaled up to an estimate of the true total."""
        return round(self.total_requests() / self.sample_rate)

    def clear(self) -> None:
        self._by_addr.clear()


class Datacenter:
    """A PoP's worth of uniform-stack servers behind ECMP + L4LB."""

    def __init__(
        self,
        name: str,
        location: GeoPoint,
        registry: CustomerRegistry,
        origins: OriginPool,
        certs: CertificateStore,
        num_servers: int = 8,
        cache_node_capacity: int = 1 << 30,
        sample_rate: float = 1.0,
    ) -> None:
        if num_servers <= 0:
            raise ValueError("datacenter needs at least one server")
        self.name = name
        self.location = location
        self.registry = registry
        self.origins = origins
        self.certs = certs
        self.cache = DistributedCache(origins, node_capacity_bytes=cache_node_capacity)
        self.traffic = TrafficLog(sample_rate=sample_rate)
        self.servers: dict[str, EdgeServer] = {}
        # RFC 2544 benchmarking space for internal service-socket binds.
        internal_base = IPAddress.from_text("198.18.0.1").value
        for i in range(num_servers):
            server_name = f"{name}-srv{i:02d}"
            internal = IPAddress.v4(internal_base + i)
            server = EdgeServer(server_name, registry, self.cache, certs, internal)
            self.servers[server_name] = server
            self.cache.add_node(server_name)
        self.ecmp = ECMPRouter(list(self.servers))
        self.l4lb = L4LoadBalancer(f"{name}-l4lb")
        self.dns: AuthoritativeServer | None = None
        # -- gray-failure knobs (driven by repro.faults.gray) ---------------
        #: Probability an arriving SYN is silently lost at this PoP's
        #: ingress (LossyLink fault).  Connection attempts surface it as a
        #: refusal, the visible face of an unanswered handshake.
        self.ingress_loss = 0.0
        #: Admission cap per capacity window (OverloadedPoP fault); ``None``
        #: is uncapped.  Scenario loops call :meth:`begin_capacity_window`
        #: once per tick to open a fresh window.
        self.capacity: int | None = None
        self._window_admitted = 0
        #: Connections refused because the PoP was over capacity.
        self.sheds = 0
        #: SYNs lost to ingress loss.
        self.syn_drops = 0
        self._chaos_rng = random.Random(stable_hash("dc-ingress", name) & 0xFFFFFFFF)
        #: Optional :class:`~repro.obs.trace.TraceRecorder` (set by
        #: ``CDN.attach_observability``): when present, every connection
        #: emits ecmp → dispatch spans and every request a serve span.
        self.tracer = None
        self._connections = 0

    # -- configuration -----------------------------------------------------

    def configure_listening(
        self,
        pool: Prefix,
        ports: tuple[int, ...] = DEFAULT_SERVICE_PORTS,
        mode: str = ListenMode.SK_LOOKUP,
        protocols: tuple[Protocol, ...] = (Protocol.TCP, Protocol.UDP),
    ) -> None:
        for server in self.servers.values():
            server.configure_listening(pool, ports, mode, protocols)

    def add_listening_pool(self, pool: Prefix) -> None:
        """Terminate an additional prefix without touching existing setup."""
        for server in self.servers.values():
            server.add_pool(pool)

    def repoint_pool(self, new_pool: Prefix) -> None:
        for server in self.servers.values():
            server.repoint_pool(new_pool)

    def set_dns(self, server: AuthoritativeServer) -> None:
        self.dns = server

    # -- failure injection --------------------------------------------------------

    def crash_server(self, server_name: str) -> None:
        self.servers[server_name].crash()

    def restore_server(self, server_name: str) -> None:
        self.servers[server_name].restore()

    def crash_all_servers(self) -> None:
        """A whole-PoP outage (power/fabric failure): every rack dies."""
        for server in self.servers.values():
            server.crash()

    def restore_all_servers(self) -> None:
        for server in self.servers.values():
            server.restore()

    def healthy_server_count(self) -> int:
        return sum(1 for s in self.servers.values() if not s.crashed)

    def begin_capacity_window(self) -> None:
        """Open a fresh admission window (call once per scenario tick)."""
        self._window_admitted = 0

    def _admit_ingress(self, tuple5: FiveTuple) -> None:
        """Gray-failure gate ahead of ECMP: lossy ingress and load shedding.

        Both failure modes answer *some* SYNs and lose others — the partial
        degradation that makes gray failures hard to detect with binary
        probes."""
        if self.ingress_loss and self._chaos_rng.random() < self.ingress_loss:
            self.syn_drops += 1
            raise ConnectionRefusedError(
                f"{self.name}: SYN to {tuple5.dst} lost at ingress"
            )
        if self.capacity is not None:
            if self._window_admitted >= self.capacity:
                self.sheds += 1
                raise ConnectionRefusedError(
                    f"{self.name}: over capacity ({self.capacity}/window), load shed"
                )
            self._window_admitted += 1

    # -- DNS plane ------------------------------------------------------------

    def handle_dns(
        self,
        wire: bytes,
        resolver_address: IPAddress | None = None,
        transport: str = "udp",
    ) -> bytes | None:
        if self.dns is None:
            raise RuntimeError(f"datacenter {self.name} has no DNS service")
        context = QueryContext(
            pop=self.name, resolver_address=resolver_address, transport=transport
        )
        return self.dns.handle_wire(wire, context)

    # -- data plane ---------------------------------------------------------------

    def connect(self, tuple5: FiveTuple, hello: ClientHello, version: HTTPVersion) -> Connection:
        """Ingress pipeline for a new connection: ECMP → L4LB → server.

        The flow hash is computed exactly once per SYN and reused for both
        ECMP fan-out and (inside the server's handshake) listener
        selection; it used to be recomputed at each stage.

        The one-flow entry to :meth:`_connect`, with no ECMP column: a
        single flow takes the scalar rendezvous pick
        (:meth:`~repro.edge.ecmp.ECMPRouter.choose`, ~7 µs), which is
        cheaper than setting up a one-row matrix (~17 µs).
        """
        return self._connect(
            ((tuple5, hello, version),), (flow_hash_tuple(tuple5),), (None,)
        )[0]

    def connect_batch(
        self,
        requests: Sequence[tuple[FiveTuple, ClientHello, HTTPVersion]],
        flow_hashes: Sequence[int] | None = None,
    ) -> list[Connection]:
        """Batched ingress: one flow hash and one SYN packet per flow, the
        whole batch's ECMP picks as one
        :meth:`~repro.edge.ecmp.ECMPRouter.choose_many` column, and ECMP and
        traffic-log accounting folded in once per batch rather than
        incremented per connection.

        ``flow_hashes`` — parallel to ``requests`` — reuses hashes the flow
        engine computed up front (one vectorised pass over the whole
        batch); a mismatched column raises :class:`BatchShapeError`.

        Semantics are :meth:`connect` in a loop — it *is* the same loop,
        :meth:`_connect`, trace spans included when a tracer is attached.
        Counter parity holds under partial failure too: the folds run in a
        ``finally``, and within each item accounting is ordered as the
        scalar path orders it — the ECMP choice counts once the SYN is past
        the ingress gate, even when the handshake then refuses (choices
        picked for flows the batch never reached are not folded); the
        connection sample flips only after the handshake succeeds.  One
        corner differs: an *empty* ECMP group refuses a non-empty batch
        before its first SYN reaches the ingress gate.
        """
        if flow_hashes is None:
            flow_hashes = [flow_hash_tuple(tuple5) for tuple5, _, _ in requests]
        elif len(flow_hashes) != len(requests):
            raise BatchShapeError(
                "connect_batch", "flow_hashes must parallel requests",
                {"requests": len(requests), "flow_hashes": len(flow_hashes)},
            )
        return self._connect(requests, flow_hashes, self.ecmp.choose_many(flow_hashes))

    def _connect(
        self,
        requests: Sequence[tuple[FiveTuple, ClientHello, HTTPVersion]],
        flow_hashes: Sequence[int],
        choices: Sequence[str | None],
    ) -> list[Connection]:
        """The ingress loop under :meth:`connect` and :meth:`connect_batch`.

        ``choices`` is the ECMP column, parallel to ``requests``; a ``None``
        entry is picked here, per flow.  What the datacenter knows about a
        connection — its owner (set by the handshake), its sampling
        decision, its trace id — is stored on the
        :class:`~repro.web.http.Connection` itself.
        """
        # Ungated ingress admits everything and draws nothing from the RNG.
        gated = bool(self.ingress_loss) or self.capacity is not None
        tracer = self.tracer
        choose = self.ecmp.choose
        admit = self.l4lb.admit
        servers = self.servers
        routed: list[str] = []
        connections: list[Connection] = []
        try:
            for (tuple5, hello, version), fh, choice in zip(requests, flow_hashes, choices):
                if gated:
                    self._admit_ingress(tuple5)
                syn = Packet(tuple5, syn=True)
                if tracer is None:
                    if choice is None:
                        choice = choose(fh)
                    routed.append(choice)
                    connection = servers[admit(syn, choice)].handshake(
                        tuple5, hello, version, flow_hash=fh, syn=syn
                    )
                else:
                    trace = tracer.next_trace_id(f"conn@{self.name}")
                    with tracer.span(trace, "ecmp"):
                        if choice is None:
                            choice = choose(fh)
                        routed.append(choice)
                    # sk_lookup steering and TLS termination both happen inside
                    # the server's handshake — one span covers the dispatch hop.
                    with tracer.span(trace, "dispatch", choice):
                        connection = servers[admit(syn, choice)].handshake(
                            tuple5, hello, version, flow_hash=fh, syn=syn
                        )
                    connection.trace = trace
                connections.append(connection)
        finally:
            self.ecmp.stats.fold(routed)
            sampled = self.traffic.record_connection_batch(
                [connection.remote_addr for connection in connections]
            )
            for connection, decision in zip(connections, sampled):
                connection.sampled = decision
            self._connections += len(connections)
        return connections

    def serve(self, connection: Connection, request: Request) -> Response:
        """Serve one request on an established connection: the one-pair
        entry to :meth:`_serve`, with no home-node column — the cache picks
        this request's node itself, by the scalar rendezvous pick."""
        return self._serve(((connection, request),), (None,))[0]

    def serve_batch(
        self, pairs: Sequence[tuple[Connection, Request]]
    ) -> list[Response]:
        """Serve many (connection, request) pairs; :meth:`serve` in a loop
        (the same loop, :meth:`_serve`) with the cache's home nodes picked
        as one :meth:`~repro.edge.cache.DistributedCache.home_nodes` column
        and the traffic-log fold deferred to once per batch (in a
        ``finally``, so requests served before a mid-batch failure are
        still counted, as the scalar loop would have counted them)."""
        return self._serve(pairs, self.cache.home_nodes([request for _, request in pairs]))

    def _serve(
        self,
        pairs: Sequence[tuple[Connection, Request]],
        homes: Sequence[CacheNode | None],
    ) -> list[Response]:
        """The serving loop under :meth:`serve` and :meth:`serve_batch`.

        ``homes`` is the cache home-node column, parallel to ``pairs``; a
        ``None`` entry leaves the pick to the cache.  A connection whose
        owner is not one of this datacenter's servers was established
        somewhere else and is refused."""
        servers = self.servers
        tracer = self.tracer
        records: list[tuple[IPAddress, int, bool | None]] = []
        responses: list[Response] = []
        try:
            for (connection, request), home in zip(pairs, homes):
                server = servers.get(connection.owner)
                if server is None:
                    raise RuntimeError(
                        f"connection {connection.conn_id} was not established at {self.name}"
                    )
                if tracer is None or connection.trace is None:
                    response = server.serve(connection, request, home)
                else:
                    with tracer.span(connection.trace, "serve", request.path):
                        response = server.serve(connection, request, home)
                records.append((connection.remote_addr, response.body_len, connection.sampled))
                responses.append(response)
        finally:
            self.traffic.record_request_batch(records)
        return responses

    # -- accounting ------------------------------------------------------------

    def total_socket_count(self) -> int:
        return sum(s.socket_count() for s in self.servers.values())

    def total_socket_memory(self) -> int:
        return sum(s.socket_memory_bytes() for s in self.servers.values())

    def connection_count(self) -> int:
        """Connections established here so far (a count, not a table)."""
        return self._connections
