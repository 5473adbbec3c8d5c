"""An edge server: socket stack, connection termination, application suite.

Figure 6: "each server mirrors a single software stack and offers all
services — every server executes DDoS [protection], layer-4 load balancers,
connection termination, and the full suite of application processes."

The part the paper changes is *how the server comes to be listening on the
pool addresses*.  Three configurations are supported, matching §3.3's
narrative:

``per_ip_binds``
    The naive model (Figure 4a): one listening socket per (address, port).
    Faithful — and measurably unscalable: a /20 on 13 ports costs 53 248
    TCP sockets per server.
``wildcard``
    INADDR_ANY per port (Figure 4b): one socket per port, every address —
    including addresses that should not be exposed.
``sk_lookup``
    The paper's design (Figure 4c): one internal-bound socket per port, an
    sk_lookup program steering (pool-prefix × port) onto it.  Pool changes
    are map/rule updates; sockets never rebind.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netsim.addr import IPAddress, Prefix
from ..netsim.packet import FiveTuple, Packet, Protocol
from ..sockets.lookup import DispatchResult, LookupPath
from ..sockets.sklookup import MatchRule, SkLookupProgram, SockArray, Verdict
from ..sockets.socktable import SocketTable
from ..web.http import Connection, HTTPVersion, Request, Response, Status
from ..web.tls import CertificateStore, ClientHello, TLSError
from .cache import CacheNode, DistributedCache
from .customers import CustomerRegistry

__all__ = ["ListenMode", "EdgeServer", "EdgeServerStats", "BASE_SERVE_LATENCY_S"]

#: Nominal per-request service time of a healthy edge server, simulated
#: seconds.  Gray-failure faults multiply it; the health monitor's latency
#: baseline is built from it.
BASE_SERVE_LATENCY_S = 0.02

#: Cloudflare terminates on "ports 80, 443, and 11 others" (§4.2).
DEFAULT_SERVICE_PORTS = (
    80, 443, 2052, 2053, 2082, 2083, 2086, 2087, 2095, 2096, 8080, 8443, 8880,
)


class ListenMode:
    PER_IP_BINDS = "per_ip_binds"
    WILDCARD = "wildcard"
    SK_LOOKUP = "sk_lookup"

    ALL = (PER_IP_BINDS, WILDCARD, SK_LOOKUP)


@dataclass(slots=True)
class EdgeServerStats:
    connections: int = 0
    tls_failures: int = 0
    requests: int = 0
    bytes_served: int = 0
    refused_syns: int = 0


class EdgeServer:
    """One machine in the datacenter rack."""

    def __init__(
        self,
        name: str,
        registry: CustomerRegistry,
        cache: DistributedCache,
        certs: CertificateStore,
        internal_addr: IPAddress,
    ) -> None:
        self.name = name
        self.registry = registry
        self.cache = cache
        self.certs = certs
        self.internal_addr = internal_addr
        self.table = SocketTable()
        self.lookup_path = LookupPath(self.table)
        self.stats = EdgeServerStats()
        #: Current per-request service time.  A healthy box serves at
        #: :data:`BASE_SERVE_LATENCY_S`; a :class:`~repro.faults.gray.SlowServer`
        #: fault inflates it (and restores it on revert) without ever
        #: touching the success/failure surface.
        self.serve_latency_s = BASE_SERVE_LATENCY_S
        self.crashed = False
        self.listen_mode: str | None = None
        self._service_ports: tuple[int, ...] = ()
        self._protocols: tuple[Protocol, ...] = ()
        self._sk_program: SkLookupProgram | None = None
        self._sk_map: SockArray | None = None
        self._pool_rules_label = "service-pool"
        self._sk_keys: dict[tuple[int, Protocol], int] = {}
        self.pools: list[Prefix] = []

    # -- listening configuration ---------------------------------------------

    def configure_listening(
        self,
        pool: Prefix,
        ports: tuple[int, ...] = DEFAULT_SERVICE_PORTS,
        mode: str = ListenMode.SK_LOOKUP,
        protocols: tuple[Protocol, ...] = (Protocol.TCP, Protocol.UDP),
    ) -> None:
        """Arrange to accept connections on every (pool address, port).

        Idempotent per server: reconfiguring replaces the previous setup.
        """
        if mode not in ListenMode.ALL:
            raise ValueError(f"unknown listen mode {mode!r}")
        self._teardown_listening()
        self.listen_mode = mode
        self._service_ports = tuple(ports)
        self._protocols = tuple(protocols)
        self.pools = [pool]

        if mode == ListenMode.PER_IP_BINDS:
            for address in pool.addresses():  # raises for pools wider than 2^20
                for port in ports:
                    for proto in protocols:
                        self.table.bind_listen(proto, address, port, owner=self.name)
            return

        if mode == ListenMode.WILDCARD:
            for port in ports:
                for proto in protocols:
                    self.table.bind_listen(proto, None, port, owner=self.name)
            return

        # sk_lookup: one internally-bound socket per (port, proto); a single
        # program rule steers the whole pool prefix at each port to it.
        slots = len(ports) * len(protocols)
        self._sk_map = SockArray(size=slots, name=f"{self.name}-sockarray")
        self._sk_program = SkLookupProgram(f"{self.name}-svc", self._sk_map)
        self.lookup_path.attach(self._sk_program)
        key = 0
        for port in ports:
            for proto in protocols:
                sock = self.table.bind_listen(proto, self.internal_addr, port, owner=self.name)
                self._sk_map.update(key, sock)
                self._sk_keys[(port, proto)] = key
                self._sk_program.add_rule(
                    MatchRule(
                        Verdict.PASS,
                        protocol=proto,
                        prefixes=(pool,),
                        port_lo=port,
                        port_hi=port,
                        map_key=key,
                        label=self._pool_rules_label,
                    )
                )
                key += 1

    def add_pool(self, pool: Prefix) -> None:
        """Additionally terminate another prefix on the existing sockets.

        sk_lookup mode only — and this is the point of sk_lookup: taking on
        a whole new address range is a handful of rule insertions, with no
        new sockets and no service restart.  (A mitigation/backup prefix is
        provisioned exactly this way in the §6 scenarios.)
        """
        if self.listen_mode is None:
            raise RuntimeError("add_pool requires configure_listening first")
        if any(pool == existing for existing in self.pools):
            return
        if self.listen_mode == ListenMode.WILDCARD:
            self.pools.append(pool)  # INADDR_ANY already catches everything
            return
        if self.listen_mode == ListenMode.PER_IP_BINDS:
            protocols = {(s.protocol) for s in self.table.sockets()}
            for address in pool.addresses():
                for port in self._service_ports:
                    for proto in protocols:
                        self.table.bind_listen(proto, address, port, owner=self.name)
            self.pools.append(pool)
            return
        assert self._sk_program is not None
        for (port, proto), key in self._sk_keys.items():
            self._sk_program.add_rule(
                MatchRule(
                    Verdict.PASS,
                    protocol=proto,
                    prefixes=(pool,),
                    port_lo=port,
                    port_hi=port,
                    map_key=key,
                    label=self._pool_rules_label,
                )
            )
        self.pools.append(pool)

    def repoint_pool(self, new_pool: Prefix) -> None:
        """Runtime pool change (sk_lookup mode only): swap prefix rules.

        This is the §3.3 capability — "IP+port re-assignment to existing
        listening sockets" — exercised by the leak-mitigation experiment:
        no socket is closed, bound, or restarted.
        """
        if self.listen_mode != ListenMode.SK_LOOKUP or self._sk_program is None:
            raise RuntimeError("repoint_pool requires sk_lookup listening mode")
        old_rules = [
            r for r in self._sk_program.rules() if r.label == self._pool_rules_label
        ]
        self._sk_program.remove_rules(self._pool_rules_label)
        self.pools = [new_pool]
        seen: set[tuple] = set()
        old_rules = [
            r for r in old_rules
            if not ((r.port_lo, r.protocol) in seen or seen.add((r.port_lo, r.protocol)))
        ]
        for rule in old_rules:
            self._sk_program.add_rule(
                MatchRule(
                    rule.action,
                    protocol=rule.protocol,
                    prefixes=(new_pool,),
                    port_lo=rule.port_lo,
                    port_hi=rule.port_hi,
                    map_key=rule.map_key,
                    label=rule.label,
                )
            )

    def _teardown_listening(self) -> None:
        if self._sk_program is not None:
            self.lookup_path.detach(self._sk_program)
            self._sk_program = None
            self._sk_map = None
        self._sk_keys.clear()
        self.pools = []
        for sock in self.table.sockets():
            self.table.close(sock)
        self.listen_mode = None

    # -- failure injection --------------------------------------------------------

    def crash(self) -> None:
        """Simulate machine/process failure: every socket dies at once.

        New SYNs fall through the lookup path (connection refused) and
        requests on established connections are reset — the loud, abrupt
        failure mode a health monitor must detect from the outside.  The
        listening configuration is remembered so :meth:`restore` can bring
        the box back exactly as it was.
        """
        if self.crashed:
            return
        saved = (list(self.pools), self._service_ports, self.listen_mode, self._protocols)
        self._teardown_listening()
        self._saved_config = saved
        self.crashed = True

    def restore(self) -> None:
        """Recover from :meth:`crash`: rebind the saved listening config."""
        if not self.crashed:
            return
        pools, ports, mode, protocols = self._saved_config
        self.crashed = False
        del self._saved_config
        if mode is None:
            return  # crashed before ever listening; nothing to rebind
        self.configure_listening(pools[0], ports, mode, protocols)
        for extra in pools[1:]:
            self.add_pool(extra)

    # -- data path ---------------------------------------------------------------

    def dispatch(self, packet: Packet, deliver: bool = False,
                 flow_hash: int | None = None) -> DispatchResult:
        return self.lookup_path.dispatch(packet, deliver=deliver, flow_hash=flow_hash)

    def dispatch_batch(self, packets: list[Packet], deliver: bool = False,
                       flow_hashes: list[int] | None = None) -> list[DispatchResult]:
        """Batched lookup through this server's path (see
        :meth:`~repro.sockets.lookup.LookupPath.dispatch_batch`)."""
        return self.lookup_path.dispatch_batch(
            packets, deliver=deliver, flow_hashes=flow_hashes
        )

    def handshake(
        self,
        tuple5: FiveTuple,
        hello: ClientHello,
        version: HTTPVersion,
        flow_hash: int | None = None,
        syn: Packet | None = None,
    ) -> Connection:
        """Terminate a new connection: SYN dispatch, accept, TLS select.

        ``flow_hash`` and ``syn`` forward the hash the datacenter's ECMP
        stage already computed and the SYN packet it already built, so
        listener selection never re-hashes and no flow is wrapped twice.
        """
        if syn is None:
            syn = Packet(tuple5, syn=True)
        result = self.dispatch(syn, flow_hash=flow_hash)
        if result.socket is None:
            self.stats.refused_syns += 1
            raise ConnectionRefusedError(
                f"{self.name}: no listener for {tuple5} (stage={result.stage.value})"
            )
        try:
            certificate = self.certs.select(hello)
        except TLSError:
            self.stats.tls_failures += 1
            raise
        self.table.establish(result.socket, tuple5)
        self.stats.connections += 1
        return Connection(
            version=version,
            remote_addr=tuple5.dst,
            remote_port=tuple5.dst_port,
            certificate=certificate,
            sni=hello.sni,
            owner=self.name,
        )

    def serve(self, connection: Connection, request: Request,
              home: CacheNode | None = None) -> Response:
        """The application suite: Host-header routing through the cache.

        A request whose authority is outside the presented certificate is
        answered 421 Misdirected Request — the guard that keeps coalescing
        honest (RFC 7540 §9.1.2).  Unknown hostnames get 404.

        The authority is brought to its canonical spelling (lower case, no
        trailing dot) once, here, and every check below reads that.
        ``home`` forwards the cache node a batch driver already picked for
        this request (:meth:`~repro.edge.cache.DistributedCache.home_nodes`).
        """
        if self.crashed:
            raise ConnectionResetError(
                f"{self.name}: server crashed; connection {connection.conn_id} reset"
            )
        self.stats.requests += 1
        host = request.authority.lower().rstrip(".")
        latency_s = self.serve_latency_s
        if not connection.certificate.covers(host):
            return Response(Status.MISDIRECTED, served_by=self.name, latency_s=latency_s)
        if not self.registry.is_hosted(host):
            return Response(Status.NOT_FOUND, served_by=self.name, latency_s=latency_s)
        response = self.cache.fetch(request, host, home, latency_s)
        self.stats.bytes_served += response.body_len
        return response

    # -- accounting ------------------------------------------------------------

    def socket_count(self) -> int:
        return len(self.table.sockets())

    def socket_memory_bytes(self) -> int:
        return self.table.memory_bytes()
