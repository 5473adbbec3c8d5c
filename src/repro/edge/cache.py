"""The distributed edge cache: every server participates (Figure 6).

§4.3: "Our architecture and its addressing are isolated from cache
systems … every server participates in the distributed cache.  Both
internal addressing schemes, and distributed filesystems are untouched."

That isolation is a checkable property: the cache keys on *content
identity* — (hostname, path) — never on the connection's destination
address, so hit rates are identical under static, randomized, or
one-address policies.  Tests drive the same request stream through
different addressing policies and assert byte-identical cache behaviour.

Structure: rendezvous hashing (:func:`repro.hashing.pick`, shared with the
ECMP router) assigns each key a home node among the datacenter's servers;
each node runs an LRU store.  Misses fetch through the origin gateway.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

from ..hashing import fnv1a64, fnv1a64_column, hrw_seed, hrw_table, pick, pick_column
from ..web.http import Request, Response, Status
from ..web.origin import OriginPool

__all__ = ["CacheNode", "DistributedCache", "CacheNodeStats", "UnknownNodeError"]


class UnknownNodeError(LookupError):
    """Membership change targeting a node this cache never had."""


@dataclass(slots=True)
class CacheNodeStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_stored: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CacheNode:
    """One server's LRU slice of the distributed cache."""

    def __init__(self, name: str, capacity_bytes: int = 1 << 30) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.stats = CacheNodeStats()
        self._store: OrderedDict[tuple[str, str], int] = OrderedDict()

    def get(self, key: tuple[str, str]) -> int | None:
        size = self._store.get(key)
        if size is None:
            self.stats.misses += 1
            return None
        self._store.move_to_end(key)
        self.stats.hits += 1
        return size

    def put(self, key: tuple[str, str], size: int) -> None:
        if size > self.capacity_bytes:
            return  # uncacheably large object
        if key in self._store:
            self.stats.bytes_stored -= self._store.pop(key)
        while self.stats.bytes_stored + size > self.capacity_bytes and self._store:
            _, evicted = self._store.popitem(last=False)
            self.stats.bytes_stored -= evicted
            self.stats.evictions += 1
        self._store[key] = size
        self.stats.bytes_stored += size

    def __len__(self) -> int:
        return len(self._store)


class DistributedCache:
    """The datacenter-wide cache: HRW home-node selection over LRU nodes."""

    def __init__(self, origin_gateway: OriginPool, node_capacity_bytes: int = 1 << 30) -> None:
        self.origin_gateway = origin_gateway
        self.node_capacity_bytes = node_capacity_bytes
        self._nodes: dict[str, CacheNode] = {}
        #: One :func:`~repro.hashing.hrw_seed` per node, and the same
        #: membership prepared for :meth:`home_nodes`; touched only by
        #: :meth:`add_node` / :meth:`remove_node`.
        self._seeds: list[tuple[int, str]] = []
        self._table = hrw_table(self._seeds)

    # -- membership ----------------------------------------------------------

    def add_node(self, name: str) -> CacheNode:
        if name in self._nodes:
            raise ValueError(f"cache node {name!r} already present")
        node = CacheNode(name, self.node_capacity_bytes)
        self._nodes[name] = node
        self._seeds.append(hrw_seed(name))
        self._table = hrw_table(self._seeds)
        return node

    def remove_node(self, name: str) -> None:
        """Drop a node and its slice; raises :class:`UnknownNodeError` if
        absent."""
        if name not in self._nodes:
            raise UnknownNodeError(
                f"cache node {name!r} not in the distributed cache "
                f"(members: {', '.join(self._nodes) or 'none'})"
            )
        del self._nodes[name]
        self._seeds.remove(hrw_seed(name))
        self._table = hrw_table(self._seeds)

    def nodes(self) -> dict[str, CacheNode]:
        return dict(self._nodes)

    @staticmethod
    def _key_bytes(host: str, path: str) -> bytes:
        """What a content key hashes as: ``host ‖ 0xFF ‖ path``.  The
        separator byte cannot occur in UTF-8, so distinct (host, path)
        pairs never concatenate to the same bytes."""
        return host.encode() + b"\xff" + path.encode()

    def home_node(self, key: tuple[str, str]) -> CacheNode:
        """The node owning ``key``: the content identity is hashed once —
        ``fnv1a64`` of :meth:`_key_bytes` — and weighed against every
        node's seed."""
        if not self._nodes:
            raise RuntimeError("distributed cache has no nodes")
        return self._nodes[pick(self._seeds, fnv1a64(self._key_bytes(*key)))]

    def home_nodes(self, requests: Sequence[Request]) -> list[CacheNode]:
        """:meth:`home_node` of every request's content key, as one column:
        the keys hashed together, then one ``(requests × nodes)`` rendezvous
        matrix.  A batch driver hands each node back to :meth:`fetch`."""
        if not requests:
            return []
        if not self._nodes:
            raise RuntimeError("distributed cache has no nodes")
        key_bytes = self._key_bytes
        key_hashes = fnv1a64_column(
            [key_bytes(r.authority.lower().rstrip("."), r.path) for r in requests]
        )
        nodes = self._nodes
        return [nodes[name] for name in pick_column(self._table, key_hashes)]

    # -- the serve path ---------------------------------------------------------

    def fetch(self, request: Request, host: str | None = None,
              home: CacheNode | None = None, latency_s: float = 0.0) -> Response:
        """Serve a request through the cache; fills from origin on miss.

        Note the key: content identity only.  The caller's connection,
        destination address, and addressing policy are invisible here —
        the §4.3 isolation property.

        ``host`` and ``home`` forward what the caller already worked out —
        the canonical (lower-case, no trailing dot) authority and its
        :meth:`home_nodes` entry; absent, they are computed here.
        ``latency_s`` is the serving box's service time, stamped on the
        response as it is built.
        """
        if host is None:
            host = request.authority.lower().rstrip(".")
        key = (host, request.path)
        node = self.home_node(key) if home is None else home
        size = node.get(key)
        # Positional: a keyword call builds a dict per response (status,
        # body_len, served_by, cache_hit, latency_s).
        if size is not None:
            return Response(Status.OK, size, node.name, True, latency_s)
        response = self.origin_gateway.fetch(request)
        if response.status is Status.OK:
            node.put(key, response.body_len)
        return Response(response.status, response.body_len, node.name, False, latency_s)

    # -- aggregate stats -----------------------------------------------------

    def total_hit_rate(self) -> float:
        hits = sum(n.stats.hits for n in self._nodes.values())
        misses = sum(n.stats.misses for n in self._nodes.values())
        total = hits + misses
        return hits / total if total else 0.0
