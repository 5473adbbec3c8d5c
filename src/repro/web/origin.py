"""Origin servers: the ground truth behind the reverse proxy.

§2.1: "Origin servers hold the ground truth.  Edge servers sit on the path
between client and origin, typically inserted as reverse proxies."  The
edge cache (``repro.edge.cache``) consults an :class:`OriginPool` on miss;
content is synthetic — a deterministic per-(hostname, path) object size —
because the experiments only account bytes, never payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

from .http import Request, Response, Status

__all__ = ["OriginServer", "OriginPool", "SizeModel", "fixed_size"]

#: Given (hostname, path), produce the object's size in bytes.
SizeModel = Callable[[str, str], int]


def fixed_size(nbytes: int) -> SizeModel:
    def model(hostname: str, path: str) -> int:
        return nbytes
    return model


@dataclass(slots=True)
class OriginServer:
    """One customer origin, hosting some set of hostnames (canonical
    spelling: lower case, no trailing dot)."""

    name: str
    hostnames: set[str]
    size_model: SizeModel
    requests: int = 0
    bytes_served: int = 0

    def serve(self, request: Request) -> Response:
        self.requests += 1
        host = request.authority.lower().rstrip(".")
        if host not in self.hostnames:
            return Response(Status.NOT_FOUND, served_by=self.name)
        size = self.size_model(host, request.path)
        self.bytes_served += size
        return Response(Status.OK, size, self.name)


class OriginPool:
    """Routes an edge's origin-bound fetch to the right customer origin."""

    def __init__(self) -> None:
        self._by_hostname: dict[str, OriginServer] = {}
        self._origins: list[OriginServer] = []

    def add(self, origin: OriginServer) -> None:
        self._origins.append(origin)
        for hostname in origin.hostnames:
            self._by_hostname[hostname.lower().rstrip(".")] = origin

    def add_hostnames(self, origin: OriginServer, hostnames: set[str]) -> None:
        for hostname in hostnames:
            hostname = hostname.lower().rstrip(".")
            origin.hostnames.add(hostname)
            self._by_hostname[hostname] = origin

    def origin_for(self, hostname: str) -> OriginServer | None:
        return self._by_hostname.get(hostname.lower().rstrip("."))

    def fetch(self, request: Request) -> Response:
        origin = self.origin_for(request.authority)
        if origin is None:
            return Response(Status.UNAVAILABLE, served_by="no-origin")
        return origin.serve(request)

    def origins(self) -> list[OriginServer]:
        return list(self._origins)

    def __len__(self) -> int:
        return len(self._origins)
