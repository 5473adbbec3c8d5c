"""The ECMP ingress router: stateless consistent-hash fan-out to servers.

Figure 6: "An ECMP router with consistent hashing fans connections out to
servers … the datacenter's first-pass stateless load balancer that hashes
packets in a consistent manner to spread connections between servers."

We use rendezvous (highest-random-weight) hashing — :func:`repro.hashing.pick`,
the same primitive the distributed cache homes keys with: every flow
weighs each server against the flow key and takes the maximum.  This gives
the two properties the paper's architecture relies on:

* all packets of a flow reach the same server (no per-flow state), and
* adding/removing a server reshuffles only ~1/n of flows.

§4.3 notes ECMP "exists independently from" the addressing changes — its
hash covers the whole advertised prefix, so which address DNS returned is
irrelevant to fan-out correctness.  Tests assert exactly that.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

from ..hashing import hrw_seed, hrw_table, pick, pick_column
from ..netsim.packet import Packet
from ..sockets.lookup import flow_hash

__all__ = ["ECMPRouter", "EcmpStats", "UnknownServerError"]


class UnknownServerError(LookupError):
    """Membership change targeting a server this ECMP group never had."""


@dataclass(slots=True)
class EcmpStats:
    routed: int = 0
    per_server: dict[str, int] = field(default_factory=dict)

    def record(self, server: str) -> None:
        self.routed += 1
        self.per_server[server] = self.per_server.get(server, 0) + 1

    def fold(self, choices: Sequence[str]) -> None:
        """Fold a whole batch of routing decisions in at once — the hot
        loop makes stateless picks and accounting happens per batch, not
        per packet.  Equivalent to :meth:`record` per choice."""
        self.routed += len(choices)
        per_server = self.per_server
        for server, n in Counter(choices).items():
            per_server[server] = per_server.get(server, 0) + n


class ECMPRouter:
    """Rendezvous-hash router over a named server set.

    Each member is held as its :func:`~repro.hashing.hrw_seed` — the name
    hashed once when it joins — so a routing decision never touches the
    names' bytes.  ``_table`` is the same membership prepared for
    :meth:`choose_many`; both change only in :meth:`add_server` /
    :meth:`remove_server`.
    """

    def __init__(self, servers: list[str] | None = None) -> None:
        self._seeds: list[tuple[int, str]] = []
        self._table = hrw_table(self._seeds)
        self.stats = EcmpStats()
        for s in servers or []:
            self.add_server(s)

    # -- membership ---------------------------------------------------------

    def add_server(self, server: str) -> None:
        seed = hrw_seed(server)
        if seed in self._seeds:
            raise ValueError(f"server {server!r} already in ECMP group")
        self._seeds.append(seed)
        self._table = hrw_table(self._seeds)

    def remove_server(self, server: str) -> None:
        """Drop a member; raises :class:`UnknownServerError` if absent.

        A bare ``list.remove`` ValueError leaked here before — opaque to
        callers draining servers during failover, and easy to mistake for
        a bad argument elsewhere.  Stats are untouched either way:
        ``EcmpStats`` is routing history, not membership."""
        try:
            self._seeds.remove(hrw_seed(server))
        except ValueError:
            raise UnknownServerError(
                f"server {server!r} not in ECMP group "
                f"(members: {', '.join(self.servers()) or 'none'})"
            ) from None
        self._table = hrw_table(self._seeds)

    def servers(self) -> list[str]:
        return [name for _, name in self._seeds]

    def __len__(self) -> int:
        return len(self._seeds)

    # -- routing -------------------------------------------------------------

    def choose(self, flow_hash_value: int) -> str:
        """The stateless HRW pick for one flow hash — no stats recorded;
        :meth:`route` composes pick and record for the scalar path.

        Weight ties break on the server *name*, never on list position:
        HRW's minimal-remap guarantee is a property of the (server, flow)
        weights alone, and a position-dependent tie-break silently
        reintroduced membership-order sensitivity — a remove-then-re-add
        (drain and restore, in failover terms) would reshuffle tied flows
        that should have stayed put.
        """
        if not self._seeds:
            raise RuntimeError("ECMP group is empty")
        return pick(self._seeds, flow_hash_value)

    def choose_many(self, flow_hashes: Sequence[int]) -> list[str]:
        """:meth:`choose` for a whole flow-hash column, as one
        ``(flows × servers)`` rendezvous matrix — no stats recorded: batch
        drivers fold the choices they actually used
        (:meth:`EcmpStats.fold`)."""
        if not len(flow_hashes):
            return []
        if not self._seeds:
            raise RuntimeError("ECMP group is empty")
        return pick_column(self._table, flow_hashes)

    def route(self, packet: Packet, flow_hash_value: int | None = None) -> str:
        """Pick the server for a packet's flow; deterministic per 5-tuple.

        ``flow_hash_value`` reuses a hash the ingress pipeline already
        computed — the hot path hashes each packet exactly once.
        """
        fh = flow_hash(packet) if flow_hash_value is None else flow_hash_value
        chosen = self.choose(fh)
        self.stats.record(chosen)
        return chosen
