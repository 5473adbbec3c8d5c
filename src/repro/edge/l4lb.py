"""Per-server L4 load balancer: connection tracking ahead of termination.

Figure 6 places "an additional L4 load balancer between [the ECMP router]
and connection termination".  Its production job is stateful affinity:
keeping established connections pinned to their terminating process even
as the stateless ECMP layer's decisions shift (server drain, process
restart).  The simulator's version tracks connections, detects flows the
ECMP layer re-homed mid-connection, and forwards them to the owning server
— the mechanism that makes server-set changes non-disruptive.

§4.3: L4LB complexity "is dominated by numbers of servers and not IP
addresses" — the table here is keyed by flow, never by which pool address
a connection used, and tests assert its size is invariant to pool width.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..netsim.packet import FiveTuple, Packet

__all__ = ["L4LoadBalancer", "L4Stats"]


@dataclass(slots=True)
class L4Stats:
    new_flows: int = 0
    tracked_hits: int = 0
    rehomed: int = 0
    closed: int = 0


class L4LoadBalancer:
    """Connection-table load balancer for one datacenter.

    ``admit(packet, ecmp_choice)`` returns the server that must terminate
    the packet's flow: the tracked owner if the flow is known, else the
    ECMP choice (which is then recorded as owner).
    """

    def __init__(self, name: str = "l4lb") -> None:
        self.name = name
        self.stats = L4Stats()
        self._flows: dict[FiveTuple, str] = {}

    def admit(self, packet: Packet, ecmp_choice: str) -> str:
        # One probe: the table grew exactly when the flow was new.
        flows = self._flows
        tracked = len(flows)
        owner = flows.setdefault(packet.tuple5, ecmp_choice)
        if len(flows) > tracked:
            self.stats.new_flows += 1
            return owner
        self.stats.tracked_hits += 1
        if owner != ecmp_choice:
            self.stats.rehomed += 1
        return owner

    def conclude(self, tuple5: FiveTuple) -> None:
        """Flow ended; release its table entry."""
        if self._flows.pop(tuple5, None) is not None:
            self.stats.closed += 1

    def tracked_flows(self) -> int:
        return len(self._flows)
