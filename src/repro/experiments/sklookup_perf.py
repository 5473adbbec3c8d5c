"""Experiments E5–E6: socket-lookup dispatch cost and socket-table scaling.

§3.3 reports the kernel numbers: sk_lookup costs ~1–5 % of baseline
packets-per-second (~1M TCP / ~2.5M UDP in-kernel) and proportional CPU.
Our substrate is Python, so absolute pps is ~3 orders lower; the *claims*
being reproduced are relative:

* attaching an sk_lookup program to the lookup path costs a few percent
  versus the bare listener lookup (E5);
* the naive per-IP bind model scales memory and table size linearly with
  pool width while sk_lookup stays constant (E6, Figure 4a vs 4c).

Builders here construct the three configurations over identical packet
workloads; the benchmarks time them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..analysis.reporting import TextTable, format_quantity
from ..netsim.addr import IPAddress, Prefix, parse_address, parse_prefix
from ..netsim.packet import FiveTuple, Packet, Protocol
from ..sockets.lookup import LookupPath
from ..sockets.sklookup import MatchRule, SkLookupProgram, SockArray, Verdict
from ..sockets.socktable import SocketTable

__all__ = [
    "DispatchSetup",
    "build_baseline_listener",
    "build_wildcard",
    "build_sk_lookup",
    "build_per_ip_binds",
    "make_packets",
    "dispatch_all",
    "dispatch_all_batched",
    "render_scaling_table",
]

INTERNAL = parse_address("198.18.0.1")
DEFAULT_POOL = parse_prefix("192.0.0.0/20")


@dataclass(slots=True)
class DispatchSetup:
    """A ready-to-dispatch lookup path plus bookkeeping for reporting."""

    label: str
    table: SocketTable
    path: LookupPath

    @property
    def socket_count(self) -> int:
        return len(self.table.sockets())

    @property
    def memory_bytes(self) -> int:
        return self.table.memory_bytes()


def build_baseline_listener(port: int = 80, protocol: Protocol = Protocol.TCP) -> DispatchSetup:
    """E5 baseline: a single bound listener, no programs attached.

    Packets must target the listener's address — this is the fastest the
    classic lookup path can be.
    """
    table = SocketTable()
    table.bind_listen(protocol, INTERNAL, port, owner="svc")
    return DispatchSetup("baseline-listener", table, LookupPath(table))


def build_wildcard(pool: Prefix = DEFAULT_POOL, port: int = 80,
                   protocol: Protocol = Protocol.TCP) -> DispatchSetup:
    table = SocketTable()
    table.bind_listen(protocol, None, port, owner="svc")
    return DispatchSetup("wildcard", table, LookupPath(table))


def build_sk_lookup(pool: Prefix = DEFAULT_POOL, port: int = 80,
                    protocol: Protocol = Protocol.TCP,
                    extra_rules: int = 0) -> DispatchSetup:
    """The paper's configuration: one socket, one prefix rule (plus
    ``extra_rules`` no-match rules ahead of it, for program-length
    sensitivity ablations)."""
    table = SocketTable()
    sock = table.bind_listen(protocol, INTERNAL, port, owner="svc")
    sock_map = SockArray(1)
    sock_map.update(0, sock)
    rules = [
        MatchRule(Verdict.PASS, protocol, (parse_prefix(f"172.16.{i}.0/24"),),
                  port, port, map_key=0, label="filler")
        for i in range(extra_rules)
    ]
    rules.append(MatchRule(Verdict.PASS, protocol, (pool,), port, port, map_key=0))
    program = SkLookupProgram("svc", sock_map, rules)
    path = LookupPath(table)
    path.attach(program)
    return DispatchSetup(f"sk_lookup(+{extra_rules})", table, path)


def build_per_ip_binds(pool: Prefix, port: int = 80,
                       protocol: Protocol = Protocol.TCP) -> DispatchSetup:
    """Figure 4a: one listening socket per pool address."""
    table = SocketTable()
    for address in pool.addresses():
        table.bind_listen(protocol, address, port, owner="svc")
    return DispatchSetup(f"per-ip-binds(/{pool.length})", table, LookupPath(table))


def make_packets(
    n: int,
    pool: Prefix = DEFAULT_POOL,
    port: int = 80,
    protocol: Protocol = Protocol.TCP,
    to_internal: bool = False,
    seed: int = 99,
) -> list[Packet]:
    """A packet workload: random sources, destinations across the pool
    (or pinned to the internal listener address for the E5 baseline)."""
    rng = random.Random(seed)
    src_base = parse_address("100.64.0.0").value
    packets = []
    for i in range(n):
        dst = INTERNAL if to_internal else pool.random_address(rng)
        packets.append(Packet(FiveTuple(
            protocol,
            IPAddress.v4(src_base + rng.randrange(1 << 20)),
            1024 + rng.randrange(60000),
            dst,
            port,
        ), syn=True))
    return packets


def dispatch_all(setup: DispatchSetup, packets: list[Packet]) -> int:
    """Dispatch packets one at a time (lookup only); returns delivered count."""
    dispatch = setup.path.dispatch
    delivered = 0
    for packet in packets:
        if dispatch(packet, deliver=False).socket is not None:
            delivered += 1
    return delivered


def dispatch_all_batched(setup: DispatchSetup, packets: list[Packet],
                         batch_size: int = 1024) -> int:
    """Dispatch via :meth:`LookupPath.dispatch_batch` in ``batch_size``
    chunks (lookup only); returns delivered count.  This is the throughput
    configuration the batched workload driver uses."""
    dispatch_batch = setup.path.dispatch_batch
    delivered = 0
    for start in range(0, len(packets), batch_size):
        for result in dispatch_batch(packets[start:start + batch_size], deliver=False):
            if result.socket is not None:
                delivered += 1
    return delivered


def render_scaling_table(pool_lengths: tuple[int, ...] = (28, 26, 24, 22, 20)) -> str:
    """E6: socket count and memory, per configuration per pool width."""
    table = TextTable(
        "Figure 4 — socket-table cost by listening configuration (one port, TCP)",
        ["pool", "addresses", "per-ip sockets", "per-ip memory",
         "wildcard sockets", "sk_lookup sockets", "sk_lookup rules"],
    )
    for length in pool_lengths:
        pool = Prefix.of(parse_address("192.0.0.0"), length)
        per_ip = build_per_ip_binds(pool)
        wildcard = build_wildcard(pool)
        sk = build_sk_lookup(pool)
        rules = sum(len(p.rules()) for p in sk.path.programs())
        table.add_row(
            f"/{length}",
            format_quantity(pool.num_addresses),
            format_quantity(per_ip.socket_count),
            format_quantity(per_ip.memory_bytes) + "B",
            wildcard.socket_count,
            sk.socket_count,
            rules,
        )
    return table.render()
