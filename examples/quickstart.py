#!/usr/bin/env python3
"""Quickstart: the two halves of addressing agility in ~80 lines.

1. Policy-first DNS (§3.1–3.2): answer A queries for *any* hostname with a
   fresh random address drawn from a policy's pool — no name→IP table.
2. sk_lookup (§3.3): one listening socket terminates connections for the
   whole pool, and can be re-pointed to a different prefix at runtime.

Run:  python examples/quickstart.py
"""

import random

from repro.core import AddressPool, Policy, PolicyAnswerSource, PolicyEngine
from repro.dns import AuthoritativeServer, Message, QueryContext, RRType
from repro.edge import AccountType, Customer, CustomerRegistry
from repro.netsim import FiveTuple, Packet, Protocol, parse_address, parse_prefix
from repro.sockets import LookupPath, MatchRule, SkLookupProgram, SockArray, SocketTable, Verdict


def main() -> None:
    # ------------------------------------------------------------------ DNS
    pool_prefix = parse_prefix("192.0.2.0/24")
    pool = AddressPool(pool_prefix, name="quickstart-pool")

    registry = CustomerRegistry()
    registry.add(Customer("demo", AccountType.FREE,
                          {f"site{i}.example.com" for i in range(1000)}))

    engine = PolicyEngine(random.Random(42))
    engine.add(Policy("randomize-free", pool,
                      match={"account_type": {"free"}}, ttl=30))
    server = AuthoritativeServer(PolicyAnswerSource(engine, registry))
    context = QueryContext(pop="demo-pop")

    print("== policy-first DNS: same question, fresh address every time ==")
    for i in range(5):
        query = Message.query(i, "site7.example.com", RRType.A)
        response = Message.decode(server.handle_wire(query.encode(), context))
        print(f"  site7.example.com -> {response.answers[0].rdata.address}"
              f"  (ttl={response.answers[0].ttl})")

    print("\n== different hostnames share the same pool ==")
    for name in ("site1", "site2", "site999"):
        query = Message.query(99, f"{name}.example.com", RRType.A)
        response = Message.decode(server.handle_wire(query.encode(), context))
        print(f"  {name}.example.com -> {response.answers[0].rdata.address}")

    # -------------------------------------------------------------- sockets
    print("\n== sk_lookup: one socket for 256 addresses x any port ==")
    table = SocketTable()
    service = table.bind_listen(Protocol.TCP, parse_address("198.18.0.1"), 443,
                                owner="https")
    sock_map = SockArray(1)
    sock_map.update(0, service)
    program = SkLookupProgram("steer-pool", sock_map, [
        MatchRule(Verdict.PASS, Protocol.TCP, (pool_prefix,), 443, 443, map_key=0,
                  label="service-pool"),
    ])
    path = LookupPath(table)
    path.attach(program)

    rng = random.Random(7)
    for _ in range(3):
        dst = pool_prefix.random_address(rng)
        packet = Packet(FiveTuple(Protocol.TCP, parse_address("100.64.9.9"),
                                  50000, dst, 443), syn=True)
        result = path.dispatch(packet)
        print(f"  SYN to {dst}:443 -> socket fd={result.socket.fd} "
              f"(stage={result.stage.value}); sockets in table: "
              f"{len(table.sockets())}")

    print("\n== runtime re-point: same socket, new prefix ==")
    new_prefix = parse_prefix("203.0.113.0/24")
    program.remove_rules("service-pool")
    program.add_rule(MatchRule(Verdict.PASS, Protocol.TCP, (new_prefix,),
                               443, 443, map_key=0, label="service-pool"))
    moved = Packet(FiveTuple(Protocol.TCP, parse_address("100.64.9.9"),
                             50001, new_prefix.address_at(5), 443), syn=True)
    print(f"  SYN to {new_prefix.address_at(5)}:443 -> "
          f"delivered={path.dispatch(moved).delivered} (no rebind, no restart)")


if __name__ == "__main__":
    main()
