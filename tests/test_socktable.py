"""BSD socket semantics: the §3.3 'before' picture, limitation by limitation."""

import pytest

from repro.netsim.addr import parse_address, parse_prefix
from repro.netsim.packet import FiveTuple, Packet, Protocol
from repro.sockets.errors import AddressInUseError, InvalidSocketStateError
from repro.sockets.socktable import (
    RECEIVE_QUEUE_DEPTH,
    SOCKET_MEM_BYTES,
    SocketState,
    SocketTable,
)

A1 = parse_address("192.0.2.1")
A2 = parse_address("192.0.2.2")


def tuple5(dst=A1, dport=80, sport=40000, proto=Protocol.TCP):
    return FiveTuple(proto, parse_address("198.51.100.9"), sport, dst, dport)


class TestBindSemantics:
    def test_simple_bind_listen(self):
        table = SocketTable()
        sock = table.bind_listen(Protocol.TCP, A1, 80)
        assert sock.state is SocketState.LISTENING
        assert sock.local_addr == A1 and sock.local_port == 80

    def test_exact_duplicate_eaddrinuse(self):
        table = SocketTable()
        table.bind_listen(Protocol.TCP, A1, 80)
        with pytest.raises(AddressInUseError):
            table.bind_listen(Protocol.TCP, A1, 80)

    def test_different_ports_coexist(self):
        table = SocketTable()
        table.bind_listen(Protocol.TCP, A1, 80)
        table.bind_listen(Protocol.TCP, A1, 443)

    def test_different_protocols_coexist(self):
        """An authoritative DNS opens :53/tcp AND :53/udp (§3.3)."""
        table = SocketTable()
        table.bind_listen(Protocol.TCP, A1, 53)
        table.bind_listen(Protocol.UDP, A1, 53)
        assert table.listener_count() == 2

    def test_wildcard_claims_port_exclusively(self):
        """The paper's headline conflict: specific bind after wildcard fails."""
        table = SocketTable()
        table.bind_listen(Protocol.TCP, None, 80)
        with pytest.raises(AddressInUseError):
            table.bind_listen(Protocol.TCP, A1, 80)

    def test_specific_blocks_later_wildcard(self):
        table = SocketTable()
        table.bind_listen(Protocol.TCP, A1, 80)
        with pytest.raises(AddressInUseError):
            table.bind_listen(Protocol.TCP, None, 80)

    def test_reuseport_allows_sharing(self):
        table = SocketTable()
        table.bind_listen(Protocol.UDP, A1, 443, reuseport=True)
        table.bind_listen(Protocol.UDP, A1, 443, reuseport=True)
        assert table.listener_count() == 2

    def test_reuseport_must_be_mutual(self):
        table = SocketTable()
        table.bind_listen(Protocol.TCP, A1, 80, reuseport=False)
        with pytest.raises(AddressInUseError):
            table.bind_listen(Protocol.TCP, A1, 80, reuseport=True)

    def test_double_bind_invalid_state(self):
        table = SocketTable()
        sock = table.socket(Protocol.TCP)
        table.bind(sock, A1, 80)
        with pytest.raises(InvalidSocketStateError):
            table.bind(sock, A2, 81)

    def test_listen_requires_bound(self):
        table = SocketTable()
        sock = table.socket(Protocol.TCP)
        with pytest.raises(InvalidSocketStateError):
            table.listen(sock)

    def test_port_zero_rejected(self):
        table = SocketTable()
        sock = table.socket(Protocol.TCP)
        with pytest.raises(ValueError):
            table.bind(sock, A1, 0)

    def test_failed_bind_closes_socket(self):
        table = SocketTable()
        table.bind_listen(Protocol.TCP, A1, 80)
        before = len(table.sockets())
        with pytest.raises(AddressInUseError):
            table.bind_listen(Protocol.TCP, A1, 80)
        assert len(table.sockets()) == before

    def test_close_releases_binding(self):
        table = SocketTable()
        sock = table.bind_listen(Protocol.TCP, A1, 80)
        table.close(sock)
        table.bind_listen(Protocol.TCP, A1, 80)  # no conflict now

    def test_quic_socket_is_udp(self):
        table = SocketTable()
        sock = table.socket(Protocol.QUIC)
        assert sock.protocol is Protocol.UDP


class TestScalingCosts:
    def test_memory_scales_linearly_with_binds(self):
        """Limitation (i): a /24 on one port costs 256 sockets of memory."""
        table = SocketTable()
        pool = parse_prefix("192.0.2.0/24")
        for addr in pool.addresses():
            table.bind_listen(Protocol.TCP, addr, 80)
        assert table.memory_bytes() == 256 * SOCKET_MEM_BYTES
        assert table.listener_count() == 256

    def test_wildcard_costs_one_socket(self):
        table = SocketTable()
        table.bind_listen(Protocol.TCP, None, 80)
        assert table.memory_bytes() == SOCKET_MEM_BYTES


class TestEstablishAndQueues:
    def test_establish_creates_connected_child(self):
        table = SocketTable()
        listener = table.bind_listen(Protocol.TCP, A1, 80)
        t = tuple5()
        child = table.establish(listener, t)
        assert child.state is SocketState.CONNECTED
        assert child.local_addr == t.dst and child.remote == (t.src, t.src_port)
        assert table.connected_count() == 1

    def test_establish_on_unbound_address_allowed(self):
        """The sk_lookup property: the child's local address need not be
        one the listener was bound to."""
        table = SocketTable()
        listener = table.bind_listen(Protocol.TCP, A1, 80)
        child = table.establish(listener, tuple5(dst=A2))
        assert child.local_addr == A2

    def test_duplicate_connection_rejected(self):
        table = SocketTable()
        listener = table.bind_listen(Protocol.TCP, A1, 80)
        t = tuple5()
        table.establish(listener, t)
        with pytest.raises(AddressInUseError):
            table.establish(listener, t)

    def test_refused_duplicates_leave_no_orphan_socket(self):
        """The 4-tuple is checked before the child is created: a refusal
        used to leave the child registered (and charged for) forever."""
        table = SocketTable()
        listener = table.bind_listen(Protocol.TCP, A1, 80)
        t = tuple5()
        child = table.establish(listener, t)
        memory = table.memory_bytes()
        for _ in range(3):
            with pytest.raises(AddressInUseError):
                table.establish(listener, t)
        assert table.sockets() == [listener, child]
        assert table.memory_bytes() == memory == 2 * SOCKET_MEM_BYTES
        assert table.connected_count() == 1
        assert table.find_connected(Packet(t)) is child

    def test_establish_requires_listening(self):
        table = SocketTable()
        sock = table.socket(Protocol.TCP)
        with pytest.raises(InvalidSocketStateError):
            table.establish(sock, tuple5())

    def test_find_connected(self):
        table = SocketTable()
        listener = table.bind_listen(Protocol.TCP, A1, 80)
        t = tuple5()
        child = table.establish(listener, t)
        assert table.find_connected(Packet(t)) is child
        assert table.find_connected(Packet(tuple5(sport=40001))) is None

    def test_close_connected_removes_entry(self):
        table = SocketTable()
        listener = table.bind_listen(Protocol.TCP, A1, 80)
        t = tuple5()
        child = table.establish(listener, t)
        table.close(child)
        assert table.find_connected(Packet(t)) is None

    def test_receive_queue_overflow_drops(self):
        """One receive queue per socket: floods on a shared socket drop
        legitimate traffic (the INADDR_ANY hazard, §3.3)."""
        table = SocketTable()
        sock = table.bind_listen(Protocol.UDP, None, 53)
        pkt = Packet(tuple5(dport=53, proto=Protocol.UDP))
        for _ in range(RECEIVE_QUEUE_DEPTH + 10):
            sock.deliver(pkt)
        assert sock.enqueued == RECEIVE_QUEUE_DEPTH
        assert sock.dropped == 10

    def test_drain(self):
        table = SocketTable()
        sock = table.bind_listen(Protocol.UDP, A1, 53)
        pkt = Packet(tuple5(dport=53, proto=Protocol.UDP))
        for _ in range(5):
            sock.deliver(pkt)
        assert len(sock.drain(3)) == 3
        assert len(sock.drain()) == 2

    def test_receive_queue_exists_only_once_touched(self):
        """A connected child nothing is delivered to never pays for a queue;
        deliver, drain and the depth-1024 drop behave the same from cold."""
        table = SocketTable()
        listener = table.bind_listen(Protocol.TCP, A1, 80)
        idle, busy = (table.establish(listener, tuple5(sport=p)) for p in (40001, 40002))
        assert idle._queue is None and busy._queue is None
        assert idle.drain() == [] and idle.drain(3) == [] and idle._queue is None
        pkt = Packet(tuple5(sport=40002))
        assert busy.deliver(pkt) and busy._queue is not None
        assert len(busy.queue) == 1 and busy.queue.maxlen == RECEIVE_QUEUE_DEPTH
        assert busy.drain() == [pkt] and busy.drain() == []
        for _ in range(RECEIVE_QUEUE_DEPTH + 5):
            busy.deliver(pkt)
        assert (busy.enqueued, busy.dropped) == (RECEIVE_QUEUE_DEPTH + 1, 5)
        assert len(idle.queue) == 0  # reading it is a touch: allocated, empty

    def test_per_ip_isolation_under_flood(self):
        """Footnote 2: one-socket-per-IP isolates a flood to one queue."""
        table = SocketTable()
        s1 = table.bind_listen(Protocol.UDP, A1, 53)
        s2 = table.bind_listen(Protocol.UDP, A2, 53)
        flood = Packet(tuple5(dst=A1, dport=53, proto=Protocol.UDP))
        for _ in range(RECEIVE_QUEUE_DEPTH * 2):
            s1.deliver(flood)
        legit = Packet(tuple5(dst=A2, dport=53, proto=Protocol.UDP))
        assert s2.deliver(legit)
        assert s2.dropped == 0


class TestFindListener:
    def test_exact_beats_wildcard(self):
        table = SocketTable()
        wild = table.bind_listen(Protocol.TCP, None, 443)
        table.close(wild)
        specific = table.bind_listen(Protocol.TCP, A1, 443)
        wild2 = table.bind_listen(Protocol.UDP, None, 443)
        assert table.find_listener(Protocol.TCP, A1, 443) is specific
        assert table.find_listener(Protocol.UDP, A1, 443) is wild2

    def test_reuseport_group_selection_is_stable(self):
        table = SocketTable()
        socks = [table.bind_listen(Protocol.UDP, A1, 443, reuseport=True) for _ in range(4)]
        chosen = table.find_listener(Protocol.UDP, A1, 443, flow_hash=7)
        assert chosen is socks[7 % 4]
        assert table.find_listener(Protocol.UDP, A1, 443, flow_hash=7) is chosen

    def test_miss_returns_none(self):
        table = SocketTable()
        assert table.find_listener(Protocol.TCP, A1, 80) is None
