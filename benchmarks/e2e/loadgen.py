"""Seed-driven inputs for both paths.

Everything the system under test receives is made here from ``--seed``
and nothing else: hostname columns and collision-free client sources for
the flow path, pre-encoded query bodies for the wire path.  The worlds
themselves are fixed configuration (built in ``flowpath``/``wirepath``
from constants), so two runs with the same seed feed identical inputs to
identical systems.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterator

from repro.dns.edns import OptRecord, attach_opt
from repro.dns.records import RRType
from repro.dns.wire import Message
from repro.netsim.addr import IPAddress
from repro.serve.app import AGILE_HOSTNAME, ALIAS_HOSTNAME, BIG_HOSTNAME
from repro.workload.hostnames import HostnameUniverse
from repro.workload.traffic import RequestStream

__all__ = [
    "BATCH_SIZE",
    "EDNS_PAYLOAD",
    "KINDS",
    "A",
    "ALIAS",
    "NX",
    "BIG",
    "MIXED_SHARES",
    "SourceAllocator",
    "flow_batches",
    "udp_a_corpus",
    "mixed_corpus",
]

BATCH_SIZE = 1024

#: Client sources live in CGNAT space (RFC 6598, 100.64/10), on the
#: ephemeral ports 20000-59999 — the ranges ``sample_flow_batches`` draws
#: from at random, here enumerated without repetition.
_SRC_BASE = 0x64400000
_SRC_ADDRS = 1 << 22
_SRC_PORT_BASE = 20_000
_SRC_PORTS = 40_000
_SRC_SPACE = _SRC_ADDRS * _SRC_PORTS

EDNS_PAYLOAD = 1232
_MIXED_CORPUS_OPS = 8192


class SourceAllocator:
    """``(src_addr, src_port)`` pairs that never repeat.

    The i-th source is ``(a*i + b) mod M`` split into address and port,
    with ``M`` the size of the source space and ``a`` coprime to it: an
    affine bijection of ``Z_M``, so the first ``M`` sources are distinct by
    construction and ``connect_batch`` can never see a duplicate 5-tuple.
    The seed picks ``a`` and ``b``.
    """

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.offset = rng.randrange(_SRC_SPACE)
        self.stride = rng.randrange(1, _SRC_SPACE)
        while math.gcd(self.stride, _SRC_SPACE) != 1:
            self.stride = rng.randrange(1, _SRC_SPACE)
        self.issued = 0

    def take(self, n: int) -> tuple[list[IPAddress], list[int]]:
        if self.issued + n > _SRC_SPACE:
            raise RuntimeError("source space exhausted; sources would repeat")
        addrs: list[IPAddress] = []
        ports: list[int] = []
        for i in range(self.issued, self.issued + n):
            addr, port = divmod((self.stride * i + self.offset) % _SRC_SPACE, _SRC_PORTS)
            addrs.append(IPAddress.v4(_SRC_BASE + addr))
            ports.append(_SRC_PORT_BASE + port)
        self.issued += n
        return addrs, ports


def flow_batches(
    universe: HostnameUniverse, zipf_s: float, seed: int
) -> Iterator[tuple[list[str], list[IPAddress], list[int]]]:
    """Endless ``(hostnames, src_addrs, src_ports)`` column batches.

    Hostnames follow the Zipf page-view workload (a site plus its asset
    hosts per view); batch ``k`` is sampled from ``(seed, k)`` so the
    stream is the same however many batches a run consumes.
    """
    stream = RequestStream(universe, zipf_s=zipf_s)
    sources = SourceAllocator(seed)
    batch = 0
    while True:
        hostnames = list(stream.sample_hostnames(BATCH_SIZE, seed * 1_000_003 + batch))
        yield (hostnames, *sources.take(BATCH_SIZE))
        batch += 1


# -- wire corpus ------------------------------------------------------------------

#: Operation kinds of the wire workloads: a corpus entry is ``(kind, body)``.
KINDS = ("a", "alias", "nx", "big")
A, ALIAS, NX, BIG = range(len(KINDS))
MIXED_SHARES = (0.80, 0.08, 0.06, 0.06)


def _query_body(name: str, rrtype: RRType) -> bytes:
    """An EDNS query for ``name``, encoded, minus the two ID bytes (the
    driver prepends a fresh ID per send)."""
    query = attach_opt(Message.query(0, name, rrtype), OptRecord(udp_payload_size=EDNS_PAYLOAD))
    return query.encode()[2:]


def udp_a_corpus() -> list[tuple[int, bytes]]:
    """The smallest message the server answers from policy, repeated."""
    return [(A, _query_body(AGILE_HOSTNAME, RRType.A))]


def mixed_corpus(seed: int) -> list[tuple[int, bytes]]:
    """A seeded cycle of ``(kind, query body)`` in the ``MIXED_SHARES`` mix;
    every ``nx`` operation asks for its own random name."""
    rng = random.Random(seed)
    fixed = {
        A: _query_body(AGILE_HOSTNAME, RRType.A),
        ALIAS: _query_body(ALIAS_HOSTNAME, RRType.A),
        BIG: _query_body(BIG_HOSTNAME, RRType.TXT),
    }
    corpus = []
    for kind in rng.choices(range(len(KINDS)), MIXED_SHARES, k=_MIXED_CORPUS_OPS):
        body = fixed.get(kind)
        if body is None:
            body = _query_body(f"nx-{rng.getrandbits(32):08x}.example.com", RRType.A)
        corpus.append((kind, body))
    return corpus
