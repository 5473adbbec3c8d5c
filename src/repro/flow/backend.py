"""Flow-hash backends: pure Python, and an optional numpy vectorisation.

The engine computes every flow hash exactly once per batch and threads the
column through ECMP, L4LB, listener selection, and dispatch.  The hash is
the FNV-1a chain of :func:`repro.sockets.lookup.flow_hash_tuple`; the
numpy backend reimplements that chain over ``uint64`` arrays and must be
**bit-exact** — ECMP fan-out and SO_REUSEPORT member selection both key on
the hash value, so a backend that disagreed in even one bit would steer
flows to different servers depending on which backend computed it.  The
differential suite pins equality against the scalar reference.

numpy is a declared dependency (:mod:`repro.hashing` imports it for the
rendezvous columns); the pure-Python backend stays as the reference the
differential suite compares the vectorised chain against.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..netsim.packet import FiveTuple
from ..sockets.lookup import flow_hash_tuple

__all__ = [
    "FlowHashBackend",
    "PythonHashBackend",
    "NumpyHashBackend",
    "default_backend",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class FlowHashBackend:
    """Strategy interface: hash a column of 5-tuples."""

    name = "abstract"

    def hash_tuples(self, tuple5s: Sequence[FiveTuple]) -> list[int]:
        raise NotImplementedError


class PythonHashBackend(FlowHashBackend):
    """The reference: :func:`flow_hash_tuple` per tuple."""

    name = "python"

    def hash_tuples(self, tuple5s: Sequence[FiveTuple]) -> list[int]:
        return [flow_hash_tuple(t) for t in tuple5s]


class NumpyHashBackend(FlowHashBackend):
    """The FNV-1a chain vectorised over ``uint64`` columns.

    Each 5-tuple contributes five parts (protocol, src, sport, dst, dport);
    each part is split into low and high 64-bit halves (the high half is
    non-zero only for IPv6 addresses) so the per-part fold is two
    xor-multiply rounds, exactly like the scalar chain.  uint64 multiply
    wraps modulo 2^64 in numpy, which *is* the ``& MASK64`` of the
    reference — no masking needed.
    """

    name = "numpy"

    def __init__(self) -> None:
        import numpy  # raises ImportError where numpy is absent

        self._np = numpy

    def hash_tuples(self, tuple5s: Sequence[FiveTuple]) -> list[int]:
        np = self._np
        n = len(tuple5s)
        if n == 0:
            return []
        h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
        prime = np.uint64(_FNV_PRIME)
        for lo_of, hi_of in (
            (lambda t: int(t.protocol.wire_protocol), lambda t: 0),
            (lambda t: t.src.value & _MASK64, lambda t: t.src.value >> 64),
            (lambda t: t.src_port, lambda t: 0),
            (lambda t: t.dst.value & _MASK64, lambda t: t.dst.value >> 64),
            (lambda t: t.dst_port, lambda t: 0),
        ):
            lo = np.fromiter((lo_of(t) for t in tuple5s), dtype=np.uint64, count=n)
            hi = np.fromiter((hi_of(t) for t in tuple5s), dtype=np.uint64, count=n)
            h ^= lo
            h = h * prime
            h ^= hi
            h = h * prime
        return [int(x) for x in h]


def default_backend(prefer: str = "auto") -> FlowHashBackend:
    """Pick a hash backend.

    ``"auto"`` uses numpy when importable, pure Python otherwise;
    ``"numpy"`` insists (ImportError where absent); ``"python"`` forces the
    reference.
    """
    if prefer == "python":
        return PythonHashBackend()
    if prefer == "numpy":
        return NumpyHashBackend()
    if prefer != "auto":
        raise ValueError(f"unknown backend preference {prefer!r}")
    try:
        return NumpyHashBackend()
    except ImportError:
        return PythonHashBackend()
