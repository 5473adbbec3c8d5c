"""Flow-hash backends: the numpy vectorisation, and its pure-Python reference.

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

import numpy as np

from ..netsim.packet import FiveTuple
from ..sockets.lookup import flow_hash_tuple

__all__ = ["PythonHashBackend", "NumpyHashBackend"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class PythonHashBackend:
    """The reference: :func:`flow_hash_tuple` per tuple."""

    name = "python"

    def hash_tuples(self, tuple5s: Sequence[FiveTuple]) -> list[int]:
        return [flow_hash_tuple(t) for t in tuple5s]


class NumpyHashBackend:
    """The FNV-1a chain vectorised over ``uint64`` columns.

    Each 5-tuple contributes five parts (protocol, src, sport, dst, dport),
    one column each; each part is split into low and high 64-bit halves so
    the per-part fold is two xor-multiply rounds, exactly like the scalar
    chain (the high half is non-zero only in an IPv6 column, the only one
    that xors it in).  uint64 multiply wraps modulo 2^64 in numpy, which
    *is* the ``& MASK64`` of the reference — no masking needed.
    """

    name = "numpy"

    def hash_tuples(self, tuple5s: Sequence[FiveTuple]) -> list[int]:
        if not tuple5s:
            return []
        h = np.full(len(tuple5s), _FNV_OFFSET, dtype=np.uint64)
        prime = np.uint64(_FNV_PRIME)
        for part in (
            [int(t.protocol.wire_protocol) for t in tuple5s],
            [t.src.value for t in tuple5s],
            [t.src_port for t in tuple5s],
            [t.dst.value for t in tuple5s],
            [t.dst_port for t in tuple5s],
        ):
            wide = max(part) > _MASK64
            h ^= np.array([v & _MASK64 for v in part] if wide else part, dtype=np.uint64)
            h = h * prime
            if wide:
                h ^= np.array([v >> 64 for v in part], dtype=np.uint64)
            h = h * prime
        return h.tolist()
