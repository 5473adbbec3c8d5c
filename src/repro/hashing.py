"""Process-stable hashing: seeds, synthetic identities, rendezvous picks.

Python's builtin ``hash()`` is salted per process (PYTHONHASHSEED) for
str/bytes, so any RNG seeded from it — or any address derived from it —
differs between two runs of the *same* seeded simulation.  That breaks the
bit-reproducibility the whole clock/seed discipline exists for, and it is
exactly what the :mod:`repro.check` determinism lint's ``salted-hash`` rule
flags.  Everything in the simulator that needs "a number from a name" goes
through :func:`stable_hash` instead.

The module also holds the simulator's one rendezvous (highest-random-weight)
hash, :func:`pick`, shared by the ECMP router and the distributed cache.

:func:`pick` and :func:`fnv1a64` each have a *column* form —
:func:`pick_column`, :func:`fnv1a64_column` — for a caller that already
holds a whole batch of keys: the same arithmetic over ``uint64`` arrays
(numpy's multiply wraps modulo 2^64, which *is* the scalar ``& _MASK``),
bit-exact against the scalar forms, which stay as the reference the
property tests compare against.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

__all__ = [
    "fnv1a64", "fnv1a64_column", "stable_hash", "splitmix64",
    "hrw_seed", "hrw_table", "pick", "pick_column",
]

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a over ``data``: tiny, dependency-free, run-stable."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


def fnv1a64_column(datas: Sequence[bytes]) -> np.ndarray:
    """:func:`fnv1a64` of every string in ``datas``, as a ``uint64`` column.

    The strings are padded to one width and folded a byte *position* at a
    time; a row shorter than the position keeps the hash it finished with.
    """
    n = len(datas)
    h = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    if n == 0:
        return h
    lengths = np.fromiter(map(len, datas), dtype=np.intp, count=n)
    shortest, width = int(lengths.min()), int(lengths.max())
    padded = b"".join([data.ljust(width, b"\0") for data in datas])
    columns = np.frombuffer(padded, dtype=np.uint8).reshape(n, width).T
    prime = np.uint64(_FNV_PRIME)
    for position in range(width):
        folded = (h ^ columns[position]) * prime
        h = folded if position < shortest else np.where(lengths > position, folded, h)
    return h


def stable_hash(*parts: object) -> int:
    """A deterministic 64-bit hash of a tuple of simple values.

    Accepts strings, ints, floats, bools and ``None``; each part is folded
    into the digest with a type tag so ``("1",)`` and ``(1,)`` differ.
    Unlike ``hash()``, the result is identical in every process and on
    every platform, making it safe for RNG seeding and synthetic address
    derivation.
    """
    h = _FNV_OFFSET
    for part in parts:
        tagged = f"{type(part).__name__}:{part!r};"
        for byte in tagged.encode("utf-8"):
            h ^= byte
            h = (h * _FNV_PRIME) & _MASK
    return h


def splitmix64(x: int) -> int:
    """Finalizer with full avalanche — plain FNV mixing is not enough for
    HRW: similar member names ("s7"/"s8") otherwise produce correlated
    weights and skew the argmax."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def hrw_seed(name: str) -> tuple[int, str]:
    """A member's entry in a :func:`pick` list: its name hashed once, at
    membership-change time, so no pick ever re-reads the name's bytes."""
    return fnv1a64(name.encode()), name


def pick(members: Iterable[tuple[int, str]], key_hash: int) -> str:
    """Rendezvous hashing: the member whose ``splitmix64(seed ^ key_hash)``
    is highest owns the key.

    The weight depends on the (member, key) pair alone, so removing a
    member remaps only the keys it owned and adding one moves keys only to
    it.  Equal weights break on the member *name*, never on list position —
    a drain-and-restore that reorders ``members`` must not rehome a key.
    """
    best_weight, best_name = -1, ""
    for seed, name in members:
        weight = splitmix64(seed ^ key_hash)
        if weight > best_weight or (weight == best_weight and name > best_name):
            best_weight, best_name = weight, name
    return best_name


def hrw_table(members: Iterable[tuple[int, str]]) -> tuple[np.ndarray, list[str]]:
    """``members`` prepared for :func:`pick_column`: a seed row and the
    names, both ordered by name *descending*, so that among equal weights
    the first column is the greatest name — :func:`pick`'s tie-break.
    Rebuild it when membership changes, as the seeds themselves are."""
    ordered = sorted(members, key=lambda member: member[1], reverse=True)
    seeds = np.array([seed for seed, _ in ordered], dtype=np.uint64)
    return seeds, [name for _, name in ordered]


def pick_column(table: tuple[np.ndarray, list[str]], key_hashes: Sequence[int]) -> list[str]:
    """:func:`pick` for a column of key hashes against one
    :func:`hrw_table`: a single ``(keys × members)`` matrix of
    :func:`splitmix64` weights and its row-wise argmax (``argmax`` returns
    the first maximum, which the table's ordering makes the right one)."""
    seeds, names = table
    x = np.asarray(key_hashes, dtype=np.uint64)[:, None] ^ seeds
    x += np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return [names[i] for i in x.argmax(axis=1).tolist()]
