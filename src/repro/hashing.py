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
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = ["fnv1a64", "stable_hash", "splitmix64", "hrw_seed", "pick"]

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
