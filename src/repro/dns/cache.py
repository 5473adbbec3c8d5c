"""TTL-driven DNS caching, including misbehaving-resolver TTL policies.

§3.1: "the lifetime of the name-to-IP binding is upper-bounded in time by
the larger of connection lifetime and TTL in downstream caches."  §4.4
warns that "resolvers commonly modify TTL values", citing measurement
studies.  Both observations matter to the agility experiments — a rebind
(DoS mitigation, leak mitigation) completes only when downstream caches
expire — so the cache models honest expiry *and* the common violations:
clamping low TTLs up (cache-friendly resolvers) and capping high TTLs down.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from ..clock import Clock
from .records import DomainName, Question, ResourceRecord, RRType

__all__ = ["TTLPolicy", "DNSCache", "CacheStats"]


@dataclass(frozen=True, slots=True)
class TTLPolicy:
    """How a cache treats authoritative TTLs.

    ``clamp_min``: never store below this (models resolvers that round
    tiny TTLs up — the violation that delays agile rebinds).
    ``clamp_max``: never store above this (models resolvers that distrust
    week-long TTLs).
    ``honour``: if False the cache serves entries for exactly
    ``override`` seconds regardless of record TTL.
    """

    clamp_min: int = 0
    clamp_max: int = 7 * 24 * 3600
    honour: bool = True
    override: int = 0

    def __post_init__(self) -> None:
        if self.clamp_min < 0 or self.clamp_max < 0 or self.override < 0:
            raise ValueError("TTL policy values must be non-negative")
        if self.clamp_min > self.clamp_max:
            raise ValueError("clamp_min exceeds clamp_max")
        if not self.honour and self.override == 0:
            raise ValueError("non-honouring policy needs a positive override")

    def effective_ttl(self, record_ttl: int) -> int:
        if not self.honour:
            return self.override
        return max(self.clamp_min, min(self.clamp_max, record_ttl))

    @classmethod
    def honest(cls) -> "TTLPolicy":
        return cls()

    @classmethod
    def clamping(cls, minimum: int) -> "TTLPolicy":
        """The §4.4 violator: stretches small TTLs up to ``minimum``."""
        return cls(clamp_min=minimum)


@dataclass(slots=True)
class CacheStats:
    hits: int = 0
    misses: int = 0
    expirations: int = 0   # entries dropped because their TTL ran out
    evictions: int = 0     # fresh entries displaced by capacity pressure
    insertions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(slots=True)
class _Entry:
    records: tuple[ResourceRecord, ...]
    stored_at: float
    expires_at: float
    negative: bool = False
    nxdomain: bool = False


class DNSCache:
    """A (name, type)-keyed cache with simulated-clock expiry.

    Remaining-TTL semantics follow RFC 2181: a hit returns records carrying
    the entry's remaining lifetime (rounded down), as a resolver forwarding
    a cached answer would.  The remaining lifetime is measured against the
    *effective* (policy-adjusted) TTL — a clamping resolver advertises the
    stretched TTL downstream, because that is what its cache actually does.
    """

    def __init__(
        self,
        clock: Clock,
        policy: TTLPolicy | None = None,
        capacity: int = 1_000_000,
        serve_stale_window: float = 0.0,
    ) -> None:
        """``serve_stale_window``: opt-in RFC 8767 retention — expired
        positive entries linger (invisible to :meth:`lookup`) for this many
        seconds so :meth:`lookup_stale` can serve them while every upstream
        is unreachable.  0 (default) keeps strict RFC 2181 expiry."""
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if serve_stale_window < 0:
            raise ValueError("serve_stale_window must be non-negative")
        self.clock = clock
        self.policy = policy or TTLPolicy.honest()
        self.capacity = capacity
        self.serve_stale_window = serve_stale_window
        self.stats = CacheStats()
        self._entries: dict[tuple[DomainName, RRType], _Entry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    # -- writes ----------------------------------------------------------------

    def store(self, question: Question, records: Iterable[ResourceRecord]) -> None:
        """Cache a positive answer under the smallest TTL of its records."""
        records = tuple(records)
        if not records:
            return
        ttl = self.policy.effective_ttl(min(r.ttl for r in records))
        if ttl <= 0:
            return  # TTL 0 answers are use-once; never cached
        now = self.clock.now()
        key = (question.name, question.rrtype)
        self._evict_if_full(key)
        self._entries[key] = _Entry(records=records, stored_at=now, expires_at=now + ttl)
        self.stats.insertions += 1

    def store_batch(
        self,
        items: Sequence[tuple[Question, Iterable[ResourceRecord]]],
    ) -> None:
        """:meth:`store` per item, in order: an item that raises leaves the
        earlier ones stored and counted."""
        for question, records in items:
            self.store(question, records)

    def store_negative(self, question: Question, soa_minimum: int, nxdomain: bool = True) -> None:
        """Negative caching (RFC 2308): remember NXDOMAIN or NODATA for the
        SOA minimum.  ``nxdomain=False`` marks a NODATA (name exists, type
        doesn't) entry, which callers must surface differently."""
        ttl = self.policy.effective_ttl(soa_minimum)
        if ttl <= 0:
            return
        now = self.clock.now()
        key = (question.name, question.rrtype)
        self._evict_if_full(key)
        self._entries[key] = _Entry(
            records=(), stored_at=now, expires_at=now + ttl, negative=True, nxdomain=nxdomain
        )
        self.stats.insertions += 1

    def _evict_if_full(self, key: tuple[DomainName, RRType]) -> None:
        if len(self._entries) < self.capacity:
            return
        if key in self._entries:
            return  # overwrite in place: no new slot needed, nothing to evict
        now = self.clock.now()
        expired = [k for k, e in self._entries.items() if e.expires_at <= now]
        for k in expired:
            del self._entries[k]
            self.stats.expirations += 1
        while len(self._entries) >= self.capacity:
            # Fallback: evict the soonest-to-expire (still-fresh) entry.
            victim = min(self._entries, key=lambda k: self._entries[k].expires_at)
            del self._entries[victim]
            self.stats.evictions += 1

    # -- reads -----------------------------------------------------------------

    def get(self, question: Question) -> tuple[ResourceRecord, ...] | None:
        """Fresh records, TTL-adjusted, or None on miss/expiry.

        A cached *negative* entry returns an empty tuple — callers must
        distinguish ``()`` (known-nonexistent) from ``None`` (unknown).
        Use :meth:`lookup` to also learn whether empty means NXDOMAIN.
        """
        hit = self.lookup(question)
        return None if hit is None else hit[0]

    def lookup(self, question: Question) -> tuple[tuple[ResourceRecord, ...], bool] | None:
        """Like :meth:`get` but returns ``(records, is_nxdomain)``."""
        key = (question.name, question.rrtype)
        entry = self._entries.get(key)
        stats = self.stats
        if entry is None:
            stats.misses += 1
            return None
        now = self.clock.now()
        if entry.expires_at <= now:
            # Stale-but-retained positive entries stay for lookup_stale;
            # they read as misses here so callers still try upstream first.
            keep = (
                self.serve_stale_window > 0
                and not entry.negative
                and now < entry.expires_at + self.serve_stale_window
            )
            if not keep:
                del self._entries[key]
                stats.expirations += 1
            stats.misses += 1
            return None
        stats.hits += 1
        if entry.negative:
            return (), entry.nxdomain
        # Advertise the remaining *effective* lifetime, not the original
        # record TTL: a clamp_min-stretched entry (the §4.4 violator) keeps
        # being served here for the clamped lifetime, and downstream caches
        # must see that — it is exactly the rebind delay §4.4 warns about.
        remaining = max(int(entry.expires_at - now), 0)
        return tuple(r.with_ttl(remaining) for r in entry.records), False

    def lookup_batch(
        self, questions: Sequence[Question]
    ) -> list[tuple[tuple[ResourceRecord, ...], bool] | None]:
        """:meth:`lookup` per question, in order — duplicate questions see
        whatever the earlier occurrence left behind (an expiry deletes)."""
        return [self.lookup(question) for question in questions]

    def lookup_stale(self, question: Question, stale_ttl: int = 30) -> tuple[ResourceRecord, ...] | None:
        """An expired-but-retained answer (RFC 8767 serve-stale), or None.

        Only meaningful with a positive ``serve_stale_window``.  Returned
        records carry ``stale_ttl`` (the RFC's recommended short TTL) so a
        downstream cache cannot pin staleness for long.
        """
        entry = self._entries.get((question.name, question.rrtype))
        if entry is None or entry.negative:
            return None
        now = self.clock.now()
        if entry.expires_at > now:  # still fresh: use lookup()
            return None
        if now >= entry.expires_at + self.serve_stale_window:
            return None
        return tuple(r.with_ttl(stale_ttl) for r in entry.records)

    def negative_ttl_remaining(self, question: Question) -> float | None:
        """Remaining lifetime of a cached negative entry (NODATA/NXDOMAIN).

        Lets a downstream cache (the stub) inherit the authoritative SOA
        minimum this cache stored, instead of inventing its own.
        """
        entry = self._entries.get((question.name, question.rrtype))
        if entry is None or not entry.negative:
            return None
        remaining = entry.expires_at - self.clock.now()
        return remaining if remaining > 0 else None

    def flush(self, name: DomainName | None = None) -> int:
        """Drop everything, or everything under ``name``; returns count."""
        if name is None:
            n = len(self._entries)
            self._entries.clear()
            return n
        victims = [k for k in self._entries if k[0].is_subdomain_of(name)]
        for k in victims:
            del self._entries[k]
        return len(victims)

    def expire_all_due(self) -> int:
        """Proactively sweep expired entries; returns how many were dropped."""
        now = self.clock.now()
        victims = [k for k, e in self._entries.items() if e.expires_at <= now]
        for k in victims:
            del self._entries[k]
            self.stats.expirations += 1
        return len(victims)
