"""Compiled sk_lookup dispatch: the rule list lowered to an indexed matcher.

Read literally, Figure 5b's ordered rule list is evaluated rule by rule,
prefix by prefix — O(rules) work on every packet.  The kernel's program
runs on *every* packet at CDN scale, so the reproduction's evaluation of
it must not be the bottleneck of every experiment above it.

:class:`CompiledProgram` lowers the rule list into three nested
indexes, chosen so each packet pays a constant number of dict/bisect
probes instead of a linear scan:

1. **protocol buckets** — rules are partitioned by wire protocol (TCP,
   UDP); protocol-agnostic rules appear in both buckets.  One dict probe
   selects the bucket.
2. **port interval breakpoints** — within a bucket, every ``port_lo`` /
   ``port_hi + 1`` becomes a breakpoint; the segments between consecutive
   breakpoints each carry the exact ordered subset of rules whose port
   range covers them.  One ``bisect`` finds the packet's segment.
3. **mask-grouped LPM buckets** — within a segment, rule prefixes are
   grouped by (family, mask length) into plain dicts keyed by the masked
   network integer.  Matching a packet is one ``(dst & mask) in dict``
   probe per distinct mask length — typically one or two — rather than a
   scan over every rule's prefix list.

First-match semantics survive compilation because every index stores the
*original rule position*: probes yield candidate rule indices, the
candidates are merged in ascending order, and actions run in that order —
including the kernel contract that a redirect through an empty or stale
map slot falls through to the next matching rule.

A compiled program shares the source program's ``stats`` dict and sock
array, so map updates (``SockArray.update``/``delete``) take effect on the
next packet with no recompilation — only *rule* changes invalidate, which
:meth:`SkLookupProgram.compiled` tracks via the program's rule version.

This is the only executor.  ``tests/test_compiled.py`` fuzzes it against
a rule-by-rule reference interpreter, and SK101 (:mod:`repro.check.symbolic`)
reads the live tables through :meth:`CompiledProgram.cells`, so no map
update can expose a stale index.

Compilation is O(segments × rules-per-segment); with the verifier's
4096-rule bound and realistic port sets it is microseconds.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator

from ..netsim.addr import IPv4, IPv6
from ..netsim.packet import Packet, Protocol
from .socktable import Socket
from .sklookup import MatchRule, SkLookupProgram, Verdict

__all__ = ["CompiledProgram"]

# Action opcodes, precomputed per rule so the dispatch loop never touches
# MatchRule objects or enum identity checks beyond the final verdict.
_OP_DROP = 0
_OP_REDIRECT = 1
_OP_PASSTHROUGH = 2

_EMPTY: tuple[int, ...] = ()


class _Segment:
    """The rules covering one (protocol, port-interval) slice.

    ``always`` holds indices of rules with no prefix constraint; ``lpm``
    maps family → tuple of (mask, {network: (rule indices…)}) groups.
    All index tuples are ascending, preserving first-match order.
    """

    __slots__ = ("always", "lpm")

    def __init__(self, rules: list[tuple[int, MatchRule]]) -> None:
        always: list[int] = []
        # family -> mask -> network -> [rule indices]
        grouped: dict[int, dict[int, dict[int, list[int]]]] = {}
        for index, rule in rules:
            if not rule.prefixes:
                always.append(index)
                continue
            for family, network, mask in rule._compiled:
                nets = grouped.setdefault(family, {}).setdefault(mask, {})
                hits = nets.setdefault(network, [])
                if not hits or hits[-1] != index:  # same rule, same prefix twice
                    hits.append(index)
        self.always: tuple[int, ...] = tuple(always)
        self.lpm: dict[int, tuple[tuple[int, dict[int, tuple[int, ...]]], ...]] = {
            family: tuple(
                (mask, {net: tuple(hits) for net, hits in sorted(nets.items())})
                for mask, nets in sorted(masks.items(), reverse=True)
            )
            for family, masks in grouped.items()
        }

    def candidates(self, family: int, value: int) -> tuple[int, ...]:
        """Ascending indices of rules whose prefixes cover ``value``."""
        matched: tuple[int, ...] | None = None
        lists: list[tuple[int, ...]] | None = None
        groups = self.lpm.get(family)
        if groups is not None:
            for mask, nets in groups:
                hit = nets.get(value & mask)
                if hit is None:
                    continue
                if matched is None:
                    matched = hit
                else:
                    if lists is None:
                        lists = [matched]
                    lists.append(hit)
        if self.always:
            if matched is None:
                return self.always
            if lists is None:
                lists = [matched]
            lists.append(self.always)
        if lists is None:
            return matched if matched is not None else _EMPTY
        # Rare slow path: a packet matched through several mask groups
        # (and/or unconstrained rules).  Merge ascending, dropping the
        # duplicates a rule with prefixes at two mask lengths produces.
        merged = sorted({i for hits in lists for i in hits})
        return tuple(merged)


class _ProtoIndex:
    """Port-interval index for one wire protocol's rules."""

    __slots__ = ("breaks", "segments")

    def __init__(self, rules: list[tuple[int, MatchRule]]) -> None:
        points = {1}
        for _, rule in rules:
            points.add(rule.port_lo)
            if rule.port_hi < 0xFFFF:
                points.add(rule.port_hi + 1)
        self.breaks: list[int] = sorted(points)
        self.segments: list[_Segment] = [
            _Segment([(i, r) for i, r in rules if r.port_lo <= start <= r.port_hi])
            for start in self.breaks
        ]

    def segment_for(self, port: int) -> _Segment:
        return self.segments[bisect_right(self.breaks, port) - 1]


class CompiledProgram:
    """An :class:`SkLookupProgram` lowered to indexed first-match dispatch.

    Built by :meth:`SkLookupProgram.compiled`; ``version`` tags the rule
    list this was compiled from so stale caches are detected.  Shares the
    source program's sock array (live map updates need no recompile) and
    ``stats`` dict (runs/redirects/drops/fallthroughs are the program's).
    """

    __slots__ = ("name", "map", "stats", "version", "_actions", "_by_proto")

    def __init__(self, program: SkLookupProgram) -> None:
        rules = program.rules()
        self.name = program.name
        self.map = program.map
        self.stats = program.stats
        self.version = program.rule_version
        actions: list[tuple[int, int | None]] = []
        for rule in rules:
            if rule.action is Verdict.DROP:
                actions.append((_OP_DROP, None))
            elif rule.map_key is not None:
                actions.append((_OP_REDIRECT, rule.map_key))
            else:
                actions.append((_OP_PASSTHROUGH, None))
        self._actions: tuple[tuple[int, int | None], ...] = tuple(actions)
        indexed = list(enumerate(rules))
        self._by_proto: dict[Protocol, _ProtoIndex] = {
            proto: _ProtoIndex(
                [(i, r) for i, r in indexed if r._wire_protocol in (None, proto)]
            )
            for proto in (Protocol.TCP, Protocol.UDP)
        }

    # -- introspection -----------------------------------------------------

    def cells(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Every cell the dispatcher probes, with the candidates it yields.

        A cell is ``(family, network, prefix length, wire protocol,
        port_lo, port_hi)``, read from the live tables rather than the
        rules, so a stale or corrupted index shows as it dispatches: an
        LPM entry with network bits outside its mask is never hit and
        yields nothing, and ports below the first breakpoint bisect to the
        last segment.
        """
        for proto, index in self._by_proto.items():
            breaks = index.breaks
            spans = [[(lo, hi - 1)] for lo, hi in zip(breaks, breaks[1:])]
            spans.append([(breaks[-1], 0xFFFF), (1, breaks[0] - 1)])
            for ports, segment in zip(spans, index.segments):
                for lo, hi in ports:
                    if lo > hi:
                        continue
                    if segment.always:
                        for family in (IPv4, IPv6):
                            yield (family, 0, 0, proto.value, lo, hi), segment.always
                    for family, groups in segment.lpm.items():
                        for mask, nets in groups:
                            for network, hits in nets.items():
                                if not network & ~mask:
                                    yield (family, network, mask.bit_count(),
                                           proto.value, lo, hi), hits

    def actions(self) -> tuple[tuple[Verdict, int | None], ...]:
        """Each candidate's action as the index holds it, in the rule's
        terms ``(verdict, map key)``: a redirect is ``(PASS, key)``."""
        return tuple(
            (Verdict.DROP if op == _OP_DROP else Verdict.PASS,
             key if op == _OP_REDIRECT else None)
            for op, key in self._actions
        )

    # -- dispatch ----------------------------------------------------------

    def run(self, packet: Packet) -> tuple[Verdict, Socket | None]:
        """Indexed dispatch with the kernel contract (first match wins,
        empty/stale redirect slots fall through, no match ⇒ SK_PASS with
        no socket)."""
        stats = self.stats
        stats["runs"] += 1
        t = packet.tuple5
        segment = self._by_proto[t.protocol.wire_protocol].segment_for(t.dst_port)
        dst = t.dst
        actions = self._actions
        map_lookup = self.map.lookup
        for index in segment.candidates(dst.family, dst.value):
            op, key = actions[index]
            if op == _OP_REDIRECT:
                sock = map_lookup(key)
                if sock is None:
                    stats["fallthroughs"] += 1
                    continue
                stats["redirects"] += 1
                return Verdict.PASS, sock
            if op == _OP_DROP:
                stats["drops"] += 1
                return Verdict.DROP, None
            return Verdict.PASS, None  # explicit pass-through rule
        return Verdict.PASS, None
