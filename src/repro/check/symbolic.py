"""Pass 4: the symbolic packet-space verifier — proofs, not samples.

A header-space-style exact set algebra over ``(dst-prefix ×
wire-protocol × port-interval)`` rectangles: every checkable claim about
rules or prefixes becomes set arithmetic over :class:`PacketSpace`
values, and every failed claim carries a *witness* — a concrete packet
inside the offending region that replays the failure on the real engines.
It is the only model of rule and prefix space in :mod:`repro.check`: the
program pass (SK002/SK003/SK006), the control-plane pass (CP001–CP004)
and plan verification (SK102/SK103, :mod:`repro.check.plan`) all decide
through it.  This module adds two passes of its own:

* ``SK100 unproven-reachability`` — compute the full mintable space from
  the policy layer and prove every point is announced (the routing half,
  whenever announcements are known) and resolves through each lookup
  path's sk_lookup programs to a live socket, an explicit DROP (which
  SK006 judges), or a pass-through to the normal listener lookup — or
  report the exact uncovered rectangles.  CP008's live probe replays
  samples of the same claim on real catchments and real sockets.
* ``SK101 engine-divergence`` — symbolically prove the compiled dispatch
  index (:class:`~repro.sockets.compiled.CompiledProgram`) equivalent to
  the rule-list interpreter for every attached program, and across attach
  order on each lookup path.  The compiled index is evaluated from its
  *own* description (:meth:`CompiledProgram.describe`), so a corrupted
  index yields a counterexample packet rather than a vacuous pass.

Equivalence is relative to a sock-array snapshot: both engines read the
same live map, so verdicts are compared at redirect-*slot* granularity
with liveness frozen at check time — exactly the state either engine
would see on the next packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..netsim.addr import IPAddress, IPv4, IPv6, Prefix
from ..netsim.packet import FiveTuple, Packet, Protocol
from ..sockets.sklookup import MatchRule, Verdict
from .core import Checker, CheckContext, Finding, ProgramView, Severity

__all__ = [
    "Rect",
    "PacketSpace",
    "Divergence",
    "SymbolicChecker",
    "mintable_space",
    "prefix_space",
    "rule_space",
    "is_terminal",
    "first_match",
    "program_verdicts",
    "view_verdicts",
    "compiled_verdicts",
    "path_verdicts",
    "resolved_space",
    "equivalence_counterexample",
    "port_intervals",
]

_BITS = {IPv4: 32, IPv6: 128}
_MASK_CACHE: dict[tuple[int, int], int] = {}
_PROTO_NAMES = {Protocol.TCP.value: "tcp", Protocol.UDP.value: "udp"}
#: Wire protocols a packet can carry (QUIC rides UDP — see Protocol).
WIRE_PROTOCOLS = (Protocol.TCP.value, Protocol.UDP.value)
PORT_MIN, PORT_MAX = 1, 0xFFFF


@dataclass(frozen=True, slots=True)
class Rect:
    """One axis-aligned packet-space rectangle.

    ``proto`` is the *wire* protocol number (6/17); ``network``/``length``
    are an exact CIDR prefix, ``port_lo..port_hi`` an inclusive interval.
    A rectangle is the unit the algebra never has to approximate: prefix
    subtraction splits along the trie, port subtraction along the line.
    """

    family: int
    network: int
    length: int
    proto: int
    port_lo: int
    port_hi: int

    @property
    def bits(self) -> int:
        return _BITS[self.family]

    def net_mask(self) -> int:
        key = (self.family, self.length)
        mask = _MASK_CACHE.get(key)
        if mask is None:
            if self.length == 0:
                mask = 0
            else:
                mask = ((1 << self.length) - 1) << (self.bits - self.length)
            _MASK_CACHE[key] = mask
        return mask

    @property
    def points(self) -> int:
        """Exact number of (address, port) points under this rectangle."""
        return (1 << (self.bits - self.length)) * (self.port_hi - self.port_lo + 1)

    def contains_point(self, family: int, value: int, proto: int, port: int) -> bool:
        return (
            family == self.family
            and proto == self.proto
            and self.port_lo <= port <= self.port_hi
            and (value & self.net_mask()) == self.network
        )

    def render(self) -> str:
        proto = _PROTO_NAMES.get(self.proto, str(self.proto))
        addr = IPAddress(self.family, self.network)
        ports = (
            str(self.port_lo)
            if self.port_lo == self.port_hi
            else f"{self.port_lo}..{self.port_hi}"
        )
        return f"{addr}/{self.length} {proto} {ports}"


def _rect_key(r: Rect) -> tuple:
    return (r.family, r.proto, r.network, r.length, r.port_lo, r.port_hi)


def _prefixes_overlap(a: Rect, b: Rect) -> bool:
    if a.length <= b.length:
        return (b.network & a.net_mask()) == a.network
    return (a.network & b.net_mask()) == b.network


def _rect_intersect(a: Rect, b: Rect) -> Rect | None:
    if a.family != b.family or a.proto != b.proto:
        return None
    lo, hi = max(a.port_lo, b.port_lo), min(a.port_hi, b.port_hi)
    if lo > hi or not _prefixes_overlap(a, b):
        return None
    if a.length >= b.length:
        network, length = a.network, a.length
    else:
        network, length = b.network, b.length
    return Rect(a.family, network, length, a.proto, lo, hi)


def _rect_subtract(a: Rect, b: Rect) -> list[Rect]:
    """``a − b`` as disjoint rectangles (possibly just ``[a]``)."""
    if a.family != b.family or a.proto != b.proto or not _prefixes_overlap(a, b):
        return [a]
    lo, hi = max(a.port_lo, b.port_lo), min(a.port_hi, b.port_hi)
    if lo > hi:
        return [a]
    out: list[Rect] = []
    # Trie split: peel sibling prefixes off a until only b's prefix remains.
    net, length = a.network, a.length
    if b.length > a.length:
        bits = a.bits
        while length < b.length:
            length += 1
            branch = 1 << (bits - length)
            if b.network & branch:
                sibling, net = net, net | branch
            else:
                sibling = net | branch
            out.append(Rect(a.family, sibling, length, a.proto, a.port_lo, a.port_hi))
        net, length = b.network, b.length
    # Port remainder on the prefix both rectangles share.
    if a.port_lo < lo:
        out.append(Rect(a.family, net, length, a.proto, a.port_lo, lo - 1))
    if hi < a.port_hi:
        out.append(Rect(a.family, net, length, a.proto, hi + 1, a.port_hi))
    return out


class PacketSpace:
    """An exact set of packets: a normalised union of disjoint rectangles.

    Construction keeps rectangles pairwise disjoint (add-by-subtraction)
    and coalesced (adjacent port intervals merge; sibling prefixes fold
    into their parent), then sorts — so equal sets render identically and
    check output is byte-deterministic.  All operations return new spaces;
    instances are immutable by convention.
    """

    __slots__ = ("rects",)

    def __init__(self, rects: Iterable[Rect] = ()) -> None:
        disjoint: list[Rect] = []
        for rect in rects:
            pieces = [rect]
            for existing in disjoint:
                pieces = [p for piece in pieces for p in _rect_subtract(piece, existing)]
                if not pieces:
                    break
            disjoint.extend(pieces)
        self.rects: tuple[Rect, ...] = tuple(_coalesce(disjoint))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_disjoint(cls, rects: Iterable[Rect]) -> "PacketSpace":
        """Build from rectangles the caller *guarantees* pairwise disjoint
        (results of this algebra's own subtract/intersect/partitioning),
        skipping the quadratic add-by-subtraction normalisation.  Still
        coalesces and sorts, so the canonical-form guarantees hold."""
        space = cls.__new__(cls)
        space.rects = tuple(_coalesce(list(rects)))
        return space

    @classmethod
    def empty(cls) -> "PacketSpace":
        return cls(())

    @classmethod
    def for_prefix(
        cls,
        prefix: Prefix,
        protos: Iterable[int] = WIRE_PROTOCOLS,
        ports: Iterable[tuple[int, int]] = ((PORT_MIN, PORT_MAX),),
    ) -> "PacketSpace":
        """``ports`` must be disjoint inclusive intervals (see
        :func:`port_intervals`)."""
        return cls.from_disjoint(
            Rect(prefix.family, prefix.network, prefix.length, proto, lo, hi)
            for proto in protos
            for lo, hi in ports
        )

    @classmethod
    def universe(cls, protos: Iterable[int] = WIRE_PROTOCOLS) -> "PacketSpace":
        return cls.from_disjoint(
            Rect(family, 0, 0, proto, PORT_MIN, PORT_MAX)
            for family in (IPv4, IPv6)
            for proto in protos
        )

    # -- algebra ------------------------------------------------------------

    def union(self, other: "PacketSpace") -> "PacketSpace":
        return PacketSpace((*self.rects, *other.rects))

    def intersect(self, other: "PacketSpace") -> "PacketSpace":
        # Disjoint × disjoint intersections are pairwise disjoint.
        out = []
        for a in self.rects:
            for b in other.rects:
                hit = _rect_intersect(a, b)
                if hit is not None:
                    out.append(hit)
        return PacketSpace.from_disjoint(out)

    def subtract(self, other: "PacketSpace") -> "PacketSpace":
        pieces = list(self.rects)
        for b in other.rects:
            pieces = [p for piece in pieces for p in _rect_subtract(piece, b)]
            if not pieces:
                break
        return PacketSpace.from_disjoint(pieces)

    def is_empty(self) -> bool:
        return not self.rects

    def covers(self, other: "PacketSpace") -> bool:
        return other.subtract(self).is_empty()

    def equals(self, other: "PacketSpace") -> bool:
        """Semantic equality: mutual coverage, independent of rect shape."""
        return self.covers(other) and other.covers(self)

    @property
    def points(self) -> int:
        return sum(r.points for r in self.rects)

    def contains_point(self, family: int, value: int, proto: int, port: int) -> bool:
        return any(r.contains_point(family, value, proto, port) for r in self.rects)

    # -- witnesses ----------------------------------------------------------

    def witness(self) -> tuple[int, int, int, int] | None:
        """A concrete ``(family, address value, proto, port)`` inside the
        space — the lowest corner of the first rectangle — or ``None``."""
        if not self.rects:
            return None
        r = self.rects[0]
        return (r.family, r.network, r.proto, r.port_lo)

    def witness_packet(self, src: str = "198.18.0.9", src_port: int = 40_000) -> Packet | None:
        point = self.witness()
        if point is None:
            return None
        family, value, proto, port = point
        return Packet(
            FiveTuple(
                Protocol(proto), IPAddress.from_text(src), src_port,
                IPAddress(family, value), port,
            ),
            syn=True,
        )

    # -- presentation -------------------------------------------------------

    def render(self, limit: int | None = None) -> str:
        shown = self.rects if limit is None else self.rects[:limit]
        text = ", ".join(r.render() for r in shown)
        extra = len(self.rects) - len(shown)
        if extra > 0:
            text += f", +{extra} more"
        return text

    def __iter__(self):
        return iter(self.rects)

    def __len__(self) -> int:
        return len(self.rects)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PacketSpace[{self.render(limit=6)}]"


def _coalesce(rects: list[Rect]) -> list[Rect]:
    """Canonicalise a disjoint rect list: merge port-adjacent rectangles,
    fold complete sibling pairs into their parent prefix, to fixpoint."""
    current = sorted(rects, key=_rect_key)
    while True:
        merged: list[Rect] = []
        for rect in current:
            prev = merged[-1] if merged else None
            if (
                prev is not None
                and (prev.family, prev.proto, prev.network, prev.length)
                == (rect.family, rect.proto, rect.network, rect.length)
                and prev.port_hi + 1 == rect.port_lo
            ):
                merged[-1] = Rect(prev.family, prev.network, prev.length,
                                  prev.proto, prev.port_lo, rect.port_hi)
            else:
                merged.append(rect)
        by_shape: dict[tuple, Rect] = {}
        folded: list[Rect] = []
        changed = False
        for rect in merged:
            if rect.length == 0:
                folded.append(rect)
                continue
            branch = 1 << (rect.bits - rect.length)
            sibling_key = (rect.family, rect.proto, rect.network ^ branch,
                           rect.length, rect.port_lo, rect.port_hi)
            mate = by_shape.pop(sibling_key, None)
            if mate is not None:
                folded.remove(mate)
                parent_net = rect.network & ~branch
                folded.append(Rect(rect.family, parent_net, rect.length - 1,
                                   rect.proto, rect.port_lo, rect.port_hi))
                changed = True
            else:
                by_shape[_rect_key(rect)] = rect
                folded.append(rect)
        folded.sort(key=_rect_key)
        if not changed and folded == current:
            return folded
        current = folded


def port_intervals(ports: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Distinct ports collapsed into maximal inclusive intervals."""
    ordered = sorted(set(ports))
    out: list[list[int]] = []
    for port in ordered:
        if out and out[-1][1] + 1 == port:
            out[-1][1] = port
        else:
            out.append([port, port])
    return tuple((lo, hi) for lo, hi in out)


# -- spaces from the control plane ------------------------------------------


def mintable_space(pool, service_ports: Iterable[int]) -> PacketSpace:
    """Every packet a policy answer can induce: the pool's *active* set
    crossed with the service ports on both wire protocols (the edge
    terminates TCP and UDP alike — see ``EdgeServer.configure_listening``)."""
    ports = port_intervals(service_ports) or ((PORT_MIN, PORT_MAX),)
    explicit = pool.active_addresses()
    if explicit is not None:
        rects = [
            Rect(a.family, a.value, _BITS[a.family], proto, lo, hi)
            for a in explicit
            for proto in WIRE_PROTOCOLS
            for lo, hi in ports
        ]
        return PacketSpace(rects)
    prefix = pool.active_prefix
    assert prefix is not None
    return PacketSpace.for_prefix(prefix, WIRE_PROTOCOLS, ports)


def prefix_space(prefixes: Iterable[Prefix]) -> PacketSpace:
    """Every packet to the given prefixes: any port, either wire protocol."""
    return PacketSpace(
        Rect(p.family, p.network, p.length, proto, PORT_MIN, PORT_MAX)
        for p in prefixes
        for proto in WIRE_PROTOCOLS
    )


# -- symbolic program evaluation --------------------------------------------

#: Verdict-map keys: ``"drop"``, ``"pass"``, ``"miss"``, ``("redirect", slot)``.
VerdictSpaces = dict


def rule_space(rule: MatchRule) -> PacketSpace:
    """Every packet ``rule`` matches; empty prefixes match any address."""
    if rule.port_lo > rule.port_hi:
        return PacketSpace.empty()
    protos = WIRE_PROTOCOLS if rule._wire_protocol is None else (rule._wire_protocol.value,)
    nets = [(p.family, p.network, p.length) for p in rule.prefixes] or [(IPv4, 0, 0), (IPv6, 0, 0)]
    return PacketSpace(
        Rect(family, network, length, proto, rule.port_lo, rule.port_hi)
        for family, network, length in nets
        for proto in protos
    )


def is_terminal(rule: MatchRule, live_slots: frozenset[int] | set[int]) -> bool:
    """Does a match on ``rule`` always end evaluation?

    DROP and plain PASS rules are terminal; a redirect is terminal only
    while its slot holds a live socket (an empty/stale slot falls through
    at dispatch, exactly like ``bpf_sk_assign`` failing on NULL).
    """
    return not rule.is_redirect or rule.map_key in live_slots


def first_match(
    rules: Iterable[MatchRule],
    live_slots: frozenset[int] | set[int],
    domain: PacketSpace,
) -> tuple[list[PacketSpace], PacketSpace]:
    """The part of ``domain`` each rule actually matches under first-match
    order, and the part no rule takes.

    A redirect through an empty/stale slot consumes nothing (the kernel
    fall-through): its matched space flows on to the next rule exactly as
    :meth:`SkLookupProgram.run` would send the packet there.
    """
    reach: list[PacketSpace] = []
    remaining = domain
    for rule in rules:
        matched = remaining.intersect(rule_space(rule)) if remaining.rects else remaining
        reach.append(matched)
        if matched.rects and is_terminal(rule, live_slots):
            remaining = remaining.subtract(matched)
    return reach, remaining


def _merge(out: VerdictSpaces, key, space: PacketSpace) -> None:
    """Accumulate into a verdict partition.  The pieces merged under one
    key always come from disjoint slices of the evaluation domain (distinct
    consumed portions, segments, protocols, or pipeline stages), so the
    cheap disjoint constructor is sound here."""
    if space.is_empty():
        return
    prev = out.get(key)
    if prev is None:
        out[key] = space
    else:
        out[key] = PacketSpace.from_disjoint((*prev.rects, *space.rects))


def program_verdicts(
    rules: Iterable[MatchRule],
    live_slots: frozenset[int] | set[int],
    domain: PacketSpace,
) -> VerdictSpaces:
    """The interpreter's verdict partition of ``domain``, symbolically."""
    rules = tuple(rules)
    reach, miss = first_match(rules, live_slots, domain)
    out: VerdictSpaces = {}
    for rule, matched in zip(rules, reach):
        if rule.action is Verdict.DROP:
            _merge(out, "drop", matched)
        elif not rule.is_redirect:
            _merge(out, "pass", matched)
        elif rule.map_key in live_slots:
            _merge(out, ("redirect", rule.map_key), matched)
    _merge(out, "miss", miss)
    return out


def compiled_verdicts(
    description: dict,
    live_slots: frozenset[int] | set[int],
    domain: PacketSpace,
) -> VerdictSpaces:
    """The compiled index's verdict partition of ``domain``, from its own
    :meth:`~repro.sockets.compiled.CompiledProgram.describe` output.

    Within one (protocol, port-segment) slice the index yields candidate
    rule indices in ascending order and applies actions with the same
    dead-slot fall-through as the interpreter — so the slice reduces to a
    first-match walk over each index's prefix set.  Deliberate or
    accidental index corruption (missing networks, shifted breakpoints,
    wrong actions) shows up as a different partition, never as a crash.
    """
    out: VerdictSpaces = {}
    actions = description["actions"]
    for proto, segments in sorted(description["protocols"].items()):
        proto_domain = domain.intersect(PacketSpace(
            Rect(family, 0, 0, proto, PORT_MIN, PORT_MAX) for family in (IPv4, IPv6)
        ))
        if proto_domain.is_empty():
            continue
        covered = PacketSpace.empty()
        for port_lo, port_hi, always, lpm in segments:
            seg_domain = proto_domain.intersect(PacketSpace(
                Rect(family, 0, 0, proto, port_lo, port_hi) for family in (IPv4, IPv6)
            ))
            covered = covered.union(seg_domain)
            _segment_verdicts(out, seg_domain, proto, always, lpm, actions, live_slots)
        # Ports below the first breakpoint bisect to the *last* segment —
        # an impossible state for a faithful compile (breakpoints always
        # include port 1) but exactly what a corrupted index would do.
        leftovers = proto_domain.subtract(covered)
        if not leftovers.is_empty() and segments:
            _, _, always, lpm = segments[-1]
            _segment_verdicts(out, leftovers, proto, always, lpm, actions, live_slots)
        elif not leftovers.is_empty():
            _merge(out, "miss", leftovers)
    stray = domain
    for key in out:
        stray = stray.subtract(out[key])
    _merge(out, "miss", stray)  # protocols absent from the index entirely
    return out


def _segment_verdicts(
    out: VerdictSpaces,
    seg_domain: PacketSpace,
    proto: int,
    always: tuple[int, ...],
    lpm: dict,
    actions: tuple,
    live_slots,
) -> None:
    if seg_domain.is_empty():
        return
    per_index: dict[int, list[Rect]] = {}
    for family, groups in lpm.items():
        for length, nets in groups:
            for network, indices in nets.items():
                rect = Rect(family, network, length, proto, PORT_MIN, PORT_MAX)
                for index in indices:
                    per_index.setdefault(index, []).append(rect)
    remaining = seg_domain
    for index in sorted(set(per_index) | set(always)):
        if remaining.is_empty():
            break
        if index in always:
            matched = remaining
        else:
            matched = remaining.intersect(PacketSpace(per_index[index]))
        if matched.is_empty():
            continue
        op, key = actions[index]
        if op == "drop":
            _merge(out, "drop", matched)
        elif op == "redirect":
            if key in live_slots:
                _merge(out, ("redirect", key), matched)
            else:
                continue  # dead slot falls through inside the segment too
        else:
            _merge(out, "pass", matched)
        remaining = remaining.subtract(matched)
    _merge(out, "miss", remaining)


def path_verdicts(stage_fns, domain: PacketSpace) -> VerdictSpaces:
    """Compose per-program verdict functions along a lookup path.

    ``stage_fns`` are callables ``domain -> VerdictSpaces`` in attach
    order; a program's *miss* space (SK_PASS, no socket) flows to the next
    program, exactly as :meth:`LookupPath.dispatch` consults stage-2
    programs in order.
    """
    out: VerdictSpaces = {}
    remaining = domain
    for fn in stage_fns:
        if remaining.is_empty():
            break
        verdicts = fn(remaining)
        for key, space in verdicts.items():
            if key != "miss":
                _merge(out, key, space)
        remaining = verdicts.get("miss", PacketSpace.empty())
    _merge(out, "miss", remaining)
    return out


def view_verdicts(views: Iterable[ProgramView], domain: PacketSpace) -> VerdictSpaces:
    """The verdict partition of ``domain`` along one lookup path, given its
    program views in attach order."""
    return path_verdicts(
        [lambda d, v=view: program_verdicts(v.rules, v.live_slots, d) for view in views],
        domain,
    )


def resolved_space(verdicts: VerdictSpaces) -> PacketSpace:
    """The subset of a verdict partition that *resolves*: an explicit DROP,
    a redirect to a live socket, or an explicit pass-through (which defers
    to the normal listener lookup)."""
    rects: list[Rect] = []
    for key, space in verdicts.items():
        if key == "miss":
            continue
        rects.extend(space.rects)  # partition keys are pairwise disjoint
    return PacketSpace.from_disjoint(rects)


# -- engine equivalence ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Divergence:
    """One point where interpreter and compiled index disagree."""

    program: str
    family: int
    value: int
    proto: int
    port: int
    interpreter: object  # verdict-map key
    compiled: object

    def packet(self, src: str = "198.18.0.9", src_port: int = 40_000) -> Packet:
        return Packet(
            FiveTuple(
                Protocol(self.proto), IPAddress.from_text(src), src_port,
                IPAddress(self.family, self.value), self.port,
            ),
            syn=True,
        )

    def render(self) -> str:
        proto = _PROTO_NAMES.get(self.proto, str(self.proto))
        return (
            f"packet dst={IPAddress(self.family, self.value)} {proto} "
            f"port {self.port}: interpreter={_verdict_name(self.interpreter)} "
            f"compiled={_verdict_name(self.compiled)}"
        )


def _verdict_name(key) -> str:
    if isinstance(key, tuple):
        return f"redirect[{key[1]}]"
    return str(key)


def _outcome_at(verdicts: VerdictSpaces, point: tuple[int, int, int, int]):
    family, value, proto, port = point
    for key, space in verdicts.items():
        if space.contains_point(family, value, proto, port):
            return key
    return "miss"


def equivalence_counterexample(
    program,
    domain: PacketSpace | None = None,
    description: dict | None = None,
) -> Divergence | None:
    """Prove ``program``'s compiled index ≡ its interpreter over ``domain``
    (default: the full packet universe), or produce a counterexample.

    ``description`` defaults to the live compiled form's — pass a saved or
    deliberately corrupted description to test the index as-deployed.
    """
    domain = domain if domain is not None else PacketSpace.universe()
    if description is None:
        description = program.compiled().describe()
    view = ProgramView.from_program(program)
    interp = program_verdicts(view.rules, view.live_slots, domain)
    comp = compiled_verdicts(description, view.live_slots, domain)
    for key in sorted(interp, key=_verdict_name):
        diff = interp[key].subtract(comp.get(key, PacketSpace.empty()))
        if diff.is_empty():
            continue
        point = diff.witness()
        assert point is not None
        family, value, proto, port = point
        return Divergence(
            program=program.name, family=family, value=value, proto=proto,
            port=port, interpreter=key, compiled=_outcome_at(comp, point),
        )
    for key in sorted(comp, key=_verdict_name):
        diff = comp[key].subtract(interp.get(key, PacketSpace.empty()))
        if diff.is_empty():
            continue
        point = diff.witness()
        assert point is not None
        family, value, proto, port = point
        return Divergence(
            program=program.name, family=family, value=value, proto=proto,
            port=port, interpreter=_outcome_at(interp, point), compiled=key,
        )
    return None


# -- the checker pass --------------------------------------------------------


class SymbolicChecker(Checker):
    """SK100 exhaustive reachability + SK101 engine equivalence."""

    name = "symbolic"

    def run(self, ctx: CheckContext) -> list[Finding]:
        findings: list[Finding] = []
        findings.extend(self._check_reachability(ctx))
        findings.extend(self._check_equivalence(ctx))
        return findings

    # -- SK100 ---------------------------------------------------------------

    def _check_reachability(self, ctx: CheckContext) -> list[Finding]:
        if not ctx.policies:
            return []
        findings: list[Finding] = []
        mintable = PacketSpace.empty()
        for policy in ctx.policies:
            mintable = mintable.union(mintable_space(policy.pool, ctx.service_ports))
        routable = mintable
        if ctx.announced:
            routed = prefix_space(ctx.announced)
            unrouted = mintable.subtract(routed)
            routable = mintable.intersect(routed)
            if not unrouted.is_empty():
                findings.append(Finding(
                    "SK100", "unproven-reachability", Severity.ERROR,
                    f"{len(unrouted)} mintable region(s) outside every announced "
                    f"prefix: {unrouted.render(limit=4)}",
                    "routing",
                    "announce covering prefixes or shrink the active sets",
                ))
        for path, views in sorted(ctx.paths().items()):
            verdicts = view_verdicts(views, routable)
            uncovered = verdicts.get("miss")
            if uncovered is None:
                continue
            findings.append(Finding(
                "SK100", "unproven-reachability", Severity.ERROR,
                f"{len(uncovered)} mintable region(s) reach no live socket and "
                f"no explicit DROP via this path: {uncovered.render(limit=4)}",
                f"path:{path}",
                "add redirect rules (or explicit DROPs) covering the exact "
                "rectangles above",
            ))
        self._record_regions(ctx, mintable, findings)
        return findings

    def _record_regions(self, ctx: CheckContext, mintable: PacketSpace,
                        findings: list[Finding]) -> None:
        registry = getattr(ctx, "registry", None)
        if registry is None:
            return
        registry.gauge(
            "check_symbolic_mintable_regions",
            help="Rectangles in the policies' mintable packet space",
        ).set(len(mintable))
        registry.gauge(
            "check_symbolic_uncovered_regions",
            help="Rectangles SK100 could not prove reachable",
        ).set(sum(1 for f in findings if f.rule == "SK100"))

    # -- SK101 ---------------------------------------------------------------

    def _check_equivalence(self, ctx: CheckContext) -> list[Finding]:
        dep = ctx.deployment
        if dep is None:
            return []  # config-described programs have no compiled form
        findings: list[Finding] = []
        domain = PacketSpace.universe()
        for dc_name in sorted(dep.cdn.datacenters):
            dc = dep.cdn.datacenters[dc_name]
            for server_name in sorted(dc.servers):
                server = dc.servers[server_name]
                programs = server.lookup_path.programs()
                for program in programs:
                    divergence = equivalence_counterexample(program, domain)
                    if divergence is not None:
                        findings.append(self._divergence_finding(
                            divergence, f"{server_name}#{program.name}"))
                if len(programs) > 1:
                    findings.extend(self._check_path_equivalence(
                        server_name, programs, domain))
        return findings

    def _check_path_equivalence(self, server_name, programs, domain) -> list[Finding]:
        """Attach-order composition: interpreter chain vs compiled chain."""
        def compiled_stage(program):
            live = ProgramView.from_program(program).live_slots
            description = program.compiled().describe()
            return lambda d: compiled_verdicts(description, live, d)

        interp = view_verdicts(map(ProgramView.from_program, programs), domain)
        comp = path_verdicts([compiled_stage(p) for p in programs], domain)
        for key in sorted(set(interp) | set(comp), key=_verdict_name):
            diff = interp.get(key, PacketSpace.empty()).subtract(
                comp.get(key, PacketSpace.empty()))
            if diff.is_empty():
                continue
            point = diff.witness()
            family, value, proto, port = point
            divergence = Divergence(
                program="+".join(p.name for p in programs),
                family=family, value=value, proto=proto, port=port,
                interpreter=_outcome_at(interp, point),
                compiled=_outcome_at(comp, point),
            )
            return [self._divergence_finding(divergence, f"path:{server_name}")]
        return []

    @staticmethod
    def _divergence_finding(divergence: Divergence, where: str) -> Finding:
        return Finding(
            "SK101", "engine-divergence", Severity.ERROR,
            f"compiled index disagrees with the interpreter: {divergence.render()}",
            where,
            "recompile the program (stale or corrupted index); replay the "
            "counterexample packet on both engines to confirm",
        )
