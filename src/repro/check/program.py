"""Pass 1: the sk_lookup program verifier.

The attach-time checks in :func:`repro.sockets.sklookup.verify_program`
are the moral equivalent of the BPF verifier's *safety* checks — they stop
a program that cannot run.  This pass is the next tier, the one a CDN
actually needs before shipping a dispatch program fleet-wide: rules that
can never fire, redirects into empty map slots, sockets no rule reaches,
programs on the same lookup path fighting over the same packets, and DROP
rules that silently blackhole addresses the policy control plane can still
mint (the fCDN failure mode: misdirected dispatch drops traffic with no
error anywhere).

Every check is decided from the rule set alone — no packets needed — with
the packet-space algebra of :mod:`repro.check.symbolic`: a rule's match
space is exact set arithmetic over (prefix × protocol × port-interval)
rectangles, and first-match order is a walk that subtracts what each
earlier rule takes.
"""

from __future__ import annotations

from ..sockets.sklookup import MatchRule, Verdict
from .core import Checker, CheckContext, Finding, ProgramView, Severity
from .symbolic import PacketSpace, first_match, is_terminal, mintable_space, rule_space

__all__ = ["ProgramChecker", "rule_covers", "rules_overlap"]


def rule_covers(earlier: MatchRule, later: MatchRule) -> bool:
    """Is ``later``'s entire match space inside ``earlier``'s?"""
    return rule_space(earlier).covers(rule_space(later))


def rules_overlap(a: MatchRule, b: MatchRule) -> bool:
    """Do the two match spaces share at least one packet?"""
    return not rule_space(a).intersect(rule_space(b)).is_empty()


def _where(program: ProgramView, index: int, rule: MatchRule) -> str:
    label = f" ({rule.label})" if rule.label else ""
    return f"{program.name}#rule{index}{label}"


class ProgramChecker(Checker):
    """Static verification of every :class:`ProgramView` in the context."""

    name = "program"

    def run(self, ctx: CheckContext) -> list[Finding]:
        findings: list[Finding] = []
        mintable = [(policy, mintable_space(policy.pool, ctx.service_ports))
                    for policy in ctx.policies]
        universe = PacketSpace.universe()
        for program in ctx.programs:
            reach, _ = first_match(program.rules, program.live_slots, universe)
            findings.extend(self._check_sanity(program))
            findings.extend(self._check_shadowing(program, reach))
            findings.extend(self._check_slots(program))
            findings.extend(self._check_drops_vs_policies(program, reach, mintable))
        findings.extend(self._check_cross_program(ctx))
        return findings

    # -- SK001: per-rule sanity ------------------------------------------------

    def _check_sanity(self, program: ProgramView) -> list[Finding]:
        findings = []
        for i, rule in enumerate(program.rules):
            where = _where(program, i, rule)
            if not 1 <= rule.port_lo <= rule.port_hi <= 0xFFFF:
                findings.append(Finding(
                    "SK001", "bad-port-range", Severity.ERROR,
                    f"port range {rule.port_lo}..{rule.port_hi} is not within 1..65535 "
                    "in ascending order",
                    where, "fix the range; ports are an inclusive 1..65535 interval",
                ))
            if len({p.family for p in rule.prefixes}) > 1:
                findings.append(Finding(
                    "SK001", "mixed-family", Severity.ERROR,
                    "rule mixes IPv4 and IPv6 prefixes; a packet has one family",
                    where, "split into one rule per address family",
                ))
            if rule.action is Verdict.DROP and rule.map_key is not None:
                findings.append(Finding(
                    "SK001", "drop-with-map-key", Severity.ERROR,
                    "DROP rules cannot carry a map key",
                    where, "remove the map_key or make the rule a redirect",
                ))
            if rule.is_redirect and not 0 <= rule.map_key < program.map_size:
                findings.append(Finding(
                    "SK001", "map-key-range", Severity.ERROR,
                    f"map key {rule.map_key} outside SOCKARRAY size {program.map_size}",
                    where, f"use a key in 0..{program.map_size - 1} or grow the map",
                ))
        return findings

    # -- SK002: shadowed / unreachable rules ------------------------------------

    def _check_shadowing(
        self, program: ProgramView, reach: list[PacketSpace]
    ) -> list[Finding]:
        findings = []
        rules = program.rules
        terminal = [is_terminal(rule, program.live_slots) for rule in rules]
        for j, later in enumerate(rules):
            space = rule_space(later)
            if reach[j].rects or space.is_empty():
                continue  # reachable, or matches nothing at all (SK001's job)
            i = next((i for i in range(j) if terminal[i] and rule_covers(rules[i], later)),
                     None)
            if i is None:
                takers = [str(i) for i in range(j)
                          if terminal[i] and not reach[i].intersect(space).is_empty()]
                why = f"earlier rules {', '.join(takers)} jointly take every packet it matches"
            else:
                earlier = rules[i]
                why = (f"fully shadowed by rule {i} [{earlier.action.value}"
                       + (f" -> slot {earlier.map_key}" if earlier.is_redirect else "")
                       + "]")
                if earlier.is_redirect:
                    why += (f" (while slot {earlier.map_key} stays populated;"
                            " an emptied slot would un-shadow it)")
            findings.append(Finding(
                "SK002", "shadowed-rule", Severity.ERROR,
                f"never matches: {why}",
                _where(program, j, later),
                "remove the dead rule, or reorder/narrow the earlier one",
            ))
        return findings

    # -- SK004/SK005: map-slot hygiene -------------------------------------------

    def _check_slots(self, program: ProgramView) -> list[Finding]:
        findings = []
        referenced: set[int] = set()
        for i, rule in enumerate(program.rules):
            if not rule.is_redirect:
                continue
            referenced.add(rule.map_key)
            if 0 <= rule.map_key < program.map_size and rule.map_key not in program.live_slots:
                findings.append(Finding(
                    "SK004", "empty-slot-redirect", Severity.WARNING,
                    f"redirects to SOCKARRAY slot {rule.map_key} which holds no "
                    "listening socket; dispatch falls through at runtime",
                    _where(program, i, rule),
                    "populate the slot via the socket-activation service, or drop the rule",
                ))
        for slot in sorted(program.live_slots - referenced):
            findings.append(Finding(
                "SK005", "dead-slot", Severity.WARNING,
                f"SOCKARRAY slot {slot} holds a listening socket no rule redirects to",
                f"{program.name}[{slot}]",
                "add a redirect rule for it or release the socket",
            ))
        return findings

    # -- SK006: DROP rules vs. mintable addresses ---------------------------------

    def _check_drops_vs_policies(
        self, program: ProgramView, reach: list[PacketSpace], mintable: list
    ) -> list[Finding]:
        findings = []
        for i, rule in enumerate(program.rules):
            if rule.action is not Verdict.DROP or not reach[i].rects:
                continue
            for policy, space in mintable:
                if not reach[i].intersect(space).is_empty():
                    findings.append(Finding(
                        "SK006", "drop-shadows-pool", Severity.ERROR,
                        f"DROP rule swallows addresses policy {policy.name!r} can "
                        f"still mint from pool {policy.pool.name!r} — minted answers "
                        "would blackhole silently",
                        _where(program, i, rule),
                        "shrink the policy's active set away from the dropped "
                        "prefix, or narrow the DROP rule",
                    ))
        return findings

    # -- SK003: conflicting redirects across programs on one path -----------------

    def _check_cross_program(self, ctx: CheckContext) -> list[Finding]:
        findings = []
        for path, programs in ctx.paths().items():
            if len(programs) < 2:
                continue
            for a_idx, first in enumerate(programs):
                for second in programs[a_idx + 1:]:
                    findings.extend(self._conflicts_between(path, first, second))
        return findings

    def _conflicts_between(
        self, path: str, first: ProgramView, second: ProgramView
    ) -> list[Finding]:
        """Programs run in attach order; the first to return a socket or a
        drop wins.  A later program whose redirect overlaps an earlier
        program's live redirect with a *different* target never sees those
        packets — dispatch silently depends on attach order."""
        findings = []
        for i, early in enumerate(first.rules):
            if not (early.is_redirect and early.map_key in first.live_slots):
                continue
            for j, late in enumerate(second.rules):
                if not late.is_redirect:
                    continue
                if rules_overlap(early, late):
                    findings.append(Finding(
                        "SK003", "conflicting-redirect", Severity.WARNING,
                        f"overlaps {_where(first, i, early)} (attached earlier on "
                        f"path {path!r}) which redirects to a different socket; "
                        "the earlier program claims the shared packets",
                        _where(second, j, late),
                        "disjoint the match spaces, or merge the programs so one "
                        "rule order decides",
                    ))
        return findings
