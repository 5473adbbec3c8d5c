"""sk_lookup: programmable socket lookup, modelled after the kernel design.

The real implementation (Linux ≥ 5.9, merged from Cloudflare's patches) is
a BPF program type executed on the socket-lookup path.  Our model keeps the
same moving parts and contracts:

* a **SOCKARRAY map** (:class:`SockArray`) holding references to listening
  sockets, populated out-of-band by a socket-activation service;
* a **program** (:class:`SkLookupProgram`) that is "a set of matches and
  actions" (Figure 5b): each rule matches on family / protocol / destination
  prefix(es) / port range and either redirects to a map slot, passes, or
  drops;
* a **verifier** (:func:`verify_program`) that rejects malformed programs at
  attach time, the moral equivalent of the BPF verifier;
* return semantics: ``SK_PASS`` without a selected socket lets the normal
  lookup continue; ``SK_PASS`` with an assigned socket short-circuits it;
  ``SK_DROP`` drops the packet (used below for the "internal service not
  exposed externally" pattern §3.3 motivates).

A program is its ordered rule list; it runs through one executor, the
compiled index :meth:`SkLookupProgram.compiled` returns
(:mod:`repro.sockets.compiled`).  Crucially — as in the kernel — the
program *never mutates sockets*: it maps packets onto already-listening
sockets, so IP+port assignment becomes a map update rather than a bind,
and can change while the service runs with no recompile.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..netsim.addr import Prefix
from ..netsim.packet import Protocol
from .errors import ProgramError, VerifierError
from .socktable import Socket, SocketState

__all__ = [
    "Verdict",
    "SockArray",
    "MatchRule",
    "SkLookupProgram",
    "verify_program",
    "MAX_RULES_PER_PROGRAM",
]

#: The verifier bounds program size, as the kernel bounds instruction count.
MAX_RULES_PER_PROGRAM = 4096


class Verdict(enum.Enum):
    PASS = "SK_PASS"
    DROP = "SK_DROP"


class SockArray:
    """A BPF-map-like array of socket references.

    The kernel map holds sockets by integer index and is updated by a
    socket-activation service as file descriptors are passed to it (§3.3).
    Updates take effect on the very next dispatched packet — this is the
    mechanism behind "IP+port re-assignment to existing listening sockets".
    """

    def __init__(self, size: int = 64, name: str = "sockarray") -> None:
        if size <= 0:
            raise ValueError("map size must be positive")
        self.name = name
        self.size = size
        self._slots: dict[int, Socket] = {}
        self.updates = 0
        #: Updates that silently displaced a *different live* socket.  A
        #: replacement is a legitimate operation (re-pointing a slot is the
        #: §3.3 mechanism) but an unnoticed one is how a misconfigured
        #: activation service blackholes a service — so it is counted, and
        #: surfaced through the sk_lookup metrics collector.
        self.replacements = 0

    def update(self, key: int, sock: Socket) -> None:
        """Install/replace a socket reference (bpf_map_update_elem).

        Replacing an occupied slot is allowed — the kernel map makes no
        distinction — but when the displaced socket is still listening the
        swap is counted in :attr:`replacements` so operators can tell a
        deliberate re-point from a collision."""
        self._check_key(key)
        if sock.state is not SocketState.LISTENING:
            raise ProgramError(
                f"map {self.name}[{key}]: socket fd={sock.fd} is not listening"
            )
        previous = self._slots.get(key)
        if (
            previous is not None
            and previous is not sock
            and previous.state is SocketState.LISTENING
        ):
            self.replacements += 1
        self._slots[key] = sock
        self.updates += 1

    def delete(self, key: int) -> None:
        self._check_key(key)
        self._slots.pop(key, None)
        self.updates += 1

    def lookup(self, key: int) -> Socket | None:
        """bpf_map_lookup_elem: stale (closed) sockets read as empty."""
        self._check_key(key)
        sock = self._slots.get(key)
        if sock is not None and sock.state is not SocketState.LISTENING:
            return None
        return sock

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.size:
            raise ProgramError(f"map {self.name}: key {key} outside 0..{self.size - 1}")

    def __len__(self) -> int:
        return len(self._slots)


@dataclass(frozen=True, slots=True)
class MatchRule:
    """One match/action pair — a line of Figure 5b's firewall-like program.

    All match fields are conjunctive; ``None``/empty means "any".  Ports are
    an inclusive range so "all 65535 ports of one address to one socket"
    (Figure 4c) is a single rule.

    Prefix matches are lowered to (family, network, mask) integer triples
    at construction, the form the compiled index is built from.
    """

    action: Verdict
    protocol: Protocol | None = None
    prefixes: tuple[Prefix, ...] = ()
    port_lo: int = 1
    port_hi: int = 0xFFFF
    map_key: int | None = None  # required when action is PASS-with-redirect
    label: str = ""
    _compiled: tuple = field(init=False, repr=False, compare=False, default=())
    _wire_protocol: Protocol | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        compiled = tuple(
            (p.family, p.network, p.net_mask()) for p in self.prefixes
        )
        object.__setattr__(self, "_compiled", compiled)
        wire = None if self.protocol is None else self.protocol.wire_protocol
        object.__setattr__(self, "_wire_protocol", wire)

    @property
    def is_redirect(self) -> bool:
        return self.action is Verdict.PASS and self.map_key is not None


class SkLookupProgram:
    """An attached sk_lookup program: ordered rules over one sock array.

    Dispatch semantics (mirroring the kernel helper contract):

    * rules are evaluated in order; the first matching rule decides;
    * a redirect rule looks up its map slot — an empty/stale slot falls
      through to the next rule (the kernel's ``bpf_sk_assign`` on a NULL
      socket would fail and the program would return SK_PASS);
    * no rule matching ⇒ SK_PASS with no socket: normal lookup continues.
    """

    def __init__(self, name: str, sock_map: SockArray, rules: list[MatchRule] | None = None) -> None:
        self.name = name
        self.map = sock_map
        self._rules: list[MatchRule] = []
        self.stats: dict[str, int] = {
            "runs": 0, "redirects": 0, "drops": 0, "fallthroughs": 0,
            "rules_removed": 0, "compiles": 0,
        }
        # Rule-list generation counter: bumped on every add/remove so the
        # compiled form (see :meth:`compiled`) knows when it is stale.  Map
        # content changes deliberately do NOT bump it — the compiled form
        # reads the sock array live, as the kernel program reads its map.
        self._rule_version = 0
        self._compiled_cache = None
        for rule in rules or []:
            self.add_rule(rule)

    # -- rule management -------------------------------------------------------

    def add_rule(self, rule: MatchRule) -> None:
        _verify_rule(rule, self.map)
        if len(self._rules) >= MAX_RULES_PER_PROGRAM:
            raise VerifierError(f"program {self.name}: rule limit reached")
        self._rules.append(rule)
        self._rule_version += 1

    def remove_rules(self, label: str) -> int:
        """Remove all rules carrying ``label``; returns how many.

        The empty label is rejected: ``MatchRule.label`` defaults to
        ``""``, so ``remove_rules("")`` would silently delete every
        unlabeled rule — almost certainly a caller bug, never a rollback.
        """
        if not label:
            raise ProgramError(
                f"program {self.name}: remove_rules needs a non-empty label "
                f"(\"\" would match every unlabeled rule)"
            )
        before = len(self._rules)
        self._rules = [r for r in self._rules if r.label != label]
        removed = before - len(self._rules)
        self.stats["rules_removed"] += removed
        if removed:
            self._rule_version += 1
        return removed

    def rules(self) -> tuple[MatchRule, ...]:
        return tuple(self._rules)

    @property
    def rule_version(self) -> int:
        """Monotone rule-list generation; compiled forms are tagged with it."""
        return self._rule_version

    # -- compilation -------------------------------------------------------------

    def compiled(self):
        """The program's compiled form, rebuilt only when rules changed.

        Returns the :class:`~repro.sockets.compiled.CompiledProgram` that
        dispatches this program's packets.  Rebuilds — counted in
        ``stats["compiles"]`` — happen on the first dispatch after
        :meth:`add_rule` or :meth:`remove_rules`; sock-array updates never
        invalidate, and a crash/restore that swaps in a fresh program
        starts from a fresh cache by construction.
        """
        cache = self._compiled_cache
        if cache is None or cache.version != self._rule_version:
            from .compiled import CompiledProgram  # deferred: avoids import cycle

            cache = self._compiled_cache = CompiledProgram(self)
            self.stats["compiles"] += 1
        return cache


def _verify_rule(rule: MatchRule, sock_map: SockArray) -> None:
    if not 1 <= rule.port_lo <= rule.port_hi <= 0xFFFF:
        raise VerifierError(f"bad port range {rule.port_lo}..{rule.port_hi}")
    families = {p.family for p in rule.prefixes}
    if len(families) > 1:
        raise VerifierError("rule mixes IPv4 and IPv6 prefixes")
    if rule.action is Verdict.PASS and rule.map_key is not None:
        if not 0 <= rule.map_key < sock_map.size:
            raise VerifierError(
                f"map key {rule.map_key} outside map size {sock_map.size}"
            )
    if rule.action is Verdict.DROP and rule.map_key is not None:
        raise VerifierError("DROP rules cannot carry a map key")


def verify_program(program: SkLookupProgram) -> None:
    """Re-check a whole program (attach-time verification entry point)."""
    if len(program.rules()) > MAX_RULES_PER_PROGRAM:
        raise VerifierError(f"program {program.name} exceeds {MAX_RULES_PER_PROGRAM} rules")
    for rule in program.rules():
        _verify_rule(rule, program.map)
