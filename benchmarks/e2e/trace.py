"""Span recorder and class-level call wrappers for the traced runs.

Spans are recorded *from the benchmark's side* of each layer boundary:
:func:`traced` swaps the public callables named in a target table for
wrappers that open a span, call through, and close it, then puts the
originals back.  Nothing under ``src/`` knows it is being traced, and
nothing here depends on ``repro.obs``.

A span is ``(target, parent, start_ns, end_ns)``: ``target`` indexes the
recorder's target table (which carries the span's name and layer),
``parent`` is the index of the span that was open when this one started
(-1 for a root).  A root span and everything under it is one trace — one
``run_batch`` call on the flow path, one query on the wire path.
"""

from __future__ import annotations

import contextlib
import importlib
import json
from time import perf_counter_ns

__all__ = ["FLOW_TARGETS", "WIRE_TARGETS", "LAYERS", "Recorder", "traced", "resolve"]

#: (layer, "module:Owner.attr" or "module:function").  Layer = the module
#: the callable is defined in, minus the ``repro.`` prefix.
FLOW_TARGETS = (
    ("flow.engine", "repro.flow.engine:FlowEngine.run_batch"),
    ("flow.engine", "repro.flow.engine:FlowEngine.resolve_batch"),
    ("flow.engine", "repro.flow.engine:FlowEngine.connect_stage"),
    ("flow.engine", "repro.flow.engine:FlowEngine.dispatch_stage"),
    ("flow.engine", "repro.flow.engine:FlowEngine.serve_stage"),
    ("flow.backend", "repro.flow.backend:NumpyHashBackend.hash_tuples"),
    ("flow.backend", "repro.flow.backend:PythonHashBackend.hash_tuples"),
    ("dns.cache", "repro.dns.cache:DNSCache.lookup"),
    ("dns.cache", "repro.dns.cache:DNSCache.lookup_batch"),
    ("dns.cache", "repro.dns.cache:DNSCache.store"),
    ("dns.cache", "repro.dns.cache:DNSCache.store_batch"),
    ("core.authoritative", "repro.core.authoritative:PolicyAnswerSource.answer"),
    ("core.authoritative", "repro.core.authoritative:PolicyAnswerSource.answer_batch"),
    ("core.policy", "repro.core.policy:PolicyEngine.evaluate_batch"),
    ("core.pool", "repro.core.pool:AddressPool.random_address"),
    ("edge.datacenter", "repro.edge.datacenter:Datacenter.connect_batch"),
    ("edge.datacenter", "repro.edge.datacenter:Datacenter.serve_batch"),
    ("edge.ecmp", "repro.edge.ecmp:ECMPRouter.choose"),
    ("edge.l4lb", "repro.edge.l4lb:L4LoadBalancer.admit"),
    ("edge.server", "repro.edge.server:EdgeServer.handshake"),
    ("edge.server", "repro.edge.server:EdgeServer.serve"),
    ("sockets.lookup", "repro.sockets.lookup:LookupPath.dispatch"),
    ("sockets.lookup", "repro.sockets.lookup:LookupPath.dispatch_batch"),
    ("sockets.socktable", "repro.sockets.socktable:SocketTable.establish"),
    ("web.tls", "repro.web.tls:CertificateStore.select"),
    ("web.tls", "repro.web.tls:Certificate.covers"),
    ("edge.cache", "repro.edge.cache:DistributedCache.fetch"),
    ("web.origin", "repro.web.origin:OriginPool.fetch"),
)

WIRE_TARGETS = (
    ("serve.protocol", "repro.serve.protocol:ProtocolCore.datagram"),
    ("serve.protocol", "repro.serve.protocol:StreamSession.feed"),
    ("dns.server", "repro.dns.server:AuthoritativeServer.handle_wire"),
    ("dns.server", "repro.dns.server:AuthoritativeServer.handle_query"),
    ("dns.server", "repro.dns.server:ZoneAnswerSource.answer"),
    ("dns.wire", "repro.dns.wire:Message.decode"),
    ("dns.wire", "repro.dns.wire:Message.encode"),
    ("dns.edns", "repro.dns.edns:extract_opt"),
    ("dns.edns", "repro.dns.edns:attach_opt"),
    ("dns.zone", "repro.dns.zone:Zone.lookup"),
    ("core.authoritative", "repro.core.authoritative:PolicyAnswerSource.answer"),
    ("core.policy", "repro.core.policy:PolicyEngine.evaluate_batch"),
    ("core.pool", "repro.core.pool:AddressPool.random_address"),
)

#: Every span layer, flow path first; the order the ledger prints them in.
LAYERS = tuple(dict.fromkeys(layer for layer, _ in FLOW_TARGETS + WIRE_TARGETS))


def resolve(path: str) -> tuple[object, str]:
    """``"pkg.mod:Owner.attr"`` → ``(Owner, "attr")``; ``"pkg.mod:func"`` →
    ``(module, "func")``."""
    module_name, _, qualname = path.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Recorder:
    """In-memory span store plus the self-time arithmetic over it.

    Spans are kept as four parallel columns of plain integers — target,
    parent, start, end — not one object per span: a container per span is
    garbage-collector work, which would slow the traced program by more
    than the wrappers themselves."""

    def __init__(self, targets: tuple[tuple[str, str], ...]) -> None:
        self.targets = targets
        self.target: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.stack: list[int] = [-1]

    def __len__(self) -> int:
        return len(self.target)

    def clear(self) -> None:
        for column in (self.target, self.parent, self.start, self.end):
            del column[:]

    def wrap(self, fn, target: int):
        targets, parents, starts, ends = self.target, self.parent, self.start, self.end
        stack, now = self.stack, perf_counter_ns

        def span(*args, **kwargs):
            index = len(targets)
            targets.append(target)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = now()
                stack.pop()

        return span

    def self_times(self) -> list[int]:
        """Per span: its duration minus the part its child spans cover.

        Calls are synchronous on one thread, so a span's children never
        overlap each other and lie inside it: covered time is their sum."""
        selfs = [end - start for start, end in zip(self.start, self.end)]
        for parent, start, end in zip(self.parent, self.start, self.end):
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def ledger(self, ops: int, wall_ns: int, speed: float = 1.0) -> dict[str, dict[str, float]]:
        """Per layer: self µs per operation (times ``speed``, the host-speed
        factor of the traced stretch), spans per operation, and self time
        as a share of the traced wall time."""
        totals = {layer: [0, 0] for layer in LAYERS}
        for target, self_ns in zip(self.target, self.self_times()):
            entry = totals[self.targets[target][0]]
            entry[0] += self_ns
            entry[1] += 1
        return {
            layer: {
                "self_us_per_op": self_ns * speed / 1e3 / ops,
                "calls_per_op": calls / ops,
                "share": self_ns / wall_ns,
            }
            for layer, (self_ns, calls) in totals.items()
        }

    def dump(self, path) -> None:
        """Write every span, with its trace id (the index of its root)."""
        trace: list[int] = []
        for index, parent in enumerate(self.parent):
            trace.append(index if parent < 0 else trace[parent])
        payload = {
            "targets": [{"layer": layer, "name": name.partition(":")[2]}
                        for layer, name in self.targets],
            "spans": {"target": self.target, "parent": self.parent,
                      "start_ns": self.start, "end_ns": self.end, "trace": trace},
        }
        with open(path, "w") as out:
            json.dump(payload, out, separators=(",", ":"))


@contextlib.contextmanager
def traced(targets: tuple[tuple[str, str], ...]):
    """Wrap every target for the duration of the block; yields the
    :class:`Recorder`.  Originals are restored on exit, error or not."""
    recorder = Recorder(targets)
    saved: list[tuple[object, str, object]] = []
    try:
        for index, (_, path) in enumerate(targets):
            owner, attr = resolve(path)
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(recorder.wrap(raw.__func__, index))
            else:
                wrapped = recorder.wrap(raw, index)
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
