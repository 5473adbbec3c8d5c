"""repro.check: static analysis for the addressing-agility control plane.

The paper's socket-dispatch layer only works because the BPF verifier
rejects malformed programs *at attach time* (§3.3); nothing equivalent
guarded the policy/pool control plane that mints addresses (§3.1–§3.2),
or the determinism discipline the simulator's reproducibility rests on.
This package is that missing static pass, four checkers behind one
:class:`~repro.check.core.Finding` framework, and one geometry — the
packet-space algebra of :mod:`repro.check.symbolic` — behind every
verdict about rules or prefixes:

* :mod:`repro.check.program` — an sk_lookup program verifier: port/prefix
  sanity (SK001), rules first match never reaches (SK002), conflicting
  redirects across programs on one lookup path (SK003), empty and dead
  SOCKARRAY slots (SK004/SK005), reachable DROPs that swallow addresses a
  policy can still mint (SK006);
* :mod:`repro.check.controlplane` — cross-validates policies/pools against
  the BGP/listening layer: pools outside the announced or listening
  prefixes (CP001/CP002), overlapping pools (CP003), standby space a
  lookup path leaves undispatched (CP004), TTL and SOA sanity
  (CP005–CP007), shadowed policies (CP009), and CP008, the live probe of
  sampled addresses on real catchments and sockets (deployment only);
* :mod:`repro.check.symbolic` — the exact packet-space engine (prefix ×
  protocol × port-interval rectangles): proves every mintable packet
  announced and dispatched on every lookup path (SK100) and every live
  compiled dispatch index true to its rules under every sock-array state
  (SK101), with concrete witness packets on failure;
* :mod:`repro.check.determinism` — an AST lint over simulation code for
  wall-clock reads, unseeded/global randomness, salted ``hash()`` seeds,
  unordered-set iteration, environment reads, and mutable shared state;
* :mod:`repro.check.plan` — pre-flight rebind-plan analysis
  (:func:`~repro.check.plan.verify_plan`): symbolically diffs the packet
  space across a shrink/failover/migration, reporting blackholed space,
  stranded established flows, and the stale-binding exposure window
  (SK102/SK103).

Run everything with ``python -m repro check`` (see :mod:`repro.check.cli`),
or programmatically::

    from repro.check import context_from_deployment, run_checkers
    report = run_checkers(context_from_deployment(deployment))
    assert report.ok, report.render()
"""

from .controlplane import ControlPlaneChecker
from .core import (
    CheckContext,
    CheckError,
    Checker,
    Finding,
    PolicyInfo,
    ProgramView,
    Report,
    Severity,
    run_checkers,
)
from .deployment import (
    context_from_cdn,
    context_from_deployment,
    precheck_rebind,
)
from .determinism import DeterminismChecker, lint_paths
from .plan import PlanDiff, RebindPlan, verify_plan
from .program import ProgramChecker
from .symbolic import PacketSpace, Rect, SymbolicChecker

__all__ = [
    "CheckContext",
    "CheckError",
    "Checker",
    "Finding",
    "PolicyInfo",
    "ProgramView",
    "Report",
    "Severity",
    "run_checkers",
    "ProgramChecker",
    "ControlPlaneChecker",
    "DeterminismChecker",
    "lint_paths",
    "context_from_cdn",
    "context_from_deployment",
    "precheck_rebind",
    "SymbolicChecker",
    "PacketSpace",
    "Rect",
    "RebindPlan",
    "PlanDiff",
    "verify_plan",
]
