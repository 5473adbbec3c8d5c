"""The paper's core contribution: policy-first agile addressing.

Public API::

    from repro.core import (
        AddressPool, Policy, PolicyEngine, PolicyAnswerSource,
        RandomSelection, AgilityController,
    )

Build an :class:`AddressPool` over an advertised prefix, attach it to a
:class:`Policy` matched on attributes (PoP, account type, family), install
the engine behind a :class:`PolicyAnswerSource`, and plug that into any
:class:`~repro.dns.server.AuthoritativeServer` — e.g. via
:meth:`repro.edge.cdn.CDN.set_answer_source`.
"""

from .agility import AgilityController, AgilityOperation
from .authoritative import PolicyAnswerLog, PolicyAnswerSource
from .policy import Policy, PolicyAttributes, PolicyDecision, PolicyEngine, PolicyIndex
from .pool import AddressPool, PoolError
from .spec import (
    AttributeDomain,
    PolicySpecError,
    VerificationIssue,
    compile_and_verify,
    compile_policy,
    verify_policy_set,
)
from .strategies import (
    EcsPerPopAssignment,
    HashedAssignment,
    MappedAssignment,
    PerPopAssignment,
    RandomSelection,
    SelectionContext,
    SelectionStrategy,
    StaticAssignment,
)

__all__ = [
    "AttributeDomain",
    "PolicySpecError",
    "VerificationIssue",
    "compile_and_verify",
    "compile_policy",
    "verify_policy_set",
    "EcsPerPopAssignment",
    "AgilityController",
    "AgilityOperation",
    "PolicyAnswerLog",
    "PolicyAnswerSource",
    "Policy",
    "PolicyAttributes",
    "PolicyDecision",
    "PolicyEngine",
    "PolicyIndex",
    "AddressPool",
    "PoolError",
    "HashedAssignment",
    "MappedAssignment",
    "PerPopAssignment",
    "RandomSelection",
    "SelectionContext",
    "SelectionStrategy",
    "StaticAssignment",
]
