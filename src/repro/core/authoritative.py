"""The policy-first authoritative answer source (Figure 3b).

§3.2's five steps, verbatim, as code:

1. a query arrives for an A or AAAA record            → ``answer()``
2. processing/validation/logging remains unchanged    → the shared
   :class:`~repro.dns.server.AuthoritativeServer` scaffolding
3. attributes match to a policy that identifies a prefix
                                                       → :class:`PolicyEngine`
4. generate a random bitstring of 32−b (or 128−b) bits → the policy's
   strategy over its :class:`AddressPool`
5. respond with prefix ‖ bitstring                     → the A/AAAA record

Queries that match no policy fall through to a conventional fallback
source ("queries that do not match are resolved as normal", §4.3) — this
is what let the deployment run one global codebase.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..dns.records import A, AAAA, Question, ResourceRecord, RRType
from ..dns.server import Answer, AnswerSource, QueryContext
from ..dns.wire import Rcode
from ..edge.customers import CustomerRegistry
from ..netsim.addr import IPv4, IPv6
from .policy import PolicyAttributes, PolicyDecision, PolicyEngine

if TYPE_CHECKING:
    from ..obs.trace import TraceRecorder

__all__ = ["PolicyAnswerSource", "PolicyAnswerLog"]


@dataclass(slots=True)
class PolicyAnswerLog:
    """Step-2 accounting: what the policy path answered, per policy."""

    policy_answers: int = 0
    fallback_answers: int = 0
    refused: int = 0
    by_policy: dict[str, int] = field(default_factory=dict)

    def record_policy(self, name: str) -> None:
        self.policy_answers += 1
        self.by_policy[name] = self.by_policy.get(name, 0) + 1


class PolicyAnswerSource(AnswerSource):
    """Answer A/AAAA queries from policies; everything else via fallback.

    Parameters
    ----------
    engine:
        The policy engine (step 3).
    registry:
        Maps the queried hostname to its account type — the one per-name
        fact the deployment's policy consumes.  Hostnames not in the
        registry never match account-typed policies and use the fallback.
    fallback:
        Conventional answer source for non-matching queries.  ``None``
        makes unmatched queries REFUSED (useful in unit tests; production
        always configures one).
    """

    def __init__(
        self,
        engine: PolicyEngine,
        registry: CustomerRegistry,
        fallback: AnswerSource | None = None,
        rng: random.Random | None = None,
        tracer: "TraceRecorder | None" = None,
    ) -> None:
        self.engine = engine
        self.registry = registry
        self.fallback = fallback
        self.log = PolicyAnswerLog()
        #: Optional :class:`~repro.obs.trace.TraceRecorder`: when set, every
        #: policy-path answer emits query → policy_match → mint spans (the
        #: §3.2 steps, observable per query).
        self.tracer = tracer
        self._rng = rng or random.Random(0x5EED)

    def answer(self, question: Question, context: QueryContext) -> Answer:
        if question.rrtype not in (RRType.A, RRType.AAAA):
            return self._fall_through(question, context)

        hostname = str(question.name).rstrip(".")
        account = self.registry.account_type_for(hostname)
        attrs = PolicyAttributes(
            context.pop,
            account.value if account is not None else None,
            IPv4 if question.rrtype == RRType.A else IPv6,
            hostname,
            context.client_subnet,
        )
        if self.tracer is None:
            decision = self.engine.evaluate(attrs)
            if decision is None:
                return self._fall_through(question, context)
            return self._policy_answer(question, decision)

        trace = self.tracer.next_trace_id("query")
        with self.tracer.span(trace, "query", hostname):
            with self.tracer.span(trace, "policy_match"):
                decision = self.engine.evaluate(attrs)
            if decision is None:
                return self._fall_through(question, context)
            with self.tracer.span(trace, "mint", decision.policy.name):
                return self._policy_answer(question, decision)

    def answer_batch(
        self, questions: Sequence[Question], context: QueryContext
    ) -> list[Answer]:
        """:meth:`answer` for many questions sharing one context, in
        question order — the loop, nothing hoisted: first match is an
        index probe per query (:class:`~repro.core.policy.PolicyIndex`),
        so there is no per-batch work left to share."""
        answer = self.answer
        return [answer(question, context) for question in questions]

    # -- internals -------------------------------------------------------------

    def _policy_answer(self, question: Question, decision: PolicyDecision) -> Answer:
        rdata = A(decision.address) if question.rrtype == RRType.A else AAAA(decision.address)
        record = ResourceRecord(question.name, rdata, decision.ttl)
        self.log.record_policy(decision.policy.name)
        return Answer(Rcode.NOERROR, (record,))

    def _fall_through(self, question: Question, context: QueryContext) -> Answer:
        if self.fallback is None:
            self.log.refused += 1
            return Answer(Rcode.REFUSED)
        self.log.fallback_answers += 1
        return self.fallback.answer(question, context)
