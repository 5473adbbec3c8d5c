"""Declarative policy specifications with static verification.

§4.3 closes with the open question: "how best to design and allow more
expressive policies?  Safe and verifiable policy expression and processing
is left for future work."  This module is that future work, scoped to what
a CDN control plane actually needs before pushing a policy set to every
PoP's authoritative DNS:

* a **declarative spec** (plain dicts — JSON/YAML-shaped, no code) that
  compiles to the runtime :class:`~repro.core.policy.Policy` objects;
* a **static verifier** that rejects unsafe sets before deployment:

  - pools escaping the advertised address space (answering with addresses
    nobody routes or terminates — the one way this architecture can break
    user traffic);
  - family mismatches (a v6 pool on an A-record policy);
  - unknown attributes or strategy names (typos fail closed);
  - **shadowing**: a policy that can never match because an earlier one
    covers it completely — dead config is a misconfiguration signal;
  - **coverage gaps**: attribute combinations that fall through to the
    fallback, reported (not rejected) so "resolved as normal" is a
    decision, not an accident.

The attribute domains are finite (PoPs, account types, families), so
shadowing and coverage are decided exactly by enumeration over the
declared domain — no SMT machinery needed at these sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..netsim.addr import IPv4, IPv6, Prefix, parse_prefix
from .policy import MATCH_KEYS, Policy, PolicyAttributes, PolicyEngine, PolicyIndex
from .pool import AddressPool
from .strategies import (
    HashedAssignment,
    MappedAssignment,
    PerPopAssignment,
    RandomSelection,
    SelectionStrategy,
    StaticAssignment,
)

__all__ = [
    "PolicySpecError",
    "VerificationIssue",
    "AttributeDomain",
    "compile_policy",
    "verify_policy_set",
    "compile_and_verify",
]


class PolicySpecError(ValueError):
    """A spec failed compilation or verification."""


@dataclass(frozen=True, slots=True)
class VerificationIssue:
    """One finding from the verifier."""

    severity: str          # "error" | "warning"
    policy: str | None     # None for set-level findings
    kind: str
    detail: str

    def __str__(self) -> str:
        where = f"[{self.policy}] " if self.policy else ""
        return f"{self.severity}: {where}{self.kind}: {self.detail}"


@dataclass(frozen=True, slots=True)
class AttributeDomain:
    """The finite universe policies are verified against."""

    pops: frozenset[str]
    account_types: frozenset[str] = frozenset({"free", "pro", "business", "enterprise"})
    families: frozenset[int] = frozenset({IPv4, IPv6})

    def combinations(self):
        """Every (pop, account_type, family) point, plus account_type=None
        (hostnames outside the registry present no account)."""
        accounts = [*sorted(self.account_types), None]
        for pop, account, family in itertools.product(
            sorted(self.pops), accounts, sorted(self.families)
        ):
            yield PolicyAttributes(pop=pop, account_type=account, family=family)


def _build_strategy(name: str, params: dict) -> SelectionStrategy:
    factories = {
        "random": lambda p: RandomSelection(),
        "hashed": lambda p: HashedAssignment(),
        "static": lambda p: StaticAssignment(per_address=int(p.get("per_address", 1))),
        "per_pop": lambda p: PerPopAssignment(list(p["pop_order"])),
        "mapped": lambda p: MappedAssignment(),
    }
    factory = factories.get(name)
    if factory is None:
        raise PolicySpecError(
            f"unknown strategy {name!r}; expected one of {sorted(factories)}"
        )
    try:
        return factory(params)
    except KeyError as exc:
        raise PolicySpecError(f"strategy {name!r} missing parameter {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise PolicySpecError(f"strategy {name!r}: {exc}") from exc


_JSON_KINDS = {dict: "an object", int: "an integer", list: "a list"}


def _field(spec: dict, key: str, kind: type, default: object, where: str) -> object:
    """``spec[key]`` if it has its JSON type — specs are outside input."""
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise PolicySpecError(f"{where}: {key} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def compile_policy(spec: dict) -> Policy:
    """Compile one declarative policy spec.

    Spec shape::

        {
          "name": "randomize-free",
          "pool": {"advertised": "192.0.0.0/20", "active": "192.0.2.0/24"},
          "match": {"pop": ["iad", "ord"], "account_type": ["free"]},
          "strategy": "random",            # optional, with "params": {...}
          "ttl": 30,                        # optional
          "priority": 100,                  # optional
        }
    """
    if not isinstance(spec, dict):
        raise PolicySpecError(f"a policy spec must be an object, got {spec!r}")
    unknown = set(spec) - {"name", "pool", "match", "strategy", "params", "ttl", "priority"}
    if unknown:
        raise PolicySpecError(f"unknown spec keys: {sorted(unknown)}")
    for key in ("name", "pool"):
        if key not in spec:
            raise PolicySpecError(f"spec missing required key {key!r}")
    name = spec["name"]
    where = f"policy {name!r}"
    pool_spec = _field(spec, "pool", dict, None, where)
    try:
        advertised = parse_prefix(pool_spec["advertised"])
    except KeyError as exc:
        raise PolicySpecError(f"spec missing required key {exc}") from exc
    except ValueError as exc:
        raise PolicySpecError(f"bad prefix in {where}: {exc}") from exc

    active = pool_spec.get("active")
    try:
        pool = AddressPool(
            advertised,
            active=parse_prefix(active) if active is not None else None,
            name=pool_spec.get("name", f"{name}-pool"),
        )
    except ValueError as exc:
        raise PolicySpecError(f"{where}: {exc}") from exc

    match = _field(spec, "match", dict, {}, where)
    bad_keys = set(match) - set(MATCH_KEYS)
    if bad_keys:
        raise PolicySpecError(f"{where}: unknown match keys {sorted(bad_keys)}")
    for key in match:
        # A bare "lhr" would become the set {"l", "h", "r"}.
        values = _field(match, key, list, None, f"{where}: match")
        if any(isinstance(value, (list, dict)) for value in values):
            raise PolicySpecError(f"{where}: match: {key} values must be scalars, got {values!r}")

    strategy = _build_strategy(
        spec.get("strategy", "random"), _field(spec, "params", dict, {}, where)
    )
    ttl = _field(spec, "ttl", int, 30, where)
    priority = _field(spec, "priority", int, 100, where)
    try:
        return Policy(
            name=name, pool=pool, match=match, strategy=strategy, ttl=ttl, priority=priority
        )
    except ValueError as exc:
        raise PolicySpecError(f"{where}: {exc}") from exc


def verify_policy_set(
    policies: list[Policy],
    domain: AttributeDomain,
    advertised_space: list[Prefix],
) -> list[VerificationIssue]:
    """Statically verify a compiled policy set against its deployment.

    ``advertised_space`` is what BGP announces and the edge terminates;
    every pool must sit inside it.  Returns all findings; callers treat
    any ``severity == "error"`` as deploy-blocking (see
    :func:`compile_and_verify`).
    """
    issues: list[VerificationIssue] = []

    for policy in policies:
        if not any(p.contains(policy.pool.advertised) for p in advertised_space):
            issues.append(VerificationIssue(
                "error", policy.name, "unrouted-pool",
                f"pool {policy.pool.advertised} is outside the advertised space",
            ))
        for key, values in policy.match.items():
            domain_values: set = {
                "pop": set(domain.pops),
                "account_type": set(domain.account_types),
                "family": set(domain.families),
            }[key]
            impossible = values - domain_values
            if impossible:
                issues.append(VerificationIssue(
                    "error", policy.name, "impossible-match",
                    f"{key} values {sorted(map(str, impossible))} not in the domain",
                ))
        declared_family = policy.match.get("family")
        if declared_family and policy.pool.family not in declared_family:
            issues.append(VerificationIssue(
                "error", policy.name, "family-mismatch",
                f"pool is IPv{policy.pool.family} but match requires "
                f"family in {sorted(declared_family)}",
            ))

    # Shadowing & coverage by exact enumeration over the finite domain,
    # through the same index the engine answers from.
    index = PolicyIndex(sorted(policies, key=lambda p: p.priority))
    reached: set[str] = set()
    uncovered = 0
    total = 0
    for attrs in domain.combinations():
        total += 1
        hit = index.first_match(attrs)
        if hit is None:
            uncovered += 1
        else:
            reached.add(hit.name)
    for policy in index.policies:
        if policy.name not in reached:
            issues.append(VerificationIssue(
                "error", policy.name, "shadowed",
                "no attribute combination reaches this policy "
                "(fully shadowed by higher-priority policies or empty match)",
            ))
    if uncovered:
        issues.append(VerificationIssue(
            "warning", None, "coverage-gap",
            f"{uncovered}/{total} attribute combinations fall through to the "
            "conventional fallback",
        ))
    return issues


def compile_and_verify(
    specs: list[dict],
    domain: AttributeDomain,
    advertised_space: list[Prefix],
    engine: PolicyEngine | None = None,
) -> PolicyEngine:
    """Compile specs, verify the set, install into an engine — or raise.

    This is the control-plane entry point: nothing reaches the serving
    path unless verification passes (warnings are tolerated, errors are
    not).
    """
    policies = [compile_policy(spec) for spec in specs]
    names = [p.name for p in policies]
    if len(set(names)) != len(names):
        raise PolicySpecError(f"duplicate policy names in set: {names}")
    issues = verify_policy_set(policies, domain, advertised_space)
    errors = [issue for issue in issues if issue.severity == "error"]
    if errors:
        raise PolicySpecError(
            "policy set rejected:\n" + "\n".join(f"  {e}" for e in errors)
        )
    engine = engine or PolicyEngine()
    for policy in policies:
        engine.add(policy)
    return engine
