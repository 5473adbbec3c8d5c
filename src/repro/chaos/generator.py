"""Campaigns as data: seeded fault schedules a run can replay exactly.

A **campaign** is nothing but JSON — a name, a seed, optional config
overrides, and a list of ``(when, duration, kind, params)`` fault specs.
Everything downstream depends on that representation staying dumb:

* the runner replays a campaign deterministically (same JSON, same seed →
  byte-identical report);
* the minimizer slices the fault list and replays subsets — only possible
  because a schedule is a value, not live objects;
* CI pins known-bad campaigns as fixture files and asserts they still
  violate and still minimize to the same core.

The :class:`CampaignGenerator` samples campaigns from the registered
fault vocabulary (:mod:`repro.faults.registry`) with every random draw
taken from a ``random.Random`` seeded by ``stable_hash`` — two machines
generating campaign ``(seed, index)`` get the same schedule.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace

from ..faults.errors import FaultConfigError, FaultError
from ..faults.injector import Fault, FaultPlan
from ..faults.registry import build_fault
from ..hashing import stable_hash
from .world import (
    LEAKER_AS,
    PRIMARY_POP,
    PRIMARY_PREFIX,
    REGIONS,
    ChaosConfig,
    resolver_transport_names,
)

__all__ = ["FaultSpec", "Campaign", "CampaignGenerator"]

_WORLD_POPS = tuple(pop for _, pop in REGIONS)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault, JSON-scalar params only (see the registry)."""

    when: float
    kind: str
    duration: float | None = None
    params: dict = field(default_factory=dict)

    def build(self) -> Fault:
        return build_fault(self.kind, **self.params)

    def validate(self, path: str) -> None:
        """Build the fault and check its PoP is one of the chaos world's,
        so a bad spec fails at load, named by its JSON ``path``."""
        pop = self.params.get("pop")
        if pop is not None and pop not in _WORLD_POPS:
            raise FaultConfigError(f"{path}.params.pop: unknown PoP {pop!r}; "
                                   f"the chaos world has {', '.join(_WORLD_POPS)}")
        try:
            self.build()
        except FaultError as exc:
            raise FaultConfigError(f"{path}: {exc.args[0]}") from None

    def to_dict(self) -> dict:
        return {
            "when": self.when,
            "duration": self.duration,
            "kind": self.kind,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            when=float(data["when"]),
            kind=str(data["kind"]),
            duration=None if data.get("duration") is None else float(data["duration"]),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class Campaign:
    """A named, seeded, replayable fault schedule (+ config overrides)."""

    name: str
    seed: int
    faults: tuple[FaultSpec, ...]
    overrides: dict = field(default_factory=dict)

    def plan(self) -> FaultPlan:
        """Materialize the schedule; validates every spec up front."""
        plan = FaultPlan()
        for spec in self.faults:
            plan.at(spec.when, spec.build(), duration=spec.duration)
        return plan

    def with_faults(self, faults: tuple[FaultSpec, ...]) -> "Campaign":
        """Same campaign, different schedule — the minimizer's subset step.

        Seed and overrides are kept so a subset replays in the identical
        world; only the fault list changes."""
        return replace(self, faults=tuple(faults))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "overrides": dict(self.overrides),
            "faults": [spec.to_dict() for spec in self.faults],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "Campaign":
        """Decode and validate: every fault is built once here, so a bad
        parameter or PoP is a :class:`FaultConfigError` before any run."""
        campaign = cls(
            name=str(data["name"]),
            seed=int(data["seed"]),
            faults=tuple(FaultSpec.from_dict(f) for f in data.get("faults", [])),
            overrides=dict(data.get("overrides", {})),
        )
        for i, spec in enumerate(campaign.faults):
            spec.validate(f"faults[{i}]")
        return campaign

    @classmethod
    def from_json(cls, text: str) -> "Campaign":
        return cls.from_dict(json.loads(text))


class CampaignGenerator:
    """Seeded sampler over the fault vocabulary.

    Faults target the **primary** PoP and the client resolver paths — the
    surfaces the ``svc`` policy actually depends on — because a campaign
    that breaks only the standby region exercises nothing.  Times and
    magnitudes are drawn uniformly (rounded to 0.1 to keep the JSON
    short) inside windows that leave the run a measurable recovery tail:
    injections land in ``[warmup, 0.55 × horizon]`` and durations stay
    under ``max_fault_s``.
    """

    #: Sampled kinds and their relative weights: hard faults and gray
    #: faults roughly balanced, whole-PoP outages rarer than partial ones.
    KIND_WEIGHTS: tuple[tuple[str, int], ...] = (
        ("pop_outage", 1),
        ("pop_withdrawal", 2),
        ("server_crash", 2),
        ("transport_degrade", 2),
        ("slow_server", 2),
        ("lossy_link", 2),
        ("resolver_brownout", 2),
        ("overloaded_pop", 2),
    )

    #: Extra kinds sampled only for speakers-mode configs: routing gray
    #: faults need the event-driven engine to mean anything.
    ROUTING_KIND_WEIGHTS: tuple[tuple[str, int], ...] = (
        ("route_leak", 2),
        ("session_reset", 2),
        ("slow_convergence", 2),
        ("persistent_flap", 1),
    )

    #: Sessions near the primary PoP worth resetting — each sits on the
    #: announcement path from ashburn to the US eyeballs.
    RESET_SESSIONS: tuple[tuple[str, str], ...] = (
        ("pop:ashburn", "transit:us:0"),
        ("pop:ashburn", "transit:us:1"),
        ("transit:us:0", "t1:0"),
    )

    def __init__(self, config: ChaosConfig | None = None,
                 max_faults: int = 3, warmup_s: float = 20.0,
                 max_fault_s: float = 35.0) -> None:
        if max_faults < 1:
            raise FaultConfigError("campaigns need at least one fault")
        self.config = config or ChaosConfig()
        self.max_faults = max_faults
        self.warmup_s = warmup_s
        self.max_fault_s = max_fault_s

    def generate(self, seed: int, count: int) -> list[Campaign]:
        return [self.campaign(seed, index) for index in range(count)]

    def campaign(self, seed: int, index: int) -> Campaign:
        rng = random.Random(stable_hash("chaos-campaign", seed, index) & 0xFFFFFFFF)
        n = rng.randint(1, self.max_faults)
        specs = sorted(
            (self._sample_fault(rng) for _ in range(n)),
            key=lambda spec: (spec.when, spec.kind),
        )
        # Speakers campaigns carry the engine choice as an override so a
        # pinned fixture replays standalone, without the generator config.
        overrides = (
            {"routing": "speakers"}
            if self.config.routing == "speakers" else {}
        )
        return Campaign(
            name=f"campaign-{seed}-{index:03d}",
            seed=stable_hash("chaos-run", seed, index) & 0x7FFFFFFF,
            faults=tuple(specs),
            overrides=overrides,
        )

    # -- sampling ------------------------------------------------------------

    def _sample_fault(self, rng: random.Random) -> FaultSpec:
        weights = self.KIND_WEIGHTS
        if self.config.routing == "speakers":
            weights = weights + self.ROUTING_KIND_WEIGHTS
        kinds = [k for k, w in weights for _ in range(w)]
        kind = rng.choice(kinds)
        when = round(rng.uniform(self.warmup_s, self.config.horizon * 0.55), 1)
        duration = round(rng.uniform(10.0, self.max_fault_s), 1)
        return FaultSpec(when=when, kind=kind, duration=duration,
                         params=self._sample_params(kind, rng))

    def _sample_params(self, kind: str, rng: random.Random) -> dict:
        if kind == "pop_outage":
            return {"pop": PRIMARY_POP}
        if kind == "pop_withdrawal":
            return {"prefix": str(PRIMARY_PREFIX), "pop": PRIMARY_POP}
        if kind == "server_crash":
            return {"pop": PRIMARY_POP}   # injector rng picks the box
        if kind == "transport_degrade":
            names = resolver_transport_names(self.config)
            return {
                "transport": rng.choice(names),
                "drop": round(rng.uniform(0.3, 0.7), 2),
                "delay_s": round(rng.uniform(0.0, 0.2), 2),
            }
        if kind == "slow_server":
            return {"pop": PRIMARY_POP, "factor": round(rng.uniform(5.0, 20.0), 1)}
        if kind == "lossy_link":
            return {"pop": PRIMARY_POP, "drop": round(rng.uniform(0.3, 0.7), 2)}
        if kind == "resolver_brownout":
            return {
                "transport": "*",
                "drop": round(rng.uniform(0.2, 0.5), 2),
                "delay_s": round(rng.uniform(0.05, 0.3), 2),
            }
        if kind == "overloaded_pop":
            # Coalescing keeps fresh dials per tick low — only a cap this
            # tight actually makes an edge shed.
            return {"pop": PRIMARY_POP, "capacity": rng.randint(1, 3)}
        if kind == "route_leak":
            return {"leaker": LEAKER_AS, "prefix": str(PRIMARY_PREFIX)}
        if kind == "session_reset":
            a, b = rng.choice(self.RESET_SESSIONS)
            return {"a": a, "b": b}
        if kind == "slow_convergence":
            return {"factor": round(rng.uniform(3.0, 8.0), 1)}
        if kind == "persistent_flap":
            return {
                "prefix": str(PRIMARY_PREFIX),
                "pop": PRIMARY_POP,
                "period": round(rng.uniform(4.0, 10.0), 1),
            }
        raise FaultConfigError(f"generator has no sampler for kind {kind!r}")
