"""Batched ≡ scalar: the flow-engine differential parity suite.

Satellites 2+3 of the columnar-flow-engine PR.  Two identically-seeded
worlds are driven over the same corpus — one through the columnar
``FlowEngine``, one through the loop-of-scalars reference — and every
per-flow verdict column plus every counter surface must be identical.
Seam-level differentials then pin each ``*_batch`` entry point against
its scalar form in isolation, including the awkward cases: expiry and
negative entries mid-batch, serve-stale retention, sub-1.0 sampling
rates, and partial failure part-way through a batch.  The datacenter's
two column seams (one ECMP pick matrix, one cache home-node matrix per
batch) are pinned against the scalar loop across membership changes,
mid-batch crashes and gated ingress.
"""

from __future__ import annotations

import random

import pytest

from repro.clock import Clock
from repro.core.authoritative import PolicyAnswerSource
from repro.core.policy import Policy, PolicyAttributes, PolicyEngine
from repro.core.pool import AddressPool
from repro.dns.cache import DNSCache
from repro.dns.records import A, DomainName, Question, ResourceRecord, RRType
from repro.edge.datacenter import TrafficLog
from repro.experiments.flow_perf import build_flow_world, make_flow_columns
from repro.flow import FlowBatch
from repro.netsim import parse_address
from repro.netsim.addr import parse_prefix
from repro.netsim.packet import FiveTuple, Protocol
from repro.obs.trace import TraceRecorder
from repro.sockets.lookup import flow_hash_tuple
from repro.web.http import HTTPVersion, Request
from repro.web.tls import ClientHello
from repro.workload.hostnames import HostnameUniverse, UniverseConfig

# (corpus seed, flows, batch size) — odd sizes, batch-of-one, and
# Zipf-duplicate-heavy batches all ride through the same assertions.
CORPUS = [
    (101, 64, 16),
    (202, 50, 7),
    (303, 48, 1),
    (404, 40, 40),
    (505, 33, 32),
]

VERDICT_COLUMNS = (
    "addresses",
    "ttls",
    "cached",
    "tuple5s",
    "flow_hashes",
    "servers",
    "stages",
    "statuses",
)


def _twin_worlds(**kwargs):
    """Two independently-built but identically-seeded deployments."""
    return build_flow_world(**kwargs), build_flow_world(**kwargs)


def _counter_surface(world) -> dict:
    """Every counter the pipeline touches, as one comparable structure.

    Batch-only bookkeeping (``LookupPath.batches``/``batch_packets`` and
    the engine's own :class:`FlowStats`) is deliberately absent: those
    exist *because* of batching and have no scalar counterpart.
    """
    dc = world.dc
    cs = world.cache.stats
    eng = world.source.engine
    log = world.source.log
    l4 = dc.l4lb.stats
    return {
        "cache": (cs.hits, cs.misses, cs.expirations, cs.evictions, cs.insertions),
        "policy_engine": (eng.evaluations, eng.matches),
        "policy_hits": {p.name: p.hits for p in eng.policies()},
        "answers": (
            log.policy_answers,
            log.fallback_answers,
            log.refused,
            dict(log.by_policy),
        ),
        "ecmp": (dc.ecmp.stats.routed, dict(dc.ecmp.stats.per_server)),
        "l4lb": (l4.new_flows, l4.tracked_hits, l4.rehomed, l4.closed),
        "ingress": (dc.sheds, dc.syn_drops),
        "servers": {
            name: (
                dict(s.lookup_path.stage_counts),
                s.stats.connections,
                s.stats.tls_failures,
                s.stats.requests,
                s.stats.bytes_served,
                s.stats.refused_syns,
            )
            for name, s in dc.servers.items()
        },
        "traffic": {
            str(addr): (t.requests, t.bytes, t.connections)
            for addr, t in dc.traffic.by_address().items()
        },
    }


def _assert_batches_equal(batched: FlowBatch, scalar: FlowBatch, context: str) -> None:
    for column in VERDICT_COLUMNS:
        assert getattr(batched, column) == getattr(scalar, column), (
            f"{context}: column {column!r} diverged"
        )


class TestEndToEndParity:
    @pytest.mark.parametrize(("seed", "n", "batch_size"), CORPUS)
    def test_columns_and_counters_identical(self, seed, n, batch_size):
        world_a, world_b = _twin_worlds(num_hostnames=16, num_servers=4)
        columns = make_flow_columns(world_a, n, seed=seed, batch_size=batch_size)
        for k, (hostnames, src_addrs, src_ports) in enumerate(columns):
            batched = world_a.engine.run_batch(
                FlowBatch(list(hostnames), list(src_addrs), list(src_ports))
            )
            scalar = world_b.engine.run_scalar(hostnames, src_addrs, src_ports)
            _assert_batches_equal(
                batched, scalar, f"corpus seed={seed} batch={k} size={batch_size}"
            )
        assert _counter_surface(world_a) == _counter_surface(world_b)

    def test_ttl_zero_forces_mint_path_both_arms(self):
        """TTL-0 answers are use-once (never cached): every flow mints."""
        world_a, world_b = _twin_worlds(num_hostnames=8, num_servers=2, ttl=0)
        columns = make_flow_columns(world_a, 24, seed=606, batch_size=8)
        for hostnames, src_addrs, src_ports in columns:
            batched = world_a.engine.run_batch(
                FlowBatch(list(hostnames), list(src_addrs), list(src_ports))
            )
            scalar = world_b.engine.run_scalar(hostnames, src_addrs, src_ports)
            _assert_batches_equal(batched, scalar, "ttl=0")
            assert not any(batched.cached)
        assert world_a.cache.stats.insertions == 0
        assert _counter_surface(world_a) == _counter_surface(world_b)

    def test_obs_snapshots_identical_minus_batch_only_keys(self):
        """The two arms look the same through ``repro.obs`` too — except
        the keys that only exist because batching exists."""
        from repro.obs import MetricsRegistry
        from repro.obs.adapters import (
            watch_cache_stats,
            watch_ecmp,
            watch_lookup_path,
        )

        world_a, world_b = _twin_worlds(num_hostnames=16, num_servers=4)
        registries = {}
        for arm, world in (("batched", world_a), ("scalar", world_b)):
            registry = MetricsRegistry()
            watch_cache_stats(registry, "cache", world.cache.stats)
            watch_ecmp(registry, "ecmp", world.dc.ecmp)
            for name, server in world.dc.servers.items():
                watch_lookup_path(registry, f"lookup.{name}", server.lookup_path)
            registries[arm] = registry
        columns = make_flow_columns(world_a, 64, seed=707, batch_size=16)
        for hostnames, src_addrs, src_ports in columns:
            world_a.engine.run_batch(
                FlowBatch(list(hostnames), list(src_addrs), list(src_ports))
            )
            world_b.engine.run_scalar(hostnames, src_addrs, src_ports)

        def comparable(registry):
            counters = registry.snapshot()["counters"]
            return {
                key: value
                for key, value in counters.items()
                if not key.endswith((".batches", ".batch_packets"))
            }

        snap_a, snap_b = comparable(registries["batched"]), comparable(registries["scalar"])
        assert snap_a == snap_b
        assert snap_a["ecmp.routed"] > 0  # the comparison saw real traffic


class TestPartialFailureParity:
    def test_crashed_server_mid_batch_leaves_identical_counters(self):
        """A crash part-way through ``connect_batch`` must leave exactly
        the counters the scalar loop leaves when it dies at the same flow:
        ECMP choices through the failing flow, L4LB admits through the
        failing flow, traffic connections for successes only, one refused
        SYN — nothing silently lost, nothing double-counted."""
        world_a, world_b = _twin_worlds(num_hostnames=16, num_servers=4)
        victim = sorted(world_a.dc.servers)[1]
        world_a.dc.crash_server(victim)
        world_b.dc.crash_server(victim)
        columns = make_flow_columns(world_a, 64, seed=808, batch_size=64)
        (hostnames, src_addrs, src_ports) = columns[0]
        with pytest.raises(ConnectionRefusedError):
            world_a.engine.run_batch(
                FlowBatch(list(hostnames), list(src_addrs), list(src_ports))
            )
        with pytest.raises(ConnectionRefusedError):
            world_b.engine.run_scalar(hostnames, src_addrs, src_ports)
        surface_a = _counter_surface(world_a)
        assert surface_a == _counter_surface(world_b)
        assert surface_a["servers"][victim][5] == 1  # refused_syns
        # The failing flow's ECMP choice is still counted (the scalar path
        # counts the route before the handshake refuses).
        assert surface_a["ecmp"][1][victim] == 1


class TestCacheSeamParity:
    """``lookup_batch``/``store_batch`` versus scalar loops, including
    expiry, negative entries, duplicates, and serve-stale retention."""

    @staticmethod
    def _question(label: str) -> Question:
        return Question(DomainName.from_text(f"{label}.example.com"), RRType.A)

    @staticmethod
    def _records(question: Question, fourth_octet: int, ttl: int):
        rdata = A(parse_address(f"192.0.2.{fourth_octet}"))
        return (ResourceRecord(question.name, rdata, ttl=ttl),)

    def _load(self, cache: DNSCache, batched: bool) -> list[Question]:
        questions = [self._question(f"host{i}") for i in range(6)]
        items = [
            (q, self._records(q, i + 1, ttl=30 if i % 2 else 120))
            for i, q in enumerate(questions)
        ]
        if batched:
            cache.store_batch(items)
        else:
            for question, records in items:
                cache.store(question, records)
        cache.store_negative(self._question("gone"), soa_minimum=60)
        return questions

    def _probe(self, cache: DNSCache, questions, batched: bool):
        # Duplicates and a never-stored name ride along; the expired
        # entries make the second occurrence observe the first's deletion.
        probes = [*questions, questions[0], questions[1],
                  self._question("gone"), self._question("never")]
        if batched:
            return cache.lookup_batch(probes)
        return [cache.lookup(q) for q in probes]

    @pytest.mark.parametrize("serve_stale_window", [0.0, 600.0])
    def test_expiry_negative_and_stale_parity(self, serve_stale_window):
        clocks = (Clock(), Clock())
        caches = [
            DNSCache(clock, serve_stale_window=serve_stale_window)
            for clock in clocks
        ]
        results = {}
        for cache, clock, batched in zip(caches, clocks, (True, False)):
            questions = self._load(cache, batched)
            clock.advance(45)  # past the ttl=30 entries, not the ttl=120 ones
            results[batched] = self._probe(cache, questions, batched)
        assert results[True] == results[False]
        stats_a, stats_b = caches[0].stats, caches[1].stats
        assert (stats_a.hits, stats_a.misses, stats_a.expirations, stats_a.insertions) == (
            stats_b.hits, stats_b.misses, stats_b.expirations, stats_b.insertions
        )
        if serve_stale_window:
            # Retained-stale entries read as misses but are NOT deleted.
            assert stats_a.expirations == 0
        else:
            assert stats_a.expirations == 3  # host1/host3/host5, once each
        assert len(caches[0]) == len(caches[1])

    def test_store_batch_midway_failure_keeps_earlier_insertions(self):
        """Satellite-2 regression: the ``insertions`` fold runs in a
        ``finally``, so a poisoned item part-way through a batch still
        counts the entries that made it in — exactly like a scalar loop
        that dies on the same item."""
        q0, q1 = self._question("ok0"), self._question("ok1")
        poisoned = [
            (q0, self._records(q0, 1, ttl=60)),
            (q1, self._records(q1, 2, ttl=60)),
            (self._question("boom"), None),  # tuple(None) raises
        ]
        batched = DNSCache(Clock())
        with pytest.raises(TypeError):
            batched.store_batch(poisoned)
        scalar = DNSCache(Clock())
        with pytest.raises(TypeError):
            for question, records in poisoned:
                scalar.store(question, records)
        assert batched.stats.insertions == scalar.stats.insertions == 2
        assert batched.lookup(q0) is not None
        assert batched.lookup(q1) is not None


class TestPolicySeamParity:
    @staticmethod
    def _engine(seed: int) -> PolicyEngine:
        engine = PolicyEngine(random.Random(seed))
        ent_pool = AddressPool(parse_prefix("198.51.100.0/26"), name="ent")
        any_pool = AddressPool(parse_prefix("192.0.2.0/24"), name="any")
        engine.add(Policy("enterprise", ent_pool,
                          match={"account_type": {"enterprise"}},
                          ttl=30, priority=10))
        engine.add(Policy("catch-all", any_pool, match={}, ttl=300, priority=100))
        return engine

    @staticmethod
    def _attrs() -> list[PolicyAttributes]:
        accounts = ["free", "enterprise", "pro", "enterprise", "business", None]
        attrs = [
            PolicyAttributes(pop="pop1", account_type=acct, family=4,
                             hostname=f"h{i}.example.com")
            for i, acct in enumerate(accounts)
        ]
        # Family mismatch: v4 pools can never answer an AAAA query.
        attrs.append(PolicyAttributes(pop="pop1", account_type="enterprise", family=6))
        return attrs

    def test_evaluate_batch_rng_and_counter_parity(self):
        engine_a, engine_b = self._engine(99), self._engine(99)
        attrs = self._attrs()
        batched = engine_a.evaluate_batch(attrs)
        scalar = [engine_b.evaluate(a) for a in attrs]
        assert [
            None if d is None else (d.policy.name, d.address, d.ttl) for d in batched
        ] == [
            None if d is None else (d.policy.name, d.address, d.ttl) for d in scalar
        ]
        assert batched[-1] is None  # the AAAA mismatch matched nothing
        assert (engine_a.evaluations, engine_a.matches) == (
            engine_b.evaluations, engine_b.matches
        )
        assert {p.name: p.hits for p in engine_a.policies()} == {
            p.name: p.hits for p in engine_b.policies()
        }
        # RNG states converged too: the next draw is identical.
        assert engine_a._rng.random() == engine_b._rng.random()

    def test_answer_batch_parity_including_refusals(self):
        from repro.dns.server import QueryContext

        universe = HostnameUniverse(UniverseConfig(num_hostnames=12, seed=3))
        sources = []
        for _ in range(2):
            engine = PolicyEngine(random.Random(7))
            pool = AddressPool(parse_prefix("192.0.2.0/24"), name="ent-only")
            engine.add(Policy("ent-only", pool,
                              match={"account_type": {"enterprise"}}, ttl=30))
            sources.append(PolicyAnswerSource(engine, universe.registry))
        context = QueryContext(pop="pop1")
        questions = [
            Question(DomainName.from_text(h), RRType.A) for h in universe.sites
        ]
        # Non-address queries take the fallback arm (absent → REFUSED).
        questions.append(Question(DomainName.from_text(universe.sites[0]), RRType.TXT))
        batched = sources[0].answer_batch(questions, context)
        scalar = [sources[1].answer(q, context) for q in questions]
        assert [(a.rcode, a.records) for a in batched] == [
            (a.rcode, a.records) for a in scalar
        ]
        log_a, log_b = sources[0].log, sources[1].log
        assert (log_a.policy_answers, log_a.fallback_answers, log_a.refused) == (
            log_b.policy_answers, log_b.fallback_answers, log_b.refused
        )
        assert log_a.by_policy == log_b.by_policy
        assert log_a.refused > 0  # the corpus really exercised both arms


class TestTrafficLogSeamParity:
    def test_sampled_batches_flip_like_scalar_loops(self):
        dsts = [parse_address(f"192.0.2.{i % 5 + 1}") for i in range(40)]
        log_a = TrafficLog(sample_rate=0.5, rng=random.Random(42))
        log_b = TrafficLog(sample_rate=0.5, rng=random.Random(42))
        decisions_a = log_a.record_connection_batch(dsts)
        decisions_b = [log_b.record_connection(d) for d in dsts]
        assert decisions_a == decisions_b
        assert 0 < sum(decisions_a) < len(dsts)  # the coin really flipped

        # Requests inherit the connection decision; a few connectionless
        # ``None`` records flip the independent coin in order.
        items = [
            (dst, 1000 + i, decisions_a[i] if i % 4 else None)
            for i, dst in enumerate(dsts)
        ]
        log_a.record_request_batch(items)
        for dst, nbytes, sampled in items:
            log_b.record_request(dst, nbytes, sampled)

        def surface(log):
            return {
                str(addr): (t.requests, t.bytes, t.connections)
                for addr, t in log.by_address().items()
            }

        assert surface(log_a) == surface(log_b)


class TestDatacenterColumnParity:
    """``connect_batch`` / ``serve_batch`` — one ECMP column and one
    home-node column per batch — against the scalar ``connect`` / ``serve``
    loop on twin datacenters: owner per flow, ECMP accounting, who served
    what, and every cache-node counter."""

    @staticmethod
    def _flows(world, n: int, seed: int):
        rng = random.Random(seed)
        pool = parse_prefix("192.0.2.0/24")
        sites = world.universe.sites
        flows = []
        for i in range(n):
            hostname = sites[rng.randrange(len(sites))]
            src = parse_address(f"100.{64 + seed % 64}.{i // 250}.{i % 250 + 1}")
            tuple5 = FiveTuple(Protocol.TCP, src, 20_000 + i, pool.random_address(rng), 443)
            request = Request(hostname, f"/p{rng.randrange(4)}")
            flows.append(((tuple5, ClientHello(sni=hostname), HTTPVersion.H2), request))
        return flows

    @staticmethod
    def _surface(world, connections, responses) -> dict:
        dc = world.dc
        return {
            "owners": [c.owner for c in connections],
            "ecmp": (dc.ecmp.stats.routed, dict(dc.ecmp.stats.per_server)),
            "l4lb": dc.l4lb.stats,
            "ingress": (dc.sheds, dc.syn_drops, dc._chaos_rng.getstate()),
            "responses": [
                (r.status, r.body_len, r.served_by, r.cache_hit, r.latency_s) for r in responses
            ],
            "nodes": {
                name: (node.stats.hits, node.stats.misses, node.stats.evictions,
                       node.stats.bytes_stored, len(node))
                for name, node in dc.cache.nodes().items()
            },
            "servers": {
                name: (s.stats.connections, s.stats.requests, s.stats.bytes_served,
                       s.stats.refused_syns)
                for name, s in dc.servers.items()
            },
        }

    def _drive(self, batched, scalar, flows, hashes: bool):
        """The same flows through both arms; returns the two surfaces."""
        requests = [request for request, _ in flows]
        column = [flow_hash_tuple(t5) for t5, _, _ in requests] if hashes else None
        conns_a = batched.dc.connect_batch(requests, flow_hashes=column)
        conns_b = [scalar.dc.connect(*request) for request in requests]
        served_a = batched.dc.serve_batch([(c, r) for c, (_, r) in zip(conns_a, flows)])
        served_b = [scalar.dc.serve(c, r) for c, (_, r) in zip(conns_b, flows)]
        return (self._surface(batched, conns_a, served_a),
                self._surface(scalar, conns_b, served_b))

    @pytest.mark.parametrize("hashes", [True, False], ids=["hash-column", "hashes-computed"])
    def test_owner_routing_and_cache_counters_identical(self, hashes):
        batched, scalar = _twin_worlds(num_hostnames=24, num_servers=5)
        for seed, n in ((1, 200), (2, 1), (3, 77)):
            a, b = self._drive(batched, scalar, self._flows(batched, n, seed), hashes)
            assert a == b
        assert a["ecmp"][0] == 278 and len(a["ecmp"][1]) == 5
        assert sum(hits for hits, *_ in a["nodes"].values()) > 0

    def test_membership_changes_between_batches_invalidate_the_tables(self):
        """Drain a server from ECMP, drop a cache node, restore the server:
        each batch after a change must route and home like the scalar loop,
        which reads the member list directly."""
        batched, scalar = _twin_worlds(num_hostnames=24, num_servers=5)
        names = sorted(batched.dc.servers)
        steps = (
            lambda dc: None,
            lambda dc: dc.ecmp.remove_server(names[1]),
            lambda dc: dc.cache.remove_node(names[2]),
            lambda dc: dc.ecmp.add_server(names[1]),
        )
        for seed, change in enumerate(steps, start=10):
            change(batched.dc)
            change(scalar.dc)
            a, b = self._drive(batched, scalar, self._flows(batched, 150, seed), hashes=True)
            assert a == b
            if seed == 11:
                assert names[1] not in a["owners"]
            if seed >= 12:
                assert names[2] not in {served_by for _, _, served_by, _, _ in a["responses"]}
        assert names[1] in a["owners"]  # restored, and routed to again

    def test_crash_mid_batch_folds_the_choices_reached_and_no_more(self):
        batched, scalar = _twin_worlds(num_hostnames=24, num_servers=5)
        flows = self._flows(batched, 120, seed=20)
        requests = [request for request, _ in flows]
        victim = batched.dc.ecmp.choose(flow_hash_tuple(requests[40][0]))
        reached = next(i for i, (t5, _, _) in enumerate(requests)
                       if batched.dc.ecmp.choose(flow_hash_tuple(t5)) == victim)
        for world in (batched, scalar):
            world.dc.crash_server(victim)
        with pytest.raises(ConnectionRefusedError):
            batched.dc.connect_batch(requests)
        with pytest.raises(ConnectionRefusedError):
            for request in requests:
                scalar.dc.connect(*request)
        assert self._surface(batched, [], []) == self._surface(scalar, [], [])
        assert batched.dc.ecmp.stats.routed == reached + 1 < len(requests)
        assert batched.dc.connection_count() == reached

    @pytest.mark.parametrize("knobs", [
        {"ingress_loss": 0.3},
        {"capacity": 25},
        {"ingress_loss": 0.2, "capacity": 40},
    ], ids=["lossy", "capped", "both"])
    def test_gated_ingress_drops_the_same_syns_with_the_same_draws(self, knobs):
        """A dropped or shed SYN refuses the batch at that flow: its ECMP
        choice is not counted, and the chaos RNG has drawn exactly once per
        SYN that reached the gate — in both arms."""
        batched, scalar = _twin_worlds(num_hostnames=24, num_servers=5)
        for world in (batched, scalar):
            for knob, value in knobs.items():
                setattr(world.dc, knob, value)
        requests = [request for request, _ in self._flows(batched, 90, seed=30)]
        rest = requests
        while rest:  # resume after each refusal, skipping the refused SYN
            before = batched.dc.connection_count()
            try:
                batched.dc.connect_batch(rest)
                rest = []
            except ConnectionRefusedError:
                rest = rest[batched.dc.connection_count() - before + 1:]
        conns_b = []
        for request in requests:
            try:
                conns_b.append(scalar.dc.connect(*request))
            except ConnectionRefusedError:
                pass
        surface = self._surface(batched, [], [])
        assert surface == self._surface(scalar, [], [])
        assert batched.dc.connection_count() == len(conns_b) == surface["ecmp"][0]
        assert 0 < len(conns_b) < len(requests)

    def test_traced_batches_record_the_scalar_loops_spans(self):
        """With a tracer attached both entries run the same loop, so a batch
        leaves the scalar loop's spans — trace ids, phases, details, count —
        including those of the flow a crashed server refuses or resets."""
        batched, scalar = _twin_worlds(num_hostnames=24, num_servers=5)
        for world in (batched, scalar):
            world.dc.tracer = TraceRecorder(world.clock)

        def spans(world):
            return [(s.trace, s.phase, s.detail) for s in world.dc.tracer]

        flows = self._flows(batched, 60, seed=40)
        requests = [request for request, _ in flows]
        pairs_a = list(zip(batched.dc.connect_batch(requests), (r for _, r in flows)))
        pairs_b = [(scalar.dc.connect(*request), r) for request, r in flows]
        batched.dc.serve_batch(pairs_a)
        for connection, request in pairs_b:
            scalar.dc.serve(connection, request)
        assert spans(batched) == spans(scalar)
        assert len(spans(batched)) == 3 * 60  # ecmp, dispatch, serve per flow
        assert spans(batched)[:2] == [
            ("conn@bench-pop:1", "ecmp", ""),
            ("conn@bench-pop:1", "dispatch", pairs_a[0][0].owner),
        ]
        assert spans(batched)[-1] == ("conn@bench-pop:60", "serve", flows[-1][1].path)

        victim = pairs_a[30][0].owner
        for world in (batched, scalar):
            world.dc.crash_server(victim)
        more = [request for request, _ in self._flows(batched, 60, seed=41)]
        with pytest.raises(ConnectionRefusedError):
            batched.dc.connect_batch(more)
        with pytest.raises(ConnectionRefusedError):
            for request in more:
                scalar.dc.connect(*request)
        reached = batched.dc.connection_count() - 60  # connected before the refusal
        assert spans(batched) == spans(scalar)
        assert len(spans(batched)) == 3 * 60 + 2 * (reached + 1)
        assert spans(batched)[-2:] == [
            (f"conn@bench-pop:{61 + reached}", "ecmp", ""),
            (f"conn@bench-pop:{61 + reached}", "dispatch", victim),
        ]

        with pytest.raises(ConnectionResetError):
            batched.dc.serve_batch(pairs_a)
        with pytest.raises(ConnectionResetError):
            for connection, request in pairs_b:
                scalar.dc.serve(connection, request)
        assert spans(batched) == spans(scalar)
        reset = next(i for i, (c, _) in enumerate(pairs_a) if c.owner == victim)
        assert spans(batched)[-1] == (
            f"conn@bench-pop:{reset + 1}", "serve", pairs_a[reset][1].path
        )
        assert self._surface(batched, [], []) == self._surface(scalar, [], [])

    def test_no_datacenter_container_grows_with_connections(self):
        """What the datacenter knows per connection lives on the
        ``Connection``: 2,000 connects (both entries) and a request on each
        leave every dict / list / set attribute the size it started."""
        world = build_flow_world(num_hostnames=24, num_servers=5)
        dc = world.dc

        def sizes():
            return {name: len(value) for name, value in vars(dc).items()
                    if isinstance(value, (dict, list, set))}

        before = sizes()
        assert "servers" in before
        flows = self._flows(world, 2000, seed=50)
        requests = [request for request, _ in flows]
        connections = dc.connect_batch(requests[:1000])
        connections += [dc.connect(*request) for request in requests[1000:]]
        dc.serve_batch([(c, r) for c, (_, r) in zip(connections, flows)])
        assert dc.connection_count() == 2000
        assert sizes() == before
