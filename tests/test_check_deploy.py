"""Precheck-before-rebind integration: Deployment and HealthMonitor."""

import random

import pytest

from repro.check import CheckError, context_from_deployment, precheck_rebind
from repro.clock import Clock
from repro.core import AddressPool
from repro.core.agility import AgilityController
from repro.deploy import Deployment, DeploymentConfig
from repro.faults import HealthMonitor
from repro.netsim import parse_prefix
from repro.sockets.sklookup import MatchRule, Verdict

from conftest import BACKUP_PREFIX, POOL_PREFIX, make_policy_cdn

BOGUS = parse_prefix("198.18.0.0/24")  # never announced, never listening
SCRUBBED = parse_prefix("203.0.113.0/25")  # half the standby pool


def scrub_ahead(lookup_path):
    """Put a DROP on half the standby pool in front of a server's rules."""
    program = lookup_path.programs()[0]
    rules = program.rules()
    for label in {rule.label for rule in rules}:
        program.remove_rules(label)
    program.add_rule(MatchRule(action=Verdict.DROP, prefixes=(SCRUBBED,), label="scrub"))
    for rule in rules:
        program.add_rule(rule)


@pytest.fixture(scope="module")
def deployment():
    return Deployment.build(DeploymentConfig(num_hostnames=40))


class TestDeploymentCheck:
    def test_shipped_deployment_is_clean(self, deployment):
        report = deployment.check()
        assert report.ok and report.clean

    def test_context_extraction_sees_every_layer(self, deployment):
        ctx = context_from_deployment(deployment)
        assert ctx.policies and ctx.announced and ctx.listening and ctx.programs
        assert ctx.standby_pools[0] is deployment.backup_pool
        assert ctx.service_ports == (80, 443)

    def test_precheck_rebind_flags_a_bogus_pool(self, deployment):
        report = precheck_rebind(
            deployment.cdn, deployment.engine, deployment.config.policy_name,
            AddressPool(BOGUS, name="bogus"),
        )
        assert not report.ok
        assert {f.rule for f in report.errors} >= {"CP001", "CP002"}

    def test_precheck_rebind_unknown_policy_is_loud(self, deployment):
        with pytest.raises(KeyError):
            precheck_rebind(deployment.cdn, deployment.engine, "nope",
                            AddressPool(BOGUS, name="bogus"))


class TestDeploymentManoeuvres:
    def test_legitimate_moves_pass_the_precheck(self):
        dep = Deployment.build(DeploymentConfig(num_hostnames=40,
                                                strict_checks=True))
        dep.shrink_active("192.0.2.0/24")
        dep.failover_to_backup()  # strict mode: would raise on any error

    def test_strict_mode_refuses_a_blackholing_failover(self):
        dep = Deployment.build(DeploymentConfig(num_hostnames=40,
                                                strict_checks=True))
        dep.backup_pool = AddressPool(BOGUS, name="bogus-backup")
        with pytest.raises(CheckError) as exc_info:
            dep.failover_to_backup()
        assert any(f.rule == "CP001" for f in exc_info.value.findings)
        # Refused before enacting: the policy still mints from the old pool.
        assert dep.engine.get(dep.config.policy_name).pool is dep.pool

    def test_strict_mode_refuses_a_failover_into_a_drop(self):
        # The precheck runs every default pass, so the program verifier's
        # SK006 vetoes a standby that a DROP rule half swallows.
        dep = Deployment.build(DeploymentConfig(num_hostnames=40,
                                                strict_checks=True))
        dc = dep.cdn.datacenters[sorted(dep.cdn.datacenters)[0]]
        scrub_ahead(next(iter(dc.servers.values())).lookup_path)
        with pytest.raises(CheckError) as exc_info:
            dep.failover_to_backup()
        sk006 = [f for f in exc_info.value.findings if f.rule == "SK006"]
        assert len(sk006) == 1 and "pool 'backup'" in sk006[0].message
        assert dep.engine.get(dep.config.policy_name).pool is dep.pool

    def test_default_mode_logs_and_proceeds(self, caplog):
        dep = Deployment.build(DeploymentConfig(num_hostnames=40))
        dep.backup_pool = AddressPool(BOGUS, name="bogus-backup")
        with caplog.at_level("WARNING", logger="repro.check"):
            dep.failover_to_backup()
        assert any("precheck" in r.message for r in caplog.records)
        assert dep.engine.get(dep.config.policy_name).pool is dep.backup_pool


class TestMonitorPrecheck:
    def _blackholed_monitor(self, clock, failover_pool, strict):
        cdn, hostnames, engine, _pool = make_policy_cdn(clock)
        cdn.announce_pool(BACKUP_PREFIX, ports=(80, 443))
        controller = AgilityController(engine, clock)
        monitor = HealthMonitor(
            cdn, clock, controller, "randomize-all",
            probe_hostname=hostnames[0],
            vantages=["eyeball:us:0"],
            failover_pool=failover_pool,
            failure_threshold=1,
            rng=random.Random(9),
            strict_checks=strict,
        )
        for pop in list(cdn.pop_names()):
            cdn.network.withdraw_from(POOL_PREFIX, pop)
        return monitor

    def test_good_standby_prechecks_clean_and_swaps(self, clock):
        monitor = self._blackholed_monitor(
            clock, AddressPool(BACKUP_PREFIX, name="backup"), strict=True)
        monitor.tick()
        assert monitor.failed_over
        assert monitor.timeline.first("precheck_failed") is None

    def test_strict_mode_refuses_bogus_standby(self, clock):
        monitor = self._blackholed_monitor(
            clock, AddressPool(BOGUS, name="bogus"), strict=True)
        with pytest.raises(CheckError):
            monitor.tick()
        assert not monitor.failed_over
        event = monitor.timeline.first("precheck_failed")
        assert event is not None and event.phase == "check"

    def test_strict_mode_refuses_a_program_level_error(self, clock):
        # Routed, listened and dispatched, but a DROP takes half the standby:
        # only the program verifier sees it, and it alone refuses the swap.
        monitor = self._blackholed_monitor(
            clock, AddressPool(BACKUP_PREFIX, name="backup"), strict=True)
        dc = monitor.cdn.datacenters[sorted(monitor.cdn.datacenters)[0]]
        scrub_ahead(next(iter(dc.servers.values())).lookup_path)
        with pytest.raises(CheckError) as exc_info:
            monitor.tick()
        assert [f.rule for f in exc_info.value.findings] == ["SK006"]
        assert not monitor.failed_over

    def test_default_mode_records_and_swaps_anyway(self, clock):
        # Availability over purity: an imperfect standby still beats a
        # blackhole, so the default is to log, mark the timeline, and swap.
        monitor = self._blackholed_monitor(
            clock, AddressPool(BOGUS, name="bogus"), strict=False)
        monitor.tick()
        assert monitor.failed_over
        event = monitor.timeline.first("precheck_failed")
        assert event is not None and event.phase == "check"
