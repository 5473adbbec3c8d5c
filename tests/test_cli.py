"""CLI: every subcommand parses, runs at small scale, and prints a table."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_parse(self):
        parser = build_parser()
        for argv in (
            ["fig7", "--sites", "100", "--requests", "500"],
            ["fig8", "--sessions", "5"],
            ["fig9", "--ttl", "10"],
            ["dos", "--n", "50", "--k", "4"],
            ["reduction"],
            ["ttl"],
            ["spillover", "--clients", "4"],
            ["coloring"],
            ["dnsload", "--sessions", "5"],
            ["scaling"],
            ["list"],
            ["metrics"],
            ["metrics", "--experiment", "failover", "--format", "prom"],
            ["chaos", "--seed", "7", "--campaigns", "2"],
            ["chaos", "--campaign", "c.json", "--json"],
            ["chaos", "--minimize", "c.json", "--invariant", "recovery",
             "--expect-minimal", "pop_outage"],
            ["bgp", "--seed", "7"],
            ["bgp", "--json"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_attack_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dos", "--attack", "psychological"])


class TestExecution:
    def run(self, argv, capsys) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_list(self, capsys):
        out = self.run(["list"], capsys)
        assert "fig7" in out and "coloring" in out

    def test_reduction(self, capsys):
        out = self.run(["reduction", "--hostnames", "1000"], capsys)
        assert "94.4%" in out and "99.7%" in out

    def test_scaling(self, capsys):
        out = self.run(["scaling"], capsys)
        assert "/20" in out and "sk_lookup" in out

    def test_fig7_small(self, capsys):
        out = self.run(["fig7", "--sites", "60", "--requests", "400"], capsys)
        assert "7a" in out and "one" in out

    def test_fig9_small(self, capsys):
        out = self.run(["fig9", "--ttl", "10"], capsys)
        assert "leak detected" in out

    def test_dos_small(self, capsys):
        out = self.run(["dos", "--n", "40", "--k", "4"], capsys)
        assert "L7" in out

    def test_ttl(self, capsys):
        out = self.run(["ttl", "--ttl", "10"], capsys)
        assert "honest" in out


class TestExecutionSlowPaths:
    """The remaining subcommands, at minimum scale."""

    def run(self, argv, capsys) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_fig8_small(self, capsys):
        out = self.run(["fig8", "--sessions", "20", "--sites", "60"], capsys)
        assert "one-ip" in out and "rest-of-world" in out

    def test_spillover_small(self, capsys):
        out = self.run(["spillover", "--clients", "6"], capsys)
        assert "IPv4" in out and "IPv6" in out

    def test_dnsload_small(self, capsys):
        out = self.run(["dnsload", "--sessions", "8"], capsys)
        assert "queries/request" in out

    def test_coloring(self, capsys):
        out = self.run(["coloring"], capsys)
        assert "prefixes (colours)" in out


class TestChaosCommand:
    FIXTURE = "tests/fixtures/chaos_bad_campaign.json"

    def run(self, argv, capsys) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_chaos_soak_small(self, capsys):
        out = self.run(["chaos", "--seed", "7", "--campaigns", "2",
                        "--horizon", "100", "--clients", "2", "--sites", "6"],
                       capsys)
        assert "campaign-7-000" in out and "all invariants hold" in out

    def test_chaos_json_is_deterministic(self, capsys):
        argv = ["chaos", "--seed", "7", "--campaigns", "2",
                "--horizon", "100", "--clients", "2", "--sites", "6", "--json"]
        a = self.run(argv, capsys)
        b = self.run(argv, capsys)
        assert a == b
        assert len(json.loads(a)) == 2

    def test_bad_campaign_replay_fails(self, capsys):
        assert main(["chaos", "--campaign", self.FIXTURE]) == 1
        out = capsys.readouterr().out
        assert "recovery" in out

    def test_bad_campaign_minimizes_to_golden(self, capsys):
        out = self.run(["chaos", "--minimize", self.FIXTURE,
                        "--invariant", "recovery",
                        "--expect-minimal", "pop_outage"], capsys)
        assert "pop_outage" in out

    def test_wrong_golden_fails(self, capsys):
        assert main(["chaos", "--minimize", self.FIXTURE,
                     "--invariant", "recovery",
                     "--expect-minimal", "server_crash"]) == 1

    def test_unreadable_campaign_exits_2(self, capsys):
        assert main(["chaos", "--campaign", "no/such/file.json"]) == 2

    @pytest.mark.parametrize("fault, key, value, message", [
        (2, "drop", 0, "faults[2]: lossy_link drop must be in (0, 1], got 0"),
        (1, "pop", "nowhere", "faults[1].params.pop: unknown PoP 'nowhere'"),
    ])
    def test_bad_fault_exits_2_at_load(self, tmp_path, capsys, monkeypatch,
                                       fault, key, value, message):
        """A bad fault parameter or PoP is refused when the campaign loads,
        naming its JSON path and value, before any world is built."""
        with open(self.FIXTURE) as fh:
            campaign = json.load(fh)
        campaign["faults"][fault]["params"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(campaign))

        def no_world(*args):
            raise AssertionError("a chaos world was built for an invalid campaign")

        monkeypatch.setattr("repro.chaos.runner.build_world", no_world)
        assert main(["chaos", "--campaign", str(path)]) == 2
        assert message in capsys.readouterr().out


class TestBGPCommand:
    def run(self, argv, capsys) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_bgp_json_reports_all_scenarios(self, capsys):
        doc = json.loads(self.run(["bgp", "--json"], capsys))
        names = {report["campaign"] for report in doc}
        assert names == {"e19-withdraw-static", "e19-withdraw-speakers",
                         "e19-leak-speakers", "e19-slow-withdraw-speakers"}
        speakers = [r for r in doc if "routing" in r]
        assert len(speakers) == 3
        assert all(not r["violations"] for r in doc)

    def test_bgp_table_render(self, capsys):
        out = self.run(["bgp"], capsys)
        assert "scenario" in out and "converge" in out
        assert "equal" in out  # oracle column for speakers scenarios


class TestMetricsCommand:
    def run(self, argv, capsys) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_metrics_json_document(self, capsys):
        doc = json.loads(self.run(["metrics"], capsys))
        assert doc["experiment"] == "ttl"
        counters = doc["metrics"]["counters"]
        assert counters["ttl.honest.resolver.client_queries"] > 0
        assert "ttl.flip_seconds" in doc["metrics"]["histograms"]

    def test_metrics_prometheus_format(self, capsys):
        out = self.run(["metrics", "--format", "prom"], capsys)
        assert "# TYPE repro_ttl_honest_resolver_client_queries counter" in out

    def test_metrics_bad_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metrics", "--experiment", "vibes"])

    def test_metrics_out_and_diff(self, capsys, tmp_path):
        before, after = tmp_path / "a.json", tmp_path / "b.json"
        self.run(["metrics", "--out", str(before)], capsys)
        # Hand-bump one counter so the diff has a known delta.
        doc = json.loads(before.read_text())
        doc["metrics"]["counters"]["ttl.honest.resolver.client_queries"] += 5
        after.write_text(json.dumps(doc))
        out = self.run(["metrics", "--diff", str(before), str(after)], capsys)
        assert "ttl.honest.resolver.client_queries" in out and "+5" in out
