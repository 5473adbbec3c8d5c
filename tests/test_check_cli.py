"""``python -m repro check``: exit codes, golden output, config errors."""

import os

import pytest

from repro.check.cli import UnknownCheckerError, run_check
from repro.cli import main

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
BROKEN = os.path.join(FIXTURES, "broken_check.json")
GOLDEN = os.path.join(FIXTURES, "broken_check.golden")
STANDBY_DROP = os.path.join(FIXTURES, "standby_drop_check.json")


class TestBrokenFixture:
    def test_broken_config_exits_nonzero(self):
        output, code = run_check(config=BROKEN)
        assert code == 1
        # The three headline defects the fixture plants:
        assert "SK002" in output          # shadowed rule
        assert "CP001" in output          # uncovered pool
        assert "DT002" in output          # unseeded random

    def test_output_matches_golden(self):
        # Findings are rendered sorted and all sampling is seeded, so the
        # report is byte-stable run to run and machine to machine.
        output, _ = run_check(config=BROKEN)
        with open(GOLDEN, encoding="utf-8") as handle:
            assert output + "\n" == handle.read()

    def test_runs_are_deterministic(self):
        assert run_check(config=BROKEN) == run_check(config=BROKEN)


class TestStandbyDropFixture:
    def test_drop_ahead_of_the_standby_redirect_fails(self):
        # A DROP takes half the standby pool ahead of its live redirect; a
        # failover would blackhole that half.
        output, code = run_check(config=STANDBY_DROP)
        assert code == 1
        assert "CP004 [standby-undispatched] standby:standby" in output
        assert "203.0.113.0/25 tcp 80" in output


class TestExitCodes:
    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        output, code = run_check(config=str(bad))
        assert code == 2 and "check-config error" in output

    def test_unknown_key_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"advertized": ["192.0.2.0/24"]}')
        output, code = run_check(config=str(bad))
        assert code == 2 and "advertized" in output

    @pytest.mark.parametrize("policy,complaint", [
        # A bare string silently became the set {"l", "h", "r"}: "ok — no findings".
        ({"match": {"pop": "lhr"}}, "match: pop must be a list, got 'lhr'"),
        # These escaped as TypeError tracebacks.
        ({"pool": "192.0.2.0/24"}, "pool must be an object"),
        ({"ttl": None}, "ttl must be an integer"),
    ])
    def test_malformed_policy_spec_exits_2_with_one_line(self, tmp_path, capsys,
                                                         policy, complaint):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "advertised": ["192.0.2.0/24"],
            "policies": [{"name": "p", "pool": {"advertised": "192.0.2.0/24"}, **policy}],
        }))
        assert main(["check", str(bad)]) == 2
        out = capsys.readouterr().out.strip()
        assert "\n" not in out
        assert out.startswith("check-config error:") and "policies[0]: policy 'p'" in out
        assert complaint in out

    def test_warnings_pass_unless_strict(self, tmp_path):
        mod = tmp_path / "warn_only.py"
        mod.write_text("def f(x, q=[]):\n    q.append(x)\n")
        relaxed = run_check(no_deployment=True, lint=[str(tmp_path)])
        strict = run_check(no_deployment=True, lint=[str(tmp_path)], strict=True)
        assert relaxed[1] == 0 and "DT005" in relaxed[0]
        assert strict[1] == 1

    def test_no_lint_skips_the_pass(self):
        output, code = run_check(config=BROKEN, no_lint=True)
        assert code == 1
        assert "DT00" not in output


class TestShippedConfiguration:
    def test_default_deployment_and_sources_are_clean(self):
        # The acceptance gate: the shipped deployment and the shipped
        # sources (determinism lint included) come back with no findings.
        output, code = run_check()
        assert code == 0
        assert output.startswith("ok — no findings")
        assert "4 checker(s)" in output  # program, controlplane, symbolic, determinism


class TestMainEntry:
    def test_main_propagates_failure_code(self, capsys):
        assert main(["check", BROKEN]) == 1
        assert "SK002" in capsys.readouterr().out

    def test_main_success_on_empty_context(self, capsys):
        assert main(["check", "--no-deployment", "--no-lint"]) == 0
        assert "ok — no findings" in capsys.readouterr().out


class TestOnlySelection:
    def test_only_restricts_the_run_to_named_checkers(self):
        output, code = run_check(config=BROKEN, only=["program"], no_lint=True)
        assert code == 1
        assert "SK002" in output and "CP001" not in output

    def test_only_names_deduplicate_preserving_order(self):
        once = run_check(config=BROKEN, only=["program"], no_lint=True)
        twice = run_check(config=BROKEN, only=["program", "program"], no_lint=True)
        assert once == twice

    def test_unknown_name_is_a_typed_error(self):
        with pytest.raises(UnknownCheckerError) as exc:
            run_check(no_deployment=True, only=["nosuch"])
        assert exc.value.checker == "nosuch"
        assert exc.value.known == ("controlplane", "determinism", "program",
                                   "symbolic")
        assert "known checkers:" in str(exc.value)

    def test_main_maps_unknown_checker_to_exit_2(self, capsys):
        assert main(["check", "--no-deployment", "--only", "nosuch"]) == 2
        out = capsys.readouterr().out
        assert "unknown checker 'nosuch'" in out and "symbolic" in out


class TestSymbolicByDefault:
    def test_symbolic_run_over_the_seed_deployment_is_clean(self):
        output, code = run_check(no_lint=True)
        assert code == 0
        assert output.startswith("ok — no findings")
        assert "3 checker(s)" in output  # program, controlplane, symbolic

    def test_only_symbolic_runs_just_that_pass(self):
        output, code = run_check(only=["symbolic"], no_lint=True)
        assert code == 0 and "1 checker(s)" in output

    def test_the_symbolic_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--symbolic"])
        assert "--symbolic" in capsys.readouterr().err
