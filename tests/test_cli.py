"""Smoke tests for the ``python -m repro`` subcommand CLI."""

from __future__ import annotations

import json

import pytest

import repro.__main__ as cli

pytestmark = pytest.mark.obs

WORKLOAD = ["--seed", "0", "--sites", "3", "--transactions", "4"]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestTrace:
    def test_tree_shows_full_nesting(self, capsys):
        code, out = run_cli(
            ["trace", "--seed", "0", "--sites", "5", "--format", "tree"], capsys
        )
        assert code == 0
        assert "transaction " in out
        assert "  operation " in out
        assert "    quorum." in out
        assert "      rpc " in out

    def test_chrome_format_is_loadable_json(self, capsys):
        code, out = run_cli(["trace", *WORKLOAD, "--format", "chrome"], capsys)
        assert code == 0
        document = json.loads(out)
        assert document["traceEvents"]
        assert all("ph" in e and "ts" in e for e in document["traceEvents"])

    def test_jsonl_output_file(self, capsys, tmp_path):
        target = tmp_path / "trace.jsonl"
        code, _out = run_cli(
            ["trace", *WORKLOAD, "--format", "jsonl", "-o", str(target)], capsys
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines and all(json.loads(line)["name"] for line in lines)

    def test_deterministic_per_seed(self, capsys):
        _code, first = run_cli(["trace", *WORKLOAD, "--format", "jsonl"], capsys)
        _code, second = run_cli(["trace", *WORKLOAD, "--format", "jsonl"], capsys)
        assert first == second


class TestMetrics:
    def test_table_has_percentile_columns(self, capsys):
        code, out = run_cli(["metrics", *WORKLOAD], capsys)
        assert code == 0
        assert "p50" in out and "p95" in out and "p99" in out
        assert "commit rate" in out

    def test_json_format(self, capsys):
        code, out = run_cli(["metrics", *WORKLOAD, "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"operations", "registry", "network", "mix"}
        for op_stats in payload["operations"].values():
            assert "availability" in op_stats

    def test_crashes_flag_degrades_availability(self, capsys):
        code, out = run_cli(
            ["metrics", "--seed", "2", "--sites", "3", "--transactions", "20",
             "--crashes", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert any(
            stats["availability"] < 1.0
            for stats in payload["operations"].values()
        )


class TestBench:
    def test_reports_throughput_and_profile(self, capsys):
        code, out = run_cli(["bench", *WORKLOAD, "--crashes", "--profile"], capsys)
        assert code == 0
        assert "wall time" in out
        assert "ops/s" in out
        assert "kernel profile" in out
        assert "queue depth" in out

    def test_fault_free_profile_lists_the_wave_legs(self, capsys):
        # A fault-free run dispatches no kernel events: its waves' legs
        # run in place, and the profile still accounts for them.
        code, out = run_cli(["bench", *WORKLOAD, "--profile"], capsys)
        assert code == 0
        assert "no events dispatched" not in out
        assert "network.Network._arrive" in out
        assert "network.Network._deliver" in out


class TestAudit:
    def test_clean_run_exits_zero(self, capsys):
        code, out = run_cli(["audit", *WORKLOAD], capsys)
        assert code == 0
        assert "audit: OK" in out
        assert "one-copy-serializability" in out

    def test_mutated_run_exits_nonzero_and_names_invariant(self, capsys):
        code, out = run_cli(
            ["audit", *WORKLOAD, "--mutate", "quorum-intersection"], capsys
        )
        assert code == 1
        assert "audit: FAIL" in out
        assert "quorum-intersection" in out
        assert "offending span subtree" in out  # forensics rendered

    def test_json_format(self, capsys):
        code, out = run_cli(
            ["audit", *WORKLOAD, "--mutate", "early-lock-release",
             "--format", "json"],
            capsys,
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["ok"] is False
        assert "lock-discipline" in payload["violated_invariants"]
        assert payload["violations"]

    def test_sweep_meets_all_expectations(self, capsys):
        code, out = run_cli(["audit", *WORKLOAD, "--sweep"], capsys)
        assert code == 0, out
        assert "sweep: all expectations met" in out
        assert "FAIL" not in out
        for label in ("clean", "crashes", "partitions", "mutate:"):
            assert label in out

    def test_mutate_choices_match_registry(self):
        # The parser hardcodes its choices to stay import-light; this
        # guards them against drift from the mutation registry.
        import argparse

        from repro.obs.mutations import MUTATIONS

        parser = cli.build_parser()
        args = parser.parse_args(
            ["audit", "--mutate", sorted(MUTATIONS)[0]]
        )
        assert args.mutate in MUTATIONS
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        audit_parser = subparsers.choices["audit"]
        mutate_action = next(
            a for a in audit_parser._actions if a.dest == "mutate"
        )
        assert tuple(mutate_action.choices) == tuple(sorted(MUTATIONS))


class TestReportCompatibility:
    def test_no_args_prints_paper_report(self, capsys, monkeypatch):
        import repro.core.paper

        monkeypatch.setattr(
            repro.core.paper, "paper_report", lambda **kw: "PAPER REPORT STUB"
        )
        code, out = run_cli([], capsys)
        assert code == 0
        assert "PAPER REPORT STUB" in out

    def test_report_subcommand_forwards_fast_flag(self, capsys, monkeypatch):
        import repro.core.paper

        captured_kwargs = {}

        def fake_report(**kwargs):
            captured_kwargs.update(kwargs)
            return "FAST STUB"

        monkeypatch.setattr(repro.core.paper, "paper_report", fake_report)
        code, out = run_cli(["report", "--fast"], capsys)
        assert code == 0
        assert "FAST STUB" in out
        assert captured_kwargs == {"fast_theorems": True, "jobs": None}

    def test_unknown_subcommand_errors(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["explode"])


class TestScenario:
    def test_list_prints_the_catalog(self, capsys):
        from repro.scenarios import SCENARIOS

        code, out = run_cli(["scenario", "--list"], capsys)
        assert code == 0
        for name in SCENARIOS:
            assert name in out

    def test_default_scenario_passes(self, capsys):
        code, out = run_cli(["scenario", "default"], capsys)
        assert code == 0
        assert "verdict: PASS" in out
        assert "audit: clean" in out

    def test_json_verdict_is_loadable_and_fingerprinted(self, capsys):
        code, out = run_cli(
            ["scenario", "default", "--format", "json"], capsys
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["ok"] is True
        assert verdict["fingerprint"]["audit_ok"] is True
        assert verdict["scenario"] == "default"

    def test_chaos_crossing_from_the_cli(self, capsys):
        code, out = run_cli(
            [
                "scenario",
                "read-dominant",
                "--mechanism",
                "blocking",
                "--profile",
                "crash",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["scheme"] == "dynamic"
        assert verdict["policy"] == "default"
        assert verdict["fingerprint"]["converged"] is True

    def test_no_name_without_list_errors(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["scenario"])

    def _choices(self, parser_name, dest):
        import argparse

        parser = cli.build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        sub = subparsers.choices[parser_name]
        action = next(a for a in sub._actions if a.dest == dest)
        return tuple(action.choices)

    def test_name_choices_match_catalog(self):
        # The parser hardcodes its choices to stay import-light; these
        # guards keep them in lockstep with the scenario registries.
        from repro.scenarios import SCENARIOS

        assert self._choices("scenario", "name") == tuple(sorted(SCENARIOS))

    def test_mechanism_choices_match_registry(self):
        from repro.scenarios import MECHANISMS

        assert self._choices("scenario", "mechanism") == tuple(
            sorted(MECHANISMS)
        )

    def test_profile_choices_match_chaos_profiles(self):
        from repro.resilience.chaos import PROFILES

        assert self._choices("scenario", "profile") == ("none", *PROFILES)
