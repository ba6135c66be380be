"""Smoke tests for the ``python -m repro`` subcommand CLI."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

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
        assert "served=[" in out and "      rpc " not in out

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


MIX_WORKLOADS = {
    "one-queue": ["--seed", "0", "--sites", "3", "--transactions", "4"],
    "six-objects": ["--objects", "6", "--transactions", "60"],
    "crashes": ["--objects", "4", "--crashes", "--transactions", "60"],
    "lossy-ring": ["--objects", "6", "--placement", "ring", "--drop-probability", "0.1"],
}


class TestMetricsMix:
    """The per-object read/write mix, checked against the run's own
    operation counters: each recorded operation is one that returned."""

    @staticmethod
    def _payload(argv, capsys):
        code, out = run_cli(["metrics", *argv, "--format", "json"], capsys)
        assert code == 0
        return json.loads(out)

    @pytest.mark.parametrize("workload", sorted(MIX_WORKLOADS))
    def test_the_mix_counts_every_returned_operation(self, workload, capsys):
        payload = self._payload(MIX_WORKLOADS[workload], capsys)
        counters = payload["registry"]["counters"]
        returned = sum(
            value for name, value in counters.items() if name.endswith(".ok")
        )
        mixed = sum(row["reads"] + row["writes"] for row in payload["mix"].values())
        assert mixed == returned
        # Only Counter and Register name a read-only operation, ``Read``.
        reads = sum(row["reads"] for row in payload["mix"].values())
        assert reads == counters.get("ops.Read.ok", 0)

    @pytest.mark.parametrize("workload", sorted(MIX_WORKLOADS))
    def test_the_read_fraction_is_reads_over_operations(self, workload, capsys):
        payload = self._payload(MIX_WORKLOADS[workload], capsys)
        for name, row in payload["mix"].items():
            assert row["object"] == name
            total = row["reads"] + row["writes"]
            if total:
                assert row["read_fraction"] == row["reads"] / total
            else:
                assert row["read_fraction"] is None
            if name.startswith("queue"):
                assert row["reads"] == 0

    def test_an_object_that_ran_nothing_has_no_fraction(self):
        cluster, _generator = cli._standard_workload(
            {
                "seed": 0,
                "sites": 3,
                "drop_probability": 0.0,
                "objects": 4,
                "placement": "all",
                "crashes": False,
                "partitions": False,
            }
        )
        rows = cli._mix_rows(cluster)
        assert [row["object"] for row in rows] == sorted(cluster.tm.objects)
        for row in rows:
            assert (row["reads"], row["writes"], row["read_fraction"]) == (0, 0, None)

    def test_the_table_renders_the_json_rows(self, capsys):
        argv = MIX_WORKLOADS["six-objects"]
        payload = self._payload(argv, capsys)
        _code, out = run_cli(["metrics", *argv], capsys)
        table = out[out.index("per-object read/write mix:"):].splitlines()
        assert len(table) == 3 + len(payload["mix"])
        assert table[1].split() == ["object", "reads", "writes", "read%", "assignment"]
        for line, (name, row) in zip(table[3:], sorted(payload["mix"].items())):
            fields = line.split(maxsplit=4)
            assert fields[:3] == [name, str(row["reads"]), str(row["writes"])]
            assert fields[3] == f"{100 * row['read_fraction']:.2f}"
            assert fields[4] == row["assignment"]

    def test_the_operations_table_renders_the_json_summary(self, capsys):
        payload = self._payload(WORKLOAD, capsys)
        _code, out = run_cli(["metrics", *WORKLOAD], capsys)
        lines = out.splitlines()
        assert lines[0].split()[:2] == ["operation", "attempts"]
        rows = dict(line.split(maxsplit=1) for line in lines[2:2 + len(payload["operations"])])
        assert sorted(rows) == sorted(payload["operations"])
        for op, stats in payload["operations"].items():
            fields = rows[op].split()
            assert fields[0] == str(int(stats["attempts"]))
            assert fields[5] == f"{100 * stats['availability']:.2f}"
            assert fields[9] == f"{stats['latency_p99']:.2f}"


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

    def test_sweep_json_is_its_rows(self, capsys, tmp_path):
        from repro.obs.mutations import EXPECTED_INVARIANT

        code, out = run_cli(
            ["audit", *WORKLOAD, "--sweep", "--format", "json",
             "--artifacts", str(tmp_path)],
            capsys,
        )  # fmt: skip
        assert code == 0
        sweep = json.loads(out)
        assert sweep["ok"] is True
        cases = {case["case"]: case for case in sweep["cases"]}
        assert len(cases) == 3 + len(EXPECTED_INVARIANT)
        for label in ("clean", "crashes", "partitions"):
            assert cases[label]["expect"] == "green"
            assert cases[label]["violated_invariants"] == []
        for name, invariant in EXPECTED_INVARIANT.items():
            assert invariant in cases[f"mutate:{name}"]["violated_invariants"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["sweep"] == sweep
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert plan["observability"]["mutate"] == sorted(EXPECTED_INVARIANT)


class TestPositiveSizes:
    """Every size, count and window flag refuses zero and negatives as a
    usage error, before anything runs."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--stream", "--format", "jsonl", "--window", "0"],
            ["audit", "--streaming", "--window", "0"],
            ["audit", "--streaming", "--window", "-3"],
            ["soak", "--quick", "--window", "0"],
            ["scenario", "default", "--window", "0"],
            ["audit", "--objects", "0"],
            ["chaos", "--objects", "0"],
            ["soak", "--quick", "--objects", "0"],
            ["soak", "--quick", "--replication-factor", "0"],
            ["audit", "--window", "four"],
            ["metrics", "--sites", "0"],
            ["audit", "--sites", "0"],
            ["trace", "--sites", "0"],
            ["chaos", "--sites", "0"],
            ["scenario", "default", "--sites", "0"],
            ["soak", "--quick", "--sites", "0"],
            ["metrics", "--transactions", "-1"],
            ["chaos", "--transactions", "0"],
            ["scenario", "default", "--transactions", "0"],
            ["chaos", "--seeds", "0"],
            ["chaos", "--seeds", "-2"],
            ["soak", "--ops", "0"],
            ["soak", "--quick", "--compact-every", "0"],
        ],
        ids=" ".join,
    )
    def test_exit_code_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "positive integer" in err or "not an integer" in err

    def test_streaming_window_is_reported_as_given(self, capsys):
        code, out = run_cli(
            ["audit", *WORKLOAD, "--streaming", "--window", "16", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["window"] == 16


#: SHA-256 of every subcommand's ``(dest, option strings, default,
#: choices, type)``, one line per flag in ``--help`` order, taken while
#: each subcommand still built its own parser.
_FLAG_DUMP_SHA256 = "e1782fa60f2f7de946268ecf034a6b87f542c52a4cac662915b8b7d6108b7e58"


def test_every_flag_is_pinned():
    parser = cli.build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    lines = [
        repr((
            name,
            action.dest,
            action.option_strings,
            action.default,
            None if action.choices is None else list(action.choices),
            getattr(action.type, "__name__", action.type),
        ))
        for name, subparser in subparsers.choices.items()
        for action in subparser._actions
        if action.dest != "help"
    ]
    assert len(lines) == 74
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _FLAG_DUMP_SHA256


#: (argv, what the usage error says) for values that are not sizes.
_USAGE_ERRORS = [
    (["metrics", "--drop-probability", "1.5"], "probability in [0, 1)"),
    (["audit", "--drop-probability", "1"], "probability in [0, 1)"),
    (["trace", "--drop-probability", "-0.1"], "probability in [0, 1)"),
    (["metrics", "--drop-probability", "half"], "not a number"),
    (["scenario", "default", "--policy", "bogus"], "invalid choice"),
    (["chaos", "--policies", "bogus"], "invalid choice"),
    (["bench"], "invalid choice"),
    (
        ["chaos", "--seeds", "1", "--transactions", "4", "--placement", "ring"],
        "--placement needs --objects",
    ),
]


class TestOtherUsageErrors:
    """Out-of-range values that are not sizes also stop at the parser."""

    @pytest.mark.parametrize(
        "argv, message",
        _USAGE_ERRORS,
        ids=[" ".join(argv) for argv, _message in _USAGE_ERRORS],
    )
    def test_exit_code_two(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2
        assert message in capsys.readouterr().err

    def test_the_entry_point_exits_two(self):
        # ``python -m repro`` as a shell starts it, not ``main`` in-process.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        child = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--seeds", "0"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 2
        assert "not a positive integer" in child.stderr

    def test_chaos_sweep_refuses_an_empty_seed_list(self):
        from repro.resilience.chaos import run_chaos_sweep

        with pytest.raises(ValueError):
            run_chaos_sweep(seeds=())

    def test_chaos_refuses_a_placement_without_a_keyspace(self):
        # The classic queue/register pair is fully replicated: a ring
        # placement would be recorded in the verdict but never applied.
        from repro.resilience.chaos import run_chaos_case, run_chaos_sweep

        with pytest.raises(ValueError, match="needs objects"):
            run_chaos_case(seed=0, placement="ring")
        with pytest.raises(ValueError, match="needs objects"):
            run_chaos_sweep(seeds=(0,), placement="ring")


class TestUnwritableDestinations:
    """A destination that cannot be written ends the run with one line
    and exit status 1 (``SystemExit`` carrying the message), as ``-o`` to
    a missing directory already does on the non-streaming path."""

    def _exits_cannot_write(self, argv, path):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        message = exited.value.code
        assert isinstance(message, str)  # printed to stderr, exit status 1
        assert message.startswith(f"python -m repro: cannot write {path}: ")

    def test_streamed_trace_to_a_missing_directory(self, tmp_path):
        path = str(tmp_path / "missing" / "x.jsonl")
        self._exits_cannot_write(
            ["trace", *WORKLOAD, "--stream", "--format", "jsonl", "-o", path], path
        )

    def test_soak_artifacts_under_a_regular_file(self, tmp_path):
        regular = tmp_path / "file"
        regular.write_text("")
        path = str(regular / "sub")
        self._exits_cannot_write(["soak", "--ops", "100", "--artifacts", path], path)


class TestReportCompatibility:
    def test_no_args_prints_paper_report(self, capsys, monkeypatch):
        from repro.core import claims

        monkeypatch.setattr(
            claims, "paper_report", lambda **kw: claims.Report("PAPER REPORT STUB")
        )
        code, out = run_cli([], capsys)
        assert code == 0
        assert "PAPER REPORT STUB" in out

    def test_report_subcommand_forwards_fast_flag(self, capsys, monkeypatch):
        from repro.core import claims

        captured_kwargs = {}

        def fake_report(**kwargs):
            captured_kwargs.update(kwargs)
            return claims.Report("FAST STUB")

        monkeypatch.setattr(claims, "paper_report", fake_report)
        code, out = run_cli(["report", "--fast"], capsys)
        assert code == 0
        assert "FAST STUB" in out
        assert captured_kwargs == {"fast_theorems": True}

    def test_report_jobs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(["report", "--jobs", "2"])
        assert exited.value.code == 2

    def test_a_row_that_does_not_hold_fails_the_report(
        self, capsys, monkeypatch, tmp_path
    ):
        from dataclasses import replace

        from repro.core import claims

        figure, catalog = claims.CLAIMS[0], claims.CLAIMS[-1]
        broken = replace(
            catalog, check=lambda bounds: replace(catalog.check(bounds), holds=False)
        )
        monkeypatch.setattr(claims, "CLAIMS", (figure, broken))
        for argv in (["report", "--artifacts", str(tmp_path)], []):
            code, out = run_cli(argv, capsys)
            assert code == 1
            assert "Figure 1-1 — concurrency relations" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ok"] is False and report["failed"] == ["Type catalog"]
        plan = json.loads((tmp_path / "plan.json").read_text())
        assert plan["config"] == {"fast": False}

        monkeypatch.setattr(claims, "CLAIMS", (figure, catalog))
        code, _out = run_cli(["report", "--artifacts", str(tmp_path)], capsys)
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["ok"] is True and report["failed"] == []

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

    def test_list_json_is_the_catalog(self, capsys):
        from repro.scenarios import SCENARIOS

        code, out = run_cli(["scenario", "--list", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out) == {
            name: spec.description for name, spec in SCENARIOS.items()
        }

    def test_no_name_without_list_errors(self, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(["scenario"])
        assert exited.value.code == 2
        assert "name a scenario or pass --list" in capsys.readouterr().err

    def test_list_with_artifacts_is_a_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exited:
            cli.main(["scenario", "--list", "--artifacts", str(tmp_path / "out")])
        assert exited.value.code == 2
        assert "--list writes no artifacts" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSoakText:
    def test_the_text_shows_the_verdict_the_window_and_the_maintenance(self, capsys):
        code, out = run_cli(["soak", "--ops", "300", "--window", "64"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("soak: ") and "seed 0" in lines[0]
        header = lines[2].split()
        assert header[:4] == ["retention", "window", "peak", "retained"]
        retention, window, peak, within = lines[4].split()[:4]
        assert (retention, window, within) == ("ring", "64", "OK")
        assert 0 < int(peak) <= 64
        (maintenance,) = [line for line in lines if line.startswith("maintenance: ")]
        assert "rounds" in maintenance and "transactions retired" in maintenance
        assert "audit: no violations" in lines
        assert lines[-1] == "verdict: PASS"


#: (argv, SHA-256 of stdout) for the standard workload and the audited
#: runs, taken while the CLI's workload subcommands still had their own
#: builder beside ``build_scenario`` and ``run_chaos_case`` still ran its
#: own copy of the audited lifecycle.  Both paths agreed on every row;
#: the pins hold the one builder and the one lifecycle to those bytes.
#: The multi-object and chaos rows were re-taken, each exiting 0, when
#: the standard keyspace moved to one scheme (every object hybrid).  The
#: audit and scenario rows were re-taken when protocol steps replaced
#: per-probe records: only ``spans_seen`` and the retained-span gauges
#: moved.  The chaos rows were re-taken when the sweep rows' recovery
#: columns became repaired-entry quantiles; nothing else moved.
_STANDARD_WORKLOAD_PINS = [
    (["metrics"], "f2d05057ec2f7747c474a5dc693b18c955d9a47c03f50a3e4e9ed2591446ee1c"),
    (["audit"], "4b60f4cb05d7d10a805fe491bf23dd895d77bc3e5181648a32f144c089b60555"),
    (
        ["metrics", "--objects", "5", "--placement", "ring", "--sites", "6"],
        "282da72e184481bc199ccae9c2dab98a65b9392037ba33a5a41a7bb44be0a949",
    ),
    (
        ["audit", "--objects", "5", "--placement", "ring", "--sites", "6"],
        "38adc5812c2240463673913c0c1f94812c57dff63ffbd4798954c1d5255edd4b",
    ),
    (
        ["metrics", "--objects", "4", "--crashes", "--drop-probability", "0.05"],
        "a101371841acc5b25f8275850b50c382df8043cc68ca193629d7c676022c60ec",
    ),
    (
        ["audit", "--objects", "4", "--crashes", "--drop-probability", "0.05"],
        "f3339043eacbfb3abe5671ec5e287b28cc0afea44097ac7b5d4fe0b93fb2faac",
    ),
    (
        ["audit", "--objects", "3", "--partitions"],
        "72626e59ca1ab551fcd57b529a1383f43e3e4df448d578404e3a3294cab93e33",
    ),
    (
        ["metrics", "--placement", "ring"],
        "7561497da5fd19e6598072e8e511535444e0465a223d940f948c36fc90c15e31",
    ),
    (
        ["audit", "--objects", "4", "--placement", "ring", "--sites", "5",
         "--streaming", "--window", "16"],
        "9b372e34e3f88585e70487d159c020b48a95f49eb77d2bcdee210753c7131a4f",
    ),
    (
        ["chaos", "--seeds", "2", "--profile", "mixed", "--objects", "4",
         "--placement", "ring"],
        "40dfe70b8649d5b45ac18d03b9b43ce2187dbb9b04b1da1b85cc6c3c1d5be86e",
    ),
    (
        ["chaos", "--seeds", "1", "--profile", "crash"],
        "ccd41449f26dc8eaad9e2ec8d6b680de054afcf9dfdab19956ec7c357b2a042a",
    ),
    (
        ["scenario", "write-heavy"],
        "b315409df35f21b22efc369a8e93a8b125e0a60565e43f48223da9431b61984e",
    ),
    (
        ["scenario", "default", "--profile", "mixed"],
        "c0296629939b2fc2798d75d778c0d316e3e0a3336a404318ff71c2f605ef5a04",
    ),
    (
        ["scenario", "hot-key-contention", "--profile", "churn", "--deep-audit"],
        "543c07c0330e8a3406441a107e962f9234cd08f78db8f56c305a7f1421c0e7b7",
    ),
]

#: ``trace --format jsonl`` digests, same provenance; re-taken when the
#: ``rpc`` spans and ``repo.*`` events gave way to step attributes.
_TRACE_PINS = [
    ([], "9fdeae4b334f8f69a61edebc934e059990c37d95c483c67d5631e239dc02adc1"),
    (
        ["--objects", "5", "--placement", "ring", "--sites", "6"],
        "7ddb16bc888b77e83e98106ad661c6055c5ab30655855f4d14f8b5b7dd0bfe66",
    ),
]


class TestStandardWorkloadPins:
    """``--format json`` output of the workload, audit, chaos and scenario
    subcommands, byte for byte, across the shapes no golden row covers:
    ring placement, crashes with message loss, partitions, streaming."""

    @staticmethod
    def _digest(argv, capsys) -> str:
        code, out = run_cli(argv, capsys)
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    @pytest.mark.parametrize(
        "argv, digest",
        _STANDARD_WORKLOAD_PINS,
        ids=[" ".join(argv) for argv, _digest in _STANDARD_WORKLOAD_PINS],
    )
    def test_json_output_is_pinned(self, argv, digest, capsys):
        assert self._digest([*argv, "--format", "json"], capsys) == digest

    @pytest.mark.parametrize(
        "argv, digest",
        _TRACE_PINS,
        ids=[" ".join(["trace", *argv]) for argv, _digest in _TRACE_PINS],
    )
    def test_trace_is_pinned(self, argv, digest, capsys):
        assert self._digest(["trace", *argv, "--format", "jsonl"], capsys) == digest


#: (argv, plan.json digest, report.json digest) for ``--artifacts DIR``.
#: Each file is its canonical dump (sorted keys, two-space indent, one
#: trailing newline); the digest is of that dump with the wall-clock
#: fields (``elapsed``, ``ops_per_sec``) dropped.  The chaos report was
#: re-taken with the chaos rows of ``_STANDARD_WORKLOAD_PINS``.
_ARTIFACT_PINS = [
    (
        ["audit"],
        "f1741e35a466f9749a9142a1f5c5b7e3056e7da472beadf337d9abc3fb10b6fd",
        "8c0de1bbad71a862b59562fc7a9b09acddbdf032d86c62cd0e709abf1f944d37",
    ),
    (
        ["chaos", "--seeds", "1", "--profile", "crash"],
        "eefd151d0f0ad09afb6770384489aebe8f1a32445ef0afeb571a9db4de05cee2",
        "0349d8024c4903975dd7800174856a9ccc29641f60f3a2c97a5647ffc74b40a7",
    ),
    (
        ["scenario", "default"],
        "345cf6c7be96db5de281ccb3622cc8488933d45703323ebcd2250ed0f9eec0fb",
        "97d083139fae63ffbf83f34d2569f116455f180d82f64aa46562a20a4310c8b3",
    ),
    (
        ["soak", "--ops", "300"],
        "3b9a0d4e7037651ad7624dbfdc2e71251156cbda2f5e40b954d27abecf8a7a4c",
        "8aa8dc3e5c024cca82269fcfb89994d8e1274629fe1cb022ef67ce3ae52aa34e",
    ),
]

_WALL_CLOCK_FIELDS = frozenset({"elapsed", "ops_per_sec"})


def _without_wall_clock(value):
    if isinstance(value, dict):
        return {
            key: _without_wall_clock(item)
            for key, item in value.items()
            if key not in _WALL_CLOCK_FIELDS
        }
    if isinstance(value, list):
        return [_without_wall_clock(item) for item in value]
    return value


class TestArtifactPins:
    """The ``plan.json``/``report.json`` pair each subcommand writes: the
    artifact envelope (discriminator, version, command, ``ok``) around
    sections pinned byte for byte, less the wall clock."""

    @pytest.mark.parametrize(
        "argv, plan_digest, report_digest",
        _ARTIFACT_PINS,
        ids=[" ".join(argv) for argv, _plan, _report in _ARTIFACT_PINS],
    )
    def test_artifact_pair_is_pinned(
        self, argv, plan_digest, report_digest, capsys, tmp_path
    ):
        code, _out = run_cli([*argv, "--artifacts", str(tmp_path)], capsys)
        assert code == 0
        texts = [(tmp_path / name).read_text() for name in ("plan.json", "report.json")]
        plan, report = (json.loads(text) for text in texts)
        for text, document in zip(texts, (plan, report)):
            assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"
        assert (plan["artifact"], plan["version"], plan["command"]) == (
            "plan", 1, argv[0],
        )
        assert (
            report["artifact"], report["version"], report["command"], report["ok"]
        ) == ("report", 1, argv[0], True)
        assert [
            hashlib.sha256(
                json.dumps(
                    _without_wall_clock(document), indent=2, sort_keys=True
                ).encode()
            ).hexdigest()
            for document in (plan, report)
        ] == [plan_digest, report_digest]


#: Every mode of every subcommand, as the cheapest argv that runs it.
_MODES = {
    "report": [["--fast"]],
    "trace": [WORKLOAD],
    "metrics": [WORKLOAD],
    "chaos": [["--seeds", "1", "--profile", "crash", "--transactions", "4"]],
    "audit": [WORKLOAD, [*WORKLOAD, "--mutate", "early-lock-release"],
              [*WORKLOAD, "--sweep"]],
    "soak": [["--ops", "100"]],
    "scenario": [["default", "--transactions", "4"], ["--list"]],
}  # fmt: skip


def _accepts(command, flag: str):
    """The settings of ``command``'s ``flag``, or ``None``."""
    for names, settings in command.flags:
        if flag in names:
            return settings
    return None


def _mode_cases(predicate):
    return [
        pytest.param(command.name, argv, id=" ".join([command.name, *argv]))
        for command in cli.COMMANDS
        if predicate(command)
        for argv in _MODES[command.name]
    ]


def test_every_subcommand_has_its_modes_listed():
    assert set(_MODES) == {command.name for command in cli.COMMANDS}


class TestEveryMode:
    """Each subcommand and mode keeps the frame's promises: ``--format
    json`` prints exactly one JSON document, and ``--artifacts DIR``
    writes the ``plan.json``/``report.json`` pair or is a usage error."""

    @pytest.mark.parametrize(
        "name, argv",
        _mode_cases(
            lambda c: "json" in ((_accepts(c, "--format") or {}).get("choices") or ())
        ),
    )
    def test_json_is_one_document(self, name, argv, capsys):
        code, out = run_cli([name, *argv, "--format", "json"], capsys)
        assert code in (0, 1)
        json.loads(out)  # raises on text, on nothing and on a second document

    @pytest.mark.parametrize(
        "name, argv", _mode_cases(lambda c: _accepts(c, "--artifacts") is not None)
    )
    def test_artifacts_are_written_or_refused(self, name, argv, capsys, tmp_path):
        target = tmp_path / "artifacts"
        try:
            code, _out = run_cli([name, *argv, "--artifacts", str(target)], capsys)
        except SystemExit as exited:
            assert exited.code == 2
            assert not target.exists()
            return
        assert code in (0, 1)
        for artifact in ("plan", "report"):
            document = json.loads((target / f"{artifact}.json").read_text())
            assert (document["artifact"], document["command"]) == (artifact, name)
