"""Shared benchmark utilities.

Every benchmark regenerates one of the paper's figures/examples and
emits its rows both to stdout (visible with ``pytest -s``) and to
``<name>.txt`` so the EXPERIMENTS.md numbers can be traced to a run.
Machine-readable benchmarks go through :func:`emit_json`, which stamps
every ``BENCH_*.json`` with the environment that produced it — worker
count, CPU budget — so numbers from different machines can be compared
honestly.

Both land in ``benchmarks/run/`` (git-ignored), so running the suite —
the tier-1 command collects this directory — leaves the tree clean.
The tracked copies under ``benchmarks/results/`` change only when
pytest is given ``--record``.

Uniform knobs (apply to every benchmark in this directory):

* ``--jobs N`` — worker processes for kernel derivations and fan-out
  benchmarks (default: the ``REPRO_JOBS`` environment variable, else 1);
* ``--record`` — write result files to the tracked
  ``benchmarks/results/`` instead of the untracked ``benchmarks/run/``.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RUN_DIR = pathlib.Path(__file__).parent / "run"

#: Where :func:`report` and :func:`emit_json` write: the untracked run
#: directory unless the session was started with ``--record``.
_OUTPUT = {"dir": RUN_DIR}

#: What the current benchmark's process-pool actually did.  Benchmarks
#: that shard work across processes call :func:`record_parallelism`
#: before emitting; everything else keeps the honest serial default, so
#: every artifact says whether a pool ran — no artifact implies one did.
_PARALLELISM = {"pool_engaged": False, "parallel_speedup": 1.0}

#: Which workload scenario (``repro.scenarios`` catalog name) drove the
#: current benchmark.  Scenario-aware benchmarks call
#: :func:`record_scenario` before emitting; the honest default is
#: ``"default"`` — the legacy closed-loop uniform workload every
#: pre-catalog artifact implicitly ran.
_SCENARIO = {"name": "default"}


def record_scenario(name: str) -> None:
    """Record the catalog scenario the current benchmark runs.

    Stamped as ``scenario: <name>`` into the next :func:`emit_json`
    environment block, so artifacts from different traffic shapes are
    never compared as if they measured the same workload.
    """
    _SCENARIO["name"] = str(name)


def record_parallelism(pool_engaged: bool, parallel_speedup: float) -> None:
    """Record the current benchmark's real pool behaviour.

    ``pool_engaged`` is whether a process pool actually did work (the
    ``parallel_used`` flag from :func:`repro.sim.trials.run_trials` /
    :func:`repro.compute.parallel.parallel_map` — ``False`` on serial
    fallbacks), and ``parallel_speedup`` the measured one-job /
    sharded wall ratio (1.0 when nothing was sharded).  Both are
    stamped into the next :func:`emit_json` environment block and the
    next :func:`report` footer.
    """
    _PARALLELISM["pool_engaged"] = bool(pool_engaged)
    _PARALLELISM["parallel_speedup"] = float(parallel_speedup)


def report(name: str, text: str) -> None:
    """Print a result block and persist it as ``<name>.txt``.

    A footer line surfaces the pool record for the run (see
    :func:`record_parallelism`), so the human-readable summary and the
    JSON stamp never disagree about whether work was sharded.
    """
    state = "engaged" if _PARALLELISM["pool_engaged"] else "not engaged"
    text = (
        f"{text}\n"
        f"parallelism: pool {state}, "
        f"{_PARALLELISM['parallel_speedup']:.2f}x speedup"
    )
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    _OUTPUT["dir"].mkdir(exist_ok=True)
    (_OUTPUT["dir"] / f"{name}.txt").write_text(text + "\n")


def emit_json(
    name: str,
    payload: dict,
    *,
    jobs: int | None = None,
    objects: int = 1,
    placement: str = "all",
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` with the standard environment stamp.

    ``objects`` and ``placement`` describe the keyspace shape the
    benchmark ran against (``1``/``"all"`` is the legacy single-object
    fully replicated workload), so regression comparisons never
    conflate a one-object run with a sharded one.  The stamp also
    records the process-wide span-retention gauges
    (``obs.retained_spans`` / ``obs.peak_retained``), so any benchmark
    that quietly retained an unbounded trace shows it in its own
    artifact.
    """
    from repro.compute.parallel import available_cpus, resolve_jobs
    from repro.obs.trace import process_peak_retained, process_retained_spans

    stamped = dict(payload)
    stamped["environment"] = {
        "python": platform.python_version(),
        "cpus": available_cpus(),
        "jobs": resolve_jobs(jobs),
        "objects": objects,
        "placement": placement,
        "obs.retained_spans": process_retained_spans(),
        "obs.peak_retained": process_peak_retained(),
        "pool_engaged": _PARALLELISM["pool_engaged"],
        "parallel_speedup": round(_PARALLELISM["parallel_speedup"], 4),
        "scenario": _SCENARIO["name"],
    }
    _OUTPUT["dir"].mkdir(exist_ok=True)
    out = _OUTPUT["dir"] / f"BENCH_{name}.json"
    out.write_text(json.dumps(stamped, indent=2, sort_keys=True) + "\n")
    return out


def pytest_addoption(parser: pytest.Parser) -> None:
    group = parser.getgroup("repro benchmarks")
    group.addoption(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for kernel derivations and fan-out "
        "benchmarks (default: REPRO_JOBS, else 1)",
    )
    group.addoption(
        "--record",
        action="store_true",
        help="write result files to the tracked benchmarks/results/ "
        "(default: the git-ignored benchmarks/run/)",
    )


def pytest_configure(config: pytest.Config) -> None:
    _OUTPUT["dir"] = RESULTS_DIR if config.getoption("--record") else RUN_DIR


@pytest.fixture(autouse=True)
def _reset_parallelism():
    """Reset the pool and scenario records so benchmarks never inherit a
    predecessor's."""
    _PARALLELISM["pool_engaged"] = False
    _PARALLELISM["parallel_speedup"] = 1.0
    _SCENARIO["name"] = "default"
    yield


@pytest.fixture(scope="session")
def bench_jobs(request: pytest.FixtureRequest) -> int:
    """The session's effective ``--jobs`` value."""
    from repro.compute.parallel import resolve_jobs

    return resolve_jobs(request.config.getoption("--jobs"))
