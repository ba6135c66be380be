"""The five pinned workloads, as rounds of separately timed cells.

A workload is an object with ``start(seed, quick)`` → the round's state,
``cells(state)`` → :class:`Cell` s and ``finish(state)`` → the round's
seeded counts plus every correctness-gate miss.  A cell is built
(``setup``, timed as set-up), run (``run``, timed; together the cells
are the round), folded into the round's counts (``done``) and dropped
before the next one is built: the heap a cell runs in stays as small as
one cluster, so what a full collection costs inside the timed part does
not depend on how many cells came before.  A round repeats exactly the
same seeded work, so its counts must be identical each time — :mod:`run`
fails the run otherwise.

Load model of the four ``sim`` workloads: closed loop inside one
single-threaded simulated process, client count = the scenario's
``concurrency``, constant injected one-way message delay
``Network.latency = 1.0`` simulated units, no message loss, batched rpc.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from repro.compute.artifacts import clear_memory_cache, derive_artifacts
from repro.core import theorems
from repro.obs.audit import DEFAULT_STREAM_WINDOW, Auditor
from repro.obs.metrics import Histogram
from repro.obs.trace import Tracer
from repro.resilience.policy import POLICIES
from repro.scenarios import runner
from repro.sim.workload import WorkloadGenerator
from repro.spec.legality import LegalityOracle
from repro.types import PROM, Account, Bag, FlagSet, Queue

_SERVED = ("ok", "degraded")


@dataclass(frozen=True)
class Cell:
    name: str
    setup: Callable[[], object]  #: → what ``run`` and ``done`` are given
    run: Callable[[object], None]
    done: Callable[[object], None] = lambda _built: None


class Tally:
    """Seeded counts of one round's simulated cells."""

    def __init__(self) -> None:
        self.attempted = self.served = self.committed = self.aborted = 0
        self.messages = 0
        self.sim_time = 0.0
        self.latency = Histogram()
        self.digest = hashlib.sha256()
        self.failed = 0
        self.problems: list[str] = []
        self.extra: dict[str, float] = {}

    def add(self, recorder, *, messages: int, sim_time: float, fingerprint: str) -> None:
        self.attempted += sum(recorder.outcomes.values())
        self.served += sum(
            n for (_op, outcome), n in recorder.outcomes.items() if outcome in _SERVED)
        self.committed += recorder.committed_transactions
        self.aborted += recorder.aborted_transactions
        self.messages += messages
        self.sim_time += sim_time
        for histogram in recorder.registry.histograms.values():
            self.latency.merge(histogram)
        self.digest.update(fingerprint.encode())

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "served": self.served,
            "committed": self.committed,
            "aborted": self.aborted,
            "messages": self.messages,
            "sim_time": self.sim_time,
            "latency_mean": self.latency.mean,
            "latency_p99": self.latency.p99,
            "latency_samples": self.latency.count,
            "digest": self.digest.hexdigest(),
            "failed": self.failed,
            "problems": self.problems,
            **self.extra,
        }


class ScenarioCells:
    """A catalog scenario × one mechanism, fault-free, one cell per seed."""

    kind = "sim"

    def __init__(self, name, scenario, mechanism, transactions, seeds):
        self.name = name
        self.scenario, self.mechanism = scenario, mechanism
        self.transactions, self.seeds = transactions, seeds

    def start(self, seed: int, quick: bool):
        transactions, seeds = (100, 1) if quick else (self.transactions, self.seeds)
        return SimpleNamespace(transactions=transactions, seeds=range(seed, seed + seeds),
                               tally=Tally())

    def cells(self, state):
        def setup(s):
            cluster, generator, names = runner.build_scenario(
                self.scenario, seed=s, mechanism=self.mechanism,
                transactions=state.transactions)
            return SimpleNamespace(
                seed=s, cluster=cluster, generator=generator, names=names, recorder=None)

        def run(one):
            one.recorder = one.generator.run(state.transactions)

        def done(one):
            cluster, recorder, tally = one.cluster, one.recorder, state.tally
            histories = {
                name: str(cluster.tm.object(name).recorder.to_behavioral_history())
                for name in one.names
            }
            tally.add(
                recorder,
                messages=cluster.network.messages_sent,
                sim_time=cluster.sim.now,
                fingerprint=json.dumps(
                    [sorted((f"{op}/{o}", n) for (op, o), n in recorder.outcomes.items()),
                     histories],
                    sort_keys=True),
            )
            active = sum(1 for t in cluster.tm.transactions() if t.is_active)
            finished = recorder.committed_transactions + recorder.aborted_transactions
            if active or finished < state.transactions:
                tally.failed += active + max(0, state.transactions - finished)
                tally.problems.append(
                    f"seed {one.seed}: {active} transactions left active, "
                    f"{finished}/{state.transactions} finished")

        return [Cell(f"seed{s}", lambda s=s: setup(s), run, done) for s in state.seeds]

    def finish(self, state) -> dict:
        return state.tally.result()


@contextmanager
def _recorders():
    """Collect the ``MetricRecorder`` each ``WorkloadGenerator.run`` returns.

    ``run_scenario`` hands back outcome counts but no latency samples;
    this tap on the driver's return value (one call per cell, traced and
    untraced alike) is the only place the benchmark touches the program
    outside a ``--traced`` round.
    """
    taken = []
    original = WorkloadGenerator.run

    def run(self, total_transactions):
        recorder = original(self, total_transactions)
        taken.append(recorder)
        return recorder

    WorkloadGenerator.run = run
    try:
        yield taken
    finally:
        WorkloadGenerator.run = original


class AuditedChaos:
    """``write-heavy`` under the ``mixed`` fault profile, streaming-audited."""

    name = "audited-chaos"
    kind = "sim"
    mechanisms = ("hybrid", "blocking", "multiversion")

    def start(self, seed: int, quick: bool):
        transactions, seeds = (100, 1) if quick else (150, 6)
        grid = [(m, s) for m in self.mechanisms for s in range(seed, seed + seeds)]
        return SimpleNamespace(transactions=transactions, grid=grid, tally=Tally(),
                               violations=0, faults=0, peak=0)

    def cells(self, state):
        def setup(mechanism, s):
            # run_scenario builds its own cluster inside the timed cell, so
            # set-up time is measured on a throw-away copy of what it builds.
            cluster, _generator, _names = runner.build_scenario(
                "write-heavy", seed=s, mechanism=mechanism, transactions=state.transactions,
                tracer=Tracer(retention="ring", window=DEFAULT_STREAM_WINDOW))
            cluster.enable_resilience(POLICIES["default"])
            Auditor(cluster, mode="streaming", window=DEFAULT_STREAM_WINDOW)
            return SimpleNamespace(mechanism=mechanism, seed=s, verdict=None, recorders=None)

        def run(one):
            with _recorders() as taken:
                one.verdict = runner.run_scenario(
                    "write-heavy", seed=one.seed, mechanism=one.mechanism, profile="mixed",
                    streaming=True, transactions=state.transactions)
            one.recorders = taken

        def done(one):
            verdict, (recorder,) = one.verdict, one.recorders
            fingerprint = verdict["fingerprint"]
            state.tally.add(
                recorder,
                messages=fingerprint["messages_sent"],
                sim_time=verdict["timing"]["sim_time"],
                fingerprint=json.dumps(fingerprint, sort_keys=True),
            )
            state.violations += verdict["violations"]
            state.faults += fingerprint["faults_applied"]
            state.peak = max(state.peak, verdict["timing"]["peak_retained"])
            for gate, passed in (
                ("verdict ok", verdict["ok"]),
                ("zero violations", verdict["violations"] == 0),
                ("replicas converged", fingerprint["converged"]),
                ("full accounting", verdict["counts"]["accounted"]),
            ):
                if not passed:
                    state.tally.problems.append(
                        f"{one.mechanism} seed {one.seed}: {gate} failed")

        return [Cell(f"{m}-seed{s}", lambda m=m, s=s: setup(m, s), run, done)
                for m, s in state.grid]

    def finish(self, state) -> dict:
        tally = state.tally
        tally.failed = state.violations
        tally.extra = {"violations": state.violations, "faults_applied": state.faults,
                       "peak_retained": state.peak}
        return tally.result()


class TheoryBattery:
    """Cold-cache artifact derivations, then the fast theorem battery."""

    name = "theory-battery"
    kind = "theory"
    plan = ((Queue, 4), (PROM, 4), (FlagSet, 3), (Account, 3), (Bag, 3))
    #: ``verify_all_theorems(fast=True, jobs=1)``, one cell per theorem.
    battery = (
        ("thm4", "verify_theorem_4", {"serial_bound": 3, "max_ops": 2, "jobs": 1}),
        ("thm5", "verify_theorem_5", {"max_ops": 3}),
        ("thm6", "verify_theorem_6", {"serial_bound": 3, "max_ops": 2, "jobs": 1}),
        ("thm10", "verify_theorem_10", {"serial_bound": 3, "max_ops": 2, "jobs": 1}),
        ("thm11", "verify_theorem_11", {"serial_bound": 3, "max_ops": 2, "jobs": 1}),
        ("thm12", "verify_theorem_12", {"jobs": 1}),
        ("flagset", "verify_flagset_two_minimals", {"max_ops": 4}),
    )

    def __init__(self, scratch: str):
        self.scratch = scratch

    def start(self, seed: int, quick: bool):
        # No random input: ``seed`` is accepted and changes nothing.
        cache_dir = tempfile.mkdtemp(prefix="kernel-cache-", dir=self.scratch)
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        clear_memory_cache()
        battery = [step for step in self.battery if not (quick and step[0] == "thm5")]
        return SimpleNamespace(cache_dir=cache_dir, battery=battery, digests={}, results={})

    def cells(self, state):
        def oracle(cls):
            datatype = cls()
            return datatype, LegalityOracle(datatype)

        def derive(built, bound):
            datatype, legality = built
            artifacts = derive_artifacts(datatype, bound, legality, jobs=1)
            state.digests[f"{datatype.name}@{bound}"] = hashlib.sha256(
                artifacts.canonical_text().encode()).hexdigest()

        def verify(label, function, kwargs):
            # Looked up at call time so a traced round times the wrapper.
            state.results[label] = getattr(theorems, function)(**kwargs)

        return [
            Cell(f"derive-{cls.__name__}@{bound}", lambda cls=cls: oracle(cls),
                 lambda built, bound=bound: derive(built, bound))
            for cls, bound in self.plan
        ] + [
            Cell(step[0], lambda: None, lambda _none, step=step: verify(*step))
            for step in state.battery
        ]

    def finish(self, state) -> dict:
        digests, results = state.digests, state.results
        shutil.rmtree(state.cache_dir, ignore_errors=True)
        failing = [label for label, result in results.items() if not result.holds]
        digest = hashlib.sha256(json.dumps(
            [digests, {label: r.summary() for label, r in results.items()}],
            sort_keys=True).encode()).hexdigest()
        steps = len(digests) + len(results)
        return {
            "attempted": steps,
            "served": steps - len(failing),
            "digest": digest,
            "artifact_digests": digests,
            "failed": len(failing),
            "problems": [f"{label} does not hold" for label in failing],
        }


def workloads(scratch: str) -> dict:
    """Name → workload.  Why each is pinned: ``BENCHMARK.json``, ``README.md``."""
    pinned = (
        ScenarioCells("short-history", "read-dominant", "hybrid", 300, 12),
        ScenarioCells("long-history", "default", "multiversion", 450, 3),
        ScenarioCells("contended-blocking", "hot-key-contention", "blocking", 200, 24),
        AuditedChaos(),
        TheoryBattery(scratch),
    )
    return {workload.name: workload for workload in pinned}
