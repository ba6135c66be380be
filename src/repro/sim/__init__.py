"""Deterministic discrete-event simulation substrate.

The paper assumes a distributed system of sites that crash and a network
whose links fail and partition (Section 3).  This subpackage supplies
that substrate: an event-driven clock (:mod:`repro.sim.kernel`), a
message fabric with latency, loss, crashes, and partitions
(:mod:`repro.sim.network`), failure injection processes
(:mod:`repro.sim.failures`), workload generation
(:mod:`repro.sim.workload`), and measurement (:mod:`repro.sim.metrics`).

Everything is deterministic given a seed, so every run is
reproducible.
"""

from repro.sim.kernel import Simulator
from repro.sim.network import GatherResult, Network, ProbeReply
from repro.sim.failures import CrashInjector, PartitionInjector, FailureScript
from repro.sim.metrics import MetricRecorder
from repro.sim.trials import run_trials

# repro.sim.workload sits above the replication layer (it drives
# front-ends), so it is imported directly rather than re-exported here —
# re-exporting it would create an import cycle with repro.replication.

__all__ = [
    "Simulator",
    "Network",
    "GatherResult",
    "ProbeReply",
    "CrashInjector",
    "PartitionInjector",
    "FailureScript",
    "MetricRecorder",
    "run_trials",
]
