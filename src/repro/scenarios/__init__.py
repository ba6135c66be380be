"""repro.scenarios — declarative workload scenarios over the simulator.

The pluggable workload framework (see ``docs/SCENARIOS.md``):

* :class:`ScenarioWorkload` — the user-supplied workload class
  contract (``init()``/``run()``), pgWorkload-style;
* :class:`ScenarioSpec` + :class:`MixSpec`/:class:`SkewSpec`/
  :class:`ArrivalSpec` — frozen declarative traffic shapes;
* :data:`SCENARIOS` — the frozen catalog (read-dominant, write-heavy,
  hot-key-contention, bursty-flash-crowd, long-transaction, plus the
  byte-identity ``default``), each with a ``doc_ref`` anchor;
* :func:`run_scenario` — one audited run, crossable with the chaos
  profiles and the three mechanisms (:data:`MECHANISMS`);
* :func:`build_workload` — the standard tier-1 workload the CLI's
  ``trace``/``metrics``/``bench``/``audit`` subcommands drive;
* the seeded samplers (:func:`zipf_weights`, :func:`hot_key_ranks`,
  :func:`poisson_arrivals`, :func:`bursty_arrivals`).

``python -m repro scenario`` is the CLI entry point;
``benchmarks/bench_scenario_matrix.py`` sweeps the full
scenario × chaos-profile × mechanism matrix.
"""

from repro.scenarios.catalog import SCENARIOS, scenario
from repro.scenarios.runner import (
    MECHANISMS,
    build_scenario,
    build_workload,
    compile_arrivals,
    compile_mix,
    run_scenario,
    scenario_keyspace,
)
from repro.scenarios.sampler import (
    bursty_arrivals,
    hot_key_ranks,
    poisson_arrivals,
    zipf_weights,
)
from repro.scenarios.spec import (
    ArrivalSpec,
    MixSpec,
    MixWorkload,
    ScenarioSpec,
    ScenarioWorkload,
    SkewSpec,
)

__all__ = [
    "ArrivalSpec",
    "MECHANISMS",
    "MixSpec",
    "MixWorkload",
    "SCENARIOS",
    "ScenarioSpec",
    "ScenarioWorkload",
    "SkewSpec",
    "build_scenario",
    "build_workload",
    "bursty_arrivals",
    "compile_arrivals",
    "compile_mix",
    "hot_key_ranks",
    "poisson_arrivals",
    "run_scenario",
    "scenario",
    "scenario_keyspace",
    "zipf_weights",
]
