"""repro.scenarios — declarative workload scenarios over the simulator.

Declarative traffic shapes (see ``docs/SCENARIOS.md``):

* :class:`ScenarioSpec` + :class:`MixSpec`/:class:`SkewSpec`/
  :class:`ArrivalSpec` — frozen declarative traffic shapes;
* :data:`SCENARIOS` — the frozen catalog (read-dominant, write-heavy,
  hot-key-contention, bursty-flash-crowd, long-transaction, plus the
  byte-identity ``default``), each with a ``doc_ref`` anchor;
* :func:`run_scenario` — one audited run, crossable with the chaos
  profiles and the three mechanisms (:data:`MECHANISMS`);
* :func:`build_scenario` — the one builder of a catalog-traffic run,
  also behind the CLI's ``trace``/``metrics``/``audit`` subcommands
  (``SCENARIOS["default"]`` with its object count replaced);
* the seeded samplers (:func:`zipf_weights`, :func:`hot_key_ranks`,
  :func:`poisson_arrivals`, :func:`bursty_arrivals`).

``python -m repro scenario`` is the CLI entry point;
``tests/test_scenarios.py`` sweeps the full scenario × chaos-profile ×
mechanism matrix.
"""

from repro.scenarios.catalog import SCENARIOS, scenario
from repro.scenarios.runner import (
    MECHANISMS,
    build_scenario,
    compile_arrivals,
    compile_mix,
    run_scenario,
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
    ScenarioSpec,
    SkewSpec,
)

__all__ = [
    "ArrivalSpec",
    "MECHANISMS",
    "MixSpec",
    "SCENARIOS",
    "ScenarioSpec",
    "SkewSpec",
    "build_scenario",
    "bursty_arrivals",
    "compile_arrivals",
    "compile_mix",
    "hot_key_ranks",
    "poisson_arrivals",
    "run_scenario",
    "scenario",
    "zipf_weights",
]
