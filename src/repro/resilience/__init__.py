"""Resilience layer: retry policies, crash recovery, and chaos sweeps.

The paper's argument is about availability under failure; this package
supplies the client- and repair-side machinery that argument assumes:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy` (bounded
  retries, exponential backoff with deterministic seed-derived jitter
  over simulated time, per-operation :class:`Deadline` budgets, the
  ``degraded_reads`` read-quorum-only fallback), threaded through
  :meth:`FrontEnd.execute` and the :class:`TransactionManager`;
* :mod:`repro.resilience.recovery` — durable per-site journals,
  checkpoints, and exact crash-recovery replay
  (:class:`RecoveryManager`);
* :mod:`repro.resilience.heal` — :class:`PartitionHealDriver`, the
  anti-entropy pass that fires automatically when a partition heals or
  a crashed site recovers;
* :mod:`repro.resilience.chaos` — the seeded chaos sweep behind
  ``python -m repro chaos``: fault schedules composed over the existing
  injectors, applied at transaction boundaries so fault timing does not
  depend on the simulated clock, audited by the online :class:`Auditor`.

See ``docs/RESILIENCE.md`` for the failure model and the mapping from
each fault profile back to the paper's claims.
"""

from __future__ import annotations

from repro.resilience.policy import (
    POLICIES,
    Deadline,
    OperationResult,
    RetryPolicy,
    read_only_operations,
)

__all__ = [
    "POLICIES",
    "Deadline",
    "OperationResult",
    "RetryPolicy",
    "read_only_operations",
    # lazily loaded (PEP 562) to keep the policy module importable from
    # repro.replication.frontend without a cycle:
    "SiteJournal",
    "RecoveryManager",
    "ResilienceRuntime",
    "PartitionHealDriver",
    "PROFILES",
    "ChaosSchedule",
    "generate_schedule",
    "run_chaos_case",
    "run_chaos_sweep",
]

_LAZY = {
    "SiteJournal": "repro.resilience.recovery",
    "RecoveryManager": "repro.resilience.recovery",
    "ResilienceRuntime": "repro.resilience.recovery",
    "PartitionHealDriver": "repro.resilience.heal",
    "PROFILES": "repro.resilience.chaos",
    "ChaosSchedule": "repro.resilience.chaos",
    "generate_schedule": "repro.resilience.chaos",
    "run_chaos_case": "repro.resilience.chaos",
    "run_chaos_sweep": "repro.resilience.chaos",
}


def __getattr__(name: str):
    """Load recovery/heal/chaos symbols on first touch (PEP 562).

    ``frontend.py`` imports :mod:`repro.resilience.policy` at module
    scope; eager imports of the chaos module here would close an import
    cycle through ``replication.cluster`` back to ``frontend``.
    """
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
