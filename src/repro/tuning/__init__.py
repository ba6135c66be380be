"""Adaptive quorum tuning under live traffic (see ``docs/TUNING.md``).

Three pieces close the loop the paper's quorum spectrum opens:

* :class:`~repro.tuning.mix.MixObserver` — windowed per-object
  read/write-mix counters fed by the front-ends' ``op_observer`` hook;
* :mod:`repro.tuning.cost` — a message/latency cost model over the
  kernel-enumerated space of *legal* threshold assignments, with an
  availability floor as constraint;
* :class:`~repro.tuning.tuner.QuorumTuner` — the online controller
  that reconfigures an object (drain-and-prime epoch transaction) when
  the predicted saving clears its hysteresis threshold.
"""

from repro.quorum.search import embed_choice
from repro.tuning.cost import (
    ScoredCandidate,
    assignment_messages,
    choice_availability,
    choice_messages,
    choice_round_trips,
    legal_candidates,
    score_candidates,
)
from repro.tuning.mix import MixObserver
from repro.tuning.tuner import QuorumTuner, TunerConfig

__all__ = [
    "MixObserver",
    "QuorumTuner",
    "ScoredCandidate",
    "TunerConfig",
    "assignment_messages",
    "choice_availability",
    "choice_messages",
    "choice_round_trips",
    "embed_choice",
    "legal_candidates",
    "score_candidates",
]
