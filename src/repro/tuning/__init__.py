"""Adaptive quorum tuning under live traffic (see ``docs/TUNING.md``).

Two pieces close the loop the paper's quorum spectrum opens, over the
chooser :func:`~repro.quorum.search.cheapest_assignment` (messages and
round trips under a mix, over the valid threshold layouts of an
object's dependency relation, with an availability floor as
constraint):

* :class:`~repro.tuning.mix.MixObserver` — windowed per-object
  read/write-mix counters fed by the front-ends' ``op_observer`` hook;
* :class:`~repro.tuning.tuner.QuorumTuner` — the online controller
  that reconfigures an object (drain-and-prime epoch transaction) when
  the predicted saving clears its hysteresis threshold.
"""

from repro.tuning.mix import MixObserver
from repro.tuning.tuner import QuorumTuner, TunerConfig

__all__ = ["MixObserver", "QuorumTuner", "TunerConfig"]
