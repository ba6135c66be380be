"""The paper's contribution: its theorems and claims, machine-checked.

* :mod:`repro.core.theorems` — every theorem of the paper as an
  executable, machine-checked statement with explicit bounds;
* :mod:`repro.core.claims` — the paper's results and figures as one
  table of rows, each computing, asserting and rendering its result;
  ``python -m repro report`` prints them.
"""

from repro.core.theorems import TheoremResult

__all__ = ["TheoremResult"]
