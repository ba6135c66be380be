"""Local atomicity properties and their membership checkers.

Weihl's three local atomicity properties classify the pessimistic
atomicity mechanisms the paper compares:

* **static atomicity** — committed actions serializable in the order of
  their Begin events — generalizes timestamping schemes (Reed);
* **hybrid atomicity** — serializable in the order of Commit events —
  generalizes hybrid timestamp/locking schemes;
* **strong dynamic atomicity** — serializable in *every* order consistent
  with the ``precedes`` order, all serializations equivalent —
  generalizes two-phase locking.

Each property is realized here as a checker for membership in the
largest prefix-closed, on-line behavioral specification satisfying the
property (``Static(T)``, ``Hybrid(T)``, ``Dynamic(T)``).
"""

from repro.atomicity.properties import (
    DynamicAtomicity,
    HybridAtomicity,
    LocalAtomicityProperty,
    StaticAtomicity,
    is_atomic,
    is_serializable_in_some_order,
)
from repro.atomicity.explore import behavioral_histories, ExplorationBounds

__all__ = [
    "LocalAtomicityProperty",
    "StaticAtomicity",
    "HybridAtomicity",
    "DynamicAtomicity",
    "is_atomic",
    "is_serializable_in_some_order",
    "behavioral_histories",
    "ExplorationBounds",
]
