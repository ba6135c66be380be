"""Concurrency control: one scheme per local atomicity property.

The paper's three-way classification of pessimistic atomicity mechanisms
(Section 1) maps to three schemes over the same replicated-object
substrate:

* :class:`~repro.cc.static_ts.StaticTimestampCC` — Reed-style
  begin-timestamp ordering, enforcing **static atomicity**;
* :class:`~repro.cc.locking.DynamicLockingCC` — commutativity-based
  two-phase locking (Schwarz–Spector style), enforcing **strong dynamic
  atomicity**;
* :class:`~repro.cc.hybrid.HybridCC` — commit-time timestamps with
  dependency-based short-term locks (Weihl style), enforcing **hybrid
  atomicity**.

Each scheme both *decides responses* from quorum views and *synchronizes*
concurrent transactions; the end-to-end tests check the behavioral
histories the schemes generate against the theory kernel's membership
checkers for their respective properties.
"""

from repro.cc.base import CCScheme
from repro.cc.static_ts import StaticTimestampCC
from repro.cc.locking import DynamicLockingCC
from repro.cc.hybrid import HybridCC
from repro.cc.conflicts import dependency_conflicts, commutativity_conflicts

__all__ = [
    "CCScheme",
    "StaticTimestampCC",
    "DynamicLockingCC",
    "HybridCC",
    "dependency_conflicts",
    "commutativity_conflicts",
]
