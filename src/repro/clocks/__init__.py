"""Logical clocks and globally ordered timestamps.

The paper orders ``Begin`` and ``Commit`` events with a system of Lamport
clocks [Lamport 78].  This subpackage provides the clock
(:class:`~repro.clocks.lamport.LamportClock`) and the totally ordered
timestamps it generates (:class:`~repro.clocks.timestamps.Timestamp`).
"""

from repro.clocks.lamport import LamportClock
from repro.clocks.timestamps import Timestamp

__all__ = ["LamportClock", "Timestamp"]
