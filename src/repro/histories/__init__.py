"""Histories: the vocabulary of the paper's model of computation.

Section 3 of the paper defines *events* (invocation/response pairs),
*serial histories* (sequences of events), and *behavioral histories*
(sequences of Begin events, operation executions, Commit events, and
Abort events, each associated with an action).  This subpackage provides
those structures, the serialization machinery used by Definitions 3 and 7
(static, hybrid, and dynamic serializations), and equivalence of serial
histories.
"""

from repro.histories.events import (
    OK,
    Event,
    Invocation,
    Response,
    event,
    ok,
    signal,
)
from repro.histories.behavioral import (
    Abort,
    Begin,
    BehavioralHistory,
    Commit,
    Entry,
    Op,
)
from repro.histories.serialization import (
    hybrid_serializations,
    precedes_pairs,
    serialize,
    static_serializations,
)

__all__ = [
    "OK",
    "Event",
    "Invocation",
    "Response",
    "event",
    "ok",
    "signal",
    "Abort",
    "Begin",
    "BehavioralHistory",
    "Commit",
    "Entry",
    "Op",
    "serialize",
    "static_serializations",
    "hybrid_serializations",
    "precedes_pairs",
]
