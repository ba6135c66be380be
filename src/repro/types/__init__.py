"""The atomic data type library.

The four types the paper's proofs revolve around:

* :class:`~repro.types.queue.Queue` — FIFO queue (Sections 3, 5);
* :class:`~repro.types.prom.PROM` — write-then-seal-then-read container
  (Section 4, Theorem 5);
* :class:`~repro.types.flagset.FlagSet` — the type with two distinct
  minimal hybrid dependency relations (Section 4);
* :class:`~repro.types.doublebuffer.DoubleBuffer` — producer/consumer
  buffers (Section 5, Theorem 12);

plus a standard library of types used by the replication runtime,
examples, and claim rows: Register (Gifford-style file), Counter, Bag,
Directory, Account, Stack, SemiQueue (nondeterministic), and an
append-only Log.
"""

from repro.types.queue import Queue
from repro.types.prom import PROM
from repro.types.flagset import FlagSet
from repro.types.doublebuffer import DoubleBuffer
from repro.types.register import Register
from repro.types.counter import Counter
from repro.types.bag import Bag
from repro.types.directory import Directory
from repro.types.account import Account
from repro.types.stack import Stack
from repro.types.semiqueue import SemiQueue
from repro.types.logobject import LogObject
from repro.types.priorityqueue import PriorityQueue
from repro.types.mutex import Mutex
from repro.types.sequencer import Sequencer

from repro.spec.datatype import SerialDataType


def paper_types() -> tuple[SerialDataType, ...]:
    """The four data types whose properties the paper proves."""
    return (Queue(), PROM(), FlagSet(), DoubleBuffer())


def standard_types() -> tuple[SerialDataType, ...]:
    """Every built-in type, with default generator alphabets."""
    return paper_types() + (
        Register(),
        Counter(),
        Bag(),
        Directory(),
        Account(),
        Stack(),
        SemiQueue(),
        LogObject(),
        PriorityQueue(),
        Mutex(),
        Sequencer(),
    )


__all__ = [
    "Queue",
    "PROM",
    "FlagSet",
    "DoubleBuffer",
    "Register",
    "Counter",
    "Bag",
    "Directory",
    "Account",
    "Stack",
    "SemiQueue",
    "LogObject",
    "PriorityQueue",
    "Mutex",
    "Sequencer",
    "paper_types",
    "standard_types",
]
