"""Transaction identities and lifecycle state.

Every action carries its Begin timestamp from the moment it starts, and
acquires a Commit timestamp when (and only when) it commits — the two
orderings that static and hybrid atomicity serialize by (Definition 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import itemgetter

from repro.clocks.timestamps import Timestamp


class ActionId(tuple):
    """A globally unique action identifier: sequence number plus home site.

    A ``tuple`` subclass, ``(seq, site)``, for the reason
    :class:`~repro.clocks.timestamps.Timestamp` is one: action ids key the
    log's per-action indexes and the transaction-manager maps on every
    operation, and as a tuple they hash in C, to ``hash((seq, site))``.
    Equality is type-distinct (an action id equals no plain tuple and no
    timestamp).  Action ids are not interned — their key space grows
    with the run.
    """

    __slots__ = ()

    def __new__(cls, seq: int, site: int = 0):
        return tuple.__new__(cls, (seq, site))

    seq = property(itemgetter(0))
    site = property(itemgetter(1))
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is ActionId and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not ActionId or tuple.__ne__(self, other)

    def __reduce__(self):
        return (ActionId, tuple(self))

    def __repr__(self):
        return f"ActionId(seq={self[0]!r}, site={self[1]!r})"

    def __str__(self) -> str:
        return f"T{self[0]}@{self[1]}"

    @staticmethod
    def parse(text: str) -> "ActionId | None":
        """Inverse of ``str()``: ``"T12@3"`` → ``ActionId(12, 3)``.

        Returns ``None`` for anything that is not an action label, so
        callers resolving span attributes can fall back gracefully.
        """
        if not text or text[0] != "T":
            return None
        seq_text, sep, site_text = text[1:].partition("@")
        if not sep:
            return None
        try:
            return ActionId(int(seq_text), int(site_text))
        except ValueError:
            return None


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """Mutable per-transaction record kept by the transaction manager."""

    id: ActionId
    begin_ts: Timestamp
    status: TxnStatus = TxnStatus.ACTIVE
    commit_ts: Timestamp | None = None
    #: Names of replicated objects this transaction has touched.
    touched: set[str] = field(default_factory=set)
    #: Reason recorded when the transaction aborts.
    abort_reason: str | None = None

    @property
    def is_active(self) -> bool:
        return self.status is TxnStatus.ACTIVE

    def __str__(self) -> str:
        return f"{self.id}[{self.status.value}]"
