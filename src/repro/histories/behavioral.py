"""Behavioral histories.

In the presence of failure and concurrency, an object's state is given by
a *behavioral history*: a sequence of Begin events, operation executions,
Commit events, and Abort events, each associated with an action (paper,
Section 3.1).  :class:`BehavioralHistory` is an immutable sequence of
:class:`Entry` values together with the derived per-action information
the serialization machinery needs: begin order, commit order, the set of
active actions, and the ``precedes`` partial order of Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import SpecificationError
from repro.histories.events import Event

#: Actions are identified by short hashable names ("A", "B", ...) in the
#: theory kernel and by structured ids in the replication runtime.
Action = str


@dataclass(frozen=True, slots=True)
class Begin:
    """``Begin A`` — action ``action`` starts."""

    action: Action

    def __str__(self) -> str:
        return f"Begin {self.action}"


@dataclass(frozen=True, slots=True)
class Commit:
    """``Commit A`` — action ``action`` commits."""

    action: Action

    def __str__(self) -> str:
        return f"Commit {self.action}"


@dataclass(frozen=True, slots=True)
class Abort:
    """``Abort A`` — action ``action`` aborts; its effects are undone."""

    action: Action

    def __str__(self) -> str:
        return f"Abort {self.action}"


@dataclass(frozen=True, slots=True)
class Op:
    """``[e A]`` — action ``action`` executes event ``event``."""

    event: Event
    action: Action

    def __str__(self) -> str:
        return f"{self.event} {self.action}"


Entry = Begin | Commit | Abort | Op


def _after(index: int, entry: Entry, begun, committed, aborted, active):
    """``(begun, committed, aborted, active)`` once ``entry`` stands at
    ``index`` after a history in that state; raises if it may not."""
    action = entry.action
    if isinstance(entry, Begin):
        if action in begun:
            raise SpecificationError(f"entry {index}: action {action} begins twice")
        return begun + (action,), committed, aborted, active | {action}
    if action not in active:
        problem = "after terminating" if action in begun else "before its Begin"
        raise SpecificationError(f"entry {index}: action {action} acts {problem}")
    if isinstance(entry, Commit):
        return begun, committed + (action,), aborted, active - {action}
    if isinstance(entry, Abort):
        return begun, committed, aborted | {action}, active - {action}
    return begun, committed, aborted, active


class BehavioralHistory:
    """An immutable, well-formed behavioral history.

    Well-formedness (checked on construction, and on :meth:`append`
    against the parent's state — one entry, not the whole history):

    * an action's ``Begin`` precedes all its other entries;
    * each action begins, commits, and aborts at most once;
    * no action both commits and aborts;
    * no operation entry follows the action's ``Commit`` or ``Abort``.

    The *order* of ``Begin`` entries is taken as the Lamport begin-time
    order used by static atomicity, and the order of ``Commit`` entries
    as the Lamport commit-time order used by hybrid atomicity
    (Definition 3): representing timestamps positionally keeps the kernel
    purely combinatorial.

    A history made by :meth:`append` links to the one it extends — that
    object is its longest proper prefix, and its per-action events are
    the parent's plus one.  Equality and hashing read the entries alone.
    """

    __slots__ = (
        "_entries", "_begun", "_committed", "_aborted", "_active", "_parent",
        "_hash", "_events_of", "_committed_set", "_actions",
    )

    def __init__(self, entries: Iterable[Entry] = ()):
        entries = tuple(entries)
        state = (), (), frozenset(), frozenset()
        for index, entry in enumerate(entries):
            state = _after(index, entry, *state)
        self._set(entries, None, *state)

    def _set(self, entries, parent, begun, committed, aborted, active) -> None:
        self._entries: tuple[Entry, ...] = entries
        self._parent: BehavioralHistory | None = parent
        self._begun: tuple[Action, ...] = begun
        self._committed: tuple[Action, ...] = committed
        self._aborted: frozenset[Action] = aborted
        self._active: frozenset[Action] = active
        self._hash: int | None = None
        self._events_of: dict[Action, tuple[Event, ...]] | None = None
        self._committed_set: frozenset[Action] | None = None
        self._actions: frozenset[Action] | None = None

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> Entry:
        return self._entries[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BehavioralHistory) and self._entries == other._entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._entries)
        return self._hash

    def __str__(self) -> str:
        return "\n".join(str(entry) for entry in self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BehavioralHistory({list(map(str, self._entries))!r})"

    # -- derived action information ----------------------------------------

    @property
    def entries(self) -> tuple[Entry, ...]:
        return self._entries

    @property
    def begin_order(self) -> tuple[Action, ...]:
        """All actions, in the order of their Begin events."""
        return self._begun

    @property
    def commit_order(self) -> tuple[Action, ...]:
        """Committed actions, in the order of their Commit events."""
        return self._committed

    @property
    def committed(self) -> frozenset[Action]:
        if self._committed_set is None:
            self._committed_set = frozenset(self._committed)
        return self._committed_set

    @property
    def aborted(self) -> frozenset[Action]:
        return self._aborted

    @property
    def active(self) -> frozenset[Action]:
        """Actions that have begun but neither committed nor aborted."""
        return self._active

    @property
    def actions(self) -> frozenset[Action]:
        if self._actions is None:
            self._actions = frozenset(self._begun)
        return self._actions

    def ops(self) -> tuple[Op, ...]:
        """All operation entries, in history order."""
        return tuple(e for e in self._entries if isinstance(e, Op))

    def events_of(self, action: Action) -> tuple[Event, ...]:
        """The events executed by ``action``, in history order.

        Tabulated per action on first use, from the nearest
        :meth:`append` ancestor that has a table: one entry further than
        a tabulated history reads one entry.
        """
        table = self._events_of
        if table is None:
            base = self._parent
            while base is not None and base._events_of is None:
                base = base._parent
            table = {} if base is None else dict(base._events_of)
            for entry in self._entries[0 if base is None else len(base._entries):]:
                if isinstance(entry, Op):
                    table[entry.action] = table.get(entry.action, ()) + (entry.event,)
            self._events_of = table
        return table.get(action, ())

    # -- construction helpers ----------------------------------------------

    def append(self, entry: Entry) -> "BehavioralHistory":
        """Return a new history with ``entry`` appended (that entry checked)."""
        state = _after(
            len(self._entries), entry,
            self._begun, self._committed, self._aborted, self._active,
        )
        child = object.__new__(BehavioralHistory)
        child._set(self._entries + (entry,), self, *state)
        return child

    def subhistory(self, kept_ops: frozenset[int]) -> "BehavioralHistory":
        """This history without its operation entries at indices outside
        ``kept_ops``: as well-formed as this one, in the same state."""
        kept = object.__new__(BehavioralHistory)
        kept._set(
            tuple(
                entry
                for index, entry in enumerate(self._entries)
                if not isinstance(entry, Op) or index in kept_ops
            ),
            None, self._begun, self._committed, self._aborted, self._active,
        )
        return kept

    def prefix(self, length: int) -> "BehavioralHistory":
        """Return the prefix consisting of the first ``length`` entries:
        the history this one grew from by :meth:`append`, if one did."""
        history = self
        while len(history._entries) > length and history._parent is not None:
            history = history._parent
        if len(history._entries) == length:
            return history
        return BehavioralHistory(self._entries[:length])

    def prefixes(self) -> Iterator["BehavioralHistory"]:
        """Yield every proper and improper prefix, shortest first."""
        for length in range(len(self._entries) + 1):
            yield self.prefix(length)

    def commit_all(self, actions: Iterable[Action]) -> "BehavioralHistory":
        """Return a new history with Commit entries appended for ``actions``.

        The actions are committed in the iteration order given, which
        therefore fixes their relative commit-time order.
        """
        history = self
        for action in actions:
            history = history.append(Commit(action))
        return history

    @staticmethod
    def build(*entries: Entry) -> "BehavioralHistory":
        """Construct a history from entries given as positional arguments."""
        return BehavioralHistory(entries)


def run_serially(pairs: Iterable[tuple[Action, Iterable[Event]]]) -> BehavioralHistory:
    """Build the behavioral history in which each action runs serially.

    ``pairs`` is a sequence of ``(action, events)`` pairs; each action
    begins, executes its events, and commits before the next action
    begins.  This is the ``[h A]`` notation from the proof of Theorem 6.
    """
    entries: list[Entry] = []
    for action, events in pairs:
        entries.append(Begin(action))
        for ev in events:
            entries.append(Op(ev, action))
        entries.append(Commit(action))
    return BehavioralHistory(entries)
