"""Timestamped event logs (paper, Figure 3-1).

A replicated object's state is a log: a sequence of entries, each
consisting of a timestamp, an event, and an action identifier.  Logs are
partially replicated among repositories; a front-end reconstructs a
view by *merging* the logs of an initial quorum.  Merge is a set union
ordered by timestamp, which makes it idempotent, commutative, and
associative — the properties the hypothesis test suite checks, since
they are what make quorum consensus insensitive to how a view was
assembled.

The protocol grows a log by one entry per operation, so a :class:`Log`
is a *version* ``(store, n)`` — the first ``n`` arrivals — of an
append-only :class:`_Store` shared by its whole lineage.  Extending the
newest version appends in place, O(delta); an older version stays the
value it was because every read of it stops at its own ``n``.
"""

from __future__ import annotations

from bisect import insort
from itertools import islice
from operator import attrgetter
from typing import Iterable, Iterator
from weakref import WeakKeyDictionary

from repro.clocks.timestamps import Timestamp
from repro.histories.events import Event
from repro.txn.ids import ActionId

#: Shared sort key: (counter, site, seq), precomputed once per entry —
#: the ordering of ``(entry.ts, entry.action.seq)``, since Timestamp
#: compares (counter, site) first.
_SORT_KEY = attrgetter("sort_key")

class LogEntry:
    """One log record: when, what, and on whose behalf.

    ``__slots__`` value type with the hash and the log sort key
    precomputed at construction: log-set algebra hashes entries on every
    quorum merge, and ordered insertion compares sort keys O(log n)
    times per entry.  The hash equals the dataclass hash it replaces
    (``hash((ts, event, action))``), so frozenset iteration orders and
    seeded fingerprints are unchanged.  Entries are not interned — their
    key space grows with the run (see ``docs/PERFORMANCE.md``).
    """

    __slots__ = ("ts", "event", "action", "sort_key", "_hash")

    def __init__(self, ts: Timestamp, event: Event, action: ActionId):
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "sort_key", (ts.counter, ts.site, action.seq))
        object.__setattr__(self, "_hash", hash((ts, event, action)))

    def __setattr__(self, name, value):
        raise AttributeError(f"LogEntry is immutable (tried to set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"LogEntry is immutable (tried to delete {name!r})")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, LogEntry):
            return NotImplemented
        return (
            self.ts == other.ts
            and self.event == other.event
            and self.action == other.action
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (LogEntry, (self.ts, self.event, self.action))

    def __repr__(self):
        return f"LogEntry(ts={self.ts!r}, event={self.event!r}, action={self.action!r})"

    def __str__(self) -> str:
        return f"[{self.ts}] {self.event} {self.action}"


class _Store:
    """Append-only entry storage shared by every :class:`Log` of a lineage.

    ``arrival`` holds the entries in arrival order and ``pos`` maps each
    to its index there; nothing below an index ever changes, which is
    what lets a ``Log`` be a prefix length.  The timestamp-sorted list
    and the per-action grouping cover the *whole* store, are built on
    first use and kept up to date by :meth:`append`.

    ``marks[source] == m`` is a watermark: the first ``m`` arrivals of
    the store ``source`` are all present here.  Sound because both
    stores only append (an absorbed prefix stays absorbed) and only this
    store's newest version, which holds every arrival, consults it; a
    store built afresh — fork, snapshot install, journal restart — has
    no marks and re-diffs once.  Weak keys: a mark dies with its source.
    """

    __slots__ = ("arrival", "pos", "ordered", "by_action", "marks", "__weakref__")

    def __init__(self, arrival: list[LogEntry]):
        self.arrival = arrival  # distinct entries; adopted, not copied
        self.pos: dict[LogEntry, int] = dict(zip(arrival, range(len(arrival))))
        self.ordered: list[LogEntry] | None = None
        self.by_action: dict[ActionId, list[LogEntry]] | None = None
        self.marks: WeakKeyDictionary[_Store, int] | None = None

    def missing(self, candidates: Iterable[LogEntry], n: int) -> list[LogEntry]:
        """The ``candidates`` that are not among the first ``n`` arrivals."""
        pos = self.pos
        return [entry for entry in candidates if pos.get(entry, n) >= n]

    def lacking(self, source: "_Store", upto: int) -> list[LogEntry]:
        """``source``'s first ``upto`` arrivals that are not in this store.

        For a source never seen before: ``set.difference`` on dicts reuses
        their stored hashes, no ``LogEntry.__hash__`` call per entry.
        """
        known = source.pos
        novel = [e for e in set(known).difference(self.pos) if known[e] < upto]
        novel.sort(key=known.__getitem__)
        return novel

    def append(self, fresh: Iterable[LogEntry]) -> None:
        arrival, pos = self.arrival, self.pos
        ordered, by_action = self.ordered, self.by_action
        for entry in fresh:
            if entry in pos:  # repeated within ``fresh``
                continue
            pos[entry] = len(arrival)
            arrival.append(entry)
            if ordered is not None:
                insort(ordered, entry, key=_SORT_KEY)
            if by_action is not None:
                insort(by_action.setdefault(entry.action, []), entry, key=_SORT_KEY)

    def sorted(self) -> list[LogEntry]:
        if self.ordered is None:
            self.ordered = sorted(self.arrival, key=_SORT_KEY)
        return self.ordered

    def grouped(self) -> dict[ActionId, list[LogEntry]]:
        if self.by_action is None:
            grouped: dict[ActionId, list[LogEntry]] = {}
            for entry in self.sorted():
                grouped.setdefault(entry.action, []).append(entry)
            self.by_action = grouped
        return self.by_action


#: The store of every empty log; never a head, so never appended to.
_NO_ENTRIES = _Store([])


class Log:
    """An immutable set of entries ordered by timestamp.

    Lamport timestamps (counter, site) are unique per entry in a correct
    run; merge tolerates duplicates by keying on the full entry.

    Represented as the first ``_n`` arrivals of ``_store``.  The *head*
    (``_n`` is the store's length) extends in place; any other version
    *forks* — copies its prefix into a store of its own, once.  A log
    handed out earlier therefore never changes: ``in``, ``len``,
    ``ordered``, ``entries_of`` and ``==`` all stop at ``_n``.
    """

    __slots__ = ("_store", "_n")

    def __init__(self, entries: Iterable[LogEntry] = ()):
        arrival = list(dict.fromkeys(entries))
        self._store = _Store(arrival) if arrival else _NO_ENTRIES
        self._n = len(arrival)

    @classmethod
    def _version(cls, store: _Store, n: int) -> "Log":
        out = cls.__new__(cls)
        out._store = store
        out._n = n
        return out

    def merge(self, other: "Log") -> "Log":
        """The least upper bound of two logs (set union)."""
        return self.extended(other)

    def add(self, entry: LogEntry) -> "Log":
        return self.extended((entry,))

    def extended(self, added: "Log | Iterable[LogEntry]") -> "Log":
        """Union with ``added``, a log or any iterable of entries.

        ``self`` when nothing is new.  The head appends the new entries
        to the shared store, O(new entries), its sorted order and
        grouping updated by insertion; any other version forks first.
        Of a *log*, only what this store has not absorbed before is
        examined (``_Store.marks``), and a later version of this same
        store is returned as is.
        """
        store, n = self._store, self._n
        head = 0 < n == len(store.arrival)
        source = None
        if isinstance(added, Log):
            source, upto = added._store, added._n
            if source is store:
                return added if upto > n else self
            marks = store.marks if head else None
            start = marks.get(source, 0) if marks is not None else 0
            if upto <= start:
                return self
            if not n:  # nothing of our own to keep: start from its prefix
                fresh, store = (), _Store(source.arrival[:upto])
            elif head and not start:
                fresh = store.lacking(source, upto)
            else:
                fresh = store.missing(source.arrival[start:upto], n)
        else:
            fresh = store.missing(added, n)
        if not head and store is self._store:
            if not fresh:
                return self
            store = _Store(store.arrival[:n])
        if source is not None:
            if store.marks is None:
                store.marks = WeakKeyDictionary()
            store.marks[source] = upto
        store.append(fresh)
        grown = len(store.arrival)
        return Log._version(store, grown) if grown > n else self

    def fresh_since(self, ancestor: "Log") -> tuple[LogEntry, ...] | None:
        """Entries in this log but not in ``ancestor``, when it is a prefix.

        An earlier version of the same store (or the empty log) is a
        prefix of this one, so the slice of arrivals between the two
        lengths is *exactly* ``self.entry_set - ancestor.entry_set``, and
        a non-``None`` result certifies ``ancestor.entry_set <=
        self.entry_set``.  ``None``: not related by position (a fork, a
        rebuilt or unpickled log); callers fall back to set algebra.
        """
        start, store = ancestor._n, self._store
        if start > self._n or (start and ancestor._store is not store):
            return None
        return tuple(store.arrival[start : self._n])

    def _held(self, entries: Iterable[LogEntry]) -> tuple[LogEntry, ...]:
        """Those of the store's ``entries`` that this version holds."""
        store, n = self._store, self._n
        if n == len(store.arrival):
            return tuple(entries)
        pos = store.pos
        return tuple(entry for entry in entries if pos[entry] < n)

    def ordered(self) -> tuple[LogEntry, ...]:
        """Entries sorted by timestamp (total order; site breaks ties)."""
        return self._held(self._store.sorted())

    def max_entry(self) -> LogEntry | None:
        """The timestamp-greatest entry, without forcing a full sort."""
        store, n = self._store, self._n
        if store.ordered is None:
            return max(islice(store.arrival, n), key=_SORT_KEY, default=None)
        pos = store.pos
        return next((e for e in reversed(store.ordered) if pos[e] < n), None)

    def entries_of(self, action: ActionId) -> tuple[LogEntry, ...]:
        return self._held(self._store.grouped().get(action, ()))

    def actions(self) -> frozenset[ActionId]:
        return frozenset(e.action for e in islice(self._store.arrival, self._n))

    @property
    def entry_set(self) -> frozenset[LogEntry]:
        """The entries as a frozenset, *built* (and re-hashed) per call.

        For fallback and rebuild paths, where two logs are not related
        by position and set algebra is the reference; per-operation code
        uses ``in``, :meth:`fresh_since` and :meth:`extended`.
        """
        return frozenset(islice(self._store.arrival, self._n))

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self.ordered())

    def __contains__(self, entry: LogEntry) -> bool:
        return self._store.pos.get(entry, self._n) < self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Log) or self._n != other._n:
            return False
        if self._store is other._store:
            return True
        # Equal sizes, distinct entries: one inclusion decides equality.
        return not self._store.missing(islice(other._store.arrival, other._n), self._n)

    def __hash__(self) -> int:
        return hash(self.entry_set)

    def __reduce__(self):
        # A copy starts a store of its own.
        return (Log, (tuple(islice(self._store.arrival, self._n)),))

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self.ordered())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Log({self._n} entries)"


#: The one empty log callers should share instead of building ``Log()``.
EMPTY_LOG = Log()
