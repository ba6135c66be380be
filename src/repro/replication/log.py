"""Timestamped event logs (paper, Figure 3-1).

A replicated object's state is a log: a sequence of entries, each
consisting of a timestamp, an event, and an action identifier.  Logs are
partially replicated among repositories; a front-end reconstructs a
view by *merging* the logs of an initial quorum.  The merge,
:meth:`Log.extended`, is a set union ordered by timestamp, which makes
it idempotent, commutative, and associative — the properties the
hypothesis test suite checks, since they are what make quorum consensus
insensitive to how a view was assembled.

The fragments and views of one object hold mostly the same entries, so
a :class:`Log` is a bitmask over an append-only :class:`_Table` shared
by its whole lineage: bit ``i`` is set when the log holds the table's
``i``-th entry.  A union of two logs on one table is an integer ``|``,
and a log never changes because a table only appends.
"""

from __future__ import annotations

from bisect import bisect, insort
from itertools import compress, islice
from operator import attrgetter
from typing import Iterable, Iterator

from repro.clocks.timestamps import Timestamp
from repro.histories.events import Event
from repro.txn.ids import ActionId

#: Shared sort key: (counter, site, seq), precomputed once per entry —
#: the ordering of ``(entry.ts, entry.action.seq)``, since Timestamp
#: compares (counter, site) first.
_SORT_KEY = attrgetter("sort_key")
_ACTION = attrgetter("action")
_FLAG = bytes.maketrans(b"01", b"\0\1")


def _flags(mask: int) -> bytes:
    """Byte ``i`` is 1 when bit ``i`` of ``mask`` is set, else 0 (up to its top bit)."""
    return bin(mask)[:1:-1].encode().translate(_FLAG)

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


class _Group:
    """One action's entries on a table: their bits in timestamp order,
    the mask of those bits and the entries themselves, so a log holding
    the whole group reads it with one AND."""

    __slots__ = ("bits", "mask", "entries")

    def __init__(self, bits: list[int], arrival: list[LogEntry]):
        self.bits = bits
        self.mask = sum(1 << bit for bit in bits)
        self.entries = tuple(arrival[bit] for bit in bits)

    def add(self, bit: int, arrival: list[LogEntry]) -> None:
        insort(self.bits, bit, key=lambda held: arrival[held].sort_key)
        self.mask |= 1 << bit
        self.entries = tuple(arrival[held] for held in self.bits)


class _Table:
    """Append-only entry table shared by every :class:`Log` of a lineage.

    ``arrival[i]`` is the entry of bit ``i`` and ``pos`` maps it back; an
    index never changes, so every mask over the table stays valid however
    it grows.  The timestamp-sorted list (``ordered``, each entry's bit
    beside it in ``ranks``) and the per-action grouping (a :class:`_Group`
    per action) cover the whole table, are built on first use and kept up
    to date by :meth:`bits`.
    """

    __slots__ = ("arrival", "pos", "ordered", "ranks", "by_action")

    def __init__(self, arrival: list[LogEntry]):
        self.arrival = arrival  # distinct entries; adopted, not copied
        self.pos: dict[LogEntry, int] = dict(zip(arrival, range(len(arrival))))
        self.ordered: list[LogEntry] | None = None
        self.ranks: list[int] | None = None
        self.by_action: dict[ActionId, _Group] | None = None

    def bits(self, entries: Iterable[LogEntry]) -> int:
        """The mask of ``entries``, appending those the table lacks."""
        arrival, pos = self.arrival, self.pos
        mask = 0
        for entry in entries:
            size = len(arrival)
            bit = pos.setdefault(entry, size)
            if bit == size:
                arrival.append(entry)
                self._place(entry, bit)
            mask |= 1 << bit
        return mask

    def _place(self, entry: LogEntry, bit: int) -> None:
        ordered = self.ordered
        if ordered is not None:
            at = bisect(ordered, entry.sort_key, key=_SORT_KEY)
            ordered.insert(at, entry)
            self.ranks.insert(at, bit)
        if self.by_action is not None:
            group = self.by_action.get(entry.action)
            if group is None:
                self.by_action[entry.action] = _Group([bit], self.arrival)
            else:
                group.add(bit, self.arrival)

    def sorted(self) -> list[LogEntry]:
        if self.ordered is None:
            arrival = self.arrival
            keys = [entry.sort_key for entry in arrival]
            self.ranks = sorted(range(len(arrival)), key=keys.__getitem__)
            self.ordered = [arrival[bit] for bit in self.ranks]
        return self.ordered

    def grouped(self) -> dict[ActionId, _Group]:
        if self.by_action is None:
            bits_of: dict[ActionId, list[int]] = {}
            for entry, bit in zip(self.sorted(), self.ranks):
                bits_of.setdefault(entry.action, []).append(bit)
            arrival = self.arrival
            self.by_action = {
                action: _Group(bits, arrival) for action, bits in bits_of.items()
            }
        return self.by_action


#: The table of every log built empty; never appended to, since a union
#: into an empty log adopts its operand or starts a table of its own.
_NO_ENTRIES = _Table([])


class Log:
    """An immutable set of entries ordered by timestamp.

    Lamport timestamps (counter, site) are unique per entry in a correct
    run; merge tolerates duplicates by keying on the full entry.

    Represented as ``(_table, _mask, _n)``: the entries of ``_table``
    whose bits are set in ``_mask``, ``_n`` of them.  A table only
    appends, so a log handed out earlier never changes: ``in``, ``len``,
    ``ordered``, ``entries_of`` and ``==`` all read through its mask.
    """

    __slots__ = ("_table", "_mask", "_n")

    def __init__(self, entries: Iterable[LogEntry] = ()):
        arrival = list(dict.fromkeys(entries))
        self._table = _Table(arrival) if arrival else _NO_ENTRIES
        self._n = len(arrival)
        self._mask = (1 << self._n) - 1

    @classmethod
    def _of(cls, table: _Table, mask: int) -> "Log":
        out = cls.__new__(cls)
        out._table = table
        out._mask = mask
        out._n = mask.bit_count()
        return out

    def add(self, entry: LogEntry) -> "Log":
        return self.extended((entry,))

    def extended(self, added: "Log | Iterable[LogEntry]") -> "Log":
        """Union with ``added``, a log or any iterable of entries.

        ``self`` when nothing is new, and ``added`` when it is a log that
        holds ``self``.  On one table the union is ``mask | other``.  An
        iterable's entries are looked up in this log's table, the new
        ones appended once.  An empty log adopts its operand.  A log on
        another table is re-expressed on the larger of the two tables
        (union by size), so two lineages that meet converge on one.
        """
        table, mask = self._table, self._mask
        if isinstance(added, Log):
            if added._table is table:
                grown = mask | added._mask
                if grown == mask:
                    return self
                return added if grown == added._mask else Log._of(table, grown)
            if not added._n:
                return self
            if not self._n:
                return added
            if len(added._table.arrival) > len(table.arrival):
                grown = added.extended(self._entries())
                return self if grown._n == self._n else grown
            added = added._entries()
        elif not self._n:
            log = Log(added)
            return log if log._n else self
        grown = mask | table.bits(added)
        return self if grown == mask else Log._of(table, grown)

    def fresh_since(self, ancestor: "Log") -> tuple[LogEntry, ...] | None:
        """Entries in this log but not in ``ancestor``, when it is a subset.

        On one table, ``ancestor`` is a subset when its mask has no bit
        this one lacks, and the entries of the bits between the two
        masks — in table order — are *exactly* ``self.entry_set -
        ancestor.entry_set``; a non-``None`` result certifies
        ``ancestor.entry_set <= self.entry_set``.  The empty log is an
        ancestor of every log.  ``None``: another table (a rebuilt or
        unpickled log) or not a subset; callers fall back to set algebra.
        """
        old, new = ancestor._mask, self._mask
        if not old:
            return tuple(self._entries())
        if ancestor._table is not self._table or old & ~new:
            return None
        fresh = new ^ old
        if not fresh:
            return ()
        low = (fresh & -fresh).bit_length() - 1
        flags = _flags(fresh >> low)
        return tuple(compress(islice(self._table.arrival, low, None), flags))

    def _entries(self) -> Iterator[LogEntry]:
        """The entries this log holds, in table order."""
        arrival = self._table.arrival
        if self._n == len(arrival):
            return islice(arrival, self._n)
        return compress(arrival, _flags(self._mask))

    def ordered(self) -> tuple[LogEntry, ...]:
        """Entries sorted by timestamp (total order; site breaks ties)."""
        ordered = self._table.sorted()
        if self._n == len(ordered):
            return tuple(ordered)
        flags = _flags(self._mask).ljust(len(ordered), b"\0")
        return tuple(compress(ordered, map(flags.__getitem__, self._table.ranks)))

    def max_entry(self) -> LogEntry | None:
        """The timestamp-greatest entry, read from the table's sorted
        order (built on first use, then kept up to date)."""
        ordered = self._table.sorted()
        mask = self._mask
        for entry, bit in zip(reversed(ordered), reversed(self._table.ranks)):
            if mask >> bit & 1:
                return entry
        return None

    def entries_of(self, action: ActionId) -> tuple[LogEntry, ...]:
        """``action``'s entries in timestamp order: its whole group when
        this log holds every entry of it, else the bits it holds."""
        group = self._table.grouped().get(action)
        if group is None:
            return ()
        mask = self._mask
        if mask & group.mask == group.mask:
            return group.entries
        arrival = self._table.arrival
        return tuple(arrival[bit] for bit in group.bits if mask >> bit & 1)

    def actions(self) -> frozenset[ActionId]:
        return frozenset(map(_ACTION, self._entries()))

    @property
    def entry_set(self) -> frozenset[LogEntry]:
        """The entries as a frozenset, *built* (and re-hashed) per call.

        For fallback and rebuild paths, where two logs share no table
        and set algebra is the reference; per-operation code uses
        ``in``, :meth:`fresh_since` and :meth:`extended`.
        """
        return frozenset(self._entries())

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self.ordered())

    def __contains__(self, entry: LogEntry) -> bool:
        bit = self._table.pos.get(entry)
        return bit is not None and self._mask >> bit & 1 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Log) or self._n != other._n:
            return False
        if self._table is other._table:
            return self._mask == other._mask
        # Equal sizes, distinct entries: one inclusion decides equality.
        return all(map(self.__contains__, other._entries()))

    def __hash__(self) -> int:
        return hash(self.entry_set)

    def __reduce__(self):
        # A copy starts a table of its own.
        return (Log, (tuple(self._entries()),))

    def __str__(self) -> str:
        return "\n".join(str(e) for e in self.ordered())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Log({self._n} entries)"


#: The one empty log callers should share instead of building ``Log()``.
EMPTY_LOG = Log()
