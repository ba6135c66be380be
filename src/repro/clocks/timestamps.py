"""Totally ordered logical timestamps.

A :class:`Timestamp` is a pair ``(counter, site)``.  Comparing the counter
first and breaking ties with the site identifier yields the total order
required by the paper: "A system of Lamport Clocks can be used to impose
an unambiguous ordering on Begin and Commit events" (Section 4).

Implementation note (throughput): :class:`Timestamp` is a ``tuple``
subclass, ``(counter, site)``.  Log-set algebra, ``bisect`` and sort keys
hash and compare timestamps constantly on the replication hot path; as a
tuple, hashing and ordering run in C (no Python frame), and the hash is
``hash((counter, site))`` — so set iteration orders, and therefore every
seeded fingerprint, are those of the dataclass it once was.  Equality
stays type-distinct: a timestamp never equals a plain tuple or an
:class:`~repro.txn.ids.ActionId`.  Timestamps are *not* interned: their
key space grows linearly with simulated time, so an intern table would
defeat the bounded-memory soak guarantees (see ``docs/PERFORMANCE.md``,
"Simulator core").
"""

from __future__ import annotations

from operator import itemgetter


class Timestamp(tuple):
    """A Lamport timestamp: logical counter with a site tiebreak.

    Comparisons order by ``counter`` first and ``site`` second, which is
    exactly the total order we need.
    """

    __slots__ = ()

    def __new__(cls, counter: int, site: int = 0):
        return tuple.__new__(cls, (counter, site))

    counter = property(itemgetter(0))
    site = property(itemgetter(1))
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is Timestamp and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not Timestamp or tuple.__ne__(self, other)

    def __reduce__(self):
        return (Timestamp, tuple(self))

    def __repr__(self):
        return f"Timestamp(counter={self[0]!r}, site={self[1]!r})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self[0]}.{self[1]}"
