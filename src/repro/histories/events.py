"""Invocations, responses, and events.

An *event* is a pair consisting of an operation invocation and a response
(paper, Section 3.1).  For example the Queue event ``Enq(x);Ok()`` pairs
the invocation ``Enq(x)`` with the normal response ``Ok()``, and
``Deq();Empty()`` pairs ``Deq()`` with the exceptional response
``Empty()``.

All three structures are immutable and hashable so they can be used as
dictionary keys, set members, and members of serial histories (which are
plain tuples of events).

Implementation note (throughput): these are *interned flyweights* with
precomputed hashes.  The replication hot path (`Network.gather` →
``FrontEnd`` → ``Repository``) hashes events on every trie hop, log-set
operation, and conflict check; a ``@dataclass`` recomputes the recursive
field hash on each call, which profiling showed at hundreds of
thousands of calls per benchmark run.  Interning is *safe* here — and
only here — because the alphabet is bounded: operations, argument
values, and response values are drawn from each data type's small
generator alphabet, so the intern tables stay tiny for the life of the
process.  A cap (:data:`_INTERN_LIMIT`) keeps adversarial value streams
from growing the tables without bound: past the cap, construction falls
back to plain (uninterned, but still hash-cached) instances with
identical semantics.  Timestamps and log entries are deliberately *not*
interned — their key spaces grow with the run — see
``docs/PERFORMANCE.md`` ("Simulator core").
"""

from __future__ import annotations

from typing import Hashable

#: The response kind used for normal (non-exceptional) termination.
OK = "Ok"

#: Intern tables stop growing past this many distinct values per class;
#: the bounded generator alphabets of the built-in types use a few dozen.
_INTERN_LIMIT = 4096


def _new_flyweight(cls, key, *fields):
    """Build ``cls(*fields)`` on an intern-table miss and remember it.

    Intern keys carry the *types* of the values as well as the values:
    ``False == 0`` and ``True == 1`` in Python, and a flyweight shared
    between ``Ok(False)`` and ``Ok(0)`` would render whichever a process
    met first.  Equality and hashing stay by value (``hash(fields)``);
    the key is kept in ``_key`` so an :class:`Event` can be keyed on its
    parts' keys.
    """
    self = object.__new__(cls)
    for name, value in zip(cls.__slots__, (*fields, hash(fields), key)):
        object.__setattr__(self, name, value)
    if len(cls._interned) < _INTERN_LIMIT:
        cls._interned[key] = self
    return self


class Invocation:
    """An operation invocation: an operation name plus argument values.

    Arguments must be hashable; in the bounded-model-checking kernel they
    are drawn from each data type's small generator alphabet.
    """

    __slots__ = ("op", "args", "_hash", "_key")

    _interned: dict = {}

    def __new__(cls, op: str, args: tuple[Hashable, ...] = ()):
        key = (op, args, *map(type, args)) if args else (op, args)
        cached = cls._interned.get(key)
        if cached is not None:
            return cached
        return _new_flyweight(cls, key, op, args)

    def __setattr__(self, name, value):
        raise AttributeError(f"Invocation is immutable (tried to set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"Invocation is immutable (tried to delete {name!r})")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Invocation):
            return NotImplemented
        return self.op == other.op and self.args == other.args

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Re-runs the constructor on unpickle, so worker processes
        # re-intern into their own tables.
        return (Invocation, (self.op, self.args))

    def __repr__(self):
        return f"Invocation(op={self.op!r}, args={self.args!r})"

    def __str__(self) -> str:
        return f"{self.op}({', '.join(map(repr, self.args))})"


class Response:
    """An operation response: a termination kind plus result values.

    ``kind`` is :data:`OK` for normal termination, or the name of the
    signalled exception (``"Empty"``, ``"Disabled"``, ...) otherwise —
    following the CLU-style termination model the paper uses [19].
    """

    __slots__ = ("kind", "values", "_hash", "_key")

    _interned: dict = {}

    def __new__(cls, kind: str = OK, values: tuple[Hashable, ...] = ()):
        key = (kind, values, *map(type, values)) if values else (kind, values)
        cached = cls._interned.get(key)
        if cached is not None:
            return cached
        return _new_flyweight(cls, key, kind, values)

    def __setattr__(self, name, value):
        raise AttributeError(f"Response is immutable (tried to set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"Response is immutable (tried to delete {name!r})")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Response):
            return NotImplemented
        return self.kind == other.kind and self.values == other.values

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (Response, (self.kind, self.values))

    def __repr__(self):
        return f"Response(kind={self.kind!r}, values={self.values!r})"

    @property
    def is_normal(self) -> bool:
        """True when the response terminated with ``Ok`` (paper, Section 4)."""
        return self.kind == OK

    def __str__(self) -> str:
        return f"{self.kind}({', '.join(map(repr, self.values))})"


class Event:
    """An invocation paired with the response the object returned for it."""

    __slots__ = ("inv", "res", "_hash", "_key")

    _interned: dict = {}

    def __new__(cls, inv: Invocation, res: Response):
        # The parts' own intern keys, not the parts: two invocations equal
        # by value but differing in a value's type must stay distinct.
        key = (inv._key, res._key)
        cached = cls._interned.get(key)
        if cached is not None:
            return cached
        return _new_flyweight(cls, key, inv, res)

    def __setattr__(self, name, value):
        raise AttributeError(f"Event is immutable (tried to set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"Event is immutable (tried to delete {name!r})")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Event):
            return NotImplemented
        return self.inv == other.inv and self.res == other.res

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (Event, (self.inv, self.res))

    def __repr__(self):
        return f"Event(inv={self.inv!r}, res={self.res!r})"

    @property
    def is_normal(self) -> bool:
        """True when the event's response is normal (terminates with Ok)."""
        return self.res.is_normal

    def __str__(self) -> str:
        return f"{self.inv};{self.res}"


def ok(*values: Hashable) -> Response:
    """Build a normal ``Ok(...)`` response."""
    return Response(OK, tuple(values))


def signal(kind: str, *values: Hashable) -> Response:
    """Build an exceptional response of the given kind."""
    return Response(kind, tuple(values))


def event(op: str, args: tuple[Hashable, ...] = (), res: Response | None = None) -> Event:
    """Build an event; the response defaults to a bare ``Ok()``."""
    return Event(Invocation(op, args), res if res is not None else ok())


#: A serial history is simply a tuple of events; tuples are used directly
#: (rather than a wrapper class) so the model-checking kernel can hash,
#: slice, and concatenate them at native speed.
SerialHistory = tuple[Event, ...]


def format_serial(history: SerialHistory, sep: str = "\n") -> str:
    """Render a serial history one event per line, as the paper prints them."""
    return sep.join(str(e) for e in history)
