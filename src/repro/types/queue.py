"""The FIFO Queue data type (paper, Sections 3 and 5).

Two operations: ``Enq`` places an item in the queue, and ``Deq`` removes
the least recently enqueued item, raising the ``Empty`` exception if the
queue is empty.  The serial specification includes all and only the
histories in which items are dequeued in first-in-first-out order.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.errors import SpecificationError
from repro.histories.events import Invocation, Response, ok, signal
from repro.spec.datatype import SerialDataType, State

#: A window is rebased once its dead prefix exceeds its length by more
#: than this, so a state pins at most ``2 * len(state) + _SLACK`` items
#: of the store it was cut from when it was made.
_SLACK = 16

#: Each Queue operation's number of arguments.
_ARITY = {"Enq": 1, "Deq": 0}

#: ``Enq``'s response (responses are interned; this skips the lookup).
_DONE = ok()


class _Window:
    """The items ``store[head:tail]`` of a shared, append-only list.

    A Queue state that behaves as the tuple of its items: equality and
    ``hash`` are the tuple's (the hash is cached on first use), and so
    are ``len``, ``repr``, iteration, indexing and pickling; a
    contiguous slice is a window over the same store.  The Queue's two
    steps copy and hash nothing: :meth:`popped` moves the head, and
    :meth:`appended` appends in place while the window ends where the
    store does, reuses the store while it already holds the same value
    of the same type (``True`` never picks up a stored ``1``), and
    otherwise copies only the live items.
    """

    __slots__ = ("_store", "_head", "_tail", "_hash")

    def __init__(self, store: list, head: int, tail: int):
        if head > tail - head + _SLACK:  # the dead prefix outgrew the window
            store, head, tail = store[head:tail], 0, tail - head
        self._store = store
        self._head = head
        self._tail = tail
        self._hash: int | None = None

    def _items(self) -> list:
        return self._store[self._head : self._tail]

    def __len__(self) -> int:
        return self._tail - self._head

    def __iter__(self):
        return iter(self._items())

    def __getitem__(self, key):
        picked = range(self._head, self._tail)[key]
        if isinstance(picked, int):
            return self._store[picked]
        if picked.step == 1:
            return _Window(self._store, picked.start, max(picked.start, picked.stop))
        items = [self._store[position] for position in picked]
        return _Window(items, 0, len(items))

    def appended(self, item: Hashable) -> _Window:
        """This window with ``item`` after its last item."""
        store, tail = self._store, self._tail
        if tail == len(store):
            store.append(item)
        else:
            held = store[tail]
            if held is not item and (type(held) is not type(item) or held != item):
                store = self._items()
                store.append(item)
                return _Window(store, 0, len(store))
        return _Window(store, self._head, tail + 1)

    def popped(self) -> tuple[Hashable, _Window] | None:
        """The oldest item and the window after it (None if empty)."""
        head = self._head
        if head == self._tail:
            return None
        return self._store[head], _Window(self._store, head + 1, self._tail)

    def __eq__(self, other):
        if isinstance(other, _Window):
            return self._items() == other._items()
        if isinstance(other, tuple):
            return tuple(self._items()) == other
        return NotImplemented

    def __hash__(self) -> int:
        found = self._hash
        if found is None:
            found = self._hash = hash(tuple(self._items()))
        return found

    def __repr__(self) -> str:
        return repr(tuple(self._items()))

    def __reduce__(self):
        return (_Window, (self._items(), 0, len(self)))


class Queue(SerialDataType):
    """FIFO queue over a finite item alphabet.

    The state is a window over a shared store (``_Window``) that behaves
    as the tuple of queued items, oldest first.
    """

    name = "Queue"

    def __init__(self, items: Sequence[Hashable] = ("a", "b")):
        if not items:
            raise SpecificationError("Queue needs a non-empty item alphabet")
        self._items = tuple(items)

    def initial_state(self) -> State:
        return _Window([], 0, 0)

    def apply(
        self, state: State, invocation: Invocation
    ) -> Iterable[tuple[Response, State]]:
        queue: _Window = state  # type: ignore[assignment]
        op, args = invocation.op, invocation.args
        if op == "Enq" and len(args) == 1:
            return [(_DONE, queue.appended(args[0]))]
        if op == "Deq" and not args:
            popped = queue.popped()
            if popped is None:
                return [(signal("Empty"), queue)]
            oldest, rest = popped
            return [(ok(oldest), rest)]
        if op in _ARITY:
            raise SpecificationError(
                f"Queue {op} takes {_ARITY[op]} argument(s), got {len(args)}: "
                f"{invocation}"
            )
        raise SpecificationError(f"Queue has no operation {op!r}")

    def invocations(self) -> Sequence[Invocation]:
        return tuple(Invocation("Enq", (item,)) for item in self._items) + (
            Invocation("Deq"),
        )
