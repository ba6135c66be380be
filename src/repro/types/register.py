"""A read/write register — the "file" of classical replication methods.

Operations are classified only as reads or writes, exactly the model
underlying Gifford's weighted voting [11] and the Bernstein–Goodman
replicated-database model [4] that the paper contrasts with typed quorum
consensus.  It is the type of the ``Weighted voting`` claim row.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

from repro.errors import SpecificationError
from repro.histories.events import Invocation, Response, ok
from repro.spec.datatype import SerialDataType, State


class Register(SerialDataType):
    """Single-value register: ``Write(item)`` and ``Read() -> item``."""

    name = "Register"

    def __init__(self, items: Sequence[Hashable] = ("x", "y"), default: Hashable = "0"):
        if not items:
            raise SpecificationError("Register needs a non-empty item alphabet")
        self._items = tuple(items)
        self._default = default

    def initial_state(self) -> State:
        return self._default

    def apply(
        self, state: State, invocation: Invocation
    ) -> Iterable[tuple[Response, State]]:
        if invocation.op == "Write":
            (item,) = invocation.args
            return [(ok(), item)]
        if invocation.op == "Read":
            return [(ok(state), state)]
        raise SpecificationError(f"Register has no operation {invocation.op!r}")

    def invocations(self) -> Sequence[Invocation]:
        return tuple(Invocation("Write", (item,)) for item in self._items) + (
            Invocation("Read"),
        )
