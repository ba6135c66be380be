"""The serial data type protocol.

Each object has a type, which defines a set of possible states and a set
of primitive operations (paper, Section 3).  A :class:`SerialDataType`
captures a type operationally:

* :meth:`~SerialDataType.initial_state` gives the state of a freshly
  created object;
* :meth:`~SerialDataType.apply` maps a state and an invocation to every
  possible ``(response, next_state)`` pair — one pair for deterministic
  types, several for nondeterministic ones such as SemiQueue;
* :meth:`~SerialDataType.invocations` gives the finite *generator
  alphabet* the bounded-model-checking kernel explores (for example, the
  Queue instance used in the paper's proofs enqueues items drawn from a
  two-letter alphabet).

The set of legal serial histories of the type is exactly the trace set of
this machine, and it is prefix-closed by construction, as the paper
requires of serial specifications.

States must be immutable and hashable.  A state may be a view rather
than a value — a Queue state is a window over a store shared with other
states — provided its equality and hash are those of the tuple it stands
for.  If two states are behaviorally equivalent but structurally
different, override
:meth:`~SerialDataType.canonical` to map them to a common key; the
equivalence check in :class:`~repro.spec.legality.LegalityOracle` relies
on canonical keys.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable, Sequence

from repro.histories.events import Invocation, Response

State = Hashable


class SerialDataType(ABC):
    """An executable serial specification.

    Subclasses define the paper's example types (Queue, PROM, FlagSet,
    DoubleBuffer) and a standard library of replicated types (Register,
    Counter, Directory, Account, ...).
    """

    #: Human-readable type name, e.g. ``"Queue"``.
    name: str = "AbstractType"

    @abstractmethod
    def initial_state(self) -> State:
        """The state of a newly created object."""

    @abstractmethod
    def apply(
        self, state: State, invocation: Invocation
    ) -> Iterable[tuple[Response, State]]:
        """All possible ``(response, next_state)`` pairs for ``invocation``.

        Serial specifications are total over the generator alphabet:
        every invocation receives at least one response in every
        reachable state (possibly an exceptional one).  Invocations
        outside the type's operations should raise
        :class:`~repro.errors.SpecificationError`.
        """

    @abstractmethod
    def invocations(self) -> Sequence[Invocation]:
        """The finite generator alphabet for bounded exploration."""

    def canonical(self, state: State) -> Hashable:
        """A canonical key such that equal keys imply equivalent states.

        The default is the state itself, which is correct whenever state
        equality coincides with behavioral equivalence (true of all the
        built-in types: their states are canonical value representations).
        """
        return state

    def operations(self) -> frozenset[str]:
        """The operation names appearing in the generator alphabet."""
        return frozenset(inv.op for inv in self.invocations())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SerialDataType {self.name}>"
