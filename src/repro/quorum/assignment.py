"""Quorum assignments: initial and final quorums per operation.

To execute an operation, a front-end first reads the logs of an
*initial quorum* of repositories (merging them into a view), then writes
the updated view to a *final quorum* for the resulting event (paper,
Section 3.2).  A :class:`QuorumAssignment` maps:

* each operation name to an initial coterie (the view sources), and
* each event class — operation name, optionally refined by response
  kind — to a final coterie (the update sinks).

Refinement by response kind matters: in the paper's PROM example,
``Read();Disabled()`` needs a final quorum (Seal invocations depend on
it) while ``Read();Ok(x)`` needs none, which is how Read achieves
single-site availability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.errors import QuorumError
from repro.histories.events import Event, Invocation
from repro.quorum.coterie import Coterie


@dataclass(frozen=True)
class OperationQuorums:
    """The initial and (default) final coteries for one operation."""

    initial: Coterie
    final: Coterie


class QuorumAssignment:
    """A complete quorum assignment for a replicated object's operations.

    ``operations`` maps operation names to :class:`OperationQuorums`;
    ``final_by_kind`` optionally overrides the final coterie for a
    specific ``(operation, response_kind)`` event class.
    """

    def __init__(
        self,
        n_sites: int,
        operations: Mapping[str, OperationQuorums],
        final_by_kind: Mapping[tuple[str, str], Coterie] | None = None,
    ):
        if n_sites <= 0:
            raise QuorumError("a replicated object needs at least one site")
        for name, quorums in operations.items():
            for coterie in (quorums.initial, quorums.final):
                if coterie.n_sites != n_sites:
                    raise QuorumError(
                        f"coterie for {name!r} is over {coterie.n_sites} sites, "
                        f"assignment is over {n_sites}"
                    )
        self.n_sites = n_sites
        self._operations = dict(operations)
        self._final_by_kind = dict(final_by_kind or {})
        for (name, _kind), coterie in self._final_by_kind.items():
            if name not in self._operations:
                raise QuorumError(f"final override for unknown operation {name!r}")
            if coterie.n_sites != n_sites:
                raise QuorumError(f"final override for {name!r} over wrong universe")

    @property
    def operation_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._operations))

    def initial(self, invocation: Invocation | str) -> Coterie:
        """The initial coterie for an invocation (or operation name)."""
        name = invocation if isinstance(invocation, str) else invocation.op
        try:
            return self._operations[name].initial
        except KeyError:
            raise QuorumError(f"no quorums assigned for operation {name!r}") from None

    def final(self, event: Event | str, kind: str | None = None) -> Coterie:
        """The final coterie for an event (or operation name + kind)."""
        if isinstance(event, Event):
            name, kind = event.inv.op, event.res.kind
        else:
            name = event
        if kind is not None and (name, kind) in self._final_by_kind:
            return self._final_by_kind[(name, kind)]
        try:
            return self._operations[name].final
        except KeyError:
            raise QuorumError(f"no quorums assigned for operation {name!r}") from None

    def final_coteries(self) -> tuple[Coterie, ...]:
        """Every final coterie in force: per-operation defaults and
        response-kind overrides.  Used by reconfiguration to compute the
        site sets that must be drained."""
        coteries = [self._operations[name].final for name in self.operation_names]
        coteries.extend(self._final_by_kind.values())
        return tuple(coteries)

    def initial_coteries(self) -> tuple[Coterie, ...]:
        """Every initial coterie in force."""
        return tuple(
            self._operations[name].initial for name in self.operation_names
        )

    def describe(self) -> str:
        """One line per operation: smallest initial/final quorum sizes."""
        lines = []
        for name in self.operation_names:
            initial = self._operations[name].initial.smallest_quorum_size()
            final = self._operations[name].final.smallest_quorum_size()
            line = f"{name}: initial ≥{initial}, final ≥{final}"
            overrides = [
                f"{kind}: final ≥{coterie.smallest_quorum_size()}"
                for (op, kind), coterie in sorted(self._final_by_kind.items())
                if op == name
            ]
            if overrides:
                line += "  [" + "; ".join(overrides) + "]"
            lines.append(line)
        return "\n".join(lines)
