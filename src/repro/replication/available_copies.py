"""The available-copies replication method (paper, Section 2).

"In the available copies replication method [12], failed sites are
dynamically detected and configured out of the system ...  Clients may
read from any available copy, and must write to all available copies.
...  Unlike quorum consensus methods, the available copies method does
not preserve serializability in the presence of communication link
failures such as partitions."

This module implements the method so that the claim can be *observed*:
each site holds a full copy of the object state; an operation reads the
state from the nearest reachable copy, applies the operation, and writes
the new state to every reachable copy.  Site failures are detected by
timeout, exactly as available-copies systems do — which is also the
method's downfall: a partition is indistinguishable from a crash, so
both sides of a partition keep executing on diverging copies, and the
combined history can fail to be serializable.

The ``Available copies contrast`` claim row drives one partitioned
workload through available copies (anomaly: a FIFO queue item dequeued
twice) and through quorum consensus (minority side unavailable, history
stays atomic).  The baseline is never audited, so its requests record
no step span.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import UnavailableError
from repro.histories.behavioral import Begin, BehavioralHistory, Commit, Op
from repro.histories.events import Event, Invocation, Response
from repro.sim.network import Network, Timeout
from repro.spec.datatype import SerialDataType, State


@dataclass
class _Copy:
    """One site's full copy of the object state."""

    site: int
    state: State


@dataclass
class AvailableCopiesObject:
    """A replicated object under the available-copies discipline.

    Every operation is its own committed action (the method predates
    general transactions; read-one/write-all-available is per-operation),
    so the resulting behavioral history is a sequence of sequential
    single-operation actions — atomicity reduces to serializability of
    the executed operations in *some* order.
    """

    name: str
    datatype: SerialDataType
    network: Network
    copies: list[_Copy] = field(default_factory=list)
    #: (event, executing site) in execution order, for the post-mortem.
    executed: list[tuple[Event, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        initial = self.datatype.initial_state()
        self.copies = [
            _Copy(site, initial) for site in range(self.network.n_sites)
        ]

    def execute(self, client_site: int, invocation: Invocation) -> Response:
        """Read any available copy, apply, write all available copies.

        Raises :class:`~repro.errors.UnavailableError` only when *no*
        copy responds — the method's whole selling point is that any
        single live copy suffices, which is also why partitions break it.
        """
        state = None
        order = [
            (client_site + offset) % self.network.n_sites
            for offset in range(self.network.n_sites)
        ]
        for site in order:
            try:
                state = self.network.request(
                    client_site, site, lambda s=site: self.copies[s].state
                )
                break
            except Timeout:
                continue
        if state is None:
            raise UnavailableError(invocation.op)

        outcomes = sorted(self.datatype.apply(state, invocation), key=str)
        response, new_state = outcomes[0]

        # Write to all *available* copies; unreachable ones are deemed
        # failed and silently configured out — the fatal step.
        for site in order:
            try:
                self.network.request(
                    client_site,
                    site,
                    lambda s=site, ns=new_state: self._install(s, ns),
                )
            except Timeout:
                continue
        self.executed.append((Event(invocation, response), client_site))
        return response

    def _install(self, site: int, state: State) -> None:
        self.copies[site].state = state

    # -- post-mortem ---------------------------------------------------------

    def to_behavioral_history(self) -> BehavioralHistory:
        """Each executed operation as its own committed action."""
        entries = []
        names = []
        for index, (_event, site) in enumerate(self.executed):
            names.append(f"T{index}@{site}")
        for name in names:
            entries.append(Begin(name))
        for name, (event, _site) in zip(names, self.executed):
            entries.append(Op(event, name))
            entries.append(Commit(name))
        return BehavioralHistory(entries)
