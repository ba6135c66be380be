"""The simulated site-and-network fabric.

Sites crash and recover; communication links lose messages and can
partition the functioning sites into groups that cannot reach each other
(paper, Section 3).  The fabric exposes two communication styles:

* :meth:`Network.request` — a synchronous RPC, one round trip at a
  time, used by the administrative walks of
  :mod:`repro.replication.repository` (reconfiguration, compaction,
  anti-entropy, available copies).  It consults crash and partition state,
  may lose the request or the reply (indistinguishable to the caller, as
  the paper notes: "the absence of a response may indicate that the
  original message was lost, that the reply was lost, that the recipient
  has crashed, or simply that the recipient is slow"), charges simulated
  latency, and raises :class:`Timeout` on failure.
* :meth:`Network.gather` — the batched RPC front-ends assemble quorums
  with: it launches one probe per destination at the same instant, so
  their latencies overlap instead of accumulating.  Probes are issued
  in *waves*: each wave is the shortest prefix of the remaining
  destinations that could satisfy the caller's ``stop`` predicate if
  every probe in it responded, so a stable set of reachable sites is
  probed exactly as a one-at-a-time walk would probe it (same
  attempted sites, same message counts) while a failed probe widens
  the next wave.  Replies come back in visit order, as the reply legs
  deliver them; completion order, (completion time, site id), is
  derived on request.
* :meth:`Network.send` — an asynchronous message scheduled through the
  kernel, used by failure injectors and background anti-entropy.

All styles draw from the simulator's seeded RNG, so behaviour is
deterministic per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import AbstractSet, Any, Callable, Iterable, NamedTuple

from repro.errors import SimulationError
from repro.obs.trace import Tracer
from repro.sim.kernel import Simulator

#: Deterministic completion order for gather replies.
_REPLY_ORDER = attrgetter("completed_at", "site")


class ProbeReply(NamedTuple):
    """One successful probe from a :meth:`Network.gather` call.

    A named tuple: a wave builds one per probe that reaches its
    destination, so it costs what a tuple does.
    """

    site: int
    value: Any
    completed_at: float


@dataclass(frozen=True, slots=True)
class GatherResult:
    """Outcome of a batched :meth:`Network.gather` round.

    ``attempted`` is launch order — the caller's visit order — and
    ``received`` holds the successful probes in that same order, as the
    reply legs delivered them; ``responders`` are their sites.
    """

    attempted: tuple[int, ...]
    failed: frozenset[int]
    responders: frozenset[int]
    received: tuple[ProbeReply, ...]

    @property
    def replies(self) -> tuple[ProbeReply, ...]:
        """The successful probes in deterministic completion order —
        (completion time, site id) — derived on each access."""
        return tuple(sorted(self.received, key=_REPLY_ORDER))

    def in_attempt_order(self) -> tuple[ProbeReply, ...]:
        """Replies in launch (visit) order.

        Callers that fold over replies (log merging, snapshot election)
        fold in visit order, so the result does not depend on which
        reply happened to complete first.
        """
        return self.received


class Timeout(Exception):
    """An RPC got no response: lost message, crash, or partition."""

    def __init__(self, destination: int):
        super().__init__(f"no response from site {destination}")
        self.destination = destination


class Network:
    """Crash, partition, and loss state for a fixed universe of sites."""

    def __init__(
        self,
        sim: Simulator,
        n_sites: int,
        latency: float = 1.0,
        drop_probability: float = 0.0,
        *,
        tracer: Tracer | None = None,
    ):
        if n_sites <= 0:
            raise SimulationError("network needs at least one site")
        if not 0.0 <= drop_probability < 1.0:
            raise SimulationError("drop probability must be in [0, 1)")
        self.sim = sim
        self.n_sites = n_sites
        self.latency = latency
        self.drop_probability = drop_probability
        #: Span/event sink; defaults to the simulator's (usually null).
        self.tracer = tracer if tracer is not None else sim.tracer
        self._crashed: set[int] = set()
        #: Partition groups: a list of disjoint site sets.  Sites in no
        #: group are mutually reachable (the default, un-partitioned state).
        self._groups: list[frozenset[int]] = []
        #: Observers of failure-state transitions; see
        #: :meth:`add_failure_listener`.
        self._failure_listeners: list = []
        self.messages_sent = 0
        self.messages_dropped = 0

    # -- failure state -----------------------------------------------------

    def add_failure_listener(self, listener) -> None:
        """Subscribe to failure-state transitions.

        ``listener(kind, **info)`` is called synchronously *after* the
        state change, with:

        * ``kind="crash"`` / ``"recover"`` — ``info["site"]``;
        * ``kind="partition"`` — ``info["groups"]`` (the new cut);
        * ``kind="heal"`` — ``info["former_groups"]`` (the cut that was
          just removed; empty when the network was not partitioned).

        Listeners run in registration order — the resilience layer
        relies on this (crash-recovery replay restores a repository
        before the heal driver tries to synchronize it).
        """
        self._failure_listeners.append(listener)

    def remove_failure_listener(self, listener) -> None:
        """Unsubscribe a previously added failure listener (no-op if absent)."""
        try:
            self._failure_listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, kind: str, **info) -> None:
        for listener in tuple(self._failure_listeners):
            listener(kind, **info)

    def crash(self, site: int) -> None:
        """Mark ``site`` down: unreachable until :meth:`recover`."""
        self._check_site(site)
        self._crashed.add(site)
        if self.tracer.enabled:
            self.tracer.event("site.crash", site=site)
        self._notify("crash", site=site)

    def recover(self, site: int) -> None:
        """Bring a crashed ``site`` back up (no-op if it was up)."""
        self._check_site(site)
        self._crashed.discard(site)
        if self.tracer.enabled:
            self.tracer.event("site.recover", site=site)
        self._notify("recover", site=site)

    def is_up(self, site: int) -> bool:
        """Is ``site`` currently functioning (not crashed)?"""
        self._check_site(site)
        return site not in self._crashed

    @property
    def crashed_sites(self) -> frozenset[int]:
        return frozenset(self._crashed)

    @property
    def partitioned(self) -> bool:
        """Is a partition cut currently active?"""
        return bool(self._groups)

    def partition(self, *groups) -> None:
        """Split the network into the given disjoint groups.

        Sites in different groups cannot exchange messages; sites
        omitted from every group form an implicit final group together.
        """
        sets = [frozenset(g) for g in groups]
        seen: set[int] = set()
        for group in sets:
            for site in group:
                self._check_site(site)
                if site in seen:
                    raise SimulationError(f"site {site} in two partition groups")
                seen.add(site)
        rest = frozenset(range(self.n_sites)) - seen
        if rest:
            sets.append(rest)
        self._groups = sets
        if self.tracer.enabled:
            self.tracer.event(
                "net.partition", groups=[sorted(group) for group in sets]
            )
        self._notify("partition", groups=tuple(sets))

    def heal(self) -> None:
        """Remove all partitions (crashed sites stay crashed).

        Failure listeners receive the cut that was just removed as
        ``former_groups``, which is how the resilience layer's
        :class:`~repro.resilience.heal.PartitionHealDriver` knows which
        site pairs to reconcile.
        """
        former = tuple(self._groups)
        self._groups = []
        if self.tracer.enabled:
            self.tracer.event("net.heal")
        self._notify("heal", former_groups=former)

    def reachable(self, src: int, dst: int) -> bool:
        """Can a message flow from ``src`` to ``dst`` right now?"""
        self._check_site(src)
        self._check_site(dst)
        return self._reachable(src, dst)

    def _reachable(self, src: int, dst: int) -> bool:
        """:meth:`reachable` minus the site-range validation.

        Internal message legs only probe sites the network itself
        addressed, so the per-message fast path skips re-validating
        them; the public :meth:`reachable` keeps the range check.
        """
        if src in self._crashed or dst in self._crashed:
            return False
        if src == dst or not self._groups:
            return True
        return any(src in group and dst in group for group in self._groups)

    # -- communication -------------------------------------------------------

    def request(self, src: int, dst: int, handler: Callable[[], Any]) -> Any:
        """Synchronous RPC: run ``handler`` at ``dst`` and return its result.

        Charges two message latencies; raises :class:`Timeout` when the
        destination is unreachable or either direction loses the message.
        Each round trip is one ``rpc`` span (homed at the destination
        repository) when tracing is on.
        """
        if self.tracer.enabled:
            with self.tracer.span("rpc", kind="rpc", site=dst, src=src, dst=dst):
                return self._round_trip(src, dst, handler)
        return self._round_trip(src, dst, handler)

    def _round_trip(self, src: int, dst: int, handler: Callable[[], Any]) -> Any:
        self.messages_sent += 1
        self.sim.advance(self.latency)
        self.sim.drain()  # apply failures due while the message travelled
        if not self._reachable(src, dst) or self._lost():
            self.messages_dropped += 1
            raise Timeout(dst)
        result = handler()
        self.messages_sent += 1
        self.sim.advance(self.latency)
        self.sim.drain()
        if not self._reachable(dst, src) or self._lost():
            self.messages_dropped += 1
            raise Timeout(dst)
        return result

    def gather(
        self,
        src: int,
        dsts: Iterable[int],
        handler: Callable[[int], Any],
        *,
        stop: Callable[[AbstractSet[int]], bool] | None = None,
    ) -> GatherResult:
        """Batched RPC: probe distinct sites ``dsts`` with overlapping latencies.

        Probes are launched in waves.  A wave is the shortest prefix of
        the remaining destinations that would satisfy ``stop`` if every
        probe in it succeeded (all of them when ``stop`` is ``None``);
        its probes share one request leg and one reply leg of simulated
        latency, so a wave costs two latencies of simulated time no
        matter how wide it is.  When some probes fail, the next wave
        extends to further destinations, exactly as a one-at-a-time
        walk over :meth:`request` would — under a failure state that is
        stable for the duration of the call (and no message loss), the
        attempted sites, the responders, the failed sites, the reply
        values in visit order and the message counters match that walk's.

        ``stop`` must be a predicate of its argument alone.  It is called
        with a set the gather owns — the sites that answered, plus those
        of the wave being formed — and must neither keep nor mutate it.
        A wave in which every probe answered ends the call without asking
        ``stop`` again: its last answer is already known.

        Per-probe semantics mirror :meth:`request`: the request leg is
        checked against crash/partition/loss state at arrival time (so
        failures due while the message travelled apply first), the
        handler runs at the destination at arrival time, and its side
        effects survive a lost reply leg.  Each probe is one ``rpc``
        span when tracing is on, with the handler's own events parented
        beneath it.
        """
        order = tuple(dsts)
        sim = self.sim
        tracer = self.tracer
        reached: set[int] = set()
        failed: set[int] = set()
        received: list[ProbeReply] = []
        spans: dict[int, Any] = {}
        idx = 0
        while idx < len(order) and (stop is None or not stop(reached)):
            first = idx
            while idx < len(order):
                reached.add(order[idx])
                idx += 1
                if stop is not None and stop(reached):
                    break
            wave = order[first:idx]
            arrive_at = sim.now + self.latency
            reply_at = arrive_at + self.latency
            self.messages_sent += len(wave)
            if tracer.enabled:
                for dst in wave:
                    spans[dst] = tracer.start_span(
                        "rpc", kind="rpc", site=dst, src=src, dst=dst, batched=True
                    )
            # Each leg runs in place, after the events due before it; the
            # closing run fires what is left due at the reply instant.
            lost = len(failed)
            pending: list[ProbeReply] = []
            sim.reach(
                arrive_at, self._arrive, src, wave, handler, spans, pending, failed,
                reply_at,
            )
            if pending:
                sim.reach(reply_at, self._deliver, src, pending, spans, received, failed)
            sim.run(until=reply_at)
            if len(failed) == lost:
                break
            reached.difference_update(failed)
        return GatherResult(
            attempted=order[:idx],
            failed=frozenset(failed),
            responders=frozenset(reached),
            received=tuple(received),
        )

    def _arrive(
        self, src: int, wave: tuple[int, ...], handler: Callable[[int], Any],
        spans: dict[int, Any], pending: list[ProbeReply], failed: set[int],
        reply_at: float,
    ) -> None:
        """A wave's request leg: a lost probe's span closes as ``timeout``;
        a survivor runs ``handler`` under its span and queues its reply,
        stamped with the instant the reply leg lands."""
        tracer = self.tracer
        new = tuple.__new__  # ProbeReply's own constructor, minus its frame
        for dst in wave:
            # With nothing crashed, cut or lossy, every probe gets through
            # and ``_lost`` would draw nothing: skip both checks.
            if (self._crashed or self._groups or self.drop_probability) and (
                not self._reachable(src, dst) or self._lost()
            ):
                self.messages_dropped += 1
                failed.add(dst)
                if spans:
                    tracer.end_span(spans[dst], "timeout")
                continue
            value = tracer.under(spans[dst], handler, dst) if spans else handler(dst)
            pending.append(new(ProbeReply, (dst, value, reply_at)))
            self.messages_sent += 1

    def _deliver(
        self, src: int, pending: list[ProbeReply], spans: dict[int, Any],
        received: list[ProbeReply], failed: set[int],
    ) -> None:
        """A wave's reply leg: each queued reply lands or is lost."""
        tracer = self.tracer
        for reply in pending:
            dst = reply.site
            if (self._crashed or self._groups or self.drop_probability) and (
                not self._reachable(dst, src) or self._lost()
            ):
                self.messages_dropped += 1
                failed.add(dst)
                if spans:
                    tracer.end_span(spans[dst], "timeout")
                continue
            received.append(reply)
            if spans:
                tracer.end_span(spans[dst])

    def send(self, src: int, dst: int, deliver: Callable[[], None]) -> None:
        """Asynchronous one-way message through the event queue."""
        self.messages_sent += 1
        if not self._reachable(src, dst) or self._lost():
            self.messages_dropped += 1
            if self.tracer.enabled:
                self.tracer.event("msg.dropped", site=src, dst=dst)
            return
        if self.tracer.enabled:
            self.tracer.event("msg.send", site=src, dst=dst)
        self.sim.call_at(self.sim.now + self.latency, self._guarded(dst, deliver))

    def _guarded(self, dst: int, deliver: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            if dst not in self._crashed:
                deliver()

        return run

    def _lost(self) -> bool:
        return (
            self.drop_probability > 0.0
            and self.sim.rng.random() < self.drop_probability
        )

    def _check_site(self, site: int) -> None:
        if not 0 <= site < self.n_sites:
            raise SimulationError(f"site {site} outside universe 0..{self.n_sites - 1}")
