"""Throughput-engine tests: kernel hot path, batched fan-out, view
cache, and trial sharding.

The load-bearing property throughout is *determinism*: the kernel's
per-step trace, and the behavioral histories, message counters, outcome
counts and availability numbers of seeded runs through
``Network.gather`` and the incremental view-merge and serial caches,
are pinned as SHA-256 digests.  Each digest was taken when a second,
cache-free implementation (a one-request-at-a-time front-end, a
dataclass event heap) still ran beside the first and agreed with it
byte for byte, so a pin that still holds means the optimized path still
computes what the simple one did.  Each pinned run is also replayed
with every view merged and serialized from scratch
(:func:`tests.helpers.from_scratch_front_ends`) against the same pin.
The runs drive failures *between* workload segments (crash, partition,
heal, recover applied at segment boundaries), where that agreement was
exact.  Parallel trial shards must match one job byte for byte.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.timestamps import Timestamp
from repro.errors import SimulationError
from repro.histories.events import event
from repro.obs.audit import Auditor
from repro.obs.export import to_jsonl
from repro.obs.trace import (
    NULL_SPAN,
    NULL_SPAN_CONTEXT,
    NULL_TRACER,
    NullTracer,
    Tracer,
)
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.coterie import ThresholdCoterie
from repro.replication.keyspace import ObjectSpec
from repro.replication.log import Log, LogEntry
from repro.replication.snapshot import Snapshot, compact
from repro.replication.viewcache import QuorumViewCache
from repro.resilience.chaos import ChaosSchedule, generate_schedule, settle
from repro.resilience.policy import POLICIES
from repro.scenarios import runner
from repro.sim.kernel import Simulator
from repro.sim.network import GatherResult, Network, ProbeReply, Timeout
from repro.sim.trials import run_trials
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.txn.ids import ActionId
from repro.types import Queue
from tests.helpers import FromScratchViewCache, cluster_of, from_scratch_front_ends

pytestmark = pytest.mark.throughput


# -- kernel hot path ----------------------------------------------------------


def _brute_force_pending(sim: Simulator) -> int:
    """The O(n) scan ``Simulator.pending`` used to be."""
    return sum(1 for _time, seq in sim._heap if seq in sim._callbacks)


class TestPendingCounter:
    def test_agrees_with_brute_force_through_mixed_sequences(self):
        sim = Simulator(seed=5)
        handles = []
        for step in range(400):
            choice = sim.rng.random()
            if choice < 0.5:
                handles.append(sim.schedule(sim.rng.random() * 10, lambda: None))
            elif choice < 0.8 and handles:
                sim.cancel(handles[sim.rng.randrange(len(handles))])
            else:
                sim.run(until=sim.now + sim.rng.random() * 3)
            assert sim.pending == _brute_force_pending(sim)
        sim.run()
        assert sim.pending == _brute_force_pending(sim) == 0

    def test_cancel_after_dispatch_is_a_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        sim.cancel(handle)  # already ran: must not drive the counter negative
        assert sim.pending == 0
        sim.schedule(1.0, lambda: None)
        assert sim.pending == 1

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        other = sim.schedule(2.0, lambda: None)
        sim.cancel(handle)
        sim.cancel(handle)
        assert sim.pending == 1
        assert _brute_force_pending(sim) == 1
        sim.cancel(other)
        assert sim.pending == 0


class TestHeapCompaction:
    def test_cancelling_ten_thousand_events_bounds_the_queue(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10_000)]
        assert sim.queue_depth == 10_000
        for handle in handles:
            sim.cancel(handle)
        # Without compaction all 10k tombstones would sit in the heap
        # until popped; with it the queue ends (essentially) empty.
        assert sim.pending == 0
        assert sim.queue_depth < 64
        assert sim.run() == 0

    def test_queue_stays_proportional_to_live_events(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(10_000):
            handle = sim.schedule(float(i + 1), lambda i=i: fired.append(i))
            if i % 10 == 0:
                keep.append(i)
            else:
                sim.cancel(handle)
        # 1000 live events; tombstones never exceed half the queue.
        assert sim.pending == 1_000
        assert sim.queue_depth <= 2 * 1_000 + 64
        sim.run()
        assert fired == keep  # survivors dispatch in time order

    def test_compaction_preserves_dispatch_order(self):
        sim = Simulator(seed=3)
        fired = []
        live = {}
        for i in range(2_000):
            live[i] = sim.schedule(sim.rng.random() * 50, lambda i=i: fired.append(i))
        for i in range(0, 2_000, 2):
            sim.cancel(live[i])
        sim.run()
        expected = sorted(
            (i for i in range(1, 2_000, 2)),
            key=lambda i: (live[i].time, live[i].seq),
        )
        assert fired == expected


# -- null tracer fast path ----------------------------------------------------


class TestNullSpanFastPath:
    def test_span_returns_the_shared_singleton(self):
        assert NULL_TRACER.span("a", kind="quorum") is NULL_SPAN_CONTEXT
        assert NULL_TRACER.span("b", site=2) is NULL_TRACER.span("c")
        assert NullTracer().span("d") is NULL_SPAN_CONTEXT
        with NULL_TRACER.span("e") as span:
            assert span is NULL_SPAN

    def test_disabled_spans_do_not_allocate(self):
        tracer = NullTracer()
        for _ in range(64):  # warm any lazy caches
            with tracer.span("warm", kind="quorum", site=0):
                pass
        before = sys.getallocatedblocks()
        for _ in range(10_000):
            with tracer.span("hot", kind="quorum", site=0, phase="final", object="q"):
                pass
        after = sys.getallocatedblocks()
        # Transient kwargs dicts are freed immediately; nothing may be
        # retained per call (the old per-instance context was, at least,
        # one allocation per tracer — this pins zero per *call*).
        assert after - before < 50

    def test_null_tracer_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("op", kind="operation"):
            tracer.event("site.crash", site=0)
        assert tracer.spans == ()
        assert NULL_TRACER.enabled is False


# -- Network.gather -----------------------------------------------------------


def _fabric(n_sites: int = 3, latency: float = 1.0, **kw) -> Network:
    sim = Simulator(seed=0)
    return Network(sim, n_sites, latency=latency, **kw)


def serial_walk(network: Network, origin: int, order, handler, stop=None) -> GatherResult:
    """The one-request-at-a-time loop ``Network.gather`` promises to match.

    Visits ``order`` through :meth:`Network.request` until ``stop`` holds
    for the sites that answered (never, when ``stop`` is ``None``),
    skipping a site that times out, and reports what it saw as a
    :class:`GatherResult`: replies in visit order, each stamped with the
    instant its reply leg landed.
    """
    attempted: list[int] = []
    served: list[int] = []
    received: list[ProbeReply] = []
    reached: set[int] = set()
    for site in order:
        if stop is not None and stop(frozenset(reached)):
            break
        attempted.append(site)
        try:
            value = network.request(origin, site, lambda site=site: handler(site))
        except Timeout as lost:
            if lost.served:
                served.append(site)
            continue
        served.append(site)
        reached.add(site)
        received.append(ProbeReply(site, value, network.sim.now))
    return GatherResult(
        tuple(attempted), tuple(served), frozenset(attempted) - reached,
        frozenset(reached), tuple(received),
    )


@st.composite
def _stable_gathers(draw):
    """``(n_sites, origin, order, stop, crashed, groups)`` for one gather.

    A visit order over at most six sites, a threshold predicate over some
    member sites (or none), crashed sites and a partition cut (or none),
    all fixed before the call.
    """
    n_sites = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n_sites)))
    order = order[: draw(st.integers(0, n_sites))]
    origin = draw(st.integers(0, n_sites - 1))
    stop = None
    if draw(st.booleans()):
        members = frozenset(draw(st.sets(st.integers(0, n_sites - 1))))
        threshold = draw(st.integers(0, len(members) + 1))
        stop = lambda reached: len(reached & members) >= threshold  # noqa: E731
    crashed = draw(st.sets(st.integers(0, n_sites - 1)))
    groups = ()
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 2), min_size=n_sites, max_size=n_sites))
        groups = tuple(
            {site for site in range(n_sites) if labels[site] == label}
            for label in sorted(set(labels))
        )
    return n_sites, origin, order, stop, crashed, groups


class TestGather:
    def test_probes_overlap_and_complete_in_site_order(self):
        network = _fabric()
        outcome = network.gather(0, [2, 0, 1], lambda site: site * 10)
        assert outcome.attempted == (2, 0, 1)
        assert [reply.site for reply in outcome.replies] == [0, 1, 2]
        assert [reply.value for reply in outcome.in_attempt_order()] == [20, 0, 10]
        assert all(reply.completed_at == 2.0 for reply in outcome.replies)
        assert network.sim.now == 2.0  # one wave: two latencies total
        assert network.messages_sent == 6
        assert network.messages_dropped == 0

    def test_stop_limits_the_wave_to_a_minimal_prefix(self):
        network = _fabric()
        coterie = ThresholdCoterie(3, 2)
        outcome = network.gather(
            0, [0, 1, 2], lambda site: site, stop=coterie.has_quorum
        )
        assert outcome.attempted == (0, 1)
        assert outcome.responders == frozenset({0, 1})
        assert network.messages_sent == 4

    def test_failed_probe_widens_the_next_wave(self):
        network = _fabric()
        network.crash(1)
        coterie = ThresholdCoterie(3, 2)
        outcome = network.gather(
            0, [0, 1, 2], lambda site: site, stop=coterie.has_quorum
        )
        assert outcome.attempted == (0, 1, 2)
        assert outcome.responders == frozenset({0, 2})
        assert outcome.failed == frozenset({1})
        # Two waves of two latencies each.
        assert network.sim.now == 4.0

    def test_message_counters_match_the_serial_walk_under_crashes(self):
        for crashed in (set(), {1}, {0, 1}, {2}):
            batched = _fabric(n_sites=4)
            serial = _fabric(n_sites=4)
            for site in crashed:
                batched.crash(site)
                serial.crash(site)
            coterie = ThresholdCoterie(4, 2)
            outcome = batched.gather(
                0, [0, 1, 2, 3], lambda site: site, stop=coterie.has_quorum
            )
            walked = serial_walk(
                serial, 0, [0, 1, 2, 3], lambda site: site, stop=coterie.has_quorum
            )
            assert outcome.responders == walked.responders
            assert batched.messages_sent == serial.messages_sent, crashed
            assert batched.messages_dropped == serial.messages_dropped, crashed

    def test_handler_side_effects_survive_a_lost_reply(self):
        network = _fabric()
        ran = []
        # The reply leg fails if the caller's site goes down while the
        # reply is in flight (request arrives at t=1, reply lands at t=2).
        network.sim.schedule(1.5, lambda: network.crash(0))
        outcome = network.gather(0, [1], lambda site: ran.append(site))
        assert ran == [1]  # the handler ran at the repository
        assert outcome.replies == ()
        assert outcome.failed == frozenset({1})
        assert network.messages_sent == 2
        assert network.messages_dropped == 1

    def test_stop_none_probes_every_destination(self):
        network = _fabric(n_sites=5)
        outcome = network.gather(0, range(5), lambda site: site)
        assert outcome.attempted == (0, 1, 2, 3, 4)
        assert network.sim.now == 2.0  # still a single overlapped wave

    def test_gather_names_the_legs_the_serial_path_loses(self):
        tracer = Tracer()
        legs = {}
        for style in ("gather", "request"):
            sim = Simulator(seed=0, tracer=tracer)
            tracer.bind_clock(sim)
            network = Network(sim, 3, tracer=tracer)
            network.crash(2)

            def handler(site, network=network):
                if site == 1:  # crashes as it serves: its reply is lost
                    network.crash(1)

            if style == "gather":
                result = network.gather(0, [0, 1, 2], handler)
                legs[style] = (result.attempted, result.served, result.responders)
                continue
            walked = serial_walk(network, 0, [0, 1, 2], handler)
            legs[style] = (walked.attempted, walked.served, walked.responders)
        # 2 lost its request leg and 1 its reply leg, alike in both
        # styles, and neither records a span.
        assert legs["gather"] == legs["request"] == ((0, 1, 2), (0, 1), {0})
        assert {span.kind for span in tracer.spans} == {"event"}

    @settings(max_examples=200, deadline=None)
    @given(case=_stable_gathers())
    def test_gather_reports_what_the_serial_walk_reports(self, case):
        """The promise in ``gather``'s docstring, under a stable failure
        state and no message loss: :func:`serial_walk` over
        ``Network.request`` attempts, serves, reaches and counts the same."""
        n_sites, origin, order, stop, crashed, groups = case
        batched, serial = _fabric(n_sites=n_sites), _fabric(n_sites=n_sites)
        for network in (batched, serial):
            for site in crashed:
                network.crash(site)
            if groups:
                network.partition(*groups)
        outcome = batched.gather(origin, order, lambda site: site * 10, stop=stop)
        walked = serial_walk(serial, origin, order, lambda site: site * 10, stop)
        assert outcome.attempted == walked.attempted
        assert outcome.served == walked.served
        assert outcome.responders == walked.responders
        assert outcome.failed == walked.failed
        assert [reply.value for reply in outcome.in_attempt_order()] == [
            reply.value for reply in walked.in_attempt_order()
        ]
        assert batched.messages_sent == serial.messages_sent
        assert batched.messages_dropped == serial.messages_dropped


def _threshold_layout(n_sites: int, initial: int, final: int) -> QuorumAssignment:
    quorums = OperationQuorums(
        initial=ThresholdCoterie(n_sites, initial),
        final=ThresholdCoterie(n_sites, final),
    )
    return QuorumAssignment(n_sites, {"Enq": quorums, "Deq": quorums})


class TestAdministrativeRounds:
    """Reconfiguration and compaction are quorum rounds over ``gather``.

    On a 5-site cluster with site 1 crashed, each runs once through
    ``gather`` and once with ``gather`` replaced by :func:`serial_walk`:
    both send and drop the same messages and their spans name the same
    sites; only simulated time differs, two latencies per wave.
    """

    LATENCY = 0.75

    def _cluster(self, serial: bool):
        tracer = Tracer()
        cluster = cluster_of(
            5,
            ObjectSpec("queue", Queue(), assignment=_threshold_layout(5, 3, 3)),
            latency=self.LATENCY,
            tracer=tracer,
        )
        for site, value in enumerate("ab"):
            cluster.frontends[site].transact([("queue", event("Enq", value).inv)])
        network = cluster.network
        network.crash(1)
        if serial:
            network.gather = lambda src, dsts, handler, *, stop=None: serial_walk(
                network, src, dsts, handler, stop
            )
        return cluster, tracer

    def _step(self, cluster, tracer, action):
        network = cluster.network
        before = (network.sim.now, network.messages_sent, network.messages_dropped)
        first = len(tracer.spans)
        action(cluster)
        spans = tuple(
            (span.name, {key: span.attrs.get(key) for key in ("attempted", "served", "quorum")})
            for span in tracer.spans[first:]
            if span.kind in ("reconfig", "compaction")
        )
        return (
            network.sim.now - before[0],
            network.messages_sent - before[1],
            network.messages_dropped - before[2],
            spans,
        )

    def _reconfigure(cluster):
        cluster.reconfigure("queue", _threshold_layout(5, 2, 4))

    def _compact(cluster):
        compact(cluster.network, cluster.repositories, cluster.tm.object("queue"), cluster.tm)

    @pytest.mark.parametrize(
        "action, waves, steps",
        [
            # Drain: a transversal of the old 3-of-5 finals, {0, 1, 2}
            # then {3}; prime: of the new 2-of-5 initials, {0..3} then {4}.
            (
                _reconfigure,
                4,
                {
                    "reconfig.drain": ([0, 1, 2, 3], [0, 2, 3], [0, 2, 3]),
                    "reconfig.prime": ([0, 1, 2, 3, 4], [0, 2, 3, 4], [0, 2, 3, 4]),
                },
            ),
            # Drain: {0, 1, 2} then {3}; install: one wave to every site.
            (
                _compact,
                3,
                {"compaction": ([0, 1, 2, 3, 4], [0, 2, 3, 4], [0, 2, 3])},
            ),
        ],
        ids=["reconfigure", "compact"],
    )
    def test_a_round_is_the_serial_walk_in_fewer_latencies(self, action, waves, steps):
        batched = self._step(*self._cluster(serial=False), action)
        serial = self._step(*self._cluster(serial=True), action)
        elapsed, sent, dropped, spans = batched
        assert (sent, dropped, spans) == serial[1:]
        assert (sent, dropped) == (16, 2)
        named = {
            name: (attrs["attempted"], attrs["served"], attrs["quorum"])
            for name, attrs in spans
            if attrs["attempted"] is not None
        }
        assert named == steps
        assert elapsed == 2 * self.LATENCY * waves
        assert serial[0] > elapsed


class TestGatherCallCount:
    """Python-level calls the fabric makes inside ``Network.gather``, counted.

    Counts, not clocks: deterministic for the seed on any host.  A
    profile hook counts every ``call`` event whose caller is a frame of
    :mod:`repro.sim.network` or :mod:`repro.sim.kernel` while ``gather``
    runs: the legs, the kernel steps that run them, each ``stop`` and
    handler call, and any reply or result object built through
    Python-level code — but not what a handler does at its repository,
    whose hash caches warm with the process, nor a weakref callback the
    cyclic collector would run under a counted frame.  No counted frame
    holds a comprehension, so Pythons that inline comprehensions and
    those that do not count alike.  A change that adds per-probe
    bookkeeping to the round (a reply built through ``__init__``, a
    generator over the wave, ``stop`` asked twice) grows the count and
    fails here.  The round these pins replaced made 7.0 calls per probe
    on this cell (5 859).
    """

    #: ``hot-key-contention × blocking``, seed 0, 40 transactions.
    PROBES = 837
    CALLS = 3_627

    def test_calls_per_probe_are_pinned(self, monkeypatch):
        from repro.sim import kernel, network

        _cluster, generator, _names = runner.build_scenario(
            "hot-key-contention", seed=0, mechanism="blocking", transactions=40
        )
        fabric = {network.__file__, kernel.__file__}
        counts = {"calls": 0, "probes": 0}

        def profile(frame, event, _arg):
            if event == "call" and frame.f_back.f_code.co_filename in fabric:
                counts["calls"] += 1

        original = Network.gather

        def counted(self, *args, **kwargs):
            sys.setprofile(profile)
            try:
                result = original(self, *args, **kwargs)
            finally:
                sys.setprofile(None)
            counts["probes"] += len(result.attempted)
            return result

        monkeypatch.setattr(Network, "gather", counted)
        # Earlier tests' garbage must not die, and run its weakref
        # callbacks, under a counted frame.
        gc.collect()
        gc.disable()
        try:
            generator.run(40)
        finally:
            gc.enable()
        assert (counts["probes"], counts["calls"]) == (self.PROBES, self.CALLS), (
            f"{counts['calls'] / counts['probes']:.3f} calls per probe"
        )


# -- the incremental view-merge cache -----------------------------------------


def _entry(seq: int) -> LogEntry:
    return LogEntry(Timestamp(seq, 0), event("Enq", (seq,)), ActionId(seq, 0))


def _probe(site: int, log: Log, version: int, snapshot=None) -> ProbeReply:
    return ProbeReply(site=site, value=(log, snapshot, version), completed_at=0.0)


def _ack(site: int, before: int, after: int) -> ProbeReply:
    return ProbeReply(site=site, value=(before, after), completed_at=0.0)


class TestQuorumViewCache:
    def test_unchanged_quorum_is_a_pure_hit(self):
        cache = QuorumViewCache()
        log = Log([_entry(1), _entry(2)])
        probes = (_probe(0, log, 1), _probe(1, Log([_entry(1)]), 1))
        first, _ = cache.merged_view("q", probes)
        second, _ = cache.merged_view("q", probes)
        assert second is first  # identity: lazy order caches carry over
        assert cache.stats()["hits"] == 1
        assert cache.stats()["rebuilds"] == 1

    def test_changed_fragment_merges_only_the_delta(self):
        cache = QuorumViewCache()
        base = Log([_entry(1)])
        cache.merged_view("q", (_probe(0, base, 1), _probe(1, base, 1)))
        grown = base.add(_entry(2))
        merged, _ = cache.merged_view("q", (_probe(0, grown, 2), _probe(1, base, 1)))
        assert merged == Log([_entry(1), _entry(2)])
        assert cache.stats()["delta_merges"] == 1

    def test_different_responder_set_rebuilds(self):
        cache = QuorumViewCache()
        log = Log([_entry(1)])
        cache.merged_view("q", (_probe(0, log, 1), _probe(1, log, 1)))
        cache.merged_view("q", (_probe(0, log, 1), _probe(2, log, 1)))
        assert cache.stats()["rebuilds"] == 2

    def test_write_through_keeps_the_union_exact(self):
        cache = QuorumViewCache()
        base = Log([_entry(1)])
        cache.merged_view("q", (_probe(0, base, 1), _probe(1, base, 1)))
        update = base.add(_entry(2))
        cache.note_write("q", update, (_ack(0, 1, 2), _ack(1, 1, 2)))
        assert cache.stats()["write_throughs"] == 1
        merged, _ = cache.merged_view(
            "q", (_probe(0, update, 2), _probe(1, update, 2))
        )
        assert merged == update
        assert cache.stats()["hits"] == 1  # the write refreshed the versions

    def test_interleaved_writer_invalidates_instead_of_corrupting(self):
        cache = QuorumViewCache()
        base = Log([_entry(1)])
        cache.merged_view("q", (_probe(0, base, 1), _probe(1, base, 1)))
        update = base.add(_entry(2))
        # Site 0 reports version_before=2: someone else wrote between our
        # read (version 1) and this write.  The cached union can no longer
        # be extended soundly, so the entry must be dropped.
        cache.note_write("q", update, (_ack(0, 2, 3), _ack(1, 1, 2)))
        assert cache.stats()["write_throughs"] == 0
        interloper = base.add(_entry(99))
        merged, _ = cache.merged_view(
            "q",
            (_probe(0, interloper.merge(update), 3), _probe(1, update, 2)),
        )
        assert merged == interloper.merge(update)
        assert cache.stats()["rebuilds"] == 2

    def test_snapshot_change_forces_rebuild(self):
        cache = QuorumViewCache()

        class Snap:
            def __init__(self, dropped):
                self.dropped = frozenset(dropped)

            def subsumes(self, other):
                return other is None or self.dropped >= other.dropped

        log = Log([_entry(1), _entry(2)])
        snap = Snap({ActionId(1, 0)})
        merged, best = cache.merged_view(
            "q", (_probe(0, log, 1, snap), _probe(1, log, 1, snap))
        )
        assert best is snap
        assert merged == Log([_entry(2)])
        # Same versions but a *new* snapshot object: identity check fails,
        # the cache rebuilds rather than resurrecting dropped entries.
        wider = Snap({ActionId(1, 0), ActionId(2, 0)})
        merged, best = cache.merged_view(
            "q", (_probe(0, Log([_entry(2)]), 2, wider), _probe(1, log, 1, snap))
        )
        assert best is wider
        assert merged == Log()
        assert cache.stats()["rebuilds"] == 2

    def test_delta_merge_under_snapshots_keeps_the_cached_best(self):
        """Every probed site holds a snapshot; only the fragments move."""
        cache = QuorumViewCache()
        narrow = Snapshot(None, frozenset({ActionId(1, 0)}), None, 1)
        wide = Snapshot(None, frozenset({ActionId(1, 0), ActionId(3, 0)}), None, 2)
        first = Log([_entry(1), _entry(2), _entry(3)])
        second = Log([_entry(2), _entry(3)])
        _, best = cache.merged_view(
            "q", (_probe(0, first, 1, narrow), _probe(1, second, 1, wide))
        )
        assert best is wide
        # Site 0 grows on its own store (a slice of arrivals), including an
        # entry of a dropped action; site 1 comes back on a store of its
        # own (a restart), so it is diffed whole.
        probes = (
            _probe(0, first.extended([_entry(4), _entry(3), _entry(5)]), 2, narrow),
            _probe(1, Log([_entry(2), _entry(3), _entry(5), _entry(6)]), 2, wide),
        )
        merged, best = cache.merged_view("q", probes)
        assert cache.stats() == {
            "hits": 0, "delta_merges": 1, "rebuilds": 1, "write_throughs": 0,
        }
        assert best is wide
        expected, scratch_best = FromScratchViewCache().merged_view("q", probes)
        assert scratch_best is wide
        assert merged == expected == Log([_entry(2), _entry(4), _entry(5), _entry(6)])


# -- pinned run fingerprints, end to end ----------------------------------------


def _fingerprint(cluster, metrics, objects=("queue",)):
    histories = {
        name: str(cluster.tm.object(name).recorder.to_behavioral_history())
        for name in objects
    }
    return {
        "histories": histories,
        "outcomes": sorted(
            [op, outcome, count] for (op, outcome), count in metrics.outcomes.items()
        ),
        "messages_sent": cluster.network.messages_sent,
        "messages_dropped": cluster.network.messages_dropped,
        "availability": {
            op: metrics.availability(op)
            for op in sorted({op for op, _ in metrics.outcomes})
        },
    }


def _digest(fingerprint) -> str:
    return hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True).encode()
    ).hexdigest()


SCHEMES = ("hybrid", "dynamic", "static")


def _queue_cluster(seed: int, n_sites: int = 3, tracer=None, scheme: str = "hybrid"):
    queue = Queue()
    spec = ObjectSpec("queue", queue, scheme)
    cluster = cluster_of(n_sites, spec, seed=seed, tracer=tracer)
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        OperationMix.uniform("queue", queue.invocations()),
        ops_per_transaction=2,
        concurrency=3,
    )
    return cluster, generator


def _per_scheme(pins):
    """``(scheme, seed, digest)`` cases; hybrid keeps the bare-seed ids it
    had when it was the only scheme pinned."""
    return [
        pytest.param(
            scheme,
            seed,
            digest,
            id=str(seed) if scheme == "hybrid" else f"{scheme}-{seed}",
        )
        for scheme in SCHEMES
        for seed, digest in pins[scheme].items()
    ]


def _serial_cache_stats(cluster) -> dict[str, int]:
    totals: dict[str, int] = {}
    for frontend in cluster.frontends:
        for cache in frontend.serial_caches.values():
            for key, value in cache.stats().items():
                totals[key] = totals.get(key, 0) + value
    return totals


def _assert_serial_caches_worked(scheme: str, cluster) -> None:
    """The pin is not vacuous: the run folded deltas into its caches.

    Static must also have committed out of begin order, so that some
    group was inserted in front of existing checkpoints.
    """
    stats = _serial_cache_stats(cluster)
    assert stats["delta_folds"] > 0
    assert stats["delta_folds"] + stats["hits"] > stats["rebuilds"]
    if scheme == "static":
        assert stats["mid_inserts"] > 0


#: ``_digest(_fingerprint(...))`` of a clean 120-transaction run, per
#: scheme and seed — taken where a cache-free one-request-at-a-time
#: front-end produced the same fingerprint byte for byte.
_CLEAN_RUN_SHA256 = {
    "hybrid": {
        0: "030d59094b77b1adbedf3925b967412dfff1d43457a5b7d75145284e69d0be47",
        3: "4804731ae1532a2855fad2a11bebbad3bde3157ce0799f0293e8dff8f07781fa",
        11: "5aa385bcccc1987a299c97132b3d002f6054f58d6f352449283a749bf1682ce3",
    },
    "dynamic": {
        0: "e533b76350c775ecbf5e5c455e25f5c94102eae552b0c5f9bf58567600463335",
        3: "ff62a8de985958ff13996499f0007f34cf645aead555dfdaf7b26f861a5d739b",
        11: "0f69f477be484b87c44e6352518ad102ffe4ede6a3b39d642c96a5d805ef0afc",
    },
    "static": {
        0: "001663402661a711b34a555ed1c5e622e66211ef5163983641375bf72ce2f332",
        3: "ebe89aca60f609421af7a3ce8dfe2c305fe79a4b45fa94d1318ce8bccad74ad5",
        11: "3e1f3a5dd9e49e918bec5419ffad1d2f64407e9d37b8128057d2c3e8785d00ee",
    },
}

#: The same, for four 30-transaction segments on five sites with a
#: crash, a partition, and a heal + recovery between them.
_FAILURES_RUN_SHA256 = {
    "hybrid": {
        1: "4c1bac48342501f53557ed18ca38667c8c8fb89763dc45b2ca29453e8f74e044",
        7: "fd5aa03960eeb8f666908026d59b3d9d1247d510bb3213cd1e70f1467a0c7eb3",
    },
    "dynamic": {
        1: "7071c9c4a6c7149f29b69a3366f89e493929fab053c03c3092034dae753d39dd",
        7: "04471bfe5bd9079704602a6356e187a6da61b59f44f480d7bab75d1079f11a30",
    },
    "static": {
        1: "3cac45b1ee672db560dcacfe82048da7806d202a76a4d73f42d626b9dfd217bc",
        7: "9485f9be082b435fca7487c9c85ba590ee1c0256d024b218ca695f32ae888875",
    },
}

#: The same, for a hybrid run compacted after 25 of its 50 transactions.
_COMPACTION_RUN_SHA256 = (
    "f440315ecbf43c2aa0407474a3d0932b52c758d30ca0eb6f81d4db34c7f2febd"
)


class TestPinnedRuns:
    @pytest.mark.parametrize("scheme, seed, digest", _per_scheme(_CLEAN_RUN_SHA256))
    def test_clean_run_matches_its_pin(self, scheme, seed, digest):
        cluster, generator = _queue_cluster(seed, scheme=scheme)
        metrics = generator.run(120)
        assert _digest(_fingerprint(cluster, metrics)) == digest
        _assert_serial_caches_worked(scheme, cluster)

    @pytest.mark.parametrize(
        "scheme, seed, digest", _per_scheme(_FAILURES_RUN_SHA256)
    )
    def test_failures_between_segments_match_their_pin(self, scheme, seed, digest):
        cluster, generator = _queue_cluster(seed, n_sites=5, scheme=scheme)
        generator.run(30)
        cluster.network.crash(1)
        generator.run(30)
        cluster.network.partition({0, 1, 2}, {3, 4})
        generator.run(30)
        cluster.network.heal()
        cluster.network.recover(1)
        metrics = generator.run(30)
        assert _digest(_fingerprint(cluster, metrics)) == digest
        _assert_serial_caches_worked(scheme, cluster)

    def test_compaction_mid_run_matches_its_pin(self):
        cluster, generator = _queue_cluster(seed=2)
        generator.run(25)
        obj = cluster.tm.object("queue")
        snapshot = compact(cluster.network, cluster.repositories, obj, cluster.tm)
        assert snapshot is not None
        metrics = generator.run(25)
        assert _digest(_fingerprint(cluster, metrics)) == _COMPACTION_RUN_SHA256

    @pytest.mark.parametrize("scheme, seed, digest", _per_scheme(_CLEAN_RUN_SHA256))
    def test_clean_run_from_scratch_matches_the_same_pin(
        self, scheme, seed, digest, monkeypatch
    ):
        cache = from_scratch_front_ends(monkeypatch)
        cluster, generator = _queue_cluster(seed, scheme=scheme)
        metrics = generator.run(120)
        assert _digest(_fingerprint(cluster, metrics)) == digest
        assert cache.merges > 0

    @pytest.mark.parametrize(
        "scheme, seed, digest", _per_scheme(_FAILURES_RUN_SHA256)
    )
    def test_failures_between_segments_from_scratch_match_the_same_pin(
        self, scheme, seed, digest, monkeypatch
    ):
        cache = from_scratch_front_ends(monkeypatch)
        cluster, generator = _queue_cluster(seed, n_sites=5, scheme=scheme)
        generator.run(30)
        cluster.network.crash(1)
        generator.run(30)
        cluster.network.partition({0, 1, 2}, {3, 4})
        generator.run(30)
        cluster.network.heal()
        cluster.network.recover(1)
        metrics = generator.run(30)
        assert _digest(_fingerprint(cluster, metrics)) == digest
        assert cache.merges > 0

    def test_compaction_mid_run_from_scratch_matches_the_same_pin(self, monkeypatch):
        cache = from_scratch_front_ends(monkeypatch)
        cluster, generator = _queue_cluster(seed=2)
        generator.run(25)
        obj = cluster.tm.object("queue")
        snapshot = compact(cluster.network, cluster.repositories, obj, cluster.tm)
        assert snapshot is not None
        metrics = generator.run(25)
        assert _digest(_fingerprint(cluster, metrics)) == _COMPACTION_RUN_SHA256
        assert cache.merges > 0

    def test_traced_run_keeps_span_structure(self):
        tracer = Tracer()
        cluster, generator = _queue_cluster(seed=6, tracer=tracer)
        generator.run(20)
        by_id = {span.span_id: span for span in tracer.spans}
        kinds = {"transaction": 0, "operation": 0, "quorum": 0}
        for span in tracer.finished_spans():
            assert span.kind in kinds
            kinds[span.kind] += 1
            if span.kind == "quorum":
                assert by_id[span.parent_id].kind == "operation"
                served = span.attrs["served"]
                assert set(served) <= set(span.attrs["attempted"])
                if span.outcome == "ok":
                    assert set(span.attrs["quorum"]) <= set(served)
        assert all(count > 0 for count in kinds.values())

    def test_view_cache_is_exercised(self):
        cluster, generator = _queue_cluster(seed=9)
        generator.run(40)
        totals = {"hits": 0, "delta_merges": 0, "rebuilds": 0, "write_throughs": 0}
        for frontend in cluster.frontends:
            for key, value in frontend.view_cache.stats().items():
                totals[key] += value
        assert totals["hits"] + totals["delta_merges"] > 0
        assert totals["write_throughs"] > 0


# -- one wave path, traced or not -----------------------------------------------


def _chaos_run(mechanism: str, tracer, seed: int = 0, transactions: int = 40):
    """``write-heavy`` under the ``mixed`` fault profile, batched, settled.

    Returns the cluster, its object names and ``(events, legs)``: how
    many events its kernel dispatched — through ``run`` and on the way
    to an in-place wave leg — and how many legs ran in place (``reach``).
    """
    cluster, generator, names = runner.build_scenario(
        "write-heavy", seed=seed, mechanism=mechanism, transactions=transactions,
        tracer=tracer,
    )
    cluster.enable_resilience(POLICIES["default"])
    auditor = Auditor(cluster) if tracer is not None else None
    schedule = ChaosSchedule(
        generate_schedule("mixed", seed, cluster.network.n_sites, transactions)
    )
    generator.on_transaction_start = schedule.hook(cluster.network)
    dispatched, legs = [], []
    sim = cluster.sim
    run, reach = sim.run, sim.reach
    sim.run = lambda *a, **kw: dispatched.append(run(*a, **kw)) or dispatched[-1]
    sim.reach = lambda *a: legs.append(reach(*a)) or legs[-1]
    generator.run(transactions)
    assert settle(cluster, names)
    if auditor is not None:
        assert auditor.finish().ok
    return cluster, names, (sum(dispatched) + sum(legs), len(legs))


#: sha256 of ``to_jsonl(tracer.spans)`` of ``_chaos_run(mechanism, Tracer())``
#: with every ``sim.run``'s ``dispatched`` masked to 0.  Taken when wave
#: legs began to run in place: the export is the one before but for the
#: per-wave ``sim.run`` events, which are gone (this run's faults apply at
#: transaction start, so its waves were all its kernel ever dispatched).
#: Re-taken when protocol steps replaced per-probe records: the export is
#: the one before minus its ``rpc`` spans and ``repo.*`` events, with
#: each quorum span's ``attempted``/``served`` exactly the sites of its
#: former ``rpc`` children / of those with a ``repo.*`` child, plus one
#: ``antientropy.sync`` span per exchange (26 per mechanism).
_CHAOS_EXPORT_SHA256 = {
    "hybrid": "23d3842294935fa1edb44a278661f1a4b9f42fce4165e7c2e9190e6fdb39f7a3",
    "blocking": "7c02bed09003efe1a27fa7ff8081dd71a260c648417b8be318b92bf44dc4489a",
    "multiversion": "7a7045cd7cafe9661ba0aeb99f0c1b3b9ac0318bce51fe3ca6f08a6338ccd211",
}


class TestTracedRunIsTheUntracedRunPlusObservation:
    @pytest.mark.parametrize("mechanism", sorted(_CHAOS_EXPORT_SHA256))
    def test_tracing_moves_nothing_the_run_computes(self, mechanism):
        tracer = Tracer()
        traced, names, (traced_events, traced_legs) = _chaos_run(mechanism, tracer)
        plain, _names, (plain_events, plain_legs) = _chaos_run(mechanism, None)
        assert traced_events == plain_events
        assert traced_legs == plain_legs > 0
        for value in ("messages_sent", "messages_dropped"):
            assert getattr(traced.network, value) == getattr(plain.network, value)
        assert traced.network.messages_dropped > 0  # the faults did bite
        assert traced.sim.now == plain.sim.now
        for name in names:
            assert str(traced.tm.object(name).recorder.to_behavioral_history()) == str(
                plain.tm.object(name).recorder.to_behavioral_history()
            )
        # What the traced run's sim.run events say was dispatched is the
        # untraced figure too.
        assert traced_events == sum(
            span.attrs["dispatched"] for span in tracer.spans if span.name == "sim.run"
        )

    @pytest.mark.parametrize("mechanism", sorted(_CHAOS_EXPORT_SHA256))
    def test_full_export_is_pinned_but_for_dispatched(self, mechanism):
        tracer = Tracer()
        _chaos_run(mechanism, tracer)
        text = re.sub(r'"dispatched": \d+', '"dispatched": 0', to_jsonl(tracer.spans))
        assert hashlib.sha256(text.encode()).hexdigest() == _CHAOS_EXPORT_SHA256[mechanism]


# -- simulated throughput ------------------------------------------------------

#: transactions -> (fingerprint SHA-256, exact operations per simulated
#: second) of the seed-0 queue workload on five sites, one operation per
#: transaction and four in flight.  Taken where a one-request-at-a-time
#: front-end produced the same fingerprint at a third of the simulated
#: throughput (0.083 vs 0.244 ops/sim-s at 400 transactions), and a
#: dataclass-heap event queue the same fingerprint and throughput, byte
#: for byte.  Wall time is the repo benchmark's to judge, not a test's.
_THROUGHPUT_PINS = {
    120: (
        "e84d762895266f378b5806a9d4e95fd596b456568981b338adacda4254e4397a",
        0.24390243902438974,
    ),
    400: (
        "055d5c6da0f03be95e08de2b8cb5e9ebdb0d308d7a6414e5756873c09860f9d4",
        0.2439024390243917,
    ),
}


class TestSimulatedThroughput:
    @pytest.mark.parametrize("transactions", sorted(_THROUGHPUT_PINS))
    def test_queue_workload_matches_its_pin(self, transactions):
        queue = Queue()
        cluster = cluster_of(5, ObjectSpec("queue", queue), seed=0)
        metrics = WorkloadGenerator(
            cluster.sim,
            cluster.tm,
            cluster.frontends,
            OperationMix.uniform("queue", queue.invocations()),
            ops_per_transaction=1,
            concurrency=4,
        ).run(transactions)
        operations = metrics.operations()
        fingerprint = {
            "outcomes": sorted(
                [op, outcome, count]
                for (op, outcome), count in metrics.outcomes.items()
            ),
            "messages_sent": cluster.network.messages_sent,
            "messages_dropped": cluster.network.messages_dropped,
            "availability": {op: metrics.availability(op) for op in operations},
        }
        attempts = sum(metrics.attempts(op) for op in operations)
        pin = (_digest(fingerprint), attempts / cluster.sim.now)
        assert pin == _THROUGHPUT_PINS[transactions]


# -- trial sharding -----------------------------------------------------------


def _availability_trial(seed: int):
    """One small Monte Carlo availability trial (module-level: picklable)."""
    cluster, generator = _queue_cluster(seed)
    metrics = generator.run(12)
    print_ = _fingerprint(cluster, metrics)
    return seed, print_


def _crash_trial(seed: int):
    """A 3-site queue workload of 40 transactions, site 2 down for the second half."""
    queue = Queue()
    cluster = cluster_of(3, ObjectSpec("queue", queue), seed=seed)
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        OperationMix.uniform("queue", queue.invocations()),
        ops_per_transaction=1,
        concurrency=2,
    )
    generator.run(20)
    cluster.network.crash(2)
    metrics = generator.run(20)
    cluster.network.recover(2)
    availability = tuple(
        (op, round(metrics.availability(op), 9)) for op in metrics.operations()
    )
    return availability, cluster.network.messages_sent, cluster.network.messages_dropped


class TestTrialSharding:
    def test_results_come_back_in_seed_order(self):
        seeds = [5, 1, 9, 3]
        results, _ = run_trials(_availability_trial, seeds, jobs=1)
        assert [seed for seed, _ in results] == seeds

    @pytest.mark.parametrize(
        "trial, seeds, job_counts",
        [(_availability_trial, range(4), (2,)), (_crash_trial, range(8), (2, 4))],
        ids=["availability", "crash"],
    )
    def test_one_job_and_n_jobs_are_byte_identical(self, trial, seeds, job_counts):
        serial_results, serial_parallel = run_trials(trial, seeds, jobs=1)
        assert serial_parallel is False
        for jobs in job_counts:
            sharded_results, sharded_parallel = run_trials(trial, seeds, jobs=jobs)
            assert serial_results == sharded_results
            # sharded_parallel is True only when a pool really ran; either
            # way the results must match — that is the honesty contract.
            assert isinstance(sharded_parallel, bool)

    def test_repro_jobs_environment_is_honored(self, monkeypatch):
        seeds = [0, 1]
        monkeypatch.setenv("REPRO_JOBS", "2")
        env_results, _ = run_trials(_availability_trial, seeds)
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial_results, used = run_trials(_availability_trial, seeds)
        assert used is False
        assert env_results == serial_results

    def test_unpicklable_trial_falls_back_to_serial(self):
        captured = {"note": "unpicklable closure state"}
        results, parallel_used = run_trials(
            lambda seed: (seed, captured["note"]), [1, 2, 3], jobs=4
        )
        assert parallel_used is False
        assert results == [(1, captured["note"]), (2, captured["note"]),
                           (3, captured["note"])]


# -- allocation-free simulator core (PR 8) ------------------------------------


class TestScheduleAtErrorMessages:
    """A past-time error must name both the target and the current clock."""

    def test_schedule_at_reports_target_and_now(self):
        sim = Simulator()
        sim.advance(5.0)
        with pytest.raises(SimulationError) as err:
            sim.schedule_at(2.0, lambda: None)
        assert "2.0" in str(err.value)
        assert "5.0" in str(err.value)

    def test_call_at_reports_target_and_now(self):
        sim = Simulator()
        sim.advance(7.5)
        with pytest.raises(SimulationError) as err:
            sim.call_at(3.25, lambda: None)
        assert "3.25" in str(err.value)
        assert "7.5" in str(err.value)

    def test_boundary_time_is_allowed(self):
        sim = Simulator()
        sim.advance(4.0)
        fired = []
        sim.schedule_at(4.0, lambda: fired.append("handle"))
        sim.call_at(4.0, lambda: fired.append("anon"))
        sim.run()
        assert fired == ["handle", "anon"]
        assert sim.now == 4.0


def _quarter(value: float) -> float:
    return round(value * 4) / 4


def _kernel_script(script_seed: int) -> list[tuple[str, float]]:
    """A seeded script of schedule / schedule_at / call_at / cancel / run.

    Times fall on a quarter-unit grid, so many events share an instant
    and the sequence-number tie-break decides their order.
    """
    rng = random.Random(script_seed)
    script = []
    for _ in range(2_500):
        roll = rng.random()
        if roll < 0.35:
            script.append(("schedule", _quarter(rng.random() * 20.0)))
        elif roll < 0.45:
            script.append(("schedule_at", _quarter(rng.random() * 25.0)))
        elif roll < 0.60:
            script.append(("call_at", _quarter(rng.random() * 25.0)))
        elif roll < 0.85:
            script.append(("cancel", rng.randrange(1 << 30)))
        else:
            script.append(("run", _quarter(rng.random() * 4.0)))
    return script


def _kernel_trace(script: list[tuple[str, float]]) -> str:
    """Replay ``script``; one ``fired now pending queue_depth`` line per step.

    ``fired`` is what the step dispatched (script step indices, in
    dispatch order); a last line covers the final drain.
    """
    sim = Simulator(seed=9)
    fired: list[int] = []
    handles = []
    lines = []
    seen = 0

    def record() -> None:
        nonlocal seen
        lines.append(f"{fired[seen:]!r} {sim.now!r} {sim.pending} {sim.queue_depth}")
        seen = len(fired)

    for step, (op, arg) in enumerate(script):
        if op == "schedule":
            handles.append(sim.schedule(arg, lambda s=step: fired.append(s)))
        elif op == "schedule_at":
            handles.append(
                sim.schedule_at(sim.now + arg, lambda s=step: fired.append(s))
            )
        elif op == "call_at":
            sim.call_at(sim.now + arg, lambda s=step: fired.append(s))
        elif op == "cancel":
            if handles:
                sim.cancel(handles[arg % len(handles)])
        else:
            sim.run(until=sim.now + arg)
        record()
    sim.run()
    record()
    assert sim.pending == 0
    return "\n".join(lines)


#: SHA-256 of ``_kernel_trace(_kernel_script(seed))`` — taken where a
#: second, dataclass-heap event queue replayed the same scripts with the
#: same clock, live count, physical depth (compaction included) and
#: dispatch order at every step.
_KERNEL_TRACE_SHA256 = {
    0: "8af778e264e069313678f4462158eb8e9e6675070688041d7cfe104cbb2924cf",
    1: "038905088ca4f733e8a805b4abb174aad654b0a600937474f839c27a40dbad65",
    2: "aa649af5ccac537ff02d09148d1150c87cb64b79a5549e3f02cda5c3d55f759a",
}


class TestKernelTracePins:
    """Randomized interleavings of thousands of kernel calls, pinned."""

    @pytest.mark.parametrize("script_seed", sorted(_KERNEL_TRACE_SHA256))
    def test_randomized_interleavings_match_their_pin(self, script_seed):
        trace = _kernel_trace(_kernel_script(script_seed))
        assert (
            hashlib.sha256(trace.encode()).hexdigest()
            == _KERNEL_TRACE_SHA256[script_seed]
        )


class TestAllocationFreeCore:
    """The hot paths must not retain memory per event at steady state."""

    def test_steady_call_at_loop_retains_nothing(self):
        sim = Simulator()
        tick = lambda: None  # noqa: E731 - a single shared callback
        for _ in range(1_000):  # warm the heap, dict, and free-list
            sim.call_at(sim.now + 1.0, tick)
            sim.run()
        before = sys.getallocatedblocks()
        for _ in range(10_000):
            sim.call_at(sim.now + 1.0, tick)
            sim.run()
        after = sys.getallocatedblocks()
        assert after - before < 50

    def test_schedule_cancel_churn_retains_nothing(self):
        sim = Simulator()
        tick = lambda: None  # noqa: E731
        for _ in range(1_000):
            sim.cancel(sim.schedule(1.0, tick))
        before = sys.getallocatedblocks()
        for _ in range(10_000):
            sim.cancel(sim.schedule(1.0, tick))
        after = sys.getallocatedblocks()
        assert after - before < 50

    def test_dispatched_handles_are_recycled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        recycled_id = id(handle)
        del handle  # the kernel holds the last reference at dispatch
        sim.run()
        fresh = sim.schedule(1.0, lambda: None)
        assert id(fresh) is not None and id(fresh) == recycled_id

    def test_retained_handles_are_never_recycled(self):
        sim = Simulator()
        kept = sim.schedule(1.0, lambda: None)
        sim.run()
        fresh = sim.schedule(1.0, lambda: None)
        assert fresh is not kept
        assert kept.dispatched
        sim.cancel(kept)  # stale cancel: must be a no-op on the new event
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0  # the new event still dispatched

    def test_message_flyweights_are_interned(self):
        from repro.histories.events import Event, Invocation, Response

        inv = Invocation("Enq", (3,))
        assert inv is Invocation("Enq", (3,))
        res = Response("Ok", ())
        assert res is Response("Ok", ())
        assert Event(inv, res) is Event(inv, res)
        # Interning preserves equality semantics for uncached values too.
        assert Invocation("Enq", (4,)) == Invocation("Enq", (4,))

    def test_event_construction_at_steady_state_allocates_nothing(self):
        from repro.histories.events import Event, Invocation, Response

        for value in range(8):  # warm the intern tables
            Event(Invocation("Enq", (value,)), Response("Ok", ()))
        before = sys.getallocatedblocks()
        for _ in range(10_000):
            for value in range(8):
                Event(Invocation("Enq", (value,)), Response("Ok", ()))
        after = sys.getallocatedblocks()
        assert after - before < 50
