"""Throughput-engine tests: the event kernel, batched fan-out, the
quorum view fold, and trial sharding.

The load-bearing property throughout is *determinism*: the kernel's
per-step trace, and the behavioral histories, message counters, outcome
counts and availability numbers of seeded runs through
``Network.gather``, the view fold and the serial cache, are pinned as
SHA-256 digests.  Each digest was taken when a second,
cache-free implementation (a one-request-at-a-time front-end, a
dataclass event heap) still ran beside the first and agreed with it
byte for byte, so a pin that still holds means the optimized path still
computes what the simple one did.  Each pinned run is also replayed
with every committed serialization built from scratch
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
from repro.quorum.coterie import SubsetThresholdCoterie, ThresholdCoterie
from repro.replication.keyspace import ObjectSpec
from repro.replication.log import EMPTY_LOG, Log, LogEntry
from repro.replication.snapshot import Snapshot, compact
from repro.replication.viewcache import fold_view
from repro.resilience.chaos import ChaosSchedule, generate_schedule, settle
from repro.resilience.policy import POLICIES
from repro.scenarios import runner
from repro.sim.kernel import Simulator
from repro.sim.network import GatherResult, Network, ProbeReply, Timeout
from repro.sim.trials import run_trials
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.txn.ids import ActionId
from repro.types import Queue
from tests.helpers import (
    cluster_of,
    from_scratch_front_ends,
    replies,
    serial_cache_work,
)
from tests.oracles import folded_view

pytestmark = pytest.mark.throughput


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


@st.composite
def _count_stopped_gathers(draw):
    """``(n_sites, origin, order, coterie, crashed, groups, drop)``: a
    threshold coterie whose members cover the visit order (and maybe more
    sites), under random crashes, a partition cut and message loss."""
    n_sites, origin, order, _stop, crashed, groups = draw(_stable_gathers())
    members = frozenset(order) | draw(st.sets(st.integers(0, n_sites - 1)))
    threshold = draw(st.integers(0, len(members)))
    drop = draw(st.sampled_from((0.0, 0.3)))
    coterie = SubsetThresholdCoterie(n_sites, members, threshold)
    return n_sites, origin, order, coterie, crashed, groups, drop


class TestGather:
    def test_probes_overlap_and_complete_in_site_order(self):
        network = _fabric()
        outcome = network.gather(0, [2, 0, 1], lambda site: site * 10)
        assert outcome.attempted == (2, 0, 1)
        assert [reply.site for reply in replies(outcome)] == [0, 1, 2]
        assert [reply.value for reply in outcome.received] == [20, 0, 10]
        assert all(reply.completed_at == 2.0 for reply in replies(outcome))
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
        assert outcome.received == ()
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
        assert [reply.value for reply in outcome.received] == [
            reply.value for reply in walked.received
        ]
        assert batched.messages_sent == serial.messages_sent
        assert batched.messages_dropped == serial.messages_dropped

    @settings(max_examples=200, deadline=None)
    @given(case=_count_stopped_gathers())
    def test_count_stop_matches_the_coterie_stop(self, case):
        """A threshold coterie whose members cover the route stops its
        gather on a count of responders: the result, the counters, the
        clock and the kernel's sequence counter are those of the same
        gather asking ``has_quorum`` after each site."""
        n_sites, origin, order, coterie, crashed, groups, drop = case
        count = coterie.stop_for(order)
        assert type(count) is int and count == coterie.threshold
        runs = []
        for stop in (count, coterie.has_quorum):
            network = _fabric(n_sites=n_sites, drop_probability=drop)
            for site in crashed:
                network.crash(site)
            if groups:
                network.partition(*groups)
            outcome = network.gather(origin, order, lambda site: site * 10, stop=stop)
            sim = network.sim
            runs.append((
                outcome, network.messages_sent, network.messages_dropped, sim.now,
                sim._seq,
            ))
        counted, asked = runs
        for field in GatherResult._fields:
            assert getattr(counted[0], field) == getattr(asked[0], field), field
        assert counted[1:] == asked[1:]


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
    on this cell (5 859), and the one before the in-place wave and the
    count stop 4.3 (3 627).  A fault-free wave on an idle kernel now makes
    1.67: a handler call per probe, plus one request and one reply leg
    per wave (the ``GatherResult`` is built with ``tuple.__new__``).
    """

    #: ``hot-key-contention × blocking``, seed 0, 40 transactions.
    PROBES = 837
    CALLS = 1_395

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


# -- the quorum view fold -------------------------------------------------------


def _entry(seq: int, action: int | None = None) -> LogEntry:
    owner = ActionId(seq if action is None else action, 0)
    return LogEntry(Timestamp(seq, 0), event("Enq", (seq,)), owner)


def _probe(site: int, log: Log, snapshot=None) -> ProbeReply:
    return ProbeReply(site=site, value=(log, snapshot), completed_at=0.0)


def _snapshot(covered=(), discarded=()) -> Snapshot:
    """A new snapshot object (equal coverage is not identity)."""
    return Snapshot(
        None,
        frozenset(ActionId(a, 0) for a in covered),
        None,
        len(covered),
        discarded=frozenset(ActionId(a, 0) for a in discarded),
    )


def _assert_folds_like_the_oracle(probes) -> tuple[Log, Snapshot | None]:
    log, best = fold_view(probes)
    entries, expected = folded_view([probe.value for probe in probes])
    assert best is expected
    assert log.entry_set == entries and len(log) == len(entries)
    assert [e.sort_key for e in log.ordered()] == sorted(e.sort_key for e in entries)
    return log, best


#: Twelve entries of six actions (two each), and the table a fragment on
#: "one table" is a mask over.
_POOL = tuple(_entry(seq, action=1 + seq // 2) for seq in range(12))
_SHARED = Log(_POOL)


@st.composite
def _quorum_replies(draw):
    """An initial quorum's probes in visit order.

    Each site holds a snapshot of a chain (the first ``level`` of six
    actions folded, those in ``aborted`` discarded, a new object each
    time, so equal coverage recurs) or none, and a fragment with none of
    its own snapshot's entries: a mask over one shared table or a table
    of its own, possibly empty.  A site behind the best snapshot still
    holds entries it folded.
    """
    aborted = draw(st.sets(st.integers(1, 6)))
    probes = []
    for site in range(draw(st.integers(0, 5))):
        level = draw(st.one_of(st.none(), st.integers(0, 6)))
        snapshot = None
        if level is not None:
            folded = range(1, level + 1)
            snapshot = _snapshot(
                [a for a in folded if a not in aborted], [a for a in folded if a in aborted]
            )
        dropped = frozenset() if snapshot is None else snapshot.dropped
        kept = [
            bit for bit in sorted(draw(st.sets(st.integers(0, len(_POOL) - 1))))
            if _POOL[bit].action not in dropped
        ]
        if draw(st.booleans()):
            fragment = Log._of(_SHARED._table, sum(1 << bit for bit in kept))
        else:
            fragment = Log(_POOL[bit] for bit in kept)
        probes.append(_probe(site, fragment, snapshot))
    return probes


class TestFoldView:
    @settings(deadline=None, max_examples=200)
    @given(_quorum_replies())
    def test_the_fold_is_the_set_algebra_view(self, probes):
        _assert_folds_like_the_oracle(probes)

    def test_fragments_on_one_table_fold_onto_it(self):
        base = Log([_entry(1)])
        grown, forked = base.add(_entry(2)), base.add(_entry(3))
        log, best = _assert_folds_like_the_oracle(
            (_probe(0, grown), _probe(1, forked), _probe(2, base))
        )
        assert best is None and log._table is base._table
        assert log.entry_set == {_entry(1), _entry(2), _entry(3)}

    def test_a_lagging_site_s_folded_entries_are_filtered(self):
        log = Log([_entry(1), _entry(2)])
        snapshot = _snapshot(covered=[1])
        merged, best = _assert_folds_like_the_oracle(
            (_probe(0, log), _probe(1, Log([_entry(2)]), snapshot))
        )
        assert best is snapshot and merged == Log([_entry(2)])
        # A wider snapshot elsewhere drops everything a lagging site holds.
        wider = _snapshot(covered=[1], discarded=[2])
        merged, best = _assert_folds_like_the_oracle(
            (_probe(0, log, snapshot), _probe(1, Log(), wider), _probe(2, log))
        )
        assert best is wider and merged == Log()

    def test_of_two_equal_snapshots_the_later_wins(self):
        first, second = _snapshot(covered=[1]), _snapshot(covered=[1])
        assert first == second and first is not second
        _, best = _assert_folds_like_the_oracle(
            (_probe(0, Log([_entry(2)]), first), _probe(1, Log(), second))
        )
        assert best is second
        # A narrower snapshot after them elects nothing.
        _, best = _assert_folds_like_the_oracle(
            (_probe(0, Log(), first), _probe(1, Log(), _snapshot()))
        )
        assert best is first

    def test_an_empty_quorum_folds_to_the_empty_view(self):
        assert fold_view(()) == (Log(), None)
        empty = (_probe(0, Log()), _probe(1, EMPTY_LOG))
        assert _assert_folds_like_the_oracle(empty) == (Log(), None)


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


def _assert_serial_caches_worked(scheme: str, work: dict[str, int]) -> None:
    """The pin is not vacuous: the object's rows served the run's views.

    ``work`` is the run's :func:`~tests.helpers.serial_cache_work`.  The
    queue runs majority quorums, so every view holds every committed
    entry and is served the rows each commit folded into the object's
    cache.  Static must also have committed out of begin order, so that
    some group was inserted in front of existing rows.
    """
    assert work["folds"] > 0
    assert work["served"] > 0
    assert work["fallbacks"] == 0
    if scheme == "static":
        assert work["mid_inserts"] > 0


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
    def test_clean_run_matches_its_pin(self, scheme, seed, digest, monkeypatch):
        cluster, generator = _queue_cluster(seed, scheme=scheme)
        work = serial_cache_work(monkeypatch)
        metrics = generator.run(120)
        assert _digest(_fingerprint(cluster, metrics)) == digest
        _assert_serial_caches_worked(scheme, work)

    @pytest.mark.parametrize(
        "scheme, seed, digest", _per_scheme(_FAILURES_RUN_SHA256)
    )
    def test_failures_between_segments_match_their_pin(
        self, scheme, seed, digest, monkeypatch
    ):
        cluster, generator = _queue_cluster(seed, n_sites=5, scheme=scheme)
        work = serial_cache_work(monkeypatch)
        generator.run(30)
        cluster.network.crash(1)
        generator.run(30)
        cluster.network.partition({0, 1, 2}, {3, 4})
        generator.run(30)
        cluster.network.heal()
        cluster.network.recover(1)
        metrics = generator.run(30)
        assert _digest(_fingerprint(cluster, metrics)) == digest
        _assert_serial_caches_worked(scheme, work)

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
        built = from_scratch_front_ends(monkeypatch)
        cluster, generator = _queue_cluster(seed, scheme=scheme)
        metrics = generator.run(120)
        assert _digest(_fingerprint(cluster, metrics)) == digest
        assert built["reference_rows"] > 0

    @pytest.mark.parametrize(
        "scheme, seed, digest", _per_scheme(_FAILURES_RUN_SHA256)
    )
    def test_failures_between_segments_from_scratch_match_the_same_pin(
        self, scheme, seed, digest, monkeypatch
    ):
        built = from_scratch_front_ends(monkeypatch)
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
        assert built["reference_rows"] > 0

    def test_compaction_mid_run_from_scratch_matches_the_same_pin(self, monkeypatch):
        built = from_scratch_front_ends(monkeypatch)
        cluster, generator = _queue_cluster(seed=2)
        generator.run(25)
        obj = cluster.tm.object("queue")
        snapshot = compact(cluster.network, cluster.repositories, obj, cluster.tm)
        assert snapshot is not None
        metrics = generator.run(25)
        assert _digest(_fingerprint(cluster, metrics)) == _COMPACTION_RUN_SHA256
        assert built["reference_rows"] > 0

    def test_traced_run_keeps_span_structure(self):
        tracer = Tracer()
        cluster, generator = _queue_cluster(seed=6, tracer=tracer)
        generator.run(20)
        by_id = {span.span_id: span for span in tracer.spans}
        kinds = {"transaction": 0, "operation": 0, "quorum": 0}
        for span in tracer.spans:
            assert span.finished and span.kind in kinds
            kinds[span.kind] += 1
            if span.kind == "quorum":
                assert by_id[span.parent_id].kind == "operation"
                served = span.attrs["served"]
                assert set(served) <= set(span.attrs["attempted"])
                if span.outcome == "ok":
                    assert set(span.attrs["quorum"]) <= set(served)
        assert all(count > 0 for count in kinds.values())



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


# -- the event kernel: past times, per-step traces, steady state --------------


class TestPastTimes:
    """A past-time error names both the target and the current clock;
    the current instant itself is not the past."""

    def test_reach_reports_target_and_now(self):
        sim = Simulator()
        sim.advance(7.5)
        with pytest.raises(SimulationError) as err:
            sim.reach(3.25, lambda: None)
        assert "3.25" in str(err.value)
        assert "7.5" in str(err.value)

    def test_boundary_time_is_allowed(self):
        sim = Simulator()
        sim.advance(4.0)
        fired = []
        sim.schedule(0.0, lambda: fired.append("first"))
        sim.schedule(0.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 4.0

    def test_schedule_reports_the_negative_delay(self):
        sim = Simulator()
        sim.advance(5.0)
        with pytest.raises(SimulationError) as err:
            sim.schedule(-2.5, lambda: None)
        assert "-2.5" in str(err.value)
        assert sim.run() == 0 and sim.now == 5.0


class TestDispatchModel:
    """The kernel against a sorted-list model of ``(time, seq)`` keys."""

    def test_agrees_with_brute_force_through_mixed_sequences(self):
        sim = Simulator(seed=5)
        fired: list[int] = []
        model: list[tuple[float, int]] = []  # (time, id) still queued
        for step in range(400):
            choice = sim.rng.random()
            if choice < 0.5:
                time = sim.now + sim.rng.random() * 10
                sim.schedule(time - sim.now, lambda s=step: fired.append(s))
                model.append((time, step))
            elif choice < 0.6:
                sim.advance(sim.rng.random())
            elif choice < 0.8:
                until = sim.now + sim.rng.random() * 3
                due = sorted(key for key in model if key[0] <= until)
                model = [key for key in model if key[0] > until]
                start = len(fired)
                assert sim.run(until=until) == len(due)
                assert fired[start:] == [s for _time, s in due]
                assert sim.now == max(until, sim.now)
            else:
                at = sim.now + sim.rng.random() * 3
                due = sorted(key for key in model if key[0] <= at)
                model = [key for key in model if key[0] > at]
                start = len(fired)
                assert sim.reach(at, fired.append, "leg") == len(due)
                assert fired[start:] == [s for _time, s in due] + ["leg"]
                assert sim.now == at
            assert len(sim._heap) == len(model)
        rest = sorted(model)
        start = len(fired)
        assert sim.run() == len(rest)
        assert fired[start:] == [s for _time, s in rest]

    def test_large_random_queue_dispatches_in_time_then_schedule_order(self):
        sim = Simulator(seed=3)
        fired = []
        keys = []
        for i in range(2_000):
            # Quarter-unit times, so many events share an instant.
            delay = round(sim.rng.random() * 50 * 4) / 4
            sim.schedule(delay, lambda i=i: fired.append(i))
            keys.append((delay, i))
        assert sim.run() == 2_000
        assert fired == [i for _delay, i in sorted(keys)]

    def test_queue_holds_exactly_the_undispatched_events(self):
        sim = Simulator()
        fired = []
        for i in range(10_000):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        assert len(sim._heap) == 10_000
        assert sim.run(until=1_000.0) == 1_000
        assert len(sim._heap) == 9_000
        assert sim.reach(5_000.5, lambda: None) == 4_000
        assert len(sim._heap) == 5_000
        assert sim.run() == 5_000
        assert sim._heap == [] and fired == list(range(10_000))


def _quarter(value: float) -> float:
    return round(value * 4) / 4


def _kernel_script(script_seed: int) -> list[tuple[str, float]]:
    """A seeded script of ``schedule`` and ``run`` steps.

    Times fall on a quarter-unit grid, so many events share an instant
    and the sequence-number tie-break decides their order.  The draws
    follow the older five-way script (schedule, absolute-time schedule,
    handle-free schedule, cancel, run): each scheduling roll becomes a
    ``schedule`` by the same delay, and a cancel roll still draws its
    index but adds no step, so each seed keeps its sequence of draws.
    """
    rng = random.Random(script_seed)
    script = []
    for _ in range(2_500):
        roll = rng.random()
        if roll < 0.35:
            script.append(("schedule", _quarter(rng.random() * 20.0)))
        elif roll < 0.60:
            script.append(("schedule", _quarter(rng.random() * 25.0)))
        elif roll < 0.85:
            rng.randrange(1 << 30)
        else:
            script.append(("run", _quarter(rng.random() * 4.0)))
    return script


def _kernel_trace(script: list[tuple[str, float]]) -> str:
    """Replay ``script``; one ``fired now`` line per step.

    ``fired`` is what the step dispatched (script step indices, in
    dispatch order); a last line covers the final drain.
    """
    sim = Simulator(seed=9)
    fired: list[int] = []
    lines = []
    seen = 0

    def record() -> None:
        nonlocal seen
        lines.append(f"{fired[seen:]!r} {sim.now!r}")
        seen = len(fired)

    for step, (op, arg) in enumerate(script):
        if op == "schedule":
            sim.schedule(arg, lambda s=step: fired.append(s))
        else:
            sim.run(until=sim.now + arg)
        record()
    sim.run()
    record()
    assert sim.run() == 0
    return "\n".join(lines)


#: SHA-256 of ``_kernel_trace(_kernel_script(seed))``.  The five-way
#: script these derive from was pinned where a second, dataclass-heap
#: event queue replayed it with the same clock, live count, physical
#: depth and dispatch order at every step; these digests were re-taken
#: on that same kernel when the script dropped its cancels.
_KERNEL_TRACE_SHA256 = {
    0: "95581c49647d5ec914f0bb448e5127b8733daf5d461c53cefaefa1e18b6c299f",
    1: "b722c27d161dfbc16dc94e8a39c3e9b73ce949c68936c3fe4604d2da07f84f06",
    2: "199eaa111eb5c9a9734538c4b902cfe16a46b0434466169b6f314c365fdb78e9",
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

    def test_steady_schedule_loop_retains_nothing(self):
        sim = Simulator()
        tick = lambda: None  # noqa: E731 - a single shared callback
        for _ in range(1_000):  # warm the heap
            sim.schedule(1.0, tick)
            sim.run()
        before = sys.getallocatedblocks()
        for _ in range(10_000):
            sim.schedule(1.0, tick)
            sim.run()
        after = sys.getallocatedblocks()
        assert after - before < 50

    def test_schedule_run_until_churn_retains_nothing(self):
        # A queue held at a steady depth of 64: each step schedules one
        # event and runs up to the earliest.
        sim = Simulator()
        tick = lambda: None  # noqa: E731
        for i in range(64):
            sim.schedule(float(i + 1), tick)
        for _ in range(1_000):
            sim.schedule(65.0, tick)
            sim.run(until=sim.now + 1.0)
        before = sys.getallocatedblocks()
        for _ in range(10_000):
            sim.schedule(65.0, tick)
            sim.run(until=sim.now + 1.0)
        after = sys.getallocatedblocks()
        assert len(sim._heap) == 64
        assert after - before < 50

    def test_steady_reach_loop_retains_nothing(self):
        # The gather path: every wave leg is a ``reach``, with an
        # injector's event due on some of the instants.
        sim = Simulator()
        tick = lambda: None  # noqa: E731
        leg = lambda: None  # noqa: E731
        for _ in range(1_000):
            sim.schedule(0.5, tick)
            sim.reach(sim.now + 1.0, leg)
        before = sys.getallocatedblocks()
        for _ in range(10_000):
            sim.schedule(0.5, tick)
            sim.reach(sim.now + 1.0, leg)
        after = sys.getallocatedblocks()
        assert sim._heap == []
        assert after - before < 50

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
