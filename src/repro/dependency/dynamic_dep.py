"""The unique minimal dynamic dependency relation (Theorem 10).

Theorem 10: ``inv ≥D e`` iff there exists a response ``res`` such that
``[inv;res]`` and ``e`` do not *commute*, where two events commute
(Definition 8) when for every serial history ``h`` with ``h·e`` and
``h·e'`` both legal, ``h·e·e'`` and ``h·e'·e`` are equivalent legal
histories.

The table (:func:`commutativity_table`) does not walk histories at all:
Definition 8 reads ``h`` only through the states it can be in
(``h ≡ h'``, Section 5), so one **shared pass** visits each
distinct frontier reachable within ``max_events`` generator events once
(:class:`~repro.spec.legality.MergedFrontiers`), steps every alphabet
event from it, and checks each not-yet-refuted pair with both events
enabled by two more hops — the two orders commute there iff they land
on the same canonical node.  Its agreement with Definition 8 checked
pair by pair over every legal history (``commute`` in
``tests/oracles.py``) is test-enforced (``tests/test_compute.py``,
``tests/test_dependency_searches.py``).

The commutativity table computed here is also what the locking
concurrency-control scheme (:mod:`repro.cc.locking`) uses for its
conflict matrix — the paper's point that strong dynamic atomicity ties
*both* concurrency and availability to the same commutativity structure.

The shared pass can additionally be sharded across worker processes
(``jobs``): the frontiers reachable through each first event are an
independent walk, refuted pairs merge by union, and the empty history is
checked by the coordinating process.
"""

from __future__ import annotations

from repro.dependency.relation import DependencyRelation, GroundPair
from repro.histories.events import Event
from repro.spec.datatype import SerialDataType
from repro.spec.enumerate import event_alphabet
from repro.spec.legality import LegalityOracle, MergedFrontiers

#: An unordered event pair, stored as alphabet indices ``i <= j``.
IndexPair = tuple[int, int]


def _refute_reachable_pairs(
    oracle: LegalityOracle,
    events: tuple[Event, ...],
    depth: int,
    first_events: tuple[Event, ...] | None = None,
) -> set[IndexPair]:
    """One walk over the frontiers within ``depth`` generator events of the
    empty history (or of the histories ``(e,)`` for ``e`` in ``first_events``).

    Returns the index pairs ``(i, j)`` with ``i <= j`` for which some
    history ending there witnesses non-commutativity (Definition 8).
    The definition reads the history only through its frontier, so each
    distinct frontier is checked once.
    """
    total_pairs = len(events) * (len(events) + 1) // 2
    refuted: set[IndexPair] = set()
    merged = MergedFrontiers(oracle)
    after = merged.after
    starts = None
    if first_events is not None:
        starts = [after(merged.root, occurred) for occurred in first_events]
    for level in merged.levels(depth, starts):
        for node in level:
            if len(refuted) == total_pairs:
                return refuted  # every pair already has a witness
            enabled = [
                (index, child)
                for index, ev in enumerate(events)
                if (child := after(node, ev)) is not None
            ]
            for position, (i, after_i) in enumerate(enabled):
                for j, after_j in enabled[position:]:
                    if (i, j) in refuted:
                        continue
                    forward = after(after_i, events[j])
                    if forward is None or forward is not after(after_j, events[i]):
                        refuted.add((i, j))
    return refuted


def _shard_worker(
    payload: tuple[SerialDataType, tuple[Event, ...], int, tuple[Event, ...]],
) -> set[IndexPair]:
    """Process-pool unit: refute pairs over the walk from a batch of first events."""
    datatype, events, depth, first_events = payload
    oracle = LegalityOracle(datatype)
    return _refute_reachable_pairs(oracle, events, depth, first_events)


def _refuted_pairs(
    datatype: SerialDataType,
    events: tuple[Event, ...],
    max_events: int,
    oracle: LegalityOracle,
    jobs: int | None,
) -> set[IndexPair]:
    """All non-commuting index pairs, serially or sharded across processes."""
    from repro.compute.parallel import parallel_map, resolve_jobs

    jobs = resolve_jobs(jobs)
    merged = MergedFrontiers(oracle)
    first_events = merged.enabled(merged.root)
    if jobs <= 1 or max_events < 1 or len(first_events) <= 1:
        return _refute_reachable_pairs(oracle, events, max_events)
    # The coordinator checks the empty history; workers split the first
    # events (round-robin, so expensive neighbours spread out).
    refuted = _refute_reachable_pairs(oracle, events, 0)
    results, _parallel = parallel_map(
        _shard_worker,
        [
            (datatype, events, max_events - 1, tuple(first_events[shard::jobs]))
            for shard in range(min(jobs, len(first_events)))
        ],
        jobs,
    )
    return refuted.union(*results)


def commutativity_table(
    datatype: SerialDataType,
    max_events: int = 4,
    oracle: LegalityOracle | None = None,
    events: tuple[Event, ...] | None = None,
    *,
    jobs: int | None = None,
) -> dict[tuple[Event, Event], bool]:
    """The full pairwise commutativity table over the event alphabet.

    Symmetric by definition, so only one orientation is computed and the
    table is mirrored.  ``jobs`` shards the single shared traversal
    across processes by first event (default: the ``REPRO_JOBS``
    environment variable, else serial).
    """
    oracle = oracle or LegalityOracle(datatype)
    if events is None:
        events = event_alphabet(datatype, max_events + 2, oracle)
    events = tuple(events)
    refuted = _refuted_pairs(datatype, events, max_events, oracle, jobs)
    table: dict[tuple[Event, Event], bool] = {}
    for i, first in enumerate(events):
        for j in range(i, len(events)):
            second = events[j]
            result = (i, j) not in refuted
            table[(first, second)] = result
            table[(second, first)] = result
    return table


def dependency_from_commutativity(
    events: tuple[Event, ...],
    table: dict[tuple[Event, Event], bool],
) -> DependencyRelation:
    """Assemble ``≥D`` from a commutativity table (Theorem 10).

    ``inv ≥D e`` whenever some ``[inv;res]`` event from the alphabet
    fails to commute with ``e``.
    """
    pairs: set[GroundPair] = set()
    for inv_event in events:
        for other in events:
            if not table[(inv_event, other)]:
                pairs.add((inv_event.inv, other))
    return DependencyRelation(pairs)


def minimal_dynamic_dependency(
    datatype: SerialDataType,
    max_events: int = 4,
    oracle: LegalityOracle | None = None,
    events: tuple[Event, ...] | None = None,
    *,
    jobs: int | None = None,
) -> DependencyRelation:
    """Compute ``≥D`` by the Theorem 10 characterization.

    Raising ``max_events`` can only add pairs (more histories can
    witness non-commutativity).
    """
    oracle = oracle or LegalityOracle(datatype)
    if events is None:
        events = event_alphabet(datatype, max_events + 2, oracle)
    table = commutativity_table(datatype, max_events, oracle, events, jobs=jobs)
    return dependency_from_commutativity(tuple(events), table)
