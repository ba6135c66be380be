"""The paper's claims as one table.

Each result of the paper (Theorems 4, 5, 6, 10, 11 and 12, the FlagSet
and PROM examples of Section 4) and each of its three figures is one
:class:`Claim` row of :data:`CLAIMS`.  So is each contrast it states in
prose and this repository measures: the PROM's availability and Figure
1-1's concurrency ordering on the simulator, Section 2's read/write
ablation and available-copies partition, and Gifford's weighted voting.
One more row catalogs the type library.  A row's ``check`` is the only
code that computes, asserts and renders its result, and ``doc_ref`` is
the section that states it.  :func:`paper_report` checks the rows in
order and renders the paper's sections, a conclusion, then each row's
detail; ``python -m repro report`` prints it and exits 1 when a row does
not hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import zip_longest
from typing import Any, Callable

from repro.atomicity.explore import ExplorationBounds, multi_property_histories
from repro.atomicity.properties import DynamicAtomicity, HybridAtomicity
from repro.atomicity.properties import StaticAtomicity, is_serializable_in_some_order
from repro.compute.artifacts import artifacts_for
from repro.core import theorems
from repro.dependency import known
from repro.dependency.relation import DependencyRelation, SchemaPair
from repro.dependency.verify import VerificationArena, VerificationBounds
from repro.dependency.verify import (
    find_counterexample,
    minimal_extensions,
    refuted_deletions,
)
from repro.errors import UnavailableError
from repro.histories.events import Invocation, event, ok, signal
from repro.obs import Tracer
from repro.obs.metrics import Histogram
from repro.quorum.availability import operation_availability
from repro.quorum.search import best_threshold_assignment, threshold_frontier
from repro.quorum.search import valid_threshold_choices
from repro.quorum.voting_search import best_voting_assignment
from repro.replication.available_copies import AvailableCopiesObject
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.replication.repository import Repository
from repro.scenarios import MixSpec, ScenarioSpec, build_scenario
from repro.sim.metrics import MetricRecorder
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.spec.enumerate import event_alphabet
from repro.spec.legality import LegalityOracle
from repro.types import PROM, Bag, Counter, DoubleBuffer, FlagSet, Mutex, Queue
from repro.types import Register, SemiQueue, Sequencer, Stack


@dataclass(frozen=True)
class Bounds:
    """What the rows are checked at; the defaults are ``python -m repro report``."""

    fast_theorems: bool = False  # trimmed battery, no row-only searches or measured rows
    concurrency_bounds: ExplorationBounds = ExplorationBounds(max_ops=3, max_actions=2)
    serial_bound: int = 4
    prom_sites: int = 5
    prom_p: float = 0.9


@dataclass(frozen=True)
class Verdict:
    """A checked row: ``text`` goes in its paper section, ``detail`` after them."""

    holds: bool
    text: str = ""
    detail: str = ""
    evidence: Any = None


@dataclass(frozen=True)
class Claim:
    """One result of the paper, where it is stated, and how it is checked.

    ``section`` heads the row's ``text`` among the paper's sections
    (``{…}`` fields are :class:`Bounds` fields); consecutive rows under
    one heading share it.  A row without one prints its detail only.
    """

    name: str
    doc_ref: str
    check: Callable[[Bounds], Verdict]
    section: str = ""


def _incomparable(first, second) -> bool:
    return not first <= second and not second <= first


def _figure_1_1(bounds: Bounds) -> Verdict:
    """Classify every bounded Queue history under the three properties."""
    queue = Queue()
    oracle = LegalityOracle(queue)
    kinds = (StaticAtomicity, HybridAtomicity, DynamicAtomicity)
    properties = [kind(queue, oracle) for kind in kinds]
    names = [prop.name for prop in properties]
    limits = bounds.concurrency_bounds
    universe, admitted, witnesses = 0, dict.fromkeys(names, 0), {}
    for history, nodes in multi_property_histories(properties, limits):
        universe += 1
        flags = [node is not None for node in nodes]
        for name, flag in zip(names, flags):
            admitted[name] += flag
            for other, other_flag in zip(names, flags):
                if flag and not other_flag:  # a witness that ``name`` ⊄ ``other``
                    witnesses.setdefault((name, other), history)

    def contains(first: str, second: str) -> bool:
        return (first, second) not in witnesses

    def incomparable(first: str, second: str) -> bool:
        return not contains(first, second) and not contains(second, first)

    strict = contains("dynamic", "hybrid") and not contains("hybrid", "dynamic")
    facts = (
        strict,
        incomparable("static", "hybrid"),
        incomparable("static", "dynamic"),
    )
    text = "\n".join([
        "Figure 1-1 — concurrency relations (type Queue, exhaustive to "
        f"{limits.max_ops} ops / {limits.max_actions} actions)",
        "",
        "        static          hybrid",
        "            \\            /",
        "             \\          /",
        "              \\   strong",
        "               \\  dynamic",
        "",
        f"  Dynamic(T) ⊆ Hybrid(T):          {contains('dynamic', 'hybrid')}",
        f"  Hybrid(T) ⊈ Dynamic(T) (strict): {strict}",
        f"  static vs hybrid incomparable:   {facts[1]}",
        f"  static vs dynamic incomparable:  {facts[2]}",
        "",
        "  admitted histories: "
        + ", ".join(f"{name}={count}" for name, count in sorted(admitted.items()))
        + f" (of {universe} in the union universe)",
    ])  # fmt: skip
    evidence = {"universe": universe, "admitted": admitted, "witnesses": witnesses}
    return Verdict(all(facts), text, evidence=evidence)


def _theorem(function: str, more=None, **fast) -> Callable[[Bounds], Verdict]:
    """A battery row: ``theorems.<function>`` at its full bounds, or ``fast``.

    ``more`` is a search only this row makes, run at full bounds; it
    returns ``(holds, detail)``.
    """

    def check(bounds: Bounds) -> Verdict:
        # Looked up at call time, so a wrapper installed on the module runs.
        result = getattr(theorems, function)(**(fast if bounds.fast_theorems else {}))
        holds, detail = more() if more and not bounds.fast_theorems else (True, "")
        return Verdict(result.holds and holds, result.summary(), detail, result)

    return check


def _doublebuffer_search() -> tuple[bool, str]:
    """≥D refuted under Hybrid by a searched counterexample, not under Dynamic."""
    buffer = DoubleBuffer()
    oracle = LegalityOracle(buffer)
    relation = known.ground(buffer, known.DOUBLEBUFFER_DYNAMIC, 5, oracle)
    events = (
        *(event("Produce", (item,)) for item in "xy"),
        event("Transfer"),
        *(event("Consume", (), ok(item)) for item in "x0"),
    )

    def search(prop, size):
        limits = ExplorationBounds(max_ops=size, max_actions=size, events=events)
        arena = VerificationArena(prop, VerificationBounds(limits))
        return find_counterexample(relation, arena)

    counterexample = search(HybridAtomicity(buffer, oracle), 4)
    dynamic_valid = search(DynamicAtomicity(buffer, oracle), 3) is None
    history, _subhistory, appended = known.doublebuffer_theorem12_witness()
    detail = "\n".join([
        "Minimal dynamic dependency relation for DoubleBuffer (Theorem 10):",
        relation.describe(),
        "",
        "paper's witness (H; G = H minus the last event; append "
        f"{appended.event} by {appended.action}):",
        str(history),
        "",
        "search-found counterexample:",
        counterexample.explain() if counterexample else "none",
        "",
        "same relation under Dynamic(DoubleBuffer): "
        f"{'no' if dynamic_valid else 'a'} counterexample (bounded check).",
    ])  # fmt: skip
    return counterexample is not None and dynamic_valid, detail


def _flagset_search() -> tuple[bool, str]:
    """Both completions, found by search over appends with exceptional responses."""
    flagset = FlagSet()
    disabled = [event("Open", (), signal("Disabled"))]
    disabled += [event("Shift", (n,), signal("Disabled")) for n in (1, 2, 3)]
    append_events = theorems.FLAGSET_EVENTS + tuple(disabled)
    limits = ExplorationBounds(max_ops=4, max_actions=2, events=theorems.FLAGSET_EVENTS)
    arena = VerificationArena(
        HybridAtomicity(flagset, LegalityOracle(flagset)),
        VerificationBounds(limits, append_events=append_events),
    )
    schemas = (known.FLAGSET_CORE, known.FLAGSET_HYBRID_A, known.FLAGSET_HYBRID_B)
    core, rel_a, rel_b = (
        known.ground(flagset, s, events=append_events) for s in schemas
    )
    core_counterexample = find_counterexample(core, arena)
    a_valid = find_counterexample(rel_a, arena) is None
    valid = a_valid and find_counterexample(rel_b, arena) is None
    shift_pairs = [
        (inv, ev)
        for inv in arena.invocations
        for ev in arena.append_events
        if inv.op == "Shift" and ev.inv.op == "Shift" and ev.is_normal
    ]
    found = [
        extension
        for extension in minimal_extensions(core, shift_pairs, arena, max_added=1)
        if len(extension.difference(core)) == 1
    ]
    # Bounded minimality: the pairs whose refutation needs a longer chain
    # (none, were ``rel_a`` refuted: each deletion keeps its counterexample).
    witnessed = refuted_deletions(rel_a, rel_a.pairs, arena) if a_valid else rel_a.pairs
    unwitnessed = [
        pair
        for pair in sorted(rel_a.pairs, key=lambda p: (str(p[0]), str(p[1])))
        if pair not in witnessed
    ]
    holds = (
        core_counterexample is not None
        and valid
        and _incomparable(rel_a, rel_b)
        and len(rel_a.difference(core)) == len(rel_b.difference(core)) == 1
        and len(found) == 2
        and rel_a in found
        and rel_b in found
    )
    detail = "\n".join([
        "FlagSet: the minimal hybrid dependency relation is not unique.",
        "",
        "Common core (the paper's list):",
        *(f"  {schema}" for schema in core.schema_pairs()),
        "",
        "core alone fails Definition 2; counterexample found:",
        core_counterexample.explain() if core_counterexample else "none",
        "",
        f"valid single-pair completions found by search ({len(found)} of them):",
        f"  core + {known.FLAGSET_ALTERNATIVE_DIRECT}",
        f"  core + {known.FLAGSET_ALTERNATIVE_TRANSITIVE}",
        "neither completion is contained in the other.",
        "",
        "bounded-minimality caveat — core pairs with no refutation witness",
        "within ≤4-operation histories (their witnesses need longer chains):",
        *(f"  {inv} ≥ {ev}" for inv, ev in unwitnessed),
    ])  # fmt: skip
    return holds, detail


def _figure_1_2(bounds: Bounds) -> Verdict:
    """Queue's minimal static and dynamic relations against a hybrid one."""
    queue, bound = Queue(), bounds.serial_bound
    artifacts = artifacts_for(queue, bound)
    static, dynamic = artifacts.static, artifacts.dynamic
    hybrid = known.ground(queue, known.QUEUE_STATIC, bound + 1)  # hybrid by Theorem 4
    facts = (
        hybrid <= static,
        _incomparable(hybrid, dynamic),
        _incomparable(static, dynamic),
    )
    lines = [
        "Figure 1-2 — constraints on quorum assignment "
        f"(type Queue, serial bound {bound})",
        "",
        "       hybrid   (weakest constraints that still maximize concurrency)",
        "         |",
        "       static          strong dynamic   (incomparable to both)",
        "",
        f"  hybrid ⊆ static (fewer constraints):        {facts[0]}",
        f"  hybrid vs dynamic incomparable:             {facts[1]}",
        f"  static vs dynamic incomparable:             {facts[2]}",
        "",
        f"Dependency comparison for Queue (serial bound {bound}):",
    ]  # fmt: skip
    for label, relation in (
        ("minimal static  relation", static),
        ("minimal dynamic relation", dynamic),
        ("hybrid relation", hybrid),
    ):
        lines.append(f"  {label}: {len(relation)} ground pairs")
        lines.extend(f"      {schema}" for schema in relation.schema_pairs())
    lines += [
        f"  hybrid ⊆ static: {facts[0]} (Theorem 4 corollary)",
        f"  hybrid vs dynamic incomparable: {facts[1]}",
        f"  static vs dynamic incomparable: {facts[2]}",
    ]
    detail = f"Queue's minimal relations as ground pairs (serial bound {bound}):"
    for label, relation in (
        ("static (Theorem 6 search)", static),
        ("dynamic (Theorem 10 search)", dynamic),
        ("added vs static (Theorem 11's Enq ≥ Enq)", dynamic.difference(static)),
        ("dropped vs static", static.difference(dynamic)),
    ):
        detail += f"\n\n{label}:\n{relation.describe()}"
    evidence = {"static": static, "dynamic": dynamic, "hybrid": hybrid}
    return Verdict(all(facts), "\n".join(lines), detail, evidence)


def _prom(bounds: Bounds) -> Verdict:
    """Hybrid permits Read/Seal/Write quorums of 1/n/1, static needs 1/n/n."""
    ops, n = ("Read", "Seal", "Write"), bounds.prom_sites
    hybrid, static = (
        known.ground(PROM(), schemas, 5)
        for schemas in (known.PROM_HYBRID, known.PROM_STATIC)
    )
    frontiers = {
        name: threshold_frontier(relation, n, ops, bounds.prom_p)
        for name, relation in (("hybrid", hybrid), ("static", static))
    }
    blocks = []
    for name, frontier in frontiers.items():
        lines = [f"{name.upper()} frontier:"]
        for choice, vector in frontier:
            availability = "  ".join(f"{op}={av:.4f}" for op, av in vector)
            lines += [f"  {choice.describe()}", f"     availability: {availability}"]
        blocks.append("\n".join(lines))

    def write_size(choice) -> int:
        return max(choice.initial_of("Write"), choice.final_of("Write"))

    def write_quorum(relation, sites: int) -> int | None:
        """Smallest Write quorum compatible with a single-site Read."""
        choices = valid_threshold_choices(relation, sites, ops)
        sizes = [write_size(c) for c in choices if c.initial_of("Read") == 1]
        return min(sizes, default=None)

    def best_write(relation, p: float) -> float:
        """Best Write availability with single-site Reads, n = 5."""
        frontier = threshold_frontier(relation, 5, ops, p)
        writes = [dict(v)["Write"] for c, v in frontier if c.initial_of("Read") == 1]
        return max(writes, default=0.0)

    sizes = [(k, write_quorum(hybrid, k), write_quorum(static, k)) for k in (3, 5, 7)]
    sweep = [
        (p, best_write(hybrid, p), best_write(static, p))
        for p in (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)
    ]
    holds = (
        any(  # the paper's 1/n/1 point
            (c.initial_of("Read"), c.initial_of("Seal"), write_size(c)) == (1, n, 1)
            for c, _vector in frontiers["hybrid"]
        )
        and sizes == [(k, 1, k) for k in (3, 5, 7)]
        and all(h > s for _p, h, s in sweep)
    )
    detail = "\n".join([
        "PROM replicated among n identical sites, Read availability maximized",
        "(smallest achievable Write quorum given single-site Read):",
        "",
        f"{'n':>3} {'hybrid Write quorum':>20} {'static Write quorum':>20}",
        *(f"{k:>3} {h:>20} {s:>20}" for k, h, s in sizes),
        "",
        "Write availability with single-site Reads, n = 5 sites:",
        "",
        f"{'p(site up)':>10} {'hybrid':>10} {'static':>10} {'ratio':>8}",
        *(f"{p:>10.2f} {h:>10.4f} {s:>10.4f} {h / s:>8.2f}" for p, h, s in sweep),
    ])  # fmt: skip
    evidence = {"frontiers": frontiers, "sizes": sizes, "sweep": sweep}
    return Verdict(holds, "\n\n".join(blocks), detail, evidence)


def figure_3_1(repositories: list[Repository], object_name: str) -> str:
    """Each repository's log fragment side by side, as in the paper's Figure 3-1."""
    columns = [
        [f"Repository {repo.site}", *map(str, repo.read_log(object_name).ordered())]
        for repo in repositories
    ]
    width = max(len(row) for column in columns for row in column) + 2
    return "\n".join([
        "Figure 3-1 — a replicated object's log, partially replicated "
        f"among {len(repositories)} repositories",
        "",
        *(
            "| " + "| ".join(cell.ljust(width) for cell in row)
            for row in zip_longest(*columns, fillvalue="")
        ),
    ])  # fmt: skip


def _figure_3_1(bounds: Bounds) -> Verdict:
    """Five operations through the runtime leave a partially replicated log."""
    queue = Queue(items=("x", "y"))
    spec = KeyspaceSpec(3, (ObjectSpec("queue", queue),))
    cluster = build_keyspace(spec, seed=17, tracer=Tracer())
    script = [("Enq", ("x",)), ("Enq", ("y",)), ("Deq", ())]
    script += [("Enq", ("x",)), ("Deq", ())]
    for index, (op, args) in enumerate(script):
        frontend = cluster.frontends[index % 3]
        txn = cluster.tm.begin(frontend.site)
        frontend.execute(txn, "queue", Invocation(op, args))
        cluster.tm.commit(txn)
    logs = [repo.read_log("queue") for repo in cluster.repositories]
    counts = [repo.entry_count("queue") for repo in cluster.repositories]
    merged = reduce(lambda log, other: log.extended(other), logs)
    history = cluster.tm.object("queue").recorder.to_behavioral_history()
    spans = cluster.tracer.spans
    operations = [span for span in spans if span.kind == "operation"]
    holds = (
        all(counts)
        and len(merged) == len(script)
        and min(counts) < len(script)  # no repository holds every entry
        and HybridAtomicity(queue).admits(history)
        and len(operations) == len(script)
        and all(span.outcome == "ok" for span in operations)
    )
    detail = (
        figure_3_1(list(cluster.repositories), "queue")
        + "\n\nper-repository entry counts: "
        + ", ".join(map(str, counts))
        + f"\nmerged log: {len(merged)} entries; trace: {len(spans)} spans"
    )
    evidence = {"counts": counts, "merged": len(merged), "operations": operations}
    return Verdict(holds, detail=detail, evidence=evidence)


def _catalog(bounds: Bounds) -> Verdict:
    """Coupling (the share of ground pairs constrained) across the library."""
    share, dynamic, rows = {}, {}, []
    for datatype in (Queue(), SemiQueue(), Stack(), PROM(), DoubleBuffer(),
                     Register(), Counter(), Bag(), Mutex(), Sequencer()):  # fmt: skip
        artifacts = artifacts_for(datatype, 3)
        universe = len(tuple(datatype.invocations())) * len(artifacts.events)
        name, static = datatype.name, artifacts.static
        dynamic[name] = artifacts.dynamic
        share[name] = (len(static) / universe, len(dynamic[name]) / universe)
        rows.append((share[name][1], (
            f"{name:<14} {len(datatype.operations()):>3} "
            f"{len(static):>7} ({100 * share[name][0]:>5.1f}%) "
            f"{len(dynamic[name]):>7} ({100 * share[name][1]:>5.1f}%)"
        )))  # fmt: skip
    enq_a, enq_b = Invocation("Enq", ("a",)), event("Enq", ("b",))
    insert_x, insert_y = Invocation("Insert", ("x",)), event("Insert", ("y",))
    next_ok = [event("Next", (), ok(ticket)) for ticket in (1, 2, 3, 4)]
    facts = (
        # Once Deq may return any item, enqueue order stops mattering.
        share["SemiQueue"][1] < share["Queue"][1],
        dynamic["Queue"].depends(enq_a, enq_b),
        not dynamic["SemiQueue"].depends(enq_a, enq_b),
        dynamic["SemiQueue"].depends(Invocation("Deq"), event("Deq", (), ok("a"))),
        # Ticket 5 is enabled only at the search horizon, so 1-4 only.
        all(dynamic["Sequencer"].depends(Invocation("Next"), ev) for ev in next_ok),
        share["Mutex"][1] > share["Counter"][1],
        not dynamic["Counter"].depends(Invocation("Inc"), event("Inc")),
        not dynamic["Bag"].depends(insert_x, insert_y),
    )
    header = f"{'type':<14} {'ops':>3} {'static pairs':>15} {'dynamic pairs':>16}"
    detail = "\n".join([
        "Minimal dependency relations across the type library "
        "(serial bound 3; pairs are ground pairs over each type's alphabet):",
        "",
        header,
        "-" * len(header),
        *(row for _share, row in sorted(rows, key=lambda entry: entry[0])),
        "",
        "Reading the table: low coupling = weak quorum-intersection",
        "constraints = high realizable availability.  SemiQueue < Queue is",
        "the specification-weakening result; Sequencer and Mutex sit at the",
        "fully-serial extreme.",
    ])  # fmt: skip
    return Verdict(all(facts), detail=detail, evidence={"coupling": share})


# The measured rows: seeded simulator runs and quorum searches at fixed
# sizes.  They render simulated figures only, never wall time, so the
# report stays byte-identical from run to run; ``--fast`` skips them.


def _measured(run: Callable[[], Verdict]) -> Callable[[Bounds], Verdict]:
    return lambda bounds: Verdict(True) if bounds.fast_theorems else run()


def _prom_availability() -> Verdict:
    """The PROM's hybrid and static quorums, run under stochastic crashes."""
    ops, n, uptime, downtime = ("Read", "Seal", "Write"), 5, 90.0, 10.0
    p_up = uptime / (uptime + downtime)
    prom = PROM()
    hybrid_relation = known.ground(prom, known.PROM_HYBRID, 5)

    def read_maximal(relation):
        """The valid choice with 1-site Reads and the smallest Writes, then Seals."""
        def sizes(choice):
            return tuple(max(choice.initial_of(op), choice.final_of(op))
                         for op in ("Write", "Seal"))  # fmt: skip
        choices = valid_threshold_choices(relation, n, ops)
        return min((c for c in choices if c.initial_of("Read") == 1), key=sizes)

    traffic = ScenarioSpec(
        "prom-availability",
        _EXPERIMENTS + "end-to-end-availability-the-motivating-claim-measured",
        "one-operation PROM transactions, Reads 2:1 over Writes, never sealed",
        mix=MixSpec(read_weight=10.0, write_weight=5.0, op_weights=(("Seal", 0.0),)),
        ops_per_transaction=1, concurrency=2, think_time=1.0, transactions=600,
    )  # fmt: skip
    choices, pooled, messages = {}, {}, {}
    for name, schemas in (("hybrid", known.PROM_HYBRID), ("static", known.PROM_STATIC)):
        choices[name] = read_maximal(known.ground(prom, schemas, 5))
        spec = ObjectSpec("prom", prom, "hybrid", relation=hybrid_relation,
                          assignment=choices[name].to_assignment())  # fmt: skip
        runs, messages[name] = [], []
        for seed in (1, 2, 3):
            # Latency small beside the failure timescales: an operation sees
            # an effectively instantaneous cluster, as the analytic model does.
            cluster, generator, _names = build_scenario(
                traffic, keyspace=KeyspaceSpec(n, (spec,)), seed=seed, latency=0.2,
                crashes=(uptime, downtime))  # fmt: skip
            runs.append(generator.run(traffic.transactions))
            messages[name].append(
                cluster.network.messages_sent / runs[-1].counts()["attempted"]
            )
        pooled[name] = MetricRecorder.pooled(runs).summary()
    lines = [
        f"PROM, n = {n}, per-site availability p = {p_up:.2f} "
        f"(uptime {uptime}, downtime {downtime}), Read pinned to 1 site,",
        "3 seeds x 600 transactions per assignment:",
        "",
        *(f"{name} assignment: {choice.describe()}" for name, choice in choices.items()),
        "",
        f"{'operation':<10} {'analytic':>9} {'measured':>9}   (hybrid)"
        f"   {'analytic':>9} {'measured':>9}   (static)",
    ]  # fmt: skip
    close = True
    for op in ("Read", "Write"):
        cells = []
        for name in ("hybrid", "static"):
            analytic = operation_availability(choices[name].to_assignment(), op, p_up)
            measured = pooled[name][op]["availability"]
            close = close and abs(measured - analytic) < 0.08
            cells.append(f"{analytic:>9.4f} {measured:>9.4f}")
        lines.append(f"{op:<10} {cells[0]}            {cells[1]}")
    lines += [
        "",
        f"{'operation':<10} {'p50':>7} {'p95':>7} {'p99':>7}   (hybrid)"
        f"   {'p50':>7} {'p95':>7} {'p99':>7}   (static)",
    ]
    for op in ("Read", "Write"):
        rows = [pooled[name][op] for name in ("hybrid", "static")]
        cells = [
            f"{r['latency_p50']:>7.2f} {r['latency_p95']:>7.2f} {r['latency_p99']:>7.2f}"
            for r in rows
        ]
        lines.append(f"{op:<10} {cells[0]}            {cells[1]}")
    writes = {name: pooled[name]["Write"]["availability"] for name in pooled}
    ratio = (1 - writes["static"]) / max(1e-9, 1 - writes["hybrid"])
    lines += [
        "",
        "messages/op by seed: "
        + "; ".join(f"{name} " + ", ".join(f"{m:.2f}" for m in messages[name])
                    for name in messages),
        "",
        f"Write unavailability ratio static/hybrid: {ratio:.1f}x",
    ]  # fmt: skip
    holds = (
        close
        # Larger Write quorums cost more probes, seed for seed.
        and all(s > h for h, s in zip(messages["hybrid"], messages["static"]))
        and writes["hybrid"] > writes["static"]
        and ratio > 3.0
    )
    evidence = {"writes": writes, "ratio": ratio, "messages": messages}
    return Verdict(holds, detail="\n".join(lines), evidence=evidence)


def _cc_concurrency() -> Verdict:
    """One seeded workload per scheme: hybrid Enqs conflict less than 2PL's."""

    def run(datatype, relation, seeds):
        def metrics(scheme, seed):
            obj = ObjectSpec("obj", datatype, scheme, relation=relation)
            _cluster, generator, _names = build_scenario(
                "default", keyspace=KeyspaceSpec(3, (obj,)), seed=seed)  # fmt: skip
            return generator.run(60)

        return {
            scheme: MetricRecorder.pooled(metrics(scheme, seed) for seed in seeds)
            for scheme in ("hybrid", "static", "dynamic")
        }  # fmt: skip

    def commit_rate(pooled) -> float:
        commits = pooled.committed_transactions
        return commits / (commits + pooled.aborted_transactions)

    queue = run(Queue(), None, (1, 2, 3, 4))
    # The static relation is a valid hybrid relation too (Theorem 4).
    counter = run(Counter(), artifacts_for(Counter(), 3).static, (1, 2, 3))
    lines = [
        "Replicated Queue, 3 sites, uniform Enq/Deq mix, 4-way concurrency,",
        "4 seeds x 60 transactions per scheme:",
        "",
        f"{'scheme':<9} {'commit%':>8} {'Enq conflict%':>14} {'Deq conflict%':>14}"
        f" {'lat p50':>8} {'lat p95':>8} {'lat p99':>8}",
    ]
    enq, fed = {}, True
    for scheme, pooled in queue.items():
        rows = pooled.summary()
        enq[scheme] = rows["Enq"]["conflict_rate"]
        latency = Histogram()
        for op in ("Enq", "Deq"):
            latency.merge(pooled.registry.histogram(f"latency.{op}"))
        fed = fed and latency.count > 0  # the workload feeds the histograms
        lines.append(
            f"{scheme:<9} {100 * commit_rate(pooled):>7.1f}% {100 * enq[scheme]:>13.1f}% "
            f"{100 * rows['Deq']['conflict_rate']:>13.1f}%"
            f" {latency.p50:>8.2f} {latency.p95:>8.2f} {latency.p99:>8.2f}"
        )
    lines += [
        "",
        "Replicated Counter, 3 sites, uniform Inc/Dec/Read mix, 3 seeds:",
        "",
        f"{'scheme':<9} {'commit%':>8} {'Inc conflict%':>14} {'Read conflict%':>15}",
    ]
    for scheme, pooled in counter.items():
        rows = pooled.summary()
        lines.append(
            f"{scheme:<9} {100 * commit_rate(pooled):>7.1f}% "
            f"{100 * rows['Inc']['conflict_rate']:>13.1f}% "
            f"{100 * rows['Read']['conflict_rate']:>14.1f}%"
        )
    holds = (
        fed
        # Hybrid permits concurrent distinct enqueues; locking conflicts.
        and enq["hybrid"] < enq["dynamic"]
        and all(pooled.committed_transactions for pooled in counter.values())
    )
    return Verdict(holds, detail="\n".join(lines), evidence={"enq_conflict": enq})


def _read_write_relation(datatype, reads, writes):
    """Gifford's constraints, ``r ∩ w`` and ``w ∩ w``, as a dependency relation."""
    schemas = [SchemaPair(r, w, None) for r in reads for w in writes]
    schemas += [SchemaPair(a, b, None) for a in writes for b in writes]
    events = event_alphabet(datatype, 4)
    return DependencyRelation.from_schemas(schemas, datatype.invocations(), events)


def _ablation() -> Verdict:
    """Typed quorums beat read/write ones on the PROM and tie on the Queue."""
    cases = (
        ("PROM, n = 5, p = 0.9, read/write-heavy workload (4:4:0.2):", PROM(),
         known.ground(PROM(), known.PROM_HYBRID, 5), ("Read",), ("Write", "Seal"),
         {"Read": 4.0, "Write": 4.0, "Seal": 0.2}),
        ("Queue, n = 5, p = 0.9, enqueue-heavy workload (8:1); Enq and Deq "
         "are both\nread-modify-write under the r/w view:", Queue(),
         artifacts_for(Queue(), 4).static, (), ("Enq", "Deq"),
         {"Enq": 8.0, "Deq": 1.0}),
    )  # fmt: skip
    lines, advantage = [], {}
    for title, datatype, typed, reads, writes, weights in cases:
        rw = _read_write_relation(datatype, reads, writes)
        ops = tuple(sorted(weights))
        (typed_choice, typed_score), (rw_choice, rw_score) = (
            best_threshold_assignment(relation, 5, ops, 0.9, weights)
            for relation in (typed, rw)
        )
        advantage[datatype.name] = typed_score - rw_score
        lines += [
            title,
            f"  typed quorum assignment   (score {typed_score:.4f}):",
            f"    {typed_choice.describe()}",
            f"  read/write classification (score {rw_score:.4f}):",
            f"    {rw_choice.describe()}",
            f"  typed advantage: {typed_score - rw_score:+.4f}",
            "",
        ]
    lines += [
        "The r/w view forces Writes to intersect each other and every Read;",
        "the PROM's typed hybrid relation does not.  The Queue's FIFO",
        "coupling yields parity: the typed advantage is type-specific.",
    ]
    # Typed never loses, and strictly wins on the PROM.
    holds = advantage["PROM"] > 0 and advantage["Queue"] >= 0
    return Verdict(holds, detail="\n".join(lines), evidence=advantage)


def _available_copies() -> Verdict:
    """Under a partition available copies dequeues twice; quorums refuse one side."""
    enq_x, deq = Invocation("Enq", ("x",)), Invocation("Deq")
    network = Network(Simulator(seed=0), 3)
    copies = AvailableCopiesObject("q", Queue(), network)
    copies.execute(0, enq_x)
    network.partition({0}, {1, 2})
    left, right = copies.execute(0, deq), copies.execute(1, deq)
    serializable = is_serializable_in_some_order(
        LegalityOracle(Queue()), copies.to_behavioral_history()
    )

    def quorum_consensus(seed: int) -> tuple[str, str, bool]:
        cluster = build_keyspace(KeyspaceSpec(3, (ObjectSpec("q", Queue()),)), seed=seed)
        txn = cluster.tm.begin(0)
        cluster.frontends[0].execute(txn, "q", enq_x)
        cluster.tm.commit(txn)
        cluster.network.partition({0}, {1, 2})
        minority = cluster.tm.begin(0)
        try:
            minority_outcome = str(cluster.frontends[0].execute(minority, "q", deq))
        except UnavailableError:
            minority_outcome = "UNAVAILABLE"
            cluster.tm.abort(minority, "partitioned")
        majority = cluster.tm.begin(1)
        majority_outcome = str(cluster.frontends[1].execute(majority, "q", deq))
        cluster.tm.commit(majority)
        history = cluster.tm.object("q").recorder.to_behavioral_history()
        admitted = HybridAtomicity(Queue()).admits(history)
        return minority_outcome, majority_outcome, admitted

    # Safety is not one lucky seed's: every seed gives the same verdict.
    trials = [quorum_consensus(seed) for seed in range(6)]
    minority_outcome, majority_outcome, admitted = trials[0]
    detail = "\n".join([
        "Scenario: Enq(x); partition {0} | {1,2}; both sides attempt Deq.",
        "",
        "AVAILABLE COPIES (read any available, write all available):",
        f"  minority side Deq -> {left}",
        f"  majority side Deq -> {right}",
        f"  combined history serializable in some order: {serializable}",
        "  -> the single enqueued item was consumed twice.",
        "",
        "QUORUM CONSENSUS (majority initial/final quorums, hybrid CC), seeds 0-5:",
        f"  minority side Deq -> {minority_outcome}",
        f"  majority side Deq -> {majority_outcome}",
        f"  history hybrid atomic: {admitted}",
        "  -> safety preserved; the partition costs availability instead.",
    ])  # fmt: skip
    holds = (
        left == right == ok("x")
        and not serializable
        and all(trial == ("UNAVAILABLE", str(ok("x")), True) for trial in trials)
    )
    return Verdict(holds, detail=detail, evidence={"trials": trials})


def _weighted_voting() -> Verdict:
    """Votes beat uniform thresholds on unequal sites, and only there."""
    ops = ("Read", "Write")
    relation = artifacts_for(Register(), 3).static
    rows = {}
    for p in ((0.99, 0.6, 0.6), (0.8, 0.8, 0.8)):
        uniform = max(
            sum(operation_availability(c.to_assignment(), op, list(p)) for op in ops)
            / len(ops)
            for c in valid_threshold_choices(relation, len(p), ops)
        )
        rows[p] = (*best_voting_assignment(relation, p, ops), uniform)
    (het_w, het_assignment, het, het_uniform), (_w, _a, hom, hom_uniform) = rows.values()
    detail = "\n".join([
        "Replicated Register, weighted voting vs uniform thresholds",
        "(availability = mean of Read and Write):",
        "",
        "heterogeneous sites p = (0.99, 0.6, 0.6):",
        f"  best weighted voting: weights {het_w}, availability {het:.4f}",
        f"  best uniform threshold:                availability {het_uniform:.4f}",
        f"  advantage: {het - het_uniform:+.4f}",
        "",
        "identical sites p = (0.8, 0.8, 0.8):",
        f"  best weighted voting availability {hom:.4f}",
        f"  best uniform threshold            {hom_uniform:.4f}",
        "  advantage: none (weights cannot help identical sites)",
        "",
        "optimal heterogeneous assignment:",
        "  " + het_assignment.describe().replace("\n", "\n  "),
    ])  # fmt: skip
    holds = (
        het > het_uniform
        and abs(hom - hom_uniform) <= 1e-9
        and het_w[0] == max(het_w)  # the reliable site carries the votes
    )
    return Verdict(holds, detail=detail, evidence={"weights": het_w})


_BATTERY = "Theorems 4, 5, 6, 10, 11, 12 + FlagSet"
_THEORY = "docs/THEORY.md#theorems"
_EXPERIMENTS = "EXPERIMENTS.md#"
_TRIMMED = {"serial_bound": 3, "max_ops": 2}

#: The paper's results and figures in report order, then the catalog.
CLAIMS: tuple[Claim, ...] = (
    Claim("Figure 1-1", _EXPERIMENTS + "figure-1-1--concurrency-relations",
          _figure_1_1, "Figure 1-1: concurrency"),
    Claim("Theorem 4", _THEORY, _theorem("verify_theorem_4", **_TRIMMED), _BATTERY),
    Claim("Theorem 5", _THEORY, _theorem("verify_theorem_5", max_ops=3), _BATTERY),
    Claim("Theorem 6", _THEORY, _theorem("verify_theorem_6", **_TRIMMED), _BATTERY),
    Claim("Theorem 10", _THEORY, _theorem("verify_theorem_10", **_TRIMMED), _BATTERY),
    Claim("Theorem 11", _THEORY, _theorem("verify_theorem_11", **_TRIMMED), _BATTERY),
    Claim("Theorem 12", _EXPERIMENTS + "theorem-12-example--doublebuffer",
          _theorem("verify_theorem_12", _doublebuffer_search), _BATTERY),
    Claim("FlagSet example",
          _EXPERIMENTS + "section-4-example--"
          "flagset-non-unique-minimal-hybrid-relations",
          _theorem("verify_flagset_two_minimals", _flagset_search, max_ops=4),
          _BATTERY),
    Claim("Figure 1-2", _EXPERIMENTS + "figure-1-2--constraints-on-quorum-assignment",
          _figure_1_2, "Figure 1-2: constraints on quorum assignment (Queue)"),
    Claim("PROM quorum example",
          _EXPERIMENTS + "section-4-example--prom-quorums-the-headline-table",
          _prom, "Section 4: the PROM example (n = {prom_sites}, p = {prom_p})"),
    Claim("Figure 3-1", _EXPERIMENTS + "figure-3-1--a-replicated-queue", _figure_3_1),
    Claim("End-to-end availability",
          _EXPERIMENTS + "end-to-end-availability-the-motivating-claim-measured",
          _measured(_prom_availability)),
    Claim("End-to-end concurrency",
          _EXPERIMENTS + "end-to-end-concurrency-figure-1-1-measured",
          _measured(_cc_concurrency)),
    Claim("Read/write ablation",
          _EXPERIMENTS + "ablation--typed-quorums-vs-readwrite-classification-section-2",
          _measured(_ablation)),
    Claim("Available copies contrast",
          _EXPERIMENTS + "related-work-contrast--available-copies-section-2",
          _measured(_available_copies)),
    Claim("Weighted voting",
          _EXPERIMENTS + "extension--weighted-voting-for-heterogeneous-sites-gifford-11",
          _measured(_weighted_voting)),
    Claim("Type catalog",
          _EXPERIMENTS + "extension--"
          "the-dependency-catalog-and-specification-weakening",
          _catalog),
)  # fmt: skip


class Report(str):
    """The report's text, carrying every row's :class:`Verdict` by name."""

    def __new__(cls, text: str, verdicts: dict[str, Verdict] | None = None):
        report = super().__new__(cls, text)
        report.verdicts = verdicts or {}
        return report

    @property
    def failed(self) -> list[str]:
        """The rows that do not hold, in table order."""
        return [name for name, verdict in self.verdicts.items() if not verdict.holds]


def _rule(title: str) -> str:
    bar = "=" * 72
    return f"{bar}\n{title}\n{bar}"


def paper_report(**bounds: Any) -> Report:
    """Check every row of :data:`CLAIMS` once, at :class:`Bounds` ``bounds``."""
    limits = Bounds(**bounds)
    checked = [(claim, claim.check(limits)) for claim in CLAIMS]
    sections = [
        _rule("Comparing How Atomicity Mechanisms Support Replication"),
        "Herlihy, PODC 1985 — full machine-checked reproduction.\n"
        "Sections below are regenerated live; the measured (simulator)\n"
        "experiments follow the conclusion, one row each.",
    ]
    heading = None
    for claim, verdict in checked:
        if not claim.section:
            continue
        title = claim.section.format(**vars(limits))
        if title != heading:
            heading = title
            sections.append(_rule(title))
        sections.append(verdict.text)
    sections += [
        _rule("Conclusion"),
        "Hybrid atomicity is the only property undominated for both\n"
        "availability and concurrency — reproduced: the hybrid frontier\n"
        "above contains the paper's 1/n/1 point, every static relation\n"
        "verified as hybrid, and hybrid admitted strictly more bounded\n"
        "histories than strong dynamic atomicity.",
    ]
    for claim, verdict in checked:
        if verdict.detail:
            sections += [_rule(f"{claim.name} ({claim.doc_ref})"), verdict.detail]
    verdicts = {claim.name: verdict for claim, verdict in checked}
    return Report("\n\n".join(sections), verdicts)
