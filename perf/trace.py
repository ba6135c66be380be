"""Outside-in tracer: per-layer self time from the benchmark's own files.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
the public entry points of each layer (:data:`ENTRY_POINTS`) with timing
wrappers — on the class, or in every ``repro`` module namespace that
imported the function — and :func:`uninstall` puts the originals back.
Only boundary methods called a handful of times per operation are
wrapped; the per-event inner loops (``Timestamp.__lt__``,
``LegalityCursor.step``, ``Log.entries_of``) are left alone, so their
time counts as self time of the boundary that called them.

A span is ``(key, parent, start, end, error)`` with ``key`` an index into
:attr:`Recorder.keys` (``(layer, "Owner.method")``) and ``parent`` the
index of the enclosing span (``-1`` for the harness's own top-level
spans).  The run is single-threaded, so spans nest strictly and a
layer's self time is its spans' duration minus their direct children's.
Generator entry points get one span per resumption, which keeps that
algebra true while the consumer's work interleaves with the generator's.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from contextlib import contextmanager
from statistics import median
from time import perf_counter

_CC = ("choose_event", "pre_commit", "on_executed", "on_finalize")
_HAS_QUORUM = ("has_quorum",)
_LEGALITY = ("cursor", "is_legal", "is_legal_from", "is_legal_extension", "responses",
             "responses_from")

#: ``(layer, module, owner class or None for module functions, names)``.
#: A name is wrapped where the owner defines it itself (``__dict__``),
#: so an inherited default is wrapped once, on the base class.
ENTRY_POINTS = (
    ("sim.kernel", "repro.sim.kernel", "Simulator", ("run", "schedule", "advance")),
    ("sim.network", "repro.sim.network", "Network", ("gather", "request", "send")),
    ("sim.workload", "repro.sim.workload", "WorkloadGenerator",
     ("run", "_resolve_conflict", "_retry_transaction")),
    ("quorum.coterie", "repro.quorum.coterie", "ExplicitCoterie", _HAS_QUORUM),
    ("quorum.coterie", "repro.quorum.coterie", "ThresholdCoterie", _HAS_QUORUM),
    ("quorum.coterie", "repro.quorum.coterie", "SubsetThresholdCoterie", _HAS_QUORUM),
    ("quorum.coterie", "repro.quorum.coterie", "EmptyCoterie", _HAS_QUORUM),
    ("replication.frontend", "repro.replication.frontend", "FrontEnd", ("execute_outcome",)),
    ("replication.repository", "repro.replication.repository", "Repository",
     ("read_log", "write_log")),
    ("replication.log", "repro.replication.log", "Log", ("extended", "merge", "fresh_since")),
    ("replication.viewcache", "repro.replication.viewcache", "QuorumViewCache",
     ("merged_view", "note_write")),
    ("replication.serialcache", "repro.replication.serialcache", "SerialPrefixCache",
     ("committed_node",)),
    ("replication.view", "repro.replication.view", "View",
     ("commit_order_serial", "begin_order_split", "committed_actions", "active_actions")),
    ("cc", "repro.cc.base", "CCScheme", _CC),
    ("cc", "repro.cc.hybrid", "HybridCC", _CC),
    ("cc", "repro.cc.locking", "DynamicLockingCC", _CC),
    ("cc", "repro.cc.static_ts", "StaticTimestampCC", _CC),
    ("spec.legality", "repro.spec.legality", "LegalityOracle", _LEGALITY),
    ("txn.manager", "repro.txn.manager", "TransactionManager", ("begin", "commit", "abort")),
    ("obs.trace", "repro.obs.trace", "Tracer", ("start_span", "end_span", "event")),
    ("obs.audit", "repro.obs.audit", "Auditor", ("on_span_end", "finish")),
    ("resilience", "repro.resilience.chaos", "ChaosSchedule", ("apply_at",)),
    ("resilience", "repro.replication.antientropy", "AntiEntropy", ("synchronize",)),
    ("scenarios", "repro.scenarios.runner", None, ("build_scenario",)),
    ("spec.enumerate", "repro.spec.enumerate", None, ("alphabets",)),
    ("dependency.static_dep", "repro.dependency.static_dep", None,
     ("minimal_static_dependency",)),
    ("dependency.dynamic_dep", "repro.dependency.dynamic_dep", None,
     ("commutativity_table", "dependency_from_commutativity")),
    ("dependency.verify", "repro.dependency.verify", None,
     ("find_counterexample", "is_dependency_relation", "minimal_extensions")),
    ("atomicity.explore", "repro.atomicity.explore", None,
     ("behavioral_histories", "multi_property_histories")),
    ("compute.cache", "repro.compute.cache", "ArtifactCache", ("load", "store")),
    ("compute.codec", "repro.compute.codec", None, ("canonical_json",)),
    ("core.theorems", "repro.core.theorems", None,
     ("verify_theorem_4", "verify_theorem_5", "verify_theorem_6", "verify_theorem_10",
      "verify_theorem_11", "verify_theorem_12", "verify_flagset_two_minimals")),
)

LAYERS = tuple(dict.fromkeys(entry[0] for entry in ENTRY_POINTS))

#: Owners wrapped on the simulated workloads only.  Under the theory
#: battery ``LegalityOracle.is_legal`` is the inner loop (3.0 M calls a
#: round at ~1 us each): wrapping it doubled the round, so there its time
#: stays inside the self time of the search that called it.
SIM_ONLY = frozenset({"LegalityOracle"})

_THEOREM_METRICS = {
    "verify_theorem_4": "thm4_s", "verify_theorem_5": "thm5_s",
    "verify_theorem_6": "thm6_s", "verify_theorem_10": "thm10_s",
    "verify_theorem_11": "thm11_s", "verify_theorem_12": "thm12_s",
    "verify_flagset_two_minimals": "flagset_s",
}


class Recorder:
    """Spans and boundary counters of one traced round, kept in memory.

    The hot path only appends to one flat list of ``code, time`` pairs —
    an entry point's key on the way in, ``EXIT`` on the way out — and
    :meth:`rows` rebuilds the span tree from the nesting afterwards.
    Plain ints and floats in one list: half a million small containers
    would make the cyclic collector a layer of its own.
    """

    EXIT = -1

    def __init__(self) -> None:
        self.keys: list[tuple[str, str]] = []
        self.events: list[float] = []
        #: position of an exit marker in ``events`` → exception class
        #: name, for the calls that raised.
        self.errors: dict[int, str] = {}
        #: Counters taken where the work happens (see ``_AFTER``).
        self.counts: dict[str, float] = {}
        #: Instances seen at a boundary whose own counters are read when
        #: the round ends (view caches, oracles), by ``id``.
        self.seen: dict[int, object] = {}

    def key(self, layer: str, name: str) -> int:
        self.keys.append((layer, name))
        return len(self.keys) - 1

    def rows(self) -> list[tuple[int, int, float, float, str | None]]:
        """``(key, parent, start, end, error)`` per span, parents first."""
        events, errors = self.events, self.errors
        rows: list[list] = []
        stack = [-1]
        for position in range(0, len(events), 2):
            code, when = events[position], events[position + 1]
            if code == self.EXIT:
                row = rows[stack.pop()]
                row[3], row[4] = when, errors.get(position)
            else:
                rows.append([code, stack[-1], when, when, None])
                stack.append(len(rows) - 1)
        return [tuple(row) for row in rows]

    @contextmanager
    def span(self, key: int):
        events = self.events
        events.append(key)
        events.append(perf_counter())
        try:
            yield
        except BaseException as exc:
            self.errors[len(events)] = type(exc).__name__
            raise
        finally:
            ended = perf_counter()
            events.append(self.EXIT)
            events.append(ended)

    def top(self, name: str):
        """A top-level harness span (``setup`` or one timed cell)."""
        return self.span(self.key("bench", name))

    def bump(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value


def _keep_self(rec: Recorder, args, _result) -> None:
    rec.seen[id(args[0])] = args[0]


def _conflict_resolved(rec: Recorder, _args, finished: bool) -> None:
    if not finished:  # the script stays in the pool and re-submits the operation
        rec.bump("sim.workload.retries")


def _transaction_retried(rec: Recorder, _args, again: bool) -> None:
    if again:
        rec.bump("sim.workload.retries")


def _cache_loaded(rec: Recorder, _args, payload) -> None:
    if payload is not None:
        rec.bump("compute.cache.hits")


#: ``"Owner.method"`` → hook called as ``hook(recorder, args, result)``
#: after a successful call: the counts the layer metrics need that span
#: timing alone cannot give.
_AFTER = {
    "Simulator.run": lambda rec, _args, dispatched: rec.bump("sim.kernel.events", dispatched),
    "WorkloadGenerator._resolve_conflict": _conflict_resolved,
    "WorkloadGenerator._retry_transaction": _transaction_retried,
    "Log.extended": lambda rec, _args, log: rec.peak("replication.log.max_entries", len(log)),
    "QuorumViewCache.merged_view": _keep_self,
    "ArtifactCache.load": _cache_loaded,
    "commutativity_table":
        lambda rec, _args, table: rec.bump("dependency.dynamic_dep.table_pairs", len(table)),
    **{f"LegalityOracle.{name}": _keep_self for name in _LEGALITY},
}


def _wrap(rec: Recorder, key: int, func, after):
    events, errors, clock, exit_code = rec.events, rec.errors, perf_counter, rec.EXIT
    log = events.append

    def traced(*args, **kwargs):
        log(key)
        log(clock())
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            errors[len(events)] = type(exc).__name__
            raise
        finally:
            ended = clock()
            log(exit_code)
            log(ended)
        if after is not None:
            after(rec, args, result)
        return result

    def traced_generator(*args, **kwargs):
        generator = func(*args, **kwargs)
        while True:
            with rec.span(key):
                try:
                    item = next(generator)
                except StopIteration:
                    return
            yield item

    wrapper = traced_generator if inspect.isgeneratorfunction(func) else traced
    wrapper.__wrapped__ = func
    wrapper.__name__ = getattr(func, "__name__", "traced")
    return wrapper


def install(rec: Recorder, kind: str) -> list[tuple[object, str, object]]:
    """Wrap every entry point for a workload of ``kind`` (``sim``/``theory``).

    Returns the undo list for :func:`uninstall`.
    """
    undo: list[tuple[object, str, object]] = []
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and name.split(".")[0] == "repro"]
    for layer, module_name, owner_name, names in ENTRY_POINTS:
        if owner_name in SIM_ONLY and kind != "sim":
            continue
        module = importlib.import_module(module_name)
        if module not in modules:
            modules.append(module)
        owner = getattr(module, owner_name) if owner_name else None
        for name in names:
            label = f"{owner_name}.{name}" if owner_name else name
            if owner is not None:
                original = owner.__dict__.get(name)
                if original is None:
                    continue  # inherited: wrapped on the base class
                if not inspect.isfunction(original):
                    raise TypeError(f"{label} is not a plain method")
                holders = [owner]
            else:
                original = getattr(module, name)
                holders = [m for m in modules if m.__dict__.get(name) is original]
            wrapper = _wrap(rec, rec.key(layer, label), original, _AFTER.get(label))
            for holder in holders:
                undo.append((holder, name, original))
                setattr(holder, name, wrapper)
    return undo


def uninstall(undo) -> None:
    for holder, name, original in reversed(undo):
        setattr(holder, name, original)


def _percentile(sorted_values: list[float], p: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(p * len(sorted_values)))]


def layer_metrics(rec: Recorder, spans, cell_names: list[str], result: dict) -> dict[str, float]:
    """Every per-layer metric of one traced round (``spans`` = ``rec.rows()``).

    ``cell_names`` are the round's timed top-level spans; ``.calls``,
    ``.self_s`` and ``.share`` cover those only, so work under any other
    top-level span (``setup``) shows in ``scenarios.build_s`` alone.  ``result``
    is the round's seeded counts, the source of the counters the program
    already keeps itself (messages, commits, faults, violations).
    """
    keys = rec.keys
    timed_keys = {i for i, (layer, name) in enumerate(keys)
                  if layer == "bench" and name in cell_names}
    child_time = [0.0] * len(spans)
    timed = [False] * len(spans)
    for index, (key, parent, start, end, _err) in enumerate(spans):
        if parent < 0:
            timed[index] = key in timed_keys
        else:
            timed[index] = timed[parent]
            child_time[parent] += end - start
    calls = dict.fromkeys(LAYERS + ("bench",), 0)
    self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
    total_s: dict[str, float] = {}
    called: dict[str, int] = {}
    errors: dict[tuple[str, str], int] = {}
    frontend_by_cell: dict[int, list[float]] = {}
    cell_of = [0] * len(spans)
    for index, (key, parent, start, end, err) in enumerate(spans):
        layer, name = keys[key]
        cell_of[index] = index if parent < 0 else cell_of[parent]
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        called[name] = called.get(name, 0) + 1
        if err is not None:
            errors[name, err] = errors.get((name, err), 0) + 1
        if timed[index]:
            calls[layer] += 1
            self_s[layer] += end - start - child_time[index]
            if name == "FrontEnd.execute_outcome":
                frontend_by_cell.setdefault(cell_of[index], []).append(end - start)
    wall = sum(end - start for key, parent, start, end, _e in spans
               if parent < 0 and key in timed_keys)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / wall
    out["bench.unattributed_share"] = self_s["bench"] / wall

    out["sim.kernel.events"] = rec.counts.get("sim.kernel.events", 0)
    out["sim.network.messages"] = result.get("messages", 0)
    gathers = called.get("Network.gather", 0)
    out["sim.network.msgs_per_gather"] = result.get("messages", 0) / gathers if gathers else 0.0

    # First vs last quarter of each cell's operations: the history-growth
    # signal (a cell is one cluster, so its log only grows).
    every, first, last = [], [], []
    for durations in frontend_by_cell.values():
        quarter = max(1, len(durations) // 4)
        every += durations
        first += durations[:quarter]
        last += durations[-quarter:]
    every.sort()
    out["replication.frontend.execute_p50_us"] = _percentile(every, 0.50) * 1e6
    out["replication.frontend.execute_p99_us"] = _percentile(every, 0.99) * 1e6
    out["replication.frontend.execute_q1_p50_us"] = (median(first) if first else 0.0) * 1e6
    out["replication.frontend.execute_q4_p50_us"] = (median(last) if last else 0.0) * 1e6

    out["replication.log.max_entries"] = rec.counts.get("replication.log.max_entries", 0)
    caches = [o for o in rec.seen.values() if type(o).__name__ == "QuorumViewCache"]
    reused = sum(c.hits + c.delta_merges for c in caches)
    rebuilds = sum(c.rebuilds for c in caches)
    out["replication.viewcache.hit_ratio"] = (
        reused / (reused + rebuilds) if reused + rebuilds else 0.0)
    out["replication.viewcache.rebuilds"] = rebuilds

    chooses = sum(n for name, n in called.items() if name.endswith(".choose_event"))
    conflicts = sum(n for (name, err), n in errors.items()
                    if name.endswith(".choose_event") and err == "ConflictError")
    out["cc.conflicts"] = conflicts
    out["cc.conflict_ratio"] = conflicts / chooses if chooses else 0.0
    out["spec.legality.cache_nodes"] = sum(
        o.cache_nodes() for o in rec.seen.values() if type(o).__name__ == "LegalityOracle")

    out["txn.manager.commits"] = result.get("committed", 0)
    out["txn.manager.aborts"] = result.get("aborted", 0)
    out["sim.workload.retries"] = rec.counts.get("sim.workload.retries", 0)

    out["obs.trace.spans"] = called.get("Tracer.start_span", 0)
    out["obs.trace.peak_retained"] = result.get("peak_retained", 0)
    out["obs.audit.finish_s"] = total_s.get("Auditor.finish", 0.0)
    out["obs.audit.violations"] = result.get("violations", 0)
    out["resilience.faults_applied"] = result.get("faults_applied", 0)
    out["scenarios.build_s"] = total_s.get("build_scenario", 0.0)

    out["dependency.dynamic_dep.table_pairs"] = rec.counts.get(
        "dependency.dynamic_dep.table_pairs", 0)
    loads = called.get("ArtifactCache.load", 0)
    out["compute.cache.hit_ratio"] = (
        rec.counts.get("compute.cache.hits", 0) / loads if loads else 0.0)
    for function, metric in _THEOREM_METRICS.items():
        out[f"core.theorems.{metric}"] = total_s.get(function, 0.0)
    return out


def write_spans(keys, spans, path) -> None:
    """``spans.jsonl``: one span per line, parents before children.

    ``op`` is the id of the nearest enclosing ``FrontEnd.execute_outcome``
    span, else of the top-level cell: spans of one request share it.
    """
    op = [0] * len(spans)
    with open(path, "w", encoding="utf-8") as out:
        for index, (key, parent, start, end, err) in enumerate(spans):
            layer, name = keys[key]
            if parent < 0 or name == "FrontEnd.execute_outcome":
                op[index] = index
            else:
                op[index] = op[parent]
            error = "null" if err is None else f'"{err}"'
            out.write(
                f'{{"id":{index},"parent":{parent},"op":{op[index]},'
                f'"layer":"{layer}","name":"{name}",'
                f'"start":{start!r},"end":{end!r},"error":{error}}}\n'
            )
