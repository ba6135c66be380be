"""``python -m repro`` — the reproduction's command-line interface.

Subcommands:

* ``report``  — regenerate the paper's results as a text report (also
  what running with no arguments does); exits non-zero when any row of
  :data:`repro.core.claims.CLAIMS` does not hold;
* ``trace``   — run a replicated-queue workload with tracing on and
  emit the span forest as a tree, JSONL, or Chrome trace JSON;
* ``metrics`` — run the same workload and print the outcome/latency
  metrics (fixed-width table or JSON);
* ``audit``   — run the workload under the online correctness auditor
  (live history capture + invariant monitors); exits non-zero when any
  invariant is violated.  ``--mutate`` seeds a protocol mutation the
  auditor must flag; ``--sweep`` runs the full fault-injection matrix.
* ``chaos``   — seeded chaos sweep: composed crash/partition/churn
  fault schedules over the resilience layer (retry policies, crash
  recovery, heal-triggered anti-entropy), every run audited; emits a
  JSON verdict table and exits non-zero unless every case is clean.
* ``soak``    — bounded-memory endurance run: a sharded hybrid-queue
  keyspace driven for ``--ops`` operations (default one million) under
  ring span retention, the streaming auditor, and periodic log
  compaction + transaction retirement; exits non-zero unless retained
  spans stayed within the window and the audit was clean.
* ``scenario`` — run a catalog scenario (``docs/SCENARIOS.md``) under a
  chosen atomicity mechanism and optional chaos profile, streaming-
  audited; ``--list`` prints the catalog.  Exits non-zero on audit
  violations, divergent replicas, or unaccounted work.

Every workload subcommand takes ``--seed`` and ``--sites`` and is
deterministic per seed; ``trace``, ``metrics`` and ``audit`` share the
standard-workload options (``--transactions``, ``--crashes``,
``--drop-probability``, ``--objects``, ``--placement``).
``report``, ``audit``, ``chaos``, ``soak`` and ``scenario`` accept
``--artifacts DIR`` to drop a machine-readable ``plan.json`` /
``report.json`` pair describing the run (see :func:`_write_artifacts`;
``scenario --list`` runs nothing and refuses it).  Every mode that
takes ``--format json`` prints one JSON document; every text rendering
but the audit report's is one :func:`~repro.obs.metrics.render_table`.
Wall-clock measurement lives outside the
package: ``python3 perf/run.py <workload> --rounds 1 --traced`` prints
host-corrected medians and a per-layer ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Any, Callable, NamedTuple

from repro.core import claims
from repro.obs.audit import DEFAULT_STREAM_WINDOW, Auditor
from repro.obs.export import EXPORTERS, STREAM_WRITERS, export, open_stream_writer
from repro.obs.metrics import render_table
from repro.obs.mutations import EXPECTED_INVARIANT, MUTATIONS
from repro.obs.soak import SoakConfig, run_soak
from repro.obs.trace import Tracer
from repro.replication.keyspace import UNIFORM_PLACEMENTS
from repro.resilience.chaos import PROFILES, run_chaos_sweep
from repro.resilience.policy import POLICIES, read_only_operations
from repro.scenarios import MECHANISMS, SCENARIOS, build_scenario, run_scenario


def _positive_int(text: str) -> int:
    """Argparse type for sizes and windows: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _probability(text: str) -> float:
    """Argparse type for a per-message loss probability in [0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"{value} is not a probability in [0, 1)")
    return value


# -- shared options ---------------------------------------------------------

#: One ``add_argument`` call: ``(names, settings)``.
Flag = tuple[tuple[str, ...], dict[str, Any]]


def _flag(*names: str, **settings: Any) -> Flag:
    return names, settings


def _seed(help: str = "simulation seed") -> Flag:
    return _flag("--seed", type=int, default=0, help=help)


def _sites(default: int | None, help: str, metavar: str | None = None) -> Flag:
    return _flag(
        "--sites", type=_positive_int, default=default, metavar=metavar, help=help
    )


def _transactions(default: int | None, help: str, metavar: str | None = None) -> Flag:
    return _flag(
        "--transactions",
        type=_positive_int,
        default=default,
        metavar=metavar,
        help=help,
    )


def _objects(default: int | None, help: str) -> Flag:
    return _flag(
        "--objects", type=_positive_int, default=default, metavar="N", help=help
    )


def _placement(help: str) -> Flag:
    return _flag(
        "--placement", choices=tuple(UNIFORM_PLACEMENTS), default="all", help=help
    )


def _window(default: int | None, help: str) -> Flag:
    return _flag(
        "--window", type=_positive_int, default=default, metavar="W", help=help
    )


def _format(what: str, *choices: str, default: str | None = None) -> Flag:
    """``--format``: the first choice is the default unless one is named."""
    default = choices[0] if default is None else default
    return _flag(
        "--format",
        choices=choices,
        default=default,
        help=f"{what} rendering (default: {default})",
    )


_OUTPUT = _flag(
    "--output", "-o", default=None, help="write to a file instead of stdout"
)
_ARTIFACTS = _flag(
    "--artifacts",
    default=None,
    metavar="DIR",
    help="write a machine-readable plan.json/report.json pair into DIR",
)

#: The standard workload behind ``trace``, ``metrics`` and ``audit``.
_WORKLOAD = (
    _seed(),
    _sites(3, "number of repository sites"),
    _transactions(12, "transactions to run"),
    _flag(
        "--crashes",
        action="store_true",
        help="inject stochastic site crashes/recoveries (uptime 60, downtime 8)",
    ),
    _flag(
        "--drop-probability",
        type=_probability,
        default=0.0,
        metavar="P",
        help="per-message loss probability in [0, 1)",
    ),
    _objects(
        1,
        "objects in the keyspace (default: 1, the classic "
        "single-queue workload; >1 cycles queue/register/counter specs)",
    ),
    _placement(
        "replica placement rule: 'all' = full replication, 'ring' = "
        "3 consecutive sites per object keyed by object name "
        "(default: all)"
    ),
)


def _workload_shape(args: argparse.Namespace) -> dict:
    """The standard-workload shape a workload subcommand parsed."""
    return {
        "seed": args.seed,
        "sites": args.sites,
        "drop_probability": args.drop_probability,
        "objects": args.objects,
        "placement": args.placement,
        "crashes": args.crashes,
        "partitions": getattr(args, "partitions", False),
    }


def _run_workload(args: argparse.Namespace, tracer: Tracer) -> None:
    """Drive the standard workload under ``tracer``."""
    _cluster, generator = _standard_workload(_workload_shape(args), tracer)
    generator.run(args.transactions)


def _standard_workload(shape: dict, tracer: Tracer | None = None):
    """``(cluster, generator)`` for a shape, un-run: ``SCENARIOS["default"]``
    with the shape's object count, every object hybrid; ``--crashes``
    means a mean uptime of 60 and downtime of 8."""
    options = dict(shape)
    cluster, generator, _names = build_scenario(
        replace(SCENARIOS["default"], objects=options.pop("objects")),
        n_sites=options.pop("sites"),
        crashes=(60.0, 8.0) if options.pop("crashes") else None,
        tracer=tracer,
        **options,
    )
    return cluster, generator


# -- the frame --------------------------------------------------------------


class Outcome(NamedTuple):
    """What a subcommand's run hands back to the frame."""

    ok: bool
    #: Printed as JSON under ``--format json``.
    payload: Any = None
    #: Printed under any other format (or when there is no payload).
    text: str | None = None
    #: ``plan.json`` / ``report.json`` sections; no plan, no artifacts.
    plan: dict | None = None
    report: dict | None = None


@dataclass(frozen=True)
class Command:
    """One subcommand: its flags, in ``--help`` order, and its run."""

    name: str
    help: str
    flags: tuple[Flag, ...]
    run: Callable[[argparse.Namespace], Outcome]
    #: Cross-argument check: a usage error's message, or ``None``.
    check: Callable[[argparse.Namespace], str | None] = lambda args: None


#: Bumped when the artifact envelope changes incompatibly.
ARTIFACT_VERSION = 1


def _write_artifacts(
    directory: str, command: str, ok: bool, plan: dict, report: dict
) -> None:
    """Write ``plan.json`` (what was about to run) and ``report.json``
    (what happened) under ``directory``: sorted keys, two-space indent,
    each with an ``artifact`` discriminator and a schema ``version``."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise _cannot_write(directory, exc)
    envelope = {"version": ARTIFACT_VERSION, "command": command}
    paths = []
    for name, document in (
        ("plan.json", {"artifact": "plan", **envelope, **plan}),
        ("report.json", {"artifact": "report", **envelope, "ok": ok, **report}),
    ):
        path = os.path.join(directory, name)
        with _open_output(path) as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    print(f"wrote {paths[0]} and {paths[1]}", file=sys.stderr)


def _cannot_write(path: str, exc: OSError) -> SystemExit:
    """Exit 1 with a one-line message naming the unwritable ``path``."""
    return SystemExit(f"python -m repro: cannot write {path}: {exc}")


def _open_output(path: str):
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _cannot_write(path, exc)


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        print(text)
    else:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise _cannot_write(output, exc)
        print(f"wrote {output}", file=sys.stderr)


def _finish(command: str, args: argparse.Namespace, outcome: Outcome) -> int:
    """Emit a run's outcome, write its artifacts, and give its exit code."""
    output = getattr(args, "output", None)
    if outcome.payload is not None and args.format == "json":
        _emit(json.dumps(outcome.payload, indent=2, sort_keys=True), output)
    elif outcome.text is not None:
        _emit(outcome.text, output)
    directory = getattr(args, "artifacts", None)
    if directory is not None and outcome.plan is not None:
        _write_artifacts(
            directory, command, bool(outcome.ok), outcome.plan, outcome.report
        )
    return 0 if outcome.ok else 1


# -- subcommands ------------------------------------------------------------


def _run_report(args: argparse.Namespace) -> Outcome:
    wall_start = perf_counter()
    report = claims.paper_report(fast_theorems=args.fast)
    print(report)
    elapsed = perf_counter() - wall_start
    if report.failed:
        print("claims that do not hold: " + ", ".join(report.failed), file=sys.stderr)
    return Outcome(
        not report.failed,
        plan={"config": {"fast": args.fast}},
        report={"elapsed": round(elapsed, 3), "failed": report.failed},
    )


def _run_trace(args: argparse.Namespace) -> Outcome:
    if not args.stream:
        tracer = Tracer()
        _run_workload(args, tracer)
        return Outcome(True, text=export(tracer.spans, args.format))
    if args.format not in STREAM_WRITERS:
        raise SystemExit(
            "python -m repro trace: --stream requires --format "
            + " or ".join(sorted(STREAM_WRITERS))
        )
    tracer = Tracer(retention="ring", window=args.window)
    handle = sys.stdout if args.output in (None, "-") else _open_output(args.output)
    writer = open_stream_writer(args.format, handle)
    tracer.add_listener(writer)
    try:
        _run_workload(args, tracer)
        writer.close()
    finally:
        if handle is not sys.stdout:
            handle.close()
    print(
        f"streamed {writer.spans_written} spans "
        f"(ring window {tracer.window}, peak retained "
        f"{tracer.peak_retained})",
        file=sys.stderr,
    )
    return Outcome(True)


def _mix_rows(cluster) -> list[dict]:
    """Per-object read/write-mix rows, counted from each object's recorded
    operations: a read is an operation ``read_only_operations`` names."""
    rows = []
    for name in sorted(cluster.tm.objects):
        obj = cluster.tm.object(name)
        read_ops = read_only_operations(obj.datatype)
        ops = [event.inv.op for kind, _, event in obj.recorder.trace if kind == "op"]
        reads = sum(op in read_ops for op in ops)
        rows.append(
            {
                "object": name,
                "reads": reads,
                "writes": len(ops) - reads,
                "read_fraction": reads / len(ops) if ops else None,
                "assignment": "; ".join(obj.assignment.describe().splitlines()),
            }
        )
    return rows


def _run_metrics(args: argparse.Namespace) -> Outcome:
    cluster, generator = _standard_workload(_workload_shape(args))
    metrics = generator.run(args.transactions)
    mix_rows = _mix_rows(cluster)
    operations = metrics.summary()
    payload = {
        "operations": operations,
        "registry": metrics.export(),
        "mix": {row["object"]: row for row in mix_rows},
        "network": {
            "messages_sent": cluster.network.messages_sent,
            "messages_dropped": cluster.network.messages_dropped,
        },
    }
    commits, aborts = metrics.committed_transactions, metrics.aborted_transactions
    outcomes = ("ok", "unavailable", "conflict", "degraded")
    text = render_table(
        ("operation", "attempts", "ok", "unavail", "conflict", "degraded",
         "avail%", "ok%", "p50", "p95", "p99"),
        [
            (op, int(row["attempts"]), *(metrics.outcomes[op, o] for o in outcomes),
             100 * row["availability"], 100 * row["success_rate"],
             row.get("latency_p50"), row.get("latency_p95"), row.get("latency_p99"))
            for op, row in operations.items()
        ],
        footer=[
            f"transactions: {commits} committed, {aborts} aborted "
            f"({100 * commits / (commits + aborts):.2f}% commit rate)"
        ] if commits or aborts else [],
    )  # fmt: skip
    mix = render_table(
        ("object", "reads", "writes", "read%", "assignment"),
        [
            (row["object"], row["reads"], row["writes"],
             None if row["read_fraction"] is None else 100 * row["read_fraction"],
             row["assignment"])
            for row in mix_rows
        ],
        title=["per-object read/write mix:"],
    )  # fmt: skip
    return Outcome(True, payload, text + "\n\n" + mix)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _run_chaos(args: argparse.Namespace) -> Outcome:
    profiles = tuple(PROFILES) if args.profile is None else (args.profile,)
    policies = tuple(POLICIES) if args.policies is None else tuple(args.policies)
    verdict = run_chaos_sweep(
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        profiles=profiles,
        policies=policies,
        n_sites=args.sites,
        transactions=args.transactions,
        jobs=args.jobs,
        objects=args.objects,
        placement=args.placement,
    )
    text = render_table(
        ("profile", "policy", "runs", "faults", "att", "ok", "degr", "unav",
         "abort", "viol", "rep p50", "rep p95", "verdict"),
        [(profile, policy, row["runs"], row["faults_applied"], row["attempted"],
          row["succeeded"], row["degraded"], row["unavailable"], row["aborted_ops"],
          row["violations"], row["recovery_repaired_p50"], row["recovery_repaired_p95"],
          _verdict(row["ok"]))
         for profile, policies in verdict["profiles"].items()
         for policy, row in policies.items()],
        footer=[
            "sweep: "
            + ("all cases clean" if verdict["ok"] else "CASES FAILED")
            + f" (seeds {verdict['seeds']}, {verdict['transactions']} txns/case)"
        ],
    )  # fmt: skip
    return Outcome(
        verdict["ok"],
        verdict,
        text,
        plan={
            "workload": {
                "seed": args.seed,
                "seeds": args.seeds,
                "sites": args.sites,
                "transactions": args.transactions,
                "objects": args.objects,
                "placement": args.placement,
            },
            "profiles": list(profiles),
            "policies": list(policies),
        },
        report={"verdict": verdict},
    )


def _chaos_placement(args: argparse.Namespace) -> str | None:
    if args.objects is None and args.placement != "all":
        return (
            "chaos --placement needs --objects N: the classic queue/register "
            "pair is fully replicated"
        )
    return None


def _audit_once(args: argparse.Namespace, mutate: str | None):
    """One audited workload run; returns the finished AuditReport."""
    shape = _workload_shape(args)
    if mutate == "shard-misroute":
        # The misroute sabotage needs somewhere to misroute *to*: a
        # partially replicated keyspace on enough sites that ring
        # placement (rf 3) leaves at least one non-holding site per
        # object.  Upgrade the workload shape; everything else (seed,
        # transactions, faults) stays as given.
        shape.update(
            placement="ring",
            objects=max(shape["objects"], 4),
            sites=max(shape["sites"], 5),
        )
    window = args.window if args.window is not None else DEFAULT_STREAM_WINDOW
    if args.streaming:
        # Streaming audit rides on bounded retention end to end: the
        # tracer only keeps the ring tail, the monitors only their
        # sliding windows.
        tracer = Tracer(retention="ring", window=window)
    else:
        tracer = Tracer()
    cluster, generator = _standard_workload(shape, tracer)
    # Attach first: monitors pin the declared configuration before any
    # seeded mutation can rewrite it.
    auditor = Auditor(
        cluster, mode="streaming" if args.streaming else "deep", window=window
    )
    if mutate is not None:
        MUTATIONS[mutate](cluster)
    generator.run(args.transactions)
    return auditor.finish()


def _audit_plan(args: argparse.Namespace, report, mutate) -> dict:
    return {
        "workload": {**_workload_shape(args), "transactions": args.transactions},
        "observability": {
            "mode": report.mode, "window": report.window, "mutate": mutate
        },
    }


def _audit_sweep(args: argparse.Namespace) -> Outcome:
    """Fault-injection sweep: clean and fault-tolerant runs must stay
    green; every seeded protocol mutation must be flagged, and the flag
    must name the invariant that mutation breaks."""
    faults = (("clean", {}), ("crashes", {"crashes": True}),
              ("partitions", {"partitions": True}))  # fmt: skip
    runs = [(label, None, argparse.Namespace(**{**vars(args), **more}))
            for label, more in faults]  # fmt: skip
    runs += [(f"mutate:{name}", name, args) for name in sorted(MUTATIONS)]
    cases = []
    for label, mutate, run_args in runs:
        report = _audit_once(run_args, mutate)
        violated = list(report.violated_invariants)
        expected = EXPECTED_INVARIANT.get(mutate)
        cases.append({
            "case": label,
            "expect": "green" if mutate is None else f"flags {expected}",
            "ok": report.ok if mutate is None else expected in violated,
            "violated_invariants": violated,
        })  # fmt: skip
    sweep = {"ok": all(case["ok"] for case in cases), "cases": cases}
    text = render_table(
        ("case", "expect", "verdict", "violated"),
        [(case["case"], case["expect"], _verdict(case["ok"]),
          ", ".join(case["violated_invariants"]) or "none") for case in cases],
        title=[f"audit sweep (seed {args.seed}, {args.sites} sites):"],
        footer=["sweep: " + ("all expectations met" if sweep["ok"]
                             else "EXPECTATIONS VIOLATED")],
    )  # fmt: skip
    return Outcome(
        sweep["ok"],
        sweep,
        text,
        plan=_audit_plan(args, report, sorted(MUTATIONS)),
        report={"sweep": sweep},
    )


def _run_audit(args: argparse.Namespace) -> Outcome:
    if args.sweep:
        return _audit_sweep(args)
    report = _audit_once(args, args.mutate)
    payload = report.to_dict()
    return Outcome(
        report.ok,
        payload,
        report.render(),
        plan=_audit_plan(args, report, args.mutate),
        report={
            "report": payload,
            "retention": {
                "obs.retained_spans": report.retained_spans,
                "obs.peak_retained": report.peak_retained,
            },
        },
    )


def _run_soak(args: argparse.Namespace) -> Outcome:
    config = SoakConfig(
        ops=25_000 if args.quick else args.ops,
        seed=args.seed,
        sites=args.sites,
        objects=args.objects,
        replication_factor=args.replication_factor,
        window=args.window,
        compact_every=args.compact_every,
        audit=not args.no_audit,
    )
    result = run_soak(config)
    payload = result.to_dict()
    m, audit = result.maintenance, result.report
    text = render_table(
        ("retention", "window", "peak retained", "within", "audit cells", "live txns"),
        [(result.retention, config.window, result.peak_retained,
          "OK" if result.retained_ok else "EXCEEDED", result.audit_cells_peak,
          result.live_txns)],
        title=[f"soak: {result.ops:,} operations / {result.transactions:,} "
               f"transactions in {result.elapsed:.1f}s wall "
               f"({result.ops_per_sec:,.0f} ops/s, seed {config.seed})",
               f"keyspace: {config.objects} hybrid queues over {config.sites} sites "
               f"(rf {config.replication_factor})"],
        footer=[f"maintenance: {m['rounds']} rounds, {m['compactions']} compactions, "
                f"{m['pruned_actions']} actions pruned, {m['retired_txns']} "
                "transactions retired",
                *([] if audit is None else ["audit: " + (
                    "no violations" if audit.ok
                    else "VIOLATIONS: " + ", ".join(audit.violated_invariants))]),
                "verdict: " + _verdict(result.ok)],
    )  # fmt: skip
    return Outcome(
        result.ok,
        payload,
        text,
        plan={
            "config": config.to_dict(),
            "observability": {
                "retention": result.retention,
                "window": config.window,
                "audit_mode": "streaming" if config.audit else "off",
            },
        },
        report={"result": payload},
    )


def _scenario_usage(args: argparse.Namespace) -> str | None:
    if args.list:
        return "--list writes no artifacts" if args.artifacts is not None else None
    return None if args.name is not None else "name a scenario or pass --list"


def _run_scenario(args: argparse.Namespace) -> Outcome:
    if args.list:
        catalog = {name: spec.description for name, spec in sorted(SCENARIOS.items())}
        title = ["scenario catalog (docs/SCENARIOS.md):"]
        text = render_table(("scenario", "description"), catalog.items(), title=title)
        return Outcome(True, catalog, text)
    verdict = run_scenario(
        args.name,
        seed=args.seed,
        mechanism=args.mechanism,
        profile=args.profile,
        policy=args.policy,
        n_sites=args.sites,
        transactions=args.transactions,
        streaming=not args.deep_audit,
        window=args.window,
    )
    counts, fp = verdict["counts"], verdict["fingerprint"]
    text = render_table(
        ("att", "ok", "degr", "unav", "confl", "abort", "commits", "aborts",
         "messages", "faults", "viol"),
        [(counts["attempted"], counts["succeeded"], counts["degraded"],
          counts["unavailable"], counts["conflict"], counts["aborted_ops"],
          fp["commits"], fp["aborts"], fp["messages_sent"], fp["faults_applied"],
          verdict["violations"])],
        title=[
            f"scenario {verdict['scenario']} × {verdict['mechanism']} "
            f"(scheme {verdict['scheme']}) × profile {verdict['profile']} "
            f"(seed {verdict['seed']}, {verdict['n_sites']} sites, "
            f"{verdict['transactions']} txns)"
        ],
        footer=[
            f"audit: {'clean' if fp['audit_ok'] else 'VIOLATIONS'} "
            f"({verdict['violations']})  converged: {fp['converged']}  "
            f"accounted: {counts['accounted']}",
            "verdict: " + _verdict(verdict["ok"]),
        ],
    )  # fmt: skip
    return Outcome(
        verdict["ok"],
        verdict,
        text,
        plan={
            "workload": {
                "scenario": args.name,
                "seed": args.seed,
                "sites": verdict["n_sites"],
                "transactions": verdict["transactions"],
            },
            "mechanism": args.mechanism,
            "profile": args.profile,
            "policy": verdict["policy"],
        },
        report={"verdict": verdict},
    )


COMMANDS = (
    Command(
        "report",
        "print the full paper reproduction report",
        (
            _flag(
                "--fast", action="store_true", help="skip the slowest theorem searches"
            ),
            _ARTIFACTS,
        ),
        _run_report,
    ),
    Command(
        "trace",
        "run a traced workload and export its span forest",
        (
            *_WORKLOAD,
            _format("trace", *sorted(EXPORTERS), default="tree"),
            _flag(
                "--stream",
                action="store_true",
                help="flush spans incrementally as they close (jsonl or chrome "
                "format) under ring retention, instead of exporting at the end",
            ),
            _window(None, "ring-retention window for --stream (default: 4096)"),
            _OUTPUT,
        ),
        _run_trace,
    ),
    Command(
        "metrics",
        "run a workload and print outcome/latency metrics",
        (*_WORKLOAD, _format("metrics", "table", "json"), _OUTPUT),
        _run_metrics,
    ),
    Command(
        "chaos",
        "run the audited chaos sweep over composed fault schedules",
        (
            _seed("first sweep seed"),
            _flag(
                "--seeds",
                type=_positive_int,
                default=4,
                metavar="N",
                help="number of consecutive seeds per (profile, policy) cell "
                "(default: 4)",
            ),
            _flag(
                "--profile",
                choices=PROFILES,
                default=None,
                help="restrict to one fault profile (default: all four)",
            ),
            _flag(
                "--policies",
                nargs="+",
                choices=tuple(POLICIES),
                default=None,
                help="retry policies to sweep (default: every built-in policy)",
            ),
            _sites(5, "repository sites (default: 5)"),
            _transactions(16, "transactions per case (default: 16)"),
            _objects(
                None,
                "run cases over an N-object keyspace instead of the classic "
                "queue+register pair (default: classic)",
            ),
            _placement(
                "keyspace placement rule; anything but 'all' needs --objects "
                "(default: all)"
            ),
            _flag(
                "--jobs",
                type=int,
                default=None,
                metavar="N",
                help="shard each cell's seeds across N processes "
                "(default: REPRO_JOBS, else serial)",
            ),
            _format("verdict", "table", "json", default="json"),
            _OUTPUT,
            _ARTIFACTS,
        ),
        _run_chaos,
        check=_chaos_placement,
    ),
    Command(
        "audit",
        "run a workload under the online correctness auditor",
        (
            *_WORKLOAD,
            _flag(
                "--partitions",
                action="store_true",
                help="inject stochastic network partitions (interval 80, duration 10)",
            ),
            _flag(
                "--mutate",
                choices=sorted(MUTATIONS),
                default=None,
                help="apply a seeded protocol mutation the auditor must flag",
            ),
            _flag(
                "--sweep",
                action="store_true",
                help="run the full fault-injection sweep (clean + crashes + "
                "partitions stay green; every mutation must be flagged)",
            ),
            _format("report", "text", "json"),
            _flag(
                "--streaming",
                action="store_true",
                help="audit with bounded-memory streaming monitors over a ring "
                "tracer instead of full-history capture",
            ),
            _window(None, "sliding-window size for --streaming (default: 256)"),
            _OUTPUT,
            _ARTIFACTS,
        ),
        _run_audit,
    ),
    Command(
        "soak",
        "bounded-memory endurance run under the streaming auditor",
        (
            _flag(
                "--ops",
                type=_positive_int,
                default=1_000_000,
                metavar="N",
                help="executed operations to drive (default: 1,000,000)",
            ),
            _flag(
                "--quick",
                action="store_true",
                help="CI preset: 25,000 operations instead of --ops",
            ),
            _seed(),
            _sites(5, "repository sites (default: 5)"),
            _objects(8, "hybrid queues in the soak keyspace (default: 8)"),
            _flag(
                "--replication-factor",
                type=_positive_int,
                default=3,
                metavar="F",
                help="ring replicas per object (default: 3)",
            ),
            _window(
                512, "tracer ring size and streaming-monitor window (default: 512)"
            ),
            _flag(
                "--compact-every",
                type=_positive_int,
                default=25,
                metavar="T",
                help="maintenance round every T transactions (default: 25)",
            ),
            _flag(
                "--no-audit",
                action="store_true",
                help="skip tracing and auditing (raw throughput baseline)",
            ),
            _format("result", "text", "json"),
            _OUTPUT,
            _ARTIFACTS,
        ),
        _run_soak,
    ),
    Command(
        "scenario",
        "run one audited catalog scenario under a chosen mechanism",
        (
            _flag(
                "name",
                nargs="?",
                choices=sorted(SCENARIOS),
                default=None,
                help="catalog scenario to run (see --list and docs/SCENARIOS.md)",
            ),
            _flag(
                "--list",
                action="store_true",
                help="print the scenario catalog and exit",
            ),
            _flag(
                "--mechanism",
                choices=sorted(MECHANISMS),
                default="hybrid",
                help="atomicity mechanism to run the scenario under "
                "(default: hybrid)",
            ),
            _flag(
                "--profile",
                choices=("none", *PROFILES),
                default="none",
                help="chaos profile to cross the scenario with (default: none)",
            ),
            _flag(
                "--policy",
                choices=tuple(POLICIES),
                default=None,
                help="retry policy (default: 'default' under chaos, none "
                "otherwise)",
            ),
            _seed(),
            _sites(
                None,
                "repository sites (default: the scenario's natural size)",
                metavar="N",
            ),
            _transactions(
                None,
                "transactions to run (default: the scenario's own count)",
                metavar="N",
            ),
            _flag(
                "--deep-audit",
                action="store_true",
                help="audit with full-history capture instead of the "
                "bounded-memory streaming monitors",
            ),
            _window(None, "ring/streaming window when streaming (default: 256)"),
            _format("verdict", "table", "json"),
            _OUTPUT,
            _ARTIFACTS,
        ),
        _run_scenario,
        check=_scenario_usage,
    ),
)

_BY_NAME = {command.name: command for command in COMMANDS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command")
    for command in COMMANDS:
        subparser = subparsers.add_parser(command.name, help=command.help)
        for names, settings in command.flags:
            subparser.add_argument(*names, **settings)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        # Backward compatibility: bare ``python -m repro`` is
        # ``python -m repro report``.
        args = parser.parse_args(["report"])
    command = _BY_NAME[args.command]
    problem = command.check(args)
    if problem is not None:
        parser.error(problem)
    try:
        return _finish(command.name, args, command.run(args))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a
        # well-behaved filter (and keep the interpreter from whining
        # about an unflushable stdout at shutdown).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    raise SystemExit(main())
