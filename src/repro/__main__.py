"""``python -m repro`` — the reproduction's command-line interface.

Subcommands:

* ``report``  — regenerate the paper's results as a text report (also
  what running with no arguments prints, for backward compatibility);
* ``trace``   — run a replicated-queue workload with tracing on and
  emit the span forest as a tree, JSONL, or Chrome trace JSON;
* ``metrics`` — run the same workload and print the outcome/latency
  metrics (fixed-width table or JSON);
* ``bench``   — time the workload in wall-clock terms, optionally with
  kernel profiling (per-callback cost, queue depth);
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

All workload subcommands share ``--seed``, ``--sites``,
``--transactions``, ``--crashes`` and are deterministic per seed.
``report``, ``bench``, ``audit``, ``chaos``, and ``soak`` accept
``--artifacts DIR`` to drop a machine-readable ``plan.json`` /
``report.json`` pair describing the run (see
:mod:`repro.obs.runreport`).
``report`` and the kernel paths honor ``--jobs`` / ``REPRO_JOBS`` for
multiprocess derivation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

from repro.obs.export import EXPORTERS, export
from repro.obs.profile import KernelProfiler
from repro.obs.trace import Tracer


def _workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument(
        "--sites", type=int, default=3, help="number of repository sites"
    )
    parser.add_argument(
        "--transactions", type=int, default=12, help="transactions to run"
    )
    parser.add_argument(
        "--crashes",
        action="store_true",
        help="inject stochastic site crashes/recoveries (uptime 60, downtime 8)",
    )
    parser.add_argument(
        "--drop-probability",
        type=float,
        default=0.0,
        metavar="P",
        help="per-message loss probability in [0, 1)",
    )
    parser.add_argument(
        "--objects",
        type=int,
        default=1,
        metavar="N",
        help="objects in the keyspace (default: 1, the classic "
        "single-queue workload; >1 cycles queue/register/counter specs)",
    )
    parser.add_argument(
        "--placement",
        choices=("all", "ring"),
        default="all",
        help="replica placement rule: 'all' = full replication, 'ring' = "
        "3 consecutive sites per object keyed by object name "
        "(default: all)",
    )


def _workload_shape(args: argparse.Namespace) -> dict:
    """The ``build_workload`` keywords a workload subcommand parsed."""
    return {
        "seed": args.seed,
        "sites": args.sites,
        "drop_probability": args.drop_probability,
        "objects": getattr(args, "objects", 1),
        "placement": getattr(args, "placement", "all"),
        "crashes": args.crashes,
        "partitions": getattr(args, "partitions", False),
    }


def _run_workload(
    args: argparse.Namespace,
    *,
    tracer: Tracer | None = None,
    profiler: KernelProfiler | None = None,
):
    """Drive the standard replicated-queue workload; returns (cluster, metrics)."""
    from repro.scenarios import build_workload

    cluster, generator = build_workload(
        **_workload_shape(args), tracer=tracer, profiler=profiler
    )
    metrics = generator.run(args.transactions)
    return cluster, metrics


def _artifacts_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--artifacts",
        default=None,
        metavar="DIR",
        help="write a machine-readable plan.json/report.json pair into DIR",
    )


def _workload_plan(args: argparse.Namespace) -> dict:
    """The shared workload section of a ``plan.json``."""
    return {**_workload_shape(args), "transactions": args.transactions}


def _write_artifacts(args: argparse.Namespace, plan: dict, report: dict) -> None:
    """Drop the artifact pair when ``--artifacts DIR`` was given."""
    directory = getattr(args, "artifacts", None)
    if directory is None:
        return
    from repro.obs.runreport import write_run_artifacts

    plan_path, report_path = write_run_artifacts(directory, plan, report)
    print(f"wrote {plan_path} and {report_path}", file=sys.stderr)


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        print(text)
    else:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise SystemExit(f"python -m repro: cannot write {output}: {exc}")
        print(f"wrote {output}", file=sys.stderr)


# -- subcommands ------------------------------------------------------------


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.paper import paper_report

    wall_start = perf_counter()
    print(paper_report(fast_theorems=args.fast, jobs=args.jobs))
    elapsed = perf_counter() - wall_start
    if args.artifacts is not None:
        from repro.obs.runreport import make_plan, make_report

        _write_artifacts(
            args,
            make_plan(
                "report", config={"fast": args.fast, "jobs": args.jobs}
            ),
            make_report("report", ok=True, elapsed=round(elapsed, 3)),
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.stream:
        from repro.obs.export import STREAM_WRITERS, open_stream_writer

        if args.format not in STREAM_WRITERS:
            raise SystemExit(
                "python -m repro trace: --stream requires --format "
                + " or ".join(sorted(STREAM_WRITERS))
            )
        tracer = Tracer(retention="ring", window=args.window)
        handle = (
            sys.stdout
            if args.output in (None, "-")
            else open(args.output, "w", encoding="utf-8")
        )
        writer = open_stream_writer(args.format, handle)
        tracer.add_listener(writer)
        try:
            _run_workload(args, tracer=tracer)
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
        return 0
    tracer = Tracer()
    _run_workload(args, tracer=tracer)
    _emit(export(tracer.spans, args.format), args.output)
    return 0


def _mix_rows(cluster, observer) -> list[dict]:
    """Per-object read/write-mix rows (the tuner's inspectable input)."""
    rows = []
    for name in sorted(cluster.tm.objects):
        obj = cluster.tm.object(name)
        reads, writes = observer.counts(name)
        fraction = observer.read_fraction(name)
        rows.append(
            {
                "object": name,
                "reads": reads,
                "writes": writes,
                "read_fraction": fraction,
                "assignment": "; ".join(obj.assignment.describe().splitlines()),
            }
        )
    return rows


def _mix_table(rows: list[dict]) -> str:
    lines = ["per-object read/write mix:"]
    name_width = max(len("object"), max((len(r["object"]) for r in rows), default=0))
    lines.append(
        f"  {'object':<{name_width}}  {'reads':>7}  {'writes':>7}  "
        f"{'read%':>6}  assignment"
    )
    for row in rows:
        fraction = row["read_fraction"]
        pct = "-" if fraction is None else f"{100 * fraction:.1f}%"
        lines.append(
            f"  {row['object']:<{name_width}}  {row['reads']:>7}  "
            f"{row['writes']:>7}  {pct:>6}  {row['assignment']}"
        )
    return "\n".join(lines)


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.resilience.policy import read_only_operations
    from repro.scenarios import build_workload
    from repro.tuning import MixObserver

    cluster, generator = build_workload(**_workload_shape(args))
    observer = MixObserver(
        {
            name: read_only_operations(obj.datatype)
            for name, obj in cluster.tm.objects.items()
        }
    )
    observer.attach(cluster.frontends)
    metrics = generator.run(args.transactions)
    mix_rows = _mix_rows(cluster, observer)
    if args.format == "json":
        payload = {
            "operations": metrics.summary(),
            "registry": metrics.registry.to_dict(),
            "mix": {row["object"]: row for row in mix_rows},
            "network": {
                "messages_sent": cluster.network.messages_sent,
                "messages_dropped": cluster.network.messages_dropped,
            },
        }
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        _emit(metrics.table() + "\n\n" + _mix_table(mix_rows), args.output)
    return 0


def _bench_worker(payload: dict) -> dict:
    """Process-pool unit for ``bench --jobs``: one workload replica."""
    args = argparse.Namespace(**payload)
    wall_start = perf_counter()
    cluster, metrics = _run_workload(args)
    elapsed = perf_counter() - wall_start
    return {
        "seed": args.seed,
        "elapsed": elapsed,
        "operations": sum(metrics.outcomes.values()),
        "messages": cluster.network.messages_sent,
        "sim_time": cluster.sim.now,
    }


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.compute.parallel import parallel_map, resolve_jobs

    jobs = resolve_jobs(args.jobs)
    if jobs > 1:
        # Fan out independent replicas at consecutive seeds — the same
        # experiment the simulator benchmarks repeat serially.
        payloads = [
            {
                "seed": args.seed + replica,
                "sites": args.sites,
                "transactions": args.transactions,
                "crashes": args.crashes,
                "drop_probability": args.drop_probability,
                "objects": args.objects,
                "placement": args.placement,
            }
            for replica in range(jobs)
        ]
        wall_start = perf_counter()
        results, parallel_used = parallel_map(_bench_worker, payloads, jobs)
        elapsed = perf_counter() - wall_start
        operations = sum(r["operations"] for r in results)
        lines = [
            f"{jobs} replicas × {args.transactions} transactions over "
            f"{args.sites} sites (seeds {args.seed}..{args.seed + jobs - 1}, "
            f"{'process pool' if parallel_used else 'serial fallback'})",
        ]
        for r in results:
            lines.append(
                f"  seed {r['seed']}: {r['operations']} ops in "
                f"{r['elapsed']:.3f}s (sim time {r['sim_time']:.1f})"
            )
        lines.append(
            f"wall time: {elapsed:.3f}s ({operations / elapsed:,.0f} ops/s "
            "aggregate)"
        )
        _emit("\n".join(lines), args.output)
        if args.artifacts is not None:
            from repro.obs.runreport import make_plan, make_report

            _write_artifacts(
                args,
                make_plan("bench", workload=_workload_plan(args), jobs=jobs),
                make_report(
                    "bench",
                    ok=True,
                    elapsed=round(elapsed, 3),
                    operations=operations,
                    replicas=results,
                ),
            )
        return 0

    profiler = KernelProfiler() if args.profile else None
    wall_start = perf_counter()
    cluster, metrics = _run_workload(args, profiler=profiler)
    elapsed = perf_counter() - wall_start
    operations = sum(metrics.outcomes.values())
    lines = [
        f"{args.transactions} transactions, {operations} operations, "
        f"{cluster.network.messages_sent} messages "
        f"over {args.sites} sites (seed {args.seed})",
        f"wall time: {elapsed:.3f}s "
        f"({operations / elapsed:,.0f} ops/s, "
        f"{args.transactions / elapsed:,.0f} txn/s)",
        f"simulated time: {cluster.sim.now:.1f}",
        "",
        metrics.table(),
    ]
    if profiler is not None:
        lines += ["", "kernel profile (wall time per dispatched callback):"]
        lines.append(profiler.report())
    _emit("\n".join(lines), args.output)
    if args.artifacts is not None:
        from repro.obs.metrics import retention_gauges
        from repro.obs.runreport import make_plan, make_report

        _write_artifacts(
            args,
            make_plan("bench", workload=_workload_plan(args), jobs=1),
            make_report(
                "bench",
                ok=True,
                elapsed=round(elapsed, 3),
                operations=operations,
                messages=cluster.network.messages_sent,
                sim_time=round(cluster.sim.now, 1),
                retention=retention_gauges(metrics.registry),
            ),
        )
    return 0


def _chaos_table(verdict: dict) -> str:
    """Fixed-width rendering of a chaos-sweep verdict."""
    header = (
        f"{'profile':<10} {'policy':<10} {'runs':>4} {'faults':>6} "
        f"{'att':>5} {'ok':>5} {'degr':>5} {'unav':>5} {'abort':>5} "
        f"{'viol':>4} {'rec p50':>8} {'rec p95':>8} verdict"
    )
    lines = [header, "-" * len(header)]
    for profile, policies in verdict["profiles"].items():
        for policy, row in policies.items():
            lines.append(
                f"{profile:<10} {policy:<10} {row['runs']:>4} "
                f"{row['faults_applied']:>6} {row['attempted']:>5} "
                f"{row['succeeded']:>5} {row['degraded']:>5} "
                f"{row['unavailable']:>5} {row['aborted_ops']:>5} "
                f"{row['violations']:>4} "
                f"{row['recovery_latency_p50']:>8.1f} "
                f"{row['recovery_latency_p95']:>8.1f} "
                f"{'PASS' if row['ok'] else 'FAIL'}"
            )
    lines.append(
        "sweep: "
        + ("all cases clean" if verdict["ok"] else "CASES FAILED")
        + f" (seeds {verdict['seeds']}, {verdict['transactions']} txns/case)"
    )
    return "\n".join(lines)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.resilience.chaos import PROFILES, run_chaos_sweep
    from repro.resilience.policy import POLICIES

    profiles = tuple(PROFILES) if args.profile is None else (args.profile,)
    policies = (
        tuple(POLICIES) if args.policies is None else tuple(args.policies)
    )
    for name in policies:
        if name not in POLICIES:
            raise SystemExit(
                f"python -m repro chaos: unknown policy {name!r} "
                f"(choose from {', '.join(sorted(POLICIES))})"
            )
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
    if args.format == "json":
        _emit(json.dumps(verdict, indent=2, sort_keys=True), args.output)
    else:
        _emit(_chaos_table(verdict), args.output)
    if args.artifacts is not None:
        from repro.obs.runreport import make_plan, make_report

        _write_artifacts(
            args,
            make_plan(
                "chaos",
                workload={
                    "seed": args.seed,
                    "seeds": args.seeds,
                    "sites": args.sites,
                    "transactions": args.transactions,
                    "objects": args.objects,
                    "placement": args.placement,
                },
                profiles=list(profiles),
                policies=list(policies),
            ),
            make_report("chaos", ok=bool(verdict["ok"]), verdict=verdict),
        )
    return 0 if verdict["ok"] else 1


def _audit_once(args: argparse.Namespace, mutate: str | None):
    """One audited workload run; returns the finished AuditReport."""
    from repro.obs.audit import DEFAULT_STREAM_WINDOW, Auditor
    from repro.obs.mutations import MUTATIONS
    from repro.scenarios import build_workload

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
    streaming = getattr(args, "streaming", False)
    window = getattr(args, "window", None) or DEFAULT_STREAM_WINDOW
    if streaming:
        # Streaming audit rides on bounded retention end to end: the
        # tracer only keeps the ring tail, the monitors only their
        # sliding windows.
        tracer = Tracer(retention="ring", window=window)
    else:
        tracer = Tracer()
    cluster, generator = build_workload(**shape, tracer=tracer)
    # Attach first: monitors pin the declared configuration before any
    # seeded mutation can rewrite it.
    auditor = Auditor(
        cluster, mode="streaming" if streaming else "deep", window=window
    )
    if mutate is not None:
        MUTATIONS[mutate](cluster)
    generator.run(args.transactions)
    return auditor.finish()


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.obs.mutations import EXPECTED_INVARIANT, MUTATIONS

    if args.sweep:
        # Fault-injection sweep: clean and fault-tolerant runs must stay
        # green; every seeded protocol mutation must be flagged, and the
        # flag must name the invariant that mutation breaks.
        rows: list[tuple[str, str, bool, str]] = []
        ok = True
        clean_cases = [("clean", argparse.Namespace(**vars(args)))]
        crashed = argparse.Namespace(**vars(args))
        crashed.crashes = True
        clean_cases.append(("crashes", crashed))
        parted = argparse.Namespace(**vars(args))
        parted.partitions = True
        clean_cases.append(("partitions", parted))
        for label, case_args in clean_cases:
            report = _audit_once(case_args, None)
            passed = report.ok
            ok = ok and passed
            detail = "no violations" if report.ok else ", ".join(
                report.violated_invariants
            )
            rows.append((label, "green", passed, detail))
        for name in sorted(MUTATIONS):
            report = _audit_once(args, name)
            expected = EXPECTED_INVARIANT[name]
            passed = expected in report.violated_invariants
            ok = ok and passed
            detail = (
                ", ".join(report.violated_invariants)
                if report.violated_invariants
                else "no violations (MISSED)"
            )
            rows.append((f"mutate:{name}", f"flags {expected}", passed, detail))
        width = max(len(row[0]) for row in rows)
        lines = [f"audit sweep (seed {args.seed}, {args.sites} sites):"]
        for label, expectation, passed, detail in rows:
            verdict = "PASS" if passed else "FAIL"
            lines.append(
                f"  {label:<{width}}  expect {expectation:<24} {verdict}  [{detail}]"
            )
        lines.append(
            "sweep: " + ("all expectations met" if ok else "EXPECTATIONS VIOLATED")
        )
        _emit("\n".join(lines), args.output)
        return 0 if ok else 1

    report = _audit_once(args, args.mutate)
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True), args.output)
    else:
        _emit(report.render(), args.output)
    if args.artifacts is not None:
        from repro.obs.runreport import make_plan, make_report

        _write_artifacts(
            args,
            make_plan(
                "audit",
                workload=_workload_plan(args),
                observability={
                    "mode": report.mode,
                    "window": report.window,
                    "mutate": args.mutate,
                },
            ),
            make_report(
                "audit",
                ok=report.ok,
                report=report.to_dict(),
                retention={
                    "obs.retained_spans": report.retained_spans,
                    "obs.peak_retained": report.peak_retained,
                },
            ),
        )
    return 0 if report.ok else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    from repro.obs.soak import SoakConfig, run_soak

    ops = 25_000 if args.quick else args.ops
    config = SoakConfig(
        ops=ops,
        seed=args.seed,
        sites=args.sites,
        objects=args.objects,
        replication_factor=args.replication_factor,
        window=args.window,
        compact_every=args.compact_every,
        audit=not args.no_audit,
    )
    result = run_soak(config)
    if args.format == "json":
        _emit(
            json.dumps(result.to_dict(), indent=2, sort_keys=True), args.output
        )
    else:
        _emit(result.render(), args.output)
    if args.artifacts is not None:
        from repro.obs.runreport import make_plan, make_report

        _write_artifacts(
            args,
            make_plan(
                "soak",
                config=config.to_dict(),
                observability={
                    "retention": result.retention,
                    "window": config.window,
                    "audit_mode": "streaming" if config.audit else "off",
                },
            ),
            make_report("soak", ok=result.ok, result=result.to_dict()),
        )
    return 0 if result.ok else 1


def _scenario_table(verdict: dict) -> str:
    """Fixed-width rendering of one scenario verdict."""
    counts = verdict["counts"]
    fp = verdict["fingerprint"]
    lines = [
        f"scenario {verdict['scenario']} × {verdict['mechanism']} "
        f"(scheme {verdict['scheme']}) × profile {verdict['profile']} "
        f"(seed {verdict['seed']}, {verdict['n_sites']} sites, "
        f"{verdict['transactions']} txns)",
        f"  attempted {counts['attempted']}  ok {counts['succeeded']}  "
        f"degraded {counts['degraded']}  unavailable {counts['unavailable']}  "
        f"conflict {counts['conflict']}  aborted {counts['aborted_ops']}",
        f"  commits {fp['commits']}  aborts {fp['aborts']}  "
        f"messages {fp['messages_sent']}  faults {fp['faults_applied']}",
        f"  audit: {'clean' if fp['audit_ok'] else 'VIOLATIONS'} "
        f"({verdict['violations']})  converged: {fp['converged']}  "
        f"accounted: {counts['accounted']}",
        "verdict: " + ("PASS" if verdict["ok"] else "FAIL"),
    ]
    return "\n".join(lines)


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import SCENARIOS, run_scenario

    if args.list:
        width = max(len(name) for name in SCENARIOS)
        lines = ["scenario catalog (docs/SCENARIOS.md):"]
        for name, spec in sorted(SCENARIOS.items()):
            lines.append(f"  {name:<{width}}  {spec.description}")
        _emit("\n".join(lines), args.output)
        return 0
    if args.name is None:
        raise SystemExit(
            "python -m repro scenario: name a scenario or pass --list"
        )
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
    if args.format == "json":
        _emit(json.dumps(verdict, indent=2, sort_keys=True), args.output)
    else:
        _emit(_scenario_table(verdict), args.output)
    if args.artifacts is not None:
        from repro.obs.runreport import make_plan, make_report

        _write_artifacts(
            args,
            make_plan(
                "scenario",
                workload={
                    "scenario": args.name,
                    "seed": args.seed,
                    "sites": verdict["n_sites"],
                    "transactions": verdict["transactions"],
                },
                mechanism=args.mechanism,
                profile=args.profile,
                policy=verdict["policy"],
            ),
            make_report("scenario", ok=bool(verdict["ok"]), verdict=verdict),
        )
    return 0 if verdict["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command")

    report = subparsers.add_parser(
        "report", help="print the full paper reproduction report"
    )
    report.add_argument(
        "--fast",
        action="store_true",
        help="skip the slowest theorem searches",
    )
    report.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for kernel derivations when a derivation is "
        "sharded (default: REPRO_JOBS, else serial)",
    )
    _artifacts_argument(report)
    report.set_defaults(func=_cmd_report)

    trace = subparsers.add_parser(
        "trace", help="run a traced workload and export its span forest"
    )
    _workload_arguments(trace)
    trace.add_argument(
        "--format",
        choices=sorted(EXPORTERS),
        default="tree",
        help="trace rendering (default: tree)",
    )
    trace.add_argument(
        "--stream",
        action="store_true",
        help="flush spans incrementally as they close (jsonl or chrome "
        "format) under ring retention, instead of exporting at the end",
    )
    trace.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="W",
        help="ring-retention window for --stream (default: 4096)",
    )
    trace.add_argument(
        "--output", "-o", default=None, help="write to a file instead of stdout"
    )
    trace.set_defaults(func=_cmd_trace)

    metrics = subparsers.add_parser(
        "metrics", help="run a workload and print outcome/latency metrics"
    )
    _workload_arguments(metrics)
    metrics.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="metrics rendering (default: table)",
    )
    metrics.add_argument(
        "--output", "-o", default=None, help="write to a file instead of stdout"
    )
    metrics.set_defaults(func=_cmd_metrics)

    bench = subparsers.add_parser(
        "bench", help="time a workload run, optionally with kernel profiling"
    )
    _workload_arguments(bench)
    bench.add_argument(
        "--profile",
        action="store_true",
        help="account wall time per simulator callback",
    )
    bench.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run N independent replicas (seeds seed..seed+N-1) in "
        "parallel (default: REPRO_JOBS, else 1)",
    )
    bench.add_argument(
        "--output", "-o", default=None, help="write to a file instead of stdout"
    )
    _artifacts_argument(bench)
    bench.set_defaults(func=_cmd_bench)

    chaos = subparsers.add_parser(
        "chaos",
        help="run the audited chaos sweep over composed fault schedules",
    )
    chaos.add_argument("--seed", type=int, default=0, help="first sweep seed")
    chaos.add_argument(
        "--seeds",
        type=int,
        default=4,
        metavar="N",
        help="number of consecutive seeds per (profile, policy) cell "
        "(default: 4)",
    )
    chaos.add_argument(
        "--profile",
        # Kept literal so parser construction stays import-light; guarded
        # against drift from repro.resilience.chaos.PROFILES by test_cli.
        choices=("crash", "partition", "churn", "mixed"),
        default=None,
        help="restrict to one fault profile (default: all four)",
    )
    chaos.add_argument(
        "--policies",
        nargs="+",
        default=None,
        metavar="NAME",
        help="retry policies to sweep (default: every built-in policy)",
    )
    chaos.add_argument(
        "--sites", type=int, default=5, help="repository sites (default: 5)"
    )
    chaos.add_argument(
        "--transactions",
        type=int,
        default=16,
        help="transactions per case (default: 16)",
    )
    chaos.add_argument(
        "--objects",
        type=int,
        default=None,
        metavar="N",
        help="run cases over an N-object keyspace instead of the classic "
        "queue+register pair (default: classic)",
    )
    chaos.add_argument(
        "--placement",
        choices=("all", "ring"),
        default="all",
        help="keyspace placement rule when --objects is given "
        "(default: all)",
    )
    chaos.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="shard each cell's seeds across N processes "
        "(default: REPRO_JOBS, else serial)",
    )
    chaos.add_argument(
        "--format",
        choices=("table", "json"),
        default="json",
        help="verdict rendering (default: json)",
    )
    chaos.add_argument(
        "--output", "-o", default=None, help="write to a file instead of stdout"
    )
    _artifacts_argument(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    audit = subparsers.add_parser(
        "audit",
        help="run a workload under the online correctness auditor",
    )
    _workload_arguments(audit)
    audit.add_argument(
        "--partitions",
        action="store_true",
        help="inject stochastic network partitions (interval 80, duration 10)",
    )
    audit.add_argument(
        "--mutate",
        # Kept literal so parser construction stays import-light; guarded
        # against drift from repro.obs.mutations.MUTATIONS by test_cli.
        choices=(
            "early-lock-release",
            "log-divergence",
            "quorum-intersection",
            "shard-misroute",
            "stale-assignment",
            "timestamp-inversion",
        ),
        default=None,
        help="apply a seeded protocol mutation the auditor must flag",
    )
    audit.add_argument(
        "--sweep",
        action="store_true",
        help="run the full fault-injection sweep (clean + crashes + "
        "partitions stay green; every mutation must be flagged)",
    )
    audit.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report rendering (default: text)",
    )
    audit.add_argument(
        "--streaming",
        action="store_true",
        help="audit with bounded-memory streaming monitors over a ring "
        "tracer instead of full-history capture",
    )
    audit.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="W",
        help="sliding-window size for --streaming (default: 256)",
    )
    audit.add_argument(
        "--output", "-o", default=None, help="write to a file instead of stdout"
    )
    _artifacts_argument(audit)
    audit.set_defaults(func=_cmd_audit)

    soak = subparsers.add_parser(
        "soak",
        help="bounded-memory endurance run under the streaming auditor",
    )
    soak.add_argument(
        "--ops",
        type=int,
        default=1_000_000,
        metavar="N",
        help="executed operations to drive (default: 1,000,000)",
    )
    soak.add_argument(
        "--quick",
        action="store_true",
        help="CI preset: 25,000 operations instead of --ops",
    )
    soak.add_argument("--seed", type=int, default=0, help="simulation seed")
    soak.add_argument(
        "--sites", type=int, default=5, help="repository sites (default: 5)"
    )
    soak.add_argument(
        "--objects",
        type=int,
        default=8,
        metavar="N",
        help="hybrid queues in the soak keyspace (default: 8)",
    )
    soak.add_argument(
        "--replication-factor",
        type=int,
        default=3,
        metavar="F",
        help="ring replicas per object (default: 3)",
    )
    soak.add_argument(
        "--window",
        type=int,
        default=512,
        metavar="W",
        help="tracer ring size and streaming-monitor window (default: 512)",
    )
    soak.add_argument(
        "--compact-every",
        type=int,
        default=25,
        metavar="T",
        help="maintenance round every T transactions (default: 25)",
    )
    soak.add_argument(
        "--no-audit",
        action="store_true",
        help="skip tracing and auditing (raw throughput baseline)",
    )
    soak.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="result rendering (default: text)",
    )
    soak.add_argument(
        "--output", "-o", default=None, help="write to a file instead of stdout"
    )
    _artifacts_argument(soak)
    soak.set_defaults(func=_cmd_soak)

    scenario = subparsers.add_parser(
        "scenario",
        help="run one audited catalog scenario under a chosen mechanism",
    )
    scenario.add_argument(
        "name",
        nargs="?",
        # Kept literal so parser construction stays import-light; guarded
        # against drift from repro.scenarios.SCENARIOS by test_cli.
        choices=(
            "bursty-flash-crowd",
            "default",
            "hot-key-contention",
            "long-transaction",
            "read-dominant",
            "write-heavy",
        ),
        default=None,
        help="catalog scenario to run (see --list and docs/SCENARIOS.md)",
    )
    scenario.add_argument(
        "--list",
        action="store_true",
        help="print the scenario catalog and exit",
    )
    scenario.add_argument(
        "--mechanism",
        # Kept literal; guarded against repro.scenarios.MECHANISMS drift
        # by test_cli.
        choices=("blocking", "hybrid", "multiversion"),
        default="hybrid",
        help="atomicity mechanism to run the scenario under "
        "(default: hybrid)",
    )
    scenario.add_argument(
        "--profile",
        # Kept literal; guarded against repro.resilience.chaos.PROFILES
        # drift by test_cli ('none' means fault-free).
        choices=("none", "crash", "partition", "churn", "mixed"),
        default="none",
        help="chaos profile to cross the scenario with (default: none)",
    )
    scenario.add_argument(
        "--policy",
        default=None,
        metavar="NAME",
        help="retry policy (default: 'default' under chaos, none "
        "otherwise)",
    )
    scenario.add_argument("--seed", type=int, default=0, help="simulation seed")
    scenario.add_argument(
        "--sites",
        type=int,
        default=None,
        metavar="N",
        help="repository sites (default: the scenario's natural size)",
    )
    scenario.add_argument(
        "--transactions",
        type=int,
        default=None,
        metavar="N",
        help="transactions to run (default: the scenario's own count)",
    )
    scenario.add_argument(
        "--deep-audit",
        action="store_true",
        help="audit with full-history capture instead of the "
        "bounded-memory streaming monitors",
    )
    scenario.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="W",
        help="ring/streaming window when streaming (default: 256)",
    )
    scenario.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="verdict rendering (default: table)",
    )
    scenario.add_argument(
        "--output", "-o", default=None, help="write to a file instead of stdout"
    )
    _artifacts_argument(scenario)
    scenario.set_defaults(func=_cmd_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command is None:
            # Backward compatibility: bare ``python -m repro`` keeps
            # printing the paper report, exactly as before the
            # subcommand redesign.
            from repro.core.paper import paper_report

            print(paper_report())
            return 0
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a
        # well-behaved filter (and keep the interpreter from whining
        # about an unflushable stdout at shutdown).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    raise SystemExit(main())
