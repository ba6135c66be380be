"""Seeded chaos sweeps: composed fault schedules, audited end to end.

``python -m repro chaos`` drives the whole resilience layer at once:
random-but-reproducible fault schedules (crashes, partitions, churn, or
a mix) are composed over the existing injector primitives, a mixed
queue/register workload runs through them under a chosen
:class:`~repro.resilience.policy.RetryPolicy`, every run is watched by
the PR-2 :class:`~repro.obs.audit.Auditor`, and the sweep emits a JSON
verdict table: operations attempted / succeeded / degraded / aborted,
recovery-latency percentiles, and a single ``ok`` bit meaning *no
invariant violations, replicas converged, and nothing was silently
lost*.

Determinism is load-bearing.  Fault schedules are indexed by
**transaction boundary** (the :class:`~repro.sim.workload.WorkloadGenerator`
``on_transaction_start`` hook), not by simulated time, and are drawn
from a dedicated :class:`random.Random` seeded by integer key mixing —
never from ``sim.rng`` (which the workload consumes) and never from
string ``hash()`` (randomized per process).  Together with
``drop_probability=0`` this keeps a chaos case inside the PR-4
determinism envelope: the same seed produces byte-identical outcomes,
histories, and message counters across ``--jobs`` settings, and
``tests/test_golden_runs.py`` pins them per seed (simulated-time
figures such as recovery latency are reported separately, under
``timing``, outside the fingerprint).

The tail of an audited run is written once, here: :func:`settle`
(clear faults, two anti-entropy passes over each object's replica-set
star, convergence check) and :func:`run_verdict` (accounting,
``fingerprint``, ``counts``).  :func:`run_chaos_case` and
:func:`repro.scenarios.runner.run_scenario` both end in them.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Mapping, Sequence

from repro.resilience.policy import POLICIES, _mix_key
from repro.sim.trials import run_trials

__all__ = [
    "PROFILES",
    "ChaosSchedule",
    "generate_schedule",
    "run_chaos_case",
    "run_chaos_sweep",
    "run_verdict",
    "settle",
]

#: Built-in fault profiles: what kind of trouble the schedule composes.
#:
#: * ``crash``     — fail-stop sites (at most two down at once), each
#:   recovering one to three transactions later;
#: * ``partition`` — clean cuts isolating a minority group, healing
#:   after one or two transactions;
#: * ``churn``     — rapid-fire single-site crash/recover cycles;
#: * ``mixed``     — all of the above interleaved.
PROFILES = ("crash", "partition", "churn", "mixed")

#: Domain-separation constant for the chaos schedule RNG (arbitrary,
#: fixed forever: changing it re-rolls every published schedule).
_SCHEDULE_DOMAIN = 0xC4A05


def generate_schedule(
    profile: str,
    seed: int,
    n_sites: int,
    total_transactions: int,
) -> dict[int, tuple[tuple, ...]]:
    """Compose a reproducible fault schedule for one chaos case.

    Args:
        profile: one of :data:`PROFILES`.
        seed: the case seed; the schedule RNG is derived from it by
            integer key mixing (profile *index*, not name — string
            hashes are randomized per process).
        n_sites: cluster size the schedule is valid for.
        total_transactions: boundaries ``0 .. total-1`` the schedule may
            fire at.

    Returns:
        A mapping from transaction index to the ordered actions applied
        just before that transaction begins.  Actions are tuples:
        ``("crash", site)``, ``("recover", site)``,
        ``("partition", groups)``, ``("heal",)``.  Recoveries and heals
        are emitted *before* new faults at the same boundary.  Every
        crash is paired with a recovery one to three boundaries later
        and every partition with a heal one or two boundaries later;
        pairs that would land past the last boundary are left to the
        run's final cleanup phase, which recovers and heals everything
        outstanding.

    Raises:
        ValueError: for an unknown ``profile``.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown chaos profile {profile!r} (not in {PROFILES})")
    rng = random.Random(
        _mix_key(seed, (_SCHEDULE_DOMAIN, PROFILES.index(profile), n_sites))
    )
    # At most two simultaneous crashes: with five sites that leaves a
    # majority read quorum assemblable while a 4-of-5 final coterie is
    # not — exactly the window degraded reads exist for.
    max_down = 2 if n_sites >= 5 else 1
    crashes = profile in ("crash", "churn", "mixed")
    partitions = profile in ("partition", "mixed")
    crash_rate = {"crash": 0.30, "churn": 0.55, "mixed": 0.25}.get(profile, 0.0)
    cut_rate = {"partition": 0.30, "mixed": 0.20}.get(profile, 0.0)

    heals: dict[int, list[tuple]] = {}
    down: set[int] = set()
    cut_until: int | None = None
    schedule: dict[int, tuple[tuple, ...]] = {}
    for index in range(total_transactions):
        # Recoveries and heals due at this boundary go first, so a new
        # fault at the same boundary never stacks past the caps.
        actions = list(heals.pop(index, ()))
        for action in actions:
            if action[0] == "recover":
                down.discard(action[1])
            else:
                cut_until = None
        if crashes and len(down) < max_down and rng.random() < crash_rate:
            site = rng.choice(sorted(set(range(n_sites)) - down))
            down.add(site)
            actions.append(("crash", site))
            back = index + (1 if profile == "churn" else rng.randint(1, 3))
            heals.setdefault(back, []).append(("recover", site))
        if partitions and cut_until is None and rng.random() < cut_rate:
            # Cut off a minority: one or two sites against the rest.
            k = rng.randint(1, max(1, (n_sites - 1) // 2 - 1))
            minority = tuple(sorted(rng.sample(range(n_sites), k)))
            actions.append(("partition", (minority,)))
            cut_until = index + rng.randint(1, 2)
            heals.setdefault(cut_until, []).append(("heal",))
        if actions:
            schedule[index] = tuple(actions)
    return schedule


class ChaosSchedule:
    """Applies a generated schedule at workload transaction boundaries.

    Bind it to a network with :meth:`hook` and pass the result as the
    :class:`~repro.sim.workload.WorkloadGenerator`'s
    ``on_transaction_start``.  Application is idempotent against races
    with the run's cleanup phase: crashing a down site, recovering an up
    site, or healing an uncut network are all skipped (and the skip is
    counted) rather than double-firing failure listeners.
    """

    def __init__(self, actions: Mapping[int, Sequence[tuple]]):
        self.actions = {index: tuple(acts) for index, acts in actions.items()}
        self.applied = 0
        self.skipped = 0

    @property
    def total_actions(self) -> int:
        return sum(len(acts) for acts in self.actions.values())

    def apply_at(self, network, index: int) -> None:
        """Fire every action scheduled for transaction ``index``."""
        for action in self.actions.get(index, ()):
            kind = action[0]
            if kind == "crash" and network.is_up(action[1]):
                network.crash(action[1])
            elif kind == "recover" and not network.is_up(action[1]):
                network.recover(action[1])
            elif kind == "partition":
                network.partition(*action[1])
            elif kind == "heal" and network.partitioned:
                network.heal()
            else:
                self.skipped += 1
                continue
            self.applied += 1

    def hook(self, network):
        """An ``on_transaction_start`` callback bound to ``network``."""
        return lambda index: self.apply_at(network, index)


def run_chaos_case(
    *,
    seed: int,
    profile: str = "mixed",
    policy_name: str = "default",
    n_sites: int = 5,
    transactions: int = 16,
    objects: int | None = None,
    placement: str = "all",
) -> dict:
    """One audited chaos run; returns a plain (picklable) verdict dict.

    With ``objects=None`` (the default), builds a five-site cluster with
    two replicated objects — a hybrid FIFO queue under majority/majority
    quorums, and a static-scheme register whose final coterie is a
    4-of-5 threshold (so two downed sites leave reads
    *initial*-assemblable but writes unreachable, exercising the
    policy's degraded/retry paths).  With ``objects=N``, builds the
    :func:`~repro.replication.keyspace.demo_keyspace` of ``N`` mixed
    queue/register/counter objects under the given ``placement`` rule
    (``"all"`` or ``"ring"``) instead — the sharded-keyspace chaos
    envelope, with the genuine-partial-replication monitor live.
    Either way the cluster enables the resilience layer with
    ``POLICIES[policy_name]``, attaches the
    :class:`~repro.obs.audit.Auditor`, and drives ``transactions``
    transactions through the fault schedule for ``(profile, seed)``.

    After the workload :func:`settle` clears outstanding faults and
    converges every replica set, the auditor's end-of-run invariants
    execute, and :func:`run_verdict` builds the verdict; this run adds
    the recovery-latency summary and samples under ``timing``.
    """
    from repro.dependency import known
    from repro.obs.audit import Auditor
    from repro.obs.trace import Tracer
    from repro.replication.cluster import build_keyspace
    from repro.replication.keyspace import (
        KeyspaceSpec,
        ObjectSpec,
        demo_keyspace,
        demo_mix,
    )
    from repro.sim.workload import OperationMix, WorkloadGenerator
    from repro.types.queue import Queue
    from repro.types.register import Register

    if policy_name not in POLICIES:
        raise ValueError(f"unknown policy {policy_name!r} (not in {sorted(POLICIES)})")
    tracer = Tracer()
    if objects is not None:
        spec = demo_keyspace(objects, n_sites, placement=placement)
        mix = demo_mix(spec)
    else:
        queue, register = Queue(), Register()
        # Asymmetric register quorums: majority (3-of-5) initial, 4-of-5
        # final.  Every initial meets every final (3 + 4 > 5) and finals
        # meet pairwise (4 + 4 > 5), so the assignment is valid for the
        # total dependency relation — but two crashed sites make final
        # quorums unassemblable while reads still reach their initial
        # quorum, which is the window the degraded-read fallback serves.
        spec = KeyspaceSpec(
            n_sites,
            (
                ObjectSpec(
                    "queue",
                    queue,
                    relation=known.ground(queue, known.QUEUE_STATIC, 5),
                ),
                ObjectSpec(
                    "register",
                    register,
                    scheme="static",
                    quorums=(n_sites // 2 + 1, min(n_sites, 4)),
                ),
            ),
        )
        mix = OperationMix.weighted(
            [
                ("register", inv, 3.0 if inv.op == "Read" else 1.0)
                for inv in register.invocations()
            ]
            + [("queue", inv, 1.0) for inv in queue.invocations()]
        )
    cluster = build_keyspace(spec, seed=seed, drop_probability=0.0, tracer=tracer)
    names = tuple(obj_spec.name for obj_spec in spec.objects)
    runtime = cluster.enable_resilience(POLICIES[policy_name])
    auditor = Auditor(cluster)
    schedule = ChaosSchedule(
        generate_schedule(profile, seed, n_sites, transactions)
    )
    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        mix,
        ops_per_transaction=3,
        concurrency=3,
        on_transaction_start=schedule.hook(cluster.network),
    )
    metrics = generator.run(transactions)
    converged = settle(cluster, names)
    verdict = run_verdict(
        cluster,
        names,
        metrics,
        auditor.finish(),
        transactions=transactions,
        converged=converged,
        faults_applied=schedule.applied,
    )
    verdict["counts"] = {"transactions": transactions, **verdict["counts"]}
    latency = runtime.registry.histogram("resilience.recovery.latency")
    verdict["timing"].update(
        recovery_syncs=int(
            runtime.registry.counter("resilience.recovery.syncs").value
        ),
        recovery_failed=int(
            runtime.registry.counter("resilience.recovery.failed").value
        ),
        recovery_latency=latency.summary(),
        recovery_samples=list(latency.samples),
    )
    return {
        "seed": seed,
        "profile": profile,
        "policy": policy_name,
        **verdict,
    }


def settle(cluster, names: Sequence[str]) -> bool:
    """Clear outstanding faults and reconcile; returns whether replicas agree.

    The cleanup phase of every audited run that injected faults (the
    cluster must have its resilience layer enabled).  Schedules may pair
    a crash with a recovery past the last boundary, so first heal and
    recover everything; then reconcile twice — the first anti-entropy
    pass gathers the union, the second spreads it — so convergence is
    checkable exactly.  Each object's replica set is starred through its
    own lowest replica, so repair traffic never ships a shard to a
    non-holder (genuine partial replication holds for it too); under
    full replication that is the star through site 0.
    """
    network = cluster.network
    if network.partitioned:
        network.heal()
    for site in sorted(network.crashed_sites):
        network.recover(site)
    antientropy = cluster.resilience.heal.antientropy
    replica_sets = [cluster.placement.replicas(name) for name in names]
    star = sorted(
        {(replicas[0], other) for replicas in replica_sets for other in replicas[1:]}
    )
    for _pass in range(2):
        for hub, other in star:
            antientropy.synchronize(hub, other)
    return all(
        len({str(cluster.repositories[site].peek_log(name)) for site in replicas})
        == 1
        for name, replicas in zip(names, replica_sets)
    )


def run_verdict(
    cluster,
    names: Sequence[str],
    metrics,
    report,
    *,
    transactions: int,
    converged: bool,
    faults_applied: int,
) -> dict:
    """The common part of an audited run's verdict (plain, picklable).

    ``ok`` requires zero audit violations, converged replicas and full
    accounting — every transaction committed or aborted, every
    operation attempt recorded under exactly one outcome.  The
    ``fingerprint`` sub-dict holds decisions and messages only
    (identical across ``--jobs``; the golden table pins it); ``timing``
    holds simulated-clock figures.  Callers add their own header and
    ``timing`` entries.
    """
    active = [t for t in cluster.tm.transactions() if t.is_active]
    attempted = sum(metrics.outcomes.values())
    by_outcome = {
        outcome: sum(
            count for (_op, o), count in metrics.outcomes.items() if o == outcome
        )
        for outcome in metrics.OUTCOMES
    }
    accounted = (
        not active
        and attempted == sum(by_outcome.values())
        and metrics.committed_transactions + metrics.aborted_transactions
        >= transactions
    )
    return {
        "ok": bool(report.ok and converged and accounted),
        "violations": len(report.violations),
        "fingerprint": {
            "outcomes": {
                f"{op}/{outcome}": count
                for (op, outcome), count in sorted(metrics.outcomes.items())
            },
            "histories": {
                name: str(cluster.tm.object(name).recorder.to_behavioral_history())
                for name in names
            },
            "messages_sent": cluster.network.messages_sent,
            "messages_dropped": cluster.network.messages_dropped,
            "commits": metrics.committed_transactions,
            "aborts": metrics.aborted_transactions,
            "converged": converged,
            "audit_ok": report.ok,
            "faults_applied": faults_applied,
        },
        "counts": {
            "attempted": attempted,
            "succeeded": by_outcome["ok"],
            "degraded": by_outcome["degraded"],
            "unavailable": by_outcome["unavailable"],
            "conflict": by_outcome["conflict"],
            "aborted_ops": by_outcome["aborted"],
            "accounted": accounted,
        },
        "timing": {"sim_time": cluster.sim.now},
    }


def _case_trial(seed: int, **case) -> dict:
    """Module-level trial wrapper so sweeps pickle under ``--jobs N``."""
    return run_chaos_case(seed=seed, **case)


def _percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


def run_chaos_sweep(
    *,
    seeds: Sequence[int] = (0, 1, 2, 3),
    profiles: Sequence[str] = PROFILES,
    policies: Sequence[str] = tuple(POLICIES),
    n_sites: int = 5,
    transactions: int = 16,
    jobs: int | None = None,
    objects: int | None = None,
    placement: str = "all",
) -> dict:
    """Sweep ``seeds × profiles × policies`` and build the verdict table.

    Individual cases shard across processes via
    :func:`~repro.sim.trials.run_trials` (seed-order reassembly keeps
    the verdict identical for any ``jobs``).  The returned dict has one
    row per ``(profile, policy)`` aggregating its seeds — operations
    attempted / succeeded / degraded / aborted / unavailable, violation
    totals, and pooled recovery-latency p50/p95 — plus a top-level
    ``ok`` that is ``True`` only when **every** case passed its audit,
    converged, and fully accounted for its work.
    """
    table: dict[str, dict[str, dict]] = {}
    sweep_ok = True
    parallel_any = False
    for profile in profiles:
        table[profile] = {}
        for policy_name in policies:
            trial = partial(
                _case_trial,
                profile=profile,
                policy_name=policy_name,
                n_sites=n_sites,
                transactions=transactions,
                objects=objects,
                placement=placement,
            )
            cases, parallel_used = run_trials(trial, seeds, jobs=jobs)
            parallel_any = parallel_any or parallel_used
            samples = [s for case in cases for s in case["timing"]["recovery_samples"]]
            row = {
                "runs": len(cases),
                "ok": all(case["ok"] for case in cases),
                "violations": sum(case["violations"] for case in cases),
                "attempted": sum(case["counts"]["attempted"] for case in cases),
                "succeeded": sum(case["counts"]["succeeded"] for case in cases),
                "degraded": sum(case["counts"]["degraded"] for case in cases),
                "unavailable": sum(
                    case["counts"]["unavailable"] for case in cases
                ),
                "aborted_ops": sum(
                    case["counts"]["aborted_ops"] for case in cases
                ),
                "commits": sum(case["fingerprint"]["commits"] for case in cases),
                "aborts": sum(case["fingerprint"]["aborts"] for case in cases),
                "faults_applied": sum(
                    case["fingerprint"]["faults_applied"] for case in cases
                ),
                "recovery_syncs": sum(
                    case["timing"]["recovery_syncs"] for case in cases
                ),
                "recovery_latency_p50": _percentile(samples, 0.50),
                "recovery_latency_p95": _percentile(samples, 0.95),
            }
            sweep_ok = sweep_ok and row["ok"]
            table[profile][policy_name] = row
    return {
        "ok": sweep_ok,
        "seeds": list(seeds),
        "transactions": transactions,
        "n_sites": n_sites,
        "objects": objects,
        "placement": placement,
        "parallel_used": parallel_any,
        "profiles": table,
    }
