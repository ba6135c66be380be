"""A replicated bank: multi-object transactions with fault injection.

Two replicated Account objects under hybrid atomicity.  Concurrent
clients deposit, withdraw, and transfer between the accounts while sites
crash and recover; the run then audits the outcome two ways:

* a semantic invariant — no money is created or destroyed by transfers:
  final balances equal committed deposits minus committed withdrawals;
* the paper's correctness criterion — each account's behavioral history
  is a member of ``Hybrid(Account)``.

Run:  python examples/replicated_bank.py
"""

from repro.atomicity.properties import HybridAtomicity
from repro.dependency.static_dep import minimal_static_dependency
from repro.errors import ConflictError, TransactionAborted, UnavailableError
from repro.histories.events import Invocation
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.sim.failures import CrashInjector
from repro.spec.legality import LegalityOracle
from repro.types import Account

ACCOUNTS = ("checking", "savings")


def main() -> None:
    account_type = Account(amounts=(1, 2))
    # The minimal static relation is also a valid hybrid relation
    # (Theorem 4) — a safe conflict table for the hybrid scheme.
    relation = minimal_static_dependency(account_type, max_events=3)
    spec = KeyspaceSpec(
        5,
        tuple(
            ObjectSpec(name, account_type, "hybrid", relation=relation)
            for name in ACCOUNTS
        ),
    )
    cluster = build_keyspace(spec, seed=2026)
    objects = {name: cluster.tm.object(name) for name in ACCOUNTS}
    CrashInjector(cluster.network, mean_uptime=80.0, mean_downtime=8.0).install()

    rng = cluster.sim.rng
    committed_effects = {name: 0 for name in ACCOUNTS}
    outcomes = {"committed": 0, "aborted": 0, "unavailable": 0, "conflict": 0}

    def run_transaction() -> None:
        frontend = cluster.frontends[rng.randrange(len(cluster.frontends))]
        txn = cluster.tm.begin(frontend.site)
        pending = {name: 0 for name in ACCOUNTS}
        kind = rng.choice(["deposit", "withdraw", "transfer", "audit"])
        try:
            if kind == "deposit":
                name = rng.choice(ACCOUNTS)
                frontend.execute(txn, name, Invocation("Deposit", (2,)))
                pending[name] += 2
            elif kind == "withdraw":
                name = rng.choice(ACCOUNTS)
                response = frontend.execute(txn, name, Invocation("Withdraw", (1,)))
                if response.is_normal:
                    pending[name] -= 1
            elif kind == "transfer":
                source, target = rng.sample(ACCOUNTS, 2)
                response = frontend.execute(txn, source, Invocation("Withdraw", (1,)))
                if response.is_normal:
                    frontend.execute(txn, target, Invocation("Deposit", (1,)))
                    pending[source] -= 1
                    pending[target] += 1
            else:  # audit: read both balances in one atomic action
                for name in ACCOUNTS:
                    frontend.execute(txn, name, Invocation("Balance"))
            cluster.tm.commit(txn)
        except UnavailableError:
            outcomes["unavailable"] += 1
            cluster.tm.abort(txn, "no quorum")
            return
        except ConflictError:
            outcomes["conflict"] += 1
            cluster.tm.abort(txn, "synchronization conflict")
            return
        except TransactionAborted:
            outcomes["aborted"] += 1
            return
        outcomes["committed"] += 1
        for name, delta in pending.items():
            committed_effects[name] += delta

    for _ in range(300):
        run_transaction()
        cluster.sim.advance(1.0)
        cluster.sim.run(until=cluster.sim.now)

    print("outcomes:", outcomes)

    # Semantic audit: read final balances with a fresh transaction
    # (retrying around failures).
    finals = {}
    for name in ACCOUNTS:
        while True:
            frontend = cluster.frontends[rng.randrange(len(cluster.frontends))]
            txn = cluster.tm.begin(frontend.site)
            try:
                response = frontend.execute(txn, name, Invocation("Balance"))
                cluster.tm.commit(txn)
                finals[name] = response.values[0]
                break
            except (UnavailableError, ConflictError, TransactionAborted):
                if txn.is_active:
                    cluster.tm.abort(txn, "retry audit")
                cluster.sim.advance(10.0)
                cluster.sim.run(until=cluster.sim.now)

    print("final balances:    ", finals)
    print("committed effects: ", committed_effects)
    assert finals == committed_effects, "conservation of money violated!"
    print("audit: balances equal committed deposits minus withdrawals ✓")

    for name, obj in objects.items():
        history = obj.recorder.to_behavioral_history()
        checker = HybridAtomicity(account_type, LegalityOracle(account_type))
        verdict = checker.admits(history)
        print(f"{name}: {len(history)} history entries, hybrid atomic: {verdict}")
        assert verdict


if __name__ == "__main__":
    main()
