"""Golden run table: pinned fingerprints that hold the behaviour guarantee.

Each row names one seeded audited run and the SHA-256 of its
fingerprint: decisions, messages and rendered histories.  Only the
``soak`` driver's fingerprint also holds the simulated clock, as
``sim_time``.  The digests were generated in a fresh interpreter at the
commit *before* the protocol loops were unified, and every row but
``soak/small`` was checked against the same digest under both the
overlapped front-end and a one-request-at-a-time one until the latter
was deleted, so a refactor that changes a decision, a message or a
rendered history fails here by name.  The ``chaos`` rows were re-taken,
each audit-clean and converged, when the classic register and the
sharded keyspace moved to one serialization order (every object
hybrid).  ``soak/small`` was re-taken when compaction's drain and
install became quorum rounds over ``Network.gather``: its ``sim_time``
fell from 5351.4 to 4635.4, every count and maintenance figure held.
Every row is also run with each committed serialization built from the
view, bypassing the objects' serial caches, against the same digest.

Regenerate (only when a change *means* to move a fingerprint):
``PYTHONPATH=src python tests/test_golden_runs.py`` prints the table
rows with fresh digests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import pytest

from repro.obs.audit import Auditor
from repro.obs.soak import SoakConfig, run_soak
from repro.obs.trace import Tracer
from repro.quorum.assignment import OperationQuorums, QuorumAssignment
from repro.quorum.coterie import ThresholdCoterie
from repro.replication.cluster import build_keyspace
from repro.replication.keyspace import KeyspaceSpec, ObjectSpec
from repro.resilience.chaos import PROFILES, run_chaos_case
from repro.scenarios import SCENARIOS, run_scenario
from repro.scenarios.runner import MECHANISMS
from repro.sim.workload import OperationMix, WorkloadGenerator
from repro.types import Queue


@dataclass(frozen=True)
class GoldenCase:
    name: str
    doc_ref: str
    driver: str
    inputs: dict
    digest: str = ""


def _scenario(**inputs) -> dict:
    return run_scenario(seed=0, **inputs)["fingerprint"]


def _chaos(**inputs) -> dict:
    return run_chaos_case(**inputs)["fingerprint"]


def _reconfig(*, seed: int, transactions: int) -> dict:
    """A hybrid queue reconfigured twice while transactions are in flight."""
    queue = Queue()
    spec = KeyspaceSpec(5, (ObjectSpec("queue", queue),))
    cluster = build_keyspace(spec, seed=seed, drop_probability=0.0, tracer=Tracer())
    obj = cluster.tm.object("queue")
    auditor = Auditor(cluster)

    def thresholds(initial: int, final: int) -> QuorumAssignment:
        quorums = OperationQuorums(
            initial=ThresholdCoterie(5, initial), final=ThresholdCoterie(5, final)
        )
        return QuorumAssignment(5, {op: quorums for op in queue.operations()})

    switches = {
        transactions // 3: thresholds(5, 1),
        2 * transactions // 3: thresholds(2, 4),
    }

    def boundary(index: int) -> None:
        if index in switches:
            cluster.reconfigure("queue", switches[index], coordinator_site=index % 5)

    generator = WorkloadGenerator(
        cluster.sim,
        cluster.tm,
        cluster.frontends,
        OperationMix.uniform("queue", queue.invocations()),
        on_transaction_start=boundary,
    )
    metrics = generator.run(transactions)
    report = auditor.finish()
    return {
        "outcomes": {
            f"{op}/{outcome}": count
            for (op, outcome), count in sorted(metrics.outcomes.items())
        },
        "history": str(obj.recorder.to_behavioral_history()),
        "messages_sent": cluster.network.messages_sent,
        "commits": metrics.committed_transactions,
        "aborts": metrics.aborted_transactions,
        "epoch": obj.epoch,
        "audit_ok": report.ok,
    }


def _soak(**inputs) -> dict:
    result = run_soak(SoakConfig(**inputs))
    return {
        "ops": result.ops,
        "commits": result.commits,
        "aborts": result.aborts,
        "sim_time": result.sim_time,
        "maintenance": result.maintenance,
        "ok": result.ok,
    }


DRIVERS = {
    "scenario": _scenario,
    "chaos": _chaos,
    "reconfig": _reconfig,
    "soak": _soak,
}

CASES: tuple[GoldenCase, ...] = (
    GoldenCase(
        'scenario/default/blocking/none',
        'docs/SCENARIOS.md#default',
        'scenario',
        {'scenario': 'default', 'mechanism': 'blocking', 'profile': 'none'},
        '4b4ad8c830e5ff59b0ebc1f30bac5549e085c776a79857848a5742c6887ccb14',
    ),
    GoldenCase(
        'scenario/default/blocking/mixed',
        'docs/SCENARIOS.md#default',
        'scenario',
        {'scenario': 'default', 'mechanism': 'blocking', 'profile': 'mixed'},
        '89c766effff2dcf8be834a6f5bda10912a4f5882d2f441ae40dcc66e2b3d498c',
    ),
    GoldenCase(
        'scenario/default/multiversion/none',
        'docs/SCENARIOS.md#default',
        'scenario',
        {'scenario': 'default', 'mechanism': 'multiversion', 'profile': 'none'},
        'fcb7173752ae028e5f7044a2dd6b68e5f6eca80249eb31c7c3b500e49bce1cb4',
    ),
    GoldenCase(
        'scenario/default/multiversion/mixed',
        'docs/SCENARIOS.md#default',
        'scenario',
        {'scenario': 'default', 'mechanism': 'multiversion', 'profile': 'mixed'},
        'e9f9ca37639624a00e777a8aba585f82a58d6e3975271c499ef4ed0a682b86cc',
    ),
    GoldenCase(
        'scenario/default/hybrid/none',
        'docs/SCENARIOS.md#default',
        'scenario',
        {'scenario': 'default', 'mechanism': 'hybrid', 'profile': 'none'},
        'ecfe963ba6b1f1417640bb06d6737263b711ee1849bde37f9ee608a3a6effdb2',
    ),
    GoldenCase(
        'scenario/default/hybrid/mixed',
        'docs/SCENARIOS.md#default',
        'scenario',
        {'scenario': 'default', 'mechanism': 'hybrid', 'profile': 'mixed'},
        '5d6894f800a32fa5e65b2e60122e37119ab9d6fc3b00595946fb29d2a0aa837c',
    ),
    GoldenCase(
        'scenario/read-dominant/blocking/none',
        'docs/SCENARIOS.md#read-dominant',
        'scenario',
        {'scenario': 'read-dominant', 'mechanism': 'blocking', 'profile': 'none'},
        '9d7036416069c0baa93b9809deee061d1c60bd72c595caa38787970763dad2ee',
    ),
    GoldenCase(
        'scenario/read-dominant/blocking/mixed',
        'docs/SCENARIOS.md#read-dominant',
        'scenario',
        {'scenario': 'read-dominant', 'mechanism': 'blocking', 'profile': 'mixed'},
        '66bf505168d5ec6f15d844482829fd8f824a6c2d02141cb563a98649db7a9661',
    ),
    GoldenCase(
        'scenario/read-dominant/multiversion/none',
        'docs/SCENARIOS.md#read-dominant',
        'scenario',
        {'scenario': 'read-dominant', 'mechanism': 'multiversion', 'profile': 'none'},
        '2d6d33469a297b106fac06090195d0718ee4d717d1d8ad8cf61dc54f8a87fd8d',
    ),
    GoldenCase(
        'scenario/read-dominant/multiversion/mixed',
        'docs/SCENARIOS.md#read-dominant',
        'scenario',
        {'scenario': 'read-dominant', 'mechanism': 'multiversion', 'profile': 'mixed'},
        '14d9ec086c7bba8e5d4174e9e1750781b6da04694c2044d59c8d35a502b9b60d',
    ),
    GoldenCase(
        'scenario/read-dominant/hybrid/none',
        'docs/SCENARIOS.md#read-dominant',
        'scenario',
        {'scenario': 'read-dominant', 'mechanism': 'hybrid', 'profile': 'none'},
        'ad1204067b324d2123122307198656dd809e641f7bea856948469712ba819953',
    ),
    GoldenCase(
        'scenario/read-dominant/hybrid/mixed',
        'docs/SCENARIOS.md#read-dominant',
        'scenario',
        {'scenario': 'read-dominant', 'mechanism': 'hybrid', 'profile': 'mixed'},
        '4f41deb830f2c6cc1518f7172441e41a562b70785a8725a004c09d575ef16d02',
    ),
    GoldenCase(
        'scenario/write-heavy/blocking/none',
        'docs/SCENARIOS.md#write-heavy',
        'scenario',
        {'scenario': 'write-heavy', 'mechanism': 'blocking', 'profile': 'none'},
        'a0b9451acfec18efe565f395640a921f4d58a7b1e82755444164fc4b5d6c3cac',
    ),
    GoldenCase(
        'scenario/write-heavy/blocking/mixed',
        'docs/SCENARIOS.md#write-heavy',
        'scenario',
        {'scenario': 'write-heavy', 'mechanism': 'blocking', 'profile': 'mixed'},
        'f41d67c50d0be594a7350f334c1f4317cc4b902f74d1086c6801183ce22d656d',
    ),
    GoldenCase(
        'scenario/write-heavy/multiversion/none',
        'docs/SCENARIOS.md#write-heavy',
        'scenario',
        {'scenario': 'write-heavy', 'mechanism': 'multiversion', 'profile': 'none'},
        '1d945355c49241c6c6a063e7c06abdc1d09e66024512eb4ee9fcc99e2272b66b',
    ),
    GoldenCase(
        'scenario/write-heavy/multiversion/mixed',
        'docs/SCENARIOS.md#write-heavy',
        'scenario',
        {'scenario': 'write-heavy', 'mechanism': 'multiversion', 'profile': 'mixed'},
        '7d2125fb7bcc60f94ff341ba2b5548a72b0496581f01e2ed4fa2735f0c91c9d3',
    ),
    GoldenCase(
        'scenario/write-heavy/hybrid/none',
        'docs/SCENARIOS.md#write-heavy',
        'scenario',
        {'scenario': 'write-heavy', 'mechanism': 'hybrid', 'profile': 'none'},
        '51d002d561acff21abd514f4ae0da1bca53ea382c8d1d19bb7688cf989a57aed',
    ),
    GoldenCase(
        'scenario/write-heavy/hybrid/mixed',
        'docs/SCENARIOS.md#write-heavy',
        'scenario',
        {'scenario': 'write-heavy', 'mechanism': 'hybrid', 'profile': 'mixed'},
        'fffc6599bc0dc97e60af149b045f9252977c52cb031f42c38a51fd79b396091a',
    ),
    GoldenCase(
        'scenario/hot-key-contention/blocking/none',
        'docs/SCENARIOS.md#hot-key-contention',
        'scenario',
        {'scenario': 'hot-key-contention', 'mechanism': 'blocking', 'profile': 'none'},
        'f13f2cee50fbd06cc9644f1a451ab5f43a0d16cf45e8e19294d2b950a2bbd8aa',
    ),
    GoldenCase(
        'scenario/hot-key-contention/blocking/mixed',
        'docs/SCENARIOS.md#hot-key-contention',
        'scenario',
        {'scenario': 'hot-key-contention', 'mechanism': 'blocking', 'profile': 'mixed'},
        '02badff9d0d9a0b694dd2b9d55e4407985412bbd6ca65e2565a5e1c806cd13aa',
    ),
    GoldenCase(
        'scenario/hot-key-contention/multiversion/none',
        'docs/SCENARIOS.md#hot-key-contention',
        'scenario',
        {'scenario': 'hot-key-contention', 'mechanism': 'multiversion', 'profile': 'none'},
        '678fb7e38c12d0eeb88ec012e544356dfb51e38d38b1b1094ebb9d2281f7e6fa',
    ),
    GoldenCase(
        'scenario/hot-key-contention/multiversion/mixed',
        'docs/SCENARIOS.md#hot-key-contention',
        'scenario',
        {'scenario': 'hot-key-contention', 'mechanism': 'multiversion', 'profile': 'mixed'},
        '03a4de3c0707cbc959d0e7df2c0446d4a00f060ff02626a7406aca0bd70f0733',
    ),
    GoldenCase(
        'scenario/hot-key-contention/hybrid/none',
        'docs/SCENARIOS.md#hot-key-contention',
        'scenario',
        {'scenario': 'hot-key-contention', 'mechanism': 'hybrid', 'profile': 'none'},
        'c1b30fa382517b27416937274c5771c707b5a8c5aaab0895ee121231ed5c1d26',
    ),
    GoldenCase(
        'scenario/hot-key-contention/hybrid/mixed',
        'docs/SCENARIOS.md#hot-key-contention',
        'scenario',
        {'scenario': 'hot-key-contention', 'mechanism': 'hybrid', 'profile': 'mixed'},
        'f463e4289f401449484a453d0672bc9c14b5da9b381c0e9f07f3eed7f856e6ce',
    ),
    GoldenCase(
        'scenario/bursty-flash-crowd/blocking/none',
        'docs/SCENARIOS.md#bursty-flash-crowd',
        'scenario',
        {'scenario': 'bursty-flash-crowd', 'mechanism': 'blocking', 'profile': 'none'},
        'def5f4bde2df53596664fae4f0bdfad65b06c735e15b46bb4e148054027aa47a',
    ),
    GoldenCase(
        'scenario/bursty-flash-crowd/blocking/mixed',
        'docs/SCENARIOS.md#bursty-flash-crowd',
        'scenario',
        {'scenario': 'bursty-flash-crowd', 'mechanism': 'blocking', 'profile': 'mixed'},
        'd5a9caaa398e52207ed6ec4971486e919b8dbccebd5eb92b3e6f1b7a04d4224f',
    ),
    GoldenCase(
        'scenario/bursty-flash-crowd/multiversion/none',
        'docs/SCENARIOS.md#bursty-flash-crowd',
        'scenario',
        {'scenario': 'bursty-flash-crowd', 'mechanism': 'multiversion', 'profile': 'none'},
        'a3011bc34a2d998d01a1844d38f69aafe9044ab6c62ee1d79ba7cb7009ee8b79',
    ),
    GoldenCase(
        'scenario/bursty-flash-crowd/multiversion/mixed',
        'docs/SCENARIOS.md#bursty-flash-crowd',
        'scenario',
        {'scenario': 'bursty-flash-crowd', 'mechanism': 'multiversion', 'profile': 'mixed'},
        '40f3362a628ca7c4b0b57c0a4e2161c0ac8cf469929600c03367afc991d5b17e',
    ),
    GoldenCase(
        'scenario/bursty-flash-crowd/hybrid/none',
        'docs/SCENARIOS.md#bursty-flash-crowd',
        'scenario',
        {'scenario': 'bursty-flash-crowd', 'mechanism': 'hybrid', 'profile': 'none'},
        '7d058bb8e35b6ea81db94e215e11dd98a84af91fe4eb11d4b5074a7c0eaf43ee',
    ),
    GoldenCase(
        'scenario/bursty-flash-crowd/hybrid/mixed',
        'docs/SCENARIOS.md#bursty-flash-crowd',
        'scenario',
        {'scenario': 'bursty-flash-crowd', 'mechanism': 'hybrid', 'profile': 'mixed'},
        '40716ca273a033afb58d57a18da65c082fdd509167b2349698af2b7046cb743c',
    ),
    GoldenCase(
        'scenario/long-transaction/blocking/none',
        'docs/SCENARIOS.md#long-transaction',
        'scenario',
        {'scenario': 'long-transaction', 'mechanism': 'blocking', 'profile': 'none'},
        '7bcfd8a876e279cc4414373907cb9357aae5ee1c37d47ce40262f00d3db298f4',
    ),
    GoldenCase(
        'scenario/long-transaction/blocking/mixed',
        'docs/SCENARIOS.md#long-transaction',
        'scenario',
        {'scenario': 'long-transaction', 'mechanism': 'blocking', 'profile': 'mixed'},
        '1d6392a662f8a445dd7f8d80ae3e05e4b2c1371a9cdaf87dd597d75d582ee666',
    ),
    GoldenCase(
        'scenario/long-transaction/multiversion/none',
        'docs/SCENARIOS.md#long-transaction',
        'scenario',
        {'scenario': 'long-transaction', 'mechanism': 'multiversion', 'profile': 'none'},
        '0e5655580ba15606d28fe660e6cde7468b85fe08f3703f152a37dc03b8ddab07',
    ),
    GoldenCase(
        'scenario/long-transaction/multiversion/mixed',
        'docs/SCENARIOS.md#long-transaction',
        'scenario',
        {'scenario': 'long-transaction', 'mechanism': 'multiversion', 'profile': 'mixed'},
        '21a3acf0e36042b9f787ce9af902c6ec7d7fef5186550263072e8d2280f617a5',
    ),
    GoldenCase(
        'scenario/long-transaction/hybrid/none',
        'docs/SCENARIOS.md#long-transaction',
        'scenario',
        {'scenario': 'long-transaction', 'mechanism': 'hybrid', 'profile': 'none'},
        '09cf85e720083886c935567841f67f4d0f279bdfcbf19244c54f903f09f056a2',
    ),
    GoldenCase(
        'scenario/long-transaction/hybrid/mixed',
        'docs/SCENARIOS.md#long-transaction',
        'scenario',
        {'scenario': 'long-transaction', 'mechanism': 'hybrid', 'profile': 'mixed'},
        '17b40a54dce3ce0e86efcaafdcb9c70ade2551fece55edb13f81b07df2619193',
    ),
    GoldenCase(
        'chaos/crash/default/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'crash', 'policy_name': 'default'},
        '0b10c609a69f3597c4e4051289b64007838399abec128d4419840b6aa3c358b2',
    ),
    GoldenCase(
        'chaos/crash/default/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'crash', 'policy_name': 'default'},
        '8404bd8e265e4e24da1233cd9a65afcec305ea0cf81a71f6580b555ecb5f01f0',
    ),
    GoldenCase(
        'chaos/crash/default/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'crash', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        '817072c7fa75d7015cac3fb7b52e7aab593850fa6f78c90ea344dd9b17e86b6b',
    ),
    GoldenCase(
        'chaos/crash/default/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'crash', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        'e5550085b3924784c03f5eb2faaa5c6a6e317b1db268804253eebd13dce48604',
    ),
    GoldenCase(
        'chaos/crash/degraded/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'crash', 'policy_name': 'degraded'},
        '0b10c609a69f3597c4e4051289b64007838399abec128d4419840b6aa3c358b2',
    ),
    GoldenCase(
        'chaos/crash/degraded/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'crash', 'policy_name': 'degraded'},
        '8404bd8e265e4e24da1233cd9a65afcec305ea0cf81a71f6580b555ecb5f01f0',
    ),
    GoldenCase(
        'chaos/crash/degraded/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'crash', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        '817072c7fa75d7015cac3fb7b52e7aab593850fa6f78c90ea344dd9b17e86b6b',
    ),
    GoldenCase(
        'chaos/crash/degraded/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'crash', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        'e5550085b3924784c03f5eb2faaa5c6a6e317b1db268804253eebd13dce48604',
    ),
    GoldenCase(
        'chaos/partition/default/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'partition', 'policy_name': 'default'},
        '55aeb8a14d5e83de7ce4b1766744ec6a1bd60e270fdcc8736e3050888e2618f5',
    ),
    GoldenCase(
        'chaos/partition/default/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'partition', 'policy_name': 'default'},
        'c5168efd8b9b3ab7a844ca7c8cc026933c98921b2e3a25beef0fa7d286c37ddc',
    ),
    GoldenCase(
        'chaos/partition/default/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'partition', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        '223fb3cbf5742ec58e67c3f622a3f685bd963dfa8e1e0c7cf0f726be52888c43',
    ),
    GoldenCase(
        'chaos/partition/default/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'partition', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        'e46755db0e634105c99cf1402768a586f65217d79362f33b606514ee0bcb027e',
    ),
    GoldenCase(
        'chaos/partition/degraded/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'partition', 'policy_name': 'degraded'},
        '55aeb8a14d5e83de7ce4b1766744ec6a1bd60e270fdcc8736e3050888e2618f5',
    ),
    GoldenCase(
        'chaos/partition/degraded/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'partition', 'policy_name': 'degraded'},
        'c5168efd8b9b3ab7a844ca7c8cc026933c98921b2e3a25beef0fa7d286c37ddc',
    ),
    GoldenCase(
        'chaos/partition/degraded/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'partition', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        '223fb3cbf5742ec58e67c3f622a3f685bd963dfa8e1e0c7cf0f726be52888c43',
    ),
    GoldenCase(
        'chaos/partition/degraded/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'partition', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        'e46755db0e634105c99cf1402768a586f65217d79362f33b606514ee0bcb027e',
    ),
    GoldenCase(
        'chaos/churn/default/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'churn', 'policy_name': 'default'},
        '69b38ec19b826f72138db5b9fd36ffb200929764ed044bc6d3497baadbc32d83',
    ),
    GoldenCase(
        'chaos/churn/default/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'churn', 'policy_name': 'default'},
        '5321252e5baaa01998b3cfeb2d6ca76a41c0857e98b616b72a82fe8a88dc910e',
    ),
    GoldenCase(
        'chaos/churn/default/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'churn', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        '2a2a787fa359b7bcc21ffb5b7d38f3cbc7f6846d97232048a1211cdb88fca02e',
    ),
    GoldenCase(
        'chaos/churn/default/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'churn', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        '5db8afb36b299d224b56003c6ffc5169500767bd0001de5478457fcbc239f705',
    ),
    GoldenCase(
        'chaos/churn/degraded/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'churn', 'policy_name': 'degraded'},
        '69b38ec19b826f72138db5b9fd36ffb200929764ed044bc6d3497baadbc32d83',
    ),
    GoldenCase(
        'chaos/churn/degraded/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'churn', 'policy_name': 'degraded'},
        '5321252e5baaa01998b3cfeb2d6ca76a41c0857e98b616b72a82fe8a88dc910e',
    ),
    GoldenCase(
        'chaos/churn/degraded/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'churn', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        '2a2a787fa359b7bcc21ffb5b7d38f3cbc7f6846d97232048a1211cdb88fca02e',
    ),
    GoldenCase(
        'chaos/churn/degraded/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'churn', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        '5db8afb36b299d224b56003c6ffc5169500767bd0001de5478457fcbc239f705',
    ),
    GoldenCase(
        'chaos/mixed/default/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'mixed', 'policy_name': 'default'},
        '77c485805c2539d2e3cdefa913fd300767ac6da332dd40c0f6111ae5de0e8352',
    ),
    GoldenCase(
        'chaos/mixed/default/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'mixed', 'policy_name': 'default'},
        '6df6ca4980df74ab41d660f632553c72589b6337e0538239fc72692cf3a87825',
    ),
    GoldenCase(
        'chaos/mixed/default/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'mixed', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        '92f88fd602b7be7c9c9aaa7cbf17ea6192313da31bc811e63fd9ea578038a1ab',
    ),
    GoldenCase(
        'chaos/mixed/default/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'mixed', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        'a5ebc0b557acb940ffb8a55c5eace54ff0194515d1be507d82ed588f870b88a1',
    ),
    GoldenCase(
        'chaos/mixed/degraded/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'mixed', 'policy_name': 'degraded'},
        '77c485805c2539d2e3cdefa913fd300767ac6da332dd40c0f6111ae5de0e8352',
    ),
    GoldenCase(
        'chaos/mixed/degraded/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'mixed', 'policy_name': 'degraded'},
        'b5857617ce5971ea4ce833c87646cbaa7c9f9ae42366a9381c33d4296736e581',
    ),
    GoldenCase(
        'chaos/mixed/degraded/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'mixed', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        '92f88fd602b7be7c9c9aaa7cbf17ea6192313da31bc811e63fd9ea578038a1ab',
    ),
    GoldenCase(
        'chaos/mixed/degraded/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'mixed', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        'a5ebc0b557acb940ffb8a55c5eace54ff0194515d1be507d82ed588f870b88a1',
    ),
    GoldenCase(
        'reconfig/under-traffic',
        'docs/KEYSPACE.md#the-switch-is-a-transaction',
        'reconfig',
        {'seed': 0, 'transactions': 24},
        'a3ea4e9735f3e377e83014788263ec5b9d9ddcc20344f2923d714bb6164cd783',
    ),
    GoldenCase(
        'soak/small',
        'docs/OBSERVABILITY.md#the-soak-proving-it-end-to-end',
        'soak',
        {'ops': 900, 'window': 128, 'compact_every': 10, 'objects': 4},
        'c4ccf7a0341c5aa709a93b3c91128413e59bc64622de54e07d8e38f305267986',
    ),
)


def _digest(case: GoldenCase) -> str:
    fingerprint = DRIVERS[case.driver](**case.inputs)
    return hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True).encode()
    ).hexdigest()


def test_table_is_the_declared_grid():
    assert [replace(case, digest="") for case in CASES] == _grid()


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_golden_fingerprint(case: GoldenCase):
    assert _digest(case) == case.digest, case.doc_ref


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_golden_fingerprint_from_scratch(case: GoldenCase, monkeypatch):
    """The same row with every committed serialization built from the
    view: the serial cache must not move a decision or a message."""
    # Imported here so the regeneration script runs without the package.
    from tests.helpers import from_scratch_front_ends

    built = from_scratch_front_ends(monkeypatch)
    assert _digest(case) == case.digest, case.doc_ref
    assert built["reference_rows"] > 0


def _grid() -> list[GoldenCase]:
    """The declared grid, digests blank (regeneration only)."""
    rows = [
        GoldenCase(
            f"scenario/{scenario}/{mechanism}/{profile}",
            spec.doc_ref,
            "scenario",
            {"scenario": scenario, "mechanism": mechanism, "profile": profile},
        )
        for scenario, spec in SCENARIOS.items()
        for mechanism in MECHANISMS
        for profile in ("none", "mixed")
    ]
    rows += [
        GoldenCase(
            f"chaos/{profile}/{policy}/{shape}/{seed}",
            "docs/RESILIENCE.md#the-seeded-chaos-sweep",
            "chaos",
            {"seed": seed, "profile": profile, "policy_name": policy, **extra},
        )
        for profile in PROFILES
        for policy in ("default", "degraded")
        for shape, extra in (
            ("classic", {}),
            ("ring4", {"objects": 4, "placement": "ring"}),
        )
        for seed in (0, 1)
    ]
    rows.append(
        GoldenCase(
            "reconfig/under-traffic",
            "docs/KEYSPACE.md#the-switch-is-a-transaction",
            "reconfig",
            {"seed": 0, "transactions": 24},
        )
    )
    rows.append(
        GoldenCase(
            "soak/small",
            "docs/OBSERVABILITY.md#the-soak-proving-it-end-to-end",
            "soak",
            {"ops": 900, "window": 128, "compact_every": 10, "objects": 4},
        )
    )
    return rows


if __name__ == "__main__":
    for blank in _grid():
        print(
            f"    GoldenCase(\n        {blank.name!r},\n        {blank.doc_ref!r},\n"
            f"        {blank.driver!r},\n        {blank.inputs!r},\n"
            f"        {_digest(blank)!r},\n    ),"
        )
