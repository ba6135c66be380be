"""Golden run table: pinned fingerprints that hold the behaviour guarantee.

Each row names one seeded audited run and the SHA-256 of its
fingerprint (decisions, messages and rendered histories; no simulated
clock).  The digests were generated in a fresh interpreter at the
commit *before* the protocol loops were unified, and every row but
``soak/small`` was checked against the same digest under both the
overlapped front-end and a one-request-at-a-time one until the latter
was deleted, so a refactor that changes a decision, a message or a
rendered history fails here by name.  Every row is also run with each
view merged and serialized from scratch, bypassing the front-end's
incremental caches, against the same digest.

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
from repro.scenarios.runner import MECHANISMS, _hybrid_relation
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
    spec = KeyspaceSpec(5, (ObjectSpec("queue", queue, relation=_hybrid_relation(queue)),))
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
        '8107d2c9ed05c5d8401c63dc9c6afdbc3760bf2d116add10a523ab062ab08316',
    ),
    GoldenCase(
        'scenario/read-dominant/hybrid/mixed',
        'docs/SCENARIOS.md#read-dominant',
        'scenario',
        {'scenario': 'read-dominant', 'mechanism': 'hybrid', 'profile': 'mixed'},
        'b4ea1e51c2f49c385be599ddd986f411b8746de9eda5246c45bbcaaa6557f308',
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
        '4499c5bf3db8e38390d33bed4a5b3c2a735955373fc80a4bf3168a08fb93a843',
    ),
    GoldenCase(
        'scenario/write-heavy/hybrid/mixed',
        'docs/SCENARIOS.md#write-heavy',
        'scenario',
        {'scenario': 'write-heavy', 'mechanism': 'hybrid', 'profile': 'mixed'},
        '665c12472621b3485fe2c8554cbb09ce4dbdd0ce3b5325e060abb62e3e382755',
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
        '5bfb82b7a5e79ce3309f7a3df6734d4cc012cc6fae0d4e9eaf85b99d10ed4560',
    ),
    GoldenCase(
        'scenario/hot-key-contention/hybrid/mixed',
        'docs/SCENARIOS.md#hot-key-contention',
        'scenario',
        {'scenario': 'hot-key-contention', 'mechanism': 'hybrid', 'profile': 'mixed'},
        '3eb59886c4bda7d69852effb801619891a638dc5e92f4eae2eb0bc7460dc9185',
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
        '9a2ab526f812adce65d0286b0d26e2b16b2d95581b3f149da0ef2efaa49f6238',
    ),
    GoldenCase(
        'scenario/bursty-flash-crowd/hybrid/mixed',
        'docs/SCENARIOS.md#bursty-flash-crowd',
        'scenario',
        {'scenario': 'bursty-flash-crowd', 'mechanism': 'hybrid', 'profile': 'mixed'},
        '99b35a789c3129bf4e667022c400e45aa28a710304a9512e648477f8ae55d3d2',
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
        '6047f60cfb2418aa4ffa757913b1bfa84ecf8e89e9b382825f959b1f637359cb',
    ),
    GoldenCase(
        'scenario/long-transaction/hybrid/mixed',
        'docs/SCENARIOS.md#long-transaction',
        'scenario',
        {'scenario': 'long-transaction', 'mechanism': 'hybrid', 'profile': 'mixed'},
        'ea6057dbd4a26b774e2e21c5549ab2b962d43aba2539d4f8122a2fa309c1274c',
    ),
    GoldenCase(
        'chaos/crash/default/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'crash', 'policy_name': 'default'},
        'ae0fa35e8cd275614f6a9b63c2e193e1623e207dd9f1f53042f10cc667c6de8f',
    ),
    GoldenCase(
        'chaos/crash/default/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'crash', 'policy_name': 'default'},
        'd6935a6e39f2bb62cf7ae5e9f0031f6b00193e30565368fe7112265a21d093f9',
    ),
    GoldenCase(
        'chaos/crash/default/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'crash', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        'fa1667b36703cb3bc5e3bfe8f6990d6b014da520e855690b19f76b4de976f83e',
    ),
    GoldenCase(
        'chaos/crash/default/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'crash', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        'b6ff6fc3a89ae8b035cbf0872b8678c19e053d18820064e3466d906a95764a89',
    ),
    GoldenCase(
        'chaos/crash/degraded/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'crash', 'policy_name': 'degraded'},
        'ae0fa35e8cd275614f6a9b63c2e193e1623e207dd9f1f53042f10cc667c6de8f',
    ),
    GoldenCase(
        'chaos/crash/degraded/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'crash', 'policy_name': 'degraded'},
        'd6935a6e39f2bb62cf7ae5e9f0031f6b00193e30565368fe7112265a21d093f9',
    ),
    GoldenCase(
        'chaos/crash/degraded/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'crash', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        'fa1667b36703cb3bc5e3bfe8f6990d6b014da520e855690b19f76b4de976f83e',
    ),
    GoldenCase(
        'chaos/crash/degraded/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'crash', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        'b6ff6fc3a89ae8b035cbf0872b8678c19e053d18820064e3466d906a95764a89',
    ),
    GoldenCase(
        'chaos/partition/default/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'partition', 'policy_name': 'default'},
        'fbdca88f907ece8b45a48ed6be430b7c9d7c48df91c764f1a395e615e6027c87',
    ),
    GoldenCase(
        'chaos/partition/default/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'partition', 'policy_name': 'default'},
        '8b4ee4f5e387452a12f0493873122880b32add8c663abe6b2b03813e3b5dc1b0',
    ),
    GoldenCase(
        'chaos/partition/default/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'partition', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        'cfe390cf135da0f6da34c83871da9b3f83ba6779af2bfa78c7089bb832f8e680',
    ),
    GoldenCase(
        'chaos/partition/default/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'partition', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        '5e565097983ec40d533d7a93ba3279642737df2c247ac4947411409522287348',
    ),
    GoldenCase(
        'chaos/partition/degraded/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'partition', 'policy_name': 'degraded'},
        'fbdca88f907ece8b45a48ed6be430b7c9d7c48df91c764f1a395e615e6027c87',
    ),
    GoldenCase(
        'chaos/partition/degraded/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'partition', 'policy_name': 'degraded'},
        '8b4ee4f5e387452a12f0493873122880b32add8c663abe6b2b03813e3b5dc1b0',
    ),
    GoldenCase(
        'chaos/partition/degraded/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'partition', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        'cfe390cf135da0f6da34c83871da9b3f83ba6779af2bfa78c7089bb832f8e680',
    ),
    GoldenCase(
        'chaos/partition/degraded/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'partition', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        '5e565097983ec40d533d7a93ba3279642737df2c247ac4947411409522287348',
    ),
    GoldenCase(
        'chaos/churn/default/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'churn', 'policy_name': 'default'},
        '5d54d5f8b11be438231c91ee1db72df51c58ceddf034b618933434f615e6f825',
    ),
    GoldenCase(
        'chaos/churn/default/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'churn', 'policy_name': 'default'},
        '31d0d00c30564f1723d5cff90aada3f3f51a94a31164cbb8af8d69c493314a23',
    ),
    GoldenCase(
        'chaos/churn/default/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'churn', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        'f29581a3d38a9d895ce8652a2c47b93d865a5a3c5fa35905b4a403e6df324bb1',
    ),
    GoldenCase(
        'chaos/churn/default/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'churn', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        '4bbb26a6bbbc25b9af317ac717224b6437f6676d28e19f9cf56a1023ad2bdd48',
    ),
    GoldenCase(
        'chaos/churn/degraded/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'churn', 'policy_name': 'degraded'},
        '5d54d5f8b11be438231c91ee1db72df51c58ceddf034b618933434f615e6f825',
    ),
    GoldenCase(
        'chaos/churn/degraded/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'churn', 'policy_name': 'degraded'},
        '31d0d00c30564f1723d5cff90aada3f3f51a94a31164cbb8af8d69c493314a23',
    ),
    GoldenCase(
        'chaos/churn/degraded/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'churn', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        'f29581a3d38a9d895ce8652a2c47b93d865a5a3c5fa35905b4a403e6df324bb1',
    ),
    GoldenCase(
        'chaos/churn/degraded/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'churn', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        '4bbb26a6bbbc25b9af317ac717224b6437f6676d28e19f9cf56a1023ad2bdd48',
    ),
    GoldenCase(
        'chaos/mixed/default/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'mixed', 'policy_name': 'default'},
        'b4dd972a212f6c1b4d25dfec803a7bab87c7decea88a9191860fba5c32f41f23',
    ),
    GoldenCase(
        'chaos/mixed/default/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'mixed', 'policy_name': 'default'},
        '88c0fe3438f70f34467e6af5eeb8ef66864aaee131de9a305f65692738cf4984',
    ),
    GoldenCase(
        'chaos/mixed/default/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'mixed', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        '143cb09ae3456cce3ad6dcf1a0165ce7db989117bc615f2742769b15370877ba',
    ),
    GoldenCase(
        'chaos/mixed/default/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'mixed', 'policy_name': 'default', 'objects': 4, 'placement': 'ring'},
        '64f91dcd635f7a7c783378fed089516aaba82d24bb15997d3913c497e5179a67',
    ),
    GoldenCase(
        'chaos/mixed/degraded/classic/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'mixed', 'policy_name': 'degraded'},
        'b4dd972a212f6c1b4d25dfec803a7bab87c7decea88a9191860fba5c32f41f23',
    ),
    GoldenCase(
        'chaos/mixed/degraded/classic/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'mixed', 'policy_name': 'degraded'},
        '57d24da7d429a6138062528a65414314980437273418e4ec21c3d6d032d4f706',
    ),
    GoldenCase(
        'chaos/mixed/degraded/ring4/0',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 0, 'profile': 'mixed', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        '143cb09ae3456cce3ad6dcf1a0165ce7db989117bc615f2742769b15370877ba',
    ),
    GoldenCase(
        'chaos/mixed/degraded/ring4/1',
        'docs/RESILIENCE.md#the-seeded-chaos-sweep',
        'chaos',
        {'seed': 1, 'profile': 'mixed', 'policy_name': 'degraded', 'objects': 4, 'placement': 'ring'},
        '64f91dcd635f7a7c783378fed089516aaba82d24bb15997d3913c497e5179a67',
    ),
    GoldenCase(
        'reconfig/under-traffic',
        'docs/TUNING.md#the-switch-is-a-transaction',
        'reconfig',
        {'seed': 0, 'transactions': 24},
        'a3ea4e9735f3e377e83014788263ec5b9d9ddcc20344f2923d714bb6164cd783',
    ),
    GoldenCase(
        'soak/small',
        'docs/OBSERVABILITY.md#the-soak-proving-it-end-to-end',
        'soak',
        {'ops': 900, 'window': 128, 'compact_every': 10, 'objects': 4},
        'f64b6824f627f9a5e61eaeb7b4e92900c0567df4d13ac05bbde86d8a1943a95f',
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
    """The same row with every view merged and serialized from scratch:
    the incremental caches must not move a decision or a message."""
    # Imported here so the regeneration script runs without the package.
    from tests.helpers import from_scratch_front_ends

    cache = from_scratch_front_ends(monkeypatch)
    assert _digest(case) == case.digest, case.doc_ref
    assert cache.merges > 0


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
            "docs/TUNING.md#the-switch-is-a-transaction",
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
