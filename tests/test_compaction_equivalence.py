"""Property test: compaction is observationally transparent.

Two identical clusters run the same randomly generated transaction
script; one of them is compacted at randomly chosen points.  Every
response must be identical — compaction may change what repositories
*store*, never what clients *see*.  Abort/commit decisions are part of
the script, so aborted-entry garbage collection is exercised too.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.histories.events import Invocation
from repro.replication.snapshot import compact
from tests.helpers import queue_system

INVOCATIONS = (
    Invocation("Enq", ("a",)),
    Invocation("Enq", ("b",)),
    Invocation("Deq"),
)

#: A step is (invocation index, commit?, front-end site, compact now?).
steps_strategy = st.lists(
    st.tuples(
        st.integers(0, len(INVOCATIONS) - 1),
        st.booleans(),
        st.integers(0, 2),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


def _run(steps, with_compaction: bool):
    cluster, obj = queue_system("hybrid")
    responses = []
    for inv_index, do_commit, site, compact_now in steps:
        txn = cluster.tm.begin(site)
        response = cluster.frontends[site].execute(
            txn, "obj", INVOCATIONS[inv_index]
        )
        responses.append(str(response))
        if do_commit:
            cluster.tm.commit(txn)
        else:
            cluster.tm.abort(txn)
        if with_compaction and compact_now:
            compact(cluster.network, cluster.repositories, obj, cluster.tm)
    return responses, obj


@given(steps_strategy)
@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_compaction_never_changes_responses(steps):
    plain, _obj_plain = _run(steps, with_compaction=False)
    compacted, _obj = _run(steps, with_compaction=True)
    assert plain == compacted
