"""Quorum view construction (paper, Section 3.2).

A front-end reconstructs an object's view by merging the log fragments
of an initial quorum; reconfiguration and compaction drain a site set
the same way.  Every one of them folds its probes with
:func:`fold_view`.  A fragment is a mask over the object's shared entry
table (:mod:`repro.replication.log`), so the merge is a few integer
``|`` and every view is folded afresh.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.replication.log import Log


def fold_view(probes: Sequence[Any]) -> tuple[Log, Any]:
    """Merge quorum read probes: ``(log, best)``.

    Each probe's ``value`` is the site's ``(log, snapshot)``.  The
    fragments are unioned in visit order, ``best`` is the most-covering
    snapshot any probe carries (by ``subsumes``, a later equal one
    winning), and ``log`` is the union minus the entries ``best`` folded
    or discarded — a lagging repository may still hold them.
    """
    raw, best = Log(), None
    for probe in probes:
        fragment, snapshot = probe.value
        raw = raw.extended(fragment)
        if snapshot is not None and snapshot.subsumes(best):
            best = snapshot
    if best is None:
        return raw, None
    return Log(e for e in raw if e.action not in best.dropped), best


class QuorumViewCache:
    """Empty: views are folded afresh by :func:`fold_view`.

    Kept only because the frozen benchmark tracer (``perf/trace.py``)
    imports this class by name to wrap its former methods, and skips a
    name the class does not define; its ``replication.viewcache`` row
    reads 0 calls.  Delete it once that row names :func:`fold_view`.
    """
