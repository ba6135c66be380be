"""Incremental quorum view construction (paper, Section 3.2, sped up).

A front-end reconstructs an object's view by merging the log fragments
of an initial quorum.  The merge is a set union, so re-merging a quorum
whose fragments have not changed is pure waste — and in the common case
(same front-end, same quorum, only its own last write new) almost
nothing has changed.  :class:`QuorumViewCache` keys the merged union on
per-repository log version counters (the third field of
:meth:`Repository.read_fragment`):

* **hit** — every probed fragment reports the version already cached:
  the cached merge is returned as-is (the same
  :class:`~repro.replication.log.Log`, whose table's sorted order and
  grouping carry over to the next operation);
* **delta** — some fragments moved: only those fragments are merged
  into the cached union, each one integer ``|`` when it shares the
  union's entry table (logs only grow while their compaction snapshot
  is unchanged, so the union stays exact);
* **rebuild** — the responding site set or any site's snapshot object
  changed: the union is rebuilt from scratch over the probes in visit
  order (:func:`fold_view`, the fold the administrative drains use).

After a successful final-quorum write the cache is refreshed from the
acks alone (:meth:`note_write`): each acked repository confirmed, via a
version-before/version-after pair captured atomically with the write,
that nothing else touched its fragment since our read, so the new union
is the cached union plus the written update — no re-read needed.

Every path preserves *exact* set equality with a from-scratch re-merge;
``tests/test_sim_throughput.py`` checks each path and pins end-to-end
run fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.replication.log import Log


@dataclass
class _CacheEntry:
    """Cached merge for one object, valid for one responder-site tuple.

    Invariant: ``raw`` is the union of each cached site's fragment as of
    ``versions[site]``, under the snapshot objects in ``snaps``; and
    ``filtered`` is ``raw`` minus the actions dropped by ``best``.
    """

    sites: tuple[int, ...]
    versions: dict[int, int]
    snaps: dict[int, Any]
    #: Each cached site's fragment Log as last probed — the anchor for a
    #: filtered union's per-entry delta via :meth:`Log.fresh_since`.
    logs: dict[int, Log]
    raw: Log
    best: Any
    filtered: Log


def fold_view(probes: Sequence[Any]) -> tuple[Log, Log, Any]:
    """Merge quorum read probes from scratch: ``(raw, filtered, best)``.

    Each probe's ``value`` starts with the site's ``(log, snapshot)``.
    ``raw`` is the union of the fragments in visit order, ``best`` the
    most-covering snapshot any probe carries (by ``subsumes``, a later
    equal one winning), and ``filtered`` is ``raw`` minus the entries
    ``best`` folded or discarded — a lagging repository may still hold
    them.  The cache's rebuild and the administrative drains of
    reconfiguration and compaction all fold through this.
    """
    raw, best = Log(), None
    for probe in probes:
        fragment, snapshot = probe.value[0], probe.value[1]
        raw = raw.merge(fragment)
        if snapshot is not None and snapshot.subsumes(best):
            best = snapshot
    if best is None:
        return raw, raw, None
    return raw, Log(e for e in raw if e.action not in best.dropped), best


class QuorumViewCache:
    """Per-front-end cache of merged initial-quorum views."""

    __slots__ = ("_entries", "hits", "delta_merges", "rebuilds", "write_throughs")

    def __init__(self) -> None:
        self._entries: dict[str, _CacheEntry] = {}
        self.hits = 0
        self.delta_merges = 0
        self.rebuilds = 0
        self.write_throughs = 0

    def merged_view(
        self, object_name: str, probes: Sequence[Any]
    ) -> tuple[Log, Any]:
        """Merge quorum read probes, reusing cached work where sound.

        ``probes`` are :class:`~repro.sim.network.ProbeReply` objects in
        attempt (visit) order, each carrying a ``(log, snapshot,
        version)`` triple captured atomically at the repository.
        Returns ``(filtered_log, best_snapshot_or_None)`` with exactly
        the sets a from-scratch fold over the same probes would produce.
        """
        entry = self._entries.get(object_name)
        changed = None
        if entry is not None and len(entry.sites) == len(probes):
            # One pass: the same sites in the same order, each under the
            # cached snapshot object, and which fragments moved (``None``:
            # a site or a snapshot differs).
            snaps, versions = entry.snaps, entry.versions
            changed = []
            for site, probe in zip(entry.sites, probes):
                value = probe.value
                if probe.site != site or snaps[site] is not value[1]:
                    changed = None
                    break
                if versions[site] != value[2]:
                    changed.append(probe)
        if changed is not None:
            if not changed:
                self.hits += 1
                return entry.filtered, entry.best
            self.delta_merges += 1
            # Every probed snapshot is the cached object, so the elected
            # one is the cached ``best`` too.
            best = entry.best
            if best is None:
                raw = entry.raw
                for probe in changed:
                    raw = raw.extended(probe.value[0])
                filtered = raw
            else:
                # The filter is per entry: take each fragment's new ones,
                # diffed whole when it left the table probed last time.
                fresh: list = []
                for probe in changed:
                    fragment = probe.value[0]
                    chunk = fragment.fresh_since(entry.logs[probe.site])
                    fresh.extend(fragment.entry_set if chunk is None else chunk)
                raw = entry.raw.extended(fresh)
                filtered = entry.filtered.extended(
                    e for e in fresh if e.action not in best.dropped
                )
            entry.versions = {probe.site: probe.value[2] for probe in probes}
            entry.logs = {probe.site: probe.value[0] for probe in probes}
            entry.raw = raw
            entry.filtered = filtered
            return filtered, best
        self.rebuilds += 1
        raw, filtered, best = fold_view(probes)
        self._entries[object_name] = _CacheEntry(
            sites=tuple(probe.site for probe in probes),
            versions={probe.site: probe.value[2] for probe in probes},
            snaps={probe.site: probe.value[1] for probe in probes},
            logs={probe.site: probe.value[0] for probe in probes},
            raw=raw,
            best=best,
            filtered=filtered,
        )
        return filtered, best

    def note_write(
        self, object_name: str, update: Log, acks: Sequence[Any]
    ) -> None:
        """Refresh the cache from a final-quorum write's acks.

        ``acks`` are :class:`~repro.sim.network.ProbeReply` objects, each
        carrying the ``(version_before, version_after)`` pair its
        repository captured atomically around the write.  The refresh
        only applies when every cached site acked with
        ``version_before`` equal to the cached version — the proof that
        nothing else touched the fragment between our read and our
        write, so its new fragment is exactly the old one plus
        ``update``.  A moved version means an interleaved writer; the
        entry is discarded and the next read rebuilds.  Repositories
        holding compaction snapshots filter incoming updates, so the
        refresh is also skipped (never applied unsoundly) when any
        cached site has one — exactly when the entry elected a ``best``.
        """
        entry = self._entries.get(object_name)
        if entry is None or entry.best is not None:
            return
        cached = entry.versions
        versions: dict[int, int] = {}
        moved = False
        for ack in acks:
            site = ack.site
            if site in cached:
                before, versions[site] = ack.value
                moved = moved or before != cached[site]
        if len(versions) < len(cached):
            return
        if moved:
            del self._entries[object_name]
            return
        # ``update`` is normally the cached union plus the new entry, on
        # the union's table, which ``extended`` adopts as is.  No
        # snapshots anywhere in the entry, so nothing is filtered.
        entry.raw = entry.filtered = entry.raw.extended(update)
        entry.versions = versions
        self.write_throughs += 1

    def invalidate(self, object_name: str) -> None:
        """Drop one object's entry."""
        self._entries.pop(object_name, None)

