"""Incremental quorum view construction (paper, Section 3.2, sped up).

A front-end reconstructs an object's view by merging the log fragments
of an initial quorum.  The merge is a set union, so re-merging a quorum
whose fragments have not changed is pure waste — and in the common case
(same front-end, same quorum, only its own last write new) almost
nothing has changed.  :class:`QuorumViewCache` keys the merged union on
per-repository log version counters (:meth:`Repository.log_version`):

* **hit** — every probed fragment reports the version already cached:
  the cached merge is returned as-is (the same
  :class:`~repro.replication.log.Log`, on this cache's own store, whose
  sorted order and grouping carry over to the next operation);
* **delta** — some fragments moved: only those fragments are merged
  into the cached union (logs only grow while their compaction snapshot
  is unchanged, so the union stays exact);
* **rebuild** — the responding site set or any site's snapshot object
  changed: the union is rebuilt from scratch over the probes in visit
  order.

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
    #: Each cached site's fragment Log as last probed — the positional
    #: anchor for O(delta) re-merges via :meth:`Log.fresh_since`.
    logs: dict[int, Log]
    raw: Log
    best: Any
    filtered: Log


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
        sites = tuple(probe.site for probe in probes)
        entry = self._entries.get(object_name)
        if (
            entry is not None
            and entry.sites == sites
            and all(entry.snaps[probe.site] is probe.value[1] for probe in probes)
        ):
            changed = [
                probe
                for probe in probes
                if entry.versions[probe.site] != probe.value[2]
            ]
            if not changed:
                self.hits += 1
                return entry.filtered, entry.best
            self.delta_merges += 1
            fresh: list = []
            for probe in changed:
                # O(delta): the fragment is a later version of the store
                # we probed last time, so what is new is a slice of its
                # arrivals.  A fragment on another store (snapshot
                # install, restart, fork) is diffed whole.
                fragment = probe.value[0]
                chunk = fragment.fresh_since(entry.logs[probe.site])
                fresh.extend(fragment.entry_set if chunk is None else chunk)
            # ``extended`` skips what the union already holds and appends
            # the rest to its own store, sorted order and grouping
            # updated by insertion.  Every probed snapshot is the cached
            # object, so the elected one is the cached ``best`` too.
            best = entry.best
            raw = entry.raw.extended(fresh)
            if best is None:
                filtered = raw
            else:
                filtered = entry.filtered.extended(
                    e for e in fresh if e.action not in best.dropped
                )
            entry.versions = {probe.site: probe.value[2] for probe in probes}
            entry.logs = {probe.site: probe.value[0] for probe in probes}
            entry.raw = raw
            entry.filtered = filtered
            return filtered, best
        self.rebuilds += 1
        best = None
        raw = Log()
        for probe in probes:
            fragment, snapshot, _version = probe.value
            raw = raw.merge(fragment)
            if snapshot is not None and snapshot.subsumes(best):
                best = snapshot
        if best is None:
            filtered = raw
        else:
            filtered = Log(e for e in raw if e.action not in best.dropped)
        self._entries[object_name] = _CacheEntry(
            sites=sites,
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
        # ``update`` is normally the next version of the cached union's
        # own store (the view this cache handed out, plus the new
        # entry), which ``extended`` adopts as is.  No snapshots anywhere
        # in the entry, so nothing is filtered.
        entry.raw = entry.filtered = entry.raw.extended(update)
        entry.versions = versions
        self.write_throughs += 1

    def invalidate(self, object_name: str | None = None) -> None:
        """Drop one object's entry, or everything when ``None``."""
        if object_name is None:
            self._entries.clear()
        else:
            self._entries.pop(object_name, None)

    def stats(self) -> dict[str, int]:
        """Counter snapshot (hits/deltas/rebuilds/write-throughs)."""
        return {
            "hits": self.hits,
            "delta_merges": self.delta_merges,
            "rebuilds": self.rebuilds,
            "write_throughs": self.write_throughs,
        }
