"""Content-addressed fingerprints for serial data types.

A cached artifact is only valid while the *behavior* of its type is
unchanged — renaming a class or reformatting its source must not
invalidate the cache, while editing ``apply`` must.  So the fingerprint
digests a **behavior probe**: a breadth-first unfolding of the type's
transition system from the initial state, out to the same depth the
kernel's bounded searches explore.  Two types with identical probes are
indistinguishable to every derivation the cache stores, so sharing an
artifact between them is sound by construction.  The derivations walk
the same merged transition system
(:class:`~repro.spec.legality.MergedFrontiers`): what the probe digests
is what they read.

Determinism notes (the digest must be stable across processes and hash
seeds):

* invocations are explored in ``str``-sorted order;
* states get consecutive integer ids in discovery order, which is fixed
  because every nondeterministic ``apply`` expansion is sorted by its
  canonically-encoded ``(response, next-state)`` pair;
* the payload is rendered with :func:`~repro.compute.codec.canonical_json`
  before hashing.

The digest also covers the search ``bound``, the probe ``depth``, and
:data:`SCHEMA_VERSION`, so deepening a search or changing the artifact
layout forces a re-derivation rather than serving stale payloads.
"""

from __future__ import annotations

import hashlib
from typing import Any, Hashable

from repro.compute.codec import CodecError, canonical_json, encode_invocation, encode_response
from repro.spec.datatype import SerialDataType

#: Bump when the artifact payload layout changes; every cached entry is
#: invalidated because the version participates in the fingerprint.
SCHEMA_VERSION = 1


def _state_sort_key(canonical_state: Hashable) -> str:
    """A deterministic tiebreak for sibling next-states.

    Built-in types have canonically encodable states; a custom type with
    exotic states falls back to ``repr``, which is stable for anything
    with a value-based ``__repr__``.
    """
    try:
        from repro.compute.codec import encode_value

        return canonical_json(encode_value(canonical_state))
    except CodecError:
        return repr(canonical_state)


def behavior_probe(datatype: SerialDataType, depth: int) -> dict[str, Any]:
    """The transition system reachable within ``depth`` steps, normalized."""
    invocations = sorted(datatype.invocations(), key=str)
    initial = datatype.initial_state()
    ids: dict[Hashable, int] = {datatype.canonical(initial): 0}
    representatives = {0: initial}
    frontier = [0]
    transitions: list[list[Any]] = []

    for _ in range(depth):
        if not frontier:
            break
        next_frontier: list[int] = []
        for sid in frontier:
            state = representatives[sid]
            for inv in invocations:
                expansions = sorted(
                    (
                        (
                            canonical_json(encode_response(res)),
                            _state_sort_key(datatype.canonical(nxt)),
                            res,
                            nxt,
                        )
                        for res, nxt in datatype.apply(state, inv)
                    ),
                    key=lambda item: (item[0], item[1]),
                )
                encoded_outs: list[list[Any]] = []
                for _res_key, _state_key, res, nxt in expansions:
                    key = datatype.canonical(nxt)
                    nid = ids.get(key)
                    if nid is None:
                        nid = len(ids)
                        ids[key] = nid
                        representatives[nid] = nxt
                        next_frontier.append(nid)
                    encoded_outs.append([encode_response(res), nid])
                transitions.append([sid, encode_invocation(inv), encoded_outs])
        frontier = next_frontier

    return {
        "alphabet": [encode_invocation(inv) for inv in invocations],
        "depth": depth,
        "states": len(ids),
        "transitions": transitions,
    }


def type_fingerprint(
    datatype: SerialDataType, bound: int, depth: int | None = None
) -> str:
    """The content address for ``datatype``'s artifacts at ``bound``.

    ``depth`` defaults to ``bound + 2``, matching the deepest history
    any bounded derivation at this bound replays (alphabet extraction
    probes ``bound + 2`` events; Theorem 6/10 checks insert at most two
    events into a ``bound``-length history).
    """
    depth = bound + 2 if depth is None else depth
    payload = {
        "schema": SCHEMA_VERSION,
        "bound": bound,
        "probe": behavior_probe(datatype, depth),
    }
    digest = hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()
    return digest
