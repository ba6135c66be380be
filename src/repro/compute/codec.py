"""Canonical JSON encoding of kernel artifacts.

Digests and byte comparisons of events, relations, and commutativity
tables are taken over their JSON text.  Invocation arguments and
response values are arbitrary hashables drawn from generator alphabets —
in practice strings, numbers, booleans, ``None``, tuples, and frozensets
— so the encoder tags the containers (plain JSON atoms pass through
untouched) and sorts unordered collections by their canonical encoding,
making every serialization byte-deterministic regardless of hash
randomization and distinct for distinct values.
"""

from __future__ import annotations

import json
from typing import Any, Hashable

from repro.dependency.relation import DependencyRelation
from repro.errors import ReproError
from repro.histories.events import Event, Invocation, Response


class CodecError(ReproError):
    """A value the artifact codec cannot encode."""


def canonical_json(payload: Any) -> str:
    """The one canonical rendering used for digests and byte comparisons."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


# -- hashable values ----------------------------------------------------------


def encode_value(value: Hashable) -> Any:
    """Encode one alphabet value as JSON (tagged containers, raw atoms)."""
    if isinstance(value, bool):  # before int: bool subclasses int
        return {"!": "bool", "v": bool(value)}
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"!": "tuple", "v": [encode_value(item) for item in value]}
    if isinstance(value, frozenset):
        encoded = [encode_value(item) for item in value]
        return {"!": "frozenset", "v": sorted(encoded, key=canonical_json)}
    raise CodecError(f"cannot encode alphabet value of type {type(value).__name__}")


# -- events -------------------------------------------------------------------


def encode_invocation(invocation: Invocation) -> dict[str, Any]:
    return {
        "op": invocation.op,
        "args": [encode_value(arg) for arg in invocation.args],
    }


def encode_response(response: Response) -> dict[str, Any]:
    return {
        "kind": response.kind,
        "values": [encode_value(value) for value in response.values],
    }


def encode_event(event: Event) -> dict[str, Any]:
    return {"inv": encode_invocation(event.inv), "res": encode_response(event.res)}


# -- relations and tables -----------------------------------------------------


def encode_relation(relation: DependencyRelation) -> list[Any]:
    """A dependency relation as a sorted list of ``[invocation, event]``."""
    encoded = [
        [encode_invocation(inv), encode_event(ev)] for inv, ev in relation.pairs
    ]
    return sorted(encoded, key=canonical_json)


def encode_table(
    events: tuple[Event, ...], table: dict[tuple[Event, Event], bool]
) -> list[list[int]]:
    """A commutativity table as its non-commuting upper-triangle indices.

    The table is symmetric and overwhelmingly ``True``; only the
    refuted ``i <= j`` index pairs are stored.
    """
    refuted = []
    for i in range(len(events)):
        for j in range(i, len(events)):
            if not table[(events[i], events[j])]:
                refuted.append([i, j])
    return refuted

