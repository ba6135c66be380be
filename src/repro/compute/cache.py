"""The in-process artifact memo.

Artifacts are a pure function of a data type's value and a bound, and a
derivation costs milliseconds (``docs/PERFORMANCE.md``, Layer 2), so
nothing outlives the process: no directory, no journal, no environment
variable.  What is left is one dict behind ``load`` / ``store`` — kept
as a class because those two methods are where the repo benchmark's
tracer (``perf/trace.py``) counts memo traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

if TYPE_CHECKING:
    from repro.compute.artifacts import TypeArtifacts


class ArtifactCache:
    """Artifacts by ``(data type value, bound)``, for the life of the process."""

    def __init__(self) -> None:
        self._entries: dict[Hashable, TypeArtifacts] = {}

    def load(self, key: Hashable) -> TypeArtifacts | None:
        """The artifacts stored under ``key``, or ``None`` on a miss."""
        return self._entries.get(key)

    def store(self, key: Hashable, artifacts: TypeArtifacts) -> None:
        self._entries[key] = artifacts

    def clear(self) -> None:
        self._entries.clear()
