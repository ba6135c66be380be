"""The theory-kernel compute layer: derive once per process, reuse everywhere.

The bounded model-checking kernel (Theorems 6 and 10 searches,
commutativity tables, event alphabets) is pure: its outputs are
functions of a type's bounded behavior and nothing else.  This package
exploits that purity two ways:

* :mod:`repro.compute.artifacts` — one shared derivation per
  ``(type, bound)``, memoized in-process by the data type's value
  (:mod:`repro.compute.cache`) and rendered as canonical JSON
  (:mod:`repro.compute.codec`) for digests;
* :mod:`repro.compute.parallel` — multiprocess fan-out across
  history-universe shards and simulation trials, with a serial fallback
  that is always semantically identical.
"""

from repro.compute.artifacts import (
    TypeArtifacts,
    artifacts_for,
    clear_memory_cache,
    default_warm_plan,
    derive_artifacts,
)
from repro.compute.cache import ArtifactCache
from repro.compute.parallel import parallel_map, resolve_jobs

__all__ = [
    "TypeArtifacts",
    "artifacts_for",
    "clear_memory_cache",
    "default_warm_plan",
    "derive_artifacts",
    "ArtifactCache",
    "parallel_map",
    "resolve_jobs",
]
