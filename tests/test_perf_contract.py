"""What the frozen repo benchmark (``perf/``) uses of the program still exists.

``perf/trace.py`` wraps entry points by name and ``perf/workloads.py``
calls the theory kernel with fixed keywords; neither file may change with
the code it measures, so a rename under ``src/`` would only show when the
benchmark next runs.  These tests read both files (by path: ``perf/`` is
not a package) and hold ``src/`` to what they name.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from repro.compute.artifacts import artifacts_for, derive_artifacts
from repro.compute.cache import ArtifactCache
from repro.core import theorems
from repro.spec.legality import LegalityOracle
from repro.types import Queue

PERF = Path(__file__).resolve().parent.parent / "perf"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perf_{name}", PERF / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


trace = _load("trace")
workloads = _load("workloads")


@pytest.mark.parametrize(
    "module_name,owner_name,names",
    [
        pytest.param(module, owner, names, id=f"{module}:{owner or 'functions'}")
        for _layer, module, owner, names in trace.ENTRY_POINTS
    ],
)
def test_every_traced_entry_point_is_wrappable(module_name, owner_name, names):
    module = importlib.import_module(module_name)
    if owner_name is None:
        for name in names:
            assert inspect.isfunction(getattr(module, name)), name
        return
    owner = getattr(module, owner_name)
    assert inspect.isclass(owner)
    for name in names:
        # ``install`` wraps a method on the class that defines it, skips a
        # name the class does not define (inherited, or gone) and refuses
        # anything there that is not a plain function.
        defined = owner.__dict__.get(name)
        assert defined is None or inspect.isfunction(defined), f"{owner_name}.{name}"


def test_no_function_is_wrapped_twice():
    # ``install`` wraps each row's names where the owner defines them; two
    # rows reaching one function (a class alias, say) would wrap it twice
    # and count every call of it twice.
    seen: dict[int, str] = {}
    for _layer, module_name, owner_name, names in trace.ENTRY_POINTS:
        if owner_name is None:
            continue
        owner = getattr(importlib.import_module(module_name), owner_name)
        for name in names:
            defined = owner.__dict__.get(name)
            if defined is None:
                continue
            label = f"{owner_name}.{name}"
            assert id(defined) not in seen, f"{label} is {seen[id(defined)]}"
            seen[id(defined)] = label


@pytest.mark.parametrize(
    "function,kwargs",
    [
        pytest.param(function, kwargs, id=label)
        for label, function, kwargs in workloads.TheoryBattery.battery
    ],
)
def test_theory_battery_keywords_bind(function, kwargs):
    inspect.signature(getattr(theorems, function)).bind(**kwargs)


def test_derive_artifacts_takes_the_benchmark_call():
    datatype = Queue()
    inspect.signature(workloads.derive_artifacts).bind(
        datatype, 4, LegalityOracle(datatype), jobs=1
    )
    assert workloads.derive_artifacts is derive_artifacts
    assert isinstance(derive_artifacts(datatype, 1, jobs=1).canonical_text(), str)


def test_clear_memory_cache_empties_the_memo():
    # ``compute.cache.*`` rows count calls of these two; a skipped name
    # would read zero, not fail.
    assert {"load", "store"} <= set(vars(ArtifactCache))
    first = artifacts_for(Queue(), 2)
    assert artifacts_for(Queue(), 2) is first
    workloads.clear_memory_cache()
    assert artifacts_for(Queue(), 2) is not first
