"""The ``repro`` facade: exports and docs drift.

The facade is the documented surface — every name in ``__all__`` must
resolve, every ``from repro import X`` an end-user can copy out of the
docs must be importable, and the retired direct :class:`ReplicatedObject`
entry point (a PEP 562 deprecation shim until PR 15) is gone: objects
are declared in a ``KeyspaceSpec``.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.keyspace

ROOT = Path(__file__).resolve().parent.parent
DOC_SOURCES = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]

# `from repro import A, B, C` — the forms docs and examples use.
_FACADE_IMPORT = re.compile(
    r"^\s*from repro import ([A-Za-z_][A-Za-z0-9_, ]*)$", re.MULTILINE
)


class TestFacadeExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_keyspace_surface_is_exported(self):
        required = {
            "KeyspaceSpec",
            "ObjectSpec",
            "Placement",
            "PlacementRule",
            "Router",
            "build_keyspace",
        }
        assert required <= set(repro.__all__)

    def test_docs_only_import_exported_names(self):
        """Every `from repro import X` in docs/README is in __all__."""
        referenced: set[str] = set()
        for doc in DOC_SOURCES:
            for match in _FACADE_IMPORT.finditer(doc.read_text()):
                referenced.update(
                    name.strip()
                    for name in match.group(1).split(",")
                    if name.strip()
                )
        assert referenced, "docs should exercise the facade"
        missing = referenced - set(repro.__all__)
        assert not missing, f"docs import non-exported names: {sorted(missing)}"


class TestDeprecationShim:
    def test_replicated_object_is_gone(self):
        assert not hasattr(repro, "__getattr__")
        with pytest.raises(AttributeError, match="no attribute"):
            repro.ReplicatedObject

    def test_deep_import_stays_quiet(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            from repro.replication.object import ReplicatedObject  # noqa: F401

    def test_replicated_object_not_in_all(self):
        assert "ReplicatedObject" not in repro.__all__

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.NoSuchThing
