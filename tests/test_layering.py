"""Layering: which packages under ``src/repro`` may import which.

Walks every module with :mod:`ast` (so lazy, function-level imports
count too) and fails on an edge the design forbids:

* nothing but ``__main__`` itself imports ``repro.__main__`` — the CLI
  sits on top of the library, never under it;
* ``repro.sim`` and ``repro.replication`` do not import
  ``repro.scenarios`` — the engine does not know the traffic shapes
  compiled onto it.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path) -> set[str]:
    """Names of every module ``path`` imports, at any depth."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # The package uses absolute imports only; a relative one would
            # slip past the checks below, so it fails here instead.
            assert node.level == 0, f"{path}:{node.lineno}: relative import"
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def _edges() -> list[tuple[str, str]]:
    return [
        (_module_name(path), target)
        for path in sorted(PACKAGE.rglob("*.py"))
        for target in sorted(_imports(path))
        if target == "repro" or target.startswith("repro.")
    ]


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def test_only_the_cli_imports_the_cli():
    offenders = [
        (source, target)
        for source, target in _edges()
        if _within(target, "repro.__main__") and source != "repro.__main__"
    ]
    assert not offenders, offenders


def test_engine_does_not_import_scenarios():
    offenders = [
        (source, target)
        for source, target in _edges()
        if _within(target, "repro.scenarios")
        and (_within(source, "repro.sim") or _within(source, "repro.replication"))
    ]
    assert not offenders, offenders
