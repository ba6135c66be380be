"""Every definition in ``src/repro`` has a caller outside the tests.

Parses every module under ``src/repro`` with :mod:`ast` and collects each
function, method and class it defines (dunders exempt) and each
UPPER_CASE name a module-level assignment binds (a constant).  A
definition counts as referenced when its name appears in some file under
``src/``, ``perf/`` or ``examples/`` outside its own definition, as

* a ``Name`` that is read (an assignment target is not a read; a name
  inside an f-string's replacement field is) or an ``Attribute``;
* a name imported with ``from ... import`` in a module other than an
  ``__init__.py`` (a facade re-export is not a use);
* an identifier token of a string constant (``getattr`` targets, the
  benchmark's entry-point lists, the CLI's command rows).

Docstrings and ``__all__`` lists do not count.  The scan is by name, so a
common name (``clear``, ``invalidate``) is always referenced; it catches
the rare names, not every dead protocol.

The unreferenced set must equal :data:`ALLOWED`, so a definition that
only tests use is deleted, moved into ``tests/``, or listed here with its
reason, and an entry whose name gained a caller (or left ``src/``) fails
too.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SCANNED = ("src", "perf", "examples")

_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")

#: Unreferenced definitions that stay, each with why.
ALLOWED = {
    # A planned caller on the ROADMAP.
    "cheapest_assignment": "ROADMAP item 1(b): the cost-driven quorum choice",
    "synthesize_hybrid_relation": "ROADMAP item 14: a hybrid relation per type",
    # Theory-kernel definitions the tests check the theorems with.
    "is_atomic": "the paper's name for serializable in some order",
    "intersection_relation": "an assignment's intersection relation (Section 3.2)",
    "satisfies": "Section 3.2's correctness condition for an assignment",
    "is_minimal_relation": "minimality of a dependency relation",
    "assignment_availability": "workload-weighted availability of an assignment",
    # The reader of an exported format.
    "parse_jsonl": "reads back what `trace --format jsonl` writes",
    # Documented entry points.
    "scenario_trial": "the one-trial entry point docs/SCENARIOS.md documents",
    "default_warm_plan": "CI's convergence step calls it",
    "transact": "cross-object transactions, documented in docs/KEYSPACE.md",
}


def _files(top: str) -> list[Path]:
    return sorted((ROOT / top).rglob("*.py"))


def _docstring_ids(tree: ast.AST) -> set[int]:
    """``id`` of every docstring constant in ``tree``."""
    found: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, *_DEFINITION)) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                found.add(id(first.value))
    return found


def _is_all(node: ast.AST) -> bool:
    targets = (
        node.targets if isinstance(node, ast.Assign)
        else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
        else []
    )
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _appearances(path: Path) -> list[tuple[str, tuple[str, ...]]]:
    """``(name, enclosing definitions)`` for every appearance in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = _docstring_ids(tree)
    facade = path.name == "__init__.py"
    found: list[tuple[str, tuple[str, ...]]] = []

    def visit(node: ast.AST, enclosing: tuple[str, ...]) -> None:
        if _is_all(node) or id(node) in docstrings:
            return
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                found.append((node.id, enclosing))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, enclosing))
        elif isinstance(node, ast.ImportFrom) and not facade:
            found.extend((alias.name, enclosing) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.extend((t, enclosing) for t in _TOKEN.findall(node.value))
        if isinstance(node, _DEFINITION):
            enclosing = enclosing + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, ())
    return found


def _defined(path: Path) -> list[tuple[str, int]]:
    """``(name, line)`` per non-dunder definition and constant in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [
        (node.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, _DEFINITION)
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    for statement in tree.body:
        targets = (
            statement.targets if isinstance(statement, ast.Assign)
            else [statement.target] if isinstance(statement, ast.AnnAssign)
            else []
        )
        found.extend(
            (target.id, statement.lineno)
            for top in targets
            for target in ast.walk(top)
            if isinstance(target, ast.Name) and _CONSTANT.fullmatch(target.id)
        )
    return found


def _definitions() -> dict[str, list[str]]:
    """Name of every non-dunder definition and constant under
    ``src/repro`` → where."""
    found: dict[str, list[str]] = {}
    for path in _files("src"):
        if PACKAGE not in path.parents:
            continue
        for name, line in _defined(path):
            found.setdefault(name, []).append(f"{path.relative_to(ROOT)}:{line}")
    return found


def unreferenced() -> dict[str, list[str]]:
    """Definitions whose name appears nowhere but inside its own definitions."""
    used: set[str] = set()
    for top in SCANNED:
        for path in _files(top):
            used.update(
                name for name, enclosing in _appearances(path)
                if name not in enclosing
            )
    return {
        name: where for name, where in _definitions().items()
        if name not in used
    }


def test_every_src_definition_has_a_caller_or_a_reason():
    found = unreferenced()
    uncalled = {name: found[name] for name in sorted(set(found) - set(ALLOWED))}
    stale = sorted(set(ALLOWED) - set(found))
    assert not uncalled, (
        "definitions in src/ that no code in src/, perf/ or examples/ names: "
        "delete them, move them into tests/, or allow them with a reason: "
        f"{uncalled}"
    )
    assert not stale, f"ALLOWED names that are now referenced or gone: {stale}"


def test_every_allowed_name_has_a_reason():
    assert len(ALLOWED) <= 15
    assert all(reason.strip() for reason in ALLOWED.values())


def test_the_scan_sees_each_kind_of_appearance(tmp_path):
    source = (
        '"""module docstring naming docstring_only"""\n'
        "__all__ = ['listed_only']\n"
        "from m import imported\n"
        "def recursive():\n"
        "    return recursive()\n"
        "x = obj.attribute + plain_name\n"
        "getattr(obj, 'Owner.in_string')\n"
        "message = f'{IN_FSTRING!r} of {obj.fstring_attr}'\n"
    )
    path = tmp_path / "probe.py"
    path.write_text(source)
    names = {name for name, enclosing in _appearances(path) if name not in enclosing}
    assert {"imported", "attribute", "plain_name", "in_string", "Owner"} <= names
    assert {"IN_FSTRING", "fstring_attr"} <= names
    assert not {"docstring_only", "listed_only", "recursive", "x", "message"} & names


def test_a_module_constant_counts_only_when_read(tmp_path):
    source = (
        "READ_ONCE = 1\n"
        "NEVER_READ: int = 2\n"
        "_PRIVATE, lower_case = 3, 4\n"
        "def use():\n"
        "    INNER = READ_ONCE + _PRIVATE\n"
        "    return INNER\n"
        "class Owner:\n"
        "    CLASS_LEVEL = 5\n"
    )
    path = tmp_path / "probe.py"
    path.write_text(source)
    defined = {name for name, _line in _defined(path)}
    # Module level only, and UPPER_CASE only.
    assert defined == {"READ_ONCE", "NEVER_READ", "_PRIVATE", "use", "Owner"}
    names = {name for name, enclosing in _appearances(path) if name not in enclosing}
    assert {"READ_ONCE", "_PRIVATE"} <= names
    assert "NEVER_READ" not in names
