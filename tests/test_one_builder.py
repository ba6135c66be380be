"""One builder: ``build_scenario`` is where ``src/`` builds a simulated run.

Every run the package drives — a catalog scenario, the CLI's standard
workload, a chaos case, a soak, a measured claim row — declares its
traffic as a ``ScenarioSpec`` and its objects as a ``KeyspaceSpec``, and
``repro.scenarios.runner.build_scenario`` compiles the pair onto a
cluster and a ``WorkloadGenerator``.  This guard parses every module
under ``src/repro`` and fails if a ``WorkloadGenerator(...)`` call
appears anywhere else, so a new driver cannot grow its own hand-built
run beside the builder.  ``examples/`` and the tests build generators by
hand on purpose and are not scanned.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: The one ``(module, enclosing function)`` allowed to construct a generator.
BUILDER = ("repro/scenarios/runner.py", "build_scenario")


def _constructions() -> list[tuple[str, str]]:
    """``(module, enclosing function)`` of every ``WorkloadGenerator(`` call."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE.parent).as_posix()

        def visit(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, child.name)
                    continue
                if isinstance(child, ast.Call):
                    func = child.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(
                        func, "id", None
                    )
                    if name == "WorkloadGenerator":
                        found.append((module, scope))
                visit(child, scope)

        visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_only_build_scenario_constructs_a_workload_generator():
    assert _constructions() == [BUILDER]
