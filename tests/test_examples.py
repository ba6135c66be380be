"""Every ``examples/*.py`` runs: exit status 0, and no file left behind.

Each example runs as a user would start it — ``python examples/<name>.py``
in a fresh interpreter, with only ``src`` added to the import path — from
an empty working directory.  Neither that directory nor the checkout may
gain a file.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _checkout_files() -> set[str]:
    found = set()
    for directory, subdirs, files in os.walk(ROOT):
        subdirs[:] = [name for name in subdirs if name != ".git"]
        found.update(os.path.join(directory, name) for name in files)
    return found


def test_examples_are_found():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs_and_writes_nothing(example, tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    before = _checkout_files()
    completed = subprocess.run(
        [sys.executable, str(example)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert list(tmp_path.iterdir()) == []
    assert _checkout_files() == before
