"""Documentation checks: snippets run, cross-links resolve.

Three guarantees keep the guides honest:

* every ``python`` fenced block in the snippet-bearing guides executes
  *as written* — blocks run cumulatively, top to bottom, in one
  namespace per document, so each guide is literally a script split by
  prose;
* every cross-link — markdown links (including ``#anchor`` fragments)
  and backticked repository paths — points at something that exists;
* every backticked dotted ``repro.x.y`` name resolves to a module or an
  attribute of one.
"""

import importlib
import re
from pathlib import Path

import pytest

pytestmark = pytest.mark.docs

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"

#: Guides whose ``python`` blocks must execute verbatim.
SNIPPET_DOCS = (
    "KEYSPACE.md",
    "RESILIENCE.md",
    "SCENARIOS.md",
    "TUNING.md",
    "TUTORIAL.md",
)

#: Documents whose links and path references are checked.
LINKED_DOCS = tuple(sorted(DOCS.glob("*.md"))) + (ROOT / "README.md",)

_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.S)
_MARKDOWN_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_FENCED_BLOCK = re.compile(r"```.*?```", re.S)
_BACKTICK_PATH = re.compile(r"`([\w./\-]+/[\w./\-]+\.(?:py|md|toml|yml))`")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.M)
_DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)`")


def _python_blocks(path: Path) -> list[str]:
    return _PYTHON_BLOCK.findall(path.read_text())


@pytest.mark.parametrize("doc", SNIPPET_DOCS)
def test_python_snippets_execute_as_written(doc):
    blocks = _python_blocks(DOCS / doc)
    assert blocks, f"{doc} has no python blocks to check"
    namespace: dict = {}
    for index, block in enumerate(blocks):
        code = compile(block, f"{doc}[block {index}]", "exec")
        exec(code, namespace)  # any exception fails the doc


def _slugify(heading: str) -> str:
    """GitHub-style anchor slug (sufficient for the anchors we emit)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\s-]", "", slug)
    return re.sub(r"\s", "-", slug)


def _anchors(path: Path) -> set[str]:
    return {_slugify(h) for h in _HEADING.findall(path.read_text())}


@pytest.mark.parametrize("doc", LINKED_DOCS, ids=lambda p: p.name)
def test_markdown_links_resolve(doc):
    prose = _FENCED_BLOCK.sub("", doc.read_text())
    problems = []
    for target in _MARKDOWN_LINK.findall(prose):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        dest = doc if not path_part else (doc.parent / path_part).resolve()
        if not dest.exists():
            problems.append(f"{target}: missing file {path_part}")
            continue
        if fragment and fragment not in _anchors(dest):
            problems.append(f"{target}: no heading for #{fragment}")
    assert not problems, f"{doc.name}: {problems}"


@pytest.mark.parametrize("doc", LINKED_DOCS, ids=lambda p: p.name)
def test_backticked_repo_paths_exist(doc):
    """Backticked ``dir/file.ext`` references must name real files.

    Generated artifacts (``benchmarks/results/...``) are exempt — they
    do not exist in a fresh checkout; ``::``-qualified pytest node ids
    are checked by their file part.
    """
    text = doc.read_text()
    problems = []
    for ref in _BACKTICK_PATH.findall(text):
        if ref.startswith("benchmarks/results/"):
            continue
        candidates = (ROOT / ref, ROOT / "src" / ref, doc.parent / ref)
        if not any(c.exists() for c in candidates):
            problems.append(ref)
    assert not problems, f"{doc.name}: dangling path references {problems}"


def _resolve_dotted(name: str):
    """Import the longest module prefix of ``name``, then ``getattr`` the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as error:
            if not f"{module_name}.".startswith(f"{error.name}."):
                raise  # the module exists but one of its imports does not
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(name)


@pytest.mark.parametrize("doc", LINKED_DOCS, ids=lambda p: p.name)
def test_backticked_repro_names_resolve(doc):
    """Backticked dotted ``repro.x.y`` names must import or getattr."""
    problems = []
    for name in sorted(set(_DOTTED_NAME.findall(doc.read_text()))):
        try:
            _resolve_dotted(name)
        except (ImportError, AttributeError) as error:
            problems.append(f"{name}: {error}")
    assert not problems, f"{doc.name}: unresolvable names {problems}"


def test_readme_indexes_every_guide():
    readme = (ROOT / "README.md").read_text()
    for guide in sorted(DOCS.glob("*.md")):
        assert f"docs/{guide.name}" in readme, (
            f"README.md documentation index is missing docs/{guide.name}"
        )


class TestScenarioDocRefs:
    """Catalog ↔ doc drift guard for ``repro.scenarios``.

    Every ``ScenarioSpec.doc_ref`` must resolve to a real anchor in
    ``docs/SCENARIOS.md``, and every catalog scenario must appear in the
    doc's reference table — so the doc cannot silently diverge from the
    frozen catalog.
    """

    def test_every_doc_ref_resolves_to_a_real_anchor(self):
        from repro.scenarios import SCENARIOS

        problems = []
        for name, spec in SCENARIOS.items():
            path_part, _, fragment = spec.doc_ref.partition("#")
            dest = ROOT / path_part
            if not dest.exists():
                problems.append(f"{name}: doc_ref file {path_part} missing")
                continue
            if fragment not in _anchors(dest):
                problems.append(
                    f"{name}: no heading in {path_part} for #{fragment}"
                )
        assert not problems, problems

    def test_every_catalog_scenario_appears_in_the_reference_table(self):
        from repro.scenarios import SCENARIOS

        text = (DOCS / "SCENARIOS.md").read_text()
        missing = [
            name for name in SCENARIOS if f"`{name}`" not in text
        ]
        assert not missing, (
            f"docs/SCENARIOS.md reference table is missing {missing}"
        )
