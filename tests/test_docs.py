"""Documentation checks: snippets run, cross-links resolve.

Four guarantees keep the guides honest:

* every ``python`` fenced block in the snippet-bearing guides executes
  *as written* — blocks run cumulatively, top to bottom, in one
  namespace per document, so each guide is literally a script split by
  prose;
* every cross-link — markdown links (including ``#anchor`` fragments)
  and backticked repository paths — points at something that exists;
* every backticked dotted ``repro.x.y`` name resolves to a module or an
  attribute of one;
* every documented ``python -m repro …`` command line parses.
"""

import importlib
import re
import shlex
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
LINKED_DOCS = tuple(sorted(DOCS.glob("*.md"))) + tuple(
    ROOT / name for name in ("DESIGN.md", "EXPERIMENTS.md", "README.md")
)

_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.S)
_MARKDOWN_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
_FENCED_BLOCK = re.compile(r"```.*?```", re.S)
_BACKTICK_PATH = re.compile(r"`([\w./\-]+/[\w./\-]+\.(?:py|md|toml|yml))((?:::\w+)*)`")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.M)
_DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)`")
_SH_BLOCK = re.compile(r"```sh\n(.*?)```", re.S)
_CLI_LINE = re.compile(r"^(?:PYTHONPATH=src\s+)?python -m repro\b(.*)$")
_TRAILING_COMMENT = re.compile(r"\s+#.*$")

#: Documents whose ``sh`` blocks may show CLI lines.
CLI_DOCS = LINKED_DOCS + (ROOT / ".claude" / "skills" / "verify" / "SKILL.md",)


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
    """Backticked ``dir/file.ext`` references must name real files, and
    the classes and functions of a ``file.py::Class::test`` node id must
    be defined in that file."""
    text = doc.read_text()
    problems = []
    for ref, node in _BACKTICK_PATH.findall(text):
        candidates = (ROOT / ref, ROOT / "src" / ref, doc.parent / ref)
        found = [c for c in candidates if c.exists()]
        if not found:
            problems.append(ref)
            continue
        source = found[0].read_text()
        for name in node.split("::")[1:]:
            if not re.search(rf"^\s*(?:class|def) {name}\b", source, re.M):
                problems.append(f"{ref}{node}")
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


def _cli_lines() -> list:
    """One ``argv`` param, labelled ``doc:line``, per ``python -m repro``
    line in an ``sh`` block: ``\\`` continuations joined, a leading
    ``PYTHONPATH=src`` and a trailing ``# comment`` stripped."""
    cases = []
    for doc in CLI_DOCS:
        text = doc.read_text()
        for match in _SH_BLOCK.finditer(text):
            first = text.count("\n", 0, match.start(1)) + 1
            lines = match.group(1).split("\n")
            index = 0
            while index < len(lines):
                start, line = index, lines[index]
                while line.endswith("\\") and index + 1 < len(lines):
                    index += 1
                    line = line[:-1] + " " + lines[index].strip()
                index += 1
                command = _CLI_LINE.match(_TRAILING_COMMENT.sub("", line.strip()))
                if command is not None:
                    label = f"{doc.relative_to(ROOT)}:{first + start}"
                    cases.append(pytest.param(shlex.split(command.group(1)), id=label))
    return cases


@pytest.mark.parametrize("argv", _cli_lines())
def test_documented_cli_lines_parse(argv):
    """A documented command must be one the parser accepts (nothing runs)."""
    from repro.__main__ import build_parser

    try:
        build_parser().parse_args(argv)
    except SystemExit as exited:
        pytest.fail(f"python -m repro {shlex.join(argv)}: usage error {exited.code}")


class TestScenarioDocRefs:
    """Catalog ↔ doc drift guard for ``repro.scenarios`` and the claims.

    Every ``ScenarioSpec.doc_ref`` and every ``Claim.doc_ref`` of
    ``repro.core.claims.CLAIMS`` must resolve to a real anchor, and every
    catalog scenario must appear in ``docs/SCENARIOS.md``'s reference
    table — so the docs cannot silently diverge from the frozen catalog
    or from the paper's claims.
    """

    def test_every_doc_ref_resolves_to_a_real_anchor(self):
        from repro.core.claims import CLAIMS
        from repro.scenarios import SCENARIOS

        refs = {name: spec.doc_ref for name, spec in SCENARIOS.items()}
        refs.update((claim.name, claim.doc_ref) for claim in CLAIMS)
        problems = []
        for name, doc_ref in refs.items():
            path_part, _, fragment = doc_ref.partition("#")
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
