"""The paper's claims: every row of ``repro.core.claims.CLAIMS``, checked once.

One report at ``python -m repro report``'s bounds checks each row; the
tests read its verdicts.  The sections the report had before the rows
existed are pinned as digests taken while it was still assembled by
hand: at the report's bounds, at ``--fast``, and at small bounds.  The
rows' own sections follow them, one per row with more to show.
"""

import hashlib
import re

import pytest

from repro.atomicity.explore import ExplorationBounds
from repro.atomicity.properties import HybridAtomicity
from repro.core.claims import CLAIMS, paper_report
from repro.dependency import known
from repro.types import DoubleBuffer, Queue

RULE = "=" * 72

#: ``(heading, first 16 hex digits of the sha256 of the body)`` per section.
#: The title section's was re-taken when its last line stopped pointing at a
#: separate bench tree and named the measured rows instead.
PINNED = {
    "report": (
        ("Comparing How Atomicity Mechanisms Support Replication", "dcb8ea7f30d8b3d0"),
        ("Figure 1-1: concurrency", "d5c99ae4ce862d12"),
        ("Theorems 4, 5, 6, 10, 11, 12 + FlagSet", "ae86be9ba6da5b29"),
        ("Figure 1-2: constraints on quorum assignment (Queue)", "4b850c7c2706dc3f"),
        ("Section 4: the PROM example (n = 5, p = 0.9)", "27968c745e1bb7ce"),
        ("Conclusion", "dcd68453179a8321"),
    ),
    "fast": (
        ("Comparing How Atomicity Mechanisms Support Replication", "dcb8ea7f30d8b3d0"),
        ("Figure 1-1: concurrency", "d5c99ae4ce862d12"),
        ("Theorems 4, 5, 6, 10, 11, 12 + FlagSet", "964617c714afe92e"),
        ("Figure 1-2: constraints on quorum assignment (Queue)", "4b850c7c2706dc3f"),
        ("Section 4: the PROM example (n = 5, p = 0.9)", "27968c745e1bb7ce"),
        ("Conclusion", "dcd68453179a8321"),
    ),
    "small": (
        ("Comparing How Atomicity Mechanisms Support Replication", "dcb8ea7f30d8b3d0"),
        ("Figure 1-1: concurrency", "249700e188effbed"),
        ("Theorems 4, 5, 6, 10, 11, 12 + FlagSet", "964617c714afe92e"),
        ("Figure 1-2: constraints on quorum assignment (Queue)", "d1f829b5957933d2"),
        ("Section 4: the PROM example (n = 3, p = 0.9)", "a186d00787f4db7d"),
        ("Conclusion", "dcd68453179a8321"),
    ),
}

#: First 16 hex digits of the sha256 of a measured row's ``detail``, taken
#: while the rows still built their clusters and generators by hand: their
#: seeded figures held when the runs moved onto ``build_scenario``.
ROW_DETAILS = {
    "End-to-end availability": "1850aed9d90548ea",
    "End-to-end concurrency": "8c0458f16a32410e",
}

NAMES = [
    "Figure 1-1",
    "Theorem 4",
    "Theorem 5",
    "Theorem 6",
    "Theorem 10",
    "Theorem 11",
    "Theorem 12",
    "FlagSet example",
    "Figure 1-2",
    "PROM quorum example",
    "Figure 3-1",
    "End-to-end availability",
    "End-to-end concurrency",
    "Read/write ablation",
    "Available copies contrast",
    "Weighted voting",
    "Type catalog",
]


def _sections(text: str) -> list[tuple[str, str]]:
    parts = re.split(rf"^{RULE}\n(.*)\n{RULE}$", text, flags=re.M)
    assert parts[0] == ""
    return [
        (title, hashlib.sha256(body.strip("\n").encode()).hexdigest()[:16])
        for title, body in zip(parts[1::2], parts[2::2])
    ]


def _row_headings(report) -> list[str]:
    by_name = {claim.name: claim for claim in CLAIMS}
    return [
        f"{name} ({by_name[name].doc_ref})"
        for name, verdict in report.verdicts.items()
        if verdict.detail
    ]


@pytest.fixture(scope="module")
def report():
    return paper_report()


def test_one_row_per_result_and_figure_plus_the_catalog():
    assert [claim.name for claim in CLAIMS] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_row_holds(report, name):
    verdict = report.verdicts[name]
    assert verdict.holds, verdict.text or verdict.detail


@pytest.mark.parametrize("name", sorted(ROW_DETAILS))
def test_measured_row_detail_is_pinned(report, name):
    detail = report.verdicts[name].detail
    assert hashlib.sha256(detail.encode()).hexdigest()[:16] == ROW_DETAILS[name]


@pytest.mark.parametrize(
    "label,bounds",
    [
        ("fast", {"fast_theorems": True}),
        (
            "small",
            {
                "concurrency_bounds": ExplorationBounds(max_ops=2, max_actions=2),
                "serial_bound": 3,
                "prom_sites": 3,
                "fast_theorems": True,
            },
        ),
    ],
)
def test_trimmed_reports_keep_the_pinned_sections(label, bounds):
    trimmed = paper_report(**bounds)
    assert trimmed.failed == []
    sections = _sections(trimmed)
    assert tuple(sections[: len(PINNED[label])]) == PINNED[label]
    # ``--fast`` skips the rows' own searches, so only their other sections.
    assert [title for title, _ in sections[len(PINNED[label]) :]] == _row_headings(trimmed)


def test_report_keeps_the_pinned_sections_then_adds_the_rows(report):
    sections = _sections(report)
    pinned = PINNED["report"]
    assert tuple(sections[: len(pinned)]) == pinned
    assert [title for title, _ in sections[len(pinned) :]] == _row_headings(report)
    assert [heading.split(" (")[0] for heading in _row_headings(report)] == [
        "Theorem 12",
        "FlagSet example",
        "Figure 1-2",
        "PROM quorum example",
        "Figure 3-1",
        "End-to-end availability",
        "End-to-end concurrency",
        "Read/write ablation",
        "Available copies contrast",
        "Weighted voting",
        "Type catalog",
    ]


def test_the_conclusion_rests_on_row_evidence(report):
    # "the hybrid frontier above contains the paper's 1/n/1 point"
    frontier = report.verdicts["PROM quorum example"].evidence["frontiers"]["hybrid"]
    assert any(
        (choice.initial_of("Read"), choice.initial_of("Seal"), choice.initial_of("Write"))
        == (1, 5, 1)
        and choice.final_of("Write") == 1
        for choice, _vector in frontier
    )
    # "every static relation verified as hybrid"
    theorem_4 = report.verdicts["Theorem 4"].evidence
    assert theorem_4.holds and all(line.endswith(": True") for line in theorem_4.details)
    # "hybrid admitted strictly more bounded histories than strong dynamic"
    admitted = report.verdicts["Figure 1-1"].evidence["admitted"]
    assert admitted["hybrid"] > admitted["dynamic"]


def test_battery_rows_print_their_theorem(report):
    for name in NAMES[1:8]:
        verdict = report.verdicts[name]
        assert "VERIFIED" in verdict.text and verdict.evidence.claim in verdict.text


def test_figure_1_1_counts_within_its_universe(report):
    evidence = report.verdicts["Figure 1-1"].evidence
    assert evidence["universe"] >= max(evidence["admitted"].values())
    assert ("static", "hybrid") in evidence["witnesses"]


def test_figure_1_2_relations(report):
    evidence = report.verdicts["Figure 1-2"].evidence
    assert len(evidence["static"]) == 8 and len(evidence["dynamic"]) > 0


def test_figure_3_1_renders_a_column_per_repository(report):
    detail = report.verdicts["Figure 3-1"].detail
    assert all(f"Repository {site}" in detail for site in range(3))
    assert "Enq" in detail and "merged log: 5 entries" in detail


def test_catalog_table_is_ordered_by_dynamic_coupling(report):
    verdict = report.verdicts["Type catalog"]
    coupling = verdict.evidence["coupling"]
    assert all(0 < share <= 1 for pair in coupling.values() for share in pair)
    table = [line.split()[0] for line in verdict.detail.splitlines() if "%" in line]
    assert table == sorted(coupling, key=lambda name: coupling[name][1])
    assert f"{'Register':<14} {2:>3}" in verdict.detail  # two operations


# Figure 1-1: the lattice, one relation per test, from the row's witnesses.


def _contains(report, first, second):
    return (first, second) not in report.verdicts["Figure 1-1"].evidence["witnesses"]


def test_dynamic_contained_in_hybrid(report):
    assert _contains(report, "dynamic", "hybrid")


def test_hybrid_strictly_larger_than_dynamic(report):
    assert not _contains(report, "hybrid", "dynamic")


@pytest.mark.parametrize("other", ["hybrid", "dynamic"])
def test_static_incomparable_to(report, other):
    assert not _contains(report, "static", other)
    assert not _contains(report, other, "static")


def test_figure_1_1_prints_what_its_witnesses_show(report):
    text = report.verdicts["Figure 1-1"].text
    assert "Dynamic(T) ⊆ Hybrid(T):          True" in text
    assert "static vs dynamic incomparable:  True" in text


# Figure 1-2 and Theorems 6 / 10: Queue's relations against the paper's.


def test_queue_minimal_static_relation_is_the_papers(report):
    static = report.verdicts["Figure 1-2"].evidence["static"]
    assert static == known.ground(Queue(), known.QUEUE_STATIC, 6)


def test_queue_minimal_dynamic_relation_is_the_papers(report):
    dynamic = report.verdicts["Figure 1-2"].evidence["dynamic"]
    assert dynamic == known.ground(Queue(), known.QUEUE_DYNAMIC, 6)


def test_static_contains_the_hybrid_relation(report):
    evidence = report.verdicts["Figure 1-2"].evidence
    assert evidence["hybrid"] <= evidence["static"]


def test_dynamic_adds_and_drops_pairs_against_static_and_hybrid(report):
    evidence = report.verdicts["Figure 1-2"].evidence
    dynamic = evidence["dynamic"]
    for other in (evidence["static"], evidence["hybrid"]):
        assert dynamic.difference(other) and other.difference(dynamic)


# Theorem 12 and FlagSet: the searches only these rows make.


def test_doublebuffer_witness_replays():
    hybrid = HybridAtomicity(DoubleBuffer())
    history, subhistory, appended = known.doublebuffer_theorem12_witness()
    assert hybrid.admits(history)
    assert hybrid.admits(subhistory.append(appended))
    assert not hybrid.admits(history.append(appended))


def test_doublebuffer_search_refutes_hybrid_not_dynamic(report):
    detail = report.verdicts["Theorem 12"].detail
    assert "search-found counterexample:\nnone" not in detail
    assert "Dynamic(DoubleBuffer): no counterexample" in detail


def test_flagset_search_finds_both_completions(report):
    detail = report.verdicts["FlagSet example"].detail
    assert "valid single-pair completions found by search (2 of them)" in detail
    assert "core alone fails Definition 2; counterexample found:\nnone" not in detail


def test_every_theorem_verified(report):
    assert report.count("VERIFIED") >= 7
    assert "FAILED" not in report


# PROM: the quorum sizes, the sweep and the frontiers.


def test_prom_quorum_sizes_match_paper(report):
    sizes = report.verdicts["PROM quorum example"].evidence["sizes"]
    assert sizes == [(n, 1, n) for n in (3, 5, 7)]  # 1/n/1 hybrid, 1/n/n static


def test_prom_hybrid_write_beats_static_over_the_sweep(report):
    sweep = report.verdicts["PROM quorum example"].evidence["sweep"]
    assert len(sweep) == 7 and all(hybrid > static for _p, hybrid, static in sweep)


def test_prom_frontiers_rendered(report):
    text = report.verdicts["PROM quorum example"].text
    assert "HYBRID frontier:" in text and "STATIC frontier:" in text
    assert "availability:" in text


# Figure 3-1: the runtime's partially replicated log.


def test_figure_3_1_log_is_partially_replicated(report):
    evidence = report.verdicts["Figure 3-1"].evidence
    assert all(count > 0 for count in evidence["counts"])
    assert evidence["merged"] == 5 and min(evidence["counts"]) < 5
    operations = evidence["operations"]
    assert len(operations) == 5 and all(span.outcome == "ok" for span in operations)


# Type catalog: the orderings the table is read for.


def test_semiqueue_weaker_than_queue(report):
    coupling = report.verdicts["Type catalog"].evidence["coupling"]
    assert coupling["SemiQueue"][1] < coupling["Queue"][1]


def test_mutex_heavily_coupled(report):
    coupling = report.verdicts["Type catalog"].evidence["coupling"]
    assert coupling["Mutex"][1] > coupling["Counter"][1]
