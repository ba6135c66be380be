"""The PROM quorum example (Section 4) — the paper's headline table.

"Consider a PROM replicated among n identical sites to maximize the
availability of the Read operation.  Hybrid atomicity permits Read, Seal
and Write quorums respectively consisting of any one, n, and one sites,
while static atomicity would require Read, Seal and Write quorums to
consist of any one, n, and n sites."

This benchmark regenerates that comparison as a table: for n ∈ {3,5,7}
and a sweep of per-site up-probabilities, the best Write availability
achievable while keeping Read at a single site, under each property's
minimal constraints — plus the full Pareto frontier at n = 5.
"""

import pytest
from conftest import report

from repro.dependency import known
from repro.quorum.search import threshold_frontier, valid_threshold_choices
from repro.types import PROM

OPS = ("Read", "Seal", "Write")


def _best_write_with_single_site_read(relation, n):
    """Smallest Write quorum size compatible with Read initial = 1."""
    best = None
    for choice in valid_threshold_choices(relation, n, OPS):
        if choice.initial_of("Read") != 1:
            continue
        write_size = max(choice.initial_of("Write"), choice.final_of("Write"))
        if best is None or write_size < best:
            best = write_size
    return best


@pytest.fixture(scope="module")
def relations():
    prom = PROM()
    return (
        known.ground(prom, known.PROM_HYBRID, 5),
        known.ground(prom, known.PROM_STATIC, 5),
    )


def test_prom_quorum_sizes_match_paper(relations, benchmark):
    hybrid, static = relations

    def table_rows():
        rows = []
        for n in (3, 5, 7):
            rows.append(
                (
                    n,
                    _best_write_with_single_site_read(hybrid, n),
                    _best_write_with_single_site_read(static, n),
                )
            )
        return rows

    rows = benchmark.pedantic(table_rows, rounds=1, iterations=1)
    lines = [
        "PROM replicated among n identical sites, Read availability maximized",
        "(smallest achievable Write quorum given single-site Read):",
        "",
        f"{'n':>3} {'hybrid Write quorum':>20} {'static Write quorum':>20}",
    ]
    for n, hybrid_write, static_write in rows:
        assert hybrid_write == 1, "hybrid permits Read/Seal/Write = 1/n/1"
        assert static_write == n, "static forces Read/Seal/Write = 1/n/n"
        lines.append(f"{n:>3} {hybrid_write:>20} {static_write:>20}")
    report("prom_quorum_sizes", "\n".join(lines))


def test_prom_availability_sweep(relations, benchmark):
    hybrid, static = relations
    n = 5
    probabilities = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)

    def best_write(frontier):
        best = 0.0
        for choice, vector in frontier:
            values = dict(vector)
            if choice.initial_of("Read") == 1:
                best = max(best, values["Write"])
        return best

    def sweep():
        return [
            (
                p,
                best_write(threshold_frontier(hybrid, n, OPS, p)),
                best_write(threshold_frontier(static, n, OPS, p)),
            )
            for p in probabilities
        ]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        f"Write availability with single-site Reads, n = {n} sites:",
        "",
        f"{'p(site up)':>10} {'hybrid':>10} {'static':>10} {'ratio':>8}",
    ]
    for p, hybrid_av, static_av in rows:
        assert hybrid_av > static_av, "hybrid dominates static for Write"
        lines.append(
            f"{p:>10.2f} {hybrid_av:>10.4f} {static_av:>10.4f} "
            f"{hybrid_av / static_av:>8.2f}"
        )
    report("prom_availability_sweep", "\n".join(lines))


def test_prom_pareto_frontiers(relations, benchmark):
    hybrid, static = relations
    n, p = 5, 0.9

    def frontiers():
        return (
            threshold_frontier(hybrid, n, OPS, p),
            threshold_frontier(static, n, OPS, p),
        )

    hybrid_frontier, static_frontier = benchmark.pedantic(
        frontiers, rounds=1, iterations=1
    )
    lines = [f"Pareto frontiers, n = {n}, p = {p}:", "", "HYBRID:"]
    for choice, vector in hybrid_frontier:
        values = ", ".join(f"{op}={av:.4f}" for op, av in vector)
        lines.append(f"  {choice.describe()}")
        lines.append(f"      availability: {values}")
    lines.append("")
    lines.append("STATIC:")
    for choice, vector in static_frontier:
        values = ", ".join(f"{op}={av:.4f}" for op, av in vector)
        lines.append(f"  {choice.describe()}")
        lines.append(f"      availability: {values}")
    report("prom_pareto_frontiers", "\n".join(lines))
