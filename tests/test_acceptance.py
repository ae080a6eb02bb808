"""Acceptance checks for the exact dispersion engine.

Each test settles one headline claim and prints a single verdict line,
so a full run reads as a thirteen-line scorecard.  Criteria 1-12 run
their ``verify`` checks through the registry, sharing the session's run
context; criterion 13 samples.
"""
import math

import pytest

from dispersion import monte_carlo_counts, shadow_of_sumtroid
from dispersion.verify import run_checks

# criterion -> (scorecard label, the verify checks that settle it)
CRITERIA = {
    1: (
        "exact scaled rows for sizes 3..9 equal the frozen tables",
        ("prob.golden-rows", "prob.row-symmetry", "prob.serialization"),
    ),
    2: (
        "each of the n-1 final shadows has exact probability 1/(n-1), n <= 10",
        ("prob.uniform-shadows",),
    ),
    3: (
        "flat size-4 start: sumtroid changes -3,-1,0,1,3 with masses 1/6,1/6,1/3,1/6,1/6",
        ("prob.flat4-finals",),
    ),
    4: (
        "row support is |K| <= (n-1)(n-2)/2 with zeros exactly on one residue mod n, n <= 10",
        ("prob.zero-pattern",),
    ),
    5: (
        "window recurrence rebuilds rows 4..10, including the worked sums 0+1+2+1=4 and 1+2+4+4+0=11",
        ("window.worked-sums", "window.recurrence"),
    ),
    6: (
        "tree counts R(n,l,x) equal scaled row values at the mapped sumtroid, sizes 3..9",
        ("bridge.coordinates-roundtrip", "bridge.tree-counts-equal-row"),
    ),
    7: (
        "every clusteron of size 2..6 reaches the full shadow family, except 12 and 21 reach one each",
        ("finals.family-coverage", "finals.merge-shadows", "states.forced-chain"),
    ),
    8: (
        "predicted flat final placements match exploration for sizes 1..7; count is (n-3)(n-1)+2 from size 5",
        ("finals.flat-placements", "finals.sumtroid-determines"),
    ),
    9: (
        "locked-in equals spacious on flat graphs to size 7; entropy rises on every edge; no crowded isolated room emerges",
        (
            "locked.spacious-equivalence",
            "locked.gap-classes",
            "locked.gap-decrease-bound",
            "locked.no-crowded-isolated-room",
            "states.entropy-increase",
        ),
    ),
    10: (
        "suite encoding is an isomorphism of move graphs for flat sizes 2..6, with the size-4 trees matching node for node",
        ("suites.codec", "suites.move-correspondence", "states.parse-roundtrip"),
    ),
    11: (
        "tree table to size 9: recursion, margins, leaf totals, reading bijection, and descent tallies all agree",
        (
            "trees.recursion-vs-bruteforce",
            "trees.column-sums",
            "trees.root-leaf-split",
            "trees.leaf-totals",
            "trees.eulerian-column",
            "perms.stat-examples",
            "perms.tree-bijection",
            "perms.count-identities",
        ),
    ),
    12: (
        "flat starts to size 7: displacement is bounded by n-1 and the extreme policies attain it",
        ("states.displacement-bound", "states.labeled-pushing"),
    ),
}


@pytest.fixture
def announce(capsys):
    def _announce(num, label, ok):
        with capsys.disabled():
            print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {label}")

    return _announce


@pytest.fixture
def criterion(announce, verify_context):
    """Run one criterion's checks at default budgets and print its verdict."""

    def _criterion(num):
        label, ids = CRITERIA[num]
        results = run_checks(ids, verify_context)
        failed = [(r.check_id, r.detail) for r in results if r.status != "pass"]
        announce(num, label, not failed)
        assert not failed

    return _criterion


def test_01_scaled_rows_match_the_frozen_tables(criterion):
    criterion(1)


def test_02_every_final_shadow_is_equally_likely(criterion):
    criterion(2)


def test_03_flat_four_lands_in_five_placements_with_known_masses(criterion):
    criterion(3)


def test_04_row_support_and_zero_residues(criterion):
    criterion(4)


def test_05_each_row_is_a_sliding_window_sum_of_the_previous(criterion):
    criterion(5)


def test_06_tree_counts_equal_row_values_under_the_coordinate_map(criterion):
    criterion(6)


def test_07_every_starting_clusteron_reaches_the_whole_shadow_family(criterion):
    criterion(7)


def test_08_the_final_placements_of_flat_starts(criterion):
    criterion(8)


def test_09_locked_in_is_spacious_and_entropy_always_rises(criterion):
    criterion(9)


def test_10_suite_encoding_is_a_move_graph_isomorphism(criterion):
    criterion(10)


def test_11_tree_table_and_permutation_statistics(criterion):
    criterion(11)


def test_12_no_occupant_ever_moves_more_than_n_minus_one_rooms(criterion):
    criterion(12)


def test_13_a_million_seeded_samples_land_within_three_standard_errors(announce):
    n, samples, seed = 6, 1_000_000, 0
    counts = monte_carlo_counts(n, samples, seed)
    shadows = {k: 0 for k in range(1, n)}
    for k, c in counts.items():
        shadows[shadow_of_sumtroid(n, k)] += c
    p = 1 / (n - 1)
    sigma = math.sqrt(p * (1 - p) / samples)
    deviations = {k: abs(c / samples - p) for k, c in shadows.items()}
    ok = all(d <= 3 * sigma for d in deviations.values())
    rerun = monte_carlo_counts(n, samples, seed)
    ok &= rerun == counts
    announce(13, "10^6 seeded samples at size 6 put every shadow within 3 standard errors of 1/5, reruns bit-identical", ok)
    assert sum(shadows.values()) == samples
    assert ok, deviations
