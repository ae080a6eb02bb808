"""Recursive-tree enumeration and the (leaves, path end) count table."""
import math

import pytest
from hypothesis import given, strategies as st

from dispersion import (
    DomainError,
    RecursiveTree,
    ab_identities_check,
    enumerate_trees,
    eulerian_check,
    eulerian_triangle,
    r_table_bruteforce,
    r_table_recursive,
    t_values,
    total_trees,
    tree_stats,
)

parent_words = st.integers(2, 8).flatmap(
    lambda n: st.tuples(*(st.integers(0, v - 1) for v in range(1, n)))
)


def tree_from_word(word):
    return RecursiveTree((None, *word))


def reference_tree_stats(parents):
    """Leaf count through a generator over explicit degrees, then the path."""
    n = len(parents)
    child_count = [0] * n
    smallest_child = [n] * n
    for v in range(1, n):
        p = parents[v]
        child_count[p] += 1
        if v < smallest_child[p]:
            smallest_child[p] = v
    leaves = sum(1 for v in range(n) if child_count[v] + (1 if v else 0) == 1)
    v = 0
    while child_count[v]:
        v = smallest_child[v]
    return (leaves, v, child_count[0] == 1)


def test_tree_validation():
    with pytest.raises(DomainError):
        RecursiveTree(())
    with pytest.raises(DomainError):
        RecursiveTree((0,))
    with pytest.raises(DomainError):
        RecursiveTree((None, 1))
    with pytest.raises(DomainError, match=r"parent of 2 must lie in 0\.\.1, got True"):
        RecursiveTree((None, 0, True))
    with pytest.raises(DomainError, match="got False"):
        RecursiveTree((None, False))


@pytest.mark.parametrize("n", range(1, 9))
def test_stats_match_the_reference_kernel(n):
    for t in enumerate_trees(n):
        assert tree_stats(t) == reference_tree_stats(t.parents)


@pytest.mark.parametrize("n", range(2, 9))
def test_bruteforce_table_matches_a_reference_tally(n):
    r, a, b = {}, {}, {}
    for t in enumerate_trees(n):
        leaves, path_end, root_is_leaf = reference_tree_stats(t.parents)
        cell = (leaves, path_end)
        r[cell] = r.get(cell, 0) + 1
        side = b if root_is_leaf else a
        side[cell] = side.get(cell, 0) + 1
    table = r_table_bruteforce(n)
    assert (table.r, table.a, table.b) == (r, a, b)


def test_enumeration_counts_are_factorial():
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_trees(n)) == total_trees(n) == math.factorial(
            n - 1
        )


def test_stats_of_the_three_named_shapes():
    star = RecursiveTree((None, 0, 0, 0, 0))
    assert tree_stats(star) == (4, 1, False)
    chain = RecursiveTree((None, 0, 1, 2, 3))
    assert tree_stats(chain) == (2, 4, True)
    mixed = RecursiveTree((None, 0, 0, 0, 3))
    assert tree_stats(mixed) == (3, 1, False)


def test_smallest_trees_by_hand():
    assert tree_stats(RecursiveTree((None,))) == (0, 0, False)
    assert tree_stats(RecursiveTree((None, 0))) == (2, 1, True)


@given(parent_words)
def test_stats_lie_in_their_documented_ranges(word):
    t = tree_from_word(word)
    s = tree_stats(t)
    assert 2 <= s.leaves <= max(2, t.n - 1)
    assert 1 <= s.path_end <= t.n - 1
    assert s.root_is_leaf == (len(t.children(0)) == 1)


@pytest.mark.parametrize("n", range(2, 8))
def test_recursion_matches_bruteforce(n):
    assert r_table_recursive(n).r == r_table_bruteforce(n).r


def test_table_margins():
    table = r_table_bruteforce(6)
    for x in range(1, 6):
        assert sum(table.value(ell, x) for ell in range(1, 7)) == math.factorial(4)
    assert sum(table.r.values()) == math.factorial(5)


def test_root_leaf_split_identities():
    for n in range(3, 8):
        bad = ab_identities_check(n)
        assert bad == (), bad


def test_leaf_count_totals_at_size_five():
    assert t_values(5) == {2: 8, 3: 14, 4: 2}
    assert sum(t_values(6).values()) == math.factorial(5)


def test_smallest_tables_by_hand():
    assert r_table_recursive(2).r == {(2, 1): 1}
    assert r_table_recursive(3).r == {(2, 1): 1, (2, 2): 1}
    table4 = r_table_recursive(4)
    assert table4.value(2, 1) == 1
    assert table4.value(3, 1) == 1
    assert sum(table4.r.values()) == 6


def test_eulerian_alignment():
    for n in range(3, 8):
        bad = eulerian_check(n)
        assert bad == (), bad
    table5 = r_table_recursive(5)
    assert [table5.value(ell, 1) for ell in range(2, 5)] == [1, 4, 1]
    assert eulerian_triangle(5)[2] == [1, 4, 1]


def test_eulerian_triangle_rows_sum_to_factorials():
    tri = eulerian_triangle(7)
    for m, row in enumerate(tri, start=1):
        assert sum(row) == math.factorial(m)
