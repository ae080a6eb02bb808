"""Permutation statistics and the tree reading bijection."""
import math

import pytest
from hypothesis import given, strategies as st

from dispersion import (
    DomainError,
    RecursiveTree,
    perm_count_checks,
    perm_stats,
    perm_to_tree,
    perms_of,
    sign_involution,
    tree_stats,
    tree_to_perm,
)

perm_words = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)
swappable_words = st.integers(2, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)
parent_words = st.integers(2, 8).flatmap(
    lambda n: st.tuples(*(st.integers(0, v - 1) for v in range(1, n)))
)


def test_stats_on_documented_words():
    assert perm_stats((2, 3, 4, 1)) == (1, 1, 1, 1, 2)
    assert perm_stats((1, 2, 3, 4)) == (0, 1, 0, 4, 1)
    assert perm_stats((4, 3, 2, 1)) == (3, 3, 0, 1, 4)
    assert perm_stats((3, 4, 2, 1)) == (2, 2, 1, 1, 3)


def test_non_permutations_are_rejected():
    with pytest.raises(DomainError):
        perm_stats((1, 1, 2))
    with pytest.raises(DomainError):
        perm_stats((2, 3))


def test_readings_of_the_named_trees():
    assert tree_to_perm(RecursiveTree((None, 0, 0, 0, 0))) == (4, 3, 2, 1)
    assert tree_to_perm(RecursiveTree((None, 0, 1, 2, 3))) == (1, 2, 3, 4)
    assert tree_to_perm(RecursiveTree((None, 0, 0, 0, 3))) == (3, 4, 2, 1)


def test_reading_the_inverse_direction():
    assert perm_to_tree((3, 4, 2, 1)) == RecursiveTree((None, 0, 0, 0, 3))
    assert perm_to_tree((1,)) == RecursiveTree((None, 0))


@given(parent_words)
def test_roundtrip_from_trees(word):
    t = RecursiveTree((None, *word))
    assert perm_to_tree(tree_to_perm(t)) == t


@given(perm_words)
def test_roundtrip_from_words(word):
    assert tree_to_perm(perm_to_tree(word)) == word


@given(parent_words)
def test_reading_carries_the_statistics(word):
    t = RecursiveTree((None, *word))
    ts = tree_stats(t)
    ps = perm_stats(tree_to_perm(t))
    assert ps.special_descents == ts.leaves - 1
    assert ps.last == ts.path_end


@given(swappable_words)
def test_sign_involution_is_an_involution(word):
    flipped = sign_involution(word)
    assert sorted(flipped) == sorted(word)
    assert sign_involution(flipped) == word


def test_sign_involution_on_small_words():
    assert sign_involution((1, 2)) == (2, 1)
    assert sign_involution((1, 2, 3)) == (2, 1, 3)
    assert sign_involution((1, 3, 2, 4)) == (2, 4, 1, 3)
    with pytest.raises(DomainError):
        sign_involution((1,))


@pytest.mark.parametrize("n", range(3, 8))
def test_all_count_identities(n):
    bad = perm_count_checks(n)
    assert bad == (), bad


def test_perm_enumeration_is_complete():
    words = list(perms_of(4))
    assert len(words) == math.factorial(4)
    assert len(set(words)) == math.factorial(4)
    assert words[0] == (1, 2, 3, 4)
