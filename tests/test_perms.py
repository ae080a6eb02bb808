"""Permutation statistics and the tree reading bijection."""
import math

import pytest
from hypothesis import given, strategies as st

from dispersion import (
    DomainError,
    RecursiveTree,
    RTable,
    enumerate_trees,
    perm_count_checks,
    perm_stats,
    perm_to_tree,
    perms_of,
    r_table_recursive,
    sign_involution,
    tree_stats,
    tree_to_perm,
)
from dispersion import perms

perm_words = st.integers(1, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)
swappable_words = st.integers(2, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
)
parent_words = st.integers(2, 8).flatmap(
    lambda n: st.tuples(*(st.integers(0, v - 1) for v in range(1, n)))
)


# Reference kernels: the direct definitions the linear-time cores
# replaced, kept to pin the cores on every small tree and word.


def reference_reading(parents):
    """Depth-first reading from explicit child lists, largest child first."""
    children = [[] for _ in parents]
    for v in range(len(parents) - 1, 0, -1):  # descending, so lists are sorted
        children[parents[v]].append(v)
    out = []
    stack = list(reversed(children[0]))
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(children[v]))
    return tuple(out)


def reference_parents(word):
    """Each value hangs below the rightmost smaller value written before it."""
    parents = [None] * (len(word) + 1)
    earlier = [0]
    for value in word:
        parents[value] = next(u for u in reversed(earlier) if u < value)
        earlier.append(value)
    return tuple(parents)


def reference_descents(word):
    """Descents and big descents (drop at least 2), one sum each."""
    descents = sum(1 for i in range(len(word) - 1) if word[i] > word[i + 1])
    big = sum(1 for i in range(len(word) - 1) if word[i] - word[i + 1] >= 2)
    return descents, big


def reference_relabel(word):
    """Swap 1 and 2 and send i to n+3-i for i > 2, through a lookup table."""
    n = len(word)
    swap = {1: 2, 2: 1}
    for i in range(3, n + 1):
        swap[i] = n + 3 - i
    return tuple(swap[v] for v in word)


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
    for fn in (perm_stats, perm_to_tree, sign_involution):
        with pytest.raises(DomainError):
            fn(())


@pytest.mark.parametrize("n", range(1, 9))
def test_word_cores_match_the_reference_kernels(n):
    for word in perms_of(n):
        descents, big = reference_descents(word)
        special = descents + (1 if word[0] == 1 else 0)
        assert perm_stats(word) == (descents, special, big, word[-1], word[0])
        assert perm_to_tree(word).parents == reference_parents(word)
        if n >= 2:
            assert sign_involution(word) == reference_relabel(word)


@pytest.mark.parametrize("n", range(1, 9))
def test_reading_matches_the_reference_kernel(n):
    for t in enumerate_trees(n):
        if n == 1:
            with pytest.raises(DomainError):
                tree_to_perm(t)
        else:
            assert tree_to_perm(t) == reference_reading(t.parents)


def test_roundtrip_sweep_detects_a_wrong_parent_rule(monkeypatch):
    def nearest_later_smaller(word):
        return reference_parents(word[::-1])

    monkeypatch.setattr(perms, "_parents_of", nearest_later_smaller)
    assert not perms.roundtrip_check(4)


def test_roundtrip_sweep_needs_two_vertices():
    with pytest.raises(DomainError):
        perms.roundtrip_check(1)


def test_count_sweep_detects_a_wrong_table():
    def shifted(n):  # every path end moved up by one, cyclically
        table = r_table_recursive(n)
        return RTable(n, {(l, x % (n - 1) + 1): c for (l, x), c in table.r.items()})

    bad = perm_count_checks(6, table=shifted)
    assert bad and all("tally differs" in line for line in bad)


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
