"""Permutation statistics and the bijection with recursive trees.

Depth-first reading of a tree, visiting children largest-first, gives
a permutation of 1..n-1; the inverse parent rule is "rightmost earlier
value that is smaller".  Leaf counts map to special descents and the
smallest-child path end maps to the last value, which turns the tree
table into permutation tallies.
"""
from __future__ import annotations

from itertools import permutations
from typing import Callable, Iterator, NamedTuple

from .errors import DomainError
from .trees import Cell, RecursiveTree, RTable, enumerate_trees, r_table_bruteforce, tree_stats


class PermStats(NamedTuple):
    """Descent counts and boundary values of a permutation word."""

    descents: int
    special_descents: int
    big_descents: int
    last: int
    first: int


def _validate_word(word: tuple[int, ...]) -> None:
    if sorted(word) != list(range(1, len(word) + 1)):
        raise DomainError(f"not a permutation of 1..{len(word)}: {word}")


def perm_stats(word: tuple[int, ...]) -> PermStats:
    """Statistics per the definitions above.

    A descent is a position with word[i] > word[i+1]; it is big when
    the drop is at least 2.  Special descents additionally count a
    leading value of 1.
    """
    _validate_word(word)
    descents = sum(1 for i in range(len(word) - 1) if word[i] > word[i + 1])
    big = sum(1 for i in range(len(word) - 1) if word[i] - word[i + 1] >= 2)
    special = descents + (1 if word[0] == 1 else 0)
    return PermStats(descents, special, big, word[-1], word[0])


def tree_to_perm(t: RecursiveTree) -> tuple[int, ...]:
    """Read the tree depth-first, children largest-first."""
    if t.n < 2:
        raise DomainError("the reading needs at least two vertices")
    children: list[list[int]] = [[] for _ in range(t.n)]
    for v in range(t.n - 1, 0, -1):  # descending, so lists are sorted
        children[t.parents[v]].append(v)
    out: list[int] = []
    stack = list(reversed(children[0]))
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed(children[v]))
    return tuple(out)


def perm_to_tree(word: tuple[int, ...]) -> RecursiveTree:
    """Inverse reading: each value hangs below the rightmost smaller
    value written before it (the root 0 counts as written first)."""
    _validate_word(word)
    parents: list[int | None] = [None] * (len(word) + 1)
    earlier = [0]
    for value in word:
        parent = next(u for u in reversed(earlier) if u < value)
        parents[value] = parent
        earlier.append(value)
    return RecursiveTree(tuple(parents))


def perms_of(n: int) -> Iterator[tuple[int, ...]]:
    """All permutations of 1..n in lexicographic order."""
    if n < 1:
        raise DomainError(f"permutations need n >= 1, got {n}")
    return permutations(range(1, n + 1))


def sign_involution(word: tuple[int, ...]) -> tuple[int, ...]:
    """Value relabeling: swap 1 and 2, and i with n+3-i for i > 2.

    An involution on permutations of 1..n for n >= 2 (it reverses the
    values 3..n; for n = 2 it only swaps 1 and 2).
    """
    _validate_word(word)
    n = len(word)
    if n < 2:
        raise DomainError("the relabeling needs both values 1 and 2")
    swap = {1: 2, 2: 1}
    for i in range(3, n + 1):
        swap[i] = n + 3 - i
    return tuple(swap[v] for v in word)


def _involution_image(n: int, cell: Cell) -> Cell:
    leaves, x = cell
    if x == 1:
        return (n + 1 - leaves, 2)
    if x == 2:
        return (n + 1 - leaves, 1)
    return (n - leaves, n + 2 - x)


def perm_count_checks(
    n: int, *, table: Callable[[int], RTable] | None = None
) -> tuple[str, ...]:
    """Equalities between permutation tallies and the size-n tree table.

    (a) special descents l-1 and last value x over 1..n-1 count the
        (l, x) trees;
    (b) plain descents l-1 and last value x-1 do too, for x >= 2;
    (c) permutations of 1..n starting with 2, with descents l-1, ending
        in x+1 (or in 1 when x = 1) count the (l, x) trees;
    (d) the value relabeling is an involution on permutations of 1..n-1
        sending the (l, 1) class to (n+1-l, 2), the (l, 2) class to
        (n+1-l, 1), and (l, x) to (n-l, n+2-x) for x > 2.

    ``table`` builds brute-force tables by size (default: enumerate).
    Returns the failed equalities; empty when all hold.
    """
    if n < 3:
        raise DomainError("the tally checks need n >= 3")
    tree_table = (table or r_table_bruteforce)(n)
    bad = []

    special: dict[Cell, int] = {}
    descent: dict[Cell, int] = {}
    for word in perms_of(n - 1):
        st = perm_stats(word)
        cell = (st.special_descents + 1, st.last)
        special[cell] = special.get(cell, 0) + 1
        dcell = (st.descents + 1, st.last)
        descent[dcell] = descent.get(dcell, 0) + 1

        image = sign_involution(word)
        if sign_involution(image) != word:
            bad.append(f"relabeling is not an involution at {word}")
        ist = perm_stats(image)
        got = (ist.special_descents + 1, ist.last)
        if got != _involution_image(n, cell):
            bad.append(
                f"relabeling sends {cell} to {got}, "
                f"expected {_involution_image(n, cell)}"
            )

    start_two: dict[Cell, int] = {}
    for rest in permutations((1, *range(3, n + 1))):
        st = perm_stats((2, *rest))
        cell = (st.descents + 1, st.last)
        start_two[cell] = start_two.get(cell, 0) + 1

    for leaves in range(1, n + 1):
        for x in range(1, n):
            r = tree_table.value(leaves, x)
            if special.get((leaves, x), 0) != r:
                bad.append(f"special-descent tally differs at {(leaves, x)}")
            if x >= 2 and descent.get((leaves, x - 1), 0) != r:
                bad.append(f"descent tally differs at {(leaves, x)}")
            target = 1 if x == 1 else x + 1
            if start_two.get((leaves, target), 0) != r:
                bad.append(f"start-with-2 tally differs at {(leaves, x)}")
    return tuple(bad)


def roundtrip_check(n: int) -> bool:
    """tree -> word -> tree is the identity and the statistics match:
    special descents = leaves - 1 and last value = path end."""
    for t in enumerate_trees(n):
        word = tree_to_perm(t)
        if perm_to_tree(word) != t:
            return False
        st = perm_stats(word)
        leaves, path_end, _ = tree_stats(t)
        if st.special_descents != leaves - 1 or st.last != path_end:
            return False
    return True
