"""Permutation statistics and the bijection with recursive trees.

Depth-first reading of a tree, visiting children largest-first, gives
a permutation of 1..n-1; the inverse parent rule is "nearest earlier
value that is smaller".  Leaf counts map to special descents and the
smallest-child path end maps to the last value, which turns the tree
table into permutation tallies.

Each operation has one linear-time core on raw tuples.  The public
functions validate once (``_validate_word`` or ``RecursiveTree``) and
call it; the sweeps call the cores directly on tuples from
``permutations`` and ``product``, which are valid by construction.
"""
from __future__ import annotations

from itertools import permutations
from operator import gt
from typing import Callable, Iterator, NamedTuple

from .errors import DomainError
from .trees import Cell, RecursiveTree, RTable, _parent_tuples, _tree_stats, r_table_bruteforce


class PermStats(NamedTuple):
    """Descent counts and boundary values of a permutation word."""

    descents: int
    special_descents: int
    big_descents: int
    last: int
    first: int


def _validate_word(word: tuple[int, ...]) -> None:
    if not word or sorted(word) != list(range(1, len(word) + 1)):
        raise DomainError(f"not a permutation of 1..{len(word)}: {word}")


def perm_stats(word: tuple[int, ...]) -> PermStats:
    """Statistics per the definitions above.

    A descent is a position with word[i] > word[i+1]; it is big when
    the drop is at least 2.  Special descents additionally count a
    leading value of 1.
    """
    _validate_word(word)
    return _perm_stats(word)


def _perm_stats(word: tuple[int, ...]) -> PermStats:
    descents = _descents(word)
    big = sum(a - b >= 2 for a, b in zip(word, word[1:]))
    return PermStats(descents, _special_descents(word, descents), big, word[-1], word[0])


def _descents(word: tuple[int, ...]) -> int:
    """The positions i with word[i] > word[i+1]."""
    return sum(map(gt, word, word[1:]))


def _special_descents(word: tuple[int, ...], descents: int) -> int:
    """Special descents from the descent count: a leading 1 counts too."""
    return descents + (word[0] == 1)


def tree_to_perm(t: RecursiveTree) -> tuple[int, ...]:
    """Read the tree depth-first, children largest-first."""
    if t.n < 2:
        raise DomainError("the reading needs at least two vertices")
    return _reading(t.parents)


def _reading(parents: tuple[int | None, ...]) -> tuple[int, ...]:
    # Each vertex, smallest first, goes right after its parent: later
    # (larger) siblings land in front, and every subtree stays contiguous.
    after = [0] * len(parents)  # next vertex of the word; 0 ends it
    for v in range(1, len(parents)):
        p = parents[v]
        after[v] = after[p]
        after[p] = v
    out = [after[0]]
    for _ in range(2, len(parents)):
        out.append(after[out[-1]])
    return tuple(out)


def perm_to_tree(word: tuple[int, ...]) -> RecursiveTree:
    """Inverse reading: each value hangs below the nearest smaller
    value written before it (the root 0 counts as written first)."""
    _validate_word(word)
    return RecursiveTree(_parents_of(word))


def _parents_of(word: tuple[int, ...]) -> tuple[int | None, ...]:
    parents: list[int | None] = [None] * (len(word) + 1)
    stack = [0]  # the earlier values with no smaller value after them
    for value in word:
        while stack[-1] > value:
            stack.pop()
        parents[value] = stack[-1]
        stack.append(value)
    return tuple(parents)


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
    if len(word) < 2:
        raise DomainError("the relabeling needs both values 1 and 2")
    return _relabel(word)


def _relabel(word: tuple[int, ...]) -> tuple[int, ...]:
    top = len(word) + 3
    return tuple([3 - v if v < 3 else top - v for v in word])


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
    # _relabel of every value of 1..n-1 at once; index 0 is unused
    relabeled = (0, *_relabel(tuple(range(1, n)))).__getitem__

    special: dict[Cell, int] = {}
    descent: dict[Cell, int] = {}
    for word in permutations(range(1, n)):
        descents = _descents(word)
        last = word[-1]
        cell = (_special_descents(word, descents) + 1, last)
        special[cell] = special.get(cell, 0) + 1
        dcell = (descents + 1, last)
        descent[dcell] = descent.get(dcell, 0) + 1

        image = tuple(map(relabeled, word))
        if tuple(map(relabeled, image)) != word:
            bad.append(f"relabeling is not an involution at {word}")
        got = (_special_descents(image, _descents(image)) + 1, image[-1])
        if got != _involution_image(n, cell):
            bad.append(
                f"relabeling sends {cell} to {got}, "
                f"expected {_involution_image(n, cell)}"
            )

    start_two: dict[Cell, int] = {}
    for rest in permutations((1, *range(3, n + 1))):
        # (2, *rest) descends after its 2 exactly when rest starts with 1
        cell = (_special_descents(rest, _descents(rest)) + 1, rest[-1])
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
    if n < 2:
        raise DomainError("the reading needs at least two vertices")
    for parents in _parent_tuples(n):
        word = _reading(parents)
        if _parents_of(word) != parents:
            return False
        leaves, path_end, _ = _tree_stats(parents)
        if _special_descents(word, _descents(word)) != leaves - 1 or word[-1] != path_end:
            return False
    return True
