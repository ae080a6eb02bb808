"""Recursive trees and the leaf/path-end table behind the scaled rows.

A recursive tree on vertices 0..n-1 hangs every vertex below a smaller
one, so all root-to-leaf paths increase.  The table R(n, l, x) counts
trees with l degree-1 vertices whose smallest-child path from the root
ends at x; its cells match the nonzero entries of the scaled
final-sumtroid rows.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import factorial
from typing import Callable, Iterator, NamedTuple

from .errors import DomainError

Cell = tuple[int, int]  # (leaves, path_end)


@dataclass(frozen=True)
class RecursiveTree:
    """Rooted labeled tree given by parents; parents[0] is None.

    ``parents[v] < v`` for every non-root vertex, which is exactly the
    increasing-path condition.
    """

    parents: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if not self.parents or self.parents[0] is not None:
            raise DomainError("parents[0] must be None")
        for v, p in enumerate(self.parents):
            if v and (isinstance(p, bool) or not (isinstance(p, int) and 0 <= p < v)):
                raise DomainError(f"parent of {v} must lie in 0..{v - 1}, got {p}")

    @property
    def n(self) -> int:
        return len(self.parents)

    def children(self, v: int) -> tuple[int, ...]:
        return tuple(
            u for u in range(1, self.n) if self.parents[u] == v
        )


class TreeStats(NamedTuple):
    """Leaf count, end of the smallest-child path, and root leafness."""

    leaves: int
    path_end: int
    root_is_leaf: bool


def _parent_tuples(n: int) -> Iterator[tuple[int | None, ...]]:
    """The parents of all (n-1)! recursive trees, in lexicographic order."""
    if n < 1:
        raise DomainError("trees need at least one vertex")
    return product((None,), *(range(v) for v in range(1, n)))


def enumerate_trees(n: int) -> Iterator[RecursiveTree]:
    """All (n-1)! recursive trees, in lexicographic parent order."""
    return map(RecursiveTree, _parent_tuples(n))


def tree_stats(t: RecursiveTree) -> TreeStats:
    """Statistics per the definitions above.

    A leaf is a vertex of undirected degree 1, so the root counts when
    it has exactly one child.  The smallest-child path starts at the
    root and repeatedly steps to the smallest child until a childless
    vertex is reached.
    """
    return _tree_stats(t.parents)


def _tree_stats(parents: tuple[int | None, ...]) -> TreeStats:
    n = len(parents)
    child_count = [0] * n
    smallest_child = [0] * n  # 0: no child, as the root is nobody's child
    for v in range(n - 1, 0, -1):  # descending, so the smallest child is written last
        p = parents[v]
        child_count[p] += 1
        smallest_child[p] = v
    v = 0
    while smallest_child[v]:
        v = smallest_child[v]
    return TreeStats(child_count[1:].count(0) + (child_count[0] == 1), v, child_count[0] == 1)


@dataclass(frozen=True)
class RTable:
    """Sparse (leaves, path_end) -> count table, zero cells omitted.

    ``a`` and ``b`` split ``r`` by whether the root is a leaf; they are
    None for tables built by recursion, which tracks r only.
    """

    n: int
    r: dict[Cell, int]
    a: dict[Cell, int] | None = None
    b: dict[Cell, int] | None = None

    def value(self, leaves: int, path_end: int) -> int:
        return self.r.get((leaves, path_end), 0)

    def cells(self) -> list[Cell]:
        return sorted(self.r)


def r_table_bruteforce(n: int) -> RTable:
    """Tally every tree; exact but factorial-time."""
    if n < 2:
        raise DomainError("the table needs n >= 2")
    r: dict[Cell, int] = {}
    a: dict[Cell, int] = {}
    b: dict[Cell, int] = {}
    counts = Counter(map(_tree_stats, _parent_tuples(n)))
    for (leaves, path_end, root_is_leaf), count in counts.items():
        r[(leaves, path_end)] = r.get((leaves, path_end), 0) + count
        (b if root_is_leaf else a)[(leaves, path_end)] = count
    return RTable(n, r, a, b)


def r_table_recursive(n: int) -> RTable:
    """Build the table bottom-up from the two-vertex base case.

    Removing the largest vertex of a tree either deletes a leaf hanging
    below the path end or a leaf elsewhere, which yields

        R(n, l, x) = sum(R(n-1, l-1, i) for i in max(x, 2)..n-2)
                   + sum(R(n-1, l, i) for i in 1..max(x-1, 1))
    """
    if n < 2:
        raise DomainError("the table needs n >= 2")
    prev: dict[Cell, int] = {(2, 1): 1}
    for m in range(3, n + 1):
        cur: dict[Cell, int] = {}
        for leaves in range(2, m):
            for x in range(1, m):
                total = sum(
                    prev.get((leaves - 1, i), 0) for i in range(max(x, 2), m - 1)
                )
                total += sum(
                    prev.get((leaves, i), 0) for i in range(1, max(x - 1, 1) + 1)
                )
                if total:
                    cur[(leaves, x)] = total
        prev = cur
    return RTable(n, prev)


def ab_identities_check(
    n: int, *, table: Callable[[int], RTable] | None = None
) -> tuple[str, ...]:
    """Cell-wise check of the root-leaf split identities at size n.

    Checked: a + b = r; b(n, l, 1) = 0; b(n, l, x) equals
    a(n-1, l-1, x-1) + b(n-1, l, x-1); a(n, l, 1) equals the row sum of
    b(n, l, x) over x >= 2.  ``table`` builds brute-force tables by size
    (default: enumerate).  Returns the failed identities; empty when all
    hold.
    """
    if n < 3:
        raise DomainError("the split identities need n >= 3")
    table = table or r_table_bruteforce
    cur = table(n)
    prev = table(n - 1)
    bad = []
    cells = set(cur.r) | set(cur.a) | set(cur.b)
    for cell in sorted(cells):
        if cur.a.get(cell, 0) + cur.b.get(cell, 0) != cur.r.get(cell, 0):
            bad.append(f"a+b != r at {cell}")
    for leaves in range(2, n):
        if cur.b.get((leaves, 1), 0):
            bad.append(f"b({n},{leaves},1) != 0")
        expected = sum(cur.b.get((leaves, x), 0) for x in range(2, n))
        if cur.a.get((leaves, 1), 0) != expected:
            bad.append(f"a({n},{leaves},1) != sum of b({n},{leaves},x>=2)")
        for x in range(2, n):
            lhs = cur.b.get((leaves, x), 0)
            rhs = prev.a.get((leaves - 1, x - 1), 0) + prev.b.get(
                (leaves, x - 1), 0
            )
            if lhs != rhs:
                bad.append(f"b({n},{leaves},{x}) != a+b of previous size")
    return tuple(bad)


def t_values(n: int) -> dict[int, int]:
    """Tree counts by leaf count: row sums of the table over path ends."""
    out: dict[int, int] = {}
    for (leaves, _), count in r_table_bruteforce(n).r.items():
        out[leaves] = out.get(leaves, 0) + count
    return dict(sorted(out.items()))


def eulerian_triangle(n: int) -> list[list[int]]:
    """Rows 1..n of the Eulerian triangle; row m counts permutations
    of m elements by descents 0..m-1."""
    if n < 1:
        raise DomainError("the triangle needs n >= 1")
    rows = [[1]]
    for m in range(2, n + 1):
        prev = rows[-1]
        row = []
        for k in range(m):
            left = (k + 1) * prev[k] if k < m - 1 else 0
            right = (m - k) * prev[k - 1] if k > 0 else 0
            row.append(left + right)
        rows.append(row)
    return rows


def eulerian_check(
    n: int, *, table: Callable[[int], RTable] | None = None
) -> tuple[str, ...]:
    """Checks on the x = 1 column of the tree table.

    Checked against brute force for sizes 3..n: the column recursion
    r(m, l, 1) = (l-1) r(m-1, l, 1) + (m-l) r(m-1, l-1, 1), and the
    alignment r(m, l, 1) = Eulerian(m-2, l-2).  ``table`` builds
    brute-force tables by size (default: enumerate).  Returns the failed
    cells; empty when the column obeys both.

    The recursion counts where the largest vertex was attached: onto
    one of the l-1 leaves other than vertex 1 (leaf count unchanged)
    or onto one of the m-l non-leaves of a table cell with one leaf
    fewer.  It is the classical Eulerian recurrence reindexed.
    """
    if n < 3:
        raise DomainError("the column checks need n >= 3")
    tables = {m: (table or r_table_bruteforce)(m) for m in range(2, n + 1)}
    triangle = eulerian_triangle(n - 2)
    bad = []
    for m in range(3, n + 1):
        for leaves in range(2, m):
            got = tables[m].value(leaves, 1)
            rec = (leaves - 1) * tables[m - 1].value(leaves, 1) + (
                m - leaves
            ) * tables[m - 1].value(leaves - 1, 1)
            if got != rec:
                bad.append(f"column recursion fails at ({m},{leaves},1)")
            row = triangle[m - 3]
            eul = row[leaves - 2] if 0 <= leaves - 2 < len(row) else 0
            if got != eul:
                bad.append(f"Eulerian alignment fails at ({m},{leaves},1)")
    return tuple(bad)


def total_trees(n: int) -> int:
    """(n-1)!, the number of recursive trees on n vertices."""
    return factorial(n - 1)
