"""Shared fixtures; the expensive exact objects are built once per session."""
from collections import deque

import pytest

from dispersion import BudgetExceededError, ReachGraph, apply_move, available_moves, explore, flat_clusteron
from dispersion.reachability import DEFAULT_NODE_BUDGET
from dispersion.verify import RunContext


def bfs(start, step, node_budget):
    """Breadth-first closure of ``start`` under ``step``, deduplicated.

    The tests' reference search: its nodes come in discovery order, and
    more than ``node_budget`` reachable states raise :class:`BudgetExceededError`.
    """
    edges: dict = {}  # in discovery order
    seen = {start}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        if len(edges) >= node_budget:
            raise BudgetExceededError(node_budget)
        edges[s] = successors = step(s)
        for t in successors:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return ReachGraph(start, tuple(edges), edges)


def depths(g):
    """Minimum number of moves from the initial state to each node of ``g``."""
    depth = {g.initial: 0}
    for s in g.nodes:  # topological or breadth-first: depth[s] is final here
        for t in g.edges[s]:
            depth[t] = min(depth.get(t, depth[s] + 1), depth[s] + 1)
    return depth


@pytest.fixture(scope="session")
def verify_context():
    """One verification run at default budgets, shared by the whole session."""
    return RunContext()


@pytest.fixture(scope="session")
def rows(verify_context):
    """Exact scaled rows for sizes 3..10, keyed by size, from the run's memo."""
    return {n: verify_context.row(n) for n in range(3, 11)}


@pytest.fixture(scope="session")
def flat_graphs():
    """Reachability graphs of flat clusterons for sizes 1..7."""
    return {n: explore(flat_clusteron(n)) for n in range(1, 8)}


@pytest.fixture(scope="session")
def reference_explore():
    """The move graph built through ``available_moves``/``apply_move``.

    It runs :func:`bfs` and shares no code with :func:`explore`'s key-order
    walk or its packed successor kernel, so tests can hold the packed
    searches and the exact DP against it.
    """

    def step(s):
        return tuple(apply_move(s, m) for m in available_moves(s))

    return lambda s: bfs(s, step, DEFAULT_NODE_BUDGET)
