"""Shared fixtures; the expensive exact objects are built once per session."""
from collections import deque

import pytest

from dispersion import (
    BudgetExceededError,
    ReachGraph,
    SuiteMove,
    apply_move,
    available_moves,
    explore,
    flat_clusteron,
    to_suites,
)
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


def run_scan_suite_move_for(s, m):
    """The suite move mirroring a room move, found by scanning runs.

    The tests' reference for :func:`dispersion.suite_move_for`: it
    encodes ``s``, counts runs up to the fired pair and reads the run's
    cell off the encoding.  It does not check that ``s`` has the move.
    """
    ss = to_suites(s)
    # locate the run containing the fired pair and the pair's index in it
    run_index = -1
    run_start = None
    prev = 0
    for room, c in zip(s.rooms(), s.occupancy):
        if c and not prev:
            run_index += 1
            run_start = room
        prev = c
        if room == m.left_room:
            break
    positive = [j for j, v in enumerate(ss.occupancy) if v > 0]
    return SuiteMove(ss.offset + positive[run_index], m.left_room - run_start + 1)


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
