"""Shared fixtures; the expensive exact objects are built once per session."""
import pytest

from dispersion import apply_move, available_moves, explore, flat_clusteron
from dispersion.reachability import DEFAULT_NODE_BUDGET, _bfs
from dispersion.verify import RunContext


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

    It shares only the BFS with :func:`explore`, not the packed successor
    kernel, so tests can hold the packed search and the exact DP against it.
    """

    def step(s):
        return tuple(apply_move(s, m) for m in available_moves(s))

    return lambda s: _bfs(s, step, DEFAULT_NODE_BUDGET)
