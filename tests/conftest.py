"""Shared fixtures; the expensive exact objects are built once per session."""
import pytest

from dispersion import explore, flat_clusteron
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
