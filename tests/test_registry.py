"""The claim registry: frozen check ids, suites, budgets and scorecard map."""
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import replace

import pytest

from dispersion import BudgetExceededError, DomainError, probability, verify
from dispersion.verify import (
    CHECKS,
    DEFAULT_MAX_N,
    SUITES,
    UNITS,
    RunContext,
    run_suite,
    run_suites,
)

from test_acceptance import CRITERIA

# The ids `dispersion verify` reports, in its order: suites by name, then
# each suite's checks in registration order.
FROZEN_IDS = [
    "bridge.coordinates-roundtrip",
    "bridge.tree-counts-equal-row",
    "finals.family-coverage",
    "finals.flat-placements",
    "finals.sumtroid-determines",
    "finals.merge-shadows",
    "locked.spacious-equivalence",
    "locked.gap-classes",
    "locked.gap-decrease-bound",
    "locked.no-crowded-isolated-room",
    "perms.stat-examples",
    "perms.tree-bijection",
    "perms.count-identities",
    "prob.golden-rows",
    "prob.uniform-shadows",
    "prob.flat4-finals",
    "prob.zero-pattern",
    "prob.row-symmetry",
    "prob.serialization",
    "states.parse-roundtrip",
    "states.forced-chain",
    "states.entropy-increase",
    "states.labeled-pushing",
    "states.displacement-bound",
    "suites.codec",
    "suites.move-correspondence",
    "trees.recursion-vs-bruteforce",
    "trees.column-sums",
    "trees.root-leaf-split",
    "trees.leaf-totals",
    "trees.eulerian-column",
    "window.worked-sums",
    "window.recurrence",
]


def test_verify_reports_the_frozen_ids_in_order(monkeypatch):
    stubs = {i: replace(c, fn=lambda ctx, top: "stub") for i, c in CHECKS.items()}
    monkeypatch.setattr(verify, "CHECKS", stubs)
    ids = [c.check_id for r in run_suites() for c in r.checks]
    assert ids == FROZEN_IDS
    assert len(set(ids)) == len(ids) == len(CHECKS)
    assert all(c.suite in SUITES for c in CHECKS.values())


def test_each_check_is_scored_by_exactly_one_criterion():
    scored = Counter(i for _, ids in CRITERIA.values() for i in ids)
    assert scored == Counter(FROZEN_IDS)


def test_default_budgets_are_frozen():
    # criteria 1-12 run at these sizes; lowering one narrows the scorecard
    assert DEFAULT_MAX_N == {
        "states": 7,
        "suites-bijection": 6,
        "finals": 6,
        "locked-in": 7,
        "probability": 10,
        "window": 10,
        "trees": 9,
        "perms": 9,
        "bridge": 9,
    }


def test_probability_suite_builds_each_flat_row_once(monkeypatch):
    # rows and uniform shadows share the run's memo: one exact DP per size
    calls = Counter()
    real = probability.final_distribution

    def counted(initial, *args, **kwargs):
        if initial.occupancy == (1,) * initial.total:
            calls[initial.total] += 1
        return real(initial, *args, **kwargs)

    monkeypatch.setattr(probability, "final_distribution", counted)
    report = run_suite("probability", RunContext())
    assert report.ok, report
    assert calls == Counter({n: 1 for n in range(2, DEFAULT_MAX_N["probability"] + 1)})


def test_units_partition_the_suites():
    names = [name for unit in UNITS for name in unit]
    assert sorted(names) == sorted(SUITES) and len(names) == len(set(names))


def _record_groups(monkeypatch):
    """Make ``run_suites`` record the suite names each process gets, the caller's first."""
    groups = []
    forked = verify._forked

    def recording(calls, what):
        groups.append([call.args[1] for call in calls])
        return forked(calls, what)

    monkeypatch.setattr(verify, "_forked", recording)
    return groups


def test_the_heaviest_selected_unit_runs_in_the_one_worker(monkeypatch):
    groups = _record_groups(monkeypatch)
    monkeypatch.setattr(probability, "_usable_cpus", lambda: 3)
    run_suites(max_n=3)
    run_suites(max_n=3, jobs=1)
    run_suites(max_n=3, names=["window", "states", "trees"], jobs=9)
    run_suites(max_n=3, names=["probability", "window"], jobs=9)
    assert groups == [
        [
            ["bridge", "probability", "window", "locked-in", "states", "finals", "suites-bijection"],
            ["perms", "trees"],
        ],
        [[name for unit in UNITS for name in unit]],
        [["window", "states"], ["trees"]],
        [["probability", "window"]],
    ]
    with pytest.raises(DomainError, match="jobs must be >= 1, got 0"):
        run_suites(max_n=3, jobs=0)


def test_reports_do_not_depend_on_jobs():
    serial = run_suites(max_n=5, jobs=1)
    for jobs in (2, 3, 9):
        assert run_suites(max_n=5, jobs=jobs) == serial, jobs
    assert run_suites(jobs=9) == run_suites(jobs=1)
    assert multiprocessing.active_children() == []


def _patch_checks(monkeypatch, fns):
    """Replace the function of each check in ``fns``, keyed by check id."""
    checks = dict(CHECKS)
    for check_id, fn in fns.items():
        checks[check_id] = replace(checks[check_id], fn=fn)
    monkeypatch.setattr(verify, "CHECKS", checks)


def _budget(budget):
    def fn(ctx, top):
        raise BudgetExceededError(budget)

    return fn


@pytest.mark.parametrize("jobs", [1, 2, 3, 9])
def test_the_first_suite_in_name_order_raises(monkeypatch, jobs):
    # perms runs in the worker when jobs > 1, bridge always in the caller
    _patch_checks(monkeypatch, {"perms.stat-examples": _budget(2)})
    with pytest.raises(BudgetExceededError) as e:
        run_suites(max_n=4, jobs=jobs)
    assert e.value.budget == 2
    _patch_checks(
        monkeypatch, {"bridge.coordinates-roundtrip": _budget(1), "perms.stat-examples": _budget(2)}
    )
    with pytest.raises(BudgetExceededError) as e:
        run_suites(max_n=4, jobs=jobs)
    assert e.value.budget == 1
    assert multiprocessing.active_children() == []


def test_a_worker_error_keeps_its_traceback(monkeypatch):
    def broken_check(ctx, top):
        return {}["missing"]

    _patch_checks(monkeypatch, {"perms.stat-examples": broken_check})
    with pytest.raises(KeyError) as e:
        run_suites(max_n=4, jobs=2)
    assert isinstance(e.value.__cause__, probability._WorkerTraceback)
    assert "in broken_check" in str(e.value.__cause__)
    assert multiprocessing.active_children() == []


def test_without_fork_the_caller_runs_every_suite(monkeypatch):
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    groups = _record_groups(monkeypatch)
    assert run_suites(max_n=4, jobs=3) == run_suites(max_n=4, jobs=1)
    assert len(groups[0]) == 2


def test_a_verify_worker_that_dies_is_reported_and_joined(monkeypatch):
    _patch_checks(monkeypatch, {"perms.stat-examples": lambda ctx, top: os._exit(3)})
    with pytest.raises(RuntimeError, match="a verify worker exited with code 3"):
        run_suites(max_n=4, jobs=2)
    assert multiprocessing.active_children() == []


def test_verify_workers_are_stopped_when_the_caller_is_interrupted(monkeypatch):
    def interrupt(ctx, top):
        raise KeyboardInterrupt

    _patch_checks(
        monkeypatch,
        {
            "bridge.coordinates-roundtrip": interrupt,
            "perms.stat-examples": lambda ctx, top: time.sleep(60),
        },
    )
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_suites(max_n=4, jobs=2)
    assert time.perf_counter() - t0 < 30
    assert multiprocessing.active_children() == []
