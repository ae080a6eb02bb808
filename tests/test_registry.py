"""The claim registry: frozen check ids, suites, budgets and scorecard map."""
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import replace

import pytest

from dispersion import BudgetExceededError, perms, probability, reachability, trees, verify
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


def test_the_heaviest_selected_unit_runs_in_the_one_worker(monkeypatch, use_cpus):
    groups = _record_groups(monkeypatch)
    use_cpus(3)
    run_suites(max_n=3)
    use_cpus(1)
    run_suites(max_n=3)
    use_cpus(9)
    run_suites(max_n=3, names=["window", "states", "trees"])
    run_suites(max_n=3, names=["probability", "window"])
    assert groups == [
        [
            ["bridge", "probability", "window", "locked-in", "states", "finals", "suites-bijection"],
            ["perms", "trees"],
        ],
        [[name for unit in UNITS for name in unit]],
        [["window", "states"], ["trees"]],
        [["probability", "window"]],
    ]


def test_reports_do_not_depend_on_jobs(use_cpus):
    # one job, that is one process, per usable CPU, with at most one worker
    use_cpus(1)
    serial, default = run_suites(max_n=5), run_suites()
    for cpus in (2, 3, 9):
        use_cpus(cpus)
        assert run_suites(max_n=5) == serial, cpus
    assert run_suites() == default
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


@pytest.mark.parametrize("cpus", [1, 2, 3, 9])
def test_the_first_suite_in_name_order_raises(monkeypatch, use_cpus, cpus):
    # perms runs in the worker when cpus > 1, bridge always in the caller
    use_cpus(cpus)
    _patch_checks(monkeypatch, {"perms.stat-examples": _budget(2)})
    with pytest.raises(BudgetExceededError) as e:
        run_suites(max_n=4)
    assert e.value.budget == 2
    _patch_checks(
        monkeypatch, {"bridge.coordinates-roundtrip": _budget(1), "perms.stat-examples": _budget(2)}
    )
    with pytest.raises(BudgetExceededError) as e:
        run_suites(max_n=4)
    assert e.value.budget == 1
    assert multiprocessing.active_children() == []


def test_a_caller_error_stops_the_worker_at_once(monkeypatch, use_cpus):
    use_cpus(2)
    _patch_checks(
        monkeypatch,
        {
            "bridge.coordinates-roundtrip": _budget(1),
            "perms.stat-examples": lambda ctx, top: time.sleep(60),
        },
    )
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError) as e:
        run_suites(max_n=4)
    assert time.perf_counter() - t0 < 30
    assert e.value.budget == 1
    assert multiprocessing.active_children() == []


def test_a_worker_error_keeps_its_traceback(monkeypatch, use_cpus):
    def broken_check(ctx, top):
        return {}["missing"]

    use_cpus(2)
    _patch_checks(monkeypatch, {"perms.stat-examples": broken_check})
    with pytest.raises(KeyError) as e:
        run_suites(max_n=4)
    assert isinstance(e.value.__cause__, probability._WorkerTraceback)
    assert "in broken_check" in str(e.value.__cause__)
    assert multiprocessing.active_children() == []


def test_without_fork_the_caller_runs_every_suite(monkeypatch, use_cpus):
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    use_cpus(1)
    serial = run_suites(max_n=4)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    groups = _record_groups(monkeypatch)
    use_cpus(3)
    assert run_suites(max_n=4) == serial
    assert len(groups[0]) == 2


def test_a_verify_worker_that_dies_is_reported_and_joined(monkeypatch, use_cpus):
    use_cpus(2)
    _patch_checks(monkeypatch, {"perms.stat-examples": lambda ctx, top: os._exit(3)})
    with pytest.raises(RuntimeError, match="a verify worker exited with code 3"):
        run_suites(max_n=4)
    assert multiprocessing.active_children() == []


def test_verify_workers_are_stopped_when_the_caller_is_interrupted(monkeypatch, use_cpus):
    def interrupt(ctx, top):
        raise KeyboardInterrupt

    use_cpus(2)
    _patch_checks(
        monkeypatch,
        {
            "bridge.coordinates-roundtrip": interrupt,
            "perms.stat-examples": lambda ctx, top: time.sleep(60),
        },
    )
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_suites(max_n=4)
    assert time.perf_counter() - t0 < 30
    assert multiprocessing.active_children() == []


def _failed(reports):
    return sorted(c.check_id for r in reports for c in r.checks if c.status != "pass")


@pytest.mark.parametrize("max_n", [5, 6])
def test_a_kernel_that_drops_a_move_fails_its_checks(monkeypatch, use_cpus, max_n):
    # a key with a choice loses its last successor; no check may crash or pass on that
    kernel = reachability._packed_successors

    def dropped(key, b, digits):
        succ = kernel(key, b, digits)
        return succ[:-1] if len(succ) > 1 else succ

    monkeypatch.setattr(reachability, "_packed_successors", dropped)
    use_cpus(1)
    reports = run_suites(max_n, ["finals", "locked-in", "states", "suites-bijection"])
    assert _failed(reports) == [
        "finals.family-coverage",
        "finals.flat-placements",
        "locked.gap-decrease-bound",
        "states.labeled-pushing",
        "suites.move-correspondence",
    ]


def test_an_empty_crowded_sweep_fails(monkeypatch, use_cpus):
    monkeypatch.setattr(verify, "crowded_states", lambda s0: ())
    use_cpus(1)
    assert _failed(run_suites(5, ["locked-in"])) == ["locked.no-crowded-isolated-room"]
    assert _failed(run_suites(3, ["locked-in"])) == []


def _swapped_reading(monkeypatch):
    reading = perms._reading

    def swapped(parents):
        word = reading(parents)
        return word[1::-1] + word[2:]

    monkeypatch.setattr(perms, "_reading", swapped)


def _path_end_off_by_one_at_7(monkeypatch):
    stats = trees._tree_stats

    def shifted(parents):
        got = stats(parents)
        return got._replace(path_end=got.path_end + 1) if len(parents) == 7 else got

    monkeypatch.setattr(trees, "_tree_stats", shifted)
    monkeypatch.setattr(perms, "_tree_stats", shifted)


def _spacious_wrong_on_one_shape(monkeypatch):
    # 11001 is reachable from flat 3; an unreachable shape such as 1011 fails nothing
    spacious = reachability.is_spacious
    monkeypatch.setattr(
        reachability, "is_spacious", lambda s: spacious(s) != (s.pattern() == "11001")
    )


def _recursive_cell_off_by_one_at_6(monkeypatch):
    recursive = verify.r_table_recursive

    def raised(n):
        table = recursive(n)
        if n != 6:
            return table
        cell = min(table.r)
        return replace(table, r={**table.r, cell: table.r[cell] + 1})

    monkeypatch.setattr(verify, "r_table_recursive", raised)


def _labeled_push_off_by_one_at_6(monkeypatch):
    labeled = verify.apply_move_labeled

    def pushed(ls, m):
        got = labeled(ls, m)
        if len(got.positions) != 6:
            return got
        return replace(got, positions=got.positions[:-1] + (got.positions[-1] + 1,))

    monkeypatch.setattr(verify, "apply_move_labeled", pushed)


def _gap_decrease_off_by_one(monkeypatch):
    earliest = verify.earliest_gap_decrease

    def later(s):
        e = earliest(s)
        return e if e is None else e + 1

    monkeypatch.setattr(verify, "earliest_gap_decrease", later)


def _flat_placement_dropped_at_6(monkeypatch):
    placements = verify.flat_final_placements

    def dropped(n):
        got = placements(n)
        return got - {min(got)} if n == 6 else got

    monkeypatch.setattr(verify, "flat_final_placements", dropped)


def _no_shadows_for_111(monkeypatch):
    shadows = verify.final_shadow_set
    monkeypatch.setattr(
        verify,
        "final_shadow_set",
        lambda s: frozenset() if s.pattern() == "111" else shadows(s),
    )


PLANTED = {  # each fault, with the checks it must fail at --max-n 7
    _swapped_reading: ["perms.tree-bijection"],
    _path_end_off_by_one_at_7: [
        "perms.count-identities",
        "perms.tree-bijection",
        "trees.column-sums",
        "trees.eulerian-column",
        "trees.recursion-vs-bruteforce",
        "trees.root-leaf-split",
    ],
    _spacious_wrong_on_one_shape: ["locked.spacious-equivalence"],
    _recursive_cell_off_by_one_at_6: [
        "bridge.tree-counts-equal-row",
        "trees.recursion-vs-bruteforce",
    ],
    _labeled_push_off_by_one_at_6: ["states.labeled-pushing"],
    _gap_decrease_off_by_one: ["locked.gap-decrease-bound"],
    _flat_placement_dropped_at_6: ["finals.flat-placements"],
    _no_shadows_for_111: ["finals.family-coverage"],
}


@pytest.mark.parametrize("plant", PLANTED, ids=lambda plant: plant.__name__.strip("_"))
def test_a_planted_fault_fails_its_checks(monkeypatch, use_cpus, plant):
    plant(monkeypatch)
    use_cpus(1)
    assert _failed(run_suites(7)) == PLANTED[plant]


def test_a_kernel_with_no_moves_fails_its_checks(monkeypatch, use_cpus):
    # no check may pass on an empty sweep where its claim has content
    monkeypatch.setattr(reachability, "_packed_successors", lambda key, b, digits: [])
    use_cpus(1)
    reports = run_suites(6, ["finals", "locked-in", "states", "suites-bijection"])
    assert _failed(reports) == [
        "finals.family-coverage",
        "finals.flat-placements",
        "finals.merge-shadows",
        "locked.gap-decrease-bound",
        "locked.no-crowded-isolated-room",
        "locked.spacious-equivalence",
        "states.displacement-bound",
        "states.entropy-increase",
        "states.labeled-pushing",
        "suites.move-correspondence",
    ]
