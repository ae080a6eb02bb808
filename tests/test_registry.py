"""The claim registry: frozen check ids, suites, budgets and scorecard map."""
from collections import Counter
from dataclasses import replace

from dispersion import probability, verify
from dispersion.verify import CHECKS, DEFAULT_MAX_N, SUITES, RunContext, run_suite, run_suites

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
