"""Verification suites: every structural claim of the package, checked.

Each claim is one check function, registered once with its suite, its
check id and a plain-language statement of the claim.  Suites that read
the same memo objects run in one process on one :class:`RunContext`,
whose memo builds each exact row and tree table once.
Each suite sweeps sizes up to its limit in ``DEFAULT_MAX_N``, set so that
a full run takes seconds; ``max_n`` replaces every suite's limit.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from importlib import resources
from itertools import product
from math import factorial
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .errors import BudgetExceededError, DispersionError
from .perms import perm_count_checks, perm_stats, roundtrip_check
from .probability import (
    ScaledRow,
    _forked,
    _jobs,
    _Raised,
    _caught,
    _reraise,
    final_distribution,
    lx_to_sumtroid,
    row_from_json,
    row_half_width,
    row_to_json,
    scaled_row,
    shadow_probabilities,
    sumtroid_to_lx,
    window_bounds,
    window_recurrence_step,
    zero_pattern_check,
    zero_residue,
)
from .reachability import (
    crowded_states,
    earliest_gap_decrease,
    explore,
    final_shadow_set,
    final_states,
    flat_final_placements,
    gap_delta_class,
    max_displacement,
    merge_shadows_check,
    placement_of,
    run_policy,
    verify_locked_in_equivalence,
)
from .states import (
    FinalShadowId,
    apply_move,
    apply_move_labeled,
    available_moves,
    clusteron,
    entropy,
    final_shadow_family,
    flat_clusteron,
    is_final,
    has_crowded_isolated_room,
    LabeledState,
    RoomState,
    parse_state,
    sumtroid,
)
from .suites import from_suites, to_suites, verify_move_correspondence
from .trees import (
    RTable,
    ab_identities_check,
    eulerian_check,
    r_table_bruteforce,
    r_table_recursive,
    t_values,
    total_trees,
)

DEFAULT_MAX_N = {
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


@dataclass(frozen=True)
class CheckResult:
    """One verified claim: id, pass/fail/skip, details, and the claim."""

    check_id: str
    status: str
    detail: str
    claim: str


@dataclass(frozen=True)
class VerifyReport:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def counts(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.checks:
            out[c.status] += 1
        return out


class RunContext:
    """One verification run: its size limit and a memo of exact objects.

    ``max_n``, when given, replaces every suite's default size limit;
    graphs and DPs keep the engines' default node budget.  The memo holds
    scaled rows and brute-force tree tables by size, never reachability
    graphs, which would dominate peak memory.  It calls ``scaled_row``
    and ``r_table_bruteforce`` through this module's globals at call
    time, so tracers that swap them see every build.
    """

    def __init__(self, max_n: int | None = None) -> None:
        if max_n is not None and max_n <= 0:
            raise ValueError(f"max-n must be positive, got {max_n}")
        self.max_n = max_n
        self._rows: dict[int, ScaledRow] = {}
        self._tables: dict[int, RTable] = {}

    def limit(self, suite: str) -> int:
        return DEFAULT_MAX_N[suite] if self.max_n is None else self.max_n

    def row(self, n: int) -> ScaledRow:
        if n not in self._rows:
            self._rows[n] = scaled_row(n)
        return self._rows[n]

    def table(self, n: int) -> RTable:
        if n not in self._tables:
            self._tables[n] = r_table_bruteforce(n)
        return self._tables[n]


# ---------------------------------------------------------------------------
# shipped goldens


def golden_scaled_rows() -> dict[int, list[int]]:
    """Frozen scaled half rows (K <= 0) shipped with the package."""
    text = resources.files("dispersion").joinpath("data/scaled_rows.json").read_text()
    return {int(k): v for k, v in json.loads(text).items() if not k.startswith("_")}


def golden_flat4_finals() -> list[dict]:
    """Frozen final placements and masses of the flat 4-clusteron."""
    text = resources.files("dispersion").joinpath("data/flat4_finals.json").read_text()
    return json.loads(text)["finals"]


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All 2^(n-1) ordered ways to write n as a sum of positive parts."""
    for cuts in product((0, 1), repeat=n - 1):
        parts, cur = [], 1
        for c in cuts:
            if c:
                parts.append(cur)
                cur = 1
            else:
                cur += 1
        parts.append(cur)
        yield tuple(parts)


# ---------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class Check:
    """A registered claim; ``fn(ctx, top)`` returns the detail line.

    ``top`` is the run's size limit for the check's suite.  The function
    fails by raising ``AssertionError`` or a :class:`DispersionError`.
    """

    suite: str
    check_id: str
    claim: str
    fn: Callable[[RunContext, int], str]


class CheckSkipped(Exception):
    """Raised by a check whose size sweep is empty at the run's size limit."""


def sizes(lo: int, hi: int) -> range:
    """The sizes lo..hi a check sweeps; skips the check when there are none."""
    if hi < lo:
        raise CheckSkipped(f"needs max-n >= {lo}, got {hi}")
    return range(lo, hi + 1)


CHECKS: dict[str, Check] = {}  # by check id, in registration order


def check(suite: str, check_id: str, claim: str):
    """Decorator registering a check function under its suite and id."""

    def register(fn: Callable[[RunContext, int], str]):
        CHECKS[check_id] = Check(suite, check_id, claim, fn)
        return fn

    return register


def run_checks(ids: Iterable[str], ctx: RunContext) -> tuple[CheckResult, ...]:
    """Run the given checks in order, sharing the context's memo."""
    out = []
    for check_id in ids:
        c = CHECKS[check_id]
        try:
            detail = c.fn(ctx, ctx.limit(c.suite))
        except CheckSkipped as e:
            out.append(CheckResult(check_id, "skip", str(e), c.claim))
        except AssertionError as e:
            out.append(CheckResult(check_id, "fail", str(e) or "assertion failed", c.claim))
        except BudgetExceededError:
            raise  # a check that could not finish has neither passed nor failed
        except DispersionError as e:
            out.append(CheckResult(check_id, "fail", f"{type(e).__name__}: {e}", c.claim))
        else:
            out.append(CheckResult(check_id, "pass", detail or "", c.claim))
    return tuple(out)


# ---------------------------------------------------------------------------
# states


@check("states", "states.parse-roundtrip", "pattern -> state -> text -> state is the identity")
def parse_roundtrip(ctx: RunContext, top: int) -> str:
    for text in ("11", "12", "1011001", "1[12]01@-2", "0001111000", "2"):
        s = parse_state(text)
        assert parse_state(s.text()) == s, text
    return "6 sample patterns"


@check("states", "states.forced-chain", "the 12 start admits exactly one play, of three moves")
def forced_chain(ctx: RunContext, top: int) -> str:
    path = run_policy(parse_state("12"), "leftmost")
    got = [p.pattern() for p in path]
    assert got == ["12", "1011", "11001", "100101"], got
    return " -> ".join(got)


@check(
    "states",
    "states.entropy-increase",
    "entropy strictly increases along every move (termination)",
)
def entropy_increase(ctx: RunContext, top: int) -> str:
    edges = 0
    for n in sizes(1, top):
        g = explore(flat_clusteron(n))
        for s in g.nodes:
            for t in g.edges[s]:
                assert entropy(t) > entropy(s), (s.text(), t.text())
                edges += 1
    return f"{edges} edges, flat starts up to {top}"


@check(
    "states",
    "states.labeled-pushing",
    "the order-preserving labeled move matches the room move",
)
def labeled_pushing(ctx: RunContext, top: int) -> str:
    moves = 0
    for n in sizes(2, top):
        g = explore(flat_clusteron(n))
        for s in g.nodes:
            ls = LabeledState.from_state(s)
            for m, t in zip(available_moves(s), g.edges[s]):
                pushed = apply_move_labeled(ls, m)
                assert pushed.to_state() == t, (s.text(), m)
                assert pushed.positions == tuple(sorted(pushed.positions))
                moves += 1
    return f"{moves} labeled moves cross-checked, flat starts up to {top}"


@check(
    "states",
    "states.displacement-bound",
    "no occupant ever moves more than n-1 rooms; extreme plays attain it",
)
def displacement_bound(ctx: RunContext, top: int) -> str:
    for n in sizes(2, top):
        start = flat_clusteron(n)
        assert max_displacement(explore(start)) == n - 1, n
        left = run_policy(start, "leftmost")[-1]
        right = run_policy(start, "rightmost")[-1]
        dl = LabeledState.from_state(left).positions[-1] - (n - 1)
        dr = LabeledState.from_state(right).positions[0] - 0
        assert dl == n - 1, (n, "all-leftmost play, rightmost occupant", dl)
        assert dr == -(n - 1), (n, "all-rightmost play, leftmost occupant", dr)
    return f"bound n-1 attained for n up to {top}"


# ---------------------------------------------------------------------------
# suites-bijection


@check("suites-bijection", "suites.codec", "run-length encoding to suites is invertible")
def codec(ctx: RunContext, top: int) -> str:
    assert to_suites(parse_state("1011001")).pattern() == "1201"
    assert from_suites(parse_state("1201")).pattern() == "1011001"
    for text in ("11", "101", "110011001", "10010101"):
        s = parse_state(text)
        assert from_suites(to_suites(s)) == s, text
    return "codec round trip on samples"


@check(
    "suites-bijection",
    "suites.move-correspondence",
    "room moves and suite splits generate isomorphic graphs with equal centroid changes",
)
def move_correspondence(ctx: RunContext, top: int) -> str:
    nodes = 0
    for n in range(2, top + 1):
        rep = verify_move_correspondence(explore(flat_clusteron(n)))
        assert rep.ok, (n, rep.mismatches[:3])
        nodes += rep.room_nodes
    # the size-4 trees node for node: one play of 1111, and its first moves
    chain = [
        parse_state(p)
        for p in ("1111", "100111@-1", "1011001@-1", "1100101@-1", "10010101@-2")
    ]
    for s, t in zip(chain, chain[1:]):
        assert t in [apply_move(s, m) for m in available_moves(s)], (s.text(), t.text())
    got = [to_suites(s).occupancy for s in chain]
    assert got == [(4,), (1, 0, 3), (1, 2, 0, 1), (2, 0, 1, 1), (1, 0, 1, 1, 1)], got
    first = {to_suites(apply_move(chain[0], m)).occupancy for m in available_moves(chain[0])}
    assert first == {(1, 0, 3), (2, 0, 2), (3, 0, 1)}, first
    if top < 2:
        return "size-4 worked chain only; the flat-start sweep needs max-n >= 2"
    return f"{nodes} states, flat starts up to {top}"


# ---------------------------------------------------------------------------
# finals


@check(
    "finals",
    "finals.family-coverage",
    "every movable clusteron reaches exactly the n final shadows, except 12 and 21",
)
def family_coverage(ctx: RunContext, top: int) -> str:
    starts = 0
    for n in sizes(2, top):
        fam = frozenset(final_shadow_family(n))
        for parts in compositions(n):
            s = clusteron(parts)
            if len(parts) == 1:
                assert available_moves(s) == () and is_final(s)
                continue
            got = final_shadow_set(s)
            if parts == (1, 2):
                assert got == {FinalShadowId(3, 1)}, got
            elif parts == (2, 1):
                assert got == {FinalShadowId(3, 2)}, got
            else:
                assert got == fam, (parts, sorted(got ^ fam))
            starts += 1
    exceptions = "; 12/21 exceptions confirmed" if top >= 3 else ""
    return f"{starts} movable clusterons up to size {top}{exceptions}"


@check(
    "finals",
    "finals.flat-placements",
    "the predicted set of final placements of a flat start is exhaustive and exact",
)
def flat_placements(ctx: RunContext, top: int) -> str:
    assert flat_final_placements(1) == frozenset()
    assert final_states(flat_clusteron(1)) == (flat_clusteron(1),)
    for n in sizes(2, top + 1):
        got = frozenset(placement_of(f) for f in final_states(flat_clusteron(n)))
        want = flat_final_placements(n)
        assert got == want, (n, sorted(got ^ want))
    for n in sizes(5, max(top + 1, 9)):
        assert len(flat_final_placements(n)) == (n - 3) * (n - 1) + 2, n
    return f"exhaustive match for flat starts up to {top + 1}"


@check(
    "finals",
    "finals.sumtroid-determines",
    "final placements of a flat start have pairwise distinct sumtroids",
)
def sumtroid_determines(ctx: RunContext, top: int) -> str:
    for n in sizes(2, top + 1):
        ks = [sumtroid(p.to_state()) for p in flat_final_placements(n)]
        assert len(ks) == len(set(ks)), n
    return f"flat starts up to {top + 1}"


@check(
    "finals",
    "finals.merge-shadows",
    "two adjacent final shadows settle into their merged shadow at constant sumtroid",
)
def merge_shadows(ctx: RunContext, top: int) -> str:
    cases = [(2, 1, 2, 1), (3, 1, 2, 1), (3, 2, 3, 1), (3, 2, 2, 1)]
    for n1, x, n2, y in cases:
        rep = merge_shadows_check(n1, x, n2, y)
        assert rep.ok, (n1, x, n2, y, rep)
    return f"{len(cases)} adjacent-shadow merges"


# ---------------------------------------------------------------------------
# locked-in


@check(
    "locked-in",
    "locked.spacious-equivalence",
    "a state keeps its sumtroid forever exactly when it is spacious",
)
def spacious_equivalence(ctx: RunContext, top: int) -> str:
    nodes = 0
    for n in sizes(2, top):
        g = explore(flat_clusteron(n))
        bad = verify_locked_in_equivalence(g)
        assert not bad, (n, bad[:3])
        nodes += len(g.nodes)
    return f"{nodes} states, flat starts up to {top}"


@check(
    "locked-in",
    "locked.gap-classes",
    "each move changes the gap count by +1, 0 or -1 as read off the bounding gaps",
)
def gap_classes(ctx: RunContext, top: int) -> str:
    edges = 0
    for n in sizes(2, top):
        g = explore(flat_clusteron(n))
        for s in g.nodes:
            for m in available_moves(s):
                gap_delta_class(s, m)  # self-verifying
                edges += 1
    return f"{edges} classified moves, flat starts up to {top}"


@check(
    "locked-in",
    "locked.gap-decrease-bound",
    "the gap count can first decrease at move 3, never earlier",
)
def gap_decrease_bound(ctx: RunContext, top: int) -> str:
    earliest = {}
    hi = max(top, 4)  # the (2, 1, 1) example needs 4
    for n in sizes(2, hi):
        for parts in compositions(n):
            if len(parts) == 1:
                continue
            e = earliest_gap_decrease(clusteron(parts))
            if e is not None:
                earliest[parts] = e
    assert min(earliest.values()) == 3, min(earliest.values())
    assert earliest[(2, 1, 1)] == 3
    path = [parse_state("1001111")]
    for pattern in ("10110011", "101101001", "110011001"):
        successors = (apply_move(path[-1], m) for m in available_moves(path[-1]))
        step = [t for t in successors if t.pattern() == pattern]
        assert step, pattern
        path.append(step[0])
    return f"tight at move 3, clusterons up to size {hi}; worked three-move path drops 3 gaps to 2"


@check(
    "locked-in",
    "locked.no-crowded-isolated-room",
    "no play from a clusteron ever strands several occupants in an isolated room",
)
def no_crowded_isolated_room(ctx: RunContext, top: int) -> str:
    states = 0
    for n in sizes(2, top):
        for parts in compositions(n):
            s0 = clusteron(parts)
            for s in crowded_states(s0):
                if s != s0:
                    assert not has_crowded_isolated_room(s), (parts, s.text())
                    states += 1
    return f"{states} reached crowded states, clusterons up to size {top}"


# ---------------------------------------------------------------------------
# probability


@check(
    "probability",
    "prob.golden-rows",
    "exact scaled distributions reproduce the frozen row data",
)
def golden_rows(ctx: RunContext, top: int) -> str:
    golden = golden_scaled_rows()
    hi = min(max(golden), top)
    for n in sizes(3, hi):
        got = ctx.row(n).half_sequence()
        assert got == golden[n], (n, got)
    if hi >= 9:
        tail = ctx.row(9).half_sequence()[-4:]
        assert tail == [2336, 2416, 2416, 0], tail
    return f"rows 3..{hi} equal the shipped goldens"


@check(
    "probability",
    "prob.uniform-shadows",
    "all final shadows of a flat start are equally likely",
)
def uniform_shadows(ctx: RunContext, top: int) -> str:
    for n in sizes(2, top):
        probs = shadow_probabilities(ctx.row(n))
        assert set(probs) == set(range(1, n))
        assert all(p == Fraction(1, n - 1) for p in probs.values()), (n, probs)
    return f"each of the n-1 shadows has probability 1/(n-1), n up to {top}"


@check(
    "probability",
    "prob.flat4-finals",
    "the flat 4-clusteron lands in its five placements with the frozen masses",
)
def flat4_finals(ctx: RunContext, top: int) -> str:
    golden = {int(row["sumtroid"]): row for row in golden_flat4_finals()}
    want = {k: Fraction(row["mass"]) for k, row in golden.items()}
    for start in (flat_clusteron(4), parse_state("0001111000")):
        dist = final_distribution(start)
        assert dict(dist.mass) == want, (start.text(), dist.mass)
    assert sorted(want.values()) == [Fraction(1, 6)] * 4 + [Fraction(1, 3)]
    start = flat_clusteron(4)
    finals = {sumtroid(f) - sumtroid(start): f for f in final_states(start)}
    assert set(finals) == set(golden), sorted(finals)
    for k, row in golden.items():
        f = finals[k]
        got = (f.pattern(), f.offset, placement_of(f).shadow_id.k)
        assert got == (row["pattern"], int(row["leftmost"]), int(row["shadow_k"])), (k, got)
    return "5 placements, masses 1/6,1/6,1/3,1/6,1/6"


@check(
    "probability",
    "prob.zero-pattern",
    "row support is |K| within the half-width, zero exactly on one residue class mod n",
)
def zero_pattern(ctx: RunContext, top: int) -> str:
    for n in sizes(2, top):
        bad = zero_pattern_check(ctx.row(n))
        assert not bad, (n, bad[:3])
    return f"support and zero residues exact for rows 2..{top}"


def _flat_mirror(s: RoomState, n: int) -> RoomState:
    """``s`` reflected about the middle of the flat n-clusteron's rooms 0..n-1."""
    return RoomState(n - 1 - s.rightmost, s.occupancy[::-1])


def _moves_commute_with_mirror(n: int) -> int:
    """Check the mirror's successors on the unfolded flat n graph; return its state count.

    Mirrors are built per state and dropped, so the check adds no memory to the graph's.
    """
    g = explore(flat_clusteron(n))
    for s in g.nodes:
        m = _flat_mirror(s, n)
        assert m in g.edges, (n, s.text())
        assert Counter(_flat_mirror(t, n) for t in g.edges[s]) == Counter(g.edges[m]), (n, s.text())
    return len(g.nodes)


@check(
    "probability",
    "prob.row-symmetry",
    "moves commute with the mirror, so mirror-folded rows are symmetric and total (n-1)!",
)
def row_symmetry(ctx: RunContext, top: int) -> str:
    # The DP folds each flat row by this mirror, which makes the rows symmetric
    # by construction; the unfolded graphs witness the premise.
    states = sum(_moves_commute_with_mirror(n) for n in sizes(3, min(top, 8)))
    for n in sizes(3, top):
        row = ctx.row(n)
        row.check_symmetry()
        assert sum(row.values.values()) == factorial(n - 1), n
    return (
        f"mirror commutes with moves on {states} states of flat 3..{min(top, 8)}; "
        f"mirror-folded rows 3..{top} each sum to (n-1)!"
    )


@check(
    "probability",
    "prob.serialization",
    "row JSON round-trips exactly and rejects corrupted payloads",
)
def serialization(ctx: RunContext, top: int) -> str:
    row = ctx.row(6)  # the first row with a "2" cell to tamper
    blob = row_to_json(row)
    assert row_from_json(blob) == row
    corrupt = blob.replace('"v": "2"', '"v": "3"', 1)
    try:
        row_from_json(corrupt)
    except DispersionError:
        pass
    else:
        raise AssertionError("tampered payload was accepted")
    return "round trip exact; tampering detected by content hash"


# ---------------------------------------------------------------------------
# window


@check(
    "window",
    "window.worked-sums",
    "the documented sliding-window sums come out of the stated bounds",
)
def worked_sums(ctx: RunContext, top: int) -> str:
    row5 = ctx.row(5)
    lo, hi = window_bounds(5, -1)
    assert (lo, hi) == (-2, 1), (lo, hi)
    got5 = sum(ctx.row(4).value(i) for i in range(lo, hi + 1))
    assert got5 == 4 == row5.value(-1), (got5, row5.value(-1))
    lo6, hi6 = window_bounds(6, -2)
    assert (lo6, hi6) == (-4, 0), (lo6, hi6)
    got6 = sum(row5.value(i) for i in range(lo6, hi6 + 1))
    assert got6 == 11 == ctx.row(6).value(-2), (got6, ctx.row(6).value(-2))
    lo6b, hi6b = window_bounds(6, -4)
    assert (lo6b, hi6b) == (-5, -1), (lo6b, hi6b)
    got6b = sum(row5.value(i) for i in range(lo6b, hi6b + 1))
    assert got6b == 11, got6b
    return "0+1+2+1=4 and 1+2+4+4+0=11 reproduced"


@check(
    "window",
    "window.recurrence",
    "each scaled row is the sliding-window sum of the previous one",
)
def recurrence(ctx: RunContext, top: int) -> str:
    for n in sizes(4, top):
        assert window_recurrence_step(ctx.row(n - 1)) == ctx.row(n), n
    return f"row n built from row n-1 for n = 4..{top}"


# ---------------------------------------------------------------------------
# trees


@check(
    "trees",
    "trees.recursion-vs-bruteforce",
    "the size/leaves/path-end recursion reproduces exhaustive enumeration",
)
def recursion_vs_bruteforce(ctx: RunContext, top: int) -> str:
    for n in sizes(2, top):
        assert r_table_recursive(n).r == ctx.table(n).r, n
    return f"sizes 2..{top}"


@check(
    "trees",
    "trees.column-sums",
    "every path-end column of the tree table sums to (n-2)!",
)
def column_sums(ctx: RunContext, top: int) -> str:
    for n in sizes(2, top):
        table = ctx.table(n)
        assert sum(table.r.values()) == total_trees(n), n
        for x in range(1, n):
            col = sum(table.value(l, x) for l in range(1, n + 1))
            assert col == total_trees(n - 1), (n, x, col)
    return f"column sums (n-2)! and totals (n-1)!, sizes 2..{top}"


@check(
    "trees",
    "trees.root-leaf-split",
    "the root-is-leaf split satisfies its four cell-wise identities",
)
def root_leaf_split(ctx: RunContext, top: int) -> str:
    for n in sizes(3, top):
        bad = ab_identities_check(n, table=ctx.table)
        assert not bad, (n, bad[:3])
    return f"sizes 3..{top}"


@check(
    "trees",
    "trees.leaf-totals",
    "leaf-count totals match enumeration (value multiset 8, 14, 2 at size 5)",
)
def leaf_totals(ctx: RunContext, top: int) -> str:
    assert t_values(3) == {2: 2}
    got = t_values(5)
    assert got == {2: 8, 3: 14, 4: 2}, got
    assert sorted(got.values()) == [2, 8, 14]
    return "t(5) = {2: 8, 3: 14, 4: 2}"


@check(
    "trees",
    "trees.eulerian-column",
    "the path-end-1 column obeys the Eulerian recurrence and alignment",
)
def eulerian_column(ctx: RunContext, top: int) -> str:
    hi = max(top, 3)  # the column recursion starts at size 3
    bad = eulerian_check(hi, table=ctx.table)
    assert not bad, bad[:3]
    assert [ctx.table(5).value(l, 1) for l in (2, 3, 4)] == [1, 4, 1]
    return f"x=1 column matches Eulerian numbers, sizes 3..{hi}"


# ---------------------------------------------------------------------------
# perms


@check("perms", "perms.stat-examples", "descent statistics match their definitions on samples")
def stat_examples(ctx: RunContext, top: int) -> str:
    st = perm_stats((2, 3, 4, 1))
    assert (st.descents, st.special_descents, st.last) == (1, 1, 1)
    st = perm_stats((1, 2, 3, 4))
    assert (st.descents, st.special_descents, st.last) == (0, 1, 4)
    st = perm_stats((4, 3, 2, 1))
    assert (st.descents, st.special_descents, st.big_descents, st.last) == (3, 3, 0, 1)
    return "3 documented stat examples"


@check(
    "perms",
    "perms.tree-bijection",
    "largest-child-first reading is a bijection carrying leaves and path end",
)
def tree_bijection(ctx: RunContext, top: int) -> str:
    for n in sizes(2, top):
        assert roundtrip_check(n), n
    return f"all trees with up to {top} vertices"


@check(
    "perms",
    "perms.count-identities",
    "descent, special-descent, start-with-2 and relabeling tallies match the tree table",
)
def count_identities(ctx: RunContext, top: int) -> str:
    for n in sizes(3, top):
        bad = perm_count_checks(n, table=ctx.table)
        assert not bad, (n, bad[:3])
    return f"tallies at sizes 3..{top}"


# ---------------------------------------------------------------------------
# bridge


@check(
    "bridge",
    "bridge.coordinates-roundtrip",
    "sumtroid to (leaves, path end) coordinates and back is the identity off the zeros",
)
def coordinates_roundtrip(ctx: RunContext, top: int) -> str:
    cells = 0
    for n in sizes(3, top):
        w = row_half_width(n)
        res = zero_residue(n)
        for k in range(-w, w + 1):
            if k % n == res:
                continue
            ell, x = sumtroid_to_lx(n, k)
            assert lx_to_sumtroid(n, ell, x) == k, (n, k)
            cells += 1
    return f"{cells} nonzero cells, sizes 3..{top}"


@check(
    "bridge",
    "bridge.tree-counts-equal-row",
    "tree-table cells equal the scaled row at the mapped sumtroid",
)
def tree_counts_equal_row(ctx: RunContext, top: int) -> str:
    for n in sizes(3, top):
        row = ctx.row(n)
        table = r_table_recursive(n)  # trees.recursion-vs-bruteforce ties it to enumeration
        for x in range(1, n):
            assert table.value(1, x) == table.value(n, x) == 0, (n, x)
            for leaves in range(2, n):
                k = lx_to_sumtroid(n, leaves, x)
                assert table.value(leaves, x) == row.value(k), (n, leaves, x, k)
    return f"every (leaves, path end) cell equals its row value, sizes 3..{top}"


# ---------------------------------------------------------------------------
# suites and reports


def run_suite(name: str, ctx: RunContext) -> VerifyReport:
    """Run one suite's checks in registration order."""
    ids = [c.check_id for c in CHECKS.values() if c.suite == name]
    return VerifyReport(name, run_checks(ids, ctx))


SUITES: dict[str, Callable[[RunContext], VerifyReport]] = {
    name: partial(run_suite, name) for name in DEFAULT_MAX_N
}

# Suites that read the same RunContext memo run in one process: perms and
# trees share the brute-force tables; bridge, probability and window share
# the rows.  Heaviest first; default-run seconds in one process on a 2-CPU
# box: 0.53, 0.19, 0.15 (locked-in), 0.09 (states), 0.03 (finals) and
# 0.01 (suites-bijection).  The first unit alone takes about half of the
# run, so a second worker could not end it sooner.
UNITS = (
    ("perms", "trees"),
    ("bridge", "probability", "window"),
    ("locked-in",),
    ("states",),
    ("finals",),
    ("suites-bijection",),
)


def run_suites(
    max_n: int | None = None, names: list[str] | None = None, jobs: int | None = None
) -> tuple[VerifyReport, ...]:
    """Run the named suites (default: all) once each; reports come in name order.

    When ``jobs`` (default: the CPUs this process may use) is at least 2
    and the selected suites span more than one unit of ``UNITS``, the
    first of those units runs in a forked worker and the caller runs
    every other selected suite.  Each process runs its suites in name
    order on a fresh ``RunContext(max_n)``, so the reports do not depend
    on ``jobs``.  When suites raise, the worker is joined and the error
    of the first in name order is raised, as one serial run would.
    """
    selected = set(SUITES if names is None else names)
    unknown = sorted(selected - SUITES.keys())
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    units = [[name for name in unit if name in selected] for unit in UNITS]
    units = [unit for unit in units if unit]
    forked = units[:1] if _jobs(jobs) > 1 and len(units) > 1 else []
    groups = [[name for unit in units[len(forked):] for name in unit], *forked]
    calls = [partial(_run_in_order, RunContext(max_n), group) for group in groups]
    outcomes = sorted((o for part in _forked(calls, "verify") for o in part), key=itemgetter(0))
    for _, got in outcomes:
        if isinstance(got, _Raised):
            _reraise(got)
    return tuple(got for _, got in outcomes)


def _run_in_order(
    ctx: RunContext, names: list[str]
) -> list[tuple[str, VerifyReport | _Raised]]:
    """Each suite's report in name order, up to the first suite that raises, then its error."""
    out: list[tuple[str, VerifyReport | _Raised]] = []
    for name in sorted(names):
        try:
            out.append((name, SUITES[name](ctx)))
        except Exception as e:
            out.append((name, _caught(e)))
            break
    return out


def reports_to_json(reports: tuple[VerifyReport, ...]) -> str:
    payload = [
        {
            "suite": r.suite,
            "ok": r.ok,
            "counts": r.counts,
            "checks": [
                {
                    "id": c.check_id,
                    "status": c.status,
                    "claim": c.claim,
                    "detail": c.detail,
                }
                for c in r.checks
            ],
        }
        for r in reports
    ]
    return json.dumps(payload, indent=2) + "\n"


def reports_to_text(reports: tuple[VerifyReport, ...]) -> str:
    lines = []
    for r in reports:
        for c in r.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[c.status]
            lines.append(f"{mark}  {c.check_id}: {c.claim}")
            if c.detail:
                lines.append(f"      {c.detail}")
    total = VerifyReport("all", tuple(c for r in reports for c in r.checks)).counts
    lines.append(
        f"{sum(total.values())} checks: "
        f"{total['pass']} passed, {total['fail']} failed, {total['skip']} skipped"
    )
    return "\n".join(lines) + "\n"
