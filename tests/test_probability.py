"""Exact final-sumtroid distributions, scaled rows, and their serialization."""
import hashlib
import json
import math
import multiprocessing
import os
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dispersion import (
    BudgetExceededError,
    DomainError,
    InvariantViolationError,
    RoomState,
    ScaledRow,
    TheoremViolationError,
    apply_move,
    available_moves,
    clusteron,
    crowded_states,
    earliest_gap_decrease,
    entropy,
    explore,
    final_distribution,
    final_states,
    flat_clusteron,
    golden_flat4_finals,
    golden_scaled_rows,
    lx_to_sumtroid,
    monte_carlo,
    monte_carlo_counts,
    parse_state,
    row_from_json,
    row_half_width,
    row_to_csv,
    row_to_json,
    scaled_row,
    shadow_of_sumtroid,
    shadow_probabilities,
    sumtroid,
    sumtroid_to_lx,
    window_bounds,
    window_recurrence_step,
    zero_pattern_check,
    zero_residue,
)
from dispersion import probability, reachability
from dispersion.verify import compositions

from conftest import bfs


def _graph_distribution(g):
    """Reference for :func:`final_distribution`: the same push over a graph.

    Entropy order is a topological order of the move graph, so every
    state after the start has its pending mass by the time it is popped.
    """
    k0 = sumtroid(g.initial)
    pending = {g.initial: Fraction(1)}
    mass: dict[int, Fraction] = {}
    for s in sorted(g.nodes, key=entropy):
        p = pending.pop(s)
        edges = g.edges[s]
        if not edges:
            k = sumtroid(s) - k0
            mass[k] = mass.get(k, Fraction(0)) + p
            continue
        share = p / len(edges)
        for t in edges:
            pending[t] = pending.get(t, Fraction(0)) + share
    return mass


def _hash_stream_counts(n, samples, seed):
    """Reference for :func:`monte_carlo_counts`: uniform play on RoomStates.

    Sample i reads its bits from the concatenated blocks blake2b(f"{seed}:{i}"),
    then blake2b of each previous block (64-byte digests, little-endian), w low
    unread bits per draw among m > 1 moves, w = (m-1).bit_length(), again while
    the value is >= m.  Also returns how many chained blocks the run read.
    """
    initial = flat_clusteron(n)
    counts = Counter()
    chains = 0
    for i in range(samples):
        blocks = [hashlib.blake2b(f"{seed}:{i}".encode(), digest_size=64).digest()]
        read = 0
        s = initial
        while moves := available_moves(s):
            r = 0
            if len(moves) > 1:
                w = (len(moves) - 1).bit_length()
                while True:
                    if read + w > 512 * len(blocks):
                        blocks.append(hashlib.blake2b(blocks[-1], digest_size=64).digest())
                        chains += 1
                    r = (int.from_bytes(b"".join(blocks), "little") >> read) % 2**w
                    read += w
                    if r < len(moves):
                        break
            s = apply_move(s, moves[r])
        counts[sumtroid(s) - sumtroid(initial)] += 1
    return dict(sorted(counts.items())), chains


def test_flat_four_distribution_matches_the_frozen_masses():
    dist = final_distribution(flat_clusteron(4))
    expected = {
        int(f["sumtroid"]): Fraction(f["mass"]) for f in golden_flat4_finals()
    }
    assert dist.mass == expected
    assert dist.prob(0) == Fraction(1, 3)
    assert dist.prob(99) == 0
    assert dist.support() == (-3, -1, 0, 1, 3)


def test_distribution_keys_are_translation_invariant():
    here = final_distribution(flat_clusteron(4))
    there = final_distribution(parse_state("1111@37"))
    assert here.mass == there.mass
    padded = final_distribution(parse_state("0001111000"))
    assert padded.mass == here.mass


def test_forced_play_gives_a_point_mass():
    dist = final_distribution(clusteron((1, 2)))
    assert dist.mass == {0: Fraction(1)}


def test_fast_and_generic_paths_agree(reference_explore):
    starts = [RoomState(5, parts) for n in range(2, 7) for parts in compositions(n)]
    starts += [clusteron(parts) for parts in ((6, 1), (4, 3), (7, 1))]  # widest excursions
    starts += [flat_clusteron(n) for n in (7, 8, 9)]
    starts += [
        parse_state(text)
        for text in ("1011", "1001111", "10101", "141", "22", "1201@-2", "2112", "1311", "18")
    ]
    # b = 1 palindromes the DP folds by the mirror, and one start it must not fold
    starts += [parse_state(text) for text in ("1001001", "110011", "11011", "1110111", "11101")]
    for s in starts:
        assert final_distribution(s).mass == _graph_distribution(reference_explore(s)), s.text()


def test_mirror_is_a_bit_reversal_that_fixes_flat_starts():
    for n in range(2, 11):
        _, _, width, start, _, _ = reachability._window(flat_clusteron(n))
        assert probability._mirror(start, width) == start
    rng = random.Random(0)
    keys = [(w, key) for w in range(1, 11) for key in range(1 << w)]
    keys += [(w, rng.getrandbits(w)) for w in (31, 64, 100, 129) for _ in range(50)]
    for width, key in keys:
        m = probability._mirror(key, width)
        assert m < 1 << width and probability._mirror(m, width) == key, (key, width)
        assert f"{m:0{width}b}" == f"{key:0{width}b}"[::-1], (key, width)


@pytest.mark.parametrize(
    "text", [*("1" * n for n in range(2, 10)), "10101", "1001001", "110011", "1110111"]
)
def test_packed_successors_commute_with_the_mirror(text):
    b, _, width, start, digits, _ = reachability._window(parse_state(text))
    assert b == 1
    mirror, succ = probability._mirror, reachability._packed_successors
    for key in bfs(start, lambda k: succ(k, b, digits), 10**6).nodes:
        mirrored = sorted(mirror(t, width) for t in succ(key, b, digits))
        assert mirrored == sorted(succ(mirror(key, width), b, digits)), bin(key)


@pytest.mark.parametrize("text", ["1101", "11101"])
def test_a_start_that_is_not_its_own_mirror_is_not_folded(text, monkeypatch):
    s = parse_state(text)
    _, _, width, start, _, _ = reachability._window(s)
    assert probability._mirror(start, width) != start
    peak = _peak_pending(explore(s))  # unfolded, every pending state holds its own mass
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", peak - 1)
    with pytest.raises(BudgetExceededError):
        final_distribution(s)
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", peak)
    final_distribution(s)


def test_states_reached_at_several_depths_merge_exactly(reference_explore):
    # Masses share one run-wide denominator, so contributions that arrive
    # along paths of different lengths add as plain integers.
    for text in ("11111", "211"):
        g = reference_explore(parse_state(text))
        layers = [{g.initial}]
        while layers[-1]:
            layers.append({t for s in layers[-1] for t in g.edges[s]})
        reached = Counter(s for layer in layers for s in layer)
        assert any(reached[s] > 1 for s in g.nodes if g.edges[s]), text
        assert any(reached[s] > 1 for s in g.finals), text
        assert final_distribution(g.initial).mass == _graph_distribution(g), text


def test_d_grows_once_by_the_part_a_share_lacks(monkeypatch):
    # D never leaves the DP, so run it on a made-up graph and read D off the
    # unreduced final fractions: the start has d successors, the first of them
    # e more, and every other key is final.
    s = parse_state("1101")  # not its own mirror, so not folded
    _, _, _, start, _, _ = reachability._window(s)
    monkeypatch.setattr(probability, "Fraction", lambda num, den: (num, den))

    def final_d(d, e):
        kids = [start + 2 * i for i in range(1, d + 1)]  # inside the window, above the start
        graph = {start: kids, kids[0]: [start + 2 * i for i in range(d + 1, d + e + 1)]}
        monkeypatch.setattr(probability, "_packed_successors", lambda key, b, digits: graph.get(key, []))
        fractions = final_distribution(s).mass.values()
        (den,) = {den for _, den in fractions}
        assert sum(num for num, _ in fractions) == den
        return den

    power = probability._GROWTH_POWER
    assert final_d(8, 0) == 8**power  # 1 over 8: one growth
    assert final_d(6, 6) == 6**power  # then 6^(power-1) over 6 divides: no second growth
    assert final_d(4, 6) == 4**power * 3**power  # 4^(power-1) over 6 lacks only the 3
    for num in range(1, 61):
        for d in range(1, 13):
            assert num * (d // math.gcd(num, d)) ** power % d == 0, (num, d)


def test_masses_that_miss_the_denominator_raise(monkeypatch):
    # a power of 0 never grows D and truncates every share that does not divide
    monkeypatch.setattr(probability, "_GROWTH_POWER", 0)
    with pytest.raises(TheoremViolationError, match="masses sum to 0, not 1"):
        final_distribution(flat_clusteron(3))


def test_leaving_the_window_raises_instead_of_wrapping(monkeypatch):
    monkeypatch.setattr(reachability, "_spare_rooms", lambda s: 0)
    with pytest.raises(InvariantViolationError, match="111 reaches an end of the 3-room window"):
        final_distribution(flat_clusteron(3))
    with pytest.raises(InvariantViolationError, match="111 reaches an end of the 3-room window"):
        explore(flat_clusteron(3))
    with pytest.raises(InvariantViolationError, match="111 reaches an end of the 3-room window"):
        final_states(flat_clusteron(3))
    with pytest.raises(InvariantViolationError, match="111 reaches an end of the 3-room window"):
        monte_carlo_counts(3, 10, seed=0)
    for search in (crowded_states, earliest_gap_decrease):
        with pytest.raises(InvariantViolationError, match="22 reaches an end of the 2-room window"):
            search(parse_state("22"))

    # n // 2 spare rooms per side, too few for a flat 6
    monkeypatch.setattr(reachability, "_spare_rooms", lambda s: s.total // 2)
    for seed in range(40):  # no playout may drop an occupant past an end silently
        with pytest.raises(InvariantViolationError, match="end of the 12-room window"):
            monte_carlo_counts(6, 1, seed)

    # forked workers inherit the narrow window; the caller checks every range's
    # finals in first-arrival order, so each split raises the serial message
    monkeypatch.setattr(reachability, "_spare_rooms", lambda s: 0)
    monkeypatch.setattr(probability, "_MC_MIN_RANGE", 1)
    for jobs in (1, 2, 3, 5):
        with pytest.raises(InvariantViolationError, match="111 reaches an end of the 3-room"):
            monte_carlo_counts(3, 10, seed=0, jobs=jobs)
    monkeypatch.setattr(reachability, "_spare_rooms", lambda s: s.total // 2)
    messages = set()
    for jobs in (1, 2, 3, 5):
        with pytest.raises(InvariantViolationError, match="end of the 12-room window") as e:
            monte_carlo_counts(6, 40, seed=0, jobs=jobs)
        messages.add(str(e.value))
    assert len(messages) == 1
    assert multiprocessing.active_children() == []


def test_rows_match_the_frozen_goldens(rows):
    golden = golden_scaled_rows()
    for n in range(3, 10):
        assert rows[n].half_sequence() == golden[n]


def test_rows_are_symmetric_and_sum_to_factorials(rows):
    for n, row in rows.items():
        row.check_symmetry()
        assert sum(row.sequence()) == math.factorial(n - 1)
        assert len(row.sequence()) == 2 * row_half_width(n) + 1


def test_row_support_and_zeros_follow_the_residue_rule(rows):
    for n, row in rows.items():
        bad = zero_pattern_check(row)
        assert bad == (), bad
    assert zero_residue(4) == 2
    assert zero_residue(7) == 0
    assert rows[4].value(2) == 0 and rows[4].value(-2) == 0
    assert rows[5].value(0) == 0 and rows[5].value(-1) == 4


def test_shadows_of_a_flat_start_are_uniform():
    for n in range(2, 9):
        probs = shadow_probabilities(scaled_row(n))
        assert set(probs) == set(range(1, n))
        assert all(p == Fraction(1, n - 1) for p in probs.values())


def test_shadow_of_sumtroid_rejects_the_zero_residue():
    with pytest.raises(DomainError):
        shadow_of_sumtroid(4, 2)
    for k in (4, 99):  # row 4 has half-width 3
        with pytest.raises(DomainError):
            shadow_of_sumtroid(4, k)
    assert shadow_of_sumtroid(4, 1) == 1
    assert shadow_of_sumtroid(4, -3) == 1
    assert shadow_of_sumtroid(4, 3) == 3
    assert shadow_of_sumtroid(4, 0) == 2
    golden = {int(f["sumtroid"]): int(f["shadow_k"]) for f in golden_flat4_finals()}
    assert {k: shadow_of_sumtroid(4, k) for k in golden} == golden


def test_lx_coordinates_roundtrip_on_the_full_support(rows):
    for n in range(3, 9):
        row = rows[n]
        for k in range(-row_half_width(n), row_half_width(n) + 1):
            if row.value(k) == 0:
                continue
            ell, x = sumtroid_to_lx(n, k)
            assert 2 <= ell <= n - 1
            assert 1 <= x <= n - 1
            assert lx_to_sumtroid(n, ell, x) == k
    with pytest.raises(DomainError):
        sumtroid_to_lx(4, 2)
    assert sumtroid_to_lx(2, 0) == (2, 1) and lx_to_sumtroid(2, 2, 1) == 0
    for n, ell, x in ((5, 99, 1), (5, 5, 1), (5, 1, 1), (2, 3, 1), (5, 2, 0), (5, 2, 5)):
        with pytest.raises(DomainError):
            lx_to_sumtroid(n, ell, x)


def test_window_bounds_reproduce_the_documented_sums(rows):
    assert window_bounds(5, -1) == (-2, 1)
    assert sum(rows[4].value(k) for k in range(-2, 2)) == 4 == rows[5].value(-1)
    assert window_bounds(6, -2) == (-4, 0)
    assert sum(rows[5].value(k) for k in range(-4, 1)) == 11 == rows[6].value(-2)
    assert window_bounds(6, -4) == (-5, -1)


@given(st.integers(2, 60), st.integers(-2000, 2000))
def test_window_bounds_equal_the_papers_fraction_form(n, k):
    a = Fraction((k + zero_residue(n)) // n) - Fraction(1 + (-1) ** n, 4)
    lo = Fraction(k) - Fraction(n - 1, 2) - a
    hi = Fraction(k) + Fraction(n - 1, 2) - a - 1
    assert window_bounds(n, k) == (lo, hi)
    assert lo.denominator == 1 and hi - lo == n - 2


def test_window_recurrence_rebuilds_each_row(rows):
    for n in range(4, 11):
        stepped = window_recurrence_step(rows[n - 1])
        assert stepped.n == n
        assert stepped.values == rows[n].values


def test_rows_past_the_goldens_follow_the_recurrence_from_golden_row_nine():
    half = golden_scaled_rows()[9]
    w = len(half) - 1
    row = ScaledRow(9, {k: half[w - abs(k)] for k in range(-w, w + 1)})
    for n in (10, 11):
        row = window_recurrence_step(row)
        assert scaled_row(n) == row, n


def test_monte_carlo_is_seed_and_shard_deterministic():
    a = monte_carlo_counts(5, 400, seed=7)
    b = monte_carlo_counts(5, 400, seed=7)
    assert a == b
    assert sum(a.values()) == 400
    c = monte_carlo_counts(5, 150, seed=7)
    assert sum(c.values()) == 150
    for k, v in c.items():
        assert v <= a.get(k, 0)
    probs = monte_carlo(5, 400, seed=7)
    assert sum(probs.values()) == 1


def _record_ranges(monkeypatch):
    """Make ``_mc_sharded`` record the range bounds of each sharded call."""
    calls = []
    sharded = probability._mc_sharded

    def recording(start, digits, seed, bounds):
        calls.append(list(bounds))
        return sharded(start, digits, seed, bounds)

    monkeypatch.setattr(probability, "_mc_sharded", recording)
    return calls


@pytest.mark.parametrize("n, samples", [(6, 20_000), (10, 5_000)])
def test_monte_carlo_counts_do_not_depend_on_jobs(monkeypatch, n, samples):
    serial = monte_carlo_counts(n, samples, seed=1, jobs=1)
    assert sum(serial.values()) == samples
    calls = _record_ranges(monkeypatch)
    for jobs in (2, 3, 5):
        assert monte_carlo_counts(n, samples, seed=1, jobs=jobs) == serial, jobs
    # no range holds fewer than _MC_MIN_RANGE samples
    ranges = min(5, samples // probability._MC_MIN_RANGE)
    assert [len(b) - 1 for b in calls] == [min(2, ranges), min(3, ranges), ranges]
    assert all(hi - lo >= probability._MC_MIN_RANGE for b in calls for lo, hi in zip(b, b[1:]))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("samples, jobs", [(7, 2), (10, 3), (11, 5), (3, 5), (1, 5), (0, 5)])
def test_uneven_and_tiny_splits_give_the_serial_counts(monkeypatch, samples, jobs):
    monkeypatch.setattr(probability, "_MC_MIN_RANGE", 1)
    serial = monte_carlo_counts(7, samples, seed=11, jobs=1)
    calls = _record_ranges(monkeypatch)
    assert monte_carlo_counts(7, samples, seed=11, jobs=jobs) == serial
    ranges = min(samples, jobs)
    if ranges > 1:  # contiguous ranges whose sizes differ by at most one
        (bounds,) = calls
        assert bounds[0] == 0 and bounds[-1] == samples and len(bounds) == ranges + 1
        sizes = {hi - lo for lo, hi in zip(bounds, bounds[1:])}
        assert sizes <= {samples // ranges, -(-samples // ranges)}
    else:
        assert calls == []
    assert multiprocessing.active_children() == []


def test_small_calls_stay_in_the_caller(monkeypatch):
    calls = _record_ranges(monkeypatch)
    monte_carlo_counts(20, 20, seed=1, jobs=5)  # the CLI golden's call
    monte_carlo_counts(6, 2 * probability._MC_MIN_RANGE - 1, seed=1, jobs=5)
    assert calls == []


def test_jobs_default_to_the_usable_cpus(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert probability._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(probability, "_MC_MIN_RANGE", 1)
    monkeypatch.setattr(probability, "_usable_cpus", lambda: 3)
    calls = _record_ranges(monkeypatch)
    assert monte_carlo_counts(5, 12, seed=2) == monte_carlo_counts(5, 12, seed=2, jobs=1)
    assert calls == [[0, 4, 8, 12]]
    with pytest.raises(DomainError, match="jobs must be >= 1, got 0"):
        monte_carlo_counts(5, 12, seed=2, jobs=0)


def test_without_fork_every_range_runs_in_the_caller(monkeypatch):
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(probability, "_MC_MIN_RANGE", 1)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert monte_carlo_counts(7, 50, seed=3, jobs=3) == monte_carlo_counts(7, 50, seed=3, jobs=1)


def _failing_workers(monkeypatch, fail):
    """Run ``fail(lo)`` in place of every range's playout but the caller's first."""
    finals = probability._mc_finals

    def patched(start, digits, seed, lo, hi):
        if lo:
            fail(lo)
        return finals(start, digits, seed, lo, hi)

    monkeypatch.setattr(probability, "_MC_MIN_RANGE", 1)
    monkeypatch.setattr(probability, "_mc_finals", patched)


def test_a_worker_error_reaches_the_caller_whole(monkeypatch):
    def fail(lo):
        raise BudgetExceededError(lo)

    _failing_workers(monkeypatch, fail)
    with pytest.raises(BudgetExceededError, match=r"^node budget of 4 exceeded$") as e:
        monte_carlo_counts(5, 12, seed=2, jobs=3)
    assert e.value.budget == 4
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_is_reported_and_joined(monkeypatch):
    _failing_workers(monkeypatch, lambda lo: os._exit(3))
    with pytest.raises(RuntimeError, match="a sampler worker exited with code 3"):
        monte_carlo_counts(5, 12, seed=2, jobs=3)
    assert multiprocessing.active_children() == []


def test_workers_are_stopped_when_the_caller_fails(monkeypatch):
    finals = probability._mc_finals

    def patched(start, digits, seed, lo, hi):
        if not lo:
            raise KeyboardInterrupt
        time.sleep(60)
        return finals(start, digits, seed, lo, hi)

    monkeypatch.setattr(probability, "_MC_MIN_RANGE", 1)
    monkeypatch.setattr(probability, "_mc_finals", patched)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        monte_carlo_counts(5, 12, seed=2, jobs=3)
    assert time.perf_counter() - t0 < 30
    assert multiprocessing.active_children() == []


def test_monte_carlo_sample_stream_is_pinned():
    # sample i reads its draws from blake2b(f"{seed}:{i}"), one per step with a choice
    assert monte_carlo_counts(7, 200, seed=11) == {
        -9: 5, -8: 11, -6: 10, -5: 8, -4: 12, -3: 15, -2: 25, -1: 21, 1: 22, 2: 20,
        3: 13, 4: 17, 5: 7, 6: 5, 8: 8, 13: 1,
    }


def test_a_stream_that_overflows_the_successor_memo_is_pinned():
    # 1,000 samples of size 10 visit 11,794 states, past the memo's cap, so
    # later steps draw from the pair mask and fire with _packed_move
    assert probability._MC_MEMO_STATES < 11_794
    assert monte_carlo_counts(10, 1000, seed=1) == {
        -23: 3, -20: 6, -19: 1, -18: 4, -17: 10, -16: 11, -14: 10, -13: 13,
        -12: 12, -11: 14, -10: 35, -9: 26, -8: 37, -7: 47, -6: 60, -4: 54,
        -3: 39, -2: 52, -1: 57, 0: 57, 1: 39, 2: 44, 3: 39, 4: 47, 6: 47, 7: 28,
        8: 36, 9: 36, 10: 33, 11: 21, 12: 23, 13: 12, 14: 11, 16: 14, 17: 7,
        18: 4, 19: 4, 20: 1, 21: 3, 24: 1, 26: 1, 29: 1,
    }


@pytest.mark.parametrize("cap", [0, 1, probability._MC_MEMO_STATES])
def test_the_memo_cap_does_not_change_the_stream(monkeypatch, cap):
    # cap 0 plays every step from the pair mask, 1 mixes both paths from the
    # first sample on, and the default memoises every state of size 7
    monkeypatch.setattr(probability, "_MC_MEMO_STATES", cap)
    assert monte_carlo_counts(7, 200, seed=11) == {
        -9: 5, -8: 11, -6: 10, -5: 8, -4: 12, -3: 15, -2: 25, -1: 21, 1: 22, 2: 20,
        3: 13, 4: 17, 5: 7, 6: 5, 8: 8, 13: 1,
    }

    # n // 2 spare rooms per side, too few for a flat 6
    monkeypatch.setattr(reachability, "_spare_rooms", lambda s: s.total // 2)
    for seed in range(40):  # on either path, a dropped occupant must not pass silently
        with pytest.raises(InvariantViolationError, match="end of the 12-room window"):
            monte_carlo_counts(6, 1, seed)


@pytest.mark.parametrize("n, samples", [(4, 300), (5, 300), (6, 300), (7, 300), (20, 10)])
def test_the_sampler_matches_the_hash_stream_reference(monkeypatch, n, samples):
    # n = 4..7 step past draws >= count; n = 20 reads chained digests
    expected, chains = _hash_stream_counts(n, samples, seed=1)
    assert chains > 0 if n == 20 else chains == 0
    for cap in (0, 1, probability._MC_MEMO_STATES):
        monkeypatch.setattr(probability, "_MC_MEMO_STATES", cap)
        assert monte_carlo_counts(n, samples, seed=1) == expected, cap


def test_negative_seeds_are_rejected():
    # the hash stream would take "-1:" apart from "1:", but mc keeps the rule
    # of run --seed, where Random seeds with |seed| and -1 would replay 1
    with pytest.raises(DomainError, match="seed must be >= 0"):
        monte_carlo_counts(4, 10, seed=-1)
    assert sum(monte_carlo_counts(4, 10, seed=0).values()) == 10


def test_monte_carlo_hits_only_legal_sumtroids(rows):
    counts = monte_carlo_counts(6, 300, seed=3)
    legal = {k for k in rows[6].values if rows[6].value(k)}
    assert set(counts) <= legal


def test_row_serialization_roundtrip(rows):
    text = row_to_json(rows[5])
    again = row_from_json(text)
    assert again == rows[5]
    payload = json.loads(text)
    assert payload["n"] == 5
    assert "sha256" in payload


def test_tampered_payloads_are_rejected(rows):
    payload = json.loads(row_to_json(rows[4]))
    payload["values"][0]["v"] = str(int(payload["values"][0]["v"]) + 1)
    with pytest.raises(TheoremViolationError):
        row_from_json(json.dumps(payload))


def test_distribution_serialization_roundtrip():
    dist = final_distribution(flat_clusteron(4))
    assert row_from_json(row_to_json(dist)) == dist


def test_csv_export_shape(rows):
    lines = row_to_csv(rows[3]).strip().splitlines()
    assert lines[0] == "K,value"
    assert len(lines) == 2 * row_half_width(3) + 2
    assert lines[1] == "-1,1"


def test_cache_roundtrip_and_corruption_recovery(tmp_path):
    first = scaled_row(5, cache_dir=tmp_path)
    cached = list(tmp_path.glob("*.json"))
    assert len(cached) == 1
    second = scaled_row(5, cache_dir=tmp_path)
    assert second == first
    cached[0].write_text("{ not json")
    third = scaled_row(5, cache_dir=tmp_path)
    assert third == first
    tampered = json.loads(row_to_json(first))
    tampered["values"][0]["v"] = "999"
    cached[0].write_text(json.dumps(tampered))
    fourth = scaled_row(5, cache_dir=tmp_path)
    assert fourth == first


def _peak_pending(g, mirror=None):
    """Most masses pending at once in a DP that pops ``g.nodes`` in order, as it does explore's.

    With ``mirror``, a state and its mirror share one mass under the earlier node.
    """
    order = {s: i for i, s in enumerate(g.nodes)}
    held = (lambda s: s) if mirror is None else (lambda s: min(s, mirror(s), key=order.get))
    pending, peak = {g.initial}, 0
    for s in g.nodes:
        if s in pending:
            peak = max(peak, len(pending))
            pending.remove(s)
            pending.update(map(held, g.edges[s]))
    return peak


def test_node_budget_is_enforced(monkeypatch):
    # the budget counts the masses pending at once, not the states processed
    crowded = parse_state("141")
    g, flat = explore(crowded), explore(flat_clusteron(8))  # before the budget is patched
    peak = _peak_pending(g)
    assert (len(g.nodes), peak) == (316, 49)
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", 50)
    with pytest.raises(BudgetExceededError) as exc:
        final_distribution(flat_clusteron(9))
    assert exc.value.budget == 50
    with pytest.raises(BudgetExceededError):
        scaled_row(9)
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", 2)
    with pytest.raises(BudgetExceededError):
        final_distribution(parse_state("011110"))
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", peak - 1)
    with pytest.raises(BudgetExceededError):
        final_distribution(crowded)
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", peak)
    final_distribution(crowded)
    # A folded run holds one mass per mirror class: a pair of states, or one self-mirror state.
    def mirror(s):  # reflected in the start's rooms 0..7
        return RoomState(8 - s.offset - len(s.occupancy), s.occupancy[::-1])

    peak = _peak_pending(flat, mirror)
    assert (len(flat.nodes), peak) == (3255, 344)
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", peak - 1)
    with pytest.raises(BudgetExceededError):
        final_distribution(flat_clusteron(8))
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", peak)
    final_distribution(flat_clusteron(8))


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 8), st.data())
def test_row_values_scale_the_exact_distribution(n, data):
    row = scaled_row(n)
    dist = final_distribution(flat_clusteron(n))
    k = data.draw(st.integers(-row_half_width(n), row_half_width(n)))
    assert Fraction(row.value(k), math.factorial(n - 1)) == dist.prob(k)
