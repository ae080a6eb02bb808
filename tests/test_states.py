"""Room states, moves, pushing, and the scalar invariants."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dispersion import (
    InvalidMoveError,
    LabeledState,
    MalformedStateError,
    RoomState,
    apply_move,
    apply_move_labeled,
    available_moves,
    centered_sumtroid,
    classify_final_shadow,
    clusteron,
    entropy,
    final_shadow_family,
    flat_clusteron,
    gaps,
    has_crowded_isolated_room,
    is_final,
    parse_state,
    state_from_positions,
    sumtroid,
)
from dispersion.states import FinalShadowId, parse_pattern

position_lists = st.lists(st.integers(-9, 9), min_size=1, max_size=8)
states = st.builds(state_from_positions, position_lists)
single_states = st.builds(
    state_from_positions, st.sets(st.integers(-9, 9), min_size=1, max_size=8)
)


def test_parse_pattern_reads_counts_and_offset():
    assert parse_pattern("1011") == ([1, 0, 1, 1], 0)
    assert parse_pattern("0010@-3") == ([0, 0, 1, 0], -3)
    assert parse_pattern("1[12]1") == ([1, 12, 1], 0)


def test_parse_state_trims_empty_border_rooms():
    s = parse_state("0011010010")
    assert s.offset == 2
    assert s.pattern() == "1101001"
    assert parse_state("1011@-1").text() == "1011@-1"


@pytest.mark.parametrize(
    "bad", ["", "abc", "000", "1x1", "@3", "11@", "\u0661\u0661", "1\u0661@-\u0662"]
)
def test_malformed_patterns_are_rejected(bad):
    with pytest.raises(MalformedStateError):
        parse_state(bad)


def test_window_ends_must_be_occupied():
    with pytest.raises(MalformedStateError):
        RoomState(0, (0, 1, 1))
    with pytest.raises(MalformedStateError):
        RoomState(0, (1, 1, 0))


@given(states)
def test_text_roundtrip_is_identity(s):
    assert parse_state(s.text()) == s


@given(states)
def test_positions_rebuild_the_state(s):
    assert state_from_positions(s.positions()) == s
    assert s.total == len(s.positions())


def test_clusteron_builders():
    assert flat_clusteron(4).pattern() == "1111"
    assert flat_clusteron(3).text() == "111"
    assert clusteron((1, 2)).pattern() == "12"
    with pytest.raises(MalformedStateError):
        clusteron((1, 0, 1))
    with pytest.raises(MalformedStateError):
        flat_clusteron(0)


def test_flat_four_has_three_moves_with_known_targets():
    s = flat_clusteron(4)
    moves = available_moves(s)
    assert [m.pair for m in moves] == [(0, 1), (1, 2), (2, 3)]
    left = moves[0]
    assert (left.left_target, left.right_target) == (-1, 4)
    assert left.sumtroid_delta == 2
    mid = moves[1]
    assert (mid.left_target, mid.right_target) == (-1, 4)
    assert mid.sumtroid_delta == 0
    assert apply_move(s, left).text() == "100111@-1"
    assert apply_move(s, mid).text() == "110011@-1"
    assert apply_move(s, moves[2]).text() == "111001@-1"


def test_crowded_start_plays_a_forced_chain():
    s = clusteron((1, 2))
    seen = [s.text()]
    while not is_final(s):
        moves = available_moves(s)
        assert len(moves) == 1
        s = apply_move(s, moves[0])
        seen.append(s.text())
    assert seen == ["12", "1011@-1", "11001@-1", "100101@-2"]


def test_stale_moves_are_rejected():
    s = flat_clusteron(3)
    m = available_moves(s)[0]
    t = apply_move(s, m)
    with pytest.raises(InvalidMoveError):
        apply_move(t, m)


@given(states)
def test_every_move_raises_entropy_and_shifts_the_sumtroid(s):
    e, k = entropy(s), sumtroid(s)
    for m in available_moves(s):
        t = apply_move(s, m)
        assert t.total == s.total
        assert entropy(t) > e
        assert sumtroid(t) - k == m.sumtroid_delta


@given(states)
def test_finality_means_no_moves(s):
    assert is_final(s) == (not available_moves(s))


def test_proper_final_needs_single_occupancy():
    proper = parse_state("10101")
    assert is_final(proper) and proper.single_occupancy
    lone_crowded = parse_state("2")
    assert is_final(lone_crowded) and not lone_crowded.single_occupancy
    assert not is_final(parse_state("11"))


def test_crowded_isolated_room_detection():
    assert has_crowded_isolated_room(parse_state("102"))
    assert has_crowded_isolated_room(parse_state("2"))
    assert not has_crowded_isolated_room(parse_state("12"))
    assert not has_crowded_isolated_room(parse_state("10101"))


@given(states)
def test_pushing_matches_the_room_move(s):
    ls = LabeledState.from_state(s)
    for m in available_moves(s):
        pushed = apply_move_labeled(ls, m)
        assert pushed.positions == tuple(sorted(pushed.positions))
        assert pushed.to_state() == apply_move(s, m)


def test_entropy_is_exact_for_negative_rooms():
    assert entropy(parse_state("11@-2")) == Fraction(3, 4)
    assert entropy(parse_state("101")) == Fraction(5)


def test_scalar_invariants_on_a_sample():
    s = parse_state("110101@-2")
    assert sumtroid(s) == -2 - 1 + 1 + 3
    assert gaps(s) == (1, 1)


@given(single_states, st.integers(-5, 5))
def test_centered_sumtroid_is_translation_covariant(s, shift):
    t = RoomState(s.offset + shift, s.occupancy)
    n = s.total
    assert centered_sumtroid(t) == centered_sumtroid(s) + n * shift
    assert centered_sumtroid(RoomState(shift, (1,) * n)) == n * shift


def test_final_shadow_family_and_classification():
    fam = final_shadow_family(4)
    assert {f.k for f in fam} == {1, 2, 3}
    for f in fam:
        s = f.to_state()
        assert sum(s.occupancy) == 4
        assert len(s.occupancy) == 8
        assert classify_final_shadow(s) == f
    assert FinalShadowId(4, 2).to_state().pattern() == "10100101"
    assert classify_final_shadow(parse_state("10101")) is None
    assert classify_final_shadow(parse_state("1001001")) is None
    assert classify_final_shadow(parse_state("101001")) == FinalShadowId(3, 2)


@given(st.integers(2, 9), st.data())
def test_shadow_ids_roundtrip(n, data):
    k = data.draw(st.integers(1, n - 1))
    f = FinalShadowId(n, k)
    assert classify_final_shadow(f.to_state()) == f
    leftmost = data.draw(st.integers(-9, 9).filter(bool))
    assert classify_final_shadow(f.to_state(leftmost)) == f
    assert f.to_state(leftmost=5).offset == 5
