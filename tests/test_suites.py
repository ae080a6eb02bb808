"""Run-length suite codec and the move correspondence."""
import pytest
from hypothesis import given, strategies as st

from dispersion import (
    DomainError,
    InvalidMoveError,
    MalformedStateError,
    Move,
    ReachGraph,
    RoomState,
    apply_move,
    apply_suite_move,
    available_moves,
    explore,
    flat_clusteron,
    from_suites,
    parse_state,
    state_from_positions,
    sumtroid,
    suite_move_for,
    suite_moves,
    to_suites,
    verify_move_correspondence,
)
from conftest import bfs, run_scan_suite_move_for

single_states = st.builds(
    state_from_positions, st.sets(st.integers(-9, 9), min_size=1, max_size=9)
)


def test_codec_on_the_documented_example():
    assert to_suites(parse_state("1011001")).occupancy == (1, 2, 0, 1)
    assert to_suites(parse_state("1011001")).text() == "1201"
    assert to_suites(parse_state("1011001")) == parse_state("1201")
    assert from_suites(parse_state("1201")).pattern() == "1011001"


def test_codec_keeps_the_offset():
    ss = to_suites(parse_state("110011@-2"))
    assert ss.offset == -2
    assert ss.text() == "202@-2"
    assert from_suites(ss).text() == "110011@-2"


def test_multiple_occupancy_has_no_suite_view():
    with pytest.raises(DomainError):
        to_suites(parse_state("12"))


def test_suite_windows_must_end_in_blocks():
    assert parse_state("012").offset == 1
    with pytest.raises(MalformedStateError):
        parse_state("0")
    with pytest.raises(MalformedStateError):
        RoomState(0, (1, 2, 0))
    with pytest.raises(MalformedStateError):
        parse_state("\u0662")


@given(single_states)
def test_codec_roundtrip_is_identity(s):
    assert from_suites(to_suites(s)) == s


def test_splits_of_the_flat_four_suite():
    ss = to_suites(flat_clusteron(4))
    assert ss.occupancy == (4,)
    results = {apply_suite_move(ss, m).text() for m in suite_moves(ss)}
    assert results == {"103@-1", "202@-1", "301@-1"}


@given(single_states)
def test_suite_moves_mirror_room_moves(s):
    ss = to_suites(s)
    room_moves = available_moves(s)
    assert len(suite_moves(ss)) == len(room_moves)
    for m in room_moves:
        t = apply_move(s, m)
        sm = suite_move_for(s, m)
        assert sm == run_scan_suite_move_for(s, m)
        tt = apply_suite_move(ss, sm)
        assert tt == to_suites(t)
        assert sumtroid(tt) - sumtroid(ss) == m.sumtroid_delta


@pytest.mark.parametrize(
    "start",
    [flat_clusteron(n) for n in range(2, 9)] + [parse_state("1011001"), parse_state("110011@-2")],
    ids=lambda s: s.text(),
)
def test_split_read_off_the_run_equals_the_run_scan(start):
    for s in explore(start).nodes:
        for m in available_moves(s):
            assert suite_move_for(s, m) == run_scan_suite_move_for(s, m), (s.text(), m)


@pytest.mark.parametrize(
    "m", [Move(10, 1, 1), Move(0, 3, 2), Move(2, 2, 1)], ids=lambda m: f"{m.pair}:{m.left_nbhd},{m.right_nbhd}"
)
def test_a_move_the_state_lacks_has_no_suite_mirror(m):
    with pytest.raises(InvalidMoveError):
        suite_move_for(parse_state("1011001"), m)


def test_crowded_states_have_no_suite_mirror():
    s = parse_state("121")
    with pytest.raises(DomainError):
        suite_move_for(s, available_moves(s)[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_move_graphs_are_isomorphic(n):
    g = explore(flat_clusteron(n))
    rep = verify_move_correspondence(g)
    assert rep.ok, rep.mismatches
    assert rep.room_nodes == len(g.nodes)
    # the local check's induction, held against a search of the suite view
    view = bfs(
        to_suites(g.initial),
        lambda ss: tuple(apply_suite_move(ss, m) for m in suite_moves(ss)),
        len(g.nodes),
    )
    assert set(view.nodes) == {to_suites(s) for s in g.nodes}
    assert sum(map(len, view.edges.values())) == sum(map(len, g.edges.values()))


def test_truncated_room_graph_stops_the_suite_search():
    start = flat_clusteron(6)
    rep = verify_move_correspondence(ReachGraph(start, (start,), {start: ()}))
    assert not rep.ok
    assert rep.room_nodes == 1
    assert rep.mismatches == ("111111: 5 suite splits but 0 edges",)


def test_a_wrong_successor_is_reported():
    g = explore(flat_clusteron(4))
    edges = {**g.edges, g.initial: g.edges[g.initial][::-1]}
    rep = verify_move_correspondence(ReachGraph(g.initial, g.nodes, edges))
    assert not rep.ok
    assert rep.mismatches == (
        "1111: move (0, 1) maps to 301@-1 but suite move gives 103@-1",
        "1111: move (2, 3) maps to 103@-1 but suite move gives 301@-1",
    )
