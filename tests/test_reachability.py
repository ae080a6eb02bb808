"""Exhaustive exploration, final classification, and locked-in structure."""
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from dispersion import (
    BudgetExceededError,
    DomainError,
    FinalShadowId,
    Move,
    TheoremViolationError,
    apply_move,
    available_moves,
    clusteron,
    crowded_states,
    displacements,
    earliest_gap_decrease,
    entropy,
    explore,
    export_dot,
    final_shadow_family,
    final_shadow_set,
    final_states,
    flat_clusteron,
    flat_final_placements,
    gap_delta_class,
    gaps,
    is_final,
    is_spacious,
    locked_in_map,
    max_displacement,
    merge_shadows_check,
    parse_state,
    placement_of,
    run_policy,
    state_from_positions,
    sumtroid,
    verify_locked_in_equivalence,
)
from dispersion import reachability
from dispersion.verify import compositions


def test_flat_four_graph_has_known_shape(flat_graphs):
    g = flat_graphs[4]
    assert len(g.nodes) == 18
    assert len(g.finals) == 5
    assert g.depths()[g.initial] == 0
    assert all(is_final(f) for f in g.finals)
    assert sum(len(e) for e in g.edges.values()) == sum(
        len(available_moves(s)) for s in g.nodes
    )


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_depths_are_the_fewest_moves_to_each_state(n, flat_graphs, reference_explore):
    # key order (explore) and breadth-first discovery order (_bfs) both give the fewest moves
    for g in (flat_graphs[n], reference_explore(flat_clusteron(n))):
        parents: dict = {}
        for s in g.nodes:
            for t in g.edges[s]:
                parents.setdefault(t, []).append(s)
        depth = g.depths()
        assert depth[g.initial] == 0 and len(depth) == len(g.nodes)
        assert all(depth[t] == 1 + min(depth[s] for s in ps) for t, ps in parents.items())


_REFERENCE_STARTS = {
    s.text(): s
    for s in [flat_clusteron(n) for n in range(1, 10)]
    + [clusteron(parts) for n in range(2, 8) for parts in compositions(n)]
    + [
        parse_state(text)
        for text in ("1011", "1001111", "10101", "141", "22", "2112", "1311", "1201@-2", "18")
    ]
}


@pytest.mark.parametrize("start", _REFERENCE_STARTS.values(), ids=_REFERENCE_STARTS.keys())
def test_edges_hold_the_successors_in_move_order(start, reference_explore):
    g, ref = explore(start), reference_explore(start)
    assert g.initial == ref.initial == g.nodes[0]
    assert len(g.nodes) == len(ref.nodes) and set(g.nodes) == set(ref.nodes)
    assert g.edges == ref.edges
    position = {s: i for i, s in enumerate(g.nodes)}
    assert all(position[s] < position[t] for s in g.nodes for t in g.edges[s])
    assert g.finals == tuple(s for s in g.nodes if is_final(s))
    assert final_states(start) == g.finals


def test_explore_respects_its_node_budget(monkeypatch):
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", 25)
    with pytest.raises(BudgetExceededError) as exc:
        explore(flat_clusteron(7))
    assert exc.value.budget == 25
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", 316)
    assert len(explore(parse_state("141")).nodes) == 316
    assert final_states(parse_state("141")) == explore(parse_state("141")).finals
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", 315)
    with pytest.raises(BudgetExceededError):
        explore(parse_state("141"))
    with pytest.raises(BudgetExceededError):
        final_states(parse_state("141"))


@pytest.mark.parametrize("text", ["11111@-3", "22", "141", "1[12]01@-2"])
def test_packed_keys_decode_to_their_state(text):
    s = parse_state(text)
    b, floor, _, start, _, _ = reachability._window(s)
    assert reachability._unpack(start, b, floor) == s


def test_flat_windows_spare_n_rooms_per_side_and_others_2n():
    for text in ("11", "111111", "11111@-3"):
        s = parse_state(text)
        _, floor, width, _, _, _ = reachability._window(s)
        assert (floor, width) == (s.offset - s.total, 3 * s.total)
    for text in ("2", "22", "141", "101", "1[12]01@-2"):
        s = parse_state(text)
        _, floor, width, _, _, _ = reachability._window(s)
        assert (floor, width) == (s.offset - 2 * s.total, 4 * s.total + len(s.occupancy))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_flat_starts_reach_every_final_shadow(n):
    assert final_shadow_set(flat_clusteron(n)) == final_shadow_family(n)


def test_the_two_smallest_crowded_starts_reach_one_shadow_each():
    assert final_shadow_set(clusteron((1, 2))) == frozenset({FinalShadowId(3, 1)})
    assert final_shadow_set(clusteron((2, 1))) == frozenset({FinalShadowId(3, 2)})


def test_width_one_crowded_starts_are_stuck():
    s = clusteron((3,))
    assert available_moves(s) == ()
    with pytest.raises(TheoremViolationError):
        final_shadow_set(s)


def test_placement_of_reads_shadow_and_leftmost():
    p = placement_of(parse_state("10100101@-2"))
    assert p.shadow_id == FinalShadowId(4, 2)
    assert p.leftmost_room == -2
    assert p.to_state() == parse_state("10100101@-2")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_predicted_flat_placements_match_exploration(n, flat_graphs):
    observed = frozenset(placement_of(f) for f in flat_graphs[n].finals if n > 1)
    if n == 1:
        assert flat_graphs[1].finals == (flat_clusteron(1),)
        assert flat_final_placements(1) == frozenset()
    else:
        assert flat_final_placements(n) == observed


def test_placement_count_follows_the_quadratic_formula():
    for n in range(5, 9):
        assert len(flat_final_placements(n)) == (n - 3) * (n - 1) + 2


def test_spaciousness_on_samples():
    assert is_spacious(parse_state("10101"))
    assert is_spacious(parse_state("110011"))
    assert is_spacious(parse_state("11"))
    assert not is_spacious(parse_state("111"))
    assert not is_spacious(parse_state("11011"))
    assert not is_spacious(parse_state("1101011"))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_locked_in_equals_spacious_everywhere(n, flat_graphs):
    g = flat_graphs[n]
    assert verify_locked_in_equivalence(g) == ()
    locked = locked_in_map(g)
    for f in g.finals:
        assert locked[f]
    assert not locked[g.initial] or n <= 2


def test_locked_in_states_keep_their_sumtroid(flat_graphs):
    g = flat_graphs[5]
    locked = locked_in_map(g)
    for s in g.nodes:
        if not locked[s]:
            continue
        k = sumtroid(s)
        stack = [s]
        seen = {s}
        while stack:
            u = stack.pop()
            assert sumtroid(u) == k
            for t in g.edges[u]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)


# the compositions and crowded starts include b >= 2 windows, where key order and entropy order differ
_ORDER_STARTS = {
    "flat": [flat_clusteron(n) for n in range(1, 9)],
    **{f"compositions of {n}": [clusteron(p) for p in compositions(n)] for n in range(2, 8)},
    "crowded": [parse_state(t) for t in ("141", "22", "2112", "1311", "1201@-2", "18", "31")],
}
_DOT_OPTIONS = [{}, {"half": "left"}, {"half": "right"}, {"prune_locked_in": True}]


def _entropy_references(g):
    """Reference locked-in map and DOT tree size per option set, over decreasing entropy."""
    order = sorted(g.nodes, key=entropy, reverse=True)  # a reverse topological order
    locked = {}
    for s in order:
        k = sumtroid(s)
        locked[s] = all(sumtroid(t) == k and locked[t] for t in g.edges[s])
    sizes = []
    for options in _DOT_OPTIONS:
        size = {}
        for s in order:
            children = () if options.get("prune_locked_in") and locked[s] else g.edges[s]
            if s == g.initial:
                children = reachability._half_slice(children, options.get("half", "full"))
            size[s] = 1 + sum(size[t] for t in children)
        sizes.append(size[g.initial])
    return locked, sizes


class _Emitting(Exception):
    """Raised in place of the first DOT line: the tree passed its budget."""


@pytest.mark.parametrize("starts", _ORDER_STARTS.values(), ids=_ORDER_STARTS.keys())
def test_key_order_matches_the_entropy_order_references(starts, monkeypatch):
    def emitting(*args):
        raise _Emitting

    graphs = [explore(start) for start in starts]  # before the budget is patched
    monkeypatch.setattr(reachability, "_dot_id", emitting)
    for start, g in zip(starts, graphs):
        locked, sizes = _entropy_references(g)
        assert locked_in_map(g) == locked, start.text()
        # export_dot reuses the graph and the map just checked; only its path counts run
        monkeypatch.setattr(reachability, "explore", lambda s: g)
        monkeypatch.setattr(reachability, "locked_in_map", lambda graph: locked)
        for options, size in zip(_DOT_OPTIONS, sizes):
            # the tree fits a budget of exactly its reference size, and not one less
            monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", size)
            with pytest.raises(_Emitting):
                "".join(export_dot(start, mode="tree", **options))
            monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", size - 1)
            with pytest.raises(BudgetExceededError):
                export_dot(start, mode="tree", **options)


@given(st.builds(state_from_positions, st.sets(st.integers(-8, 8), min_size=2, max_size=7)))
def test_gap_deltas_are_limited_to_three_classes(s):
    for m in available_moves(s):
        delta = gap_delta_class(s, m)
        assert delta in (-1, 0, 1)
        assert len(gaps(apply_move(s, m))) - len(gaps(s)) == delta


def test_gap_classes_reject_unavailable_moves():
    s = parse_state("1011")
    for m in (Move(0, 1, 1), Move(2, 5, 1), Move(9, 1, 1)):
        with pytest.raises(DomainError):
            gap_delta_class(s, m)


def test_gap_classes_hold_on_every_move_reached_from_small_clusterons():
    states = {
        s
        for n in range(2, 7)
        for parts in compositions(n)
        for s in explore(clusteron(parts)).nodes
        if s.single_occupancy
    }
    seen = set()
    for s in states:
        for m in available_moves(s):
            delta = gap_delta_class(s, m)
            assert len(gaps(apply_move(s, m))) - len(gaps(s)) == delta
            seen.add(delta)
    assert seen == {-1, 0, 1}


def test_gap_decreases_start_at_move_three():
    assert earliest_gap_decrease(clusteron((2, 1, 1))) == 3
    assert earliest_gap_decrease(flat_clusteron(5)) == 4
    assert earliest_gap_decrease(flat_clusteron(2)) is None


def _full_graph_earliest_gap_decrease(g):
    """Reference: every move of every single-occupancy node, read off the graph's edges."""
    depth = g.depths()
    best = None
    for s in g.nodes:
        if not s.single_occupancy:
            continue
        for t in g.edges[s]:
            if len(gaps(t)) - len(gaps(s)) == -1:
                move_number = depth[s] + 1
                if best is None or move_number < best:
                    best = move_number
    return best


_COMPOSITIONS = {n: [clusteron(p) for p in compositions(n)] for n in range(2, 8)}
_CROWDED_AND_GAPPED = [
    parse_state(text) for text in ("141", "22", "2112", "1311", "1201@-2", "18", "31", "303")
]
_SMALL_CLUSTERONS = {
    "flat": [flat_clusteron(n) for n in range(2, 9)],
    **{f"compositions of {n}": starts for n, starts in _COMPOSITIONS.items()},
    "crowded and gapped": _CROWDED_AND_GAPPED,
}


@pytest.mark.parametrize("starts", _SMALL_CLUSTERONS.values(), ids=_SMALL_CLUSTERONS.keys())
def test_earliest_gap_decrease_matches_the_full_graph_search(starts, reference_explore):
    for s in starts:
        expected = _full_graph_earliest_gap_decrease(reference_explore(s))
        assert earliest_gap_decrease(s) == expected, s.text()


@pytest.mark.parametrize(
    "starts",
    [*_COMPOSITIONS.values(), _CROWDED_AND_GAPPED],
    ids=[*map(str, _COMPOSITIONS), "crowded and gapped"],
)
def test_crowded_states_are_the_crowded_nodes_of_the_graph(starts, reference_explore):
    for s in starts:
        # crowded_states keeps breadth-first discovery order
        expected = tuple(t for t in reference_explore(s).nodes if not t.single_occupancy)
        assert crowded_states(s) == expected, s.text()


def test_locked_in_searches_respect_the_node_budget(monkeypatch):
    # each search counts only the states it expands or stops at, not the whole graph
    s141, s1311 = parse_state("141"), parse_state("1311")
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", 35)
    assert len(crowded_states(s141)) == 23
    assert earliest_gap_decrease(s141) == 5
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", 34)
    with pytest.raises(BudgetExceededError):
        crowded_states(s141)
    with pytest.raises(BudgetExceededError):
        earliest_gap_decrease(s141)
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", 48)
    assert earliest_gap_decrease(s1311) == 4
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", 47)
    with pytest.raises(BudgetExceededError):
        earliest_gap_decrease(s1311)


def test_adjacent_final_shadows_merge_into_one():
    rep = merge_shadows_check(3, 1, 2, 1)
    assert rep.ok
    assert rep.expected == FinalShadowId(5, 2)
    rep = merge_shadows_check(2, 1, 3, 2)
    assert rep.ok and rep.expected == FinalShadowId(5, 3)


def test_displacements_are_rank_aligned():
    start = flat_clusteron(3)
    final = parse_state("101001@-1")
    assert displacements(final, start) == (-1, 0, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_no_occupant_moves_farther_than_n_minus_one(n, flat_graphs):
    assert max_displacement(flat_graphs[n]) == n - 1


def test_extreme_policies_reach_the_extreme_corners():
    n = 5
    start = flat_clusteron(n)
    left_play = run_policy(start, "leftmost")
    right_play = run_policy(start, "rightmost")
    assert is_final(left_play[-1]) and is_final(right_play[-1])
    d_left = displacements(left_play[-1], start)
    d_right = displacements(right_play[-1], start)
    assert d_left[-1] == n - 1
    assert d_right[0] == -(n - 1)
    assert placement_of(left_play[-1]).shadow_id == FinalShadowId(n, n - 1)
    assert placement_of(right_play[-1]).shadow_id == FinalShadowId(n, 1)


def test_random_policy_is_seed_deterministic():
    a = run_policy(flat_clusteron(6), "random", seed=11)
    b = run_policy(flat_clusteron(6), "random", seed=11)
    assert a == b
    assert is_final(a[-1])


def test_dot_export_modes():
    full = "".join(export_dot(flat_clusteron(4), mode="dag"))
    assert full.startswith("digraph")
    assert full.count("label=") == 18
    tree = "".join(export_dot(flat_clusteron(4), mode="tree", labels="sumtroid"))
    assert tree.count("->") == 19
    pruned = "".join(export_dot(flat_clusteron(5), mode="dag", prune_locked_in=True))
    assert pruned.count("label=") < "".join(export_dot(flat_clusteron(5), mode="dag")).count(
        "label="
    )
    half = "".join(export_dot(flat_clusteron(4), mode="tree", half="left"))
    assert half.count("->") < tree.count("->")


@pytest.mark.parametrize(
    "n, options, nodes",
    [(4, {}, 20), (5, {"half": "left"}, 102), (6, {"prune_locked_in": True}, 1284), ("121", {}, 29)],
)
def test_dot_tree_budget_counts_the_emitted_tree(monkeypatch, n, options, nodes):
    # an int is the flat start of that size, a string a state's text
    start = flat_clusteron(n) if isinstance(n, int) else parse_state(n)
    # each tree outgrows its graph (18, 72, 274 and 21 states): the budget bounds the tree exactly
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", nodes)
    tree = "".join(export_dot(start, mode="tree", **options))
    assert tree.count("label=") == nodes
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", nodes - 1)
    with pytest.raises(BudgetExceededError):
        export_dot(start, mode="tree", **options)


def _reference_dag(g, locked, half="full", prune_locked_in=False):
    """Reference dag, a ``_bfs`` through the kept edges: its node lines and edge-line multiset."""

    def children(s):
        if prune_locked_in and locked[s]:
            return ()
        return reachability._half_slice(g.edges[s], half) if s == g.initial else g.edges[s]

    kept = reachability._bfs(g.initial, children, len(g.nodes))
    dot_id = reachability._dot_id
    # listed in key order, as export_dot lists them; the edges in any order
    nodes = [f'  {dot_id(s.text())} [label="{s.text()}"];' for s in g.nodes if s in kept.edges]
    edges = Counter(f"  {dot_id(s.text())} -> {dot_id(t.text())};" for s in kept.nodes for t in kept.edges[s])
    return nodes, edges


_DAG_STARTS = [
    *(flat_clusteron(n) for n in range(1, 9)),
    *(clusteron(p) for n in range(2, 7) for p in compositions(n)),
    *(parse_state(t) for t in ("2112", "1201@-2", "141")),
]


def test_dag_export_equals_a_bfs_through_the_kept_edges():
    for start in _DAG_STARTS:
        g = explore(start)
        locked = locked_in_map(g)
        for options in _DOT_OPTIONS:
            nodes, edges = _reference_dag(g, locked, **options)
            lines = "".join(export_dot(start, mode="dag", **options)).splitlines()
            assert lines[:2] == ["digraph dispersion {", "  node [shape=box];"]
            assert lines[-1] == "}"
            assert lines[2 : 2 + len(nodes)] == nodes, (start.text(), options)
            assert Counter(lines[2 + len(nodes) : -1]) == edges, (start.text(), options)
