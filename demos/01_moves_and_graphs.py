"""A first tour: states, moves, pushing, and the move graph.

Four violinists sit in consecutive rooms.  Any two in adjacent rooms may
jump apart, one to the nearest empty room on the left, the other to the
nearest empty room on the right.  This script plays the game by hand and
exports the full game graph as DOT text.
"""
from dispersion import (
    LabeledState,
    apply_move,
    apply_move_labeled,
    available_moves,
    entropy,
    explore,
    export_dot,
    flat_clusteron,
    is_final,
    parse_state,
    run_policy,
    sumtroid,
)


def main() -> None:
    start = flat_clusteron(4)
    print(f"start: {start.text()}  (rooms 0..3, one occupant each)")
    print(f"sumtroid {sumtroid(start)}, entropy {entropy(start)}")
    print()

    print("available moves:")
    for m in available_moves(start):
        t = apply_move(start, m)
        print(
            f"  pair {m.pair}: occupants jump to {m.left_target} and "
            f"{m.right_target} -> {t.text()}  (sumtroid {m.sumtroid_delta:+d})"
        )
    print()

    print("every move strictly raises the entropy, so play always ends:")
    s = start
    labeled = LabeledState.from_state(s)
    while not is_final(s):
        m = available_moves(s)[0]
        labeled = apply_move_labeled(labeled, m, state=s)
        s = apply_move(s, m)
        print(f"  {s.text():>14}  entropy {entropy(s)}")
    print(f"final occupant rooms, in order: {labeled.positions}")
    print()

    print("a crowded room forces the whole play:")
    path = run_policy(parse_state("12"))
    print("  " + " -> ".join(p.text() for p in path))
    print()

    g = explore(start)
    print(f"flat size-4 move graph: {len(g.nodes)} states, {len(g.finals)} finals")
    dot = "".join(export_dot(start, mode="dag", labels="pattern"))
    print(f"DOT export has {dot.count('->')} edges; first lines:")
    for line in dot.splitlines()[:4]:
        print("  " + line)


if __name__ == "__main__":
    main()
