"""Exhaustive exploration of the move graph and its structural checks.

Everything here is exact and deterministic: a walk of packed keys in
increasing order that holds only its frontier, final-state classification, the
spacious/locked-in equivalence, gap counting, displacement tracking,
and DOT export of move trees and graphs.
"""
from __future__ import annotations

import heapq
import random
import re
from collections.abc import Callable, Hashable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import BudgetExceededError, DomainError, InvariantViolationError, TheoremViolationError
from .states import (
    FinalShadowId,
    Move,
    RoomState,
    apply_move,
    available_moves,
    centered_sumtroid,
    classify_final_shadow,
    gaps,
    sumtroid,
    validate_move,
)

# States an engine holds at once (explore's nodes, a walk's waiting keys, the DP's pending
# masses): ~1.3 GB at the heaviest peak RSS per held state, the DP's (README).
DEFAULT_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class ReachGraph:
    """All states reachable from ``initial``; a state is any hashable value.

    ``nodes`` starts with ``initial``: :func:`explore` lists them as its walk
    pops their keys, in increasing key order, which is topological.  ``edges``
    maps each state to its successors in order, so that in :func:`explore`
    ``edges[s][i] == apply_move(s, available_moves(s)[i])``.
    """

    initial: Hashable
    nodes: tuple[Hashable, ...]
    edges: dict[Hashable, tuple[Hashable, ...]]

    @property
    def finals(self) -> tuple[Hashable, ...]:
        """The nodes without successors, in node order."""
        return tuple(s for s in self.nodes if not self.edges[s])


# ---------------------------------------------------------------------------
# packed-count kernel, shared with the exact DP: room floor+j holds its count in
# bits b*j .. b*j+b-1 (a bit mask when b = 1).  A move adds B^l + B^r and removes
# B^i + B^(i+1) with r >= i+2 and B = 2^b >= 2, so increasing key order is a
# topological order of the move graph.  Every pair i in a maximal run a..z of
# occupied rooms moves to l = a-1 and r = z+1, so one sum serves the whole run.


def _packed_successors(key: int, b: int, digits: int) -> list[int]:
    """One key per available move; an occupant with no empty room on its side drops.

    ``digits`` sets the low bit of every field in the window.  Move
    targets are empty rooms, so no count ever outgrows its b bits.
    Successors come low bit first, which is left-to-right pair order,
    the order of :func:`available_moves`.
    """
    occ = key
    for t in range(1, b):
        occ |= key >> t
    occ &= digits
    pairs = (occ & (occ >> b)) * ((1 << b) - 1)  # each pair's low field all ones
    out = []
    while pairs:
        low = pairs & -pairs  # B^a: the run's first pair
        rest = pairs + low  # the carry past the run's pairs lands on B^z
        pairs = rest & (rest - 1)
        above = (rest ^ pairs) << b
        run = key + (low >> b) + (above & digits)
        move = low + (low << b)
        while move < above:
            out.append(run - move)
            move <<= b
    return out


def _packed_move(key: int, low: int, empty: int) -> int:
    """Fire the pair at bit ``low`` of a mask: each takes its nearest ``empty`` room or drops."""
    below = empty & (low - 1)
    above = empty & -(low << 2)
    return key - low - (low << 1) + (1 << below.bit_length() >> 1) + (above & -above)


def _spare_rooms(initial: RoomState) -> int:
    """Spare rooms on each side of the start's window: n when flat, else 2n.

    No occupant of a flat start moves more than n - 1 rooms, and n spare
    rooms keep its keys below 2^30 up to n = 10.  Over all 1,022 compositions
    of 2..10 no state reaches more than 1.4 n rooms past an end of the start;
    the widest excursion, 14 rooms, comes from 31 starts of 10 such as (9, 1).
    """
    n = initial.total
    return n if initial.occupancy == (1,) * n else 2 * n


def _window(initial: RoomState) -> tuple[int, int, int, int, int, int]:
    """b, first room, width, start key, digits and ends of the start's window.

    The window holds :func:`_spare_rooms` spare rooms on each side of the start.
    """
    spare = _spare_rooms(initial)
    b = max(initial.occupancy).bit_length()
    width = 2 * spare + len(initial.occupancy)
    field = (1 << b) - 1
    digits = ((1 << b * width) - 1) // field  # the low bit of every room's field
    ends = field | field << b * (width - 1)  # the window's first and last room
    start = sum(c << b * (spare + j) for j, c in enumerate(initial.occupancy))
    return b, initial.offset - spare, width, start, digits, ends


def _window_error(key: int, b: int, floor: int, width: int) -> InvariantViolationError:
    state = _unpack(key, b, floor).text()
    return InvariantViolationError(f"{state} reaches an end of the {width}-room window")


def _unpack(key: int, b: int, floor: int, shapes: dict | None = None) -> RoomState:
    """The state of a nonzero key whose lowest field is room ``floor``; ``shapes`` interns its tuple."""
    skip = ((key & -key).bit_length() - 1) // b  # empty rooms below the first occupant
    key >>= b * skip
    field = (1 << b) - 1
    counts = []
    while key:
        counts.append(key & field)
        key >>= b
    occ = tuple(counts)
    return RoomState(floor + skip, occ if shapes is None else shapes.setdefault(occ, occ))


def _walk(window: tuple, stop: Callable[[int], bool] | None = None) -> Iterator[tuple[int, list]]:
    """Each key reachable in the window with its successors, in increasing key order.

    Every move raises the key, so a popped key is never reached again and
    only the keys still waiting are held; more than ``DEFAULT_NODE_BUDGET``
    of them raise :class:`BudgetExceededError`.  A key ``stop`` holds gets
    no successors.
    """
    b, floor, width, start, digits, ends = window
    heap, waiting = [start], {start}
    while heap:
        if len(heap) > DEFAULT_NODE_BUDGET:
            raise BudgetExceededError(DEFAULT_NODE_BUDGET)
        key = heapq.heappop(heap)
        waiting.remove(key)
        if key & ends:
            raise _window_error(key, b, floor, width)
        succ = [] if stop is not None and stop(key) else _packed_successors(key, b, digits)
        for t in succ:
            if t not in waiting:
                waiting.add(t)
                heapq.heappush(heap, t)
        yield key, succ


def explore(initial: RoomState) -> ReachGraph:
    """The move graph of ``initial``: one successor per available move.

    Nodes come in :func:`_walk`'s increasing key order on the exact DP's
    window (see :func:`_spare_rooms`).  Each state is built once, when
    first reached, and translates share one occupancy tuple.  Raises
    :class:`BudgetExceededError` when more than ``DEFAULT_NODE_BUDGET``
    states are reachable, and :class:`InvariantViolationError` when a
    state reaches the first or last room of the window.
    """
    b, floor, _, start, _, _ = window = _window(initial)
    shapes: dict = {}
    waiting = {start: _unpack(start, b, floor, shapes)}  # the state of each key not yet expanded
    edges: dict = {}
    for key, succ in _walk(window):
        if len(edges) >= DEFAULT_NODE_BUDGET:
            raise BudgetExceededError(DEFAULT_NODE_BUDGET)
        out = []
        for t in succ:
            s = waiting.get(t)
            if s is None:
                s = waiting[t] = _unpack(t, b, floor, shapes)
            out.append(s)
        edges[waiting.pop(key)] = tuple(out)
    nodes = tuple(edges)
    return ReachGraph(nodes[0], nodes, edges)


def final_states(initial: RoomState) -> tuple[RoomState, ...]:
    """``explore(initial).finals``, holding only the search's frontier.

    The walk and its errors are those of :func:`explore`, but its budget
    counts the keys waiting at once; the finals come in key order.
    """
    b, floor, *_ = window = _window(initial)
    return tuple(_unpack(key, b, floor) for key, succ in _walk(window) if not succ)


def final_shadow_set(initial: RoomState) -> frozenset[FinalShadowId]:
    """Shadows of the final states reachable from ``initial``, read off :func:`final_states`.

    Raises :class:`TheoremViolationError` when a reachable final state
    is not a member of the final shadow family (crowded room, gap wider
    than 2, ...), since every movable clusteron is expected to land in
    the family.
    """
    out = set()
    bad = []
    for f in final_states(initial):
        fid = classify_final_shadow(f)
        if fid is None:
            bad.append(f.text())
        else:
            out.add(fid)
    if bad:
        raise TheoremViolationError(
            f"finals outside the shadow family from {initial.text()}: {bad}"
        )
    return frozenset(out)


class FinalPlacement(NamedTuple):
    """A final shadow together with its leftmost occupied room."""

    shadow_id: FinalShadowId
    leftmost_room: int

    def to_state(self) -> RoomState:
        return self.shadow_id.to_state(self.leftmost_room)


def placement_of(final_state: RoomState) -> FinalPlacement:
    fid = classify_final_shadow(final_state)
    if fid is None:
        raise DomainError(f"not a family final: {final_state.text()}")
    return FinalPlacement(fid, final_state.offset)


def flat_final_placements(n: int) -> frozenset[FinalPlacement]:
    """Predicted final placements of the flat clusteron at rooms 0..n-1.

    The two extreme shadows appear once more, at leftmost rooms -n+1 and
    -1; every shadow appears at each leftmost room -n+2..-2.  For n = 1
    the start state is already final and carries no 2-gap, so the set is
    empty.  Placement count for n >= 5 is (n-3)(n-1) + 2.
    """
    if n < 2:
        return frozenset()
    out = {
        FinalPlacement(FinalShadowId(n, 1), -n + 1),
        FinalPlacement(FinalShadowId(n, n - 1), -1),
    }
    for k in range(1, n):
        for leftmost in range(-n + 2, -1):
            out.add(FinalPlacement(FinalShadowId(n, k), leftmost))
    return frozenset(out)


def is_spacious(s: RoomState) -> bool:
    """No run of three occupied rooms; 2-runs separated by a wide gap.

    Wide means two or more empty rooms.  Defined for single-occupancy
    states only.
    """
    if not s.single_occupancy:
        raise DomainError(f"spaciousness needs single occupancy: {s.text()}")
    occ = s.occupancy
    run = 0
    pending_pair = False  # a 2-run seen, no wide gap since
    gap = 0
    for c in occ + (0, 0):  # sentinel flushes the last run
        if c:
            if gap >= 2:
                pending_pair = False
            gap = 0
            run += 1
            if run >= 3:
                return False
        else:
            if run == 2:
                if pending_pair:
                    return False
                pending_pair = True
            run = 0
            gap += 1
    return True


def locked_in_map(g: ReachGraph) -> dict[RoomState, bool]:
    """For each node: do all continuations keep the sumtroid fixed?

    Processed in reverse node order, so the nodes must come in a
    topological order, as :func:`explore`'s increasing keys do.
    """
    locked: dict[RoomState, bool] = {}
    for s in reversed(g.nodes):
        k = sumtroid(s)
        locked[s] = all(
            sumtroid(t) == k and locked[t] for t in g.edges[s]
        )
    return locked


def verify_locked_in_equivalence(g: ReachGraph) -> tuple[str, ...]:
    """Check locked-in == spacious on every node; returns the mismatches."""
    locked = locked_in_map(g)
    return tuple(
        f"{s.text()}: locked_in={locked[s]} spacious={is_spacious(s)}"
        for s in g.nodes
        if locked[s] != is_spacious(s)
    )


def gap_delta_class(s: RoomState, m: Move) -> int:
    """Classify how the move changes the gap count: +1, 0 or -1.

    The fired pair always opens one new 2-gap; each side of its run
    either merges away a 1-gap or shrinks a wider gap (or extends the
    span at a border).  The predicted class is verified against the
    actual gap count of the successor.
    """
    if not s.single_occupancy:
        raise DomainError("gap classes are defined on single-occupancy states")
    validate_move(s, m, DomainError)
    # a side merges away a 1-gap exactly when the room beyond its target is occupied
    predicted = 1 - (s.count(m.left_target - 1) > 0) - (s.count(m.right_target + 1) > 0)
    actual = len(gaps(apply_move(s, m))) - len(gaps(s))
    if predicted != actual:
        raise TheoremViolationError(
            f"gap delta of {s.text()} at {m.pair}: predicted {predicted}, got {actual}"
        )
    return predicted


def earliest_gap_decrease(initial: RoomState) -> int | None:
    """Smallest move number (1-based) at which a -1 gap event can occur.

    Its search goes one move layer at a time on :func:`explore`'s packed
    keys and stops at the first state with a -1 move.  Every key reached
    is checked against the window's ends, and more than ``DEFAULT_NODE_BUDGET``
    keys reached raise :class:`BudgetExceededError`.
    """
    b, floor, width, start, digits, ends = _window(initial)
    if start & ends:
        raise _window_error(start, b, floor, width)
    seen, layer, move = {start}, [start], 1
    while layer:
        reached = []
        for key in layer:
            s = _unpack(key, b, floor)
            if s.single_occupancy and -1 in (gap_delta_class(s, m) for m in available_moves(s)):
                return move
            for t in _packed_successors(key, b, digits):
                if t not in seen:
                    if len(seen) >= DEFAULT_NODE_BUDGET:
                        raise BudgetExceededError(DEFAULT_NODE_BUDGET)
                    if t & ends:
                        raise _window_error(t, b, floor, width)
                    seen.add(t)
                    reached.append(t)
        layer, move = reached, move + 1
    return None


def crowded_states(initial: RoomState) -> tuple[RoomState, ...]:
    """The reachable states with a crowded room, in increasing key order.

    Moves fill only empty rooms, so a single-occupancy state leads only
    to single-occupancy states, which the walk does not expand.  The
    budget counts its waiting keys and, apart, the crowded states found.
    """
    b, floor, _, _, digits, _ = window = _window(initial)
    crowd = ~digits  # a crowded room's field holds a bit above its lowest
    out = []
    for key, _ in _walk(window, lambda key: not key & crowd):
        if key & crowd:
            if len(out) >= DEFAULT_NODE_BUDGET:
                raise BudgetExceededError(DEFAULT_NODE_BUDGET)
            out.append(_unpack(key, b, floor))
    return tuple(out)


@dataclass(frozen=True)
class MergeReport:
    """Outcome of running two adjacent final shadows to completion."""

    expected: FinalShadowId
    finals: tuple[FinalPlacement, ...]
    sumtroid_constant: bool
    nodes: int

    @property
    def ok(self) -> bool:
        return (
            len(self.finals) == 1
            and self.finals[0].shadow_id == self.expected
            and self.sumtroid_constant
        )


def merge_shadows_check(n1: int, x: int, n2: int, y: int) -> MergeReport:
    """Place F(n1, x) directly left of F(n2, y) and explore.

    The combined state is spacious except for the touching pair, and the
    expectation is a single final placement with shadow F(n1+n2, x+y)
    and an unchanged sumtroid everywhere.
    """
    left = FinalShadowId(n1, x).to_state(leftmost=0)
    right = FinalShadowId(n2, y).to_state(leftmost=2 * n1)
    occ = left.occupancy + right.occupancy
    initial = RoomState(0, occ)
    g = explore(initial)
    k0 = sumtroid(initial)
    constant = all(sumtroid(s) == k0 for s in g.nodes)
    finals = tuple(sorted(placement_of(f) for f in g.finals))
    return MergeReport(FinalShadowId(n1 + n2, x + y), finals, constant, len(g.nodes))


def displacements(s: RoomState, start: RoomState) -> tuple[int, ...]:
    """Per-occupant room change between two states of equal size.

    Occupants are identified by left-to-right rank, which pushing
    preserves, so the k-th occupant always sits at the k-th smallest
    occupied room.
    """
    a = start.positions()
    b = s.positions()
    if len(a) != len(b):
        raise DomainError("states have different occupant counts")
    return tuple(q - p for p, q in zip(a, b))


def max_displacement(g: ReachGraph) -> int:
    """Largest |room change| any occupant shows across the graph."""
    return max(
        (abs(d) for s in g.nodes for d in displacements(s, g.initial)),
        default=0,
    )


def run_policy(
    initial: RoomState,
    policy: str = "leftmost",
    seed: int | None = None,
) -> list[RoomState]:
    """Play moves to a final state; returns the full trajectory.

    Policies: "leftmost" and "rightmost" take the extreme available
    move, "random" draws uniformly with a generator seeded with ``seed``
    (0 when not given).  A seed is rejected with any other policy, where
    it would do nothing, and when negative, since it would replay |seed|.
    """
    if policy not in ("leftmost", "rightmost", "random"):
        raise DomainError(f"unknown policy {policy!r}")
    if seed is not None and policy != "random":
        raise DomainError(f"a seed applies only to the random policy, not {policy!r}")
    if seed is not None and seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = random.Random(0 if seed is None else seed)
    path = [initial]
    while moves := available_moves(path[-1]):
        if policy == "leftmost":
            m = moves[0]
        elif policy == "rightmost":
            m = moves[-1]
        else:
            m = moves[rng.randrange(len(moves))]
        path.append(apply_move(path[-1], m))
    return path


_ID_RE = re.compile(r"[^0-9A-Za-z]")


def _dot_id(text: str, taken: dict[str, int] | None = None) -> str:
    base = "s_" + _ID_RE.sub("_", text)
    if taken is None:
        return base
    serial = taken.get(base, 0)
    taken[base] = serial + 1
    return base if serial == 0 else f"{base}_x{serial}"


def _half_slice(edges: tuple, half: str) -> tuple:
    if half == "full" or len(edges) <= 1:
        return edges
    cut = (len(edges) + 1) // 2
    return edges[:cut] if half == "left" else edges[len(edges) - cut:]


def export_dot(
    initial: RoomState,
    mode: str = "tree",
    labels: str = "pattern",
    half: str = "full",
    prune_locked_in: bool = False,
) -> Iterator[str]:
    """Render the move tree or deduplicated move graph as DOT text, lazily.

    ``labels`` chooses between state patterns and centered sumtroids.
    ``half`` restricts the root to the left or right half of its moves
    (mirror symmetry makes the other half redundant for flat starts).
    ``prune_locked_in`` drops all children of locked-in states, which
    keep their sumtroid forever and add no information.  Both the graph
    and a tree (one node per root path) are capped at ``DEFAULT_NODE_BUDGET``
    nodes.  Chunks come lazily, a dag's nodes in :func:`explore`'s key order;
    every error, the tree count included, is raised before the first line.
    """
    if mode not in ("tree", "dag"):
        raise DomainError(f"unknown mode {mode!r}")
    if labels not in ("pattern", "sumtroid"):
        raise DomainError(f"unknown labels {labels!r}")
    if half not in ("full", "left", "right"):
        raise DomainError(f"unknown half {half!r}")

    g = explore(initial)
    locked = locked_in_map(g) if prune_locked_in else {}

    def label(s: RoomState) -> str:
        if labels == "sumtroid":
            return str(centered_sumtroid(s))
        return s.text()

    def children(s: RoomState) -> tuple[RoomState, ...]:
        if prune_locked_in and locked[s]:
            return ()
        edges = g.edges[s]
        return _half_slice(edges, half) if s == initial else edges

    paths = dict.fromkeys(g.nodes, 0)  # paths from the root over kept edges: tree nodes per state
    paths[initial] = 1
    for s in g.nodes:  # key order is topological, so paths[s] is complete here
        for t in children(s):
            paths[t] += paths[s]
    if mode == "tree" and sum(paths.values()) > DEFAULT_NODE_BUDGET:
        raise BudgetExceededError(DEFAULT_NODE_BUDGET)

    def lines() -> Iterator[str]:
        yield "digraph dispersion {\n  node [shape=box];\n"
        if mode == "dag":
            kept = [s for s, count in paths.items() if count]
            for s in kept:
                yield f'  {_dot_id(s.text())} [label="{label(s)}"];\n'
            for s in kept:
                for t in children(s):
                    yield f"  {_dot_id(s.text())} -> {_dot_id(t.text())};\n"
        else:
            taken: dict[str, int] = {}
            stack: list[tuple[RoomState, str | None]] = [(initial, None)]
            while stack:  # depth first, children in move order
                s, parent_id = stack.pop()
                node_id = _dot_id(s.text(), taken)
                yield f'  {node_id} [label="{label(s)}"];\n'
                if parent_id is not None:
                    yield f"  {parent_id} -> {node_id};\n"
                stack.extend((t, node_id) for t in reversed(children(s)))
        yield "}\n"
    return lines()
