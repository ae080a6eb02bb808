"""Suite codec: the run-length view of single-occupancy states.

A suite is a maximal block of consecutively occupied rooms.  The codec
writes each block as its size and each gap of g empty rooms as g-1
zero cells, so the room pattern "1011001" becomes the suite pattern
"1201".  The suite view is itself a :class:`RoomState` at the room
offset whose positive cells hold the suite sizes.  On single-occupancy
states the translation is a bijection; a move splitting a suite of size
k into x and k-x mirrors the room move fired at the x-th adjacent pair
of the block, and both change the centroid by the same amount.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, InvalidMoveError
from .reachability import ReachGraph
from .states import Move, RoomState, available_moves, sumtroid, validate_move


def to_suites(s: RoomState) -> RoomState:
    """Encode a single-occupancy state as suites.

    The suite window keeps the room offset, which makes the encoding a
    bijection on positioned states, not only on shadows.
    """
    if not s.single_occupancy:
        raise DomainError(f"suite view needs single occupancy: {s.text()}")
    cells: list[int] = []
    run = 0
    gap = 0
    for c in s.occupancy:
        if c:
            if run == 0 and cells:
                cells.extend([0] * (gap - 1))
            gap = 0
            run += 1
        else:
            if run:
                cells.append(run)
            run = 0
            gap += 1
    cells.append(run)
    return RoomState(s.offset, tuple(cells))


def from_suites(ss: RoomState) -> RoomState:
    """Decode suites back to rooms; inverse of :func:`to_suites`."""
    occ: list[int] = []
    zeros = 0
    for v in ss.occupancy:
        if v == 0:
            zeros += 1
            continue
        if occ:
            occ.extend([0] * (zeros + 1))
        zeros = 0
        occ.extend([1] * v)
    return RoomState(ss.offset, tuple(occ))


@dataclass(frozen=True)
class SuiteMove:
    """Split the suite at absolute cell ``position``: x left, rest right."""

    position: int
    split: int


def suite_moves(ss: RoomState) -> list[SuiteMove]:
    """All splits, ordered by cell position then split size."""
    out = []
    for j, v in enumerate(ss.occupancy):
        if v >= 2:
            out.extend(SuiteMove(ss.offset + j, x) for x in range(1, v))
    return out


def apply_suite_move(ss: RoomState, m: SuiteMove) -> RoomState:
    j = m.position - ss.offset
    if not (0 <= j < len(ss.occupancy)) or ss.occupancy[j] < 2:
        raise InvalidMoveError(f"no splittable suite at {m.position} in {ss.text()}")
    k = ss.occupancy[j]
    if not (1 <= m.split <= k - 1):
        raise InvalidMoveError(f"split {m.split} out of range for suite of {k}")
    cells = list(ss.occupancy)
    offset = ss.offset
    cells[j] = 0
    if j == 0:
        cells.insert(0, m.split)
        offset -= 1
        j += 1
    else:
        cells[j - 1] += m.split
    if j == len(cells) - 1:
        cells.append(k - m.split)
    else:
        cells[j + 1] += k - m.split
    return RoomState(offset, tuple(cells))


def suite_move_for(s: RoomState, m: Move) -> SuiteMove:
    """The suite move mirroring a room move of a single-occupancy state.

    The fired pair's run starts at the left target's right neighbour and
    splits after its first ``left_nbhd`` rooms.  Before the run each run
    takes one cell and each gap of g rooms g-1 cells, so the run's cell
    index is the number of empty rooms before it.
    """
    validate_move(s, m)
    if not s.single_occupancy:
        raise DomainError(f"suite view needs single occupancy: {s.text()}")
    run_start = m.left_target + 1
    return SuiteMove(run_start - sum(s.occupancy[: run_start - s.offset]), m.left_nbhd)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of the room/suite move comparison."""

    room_nodes: int
    mismatches: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_move_correspondence(g: ReachGraph) -> CorrespondenceReport:
    """Check that encoding the graph's states as suites is a graph isomorphism.

    At each room node the suite splits are the images of its moves, one
    split per move and no other, each reaching the encoded successor and
    shifting the sumtroid as the room move does (both views hold the
    same total, so the centroids shift alike); and no two nodes share an
    encoding.  By induction from the start, every split of the suite
    view is then the image of exactly one room edge, so no suite search
    is needed.
    """
    mismatches: list[str] = []
    encoded = {s: to_suites(s) for s in g.nodes}
    if len(set(encoded.values())) != len(encoded):
        mismatches.append("suite encoding is not injective on reachable states")
    for s, ss in encoded.items():
        moves, splits, k = available_moves(s), suite_moves(ss), sumtroid(ss)
        if len(splits) != len(g.edges[s]):
            mismatches.append(f"{s.text()}: {len(splits)} suite splits but {len(g.edges[s])} edges")
        images = [suite_move_for(s, m) for m in moves]
        if len(set(images)) != len(images) or set(images) != set(splits):
            mismatches.append(f"{s.text()}: its moves do not mirror its suite splits one to one")
        for m, sm, t in zip(moves, images, g.edges[s]):
            try:
                tt = apply_suite_move(ss, sm)
            except InvalidMoveError:
                mismatches.append(f"{s.text()}: move {m.pair} has no suite mirror")
                continue
            tt_room = encoded.get(t) or to_suites(t)
            if tt != tt_room:
                mismatches.append(
                    f"{s.text()}: move {m.pair} maps to {tt_room.text()} "
                    f"but suite move gives {tt.text()}"
                )
            suite_delta = sumtroid(tt) - k
            if suite_delta != m.sumtroid_delta:
                mismatches.append(
                    f"{s.text()}: sumtroid delta {m.sumtroid_delta} vs suite {suite_delta}"
                )
    return CorrespondenceReport(room_nodes=len(g.nodes), mismatches=tuple(mismatches))
