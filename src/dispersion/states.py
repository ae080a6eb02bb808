"""Room states, moves, and scalar invariants of two-sided dispersion.

The process lives on an infinite line of rooms indexed by integers.  A
state assigns a nonnegative occupant count to every room; only the
window from the leftmost to the rightmost occupied room is stored,
together with the absolute index of the window start.

A move picks two occupants in adjacent occupied rooms (i, i+1) and
sends one to the nearest empty room left of i and the other to the
nearest empty room right of i+1.  Both targets exist because the state
is finite, so every move is always fully determined by its pair.

Pattern strings use one character per room ("1011"), a bracketed count
for occupancies above nine ("1[12]1"), and an optional "@k" suffix
giving the absolute room index of the first character ("1011@-1").

A shadow is a state with its position forgotten.  It has no type of
its own: shadow functions (:func:`gaps`, :func:`classify_final_shadow`)
take a :class:`RoomState` and read only its occupancy.
"""
from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .errors import InvalidMoveError, MalformedStateError

# [0-9], not \d: patterns are ASCII, and \d also matches other scripts' digits
_PATTERN_RE = re.compile(r"(?P<body>(?:[0-9]|\[[0-9]+\])+)(?:@(?P<offset>-?[0-9]+))?\Z")
_TOKEN_RE = re.compile(r"\[([0-9]+)\]|([0-9])")


def parse_pattern(text: str) -> tuple[list[int], int]:
    """Split a pattern string into its count list and declared offset.

    No trimming is applied; the offset refers to the first character.
    """
    m = _PATTERN_RE.match(text.strip())
    if m is None:
        raise MalformedStateError(f"not a state pattern: {text!r}")
    counts = []
    for tok in _TOKEN_RE.finditer(m.group("body")):
        counts.append(int(tok.group(1) or tok.group(2)))
    offset = int(m.group("offset") or 0)
    return counts, offset


def _format_count(c: int) -> str:
    return str(c) if c < 10 else f"[{c}]"


@dataclass(frozen=True, slots=True)
class RoomState:
    """Occupancy window of the room line.

    ``occupancy[j]`` is the number of occupants of room ``offset + j``.
    The first and last entries are always positive.
    """

    offset: int
    occupancy: tuple[int, ...]

    def __post_init__(self) -> None:
        occ = self.occupancy
        if not occ or occ[0] <= 0 or occ[-1] <= 0 or any(c < 0 for c in occ):
            raise MalformedStateError(f"bad occupancy window {occ!r}")

    @property
    def total(self) -> int:
        """Number of occupants."""
        return sum(self.occupancy)

    @property
    def rightmost(self) -> int:
        return self.offset + len(self.occupancy) - 1

    def count(self, room: int) -> int:
        j = room - self.offset
        if 0 <= j < len(self.occupancy):
            return self.occupancy[j]
        return 0

    def rooms(self) -> range:
        """Absolute indices of the stored window."""
        return range(self.offset, self.offset + len(self.occupancy))

    def positions(self) -> tuple[int, ...]:
        """Sorted multiset of occupant rooms."""
        out: list[int] = []
        for room, c in zip(self.rooms(), self.occupancy):
            out.extend([room] * c)
        return tuple(out)

    @property
    def single_occupancy(self) -> bool:
        return all(c <= 1 for c in self.occupancy)

    def pattern(self) -> str:
        return "".join(_format_count(c) for c in self.occupancy)

    def text(self) -> str:
        """Pattern plus "@offset" when the window does not start at 0."""
        if self.offset:
            return f"{self.pattern()}@{self.offset}"
        return self.pattern()

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text()


def parse_state(text: str) -> RoomState:
    """Parse a pattern string, trimming empty rooms at both ends."""
    counts, offset = parse_pattern(text)
    lo = 0
    while lo < len(counts) and counts[lo] == 0:
        lo += 1
    if lo == len(counts):
        raise MalformedStateError(f"no occupied rooms in {text!r}")
    hi = len(counts)
    while counts[hi - 1] == 0:
        hi -= 1
    return RoomState(offset + lo, tuple(counts[lo:hi]))


def state_from_positions(positions: Iterator[int]) -> RoomState:
    """Build a state from a multiset of occupant rooms."""
    pos = sorted(positions)
    if not pos:
        raise MalformedStateError("empty position multiset")
    counts = [0] * (pos[-1] - pos[0] + 1)
    for p in pos:
        counts[p - pos[0]] += 1
    return RoomState(pos[0], tuple(counts))


def flat_clusteron(n: int) -> RoomState:
    """n single occupants in consecutive rooms 0..n-1."""
    if n < 1:
        raise MalformedStateError("need at least one occupant")
    return RoomState(0, (1,) * n)


def clusteron(parts: Iterator[int]) -> RoomState:
    """Consecutive occupied rooms from room 0 with the given counts (all positive)."""
    counts = tuple(parts)
    if not counts or any(c < 1 for c in counts):
        raise MalformedStateError(f"clusteron parts must be positive: {counts!r}")
    return RoomState(0, counts)


@dataclass(frozen=True)
class Move:
    """A move at the adjacent occupied pair (left_room, left_room + 1).

    ``left_nbhd`` is the distance from left_room to the nearest empty
    room on its left, so exactly left_nbhd - 1 rooms left of the pair
    are occupied; ``right_nbhd`` mirrors this on the right.
    """

    left_room: int
    left_nbhd: int
    right_nbhd: int

    @property
    def pair(self) -> tuple[int, int]:
        return (self.left_room, self.left_room + 1)

    @property
    def left_target(self) -> int:
        return self.left_room - self.left_nbhd

    @property
    def right_target(self) -> int:
        return self.left_room + 1 + self.right_nbhd

    @property
    def sumtroid_delta(self) -> int:
        """Exact change of the sumtroid when this move is applied."""
        return self.right_nbhd - self.left_nbhd


def _move_at(s: RoomState, j: int) -> Move:
    # j indexes the occupancy window; caller guarantees the pair is occupied
    occ = s.occupancy
    left = 1
    k = j - 1
    while k >= 0 and occ[k] > 0:
        left += 1
        k -= 1
    right = 1
    k = j + 2
    while k < len(occ) and occ[k] > 0:
        right += 1
        k += 1
    return Move(s.offset + j, left, right)


def available_moves(s: RoomState) -> tuple[Move, ...]:
    """All moves of s, ordered left to right by pair position."""
    occ = s.occupancy
    return tuple(
        _move_at(s, j)
        for j in range(len(occ) - 1)
        if occ[j] > 0 and occ[j + 1] > 0
    )


def is_final(s: RoomState) -> bool:
    """True when no adjacent pair of rooms is occupied."""
    occ = s.occupancy
    return not any(occ[j] and occ[j + 1] for j in range(len(occ) - 1))


def has_crowded_isolated_room(s: RoomState) -> bool:
    """True if some room holds >= 2 occupants and both neighbors are empty."""
    occ = s.occupancy
    for j, c in enumerate(occ):
        if c >= 2 and (j == 0 or occ[j - 1] == 0) and (
            j == len(occ) - 1 or occ[j + 1] == 0
        ):
            return True
    return False


def validate_move(s: RoomState, m: Move, error: type[Exception] = InvalidMoveError) -> None:
    """Raise ``error`` unless m is the move s offers at m's pair."""
    j = m.left_room - s.offset
    if not (0 <= j < len(s.occupancy) - 1) or not (
        s.occupancy[j] and s.occupancy[j + 1]
    ):
        raise error(f"no adjacent pair at room {m.left_room} in {s.text()}")
    if _move_at(s, j) != m:
        raise error(f"move {m} does not match state {s.text()}")


def apply_move(s: RoomState, m: Move) -> RoomState:
    """Apply a move, validating it against the state first."""
    validate_move(s, m)
    lo = min(s.offset, m.left_target)
    hi = max(s.rightmost, m.right_target)
    counts = [0] * (hi - lo + 1)
    for room, c in zip(s.rooms(), s.occupancy):
        counts[room - lo] = c
    counts[m.left_room - lo] -= 1
    counts[m.left_room + 1 - lo] -= 1
    counts[m.left_target - lo] += 1
    counts[m.right_target - lo] += 1
    return RoomState(lo, tuple(counts))


@dataclass(frozen=True)
class LabeledState:
    """Occupants distinguished by index, kept sorted left to right."""

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.positions:
            raise MalformedStateError("empty labeled state")
        if any(a > b for a, b in zip(self.positions, self.positions[1:])):
            raise MalformedStateError("labeled positions must be sorted")

    @classmethod
    def from_state(cls, s: RoomState) -> "LabeledState":
        return cls(s.positions())

    def to_state(self) -> RoomState:
        return state_from_positions(self.positions)


def apply_move_labeled(ls: LabeledState, m: Move) -> LabeledState:
    """Apply a move to labeled occupants by pushing.

    The occupant leaving room i steps one room left; if that room is
    occupied its occupant steps left too, and so on until an empty room
    absorbs the push.  The mirror cascade runs right from room i+1.
    Left-to-right order is preserved, so the result stays sorted and
    its multiset equals the unlabeled ``apply_move`` result.
    """
    validate_move(ls.to_state(), m)
    pos = list(ls.positions)
    # Push left: one occupant of each room i, i-1, ..., i-l+1 steps left.
    # Taking the first occupant of each room keeps the list sorted.
    for room in range(m.left_room, m.left_room - m.left_nbhd, -1):
        pos[bisect_left(pos, room)] -= 1
    for room in range(m.left_room + 1, m.left_room + 1 + m.right_nbhd):
        pos[bisect_right(pos, room) - 1] += 1
    return LabeledState(tuple(pos))


def entropy(s: RoomState) -> Fraction:
    """Sum of occupancy * 2**room, exact.

    Strictly increases under every move: the right occupant alone gains
    more weight than both vacated rooms held.  Negative rooms make the
    value fractional, hence the exact rational type.
    """
    acc = 0
    for j, c in enumerate(s.occupancy):
        acc += c << j
    return Fraction(acc) * Fraction(2) ** s.offset


def sumtroid(s: RoomState) -> int:
    """Sum of occupancy * room over all rooms (raw, uncentered)."""
    return sum(c * room for room, c in zip(s.rooms(), s.occupancy))


def centered_sumtroid(s: RoomState) -> int:
    """Sumtroid relative to the flat clusteron at rooms 0..N-1.

    That start state has centered sumtroid 0, and every move changes the
    value by exactly ``right_nbhd - left_nbhd``, keeping it an integer.
    """
    n = s.total
    return sumtroid(s) - n * (n - 1) // 2


def gaps(s: RoomState) -> tuple[int, ...]:
    """Sizes of the maximal empty runs strictly inside the window."""
    out = []
    run = 0
    for c in s.occupancy:
        if c == 0:
            run += 1
        else:
            if run:
                out.append(run)
            run = 0
    return tuple(out)


class FinalShadowId(NamedTuple):
    """The final shadow with n single rooms, all gaps 1 except one 2-gap.

    ``k`` says the 2-gap sits after the k-th occupied room from the
    left, 1 <= k <= n-1.  The span is always 2n.
    """

    n: int
    k: int

    def to_state(self, leftmost: int = 0) -> RoomState:
        occ: list[int] = []
        for i in range(1, self.n):
            occ.append(1)
            occ.extend([0, 0] if i == self.k else [0])
        occ.append(1)
        return RoomState(leftmost, tuple(occ))


def final_shadow_family(n: int) -> frozenset[FinalShadowId]:
    """All final shadows of n occupants: F(n, k) for 1 <= k <= n-1."""
    return frozenset(FinalShadowId(n, k) for k in range(1, n))


def classify_final_shadow(s: RoomState) -> FinalShadowId | None:
    """Recognize the shadow of s in the final shadow family, else None.

    Only the occupancy is read, so the position of s does not matter.
    """
    occ = s.occupancy
    if any(c > 1 for c in occ):
        return None
    n = sum(occ)
    if n < 2 or len(occ) != 2 * n:
        return None
    gap_sizes = gaps(s)
    if len(gap_sizes) != n - 1 or sorted(gap_sizes) != [1] * (n - 2) + [2]:
        return None
    return FinalShadowId(n, gap_sizes.index(2) + 1)
