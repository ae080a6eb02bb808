"""Exact distribution of final sumtroids and the structure of its rows.

Moves are drawn uniformly at random among the available ones.  The
distribution over final centered sumtroids is computed exactly with
rational arithmetic: no float enters any published number.

One engine serves every start: the DP runs on the packed keys and the
successor kernel of :mod:`.reachability`, whose increasing key order is
a topological order of the move graph.
"""
from __future__ import annotations

import csv
import hashlib
import heapq
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from pathlib import Path

from .errors import BudgetExceededError, DomainError, TheoremViolationError
from .reachability import DEFAULT_NODE_BUDGET, _MARGIN, _packed_move, _packed_successors
from .reachability import _unpack, _window, _window_error
from .states import RoomState, flat_clusteron, sumtroid


def row_half_width(n: int) -> int:
    """Largest centered sumtroid a final state of n occupants can have."""
    return (n - 1) * (n - 2) // 2


def zero_residue(n: int) -> int:
    """Centered sumtroids congruent to this mod n carry no mass."""
    return n // 2 if n % 2 == 0 else 0


def shadow_of_sumtroid(n: int, k: int) -> int:
    """Which final shadow F(n, k') a centered sumtroid k belongs to."""
    kp = (zero_residue(n) - k) % n
    if kp == 0:
        raise DomainError(f"sumtroid {k} is a structural zero for n={n}")
    return kp


# The sampler plays flat starts only, whose occupants never move more than n - 1
# rooms; n spare rooms keep keys below 2^30 up to n = 10.
_FLAT_MARGIN = 1
# The sampler memoises the successor tuples of at most this many states.  Full,
# the memo holds about 0.9 MB at n = 10 (tracemalloc peak of 5,000 samples),
# where a memo of all 19,765 states those samples visit holds about 4 MB.
_MC_MEMO_STATES = 4096


# ---------------------------------------------------------------------------
# distributions and scaled rows


@dataclass(frozen=True)
class SumtroidDistribution:
    """Exact probability of each final sumtroid change.

    Keys are sumtroid(final) - sumtroid(initial), which is invariant
    under translating the start state.
    """

    n: int
    mass: dict[int, Fraction]

    def prob(self, k: int) -> Fraction:
        return self.mass.get(k, Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(k for k, p in self.mass.items() if p))

    def check_total(self) -> None:
        total = sum(self.mass.values(), Fraction(0))
        if total != 1:
            raise TheoremViolationError(f"masses sum to {total}, not 1")


def final_distribution(initial: RoomState) -> SumtroidDistribution:
    """Distribution of the final sumtroid change under uniform play.

    Forward pass in increasing key order, keeping one pending probability
    per frontier state; ``DEFAULT_NODE_BUDGET`` caps the states processed.
    The window has _MARGIN * n spare rooms on each side of the start; a
    state in its first or last room raises :class:`InvariantViolationError`
    before any move could leave it.

    A pending mass is an integer pair (N, e) meaning N / base^e, with
    base = lcm(1..n-1): a state has at most n-1 adjacent occupied pairs,
    so its move count d divides base and each successor's share is
    (N * (base // d), e + 1).  A state can be reached at several depths,
    so e is kept per state.  No gcd runs in the loop; each final
    sumtroid's mass becomes one ``Fraction`` at the end.
    """
    n = initial.total
    b, floor, width, start, digits, ends = _window(initial, _MARGIN * n)
    base = lcm(*range(1, n))
    quotient = [0] + [base // d for d in range(1, n)]
    pending: dict[int, tuple[int, int]] = {start: (1, 0)}
    heap = [start]
    mass: dict[int, tuple[int, int]] = {}
    budget = DEFAULT_NODE_BUDGET
    processed = 0
    while heap:
        key = heapq.heappop(heap)
        num, e = pending.pop(key)
        processed += 1
        if processed > budget:
            raise BudgetExceededError(budget)
        if key & ends:
            raise _window_error(key, b, floor, width)
        succ = _packed_successors(key, b, digits)
        if not succ:
            k = sumtroid(_unpack(key, b, floor)) - sumtroid(initial)
            mass[k] = _add_mass(mass.get(k), num, e, base)
            continue
        share = num * quotient[len(succ)]
        e += 1
        for t in succ:
            held = pending.get(t)
            if held is None:
                pending[t] = (share, e)
                heapq.heappush(heap, t)
            elif held[1] == e:
                pending[t] = (held[0] + share, e)
            else:
                pending[t] = _add_mass(held, share, e, base)
    dist = SumtroidDistribution(
        n, {k: Fraction(num, base**e) for k, (num, e) in mass.items()}
    )
    dist.check_total()
    return dist


def _add_mass(held: tuple[int, int] | None, num: int, e: int, base: int) -> tuple[int, int]:
    """held + num / base^e, lifting the smaller exponent to the larger."""
    if held is None:
        return num, e
    m, f = held
    if f == e:
        return m + num, e
    if f < e:
        return m * base ** (e - f) + num, e
    return m + num * base ** (f - e), f


@dataclass(frozen=True)
class ScaledRow:
    """Final-sumtroid probabilities times (n-1)!, all integers.

    ``values`` covers every k with |k| <= row_half_width(n), zeros
    included.
    """

    n: int
    values: dict[int, int]

    def value(self, k: int) -> int:
        return self.values.get(k, 0)

    def sequence(self) -> list[int]:
        w = row_half_width(self.n)
        return [self.values[k] for k in range(-w, w + 1)]

    def half_sequence(self) -> list[int]:
        """Values for k from -row_half_width(n) up to 0."""
        w = row_half_width(self.n)
        return [self.values[k] for k in range(-w, 1)]

    def check_symmetry(self) -> None:
        if any(self.values[k] != self.values[-k] for k in self.values):
            raise TheoremViolationError(f"row {self.n} is not mirror-symmetric")


def _row_from_distribution(dist: SumtroidDistribution) -> ScaledRow:
    n = dist.n
    scale = factorial(n - 1)
    w = row_half_width(n)
    values: dict[int, int] = {}
    for k in range(-w, w + 1):
        v = dist.prob(k) * scale
        if v.denominator != 1:
            raise TheoremViolationError(
                f"scaled mass at n={n}, k={k} is not integral: {v}"
            )
        values[k] = int(v)
    stray = [k for k in dist.mass if abs(k) > w and dist.mass[k]]
    if stray:
        raise TheoremViolationError(f"mass outside the row window at {stray}")
    return ScaledRow(n, values)


def scaled_row(n: int, cache_dir: str | Path | None = None) -> ScaledRow:
    """Scaled distribution row for the flat clusteron of size n.

    When a cache directory is given, rows are stored there as JSON and
    reused only if their content hash still matches; anything corrupt is
    recomputed.
    """
    if n < 2:
        raise DomainError("rows are defined for n >= 2")
    cache = Path(cache_dir) if cache_dir is not None else None
    if cache is not None:
        cached = _load_cached_row(cache / f"row_N{n}_scaled.json", n)
        if cached is not None:
            return cached
    row = _row_from_distribution(final_distribution(flat_clusteron(n)))
    row.check_symmetry()
    if cache is not None:
        cache.mkdir(parents=True, exist_ok=True)
        (cache / f"row_N{n}_scaled.json").write_text(row_to_json(row))
    return row


def shadow_probabilities(row: ScaledRow) -> dict[int, Fraction]:
    """Exact probability of finishing in each final shadow F(n, k).

    Final states with the same sumtroid residue mod n share a shadow,
    so the row's cells are grouped by residue and unscaled by (n-1)!.
    """
    n = row.n
    scale = factorial(n - 1)
    out = {k: Fraction(0) for k in range(1, n)}
    for k, v in row.values.items():
        if v:
            out[shadow_of_sumtroid(n, k)] += Fraction(v, scale)
    return out


def zero_pattern_check(row: ScaledRow) -> tuple[str, ...]:
    """Zeros sit exactly on the residue class of zero_residue(n).

    Returns one line per cell that breaks the rule; empty when it holds.
    """
    n = row.n
    res = zero_residue(n)
    w = row_half_width(n)
    bad = []
    for k in range(-w, w + 1):
        expected_zero = k % n == res
        if expected_zero and row.values[k] != 0:
            bad.append(f"k={k}: expected 0, got {row.values[k]}")
        if not expected_zero and row.values[k] <= 0:
            bad.append(f"k={k}: expected positive, got {row.values[k]}")
    return tuple(bad)


# ---------------------------------------------------------------------------
# sumtroid <-> (leaves, path end) coordinates


def sumtroid_to_lx(n: int, k: int) -> tuple[int, int]:
    """Map a nonzero centered sumtroid to its (leaves, path end) cell."""
    if abs(k) > row_half_width(n):
        raise DomainError(f"|k| > {row_half_width(n)} for n={n}")
    if k % n == zero_residue(n):
        raise DomainError(f"sumtroid {k} is a structural zero for n={n}")
    shifted = k + (n - 2) * (n - 1) // 2
    ell = shifted // n + 2
    x = shifted % n
    if x == 0:
        x = 1
    return ell, x


def lx_to_sumtroid(n: int, ell: int, x: int) -> int:
    """Inverse of :func:`sumtroid_to_lx` on its image."""
    if not (1 <= x <= n - 1):
        raise DomainError(f"x={x} out of range for n={n}")
    if not (2 <= ell <= max(2, n - 1)):
        raise DomainError(f"leaves={ell} out of range for n={n}")
    return -(n - 2) * (n - 1) // 2 + (ell - 2) * n + (x - 1) + min(x - 1, 1)


# ---------------------------------------------------------------------------
# window recurrence


def window_bounds(n: int, k: int) -> tuple[int, int]:
    """Inclusive window of previous-row sumtroids feeding cell k of row n.

    The paper's form is lo = k - (n-1)/2 - a and hi = lo + n - 2, with
    a = floor((k + m)/n) - (1 + (-1)^n)/4 and m = zero_residue(n).  Since
    (n-1)/2 - (1 + (-1)^n)/4 = (n-1) // 2, both bounds are integers.
    """
    lo = k - (k + zero_residue(n)) // n - (n - 1) // 2
    return lo, lo + n - 2


def window_recurrence_step(prev: ScaledRow) -> ScaledRow:
    """Build row n = prev.n + 1 by sliding-window sums over the previous row.

    Structural zeros are written directly; every other cell is the sum
    of a window of n-1 consecutive previous-row cells.
    """
    n = prev.n + 1
    w = row_half_width(n)
    res = zero_residue(n)
    values: dict[int, int] = {}
    for k in range(-w, w + 1):
        if k % n == res:
            values[k] = 0
            continue
        lo, hi = window_bounds(n, k)
        values[k] = sum(prev.value(i) for i in range(lo, hi + 1))
    return ScaledRow(n, values)


# ---------------------------------------------------------------------------
# Monte Carlo


def monte_carlo_counts(n: int, samples: int, seed: int) -> dict[int, int]:
    """Sampled final sumtroid changes of the flat clusteron of size n.

    Sample i plays the DP's packed move on a window of _FLAT_MARGIN * n
    spare rooms per side (narrower than the DP's), firing at each step
    the ``randrange(count)``-th adjacent pair from the low end (no draw
    for a single pair).  One generator is reseeded with
    ``seed*1000003 + i`` per sample, which gives the stream of
    ``Random(seed*1000003 + i)``.  The successor tuples of the first
    _MC_MEMO_STATES states visited are memoised; they come low bit first,
    so a draw picks the same pair on either path, and states past the cap
    draw from the pair mask and fire :func:`_packed_move`.  Per-sample
    seeding makes shards independent of evaluation order: any partition
    of the index range gives the same totals.  Seeds must be >= 0, since
    ``Random`` seeds with |seed|.  Sample 1000003 + j of seed s is sample
    j of seed s + 1, so a run of more than 1000003 samples overlaps the
    next seed's run.
    """
    if n < 2:
        raise DomainError(f"sampling needs n >= 2, got {n}")
    if samples < 0:
        raise DomainError(f"sample count must be >= 0, got {samples}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    initial = flat_clusteron(n)
    _, floor, width, start, digits, ends = _window(initial, _FLAT_MARGIN * n)
    if start & ends:
        raise _window_error(start, 1, floor, width)
    finals: dict[int, int] = {}
    memo: dict[int, tuple[int, ...]] = {}
    rng = random.Random()
    randrange = rng.randrange
    for i in range(samples):
        rng.seed(seed * 1_000_003 + i)
        key = start
        while True:
            succ = memo.get(key)
            if succ is None:
                if len(memo) < _MC_MEMO_STATES:
                    succ = memo[key] = tuple(_packed_successors(key, 1, digits))
                else:  # memo full: draw straight from the pair mask
                    if not (pairs := key & (key >> 1)):
                        break
                    count = pairs.bit_count()
                    if count > 1:
                        for _ in range(randrange(count)):
                            pairs &= pairs - 1
                    key = _packed_move(key, pairs & -pairs, 1, digits ^ key)
                    continue
            count = len(succ)
            if count > 1:
                key = succ[randrange(count)]
            elif count:
                key = succ[0]
            else:
                break
        finals[key] = finals.get(key, 0) + 1
    counts: dict[int, int] = {}
    for key, c in finals.items():
        # An occupant reaching an end stays there until dropped past it.
        if key & ends or key.bit_count() != n:
            raise _window_error(key, 1, floor, width)
        k = sumtroid(_unpack(key, 1, floor)) - sumtroid(initial)
        counts[k] = counts.get(k, 0) + c
    return dict(sorted(counts.items()))


def monte_carlo(n: int, samples: int, seed: int) -> dict[int, Fraction]:
    """Empirical distribution of final sumtroids, exact fractions."""
    return {
        k: Fraction(c, samples) for k, c in monte_carlo_counts(n, samples, seed).items()
    }


# ---------------------------------------------------------------------------
# serialization and caching


def _row_payload(row: ScaledRow) -> dict:
    w = row_half_width(row.n)
    return {
        "n": row.n,
        "scaled": True,
        "values": [{"k": k, "v": str(row.values[k])} for k in range(-w, w + 1)],
    }


def _dist_payload(dist: SumtroidDistribution) -> dict:
    return {
        "n": dist.n,
        "scaled": False,
        "values": [
            {"k": k, "v": str(dist.mass[k])} for k in sorted(dist.mass) if dist.mass[k]
        ],
    }


def _payload_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def row_to_json(row: ScaledRow | SumtroidDistribution) -> str:
    payload = (
        _row_payload(row) if isinstance(row, ScaledRow) else _dist_payload(row)
    )
    payload["sha256"] = _payload_hash(
        {k: v for k, v in payload.items() if k != "sha256"}
    )
    return json.dumps(payload, indent=2) + "\n"


def row_from_json(text: str) -> ScaledRow | SumtroidDistribution:
    payload = json.loads(text)
    body = {k: v for k, v in payload.items() if k != "sha256"}
    if payload.get("sha256") != _payload_hash(body):
        raise TheoremViolationError("row payload hash mismatch")
    n = payload["n"]
    if payload["scaled"]:
        return ScaledRow(n, {cell["k"]: int(cell["v"]) for cell in payload["values"]})
    return SumtroidDistribution(
        n, {cell["k"]: Fraction(cell["v"]) for cell in payload["values"]}
    )


def row_to_csv(row: ScaledRow | SumtroidDistribution) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["K", "value"])
    if isinstance(row, ScaledRow):
        w = row_half_width(row.n)
        for k in range(-w, w + 1):
            writer.writerow([k, row.values[k]])
    else:
        for k in sorted(row.mass):
            writer.writerow([k, str(row.mass[k])])
    return buf.getvalue()


def _load_cached_row(path: Path, n: int) -> ScaledRow | None:
    if not path.is_file():
        return None
    try:
        row = row_from_json(path.read_text())
    except (OSError, ValueError, KeyError, TheoremViolationError):
        return None  # corrupt caches are recomputed, never trusted
    if not isinstance(row, ScaledRow) or row.n != n:
        return None
    return row
