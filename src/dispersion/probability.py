"""Exact distribution of final sumtroids and the structure of its rows.

Moves are drawn uniformly at random among the available ones.  The
distribution over final centered sumtroids is computed exactly with
rational arithmetic: no float enters any published number.

One engine serves every start: the DP runs on the packed keys and the
successor kernel of :mod:`.reachability`, whose increasing key order is
a topological order of the move graph.  On a single-occupancy start that
is its own mirror, every flat start among them, it holds one mass per
mirror pair of states.
"""
from __future__ import annotations

import csv
import hashlib
import heapq
import io
import json
import os
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import factorial, gcd
from pathlib import Path
from typing import NamedTuple, NoReturn

from .errors import BudgetExceededError, DomainError, TheoremViolationError
from . import reachability
from .reachability import _packed_move, _packed_successors, _unpack, _window, _window_error
from .states import RoomState, flat_clusteron, sumtroid


def row_half_width(n: int) -> int:
    """Largest centered sumtroid a final state of n occupants can have."""
    return (n - 1) * (n - 2) // 2


def zero_residue(n: int) -> int:
    """Centered sumtroids congruent to this mod n carry no mass."""
    return n // 2 if n % 2 == 0 else 0


def shadow_of_sumtroid(n: int, k: int) -> int:
    """Which final shadow F(n, k') a centered sumtroid k belongs to."""
    if abs(k) > row_half_width(n):
        raise DomainError(f"|k| > {row_half_width(n)} for n={n}")
    kp = (zero_residue(n) - k) % n
    if kp == 0:
        raise DomainError(f"sumtroid {k} is a structural zero for n={n}")
    return kp


# The sampler memoises the successor tuples of at most this many states.  Full,
# the memo holds about 0.9 MB at n = 10 (tracemalloc peak of 5,000 samples),
# where a memo of all 19,993 states those samples visit (seed 1) holds 4.3 MB.
_MC_MEMO_STATES = 4096

# No sampler range holds fewer samples than this.  A worker's fork, pipe and
# join cost about 5 ms; two ranges of 2,000 samples took 0.86x the serial
# time at n = 6 and 0.76x at n = 8, ranges of 1,000 at n = 2 and 4 took 2.1x and 1.3x
# (2-CPU box, Python 3.11, medians of 7-15 alternating calls).
_MC_MIN_RANGE = 2000

# D grows by the part of d that a share lacks, to this power, so that later
# shares of the same part divide with no growth.  Flat rows on a 2-CPU box
# (Python 3.11), D bits (growths) at n = 12, 13, 14, 15: a power of 32 gives
# 1,145 (16), 1,696 (28), 2,691 (43), 4,057 (65) and peaks at 291 MB at 15;
# a power of 1, the minimal D, gives 887, 1,465, 2,342, 3,718 bits but
# 1,879 growths at 15, each rescaling every pending mass, and ran 3.4x
# slower there; a power of 16 gives 3,844 bits at 15 over 125 growths and
# peaks at 303 MB.
_GROWTH_POWER = 32


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


def final_distribution(initial: RoomState) -> SumtroidDistribution:
    """Distribution of the final sumtroid change under uniform play.

    Forward pass in increasing key order, holding one pending probability per
    frontier state; more than ``DEFAULT_NODE_BUDGET`` pending raise BudgetExceededError.
    The window has :func:`.reachability._spare_rooms` spare rooms on each
    side of the start; a state in its first or last room raises
    :class:`InvariantViolationError` before any move could leave it.

    Each mass is held as the integer P * D, with D one denominator for the
    whole run, so merging masses is integer addition.  A state with d moves
    gives each successor its mass num divided by d; when d does not divide
    it, D and every held mass first grow by (d // gcd(num, d)) **
    ``_GROWTH_POWER``, after which d divides num.  Each final sumtroid's
    mass becomes one ``Fraction`` over D at the end.

    The DP folds when each room holds at most one occupant (b = 1) and
    the start key is its own :func:`_mirror`, as every flat start and 0/1
    palindromes such as 10101 are.  Then the mirror of a move is a move
    and a state and its mirror are equally likely, so one mass stands for
    both under the smaller key, the budget counts pending classes, and a
    final class whose change is k != 0 gives half its mass to k and half
    to -k.  Both keys of a pair rise along a move, so the smaller one
    keeps the key order topological.
    """
    n = initial.total
    b, floor, width, start, digits, ends = _window(initial)
    fold = b == 1 and _mirror(start, width) == start
    size = (width + 7) // 8
    pad = 8 * size - width
    from_bytes = int.from_bytes
    denom = 1
    pending = {start: 1}
    heap = [start]
    mass: dict[int, int] = {}
    budget = reachability.DEFAULT_NODE_BUDGET
    pop, push, get = heapq.heappop, heapq.heappush, pending.get
    while heap:
        if len(heap) > budget:  # the heap holds one key per pending mass
            raise BudgetExceededError(budget)
        key = pop(heap)
        num = pending.pop(key)
        if key & ends:
            raise _window_error(key, b, floor, width)
        succ = _packed_successors(key, b, digits)
        if not succ:
            k = sumtroid(_unpack(key, b, floor)) - sumtroid(initial)
            mass[k] = mass.get(k, 0) + num
            continue
        d = len(succ)
        share, r = divmod(num, d)
        if r:
            factor = (d // gcd(num, d)) ** _GROWTH_POWER
            denom *= factor
            for masses in (pending, mass):
                for t in masses:
                    masses[t] *= factor
            share = num * factor // d
        for t in succ:
            if fold:  # inlined _mirror(t, width)
                m = from_bytes(t.to_bytes(size, "little").translate(_REVERSED_BYTES), "big") >> pad
                if m < t:
                    t = m
            held = get(t)
            if held is None:
                pending[t] = share
                push(heap, t)
            else:
                pending[t] = held + share
    if (total := sum(mass.values())) != denom:
        raise TheoremViolationError(f"masses sum to {Fraction(total, denom)}, not 1")
    if fold:  # a final pair puts half its mass on k and half on -k
        keys = {*mass, *(-k for k in mass)}
        return SumtroidDistribution(
            n, {k: Fraction(mass.get(k, 0) + mass.get(-k, 0), 2 * denom) for k in keys}
        )
    return SumtroidDistribution(n, {k: Fraction(num, denom) for k, num in mass.items()})


# Byte i bit-reversed, for :func:`_mirror`.
_REVERSED_BYTES = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _mirror(key: int, width: int) -> int:
    """The b = 1 key of the state reflected in its ``width``-room window."""
    size = (width + 7) // 8
    return int.from_bytes(key.to_bytes(size, "little").translate(_REVERSED_BYTES), "big") >> (
        8 * size - width
    )


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


def monte_carlo_counts(n: int, samples: int, seed: int, jobs: int | None = None) -> dict[int, int]:
    """Sampled final sumtroid changes of the flat clusteron of size n.

    Sample i plays the DP's packed move on the DP's window.  Its bits are
    the 512-bit little-endian integer of ``blake2b(f"{seed}:{i}")`` (64-byte
    digest); when they run out, the 512 bits of blake2b of the previous
    digest go on above the unread ones.  A step with ``count > 1`` moves
    reads the low ``w = (count-1).bit_length()`` unread bits as r, reading
    again while r >= count, so every draw is exactly uniform, and fires the
    r-th adjacent pair from the low end; a single move draws nothing.  The
    successor tuples of the first _MC_MEMO_STATES states visited are
    memoised; they come low bit first, so a draw picks the same pair on
    either path, and states past the cap fire the r-th pair of the pair
    mask with :func:`_packed_move`.  Seeds must be >= 0, the rule of
    ``run --seed`` too.

    Sample i depends only on (seed, i), so the counts do not depend on
    ``jobs``.  The indices split into at most ``jobs`` contiguous ranges
    (default: the CPUs this process may use) of at least ``_MC_MIN_RANGE``
    samples each; see :func:`_mc_sharded`.
    """
    if n < 2:
        raise DomainError(f"sampling needs n >= 2, got {n}")
    if samples < 0:
        raise DomainError(f"sample count must be >= 0, got {samples}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    jobs = _jobs(jobs)
    initial = flat_clusteron(n)
    _, floor, width, start, digits, ends = _window(initial)
    if start & ends:
        raise _window_error(start, 1, floor, width)
    ranges = min(jobs, samples // _MC_MIN_RANGE)
    if ranges > 1:
        bounds = [samples * j // ranges for j in range(ranges + 1)]
        finals = _mc_sharded(start, digits, seed, bounds)
    else:
        finals = _mc_finals(start, digits, seed, 0, samples)
    counts: dict[int, int] = {}
    for key, c in finals.items():
        # An occupant reaching an end stays there until dropped past it.
        if key & ends or key.bit_count() != n:
            raise _window_error(key, 1, floor, width)
        k = sumtroid(_unpack(key, 1, floor)) - sumtroid(initial)
        counts[k] = counts.get(k, 0) + c
    return dict(sorted(counts.items()))


def _mc_finals(start: int, digits: int, seed: int, lo: int, hi: int) -> dict[int, int]:
    """Final keys of samples lo..hi-1 with their counts, in order of first arrival."""
    finals: dict[int, int] = {}
    memo: dict[int, tuple[int, ...]] = {}
    prefix = hashlib.blake2b(f"{seed}:".encode(), digest_size=64)
    for i in range(lo, hi):
        h = prefix.copy()
        h.update(b"%d" % i)
        digest = h.digest()
        bits, left = int.from_bytes(digest, "little"), 512
        key = start
        while True:
            succ = memo.get(key)
            if succ is None and len(memo) < _MC_MEMO_STATES:
                succ = memo[key] = tuple(_packed_successors(key, 1, digits))
            if succ is not None:
                count = len(succ)
            else:  # memo full: draw straight from the pair mask
                count = (pairs := key & (key >> 1)).bit_count()
            r = 0
            if count > 1:
                w = (count - 1).bit_length()
                while True:
                    if left < w:
                        digest = hashlib.blake2b(digest, digest_size=64).digest()
                        bits |= int.from_bytes(digest, "little") << left
                        left += 512
                    r = bits & ((1 << w) - 1)
                    bits >>= w
                    left -= w
                    if r < count:
                        break
            elif not count:
                break
            if succ is not None:
                key = succ[r]
            else:
                for _ in range(r):
                    pairs &= pairs - 1
                key = _packed_move(key, pairs & -pairs, digits ^ key)
        finals[key] = finals.get(key, 0) + 1
    return finals


def _mc_sharded(start: int, digits: int, seed: int, bounds: list[int]) -> dict[int, int]:
    """:func:`_mc_finals` of bounds[0]..bounds[-1], one range per process.

    The ranges run under :func:`_forked` and merge in range order, so
    first arrivals keep the order of one serial run.
    """
    calls = [partial(_mc_finals, start, digits, seed, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    finals: dict[int, int] = {}
    for got in _forked(calls, "sampler"):
        for key, c in got.items():
            finals[key] = finals.get(key, 0) + c
    return finals


def monte_carlo(n: int, samples: int, seed: int) -> dict[int, Fraction]:
    """Empirical distribution of final sumtroids, exact fractions."""
    return {
        k: Fraction(c, samples) for k, c in monte_carlo_counts(n, samples, seed).items()
    }


# ---------------------------------------------------------------------------
# forked workers, shared with verify


def _jobs(jobs: int | None) -> int:
    """The process count ``jobs`` asks for: the usable CPUs when None, else at least 1."""
    if jobs is None:
        return _usable_cpus()
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _forked(calls: list[Callable[[], object]], what: str) -> list:
    """Each call's result, in order: the caller runs the first, a forked worker each other one.

    A worker pipes back its result, or the exception that stopped it,
    which the caller raises when it reaches that worker, with the
    worker's traceback as its cause.  Every worker is
    joined before this returns, on error too, and stopped first if the
    caller fails.  Fork, not spawn: a worker starts at once with the
    caller's module state and imports nothing; the package starts no
    threads that a fork could cut off.  A single call, and every call
    where fork is missing, runs in the caller; ``multiprocessing`` is
    imported only when there is a worker to start.
    """
    if len(calls) < 2:
        return [call() for call in calls]
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return [call() for call in calls]
    workers = []
    try:
        for call in calls[1:]:
            recv, send = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_worker, args=(send, call))
            worker.start()
            send.close()
            workers.append((worker, recv))
        out = [calls[0]()]
        for worker, recv in workers:
            try:
                got = recv.recv()
            except EOFError:  # it died before sending, e.g. killed
                worker.join()
                raise RuntimeError(f"a {what} worker exited with code {worker.exitcode}") from None
            if isinstance(got, _Raised):
                _reraise(got)
            out.append(got)
        return out
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, recv in workers:
            worker.join()
            recv.close()


def _worker(send, call: Callable[[], object]) -> None:
    """Body of a forked worker: send the call's result, or the error that stopped it."""
    try:
        got = call()
    except Exception as e:
        got = _caught(e)
    send.send(got)
    send.close()


class _Raised(NamedTuple):
    """An error that stopped a call, with its traceback as text, which pickling keeps."""

    error: Exception
    trace: str


class _WorkerTraceback(Exception):
    """The traceback, as text, of an error raised in a forked worker."""


def _caught(e: Exception) -> _Raised:
    """``e`` with the traceback it was raised with."""
    import traceback

    return _Raised(e, "".join(traceback.format_exception(type(e), e, e.__traceback__)))


def _reraise(raised: _Raised) -> NoReturn:
    """Raise the error; if it came through a pipe, its cause shows where the worker raised it."""
    if raised.error.__traceback__ is None:
        raise raised.error from _WorkerTraceback(raised.trace)
    raise raised.error


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
    payload["sha256"] = _payload_hash(payload)
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
