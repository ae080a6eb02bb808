"""The four workloads: inputs from the seed, timed passes and correctness gates.

Every workload drives the package through ``dispersion.cli.main`` and
public functions only, and checks each output against a reference that
does not share the code path under test:

- ``exact-rows``: rows from the mask DP against the window recurrence
  applied to the frozen golden row;
- ``monte-carlo``: sampled shadows against their exact probability
  1/(n-1), and a rerun against the first run;
- ``reach-nonflat``: final shadows from BFS against the shadow-family
  theorem, and the DP's support against the BFS finals;
- ``verify-all``: the exit code and every check of ``dispersion verify``.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

# States the exact DP visits from the flat n-clusteron, i.e. the node count of
# explore(flat_clusteron(n)).  The benchmark's tests re-derive them for n <= 11.
DP_STATES = {
    2: 2, 3: 5, 4: 18, 5: 72, 6: 274, 7: 972, 8: 3255, 9: 10439,
    10: 32418, 11: 98254, 12: 292260,
}

# Non-flat compositions of 9, one of each mirror pair, whose graphs have
# 15,500-16,500 states.  The seed draws from this narrow band so that it
# changes the inputs but hardly the amount of work.
REACH_POOL: tuple[tuple[int, ...], ...] = (
    (3, 1, 1, 2, 2), (1, 2, 2, 1, 2, 1), (1, 2, 3, 1, 1, 1), (3, 1, 3, 1, 1),
    (2, 1, 2, 2, 1, 1), (3, 3, 1, 1, 1), (1, 2, 2, 2, 1, 1), (2, 1, 5, 1), (2, 6, 1),
    (3, 2, 1, 1, 2), (3, 1, 2, 1, 2), (4, 1, 1, 3), (2, 1, 4, 1, 1), (3, 1, 1, 3, 1),
    (1, 4, 2, 1, 1), (1, 4, 1, 2, 1), (3, 2, 1, 2, 1), (1, 5, 2, 1), (6, 3),
    (1, 3, 1, 3, 1), (3, 2, 2, 1, 1), (2, 1, 3, 1, 2), (2, 5, 1, 1), (4, 1, 4),
    (1, 2, 4, 1, 1), (3, 1, 4, 1), (5, 2, 2), (2, 3, 1, 1, 2), (5, 1, 3), (4, 1, 3, 1),
    (2, 2, 1, 2, 2), (2, 3, 1, 2, 1), (3, 1, 2, 2, 1), (5, 3, 1),
)

SUITE_NAMES = (
    "bridge", "finals", "locked-in", "perms", "probability",
    "states", "suites-bijection", "trees", "window",
)

# A correct sampler puts a shadow outside z standard errors with probability
# 2(1 - Phi(z)) per shadow.  A run tests 14 shadows and a comparison makes
# dozens of runs, so 3 would flag a correct sampler in about one run in 27;
# at 5 that happens about once in 10^5 runs.
SHADOW_Z = 5.0


@dataclass(frozen=True)
class Sizes:
    rows: tuple[int, ...]  # exact-rows: CLI rows, checked from golden row rows[0]-1
    mc: tuple[tuple[int, int], ...]  # monte-carlo: (n, samples) per CLI call
    reach_n: int  # reach-nonflat: size of the flat start explored every pass
    reach_pool: tuple[tuple[int, ...], ...]
    reach_picks: int
    verify_argv: tuple[str, ...]  # extra `dispersion verify` arguments
    trees_n: int  # largest tree table and permutation sizes verify builds
    perms_n: int
    roundtrip_n: int


FULL = Sizes(
    rows=(10, 11, 12),
    mc=((6, 20_000), (10, 5_000)),
    reach_n=9,
    reach_pool=REACH_POOL,
    reach_picks=3,
    verify_argv=(),
    trees_n=9,
    perms_n=9,
    roundtrip_n=8,
)

# Tiny sizes for the benchmark's own tests: every code path, in seconds.
SMOKE = Sizes(
    rows=(6, 7, 8),
    mc=((4, 400), (5, 300)),
    reach_n=6,
    reach_pool=((2, 1, 1, 2), (1, 2, 1, 1, 1), (1, 1, 3, 1)),
    reach_picks=2,
    verify_argv=("--max-n", "5"),
    trees_n=5,
    perms_n=5,
    roundtrip_n=4,
)


class Checks:
    """Correctness gates: how many were attempted and which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def call_cli(d, argv: list[str]) -> tuple[int, str, float]:
    """Run ``dispersion.cli.main``; return exit code, stdout and seconds."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        rc = d.cli.main(argv)
        secs = perf_counter() - t0
    return rc, buf.getvalue(), secs


def golden_row(d, n: int):
    """The frozen half row of size n, mirrored into a full ScaledRow."""
    half = d.golden_scaled_rows()[n]
    w = len(half) - 1
    values = {}
    for i, v in enumerate(half):
        values[i - w] = v
        values[w - i] = v
    return d.ScaledRow(n, values)


class Workload:
    name = ""
    min_passes = 1  # untraced passes a run needs for its gates

    def __init__(self, sizes: Sizes, seed: int, workdir: Path) -> None:
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir

    def setup(self, d) -> None:
        """Prepare inputs and references; timed as ``setup_s``."""

    def run_pass(self, d, tracer, checks: Checks) -> dict[str, float]:
        """One timed pass; returns the pass's own end-to-end figures."""
        raise NotImplementedError

    def probes(self, d, checks: Checks) -> dict[str, float]:
        """Per-layer figures timed directly, after the traced passes."""
        return {}


class ExactRows(Workload):
    name = "exact-rows"

    def setup(self, d) -> None:
        self.start = golden_row(d, self.sizes.rows[0] - 1)
        self.reference = {}
        row = self.start
        for n in self.sizes.rows:
            row = d.window_recurrence_step(row)
            self.reference[n] = row
        # Only probability.cache_read_ms reads this cache; the timed rows get none.
        top = self.sizes.rows[-1]
        self.cache = self.workdir / "cache"
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir(parents=True)
        (self.cache / f"row_N{top}_scaled.json").write_text(d.row_to_json(self.reference[top]))

    def run_pass(self, d, tracer, checks: Checks) -> dict[str, float]:
        out = {}
        for n in self.sizes.rows:
            with tracer.span("cli.prob", n=n):
                rc, text, secs = call_cli(d, ["prob", "--n", str(n), "--scaled", "--format", "json"])
            out[f"row_s.n{n}"] = secs
            if not checks(rc == 0, f"prob --n {n} exited {rc}"):
                continue
            try:
                row = d.row_from_json(text)  # also verifies the content hash
            except (ValueError, KeyError, d.DispersionError) as e:
                checks(False, f"prob --n {n} printed an unreadable row: {e}")
                continue
            checks(row == self.reference[n], f"row {n} differs from the window recurrence")
            checks(all(v == row.value(-k) for k, v in row.values.items()), f"row {n} is not symmetric")
            checks(sum(row.values.values()) == math.factorial(n - 1), f"row {n} does not sum to {n - 1}!")
        return out

    def probes(self, d, checks: Checks) -> dict[str, float]:
        top = self.sizes.rows[-1]
        reads = []
        for _ in range(20):
            t0 = perf_counter()
            row = d.scaled_row(top, cache_dir=str(self.cache))
            reads.append(perf_counter() - t0)
        checks(row == self.reference[top], f"cached row {top} differs")
        checks(len(list(self.cache.iterdir())) == 1, "scaled_row did not read the warm cache")
        steps = []
        for _ in range(20):
            row = self.start
            t0 = perf_counter()
            for _n in self.sizes.rows:
                row = d.window_recurrence_step(row)
            steps.append(perf_counter() - t0)
        return {
            f"probability.cache_read_ms.n{top}": median(reads) * 1e3,
            "probability.window_step_ms": median(steps) * 1e3,
        }


class MonteCarlo(Workload):
    name = "monte-carlo"
    min_passes = 2  # the second pass is the same-seed rerun

    def setup(self, d) -> None:
        self.first: dict[int, dict[int, int]] = {}

    def run_pass(self, d, tracer, checks: Checks) -> dict[str, float]:
        out = {}
        for n, samples in self.sizes.mc:
            argv = ["mc", "--n", str(n), "--samples", str(samples), "--seed", str(self.seed),
                    "--format", "json"]
            with tracer.span("cli.mc", n=n):
                rc, text, secs = call_cli(d, argv)
            out[f"samples_per_s.n{n}"] = samples / secs
            if checks(rc == 0, f"mc --n {n} exited {rc}"):
                self.check_counts(checks, n, samples, json.loads(text))
        return out

    def check_counts(self, checks: Checks, n: int, samples: int, payload: dict) -> None:
        counts = {c["k"]: c["count"] for c in payload["counts"]}
        checks(sum(counts.values()) == samples, f"mc --n {n}: counts do not total {samples}")
        checks(sum(c["count"] for c in payload["shadow_counts"]) == samples,
               f"mc --n {n}: shadow counts do not total {samples}")
        # Final sumtroids in residue class zero_residue(n) mod n are structural
        # zeros; each of the other n-1 classes is one shadow of mass 1/(n-1).
        zero = n // 2 if n % 2 == 0 else 0
        by_class = [0] * n
        for k, c in counts.items():
            by_class[(k - zero) % n] += c
        checks(by_class[0] == 0, f"mc --n {n}: mass on a structural zero")
        p = 1 / (n - 1)
        sigma = math.sqrt(samples * p * (1 - p))
        for r in range(1, n):
            dev = (by_class[r] - samples * p) / sigma
            checks(abs(dev) <= SHADOW_Z, f"mc --n {n}: shadow class {r} is {dev:+.2f} sigma off")
        first = self.first.setdefault(n, counts)
        if first is not counts:
            checks(counts == first, f"mc --n {n}: a rerun with seed {self.seed} changed the counts")

    def probes(self, d, checks: Checks) -> dict[str, float]:
        n, samples = self.sizes.mc[0]
        base = self.seed * 1_000_003  # the per-sample seeding monte_carlo_counts documents
        times = []
        for _ in range(3):
            t0 = perf_counter()
            for i in range(samples):
                random.Random(base + i)
            times.append(perf_counter() - t0)
        return {"probability.mc_seed_us": median(times) / samples * 1e6}


def expected_shadows(parts: tuple[int, ...]) -> set[int]:
    """Shadow indices k of F(n, k) a clusteron reaches: all, but for 12 and 21."""
    return {(1, 2): {1}, (2, 1): {2}}.get(parts, set(range(1, sum(parts))))


class ReachNonflat(Workload):
    name = "reach-nonflat"

    def setup(self, d) -> None:
        self.picks = random.Random(self.seed).sample(self.sizes.reach_pool, self.sizes.reach_picks)
        self.flat = d.flat_clusteron(self.sizes.reach_n)

    def run_pass(self, d, tracer, checks: Checks) -> dict[str, float]:
        for parts in self.picks:
            start = d.clusteron(parts)
            with tracer.span("cli.finals", state=start.text()):
                rc, text, _ = call_cli(d, ["finals", "--state", start.text(), "--format", "json"])
            dist = d.final_distribution(start)
            if not checks(rc == 0, f"finals --state {start.text()} exited {rc}"):
                continue
            finals = json.loads(text)
            checks({f["shadow_k"] for f in finals} == expected_shadows(parts),
                   f"{start.text()}: final shadows are not the family")
            checks(sum(dist.mass.values()) == 1, f"{start.text()}: masses do not total 1")
            checks({k for k, p in dist.mass.items() if p} == {f["sumtroid_change"] for f in finals},
                   f"{start.text()}: DP support differs from the BFS finals")
        g = d.explore(self.flat)
        n = self.sizes.reach_n
        checks(len(g.nodes) == DP_STATES[n], f"explore of flat {n} found {len(g.nodes)} states")
        return {}


class VerifyAll(Workload):
    name = "verify-all"

    def run_pass(self, d, tracer, checks: Checks) -> dict[str, float]:
        with tracer.span("cli.verify"):
            rc, text, _ = call_cli(d, ["verify", *self.sizes.verify_argv, "--format", "json"])
        checks(rc == 0, f"verify exited {rc}")
        for report in json.loads(text):
            for c in report["checks"]:
                checks(c["status"] != "fail", f"verify check {c['id']} failed: {c['detail']}")
        return {}


WORKLOADS = {w.name: w for w in (ExactRows, MonteCarlo, ReachNonflat, VerifyAll)}


def graph_probes(d, starts) -> dict[str, float]:
    """Move kernel and locked-in pass over the graphs the traced passes explored.

    The graphs are rebuilt here rather than kept from the passes, where
    holding them would slow the garbage collector inside the traced pass.
    """
    graphs = [d.explore(s) for s in starts]
    nodes = sum(len(g.nodes) for g in graphs)
    if not nodes:
        return {}
    t0 = perf_counter()
    for g in graphs:
        for s in g.nodes:
            for m in d.available_moves(s):
                d.apply_move(s, m)
    moves = perf_counter() - t0
    t0 = perf_counter()
    for g in graphs:
        d.locked_in_map(g)
    locked = perf_counter() - t0
    return {
        "states.moves_us_per_state": moves / nodes * 1e6,
        "reachability.locked_in_us_per_node": locked / nodes * 1e6,
    }


# ---------------------------------------------------------------------------
# metric names and their derivation

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def pass_units(s: Sizes) -> dict[str, str]:
    """Figures a pass reports itself (exact-rows and monte-carlo only)."""
    units = {f"row_s.n{n}": "s" for n in s.rows}
    units.update({f"samples_per_s.n{n}": "1/s" for n, _ in s.mc})
    return units


def layer_units(s: Sizes) -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    top = s.rows[-1]
    n6 = s.mc[0][0]
    u = {
        "states.moves_us_per_state": "us",
        "reachability.explore_us_per_node": "us",
        "reachability.explore_nodes": "count",
        "reachability.explore_edges": "count",
        "reachability.locked_in_us_per_node": "us",
    }
    for n in s.rows:
        u[f"probability.scaled_row_s.n{n}"] = "s"
        u[f"probability.dp_states.n{n}"] = "count"
        u[f"probability.dp_us_per_state.n{n}"] = "us"
    u[f"cli.prob_overhead_ms.n{top}"] = "ms"
    u["probability.nonflat_us_per_node"] = "us"
    u[f"probability.cache_read_ms.n{top}"] = "ms"
    u["probability.window_step_ms"] = "ms"
    for n, _ in s.mc:
        u[f"probability.mc_us_per_sample.n{n}"] = "us"
    u["probability.mc_seed_us"] = "us"
    u[f"probability.mc_playout_us.n{n6}"] = "us"
    u["suites.correspondence_us_per_node"] = "us"
    u[f"trees.bruteforce_s.n{s.trees_n}"] = "s"
    u[f"trees.recursive_ms.n{s.trees_n}"] = "ms"
    u[f"perms.count_checks_s.n{s.perms_n}"] = "s"
    u[f"perms.roundtrip_s.n{s.roundtrip_n}"] = "s"
    for suite in SUITE_NAMES:
        u[f"verify.suite_s.{suite}"] = "s"
    u["trace.overhead_s"] = "s"
    u.update(pass_units(s))
    u["fail_ratio"] = "ratio"
    return u


def _per(spans, key: str, scale: float) -> float:
    """Summed span time per unit of ``attrs[key]``, times ``scale``."""
    total = sum(sp.attrs[key] for sp in spans)
    return sum(sp.seconds for sp in spans) / total * scale if total else 0.0


def layer_metrics(s: Sizes, tracer, figures: dict[str, float]) -> dict[str, float]:
    """Per-layer values from the spans; layers this run never called read 0.

    ``figures`` holds what the run measured outside the spans: probes,
    pass figures, ``trace.overhead_s`` and ``fail_ratio``.
    """
    m = dict.fromkeys(layer_units(s), 0.0)
    passes = len(tracer.named("pass")) or 1

    def med(spans, scale: float = 1.0) -> float:
        return median(sp.seconds for sp in spans) * scale if spans else 0.0

    explores = tracer.named("reachability.explore")
    m["reachability.explore_us_per_node"] = _per(explores, "nodes", 1e6)
    m["reachability.explore_nodes"] = sum(sp.attrs["nodes"] for sp in explores) / passes
    m["reachability.explore_edges"] = sum(sp.attrs["edges"] for sp in explores) / passes
    for n in s.rows:
        secs = med(tracer.named("probability.scaled_row", n=n))
        if secs:
            m[f"probability.scaled_row_s.n{n}"] = secs
            m[f"probability.dp_states.n{n}"] = DP_STATES[n]
            m[f"probability.dp_us_per_state.n{n}"] = secs / DP_STATES[n] * 1e6
    top = s.rows[-1]
    cli = tracer.named("cli.prob", n=top)
    if cli:
        m[f"cli.prob_overhead_ms.n{top}"] = median(tracer.self_seconds(sp) for sp in cli) * 1e3
    nonflat = tracer.named("probability.final_distribution", flat=False)
    nodes = sum(
        c.attrs["nodes"] for sp in nonflat for c in tracer.children(sp)
        if c.name == "reachability.explore"
    )
    if nodes:
        m["probability.nonflat_us_per_node"] = (
            sum(tracer.self_seconds(sp) for sp in nonflat) / nodes * 1e6
        )
    for n, _ in s.mc:
        spans = tracer.named("probability.monte_carlo_counts", n=n)
        if spans:
            m[f"probability.mc_us_per_sample.n{n}"] = median(
                sp.seconds / sp.attrs["samples"] for sp in spans) * 1e6
    m["suites.correspondence_us_per_node"] = _per(
        tracer.named("suites.verify_move_correspondence"), "nodes", 1e6)
    m[f"trees.bruteforce_s.n{s.trees_n}"] = med(tracer.named("trees.r_table_bruteforce", n=s.trees_n))
    m[f"trees.recursive_ms.n{s.trees_n}"] = med(
        tracer.named("trees.r_table_recursive", n=s.trees_n), 1e3)
    m[f"perms.count_checks_s.n{s.perms_n}"] = med(tracer.named("perms.perm_count_checks", n=s.perms_n))
    m[f"perms.roundtrip_s.n{s.roundtrip_n}"] = med(tracer.named("perms.roundtrip_check", n=s.roundtrip_n))
    for suite in SUITE_NAMES:
        m[f"verify.suite_s.{suite}"] = med(tracer.named("verify.suite", suite=suite))
    m.update(figures)
    n6 = s.mc[0][0]
    if m["probability.mc_seed_us"] and m[f"probability.mc_us_per_sample.n{n6}"]:
        m[f"probability.mc_playout_us.n{n6}"] = (
            m[f"probability.mc_us_per_sample.n{n6}"] - m["probability.mc_seed_us"])
    return m
