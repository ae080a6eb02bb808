"""Benchmark of the dispersion package: one workload per run.

    python3 perfbench/run.py --workload exact-rows --seed 1 --seconds 20 --trace 0

Runs from any directory of a checkout; the package is imported from the
checkout's ``src/``.  Set-up (import, goldens, cache preparation) runs
several times and ``setup_s`` is its median.  Then whole passes of the
workload repeat until ``--seconds`` have passed, single-threaded, and
every pass checks its outputs.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes, writes the
spans to ``perfbench/out/`` and reports the per-layer metrics.  Lines
before the last give every figure by name and unit; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import sys
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    FULL,
    SMOKE,
    WORKLOADS,
    Checks,
    graph_probes,
    layer_metrics,
    layer_units,
    pass_units,
)

SETUP_REPEATS = 5


def fresh_import():
    """Import the package from scratch, as a new process would."""
    for name in [k for k in sys.modules if k.split(".")[0] == "dispersion"]:
        del sys.modules[name]
    d = importlib.import_module("dispersion")
    importlib.import_module("dispersion.cli")
    return d


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    xs = sorted(values)
    for p in range(99, 0, -1):
        i = math.ceil(p / 100 * len(xs)) - 1
        if len(xs) - i - 1 >= 10:
            return p, xs[i]
    return None


def measure(args, workdir: Path) -> tuple[Checks, dict[str, tuple[float, str]], list[str]]:
    sizes = SMOKE if args.smoke else FULL
    workload = WORKLOADS[args.workload](sizes, args.seed, workdir)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        d = fresh_import()
        d.golden_scaled_rows()
        workload.setup(d)
        setups.append(perf_counter() - t0)

    checks = Checks()
    tracer = Tracer()
    walls: list[float] = []
    traced_walls: list[float] = []
    figures: list[dict[str, float]] = []
    start = perf_counter()
    while True:
        traced = args.trace and len(walls) > len(traced_walls)
        gc.collect()
        with tracer.tracing() if traced else nullcontext(), tracer.span("pass"):
            t0 = perf_counter()
            got = workload.run_pass(d, tracer, checks)
            wall = perf_counter() - t0
        if traced:
            traced_walls.append(wall)
        else:
            walls.append(wall)
            figures.append(got)
        done = len(walls) >= workload.min_passes and (traced_walls or not args.trace)
        # Stop before a pass that would end past --seconds, so long passes do not overrun.
        if done and perf_counter() - start + median(walls) > args.seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_figures = {k: median(f[k] for f in figures) for k in figures[0]}
    notes = [f"passes {len(walls)} untraced, {len(traced_walls)} traced"]
    if not args.trace:
        units = pass_units(sizes)
        metrics = {
            "wall_s": median(walls),
            "setup_s": median(setups),
            "peak_rss_mb": peak_mb,
        }
        report = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
        tail = tail_percentile(walls)
        if tail:
            notes.append(f"wall_s.p{tail[0]} {tail[1]!r} s")
        notes += [f"{k} {v!r} {units[k]}" for k, v in pass_figures.items()]
        notes.append(f"fail_ratio {len(checks.failures) / checks.attempted!r} ratio")
        return checks, report, notes

    probes = workload.probes(d, checks)
    probes.update(graph_probes(d, tracer.explored))
    probes.update(pass_figures)
    probes["trace.overhead_s"] = median(traced_walls) - median(walls)
    probes["fail_ratio"] = len(checks.failures) / checks.attempted
    values = layer_metrics(sizes, tracer, probes)
    tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json")
    layer = layer_units(sizes)
    return checks, {k: (v, layer[k]) for k, v in values.items()}, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dispersion" / "__init__.py").is_file():
        print(f"error: no dispersion package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("DISPERSION_CACHE_DIR", None)  # rows are computed, never read back
    workdir = HERE / "out" / f"work-{os.getpid()}"
    try:
        checks, report, notes = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in notes:
        print(line)
    for name, (value, unit) in report.items():
        print(f"{name} {value!r} {unit}")
    for failure in checks.failures:
        print(f"check failed: {failure}")
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
