"""Command-line surface for the dispersion engine.

Subcommands inspect states and moves, play policies, export graphs,
compute exact distributions and tree/permutation tables, sample, and
run the verification suites.  Exit codes: 0 all good, 1 check failure,
2 usage error, 3 budget exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from collections.abc import Iterable

from .errors import BudgetExceededError, DispersionError, DomainError, MalformedStateError
from .perms import _perm_stats, perms_of
from .probability import (
    final_distribution,
    monte_carlo_counts,
    row_to_csv,
    row_to_json,
    scaled_row,
    shadow_of_sumtroid,
)
from .reachability import export_dot, final_states, run_policy
from .states import (
    available_moves,
    classify_final_shadow,
    flat_clusteron,
    parse_state,
    sumtroid,
)
from .trees import r_table_bruteforce, r_table_recursive
from .verify import reports_to_json, reports_to_text, run_suites, SUITES

USAGE_EXIT = 2
BUDGET_EXIT = 3
ENUMERATION_CAP = 10  # largest n that rtable --method brute and perms enumerate


def _write(args: argparse.Namespace, chunks: Iterable[str]) -> None:
    """Write the chunks as they come; a bare ``str`` would go one character per call."""
    if not args.out:
        sys.stdout.writelines(chunks)
        return
    try:
        fh = open(args.out, "w")
    except OSError as e:
        raise ValueError(f"cannot write --out {args.out}: {e.strerror}") from e
    with fh:
        fh.writelines(chunks)


def _emit(args: argparse.Namespace, payload: object, lines: list[str]) -> int:
    """Write ``payload`` as JSON or ``lines`` as text/CSV, as --format asks."""
    text = json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines)
    _write(args, [text + "\n"])
    return 0


def cmd_moves(args: argparse.Namespace) -> int:
    moves = available_moves(parse_state(args.state))
    payload = [
        {
            "pair": list(m.pair),
            "left_target": m.left_target,
            "right_target": m.right_target,
            "sumtroid_delta": m.sumtroid_delta,
        }
        for m in moves
    ]
    lines = [
        f"pair=({m.pair[0]},{m.pair[1]}) left_target={m.left_target} "
        f"right_target={m.right_target} delta={m.sumtroid_delta:+d}"
        for m in moves
    ]
    return _emit(args, payload, lines + [f"{len(moves)} moves"])


def cmd_run(args: argparse.Namespace) -> int:
    path = run_policy(parse_state(args.state), policy=args.policy, seed=args.seed)
    payload = {
        "policy": args.policy,
        "trajectory": [p.text() for p in path],
        "moves": len(path) - 1,
        "sumtroid_change": sumtroid(path[-1]) - sumtroid(path[0]),
    }
    return _emit(args, payload, [" -> ".join(p.pattern() for p in path)])


def cmd_graph(args: argparse.Namespace) -> int:
    dot = export_dot(
        parse_state(args.state),
        mode=args.mode,
        labels=args.labels,
        half=args.half,
        prune_locked_in=args.dedup_locked,
    )
    _write(args, dot)
    return 0


def cmd_finals(args: argparse.Namespace) -> int:
    s = parse_state(args.state)
    k0 = sumtroid(s)
    rows = []
    for f in sorted(final_states(s), key=sumtroid):
        fid = classify_final_shadow(f)
        rows.append(
            {
                "state": f.text(),
                "pattern": f.pattern(),
                "shadow_k": None if fid is None else fid.k,
                "leftmost": f.offset,
                "sumtroid_change": sumtroid(f) - k0,
            }
        )
    lines = [
        f"{r['state']}  shadow_k={r['shadow_k']}  sumtroid={r['sumtroid_change']:+d}"
        for r in rows
    ]
    return _emit(args, rows, lines + [f"{len(rows)} final placements"])


def cmd_prob(args: argparse.Namespace) -> int:
    row = scaled_row(args.n) if args.scaled else final_distribution(flat_clusteron(args.n))
    _write(args, [row_to_csv(row) if args.format == "csv" else row_to_json(row)])
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    counts = monte_carlo_counts(args.n, args.samples, args.seed, jobs=args.jobs)
    shadows: Counter[int] = Counter()
    for k, c in counts.items():
        shadows[shadow_of_sumtroid(args.n, k)] += c
    payload = {
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "counts": [{"k": k, "count": c} for k, c in counts.items()],
        "shadow_counts": [
            {"shadow_k": k, "count": shadows[k]} for k in sorted(shadows)
        ],
    }
    return _emit(args, payload, ["K,count"] + [f"{k},{c}" for k, c in counts.items()])


def cmd_rtable(args: argparse.Namespace) -> int:
    if args.method == "brute" and args.n > ENUMERATION_CAP:
        raise BudgetExceededError(
            ENUMERATION_CAP,
            f"tree enumeration is capped at n={ENUMERATION_CAP}; use --method recursion",
        )
    table = (r_table_bruteforce if args.method == "brute" else r_table_recursive)(args.n)
    # recursion tables have no a/b split: zip stops at the shorter columns
    columns = ("l", "x", "r") if table.a is None else ("l", "x", "r", "a", "b")
    a, b = table.a or {}, table.b or {}
    cells = [
        dict(zip(columns, (*cell, table.r[cell], a.get(cell, 0), b.get(cell, 0))))
        for cell in table.cells()
    ]
    lines = [",".join(columns)] + [",".join(map(str, c.values())) for c in cells]
    return _emit(args, {"n": table.n, "cells": cells}, lines)


def cmd_perms(args: argparse.Namespace) -> int:
    if args.n > ENUMERATION_CAP:
        raise BudgetExceededError(
            ENUMERATION_CAP, f"permutation listing is capped at n={ENUMERATION_CAP}"
        )
    for flag, value in (("--last", args.last), ("--first", args.first)):
        if value is not None and not 1 <= value <= args.n:
            raise DomainError(f"{flag} must be in 1..{args.n}, got {value}")
    field = {"descent": "descents", "special": "special_descents", "big": "big_descents"}
    tally: Counter[int] = Counter()
    for word in perms_of(args.n):
        st = _perm_stats(word)  # the words of perms_of are valid
        if args.last not in (None, st.last) or args.first not in (None, st.first):
            continue
        tally[getattr(st, field[args.stat])] += 1
    payload = {
        "n": args.n,
        "stat": args.stat,
        "last": args.last,
        "first": args.first,
        "tally": [{"value": v, "count": tally[v]} for v in sorted(tally)],
    }
    lines = [f"{args.stat},count"] + [f"{v},{tally[v]}" for v in sorted(tally)]
    return _emit(args, payload, lines)


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suites(args.max_n, args.suite or None)
    text = reports_to_json(reports) if args.format == "json" else reports_to_text(reports)
    _write(args, [text])
    return 0 if all(r.ok for r in reports) else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersion",
        description="Exact engine for two-sided dispersion on a line of rooms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state(p: argparse.ArgumentParser) -> None:
        p.add_argument("--state", required=True, help="room pattern, e.g. 1111 or 1[12]01@-2")

    def add_format(p: argparse.ArgumentParser, choices=("text", "json", "csv")) -> None:
        p.add_argument("--format", choices=choices, default=choices[0])
        p.add_argument("--out", help="write output to this file instead of stdout")

    p = sub.add_parser("moves", help="list the available moves of a state")
    add_state(p)
    add_format(p, ("text", "json"))
    p.set_defaults(func=cmd_moves)

    p = sub.add_parser("run", help="play one trajectory to a final state")
    add_state(p)
    p.add_argument("--policy", choices=("leftmost", "rightmost", "random"), default="leftmost")
    p.add_argument("--seed", type=int, default=None, help="seed of --policy random (default 0)")
    add_format(p, ("text", "json"))
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("graph", help="export the move tree or graph as DOT")
    add_state(p)
    p.add_argument("--mode", choices=("tree", "dag"), default="tree")
    p.add_argument("--labels", choices=("pattern", "sumtroid"), default="pattern")
    p.add_argument("--half", choices=("full", "left", "right"), default="full")
    p.add_argument(
        "--dedup-locked",
        action="store_true",
        help="prune children of states whose sumtroid can no longer change",
    )
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("finals", help="list all reachable final placements")
    add_state(p)
    add_format(p, ("text", "json"))
    p.set_defaults(func=cmd_finals)

    p = sub.add_parser("prob", help="exact final-sumtroid distribution of a flat start")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scaled", action="store_true", help="multiply by (n-1)! into integers")
    add_format(p, ("json", "csv"))
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("mc", help="seeded Monte-Carlo sample of final sumtroids")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="processes that share the samples (default: the CPUs this process may use)",
    )
    add_format(p, ("json", "csv"))
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("rtable", help="tree counts by leaves and path end")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("brute", "recursion"), default="brute")
    add_format(p, ("json", "csv"))
    p.set_defaults(func=cmd_rtable)

    p = sub.add_parser("perms", help="tally permutations by a descent statistic")
    p.add_argument("--n", type=int, required=True, help="permutation size")
    p.add_argument("--stat", choices=("descent", "special", "big"), default="descent")
    p.add_argument("--last", type=int, default=None, help="keep words ending in this value")
    p.add_argument("--first", type=int, default=None, help="keep words starting with this value")
    add_format(p, ("json", "csv"))
    p.set_defaults(func=cmd_perms)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument(
        "--suite",
        action="append",
        choices=sorted(SUITES),
        help="run only this suite (repeatable); default is all",
    )
    p.add_argument("--max-n", type=int, default=None, help="override every suite's size limit")
    add_format(p, ("text", "json"))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_EXIT if e.code else 0
    try:
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: budget exceeded: {e}", file=sys.stderr)
        return BUDGET_EXIT
    except (MalformedStateError, DomainError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_EXIT
    except DispersionError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
