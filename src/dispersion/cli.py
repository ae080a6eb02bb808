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

from .errors import (
    BudgetExceededError,
    DispersionError,
    DomainError,
    MalformedStateError,
)
from .perms import perm_stats, perms_of
from .probability import (
    final_distribution,
    monte_carlo_counts,
    row_to_csv,
    row_to_json,
    scaled_row,
    shadow_of_sumtroid,
)
from .reachability import explore, export_dot, placement_of, run_policy
from .states import available_moves, flat_clusteron, parse_state, sumtroid
from .trees import RTable, r_table_bruteforce, r_table_recursive
from .verify import reports_to_json, reports_to_text, run_suites, SUITES

USAGE_EXIT = 2
BUDGET_EXIT = 3


def _write(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_moves(args: argparse.Namespace) -> int:
    s = parse_state(args.state)
    moves = available_moves(s)
    if args.format == "json":
        payload = [
            {
                "pair": list(m.pair),
                "left_target": m.left_target,
                "right_target": m.right_target,
                "sumtroid_delta": m.sumtroid_delta,
            }
            for m in moves
        ]
        _write(args, json.dumps(payload, indent=2) + "\n")
        return 0
    lines = [
        f"pair=({m.pair[0]},{m.pair[1]}) left_target={m.left_target} "
        f"right_target={m.right_target} delta={m.sumtroid_delta:+d}"
        for m in moves
    ]
    lines.append(f"{len(moves)} moves")
    _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    path = run_policy(
        parse_state(args.state), policy=args.policy, seed=args.seed
    )
    if args.format == "json":
        payload = {
            "policy": args.policy,
            "trajectory": [p.text() for p in path],
            "moves": len(path) - 1,
            "sumtroid_change": sumtroid(path[-1]) - sumtroid(path[0]),
        }
        _write(args, json.dumps(payload, indent=2) + "\n")
        return 0
    _write(args, " -> ".join(p.pattern() for p in path) + "\n")
    return 0


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
    g = explore(s)
    k0 = sumtroid(s)
    rows = []
    for f in sorted(g.finals, key=lambda f: sumtroid(f)):
        try:
            p = placement_of(f)
            shadow_k = p.shadow_id.k
        except DomainError:
            shadow_k = None
        rows.append(
            {
                "state": f.text(),
                "pattern": f.pattern(),
                "shadow_k": shadow_k,
                "leftmost": f.offset,
                "sumtroid_change": sumtroid(f) - k0,
            }
        )
    if args.format == "json":
        _write(args, json.dumps(rows, indent=2) + "\n")
        return 0
    lines = [
        f"{r['state']}  shadow_k={r['shadow_k']}  sumtroid={r['sumtroid_change']:+d}"
        for r in rows
    ]
    lines.append(f"{len(rows)} final placements")
    _write(args, "\n".join(lines) + "\n")
    return 0


def cmd_prob(args: argparse.Namespace) -> int:
    if args.scaled:
        row = scaled_row(args.n)
    else:
        row = final_distribution(flat_clusteron(args.n))
    if args.format == "csv":
        _write(args, row_to_csv(row))
    else:
        _write(args, row_to_json(row))
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    counts = monte_carlo_counts(args.n, args.samples, args.seed)
    shadows: dict[int, int] = {}
    for k, c in counts.items():
        shadow_k = shadow_of_sumtroid(args.n, k)
        shadows[shadow_k] = shadows.get(shadow_k, 0) + c
    if args.format == "csv":
        lines = ["K,count"] + [f"{k},{c}" for k, c in counts.items()]
        _write(args, "\n".join(lines) + "\n")
        return 0
    payload = {
        "n": args.n,
        "samples": args.samples,
        "seed": args.seed,
        "counts": [{"k": k, "count": c} for k, c in counts.items()],
        "shadow_counts": [
            {"shadow_k": k, "count": shadows[k]} for k in sorted(shadows)
        ],
    }
    _write(args, json.dumps(payload, indent=2) + "\n")
    return 0


def _rtable_payload(table: RTable) -> dict:
    cells = []
    for leaves, x in table.cells():
        cell = {"l": leaves, "x": x, "r": table.r[(leaves, x)]}
        if table.a is not None:
            cell["a"] = table.a.get((leaves, x), 0)
            cell["b"] = table.b.get((leaves, x), 0)
        cells.append(cell)
    return {"n": table.n, "cells": cells}


def cmd_rtable(args: argparse.Namespace) -> int:
    if args.method == "brute" and args.n > 10:
        raise BudgetExceededError(
            args.n, "tree enumeration is capped at n=10; use --method recursion"
        )
    table = (
        r_table_bruteforce(args.n)
        if args.method == "brute"
        else r_table_recursive(args.n)
    )
    if args.format == "csv":
        have_ab = table.a is not None
        lines = ["l,x,r,a,b" if have_ab else "l,x,r"]
        for leaves, x in table.cells():
            row = [leaves, x, table.r[(leaves, x)]]
            if have_ab:
                row += [table.a.get((leaves, x), 0), table.b.get((leaves, x), 0)]
            lines.append(",".join(map(str, row)))
        _write(args, "\n".join(lines) + "\n")
        return 0
    _write(args, json.dumps(_rtable_payload(table), indent=2) + "\n")
    return 0


def cmd_perms(args: argparse.Namespace) -> int:
    if args.n > 10:
        raise BudgetExceededError(args.n, "permutation listing is capped at n=10")
    for flag, value in (("--last", args.last), ("--first", args.first)):
        if value is not None and not 1 <= value <= args.n:
            raise DomainError(f"{flag} must be in 1..{args.n}, got {value}")
    tally: dict[int, int] = {}
    for word in perms_of(args.n):
        st = perm_stats(word)
        if args.last is not None and st.last != args.last:
            continue
        if args.first is not None and st.first != args.first:
            continue
        value = {
            "descent": st.descents,
            "special": st.special_descents,
            "big": st.big_descents,
        }[args.stat]
        tally[value] = tally.get(value, 0) + 1
    if args.format == "csv":
        lines = [f"{args.stat},count"] + [f"{v},{tally[v]}" for v in sorted(tally)]
        _write(args, "\n".join(lines) + "\n")
        return 0
    payload = {
        "n": args.n,
        "stat": args.stat,
        "last": args.last,
        "first": args.first,
        "tally": [{"value": v, "count": tally[v]} for v in sorted(tally)],
    }
    _write(args, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suites(args.max_n, args.suite or None)
    text = reports_to_json(reports) if args.format == "json" else reports_to_text(reports)
    _write(args, text)
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
