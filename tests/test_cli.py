"""Command line interface: outputs, formats, and exit codes."""
import json
import re

import pytest

from dispersion import (
    BudgetExceededError,
    cli,
    explore,
    export_dot,
    flat_clusteron,
    parse_state,
    placement_of,
    reachability,
    sumtroid,
)
from dispersion.verify import CheckResult, VerifyReport


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_moves_lists_all_pairs(capsys):
    code, out = run_cli(capsys, "moves", "--state", "1111")
    assert code == 0
    assert out.count("pair=") == 3
    assert "3 moves" in out


def test_moves_json_is_parseable(capsys):
    code, out = run_cli(capsys, "moves", "--state", "111", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 2
    assert {m["sumtroid_delta"] for m in payload} == {-1, 1}


def test_run_prints_a_trajectory(capsys):
    code, out = run_cli(capsys, "run", "--state", "12")
    assert code == 0
    assert out.strip() == "12 -> 1011 -> 11001 -> 100101"


def test_run_json_reports_the_sumtroid_change(capsys):
    code, out = run_cli(
        capsys,
        "run", "--state", "1111", "--policy", "random", "--seed", "5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["moves"] == len(payload["trajectory"]) - 1
    assert payload["sumtroid_change"] in (-3, -1, 0, 1, 3)


def test_run_is_deterministic_for_a_seed(capsys):
    _, first = run_cli(capsys, "run", "--state", "11111", "--policy", "random", "--seed", "9")
    _, second = run_cli(capsys, "run", "--state", "11111", "--policy", "random", "--seed", "9")
    assert first == second


def test_random_play_without_a_seed_uses_seed_zero(capsys):
    _, unseeded = run_cli(capsys, "run", "--state", "11111", "--policy", "random")
    _, zero = run_cli(capsys, "run", "--state", "11111", "--policy", "random", "--seed", "0")
    assert unseeded == zero


def test_graph_writes_dot(capsys, tmp_path):
    target = tmp_path / "g.dot"
    code, _ = run_cli(
        capsys, "graph", "--state", "1111", "--mode", "dag", "--out", str(target)
    )
    assert code == 0
    assert target.read_text().startswith("digraph")


def test_finals_reports_all_five_placements(capsys):
    code, out = run_cli(capsys, "finals", "--state", "1111", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 5
    assert [f["sumtroid_change"] for f in payload] == [-3, -1, 0, 1, 3]
    assert all(f["shadow_k"] in (1, 2, 3) for f in payload)


def test_finals_json_of_a_crowded_start_lists_the_graphs_finals(capsys):
    s = parse_state("261")
    want = [
        {
            "state": f.text(),
            "pattern": f.pattern(),
            "shadow_k": placement_of(f).shadow_id.k,
            "leftmost": f.offset,
            "sumtroid_change": sumtroid(f) - sumtroid(s),
        }
        for f in sorted(explore(s).finals, key=sumtroid)  # stable: ties keep key order
    ]
    code, out = run_cli(capsys, "finals", "--state", "261", "--format", "json")
    assert code == 0
    assert json.loads(out) == want


def test_finals_text_counts_placements(capsys):
    code, out = run_cli(capsys, "finals", "--state", "11")
    assert code == 0
    assert "1 final placements" in out


def test_prob_scaled_row_matches_the_engine(capsys):
    code, out = run_cli(capsys, "prob", "--n", "5", "--scaled")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 5 and payload["scaled"]
    values = {v["k"]: int(v["v"]) for v in payload["values"]}
    assert values[0] == 0 and values[-2] == 4
    assert "sha256" in payload


def test_prob_distribution_csv(capsys):
    code, out = run_cli(capsys, "prob", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "K,value"
    assert "0,1/3" in lines


def test_mc_counts_are_deterministic(capsys):
    code, first = run_cli(capsys, "mc", "--n", "5", "--samples", "200", "--seed", "3")
    assert code == 0
    _, second = run_cli(capsys, "mc", "--n", "5", "--samples", "200", "--seed", "3")
    assert first == second
    payload = json.loads(first)
    assert sum(c["count"] for c in payload["counts"]) == 200
    assert sum(c["count"] for c in payload["shadow_counts"]) == 200
    assert {c["shadow_k"] for c in payload["shadow_counts"]} <= {1, 2, 3, 4}


def test_rtable_bruteforce_and_recursion_agree(capsys):
    _, brute = run_cli(capsys, "rtable", "--n", "6", "--method", "brute")
    _, rec = run_cli(capsys, "rtable", "--n", "6", "--method", "recursion")
    b = json.loads(brute)
    r = json.loads(rec)
    assert {(c["l"], c["x"]): c["r"] for c in b["cells"]} == {
        (c["l"], c["x"]): c["r"] for c in r["cells"]
    }
    assert all("a" in c for c in b["cells"])
    assert all("a" not in c for c in r["cells"])


@pytest.mark.parametrize(
    "argv",
    [
        ["prob", "--n", "4"],
        ["prob", "--n", "5", "--scaled"],
        ["mc", "--n", "4", "--samples", "20"],
        ["rtable", "--n", "4"],
        ["rtable", "--n", "4", "--method", "recursion"],
        ["perms", "--n", "3"],
    ],
)
def test_csv_output_ends_lines_with_newline_only(capsys, argv):
    code, out = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.endswith("\n") and "\r" not in out


def test_rtable_csv_header(capsys):
    _, out = run_cli(capsys, "rtable", "--n", "4", "--method", "brute", "--format", "csv")
    assert out.splitlines()[0] == "l,x,r,a,b"


def test_perms_tally_by_statistic(capsys):
    code, out = run_cli(capsys, "perms", "--n", "4", "--stat", "descent")
    assert code == 0
    payload = json.loads(out)
    assert {t["value"]: t["count"] for t in payload["tally"]} == {
        0: 1, 1: 11, 2: 11, 3: 1,
    }


def test_perms_filter_by_last_digit(capsys):
    _, out = run_cli(capsys, "perms", "--n", "4", "--stat", "special", "--last", "1")
    payload = json.loads(out)
    assert sum(t["count"] for t in payload["tally"]) == 6


def test_verify_subcommand_passes(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "states", "--max-n", "4")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_verify_runs_at_every_small_max_n(capsys, k):
    code, out = run_cli(capsys, "verify", "--max-n", str(k))
    assert code == 0, out
    assert re.search(r"^33 checks: \d+ passed, 0 failed, \d+ skipped$", out, re.M), out
    assert ("33 checks: 33 passed" in out) == (k >= 4)  # below 4 some sweeps are empty
    for lo, hi in re.findall(r"(-?\d+)\.\.(-?\d+)", out):
        assert int(lo) <= int(hi), (lo, hi)


def test_verify_never_reads_or_writes_a_row_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DISPERSION_CACHE_DIR", str(tmp_path))
    code, _ = run_cli(capsys, "verify", "--suite", "window", "--max-n", "6")
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_repeated_suite_runs_once(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "window", "--suite", "window", "--max-n", "5"
    )
    assert code == 0
    assert "2 checks: 2 passed" in out
    ids = re.findall(r"\b(window\.[\w-]+)", out)
    assert ids and len(ids) == len(set(ids)) == 2, ids


def test_verify_json_format(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "window", "--max-n", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert all(c["status"] == "pass" for r in payload for c in r["checks"])


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    fake = VerifyReport(
        suite="states",
        checks=(CheckResult("states.fake", "fail", "boom", "claim"),),
    )
    monkeypatch.setattr(cli, "run_suites", lambda max_n, names: [fake])
    code, out = run_cli(capsys, "verify", "--suite", "states")
    assert code == 1
    assert "FAIL" in out


def test_usage_errors_exit_two(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "x.txt")
    for argv in (
        ["moves", "--state", "11", "--out", missing],
        ["moves"],
        ["moves", "--state", "zzz"],
        ["no-such-command"],
        ["run", "--state", "12", "--policy", "sideways"],
        ["run", "--state", "12", "--policy", "random", "--seed", "-7"],
        ["run", "--state", "12", "--seed", "5"],
        ["prob", "--n", "0", "--scaled"],
        ["verify", "--seed", "99", "--cache-dir", "/nonexistent"],
        ["moves", "--state", "\u0661\u0661"],
        ["mc", "--n", "0"],
        ["mc", "--n", "-3"],
        ["mc", "--n", "2", "--samples", "-5"],
        ["mc", "--n", "4", "--seed", "-1"],
        ["perms", "--n", "0"],
        ["perms", "--n", "-1"],
        ["mc", "--n", "1"],
        ["perms", "--n", "3", "--last", "9"],
        ["perms", "--n", "3", "--first", "0"],
        ["prob", "--n", "4", "--cache-dir", "/nonexistent"],
        ["prob", "--n", "4", "--scaled", "--cache-dir", "/nonexistent"],
        ["verify", "--max-n", "0"],
        ["verify", "--node-budget", "5"],
        ["graph", "--state", "11", "--node-budget", "3"],
        ["finals", "--state", "11", "--node-budget", "3"],
        ["prob", "--n", "4", "--node-budget", "3"],
        ["graph", "--state", "11", "--format", "dot"],
    ):
        assert cli.main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err
    cli.main(["prob", "--n", "4", "--out", missing])
    err = capsys.readouterr().err
    assert err == f"error: cannot write --out {missing}: No such file or directory\n"


def test_budget_errors_exit_three(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", 3)
    for argv in (
        ["graph", "--state", "111111"],
        ["graph", "--state", "111111", "--mode", "dag"],
        ["finals", "--state", "111111"],
        ["prob", "--n", "6"],
        ["prob", "--n", "6", "--scaled"],
    ):
        assert cli.main(argv) == 3, argv
        assert "budget exceeded" in capsys.readouterr().err
    monkeypatch.undo()
    # 278 states, but a tree of 1,169,872 nodes: counted before any line is built,
    # so no file is opened; a miscount writes a bounded file and fails here
    target = tmp_path / "tree.dot"
    argv = ["graph", "--state", "1200103", "--mode", "tree", "--out", str(target)]
    assert cli.main(argv) == 3
    assert not target.exists()
    assert "budget exceeded" in capsys.readouterr().err
    assert cli.main(["perms", "--n", "12", "--stat", "descent"]) == 3
    capsys.readouterr()
    assert cli.main(["rtable", "--n", "11"]) == 3
    assert "--method recursion" in capsys.readouterr().err


@pytest.mark.parametrize("mode, budget", [("tree", 19), ("dag", 17)])
def test_a_dot_budget_trip_comes_before_any_output(capsys, monkeypatch, tmp_path, mode, budget):
    # flat 4 has 18 states and a tree of 20 nodes: the tree trips its own count, the dag explore
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", budget)
    with pytest.raises(BudgetExceededError):
        export_dot(flat_clusteron(4), mode=mode)  # at the call, with no chunk read
    target = tmp_path / "graph.dot"
    assert cli.main(["graph", "--state", "1111", "--mode", mode, "--out", str(target)]) == 3
    assert not target.exists()
    assert capsys.readouterr().out == ""


def test_a_budget_trip_in_verify_exits_three_not_one(capsys, monkeypatch):
    # the DP of row 7 holds more than 100 pending masses: an unfinished check is no failed claim
    monkeypatch.setattr(reachability, "DEFAULT_NODE_BUDGET", 100)
    assert cli.main(["verify", "--suite", "window", "--max-n", "7"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: budget exceeded: node budget of 100 exceeded\n")


@pytest.mark.parametrize("command", ["rtable", "perms"])
def test_enumeration_caps_report_the_cap_as_the_budget(command):
    args = cli._parser().parse_args([command, "--n", "11"])
    with pytest.raises(BudgetExceededError) as raised:
        args.func(args)
    assert raised.value.budget == cli.ENUMERATION_CAP == 10


def test_output_file_writing(capsys, tmp_path):
    target = tmp_path / "row.json"
    code, _ = run_cli(capsys, "prob", "--n", "4", "--scaled", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["n"] == 4
