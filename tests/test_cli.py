"""End-to-end runs of the command-line surface.

Every subcommand and every exit code gets exercised through main(),
exactly as the console script would invoke it.  The two failure codes
that a correct build cannot produce organically (bandwidth, verify
mismatch) are reached by stubbing the pipeline or the oracle.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smallcut
from smallcut import cli, graphs, three_cuts
from smallcut.cli import (
    EXIT_BANDWIDTH,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PROTOCOL,
    EXIT_TIMEOUT,
    EXIT_VERIFY,
    load_graph,
)
from smallcut.graphs import OracleResult, dumps, generate, min_cut_oracle, edge_pairs
from smallcut.runtime import BandwidthError, Engine, ProtocolError


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# gen + file format


def test_gen_roundtrip(tmp_path):
    out = tmp_path / "prism.txt"
    assert run_cli("gen", "--family", "prism", "--n", "8", "--out", str(out)) == EXIT_OK
    g = load_graph(str(out))
    ref = generate("prism", 8)
    assert (g.n, g.m) == (ref.n, ref.m)
    assert sorted(g.edges) == sorted(ref.edges)


def test_dumps_output_passes_verify(tmp_path):
    path = tmp_path / "prism.txt"
    path.write_text(dumps(generate("prism", 8)))
    assert run_cli("verify", "--graph", str(path)) == EXIT_OK


def test_load_graph_skips_comments(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a triangle\n3 3\n0 1\n1 2\n# middle note\n0 2\n")
    g = load_graph(str(path))
    assert g.n == 3 and g.m == 3


@pytest.mark.parametrize(
    "body",
    [
        "",                      # no header at all
        "3\n0 1\n",              # header missing the edge count
        "3 2\n0 1\n",            # header claims more edges than present
        "3 1\n0 x\n",            # non-integer endpoint
        "4 2\n0 1\n2 3\n",       # disconnected
        "3 2\n0 1\n0 1\n",       # parallel edge
    ],
)
def test_bad_graph_files(tmp_path, body):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    assert run_cli("run", "--graph", str(path)) == EXIT_INPUT


def test_missing_graph_file():
    assert run_cli("run", "--graph", "/no/such/file.txt") == EXIT_INPUT


# ---------------------------------------------------------------------------
# run


def test_run_bridge_graph(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code = run_cli(
        "run", "--family", "path", "--n", "5",
        "--strict-bandwidth", "--report", str(report_path),
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    report = json.loads(printed)
    assert report == json.loads(report_path.read_text())
    assert report["lambda"] == 1
    assert len(report["cuts"]) == 4
    assert all(r["case"] == "1-respect" for r in report["cuts"])
    assert report["graph"] == {"n": 5, "m": 4, "diameter": 4}
    assert report["config"]["strict_bandwidth"] is True
    assert report["verification"] is None
    assert report["rounds"]["per_phase"]["bfs"]["rounds"] >= 1


def test_run_report_keys_sorted(capsys):
    assert run_cli("run", "--family", "cycle", "--n", "6") == EXIT_OK
    printed = capsys.readouterr().out.strip()
    assert printed == json.dumps(json.loads(printed), indent=2, sort_keys=True)


def test_run_with_verify_passes(capsys):
    code = run_cli("run", "--family", "prism", "--n", "8", "--verify")
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["verification"] == "PASS"
    assert report["lambda"] == 3
    assert len(report["cuts"]) == 8


def test_run_max_size_truncates(capsys):
    code = run_cli("run", "--family", "cycle", "--n", "8", "--max-size", "1", "--verify")
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["lambda"] == ">1"
    assert report["cuts"] == []
    assert report["verification"] == "PASS"


def test_run_explicit_root(capsys):
    assert run_cli("run", "--family", "cycle", "--n", "6", "--root", "3") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["root"] == 3


def test_run_auto_root_minimizes_depth(capsys):
    # On a path the eccentricity minimizer is the midpoint.
    assert run_cli("run", "--family", "path", "--n", "7") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["root"] == 3


def test_run_computes_eccentricities_once(monkeypatch, capsys):
    # --root auto and the report's diameter share one all-sources BFS.
    calls = []
    real = graphs._bfs_levels

    def counting(g, root):
        calls.append(root)
        return real(g, root)

    monkeypatch.setattr(graphs, "_bfs_levels", counting)
    assert run_cli("run", "--family", "cycle", "--n", "8") == EXIT_OK
    assert json.loads(capsys.readouterr().out)["graph"]["diameter"] == 4
    assert len(calls) == 8


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--family", "nosuch", "--n", "8"),
        ("run", "--family", "cycle"),              # --n missing
        ("run",),                                  # no source at all
        ("run", "--family", "cycle", "--n", "6", "--root", "seven"),
        ("run", "--family", "cycle", "--n", "6", "--root", "6"),
    ],
)
def test_input_errors(argv):
    assert run_cli(*argv) == EXIT_INPUT


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--family", "cycle", "--n", "6", "--report"),
        ("gen", "--family", "cycle", "--n", "6", "--out"),
        ("bench", "--family", "cycle", "--sizes", "6", "--out"),
    ],
    ids=["run-report", "gen-out", "bench-out"],
)
def test_unwritable_output_path_is_bad_input(tmp_path, capsys, argv):
    path = str(tmp_path / "missing" / "x.json")
    assert run_cli(*argv, path) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err
    # the file is written before anything is printed, so a failed
    # command leaves no finished report or table on stdout
    assert out == ""


def test_main_calls_share_one_parser_and_print_the_same(capsys):
    argv = ("run", "--family", "prism", "--n", "8", "--strict-bandwidth")
    outs = []
    for _ in range(2):
        assert run_cli(*argv) == EXIT_OK
        outs.append(capsys.readouterr().out.encode())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["lambda"] == 3
    assert cli.make_parser() is cli.make_parser()


def test_round_limit_exceeded():
    code = run_cli("run", "--family", "cycle", "--n", "16", "--round-limit", "3")
    assert code == EXIT_TIMEOUT


def test_bandwidth_error_exit(monkeypatch):
    def explode(*args, **kwargs):
        raise BandwidthError(0, 7, 9, "stub")

    monkeypatch.setattr(cli, "run_full_pipeline", explode)
    assert run_cli("run", "--family", "cycle", "--n", "6") == EXIT_BANDWIDTH


def test_protocol_error_exits_6(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise ProtocolError("phase 'x' went quiet while node 3 still expects words")

    monkeypatch.setattr(cli, "run_full_pipeline", explode)
    assert run_cli("run", "--family", "cycle", "--n", "6") == EXIT_PROTOCOL
    assert "node 3" in capsys.readouterr().err


def test_witness_that_bounds_no_3_cut_exits_6(monkeypatch, capsys):
    # A detector that builds a witness of any other boundary is at fault:
    # here case 1 names the root, whose side is the whole graph.
    def whole_side(g, state):
        info = state.info
        return [three_cuts._witness_report(g, info.tree(), (info.root,), three_cuts.CASE1,
                                           info.root)]

    monkeypatch.setattr(three_cuts, "detect_case1", whole_side)
    assert run_cli("run", "--family", "prism", "--n", "8") == EXIT_PROTOCOL
    assert "case1 witness (0,) of node 0 bounds 0 edges, not 3" in capsys.readouterr().err


def test_send_on_a_foreign_edge_exits_6(monkeypatch, capsys):
    def stray_send(g, *args, **kwargs):
        engine = Engine(g)
        foreign = next(eid for eid, (a, b) in enumerate(g.edges) if 0 not in (a, b))
        engine.handles[0].send(foreign, 1)

    monkeypatch.setattr(cli, "run_full_pipeline", stray_send)
    assert run_cli("run", "--family", "cycle", "--n", "6") == EXIT_PROTOCOL
    assert "not incident to node 0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize(
    "family,n",
    [("path", 6), ("cycle", 7), ("prism", 8), ("complete", 5), ("barbell", 8)],
)
def test_verify_families(capsys, family, n):
    assert run_cli("verify", "--family", family, "--n", str(n)) == EXIT_OK
    assert capsys.readouterr().out.startswith("PASS")


def test_verify_from_file(tmp_path, capsys):
    out = tmp_path / "g.txt"
    run_cli("gen", "--family", "random_connected", "--n", "10", "--seed", "3", "--out", str(out))
    capsys.readouterr()
    assert run_cli("verify", "--graph", str(out), "--strict-bandwidth") == EXIT_OK
    assert capsys.readouterr().out.startswith("PASS")


def test_verify_passes_with_asserts_stripped():
    # Under python -O every assert is gone; the protocol's own checks remain.
    env = dict(os.environ, PYTHONPATH=str(Path(smallcut.__file__).resolve().parent.parent))
    argv = ["verify", "--family", "prism", "--n", "8", "--strict-bandwidth"]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "smallcut.cli", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("PASS")


def test_verify_truncated_lambda_is_correct(capsys):
    # Reporting ">2" on a 3-connected graph is the right answer for
    # --max-size 2, so it verifies clean.
    assert run_cli("verify", "--family", "complete", "--n", "5", "--max-size", "2") == EXIT_OK
    assert capsys.readouterr().out.startswith("PASS")


@pytest.mark.parametrize("family,n,line", [
    ("prism", 40, "PASS lambda=3 cuts=40"),
    ("grid", 256, "PASS lambda=2 cuts=4"),
    ("cycle", 256, "PASS lambda=2 cuts=32640"),
    ("prism", 256, "PASS lambda=3 cuts=256"),
])
def test_verify_beyond_brute_force(capsys, family, n, line):
    code = run_cli("verify", "--family", family, "--n", str(n), "--strict-bandwidth")
    assert code == EXIT_OK
    assert capsys.readouterr().out == line + "\n"


def test_verify_mismatch_exits_5(monkeypatch, capsys):
    g = generate("cycle", 6)
    truth = min_cut_oracle(g)
    doctored = OracleResult(truth.lam, truth.min_cuts[:-1])

    monkeypatch.setattr(cli, "small_cut_oracle", lambda *a, **k: doctored)
    assert run_cli("verify", "--family", "cycle", "--n", "6") == EXIT_VERIFY
    out = capsys.readouterr().out
    assert out.startswith("FAIL")
    assert "spurious:" in out


def test_run_verify_mismatch_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "small_cut_oracle", lambda *a, **k: OracleResult(1, (frozenset({0}),))
    )
    assert run_cli("run", "--family", "cycle", "--n", "6", "--verify") == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["verification"] == "FAIL"


def test_verify_diff_names_missing_cuts(monkeypatch, capsys):
    g = generate("cycle", 5)
    truth = min_cut_oracle(g)
    extra = truth.min_cuts + (frozenset({0}),)
    monkeypatch.setattr(cli, "small_cut_oracle", lambda *a, **k: OracleResult(truth.lam, extra))
    assert run_cli("verify", "--family", "cycle", "--n", "5") == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "missing:" in out
    missing = edge_pairs(g, frozenset({0}))
    assert str(sorted(missing)) in out


# ---------------------------------------------------------------------------
# bench


def test_bench_table_and_json(tmp_path, capsys):
    out = tmp_path / "rows.json"
    code = run_cli(
        "bench", "--family", "cycle", "--sizes", "6,8",
        "--trials", "2", "--out", str(out),
    )
    assert code == EXIT_OK
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == [
        "family", "n", "diameter", "rounds_small", "rounds_battery",
        "bits_peak", "small_per_d", "battery_per_d2",
    ]
    assert len(table) == 3
    rows = json.loads(out.read_text())
    assert [r["n"] for r in rows] == [6, 8]
    for row in rows:
        assert row["rounds_small"] > 0 and row["rounds_battery"] > 0
        assert row["small_per_d"] == round(row["rounds_small"] / row["diameter"], 3)


def test_bench_rejects_bad_sizes():
    assert run_cli("bench", "--family", "cycle", "--sizes", "6,x") == EXIT_INPUT
    assert run_cli("bench", "--family", "cycle", "--sizes", ",") == EXIT_INPUT


def test_bench_unknown_family():
    assert run_cli("bench", "--family", "moebius", "--sizes", "8") == EXIT_INPUT
