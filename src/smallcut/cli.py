"""Command-line front end: run, verify, bench, gen.

Exit codes are part of the contract: 0 success, 2 bad input, 3 a
bandwidth violation surfaced under --strict-bandwidth, 4 a phase blew
the round limit, 5 a verification mismatch, 6 a protocol broke the
communication model in any other way.  Reports are JSON with
sorted keys so diffs between runs stay readable.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .graphs import Graph, dumps, edge_pairs, generate, loads, small_cut_oracle
# perfbench/tracing.py wraps cli.min_cut_oracle by name, so the brute-force
# reference stays importable here; the verdicts below use small_cut_oracle.
from .graphs import min_cut_oracle  # noqa: F401
from .runtime import (
    BandwidthError, ProtocolError, RoundLimitError, SimulatorConfig, measure_diameter,
)
from .three_cuts import PipelineResult, run_full_pipeline

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BANDWIDTH = 3
EXIT_TIMEOUT = 4
EXIT_VERIFY = 5
EXIT_PROTOCOL = 6


class InputError(Exception):
    """Anything wrong with what the user handed us."""


# ---------------------------------------------------------------------------
# graph files


def load_graph(path: str) -> Graph:
    """Read a graph file in the :func:`smallcut.graphs.loads` format."""
    try:
        with open(path, encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is bad input."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


def dump_graph(g: Graph, path: str, comment: str = "") -> None:
    write_text(path, dumps(g, comment))


def graph_from_args(args) -> Graph:
    if args.graph is not None:
        return load_graph(args.graph)
    if args.family is None:
        raise InputError("need either --graph FILE or --family NAME")
    if args.n is None:
        raise InputError("--family requires --n")
    return generate(args.family, args.n, seed=args.seed)


def pick_root(g: Graph, spec: str) -> int:
    """``auto`` takes an eccentricity minimizer, so the tree is as
    shallow as the graph allows; anything else must be a vertex id."""
    if spec != "auto":
        try:
            root = int(spec)
        except ValueError as exc:
            raise InputError(f"--root must be a vertex id or 'auto', not {spec!r}") from exc
        if not 0 <= root < g.n:
            raise InputError(f"root {root} out of range for {g.n} vertices")
        return root
    return g.eccentricities.index(min(g.eccentricities))


# ---------------------------------------------------------------------------
# reports


def build_report(
    g: Graph, root: int, args, res: PipelineResult, verdict: str | None
) -> dict:
    report = {
        "graph": {"n": g.n, "m": g.m, "diameter": measure_diameter(g)},
        "config": {
            "word_bits": res.engine.config.word_bits,
            "strict_bandwidth": res.engine.config.strict_bandwidth,
            "round_limit": res.engine.config.round_limit,
        },
        "root": root,
        "max_size": args.max_size,
        "lambda": res.lambda_detected,
        "cuts": [
            {"edges": [list(e) for e in r.edges], "case": r.case, "detected_by": r.detected_by}
            for r in res.reports
        ],
        "rounds": res.engine.stats.as_dict(),
        "small_rounds": res.small_rounds,
        "battery_rounds": res.battery_rounds,
        "verification": verdict,
    }
    return report


def emit_report(report: dict, path: str | None) -> None:
    """Write the report to ``path`` (if any), then print it, so a path
    that cannot be written fails before anything reaches stdout."""
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        write_text(path, text + "\n")
    print(text)


def oracle_verdict(g: Graph, res: PipelineResult, max_size: int) -> tuple[str, list[str]]:
    """Compare a run against the exact oracle (max-flow size plus
    cycle-space candidates, :func:`smallcut.graphs.small_cut_oracle`).

    Returns PASS/FAIL and, on FAIL, human-readable diff lines.
    """
    oracle = small_cut_oracle(g, max_size)
    expected = {edge_pairs(g, c) for c in oracle.min_cuts}
    got = {r.edges for r in res.reports}
    lam_ok = (
        res.lambda_detected == oracle.lam
        if oracle.lam <= max_size
        else res.lambda_detected == f">{max_size}"
    )
    if lam_ok and got == expected:
        return "PASS", []
    diff = [
        f"lambda: reported {res.lambda_detected}, oracle {oracle.lam}",
    ]
    diff.extend(f"missing: {sorted(c)}" for c in sorted(expected - got))
    diff.extend(f"spurious: {sorted(c)}" for c in sorted(got - expected))
    return "FAIL", diff


# ---------------------------------------------------------------------------
# subcommands


def run_pipeline_for(g: Graph, root: int, args) -> PipelineResult:
    config = SimulatorConfig(
        strict_bandwidth=args.strict_bandwidth,
        round_limit=args.round_limit,
    )
    return run_full_pipeline(
        g,
        root=root,
        config=config,
        max_size=args.max_size,
        force_battery=getattr(args, "force_battery", False),
    )


def cmd_run(args) -> int:
    g = graph_from_args(args)
    root = pick_root(g, args.root)
    res = run_pipeline_for(g, root, args)
    verdict = None
    if args.verify:
        verdict, diff = oracle_verdict(g, res, args.max_size)
        for line in diff:
            print(line, file=sys.stderr)
    emit_report(build_report(g, root, args, res, verdict), args.report)
    return EXIT_VERIFY if verdict == "FAIL" else EXIT_OK


def cmd_verify(args) -> int:
    g = graph_from_args(args)
    root = pick_root(g, args.root)
    res = run_pipeline_for(g, root, args)
    verdict, diff = oracle_verdict(g, res, args.max_size)
    print(f"{verdict} lambda={res.lambda_detected} cuts={len(res.reports)}")
    for line in diff:
        print(line)
    return EXIT_OK if verdict == "PASS" else EXIT_VERIFY


def cmd_gen(args) -> int:
    g = generate(args.family, args.n, seed=args.seed)
    dump_graph(g, args.out, comment=f"family={args.family} n={args.n} seed={args.seed}")
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return EXIT_OK


def _bench_row(family: str, n: int, trials: int, round_limit: int) -> dict:
    g = generate(family, n)
    d = measure_diameter(g)
    config = SimulatorConfig(strict_bandwidth=True, round_limit=round_limit)
    root = pick_root(g, "auto")
    baseline = None
    for _ in range(max(1, trials)):
        res = run_full_pipeline(g, root=root, config=config, force_battery=True)
        probe = (res.small_rounds, res.battery_rounds, res.engine.stats.total_messages)
        if baseline is None:
            baseline = probe
        elif probe != baseline:
            raise RuntimeError(f"nondeterministic bench run on {family} n={n}")
    return {
        "family": family,
        "n": n,
        "diameter": d,
        "rounds_small": res.small_rounds,
        "rounds_battery": res.battery_rounds,
        "bits_peak": res.engine.stats.max_bits_per_edge_per_round,
        "small_per_d": round(res.small_rounds / d, 3),
        "battery_per_d2": round(res.battery_rounds / d**2, 4),
    }


def cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError as exc:
        raise InputError(f"--sizes must be comma-separated integers: {exc}") from exc
    if not sizes:
        raise InputError("--sizes is empty")
    rows = [_bench_row(args.family, n, args.trials, args.round_limit) for n in sizes]
    cols = list(rows[0])
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    lines = ["  ".join(c.rjust(widths[c]) for c in cols)]
    for r in rows:
        lines.append("  ".join(str(r[c]).rjust(widths[c]) for c in cols))
    if args.out:
        write_text(args.out, json.dumps(rows, indent=2, sort_keys=True) + "\n")
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph", help="graph file (as written by gen)")
    p.add_argument("--family", help="generated family name")
    p.add_argument("--n", type=int, help="vertex count for --family")
    p.add_argument("--seed", type=int, default=0, help="seed for --family")


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--root", default="auto", help="root vertex id, or 'auto'")
    p.add_argument("--max-size", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("--strict-bandwidth", action="store_true")
    p.add_argument("--round-limit", type=int, default=100_000)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every
    :func:`main` call in the process."""
    parser = argparse.ArgumentParser(
        prog="smallcut",
        description="find all cuts of size at most three with message-passing protocols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the pipeline and print a report")
    _add_graph_source(p)
    _add_run_options(p)
    p.add_argument("--force-battery", action="store_true",
                   help="run the size-3 stage even when a smaller cut exists")
    p.add_argument("--verify", action="store_true",
                   help="also compare against the exact max-flow and cycle-space oracle")
    p.add_argument("--report", help="write the JSON report here too")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("verify", help="compare a run against the exact oracle, at any n")
    _add_graph_source(p)
    _add_run_options(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="round-complexity sweep over a family")
    p.add_argument("--family", required=True)
    p.add_argument("--sizes", required=True, help="comma-separated vertex counts")
    p.add_argument("--trials", type=int, default=1,
                   help="repeat each size and insist on identical counts")
    p.add_argument("--round-limit", type=int, default=1_000_000)
    p.add_argument("--out", help="write rows as JSON here")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("gen", help="write a generated graph to a file")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BandwidthError as exc:
        print(f"bandwidth: {exc}", file=sys.stderr)
        return EXIT_BANDWIDTH
    except RoundLimitError as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except ProtocolError as exc:
        print(f"protocol: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
