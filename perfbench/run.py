"""smallcut benchmark: one workload, one single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One op is one in-process call of ``smallcut.cli.main`` with
the arguments a user would type, on a graph file the benchmark wrote
from the seed.  Ops cycle through the workload's inputs until
``--seconds`` have passed, and every input runs at least once.  Each
op is checked: it must exit 0, agree with an independent answer (max-flow
connectivity plus cycle-space cut enumeration, see ``xorcheck``), and
repeat the simulated counts of every earlier op on the same input.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics, writing the spans to ``.perfbench_out/``.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MODULES = ("graphs", "runtime", "trees", "small_cuts", "sketches", "three_cuts", "cli")
# Set-up is repeated and its median reported.  The repeats are spread
# over the run: host speed changes in steps of a second or more, so
# back-to-back set-ups would all see the same step.
SETUP_REPS = 11
VERIFY_LINE = re.compile(r"(PASS|FAIL) lambda=(\S+) cuts=(\d+)\n")


def fresh_import() -> SimpleNamespace:
    """Import the package anew, so that every set-up pays for it."""
    for name in [m for m in sys.modules if m == "smallcut" or m.startswith("smallcut.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"smallcut.{m}") for m in MODULES})


def set_up(make_inputs, plan, seed: int, workdir: Path, tracer, rep: int):
    """Import, generate the inputs and write them: one timed set-up."""
    start = perf_counter()
    mods = fresh_import()
    if tracer is not None:
        tracer.install(mods)
        span = tracer.start_op(f"setup{rep}", setup=True)
    inputs = make_inputs(mods.graphs, plan)
    paths = []
    for i, inp in enumerate(inputs):
        path = workdir / f"g{i:03d}.txt"
        mods.cli.dump_graph(inp.graph, str(path), comment=f"seed={seed} input={i}")
        paths.append(path)
    if tracer is not None:
        tracer.end_op(span)
        tracer.uninstall()
    return perf_counter() - start, mods, inputs, paths


def set_up_again(make_inputs, plan, seed: int, workdir: Path, tracer, rep: int) -> float:
    """A timed set-up between ops.  The ops' modules are put back in
    ``sys.modules`` afterwards, so the ops never see the fresh import."""
    saved = {k: v for k, v in sys.modules.items() if k == "smallcut" or k.startswith("smallcut.")}
    took = set_up(make_inputs, plan, seed, workdir, tracer, rep)[0]
    sys.modules.update(saved)
    return took


def run_op(mods, argv: list[str], tracer=None, op_id: str = ""):
    """One timed ``smallcut`` command; returns (seconds, exit code or
    error text, standard output)."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install(mods)
    gc.collect()
    start = perf_counter()
    if tracer is not None:
        span = tracer.start_op(op_id)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mods.cli.main(argv)
    except Exception as exc:  # a crashing op is a failed op; the run goes on
        rc = f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.end_op(span)
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if rc != 0 and err.getvalue():
        rc = f"{rc}: {err.getvalue().strip()}"
    return seconds, rc, out.getvalue()


def check(inp, stdout: str, res, expected) -> tuple[str | None, tuple | None]:
    """Compare one op's answer with the independent one.  ``res`` is the
    PipelineResult the op computed.  Returns an error (or None) and the
    op's simulated counts."""
    lam, cuts = expected
    want = lam if lam <= 3 else ">3"
    if inp.command == "run":
        try:
            report = json.loads(stdout)
            got_lam = report["lambda"]
            got = [tuple(sorted(tuple(e) for e in c["edges"])) for c in report["cuts"]]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}", None
        counts = (report["rounds"], report["battery_rounds"])
    else:
        # verify prints one line and no counts or cuts; they come from the
        # result the command computed, captured at cli.run_pipeline_for.
        m = VERIFY_LINE.match(stdout)
        if res is None or not m or m[1] != "PASS" or int(m[3]) != len(res.reports):
            return f"verify said {stdout.strip()!r}, expected PASS lambda={want}", None
        got_lam = int(m[2]) if m[2].isdigit() else m[2]
        got = [tuple(sorted(r.edges)) for r in res.reports]
        counts = (res.engine.stats.as_dict(), res.battery_rounds)
    if got_lam != want or len(set(got)) != len(got) or set(got) != cuts:
        return (f"answer lambda={got_lam} with {len(got)} cuts, expected lambda={want} "
                f"with {len(cuts)}; {len(set(got) ^ cuts)} cuts differ"), None
    return None, counts


def capture_results(mods, captured: list) -> None:
    inner = mods.cli.run_pipeline_for

    def run_pipeline_for(*args, **kwargs):
        res = inner(*args, **kwargs)
        captured.append(res)
        return res

    mods.cli.run_pipeline_for = run_pipeline_for


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def benchmark(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    tracer = Tracer() if traced else None
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        mods = fresh_import()
        if not Path(mods.cli.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"smallcut was imported from {mods.cli.__file__}, not {SRC}")
        plan = spec.plan(mods.graphs, seed)
        took, mods, inputs, paths = set_up(spec.make_inputs, plan, seed, workdir, tracer, 0)
        setups = [took]

        from xorcheck import small_min_cuts
        expected = [small_min_cuts(inp.graph, seed=seed) for inp in inputs]
        captured: list = []
        capture_results(mods, captured)

        argvs = [[inp.command, "--graph", str(p), *inp.args] for inp, p in zip(inputs, paths)]
        first_counts: list[tuple | None] = [None] * len(inputs)
        times: list[float] = []
        traced_times: list[float] = []
        attempted = failed = 0
        start = perf_counter()
        deadline = start + seconds
        k = 0
        while k < len(inputs) or perf_counter() < deadline:
            if (len(setups) < SETUP_REPS
                    and perf_counter() >= start + len(setups) * seconds / SETUP_REPS):
                setups.append(set_up_again(spec.make_inputs, plan, seed, workdir, tracer,
                                           len(setups)))
            i = k % len(inputs)
            # a traced run pairs every untraced op with a traced one on the
            # same input, alternating which goes first
            flip = (i + k // len(inputs)) % 2
            modes = (None,) if tracer is None else ((None, tracer), (tracer, None))[flip]
            for tr in modes:
                attempted += 1
                took, rc, stdout = run_op(mods, argvs[i], tr, f"op{attempted}")
                (times if tr is None else traced_times).append(took)
                if rc == 0:
                    res = captured.pop() if captured else None
                    error, counts = check(inputs[i], stdout, res, expected[i])
                else:
                    error, counts = f"exit {rc}", None
                captured.clear()
                if error is None:
                    first_counts[i] = first_counts[i] or counts
                    if counts != first_counts[i]:
                        error = "simulated counts differ from an earlier op on the same input"
                if error is not None:
                    failed += 1
                    print(f"op {attempted} on input {i} failed: {error}", file=sys.stderr)
            k += 1
        while len(setups) < SETUP_REPS:
            setups.append(set_up_again(spec.make_inputs, plan, seed, workdir, tracer, len(setups)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        spans = OUT / f"spans-{workload}.jsonl"
        tracer.write_jsonl(spans)
        print(f"spans: {spans.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        metrics = tracer.metrics()
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_times) / statistics.median(times) - 1.0)
        metrics["op_s.p90"] = p90(times)
    else:
        done = [c for c in first_counts if c is not None]
        metrics = {
            "setup_s": statistics.median(setups),
            "op_s.p50": statistics.median(times),
            "rounds": sum(c[0]["rounds_elapsed"] for c in done),
            "rounds_battery": sum(c[1] or 0 for c in done),
            "messages": sum(c[0]["total_messages"] for c in done),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "smallcut" / "__init__.py").is_file():
        print(f"error: no smallcut sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = sorted({m["name"] for m in wanted} - set(result["metrics"]))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload} seed={args.seed} {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
