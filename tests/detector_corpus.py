"""Detector corpus: every size-3 witness the battery builds, and its answers.

Runs the pipeline over a fixed corpus and counts, per case, the
witnesses the detectors hand to ``three_cuts._witness_report`` and how
many of those do not bound exactly three edges (a ``None`` result or a
``ProtocolError``).  It also prints a SHA-256 digest of every run's
detected lambda, reports and battery reports, and a digest and per-label
totals of the per-phase counts with the ``details1`` wave left out, so
two source trees can be compared line by line.  Not a pytest module; run
it from the root of a checkout:

    PYTHONPATH=src python tests/detector_corpus.py

The corpus: every connected graph with 2 to 7 vertices (networkx's graph
atlas) under every root with the battery forced; the benchmark's
``deep_cycle`` seeds 1-10 and ``dense_random`` seeds 1-3 as the
benchmark runs them; ``verify_corpus`` seeds 1-2 under the automatic
root, unforced and forced; 60 random lambda=3 graphs with n=20..60 under
roots 0, n/2 and n-1; and cycles, grids and prisms up to n=100 under
root 0, forced.  The last line of output is one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

from networkx import is_connected
from networkx.generators.atlas import graph_atlas_g

from smallcut import graphs, three_cuts
from smallcut.cli import pick_root
from smallcut.runtime import ProtocolError, SimulatorConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (the benchmark's own inputs, read only)

SKIPPED_PHASE = "details1"


def corpus():
    """(group, graph, root, force_battery) for every run, in a fixed order."""
    for nx_g in graph_atlas_g():
        n = nx_g.number_of_nodes()
        if n >= 2 and is_connected(nx_g):
            g = graphs.Graph(n, sorted(tuple(sorted(e)) for e in nx_g.edges))
            for root in range(n):
                yield "atlas", g, root, True
    for name, seeds in (("deep_cycle", range(1, 11)), ("dense_random", range(1, 4))):
        spec = workloads.WORKLOADS[name]
        for seed in seeds:
            for inp in spec.make_inputs(graphs, spec.plan(graphs, seed)):
                root = int(inp.args[inp.args.index("--root") + 1])
                yield name, inp.graph, root, "--force-battery" in inp.args
    for seed in (1, 2):
        for inp in workloads.verify_corpus(graphs, seed):
            for forced in (False, True):
                yield "verify_corpus", inp.graph, pick_root(inp.graph, "auto"), forced
    for i in range(60):
        n = 20 + i * 40 // 59
        g = graphs.generate("random_connected", n, seed=i, lam_min=3, lam_max=3)
        for root in (0, n // 2, n - 1):
            yield "random_l3", g, root, False
    for family, sizes in (("cycle", (4, 8, 16, 32, 64, 100)),
                          ("grid", tuple(k * k for k in range(3, 11))),
                          ("prism", (6, 10, 20, 40, 60, 80, 100))):
        for n in sizes:
            yield family, graphs.generate(family, n), 0, True


def _reports(reports) -> list | None:
    if reports is None:
        return None
    return [[[list(e) for e in r.edges], r.case, r.detected_by] for r in reports]


def main() -> int:
    built: Counter = Counter()
    rejected: Counter = Counter()
    witness = three_cuts._witness_report

    def counting(g, tree, parts, case, by):
        built[case] += 1
        try:
            r = witness(g, tree, parts, case, by)
        except ProtocolError:
            rejected[case] += 1
            raise
        if r is None:
            rejected[case] += 1
        return r

    three_cuts._witness_report = counting
    answers = hashlib.sha256()
    costs = hashlib.sha256()
    phase_totals: dict[str, list[int]] = {}
    runs: Counter = Counter()
    errors = []
    for group, g, root, forced in corpus():
        runs[group] += 1
        try:
            res = three_cuts.run_full_pipeline(g, root, SimulatorConfig(strict_bandwidth=True),
                                               force_battery=forced)
        except ProtocolError as exc:
            errors.append(f"{group} n={g.n} root={root}: {exc}")
            answers.update(json.dumps(["error", str(exc)]).encode())
            continue
        answers.update(json.dumps([res.lambda_detected, _reports(res.reports),
                                   _reports(res.battery_reports)]).encode())
        per = {label: [p.rounds, p.messages, p.words]
               for label, p in res.engine.stats.per_phase.items() if label != SKIPPED_PHASE}
        costs.update(json.dumps(per, sort_keys=True).encode())
        for label, counts in per.items():
            key = "trsf:layer*" if label.startswith("trsf:layer") else label
            total = phase_totals.setdefault(key, [0, 0, 0])
            for i, c in enumerate(counts):
                total[i] += c
    three_cuts._witness_report = witness

    cases = sorted(built, key=three_cuts._CASE_RANK.get)
    print(f"runs: {sum(runs.values())} ({', '.join(f'{k} {v}' for k, v in runs.items())})")
    for case in cases:
        print(f"{case}: built {built[case]}, rejected {rejected[case]}, "
              f"accepted {built[case] - rejected[case]}")
    print(f"protocol errors: {len(errors)}")
    for line in errors[:10]:
        print(f"  {line}")
    print(f"answers sha256: {answers.hexdigest()}")
    print(f"phase counts without {SKIPPED_PHASE} sha256: {costs.hexdigest()}")
    for label in sorted(phase_totals):
        rounds, messages, words = phase_totals[label]
        print(f"  {label}: rounds {rounds}, messages {messages}, words {words}")
    print(json.dumps({
        "runs": dict(runs),
        "witnesses": {c: {"built": built[c], "rejected": rejected[c],
                          "accepted": built[c] - rejected[c]} for c in cases},
        "protocol_errors": len(errors),
        "answers_sha256": answers.hexdigest(),
        "phase_counts_sha256": costs.hexdigest(),
        "phase_totals": {k: dict(zip(("rounds", "messages", "words"), v))
                         for k, v in sorted(phase_totals.items())},
    }, sort_keys=True))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
