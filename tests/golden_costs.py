"""Golden cost ledger: the simulated cost and the answer of fixed runs.

Each instance is one ``run_full_pipeline`` call under strict bandwidth.
The ledger records, per instance, the rounds, messages, words and peak
bits per edge per round of every phase label and in total, the detected
lambda with the reported cuts, and the battery's reports with the case
and node that found each.  ``tests/test_golden_costs.py`` compares fresh
runs against ``golden_costs.json`` exactly, so a refactor that claims to
leave the protocols alone can prove it.

Regenerate only when a change is meant to move these numbers, and say
why in CHANGES.md:

    PYTHONPATH=src python tests/golden_costs.py

To see what a change moves before regenerating, ``--diff`` prints, per
instance and phase, the committed -> fresh rounds, messages, words and
max bits ('-' where one side lacks the figure), and any change in lambda
or the reports.  Then ``net: ...`` sums, per phase label over the whole
ledger, how many messages and words it gained or lost (a phase one side
lacks counts as 0 there), so traffic that moved from one phase to
another shows its net effect; it says ``net: none`` when every sum is 0.
The last line, ``rose: ...``, names every figure that went up (a phase
only the fresh run has counts as risen), or says ``rose: none``.  It
writes nothing.  It exits 1 when anything moved and
0 when it prints "no change", so a script can gate on it:

    PYTHONPATH=src python tests/golden_costs.py --diff
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from smallcut.graphs import Graph, generate
from smallcut.runtime import SimulatorConfig
from smallcut.three_cuts import run_full_pipeline

GOLDEN_PATH = Path(__file__).with_name("golden_costs.json")

# Hand-built shapes (from the detector fixtures): a fork whose prongs are
# bridges of the pivot (case 5), a chain of three nested subtrees
# (case 4) and a chain with a partner hanging off the ring between its
# links (case 7).
FORK = (6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)])
CHAIN3 = (9, [(0, 1), (0, 5), (0, 8), (1, 2), (1, 4), (1, 7), (2, 3), (5, 6), (3, 4), (3, 7),
              (4, 7), (2, 5), (2, 6), (6, 8), (5, 8)])
CHAIN_PARTNER = (10, [(0, 1), (0, 3), (0, 4), (0, 7), (1, 2), (1, 3), (1, 5), (1, 9), (2, 4),
                      (2, 6), (2, 7), (3, 8), (3, 9), (4, 6), (4, 7), (5, 8), (5, 9), (6, 7),
                      (8, 9)])

# name -> (graph spec, root, force_battery).  A graph spec is either
# (family, n, generator keywords) or ("edges", n, edge list).
INSTANCES = {
    "cycle12_r0": (("cycle", 12, {}), 0, False),
    "cycle12_r5_forced": (("cycle", 12, {}), 5, True),
    "grid16_r0_forced": (("grid", 16, {}), 0, True),
    "grid16_r5": (("grid", 16, {}), 5, False),
    "prism12_r0": (("prism", 12, {}), 0, False),
    "prism10_r2_forced": (("prism", 10, {}), 2, True),
    "barbell10_r0": (("barbell", 10, {}), 0, False),
    "barbell10_r7_forced": (("barbell", 10, {}), 7, True),
    "random12_s3_r0": (("random_connected", 12, {"seed": 3}), 0, False),
    "random12_s3_r4_forced": (("random_connected", 12, {"seed": 3}), 4, True),
    "random14_l3_r2": (("random_connected", 14, {"seed": 11, "lam_min": 3, "lam_max": 3}), 2, False),
    "random14_l3_r9": (("random_connected", 14, {"seed": 11, "lam_min": 3, "lam_max": 3}), 9, False),
    "fork6_r0": (("edges",) + FORK, 0, False),
    "chain9_r0": (("edges",) + CHAIN3, 0, False),
    "chain10_r0": (("edges",) + CHAIN_PARTNER, 0, False),
}


def build_graph(spec) -> Graph:
    family, n, extra = spec
    if family == "edges":
        return Graph(n, extra)
    return generate(family, n, **extra)


def _reports(reports) -> list:
    return [[[list(e) for e in r.edges], r.case, r.detected_by] for r in reports]


def measure(spec, root: int, force_battery: bool) -> dict:
    g = build_graph(spec)
    res = run_full_pipeline(
        g, root=root, config=SimulatorConfig(strict_bandwidth=True), force_battery=force_battery
    )
    stats = res.engine.stats.as_dict()
    return {
        "lambda": res.lambda_detected,
        "reports": _reports(res.reports),
        "battery_reports": None if res.battery_reports is None else _reports(res.battery_reports),
        "small_rounds": res.small_rounds,
        "battery_rounds": res.battery_rounds,
        "rounds_elapsed": stats["rounds_elapsed"],
        "total_messages": stats["total_messages"],
        "total_words": stats["total_words"],
        "phases": stats["per_phase"],
    }


def collect() -> dict:
    return {name: measure(*inst) for name, inst in INSTANCES.items()}


PHASE_FIELDS = (("rounds", "rounds"), ("messages", "messages"), ("words", "words"),
                ("max_bits_per_edge_per_round", "max bits"))
ANSWER_FIELDS = ("lambda", "reports", "battery_reports")
TOTAL_FIELDS = ("small_rounds", "battery_rounds", "rounds_elapsed", "total_messages",
                "total_words")


def _rose(old, new) -> bool:
    """Did a figure go up?  One the committed side lacks counts as risen."""
    return isinstance(new, int) and (not isinstance(old, int) or new > old)


def diff(committed: dict, fresh: dict) -> list[str]:
    """One line per instance, phase or total whose numbers moved, and per
    answer that changed, committed value first; then, when anything
    moved, the net message and word change per phase label, and a last
    line naming every figure that rose."""
    lines = []
    rose = []
    net: dict[str, list[int]] = {}
    for name in sorted(set(committed) | set(fresh)):
        old, new = committed.get(name), fresh.get(name)
        if old is None or new is None:
            lines.append(f"{name}: {'only fresh' if old is None else 'only committed'}")
            continue
        for key in ANSWER_FIELDS:
            if old[key] != new[key]:
                lines.append(f"{name}: {key} changed: {old[key]} -> {new[key]}")
        for key in TOTAL_FIELDS:
            if old.get(key) != new.get(key):
                lines.append(f"{name}: {key} {old.get(key, '-')} -> {new.get(key, '-')}")
                if _rose(old.get(key), new.get(key)):
                    rose.append(f"{name} {key}")
        for label in sorted(set(old["phases"]) | set(new["phases"])):
            a, b = old["phases"].get(label, {}), new["phases"].get(label, {})
            if a == b:
                continue
            sums = net.setdefault(label, [0, 0])
            for i, key in enumerate(("messages", "words")):
                sums[i] += b.get(key, 0) - a.get(key, 0)
            parts = [
                f"{title} {a.get(key, '-')} -> {b.get(key, '-')}" for key, title in PHASE_FIELDS
            ]
            lines.append(f"{name}: {label}: " + ", ".join(parts))
            if label not in old["phases"]:
                rose.append(f"{name} {label}")
            else:
                rose += [f"{name} {label} {title}" for key, title in PHASE_FIELDS
                         if _rose(a.get(key), b.get(key))]
    if lines:
        moved = [f"{label} messages {dm:+d} words {dw:+d}"
                 for label, (dm, dw) in sorted(net.items()) if dm or dw]
        lines.append("net: " + (", ".join(moved) or "none"))
        lines.append("rose: " + (", ".join(rose) or "none"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", action="store_true",
                        help="print what moved against the committed ledger; write nothing; "
                             "exit 1 if anything moved")
    args = parser.parse_args(argv)
    fresh = collect()
    if args.diff:
        committed = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        moved = diff(committed, json.loads(json.dumps(fresh)))
        print("\n".join(moved) or "no change")
        return 1 if moved else 0
    GOLDEN_PATH.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
