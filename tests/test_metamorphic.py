"""Metamorphic checks: the answer does not depend on how the input is
written down.

Shuffling the edge list and flipping endpoints leaves the graph, and so
the whole run, unchanged: costs, lambda and every report.  Relabelling
the vertices (and the root with them) may grow a different BFS tree, so
a cut can be found by another detector or node, but the cuts themselves
must map back to the same edge sets.
"""

from __future__ import annotations

import random

import pytest

from golden_costs import CHAIN3, CHAIN_PARTNER, FORK
from smallcut.graphs import Graph, generate
from smallcut.runtime import SimulatorConfig
from smallcut.three_cuts import run_full_pipeline

GRAPHS = {
    "cycle12": generate("cycle", 12),
    "grid16": generate("grid", 16),
    "prism12": generate("prism", 12),
    "barbell10": generate("barbell", 10),
    "random14_l3": generate("random_connected", 14, seed=11, lam_min=3, lam_max=3),
    "fork6": Graph(*FORK),
    "chain9": Graph(*CHAIN3),
    "chain10": Graph(*CHAIN_PARTNER),
}


def run(g: Graph, root: int):
    return run_full_pipeline(
        g, root=root, config=SimulatorConfig(strict_bandwidth=True), force_battery=True
    )


def cut_sets(reports, back=lambda v: v):
    """Each report's edge set, with vertices mapped by ``back``."""
    return sorted(
        tuple(sorted(tuple(sorted((back(a), back(b)))) for a, b in r.edges)) for r in reports
    )


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("mid_root", [False, True], ids=["root0", "rootmid"])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_edge_order_and_labels_do_not_change_the_cuts(name, mid_root, seed):
    g = GRAPHS[name]
    root = g.n // 2 if mid_root else 0
    rng = random.Random(seed)
    base = run(g, root)

    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in g.edges]
    rng.shuffle(edges)
    shuffled = run(Graph(g.n, edges), root)
    assert shuffled.engine.stats.as_dict() == base.engine.stats.as_dict()
    assert shuffled.lambda_detected == base.lambda_detected
    assert shuffled.reports == base.reports
    assert shuffled.battery_reports == base.battery_reports

    perm = list(range(g.n))
    rng.shuffle(perm)
    back = {p: v for v, p in enumerate(perm)}.__getitem__
    relabelled = run(Graph(g.n, [(perm[a], perm[b]) for a, b in g.edges]), perm[root])
    assert relabelled.lambda_detected == base.lambda_detected
    assert cut_sets(relabelled.reports, back) == cut_sets(base.reports)
    assert cut_sets(relabelled.battery_reports, back) == cut_sets(base.battery_reports)
