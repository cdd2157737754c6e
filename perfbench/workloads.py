"""The benchmark's workloads: seeded inputs and the command run on each.

Each workload turns the benchmark seed into a list of graphs plus the
``smallcut`` arguments for each.  A workload may first turn the seed
into a plan in an untimed step, so that choices that are the
benchmark's own work stay out of ``setup_s``.  The program only ever
sees the graph files written with ``cli.dump_graph``.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple


class Input(NamedTuple):
    graph: object  # smallcut.graphs.Graph
    command: str  # "run" or "verify"
    args: tuple[str, ...]  # everything after --graph FILE


def relabel(graphs, g, perm: list[int]):
    return graphs.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def deep_cycle(graphs, seed: int) -> list[Input]:
    """Cycle n=64 under a seeded relabelling and root, battery forced.

    D=32 and few messages per round: engine overhead per round and the
    per-word broadcast relays dominate.  λ=2 with all C(64,2) pairs."""
    rng = random.Random(f"deep_cycle/{seed}")
    base = graphs.generate("cycle", 64)
    perm = list(range(base.n))
    rng.shuffle(perm)
    root = str(rng.randrange(base.n))
    return [Input(relabel(graphs, base, perm), "run",
                  ("--strict-bandwidth", "--force-battery", "--root", root))]


DENSE_GRAPHS = 16


def dense_plan(graphs, seed: int) -> list[tuple[int, list[int], int]]:
    """Generator seeds, relabellings and roots for ``dense_random``,
    picked before the timed set-up.

    The base graphs are the same for every benchmark seed: the first
    generator seeds of a fixed stream that the λ=3 filter accepts on the
    first draw.  Their costs differ by up to a factor of two, so graphs
    drawn afresh for each seed would move the median op from one seed to
    the next.  The seed relabels every graph and roots it at a seeded
    choice among its centres, so the tree depth is the radius (3)."""
    base = random.Random("dense_random")
    rng = random.Random(f"dense_random/{seed}")
    plan = []
    while len(plan) < DENSE_GRAPHS:
        sub = base.randrange(2**32)
        try:
            g = graphs.generate("random_connected", 80, seed=sub, lam_min=3, lam_max=3, tries=1)
        except ValueError:
            continue
        ecc = [graphs.RootedTree.bfs(g, v).depth for v in range(g.n)]
        radius = min(ecc)
        perm = list(range(g.n))
        rng.shuffle(perm)
        plan.append((sub, perm, perm[rng.choice([v for v, e in enumerate(ecc) if e == radius])]))
    return plan


def dense_random(graphs, plan: list[tuple[int, list[int], int]]) -> list[Input]:
    """Random λ=3 graphs with n=80 (m≈350), from ``dense_plan``.

    The unforced λ=3 path: few rounds but many messages, so the cost per
    message and the sketch exchanges over non-tree edges dominate."""
    return [
        Input(relabel(graphs, graphs.generate("random_connected", 80, seed=sub, lam_min=3,
                                              lam_max=3, tries=1), perm),
              "run", ("--strict-bandwidth", "--root", str(root)))
        for sub, perm, root in plan
    ]


# Graphs per connectivity for each size n=10..16 (119 in all).  A fixed
# mix keeps the per-seed share of early exits, and so the median, steady.
CORPUS_SIZES = range(10, 17)
CORPUS_MIX = {1: 2, 2: 7, 3: 6, 4: 2}


def verify_corpus(graphs, seed: int) -> list[Input]:
    """Random graphs with n in [10, 16] and λ from 1 to 4, each verified
    against the brute-force oracle with an automatic root.

    Many short ops with early exits: the size-1/2 stage, the engine's
    fixed costs, the oracle, ``pick_root`` and the CLI carry the time."""
    rng = random.Random(f"verify_corpus/{seed}")
    kinds = [(n, lam) for n in CORPUS_SIZES for lam, count in CORPUS_MIX.items()
             for _ in range(count)]
    rng.shuffle(kinds)
    return [
        Input(graphs.generate("random_connected", n, seed=rng.randrange(2**32),
                              lam_min=lam, lam_max=lam),
              "verify", ("--strict-bandwidth", "--root", "auto"))
        for n, lam in kinds
    ]


def seed_plan(graphs, seed: int) -> int:
    return seed


class Workload(NamedTuple):
    make_inputs: Callable  # (graphs, plan) -> inputs; timed as set-up
    plan: Callable = seed_plan  # (graphs, seed) -> plan; untimed, before set-up


WORKLOADS = {
    "deep_cycle": Workload(deep_cycle),
    "dense_random": Workload(dense_random, dense_plan),
    "verify_corpus": Workload(verify_corpus),
}
