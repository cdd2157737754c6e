"""Independent exactness check for minimum cuts of size at most three.

The connectivity comes from max-flow (``graphs.edge_connectivity``).
The cuts come from cycle-space sampling (Pritchard & Thurimella, "Fast
computation of small cuts via cycle space sampling", ACM TALG 2011):
every non-tree edge of a spanning tree gets a random 64-bit label and
every tree edge the xor of the labels of the non-tree edges whose
fundamental cycle crosses it.  An induced cut meets every cycle in an
even number of edges, so its labels xor to 0.  Singletons labelled 0,
equal-label pairs and triples that xor to 0 therefore form a superset of
the cuts of that size, and ``graphs.is_induced_cut`` filters it exactly.
A false candidate survives the xor test with probability 2^-64 and is
then removed by the exact filter, so only a missed cut could slip
through, and a missed cut is impossible: its xor is 0 whatever the labels.

None of this shares code with the protocols under test; only the graph
model, the max-flow routine and the induced-cut test are reused.
"""

from __future__ import annotations

import random
from collections import defaultdict

from smallcut.graphs import Graph, RootedTree, edge_connectivity, edge_pairs, is_induced_cut

Cut = tuple[tuple[int, int], ...]


def cycle_space_labels(g: Graph, rng: random.Random) -> list[int]:
    """One label per edge id; tree edges of the BFS tree from 0 carry
    the xor of the non-tree labels that leave their lower subtree."""
    tree = RootedTree.bfs(g, 0)
    label = [0] * g.m
    leaving = [0] * g.n
    parent_eid: dict[int, int] = {}
    for e, (u, v) in enumerate(g.edges):
        if tree.parent[v] == u:
            parent_eid[v] = e
        elif tree.parent[u] == v:
            parent_eid[u] = e
        else:
            label[e] = rng.getrandbits(64)
            leaving[u] ^= label[e]
            leaving[v] ^= label[e]
    for v in reversed(tree.order):
        if v != tree.root:
            label[parent_eid[v]] = leaving[v]
            leaving[tree.parent[v]] ^= leaving[v]
    return label


def _candidates(label: list[int], size: int):
    if size == 1:
        yield from ((e,) for e, x in enumerate(label) if x == 0)
        return
    by_label: dict[int, list[int]] = defaultdict(list)
    for e, x in enumerate(label):
        by_label[x].append(e)
    if size == 2:
        for group in by_label.values():
            for i, a in enumerate(group):
                for b in group[i + 1:]:
                    yield (a, b)
        return
    for a in range(len(label)):
        for b in range(a + 1, len(label)):
            for c in by_label.get(label[a] ^ label[b], ()):
                if c > b:
                    yield (a, b, c)


def small_min_cuts(g: Graph, seed: int = 0) -> tuple[int, frozenset[Cut]]:
    """Edge connectivity and, when it is at most 3, every minimum cut as
    a sorted tuple of endpoint pairs."""
    lam = edge_connectivity(g)
    if lam > 3:
        return lam, frozenset()
    label = cycle_space_labels(g, random.Random(seed))
    cuts = frozenset(
        edge_pairs(g, cand)
        for cand in _candidates(label, lam)
        if is_induced_cut(g, cand) is not None
    )
    return lam, cuts
