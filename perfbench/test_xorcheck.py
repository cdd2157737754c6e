"""The benchmark's answer check agrees with the brute-force oracle."""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from smallcut.graphs import Graph, edge_pairs, generate, min_cut_oracle  # noqa: E402
from xorcheck import small_min_cuts  # noqa: E402


def _oracle(g):
    res = min_cut_oracle(g)
    return res.lam, frozenset(edge_pairs(g, c) for c in res.min_cuts)


@pytest.mark.parametrize("seed", range(60))
def test_matches_oracle_on_random_n10(seed):
    g = generate("random_connected", 10, seed=seed)
    lam, cuts = _oracle(g)
    got_lam, got_cuts = small_min_cuts(g, seed=seed)
    assert got_lam == lam
    assert got_cuts == (cuts if lam <= 3 else frozenset())


@pytest.mark.parametrize(
    "family,n", [("cycle", 12), ("prism", 12), ("grid", 16), ("barbell", 10), ("path", 7)]
)
def test_matches_oracle_on_families(family, n):
    g = generate(family, n)
    assert small_min_cuts(g) == _oracle(g)


def test_matches_oracle_under_relabelling():
    rng = random.Random(7)
    base = generate("random_connected", 12, seed=3, lam_min=3, lam_max=3)
    perm = list(range(base.n))
    rng.shuffle(perm)
    g = Graph(base.n, [(perm[u], perm[v]) for u, v in base.edges])
    assert small_min_cuts(g, seed=11) == _oracle(g)
