"""Graph model and centralized reference algorithms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallcut.graphs import (
    ORACLE_LIMIT_ENV,
    Graph,
    RootedTree,
    boundary,
    dumps,
    edge_connectivity,
    edge_pairs,
    gamma,
    generate,
    is_induced_cut,
    loads,
    min_cut_oracle,
    non_tree_eids,
    small_cut_oracle,
    spanning_trees,
)
from smallcut import graphs


def k3() -> Graph:
    return generate("complete", 3)


def c4() -> Graph:
    return generate("cycle", 4)


def p4() -> Graph:
    return generate("path", 4)


def test_edge_ids_follow_input_order():
    g = c4()
    assert g.edges == ((0, 1), (1, 2), (2, 3), (0, 3))
    assert g.eid(3, 0) == 3
    assert g.adj[0] == (1, 3)
    assert g.inc[2] == ((1, 1), (3, 2))
    with pytest.raises(ValueError, match="no edge"):
        g.eid(0, 2)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(0, 1), (1, 1), (1, 2)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0), (1, 2)])
    with pytest.raises(ValueError, match="outside"):
        Graph(3, [(0, 1), (1, 3)])
    with pytest.raises(ValueError, match="not connected"):
        Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="one vertex"):
        Graph(0, [])
    assert Graph(1, []).m == 0  # the trivial graph is connected


def test_vertex_set_validation():
    g = k3()
    assert boundary(g, []) == frozenset()
    assert boundary(g, range(3)) == frozenset()
    with pytest.raises(ValueError, match="out of range"):
        boundary(g, {5})
    with pytest.raises(ValueError, match="out of range"):
        gamma(g, {0}, {-1})
    with pytest.raises(ValueError, match="no cuts"):
        min_cut_oracle(Graph(1, []))
    with pytest.raises(ValueError, match="no cuts"):
        edge_connectivity(Graph(1, []))


def test_boundary_of_single_vertex_in_triangle():
    g = k3()
    assert edge_pairs(g, boundary(g, {0})) == ((0, 1), (0, 2))


def test_boundary_of_arc_in_square():
    g = c4()
    assert edge_pairs(g, boundary(g, {1, 2})) == ((0, 1), (2, 3))


def test_gamma_counts_edges_between_sets():
    g = c4()
    assert gamma(g, {1, 2}, {3}) == 1
    assert gamma(g, {3}, {1, 2}) == 1
    assert gamma(g, {0}, {2}) == 0
    with pytest.raises(ValueError, match="overlap"):
        gamma(g, {0, 1}, {1})


def test_induced_cut_recognizes_path_bridge():
    g = p4()
    assert is_induced_cut(g, {g.eid(1, 2)}) == frozenset({2, 3})


def test_single_cycle_edge_is_not_a_cut():
    g = c4()
    assert is_induced_cut(g, {g.eid(0, 1)}) is None
    assert is_induced_cut(g, set()) is None


def test_opposite_cycle_edges_cut_out_an_arc():
    g = c4()
    assert is_induced_cut(g, {g.eid(0, 1), g.eid(2, 3)}) == frozenset({1, 2})


def test_induced_cut_rejects_supersets_of_cuts():
    # A bridge plus an extra non-crossing edge is not *exactly* a boundary.
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)])
    assert is_induced_cut(g, {g.eid(0, 1)}) == frozenset({1, 2, 3, 4})
    assert is_induced_cut(g, {g.eid(0, 1), g.eid(3, 4)}) is None


def test_path_min_cuts_are_its_bridges():
    res = min_cut_oracle(p4())
    assert res.lam == 1
    assert {edge_pairs(p4(), f) for f in res.min_cuts} == {
        ((0, 1),),
        ((1, 2),),
        ((2, 3),),
    }


def test_five_cycle_min_cuts_are_all_edge_pairs():
    g = generate("cycle", 5)
    res = min_cut_oracle(g)
    assert res.lam == 2
    assert len(res.min_cuts) == 10
    assert res.min_cuts == tuple(sorted(res.min_cuts, key=lambda f: edge_pairs(g, f)))


def test_complete_four_min_cuts_are_vertex_stars():
    g = generate("complete", 4)
    res = min_cut_oracle(g)
    assert res.lam == 3
    assert {edge_pairs(g, f) for f in res.min_cuts} == {
        edge_pairs(g, boundary(g, {v})) for v in range(4)
    }


def test_prism_is_three_connected():
    g = generate("prism", 6)
    assert g.m == 9
    res = min_cut_oracle(g)
    assert res.lam == 3
    assert edge_connectivity(g) == 3
    for f in res.min_cuts:
        assert is_induced_cut(g, f) is not None


def scan_oracle(g: Graph) -> tuple[int, tuple[frozenset[int], ...]]:
    """The oracle's former scan, kept as a reference: subsets in numeric
    order, each side's edges counted with an early exit past the best."""
    edges = g.edges
    best = g.m + 1
    cuts: set[frozenset[int]] = set()
    for mask in range(1, 1 << (g.n - 1)):
        ids = []
        small = True
        for e, (u, v) in enumerate(edges):
            bu = (mask >> (u - 1)) & 1 if u else 0
            bv = (mask >> (v - 1)) & 1
            if bu != bv:
                ids.append(e)
                if len(ids) > best:
                    small = False
                    break
        if not small:
            continue
        size = len(ids)
        if size < best:
            best = size
            cuts = {frozenset(ids)}
        elif size == best:
            cuts.add(frozenset(ids))
    return best, tuple(sorted(cuts, key=lambda f: edge_pairs(g, f)))


def _oracle_corpus():
    families = [
        (family, n)
        for family, sizes in (
            ("path", range(2, 15)), ("cycle", range(3, 15)), ("complete", range(2, 9)),
            ("grid", (4, 9)), ("prism", range(6, 15, 2)), ("barbell", range(6, 15, 2)),
        )
        for n in sizes
    ]
    for family, n in families:
        yield f"{family}{n}", generate(family, n)
    for n in range(2, 15):
        for lam in range(1, min(4, n - 1) + 1):
            for seed in range(3):
                try:
                    g = generate("random_connected", n, seed=seed, lam_min=lam, lam_max=lam)
                except ValueError:  # no such graph within the generator's tries
                    continue
                yield f"random{n}_l{lam}_s{seed}", g


def test_gray_code_oracle_matches_the_numeric_scan():
    names = []
    for name, g in _oracle_corpus():
        res = min_cut_oracle(g)
        assert (res.lam, res.min_cuts) == scan_oracle(g), name
        names.append(name)
    assert sum(name.startswith("random") for name in names) >= 100


def test_oracle_raises_when_its_running_count_disagrees_with_a_side():
    g = generate("cycle", 5)
    g.adj = (g.adj[0], g.adj[1][:1], *g.adj[2:])  # vertex 1 forgets a neighbour
    with pytest.raises(RuntimeError, match="has 2 edges, counted 1"):
        min_cut_oracle(g)


def _atlas_graphs():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    for nx_g in graph_atlas_g():
        n = nx_g.number_of_nodes()
        if 2 <= n <= 7 and nx.is_connected(nx_g):
            yield f"atlas{n}_m{nx_g.number_of_edges()}", Graph(
                n, sorted(tuple(sorted(e)) for e in nx_g.edges)
            )


def test_small_cut_oracle_matches_the_subset_scan():
    # The polynomial oracle against the brute-force one, on every
    # connected graph with 2..7 vertices and the oracle corpus.
    names = []
    for name, g in (*_oracle_corpus(), *_atlas_graphs()):
        ref = min_cut_oracle(g)
        for max_size in (1, 2, 3):
            res = small_cut_oracle(g, max_size)
            assert res.lam == ref.lam, (name, max_size)
            want = ref.min_cuts if ref.lam <= max_size else ()
            assert res.min_cuts == want, (name, max_size)
        names.append(name)
    assert sum(name.startswith("atlas") for name in names) == 995


@pytest.mark.parametrize("max_size", [0, 4])
def test_small_cut_oracle_takes_sizes_one_to_three(max_size):
    with pytest.raises(ValueError, match="max_size must be 1, 2 or 3"):
        small_cut_oracle(generate("cycle", 6), max_size)


def test_small_cut_oracle_raises_when_no_candidate_is_a_cut(monkeypatch):
    monkeypatch.setattr(graphs, "is_induced_cut", lambda g, cut: None)
    with pytest.raises(RuntimeError, match="no cut of size lambda=2"):
        small_cut_oracle(generate("cycle", 6))


def test_small_cut_oracle_raises_when_max_flow_overstates_lambda(monkeypatch):
    true_lam = graphs.edge_connectivity
    monkeypatch.setattr(graphs, "edge_connectivity", lambda g: true_lam(g) + 1)
    for g in (generate("path", 5), generate("cycle", 6), generate("prism", 8)):
        with pytest.raises(RuntimeError, match="max-flow gives lambda"):
            small_cut_oracle(g)


def test_edge_connectivity_reference_values():
    assert edge_connectivity(p4()) == 1
    assert edge_connectivity(generate("cycle", 5)) == 2
    assert edge_connectivity(generate("complete", 5)) == 4
    assert edge_connectivity(generate("barbell", 8)) == 1
    assert edge_connectivity(generate("grid", 16)) == 2


def test_oracle_refuses_oversized_graphs(monkeypatch):
    with pytest.raises(ValueError, match="edge_connectivity"):
        min_cut_oracle(generate("path", 17))
    monkeypatch.setenv(ORACLE_LIMIT_ENV, "4")
    with pytest.raises(ValueError, match="n=5 > 4"):
        min_cut_oracle(generate("path", 5))
    assert min_cut_oracle(generate("path", 5), limit=5).lam == 1


def test_generator_families():
    assert generate("path", 5).m == 4
    assert generate("cycle", 6).m == 6
    assert generate("complete", 5).m == 10
    g = generate("grid", 16)
    assert g.m == 24
    assert generate("grid", 6, rows=2).m == 7
    bar = generate("barbell", 8)
    assert bar.m == 13 and bar.eid(3, 4) is not None
    with pytest.raises(ValueError, match="perfect-square"):
        generate("grid", 7)
    with pytest.raises(ValueError, match="unknown family"):
        generate("tree", 5)
    with pytest.raises(ValueError, match="does not take"):
        generate("path", 5, rows=2)


def test_random_family_is_deterministic_per_seed():
    a = generate("random_connected", 10, seed=7)
    b = generate("random_connected", 10, seed=7)
    assert a.edges == b.edges
    c = generate("random_connected", 9, seed=3, lam_min=2)
    assert edge_connectivity(c) >= 2
    d = generate("random_connected", 9, seed=3, lam_max=1)
    assert edge_connectivity(d) == 1


def test_serialization_round_trip():
    g = k3()
    text = dumps(g)
    assert text == "3 3\n0 1\n0 2\n1 2\n"
    again = loads(text)
    assert again.n == g.n and again.edges == g.edges
    assert dumps(g, "k3") == "# k3\n" + text
    assert loads(dumps(g, "k3")).edges == g.edges


def test_loads_rejects_malformed_input():
    assert loads("3 2\n0 1 # chord\n# full line comment\n\n1 2\n").m == 2
    with pytest.raises(ValueError, match="line 2"):
        loads("3 1\n0 1 2\n")
    with pytest.raises(ValueError, match="integers"):
        loads("3 1\na b\n")
    with pytest.raises(ValueError, match="header"):
        loads("# nothing\n")
    with pytest.raises(ValueError, match="claims 2 edges"):
        loads("3 2\n0 1\n")
    with pytest.raises(ValueError, match="outside"):
        loads("3 1\n-1 2\n")


def test_bfs_tree_on_square():
    t = RootedTree.bfs(c4(), 0)
    assert t.level == (0, 1, 2, 1)
    assert t.parent == (None, 0, 1, 0)
    assert t.children[0] == (1, 3)
    assert t.depth == 2
    assert t.order == (0, 1, 3, 2)


def test_tree_queries_on_path():
    t = RootedTree.bfs(p4(), 0)
    assert t.ancestors(3) == (0, 1, 2, 3)
    assert t.alpha(3, 1) == 1
    assert t.desc(1) == frozenset({1, 2, 3})
    assert t.desc(0) == frozenset(range(4))


def test_non_tree_edges_of_square():
    g = c4()
    t = RootedTree.bfs(g, 0)
    assert non_tree_eids(g, t) == {g.eid(2, 3)}


def test_tree_from_edges_matches_bfs_orientation():
    g = c4()
    t = RootedTree.from_edges(4, [(0, 1), (1, 2), (0, 3)], root=0)
    assert t.parent == (None, 0, 1, 0)
    with pytest.raises(ValueError, match="needs 3 edges"):
        RootedTree.from_edges(4, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="span"):
        RootedTree.from_edges(4, [(0, 1), (1, 2), (1, 2)])


def test_spanning_tree_counts():
    assert sum(1 for _ in spanning_trees(c4())) == 4
    assert sum(1 for _ in spanning_trees(generate("complete", 4))) == 16
    for combo in spanning_trees(generate("complete", 4)):
        pairs = [generate("complete", 4).edges[e] for e in combo]
        RootedTree.from_edges(4, pairs)  # validity check


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_oracle_size_matches_max_flow(seed):
    g = generate("random_connected", 7, seed=seed, p=0.45)
    assert min_cut_oracle(g).lam == edge_connectivity(g)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 62))
def test_every_vertex_side_round_trips_through_induced_cut(seed, mask):
    g = generate("random_connected", 7, seed=seed, p=0.5)
    side = frozenset(v for v in range(1, 7) if (mask >> (v - 1)) & 1)
    f = boundary(g, side)
    assert f, "a proper side of a connected graph has a nonempty boundary"
    assert is_induced_cut(g, f) == side


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 2**10))
def test_induced_cut_agrees_with_subset_brute_force(seed, fmask):
    g = generate("random_connected", 6, seed=seed, p=0.5)
    f = frozenset(e for e in range(g.m) if (fmask >> e) & 1)
    witnesses = [
        frozenset(v for v in range(1, 6) if (vmask >> (v - 1)) & 1)
        for vmask in range(1, 1 << 5)
    ]
    expected = next((w for w in witnesses if boundary(g, w) == f), None)
    assert is_induced_cut(g, f) == expected


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_min_cuts_are_distinct_induced_cuts(seed):
    g = generate("random_connected", 8, seed=seed, p=0.4)
    res = min_cut_oracle(g)
    seen = set()
    for f in res.min_cuts:
        assert len(f) == res.lam
        assert is_induced_cut(g, f) is not None
        assert f not in seen
        seen.add(f)
