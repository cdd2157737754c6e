"""Size-3 battery: seven detectors against the brute-force oracle."""

from __future__ import annotations

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallcut import three_cuts
from smallcut.graphs import Graph, RootedTree, boundary, generate, min_cut_oracle, edge_pairs
from smallcut.runtime import Engine, ProtocolError, SimulatorConfig
from smallcut.sketches import SketchMeta, distributed_k_sketch
from smallcut.small_cuts import (
    LAYER_ABSORBING,
    LAYER_IDENTITY,
    TAG_CANDIDATE,
    LayerCand,
    compute_eta,
    compute_zeta,
    landing_combine,
    preprocess_eta,
    preprocess_zeta,
)
from smallcut.three_cuts import (
    CASE1,
    CASE2,
    CASE3,
    CASE4,
    CASE5,
    CASE6,
    CASE7,
    PivotedSubgraph,
    compute_cut_details,
    convergecast_details,
    detect_case5,
    layered_min_cut,
    downcast_h,
    run_full_pipeline,
    sketch_exchange,
)
from smallcut.trees import build_bfs

from golden_costs import INSTANCES, build_graph

# Each entry: vertex count, edge list, roots known to exhibit the label.
# The graphs were screened against the subset-enumeration oracle; the
# deep-chain (case4) and chain-plus-partner (case7) shapes are built by
# hand because breadth-first trees flatten them out of random graphs.
FIXTURES = {
    CASE2: [
        (6, [(0, 1), (0, 2), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5)], 0),
        (6, [(0, 1), (0, 2), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5)], 4),
        (7, [(0, 1), (0, 2), (0, 6), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5), (2, 6),
             (3, 4), (3, 5), (4, 5), (5, 6)], 6),
    ],
    CASE3: [
        (6, [(0, 1), (0, 2), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5)], 0),
        (6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)], 4),
        (7, [(0, 2), (0, 3), (0, 6), (1, 2), (1, 4), (1, 5), (2, 4), (3, 4), (3, 6),
             (4, 5), (5, 6)], 0),
    ],
    CASE4: [
        (9, [(0, 1), (0, 5), (0, 8), (1, 2), (1, 4), (1, 7), (2, 3), (5, 6), (3, 4),
             (3, 7), (4, 7), (2, 5), (2, 6), (6, 8), (5, 8)], 0),
        (10, [(0, 1), (0, 5), (0, 8), (1, 2), (1, 4), (1, 7), (1, 9), (2, 3), (5, 6),
              (3, 4), (3, 7), (4, 7), (4, 9), (7, 9), (2, 5), (2, 6), (6, 8), (5, 8)], 0),
        (8, [(0, 1), (0, 5), (0, 6), (1, 2), (1, 4), (1, 7), (2, 3), (3, 4), (3, 7),
             (4, 7), (2, 5), (2, 6), (5, 6)], 0),
    ],
    CASE5: [
        (6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)], 0),
        (6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)], 0),
        (6, [(0, 1), (0, 2), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 4), (3, 5)], 2),
    ],
    CASE6: [
        (6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 5), (4, 5)], 0),
        (6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)], 0),
        (6, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (2, 3), (2, 5),
             (3, 4), (4, 5)], 2),
    ],
    CASE7: [
        (10, [(0, 1), (0, 3), (0, 4), (0, 7), (1, 2), (1, 3), (1, 5), (1, 9), (2, 4),
              (2, 6), (2, 7), (3, 8), (3, 9), (4, 6), (4, 7), (5, 8), (5, 9), (6, 7), (8, 9)], 0),
        (10, [(0, 1), (0, 3), (0, 4), (0, 7), (1, 2), (1, 3), (1, 5), (1, 9), (2, 4),
              (2, 6), (2, 7), (3, 8), (3, 5), (4, 6), (4, 7), (5, 8), (5, 9), (6, 7), (8, 9)], 0),
        (11, [(0, 1), (0, 3), (0, 4), (0, 7), (0, 10), (1, 2), (1, 3), (1, 5), (1, 9),
              (2, 4), (2, 6), (2, 7), (3, 8), (3, 9), (4, 6), (4, 7), (4, 10), (5, 8),
              (5, 9), (6, 7), (7, 10), (8, 9)], 0),
    ],
}

# Forks aimed at the two halves of the case-5 detector: prongs tied only
# to the outside (bridge-record pairing) and prongs sharing an edge
# (pair record).
FORK_BRIDGES = Graph(6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3),
                         (3, 5), (2, 4), (4, 5), (2, 5)])
FORK_PAIRED = Graph(6, [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (3, 4),
                        (2, 3), (2, 4), (3, 5), (4, 5)])
# The pair (3, 4) here is already a two-cut of the pivot one level above
# the true fork, so the shipped record names the shallower pivot; the
# detector has to recover the fork by scanning its own chain.
SHADOWED_FORK = Graph(8, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4), (0, 5),
                          (5, 6), (3, 6), (4, 6), (1, 5), (0, 7), (5, 7), (6, 7)])


def pipeline(g, root=0, **kw):
    return run_full_pipeline(g, root=root, config=SimulatorConfig(strict_bandwidth=True), **kw)


def battery_stage(g, root=0):
    """The layered scan's bridge and pair records, as case 5 receives them."""
    engine = Engine(g, SimulatorConfig(strict_bandwidth=True))
    info = build_bfs(engine, root)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    etas = preprocess_zeta(engine, info, state)
    zeta = compute_zeta(engine, info, state, etas)
    two = layered_min_cut(engine, info, state, etas, downcast_h(engine, info, state), zeta)
    return info, state, compute_cut_details(info, state, two)


def oracle_edge_sets(g):
    res = min_cut_oracle(g)
    return res.lam, {edge_pairs(g, c) for c in res.min_cuts}


def assert_matches_oracle(g, root):
    lam, expected = oracle_edge_sets(g)
    res = pipeline(g, root=root)
    if lam > 3:
        assert res.lambda_detected == ">3"
        assert res.reports == ()
    else:
        assert res.lambda_detected == lam
        assert {r.edges for r in res.reports} == expected


# -- fixture corpus ---------------------------------------------------------

@pytest.mark.parametrize(
    "label,n,edges,root",
    [(label, n, edges, root) for label, rows in FIXTURES.items() for n, edges, root in rows],
)
def test_fixture_exhibits_case(label, n, edges, root):
    g = Graph(n, edges)
    res = pipeline(g, root=root)
    assert res.lambda_detected == 3
    assert label in {r.case for r in res.reports}


@pytest.mark.parametrize(
    "n,edges",
    sorted({(n, tuple(edges)) for rows in FIXTURES.values() for n, edges, _ in rows}),
)
def test_fixture_matches_oracle_under_three_roots(n, edges):
    g = Graph(n, list(edges))
    for root in (0, n // 2, n - 1):
        assert_matches_oracle(g, root)


def test_fork_with_independent_prongs():
    res = pipeline(FORK_BRIDGES)
    by_case = {r.edges for r in res.reports if r.case == CASE5}
    assert ((0, 1), (1, 3), (1, 4)) in by_case
    assert_matches_oracle(FORK_BRIDGES, 0)


def test_fork_with_connected_prongs():
    res = pipeline(FORK_PAIRED)
    by_case = {r.edges for r in res.reports if r.case == CASE5}
    assert ((0, 1), (1, 3), (1, 4)) in by_case
    assert_matches_oracle(FORK_PAIRED, 0)


def test_shadowed_fork_recovered_by_chain_scan():
    lam, expected = oracle_edge_sets(SHADOWED_FORK)
    assert lam == 3
    res = pipeline(SHADOWED_FORK)
    assert {r.edges for r in res.reports} == expected
    # the interesting cut is the ring around node 2
    assert ((1, 2), (2, 3), (2, 4)) in {r.edges for r in res.reports}
    for root in range(1, 8):
        assert_matches_oracle(SHADOWED_FORK, root)


# -- generated corpus -------------------------------------------------------

@pytest.mark.parametrize("family,n", [
    ("complete", 4),
    ("complete", 5),
    ("prism", 6),
    ("cycle", 7),
    ("path", 6),
    ("grid", 9),
    ("barbell", 8),
])
def test_families_match_oracle(family, n):
    g = generate(family, n)
    for root in (0, n - 1):
        assert_matches_oracle(g, root)


@pytest.mark.parametrize("seed", range(8))
def test_random_graphs_match_oracle(seed):
    g = generate("random_connected", 11, seed=seed)
    assert_matches_oracle(g, seed % g.n)


def test_k4_reports_all_four_stars():
    g = generate("complete", 4)
    res = pipeline(g)
    assert res.lambda_detected == 3
    assert {r.edges for r in res.reports} == {
        ((0, 1), (0, 2), (0, 3)),
        ((0, 1), (1, 2), (1, 3)),
        ((0, 2), (1, 2), (2, 3)),
        ((0, 3), (1, 3), (2, 3)),
    }


def test_prism_reports_waist_and_stars():
    g = generate("prism", 6)
    res = pipeline(g)
    assert res.lambda_detected == 3
    assert len(res.reports) == 7  # six vertex stars + the matching


# -- exhaustive small graphs ------------------------------------------------

def connected_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if len(edges) < n - 1:
            continue
        adj = {v: set() for v in range(n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = {0}, [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            yield Graph(n, edges)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exhaustive_all_roots(n):
    for g in connected_graphs(n):
        lam, expected = oracle_edge_sets(g)
        for root in range(n):
            res = pipeline(g, root=root)
            if lam > 3:
                assert res.reports == ()
            else:
                assert {r.edges for r in res.reports} == expected, (g.edges, root)


def test_forced_battery_on_every_connected_graph_up_to_6_vertices():
    # Every witness a detector builds bounds exactly three edges (any
    # other raises ProtocolError), on every connected graph with 2 to 6
    # vertices under every root.
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    runs = 0
    for nx_g in graph_atlas_g():
        n = nx_g.number_of_nodes()
        if not 2 <= n <= 6 or not nx.is_connected(nx_g):
            continue
        g = Graph(n, sorted(tuple(sorted(e)) for e in nx_g.edges))
        for root in range(n):
            pipeline(g, root=root, force_battery=True)
            runs += 1
    assert runs == 809


@pytest.mark.parametrize("g,root", [
    # three nested subtrees whose old per-boundary equations held at boundary 7
    (generate("prism", 20), 0),
    # two bridge records whose prongs' pivots sit below a fork that bounds 5
    (Graph(7, [(0, 3), (0, 4), (1, 2), (2, 3), (2, 4), (2, 5), (2, 6), (5, 6)]), 5),
], ids=["case4_prism20", "case5_bridges7"])
def test_no_witness_where_the_old_predicates_overcounted(g, root):
    # Here a case-4 test of each boundary on its own, or a case-5 fork
    # tried above the prongs' pivots, builds a witness that bounds 7 or 5
    # edges, which raises.
    pipeline(g, root=root, force_battery=True)


# K5 with a pendant vertex 5 on vertex 4; its BFS tree from 0 is a star
# with 5 below 4.
K5_PENDANT = Graph(6, list(itertools.combinations(range(5), 2)) + [(4, 5)])


@pytest.mark.parametrize("parts,size", [((5,), 1), ((1, 5), 5), ((0,), 0)])
def test_witness_that_bounds_no_3_cut_raises(parts, size):
    tree = RootedTree.bfs(K5_PENDANT, 0)
    msg = re.escape(f"case4 witness {parts} of node 3 bounds {size} edges")
    with pytest.raises(ProtocolError, match=msg):
        three_cuts._witness_report(K5_PENDANT, tree, parts, CASE4, 3)


# -- pipeline semantics -----------------------------------------------------

def test_early_exit_sizes():
    path = generate("path", 5)
    res = pipeline(path)
    assert res.lambda_detected == 1
    assert res.battery_reports is None
    assert res.battery_rounds is None

    cyc = generate("cycle", 6)
    res = pipeline(cyc)
    assert res.lambda_detected == 2
    assert res.battery_reports is None


def test_max_size_truncation():
    cyc = generate("cycle", 6)
    res = pipeline(cyc, max_size=1)
    assert res.lambda_detected == ">1"
    assert res.reports == ()
    res = pipeline(cyc, max_size=2)
    assert res.lambda_detected == 2
    with pytest.raises(ValueError):
        pipeline(cyc, max_size=4)


def test_force_battery_measures_rounds_below_lambda_three():
    cyc = generate("cycle", 8)
    res = pipeline(cyc, force_battery=True)
    assert res.lambda_detected == 2  # detection verdict unchanged
    assert res.battery_rounds is not None and res.battery_rounds > 0
    assert res.battery_reports == ()  # no induced 3-cut is minimum here


def test_battery_reuses_the_k3_wave_and_sends_lean_blocks():
    # One sketch up-wave serves the k=3 detectors and the reduced k=2
    # sketches; detail records carry only what case 5 reads, and hcast
    # rows are as long as their owner's level says, without padding or a
    # head word, and the levels 0 and 1 cast none.
    res = pipeline(generate("cycle", 16), force_battery=True)
    per = res.engine.stats.per_phase
    depth = res.depth
    assert depth == 8
    assert "sketch3" in per and "sketch2" not in per
    # 3 * depth + 1 with an out-edge count in each bridge record
    assert per["details1"].rounds == 2 * depth + 1
    assert per["details2"].rounds == 4 * depth + 1
    # 16 with a head word per row, and a separate 15-round pivot:pre phase
    assert per["hcast"].rounds == 15
    # a layer-fold candidate is 5 words, (tag, w, stay, eta, gamma), with no level word;
    # layer 0 is the size-2 stage's zeta fold, so layers 1..7 alone run (49 with layer 0)
    layers = [p for label, p in per.items() if label.startswith("trsf:layer")]
    assert sum(p.rounds for p in layers) == 27
    assert sum(p.words for p in layers) == 91  # 182 with a level word per record


def test_sketch_swap_is_one_phase_without_shared_blocks():
    # The sketch cast and the non-tree swap run as one phase; a block on
    # the root path both endpoints share never crosses the non-tree edge.
    res = pipeline(generate("cycle", 16), force_battery=True)
    per = res.engine.stats.per_phase
    assert "sketchxch" not in per
    assert per["sketchcast"].rounds == 205  # 209 with an owner word, 205 + 242 as two phases
    # 956 as two phases, 718 with 8-word layer candidates, 711 with a layer-0 fold,
    # 689 with owner, level and head words and a pivot:pre phase, 669 with
    # every phase in a row (hcast and the layer folds now share rounds), 627
    # with an out-edge count in each bridge record
    assert res.battery_rounds == 619

    g = generate("cycle", 16)
    engine = Engine(g, SimulatorConfig(strict_bandwidth=True))
    info = build_bfs(engine, 0)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    up = distributed_k_sketch(engine, info, state, 3, preprocess_zeta(engine, info, state))
    (eid,) = {e for per_edge in state.paths for e in per_edge}  # the one non-tree edge
    words = {}
    send = engine._send

    def tally(handle, e, ws):
        words[e] = words.get(e, 0) + len(ws)
        send(handle, e, ws)

    engine._send = tally
    sketch_exchange(engine, info, up, state.paths)
    x, y = g.edges[eid]
    # The two root paths share the root alone; a block is its entry count
    # and entries, and the receiver names it from the sender's root path.
    unshared = info[x].ancestors[1:] + info[y].ancestors[1:]
    assert len(set(unshared)) == len(unshared)
    assert words[eid] == sum(1 + 4 * len(up.sketches[a].meta) for a in unshared)


@pytest.mark.parametrize("name", sorted(n for n, (_, _, forced) in INSTANCES.items() if forced))
def test_battery_rounds_overlap_opposite_directions(name):
    # hcast (down) shares rounds with sketch3 (up), and the layer folds
    # (up) with sketchcast and rsketch2 (down); the detail waves follow.
    spec, root, _ = INSTANCES[name]
    res = pipeline(build_graph(spec), root=root, force_battery=True)
    per = res.engine.stats.per_phase
    rounds = {label: p.rounds for label, p in per.items()}
    layers = sum(r for label, r in rounds.items() if label.startswith("trsf:layer"))
    assert layers > 0
    assert res.battery_rounds == (
        max(rounds["hcast"], rounds["sketch3"])
        + max(layers, rounds["sketchcast"] + rounds["rsketch2"])
        + rounds["details1"] + rounds["details2"]
    )
    assert res.engine.stats.rounds_elapsed == res.engine.round


@pytest.mark.parametrize("seed,root", [(1, 8), (3, 0), (11, 2)])
def test_case6_tries_each_triple_once_per_node(seed, root, monkeypatch):
    # Sub-case B at node w tries (v, x, y) once, even when x lies on the
    # chains of several non-tree neighbours (once per such edge, on these
    # graphs some witnesses were checked 2 to 4 times).
    tried = []
    witness = three_cuts._witness_report

    def counting(g, tree, parts, case, by):
        if case == CASE6:
            tried.append((tuple(parts), by))
        return witness(g, tree, parts, case, by)

    monkeypatch.setattr(three_cuts, "_witness_report", counting)
    g = generate("random_connected", 10, seed=seed, lam_min=3, lam_max=3)
    res = pipeline(g, root=root)
    assert res.lambda_detected == 3
    assert tried and len(tried) == len(set(tried))


def on_chain(parent, u, target):
    """Is ``target`` ``u`` or an ancestor of ``u``, walking ``parent``?"""
    while u is not None:
        if u == target:
            return True
        u = parent[u]
    return False


def apart(parent, x, y):
    return not on_chain(parent, x, y) and not on_chain(parent, y, x)


def case6_all_pairs(g, state, etas, sketches, held):
    """Case 6 as it searched before the gamma index: every candidate pair,
    and disjointness by walking parent chains."""
    info = state.info
    tree = info.tree()
    out = []
    for v in range(g.n):
        if v == info.root:
            continue
        meta = sketches.sketches[v].meta
        parent = {u: m.parent for u, m in meta.items()}
        ev = state.eta[v]
        partners = [u for u in sorted(meta) if u != v and apart(parent, u, v)]
        for i, x in enumerate(partners):
            ex, gvx = meta[x].eta, meta[x].gamma
            for y in partners[i + 1:]:
                if not apart(parent, x, y):
                    continue
                ey, gvy = meta[y].eta, meta[y].gamma
                if ev - 1 == gvx + gvy and ex - 1 == gvx and ey - 1 == gvy:
                    r = three_cuts._witness_report(g, tree, (v, x, y), CASE6, v)
                    if r:
                        out.append(r)
    for w, sk in enumerate(held):
        if not state.paths[w]:
            continue
        parents = {a: {u: m.parent for u, m in s.items()} for a, s in sk.items()}
        cands = {
            v: [u for u in sorted(sk[v]) if u != v and apart(parents[v], u, v)]
            for v in info[w].ancestors[1:]
        }
        theirs = {x for path in state.paths[w].values() for x in path}
        for v, cv in cands.items():
            sv = sk[v]
            ev = etas[w][v]
            for x in cv:
                if x not in theirs:
                    continue
                sx = sk[x]
                ex, gvx = sv[x].eta, sv[x].gamma
                for y in cv:
                    if y == x or not apart(parents[v], x, y):
                        continue
                    if y not in sx or not apart(parents[x], x, y):
                        continue
                    ey, gvy = sv[y].eta, sv[y].gamma
                    gxy = sx[y].gamma
                    if (gxy > 0 and ev - 1 == gvx + gvy and ex - 1 == gvx + gxy
                            and ey - 1 == gvy + gxy):
                        r = three_cuts._witness_report(g, tree, (v, x, y), CASE6, w)
                        if r:
                            out.append(r)
    return out


def case6_corpus():
    for n in range(10, 41, 6):
        yield f"random{n}_l3", generate("random_connected", n, seed=n, lam_min=3, lam_max=3), (
            0, n // 2, n - 1)
    # Here two y with one gamma both pass the checks for some (w, v, x),
    # so visiting a gamma group out of ascending order changes the reports.
    for seed in (0, 36):
        yield f"random8_s{seed}", generate("random_connected", 8, seed=seed), (0, 4, 7)
    for name, (spec, root, _) in sorted(INSTANCES.items()):
        yield name, build_graph(spec), (root,)
    for i, (n, edges, root) in enumerate(FIXTURES[CASE6]):
        yield f"case6_fixture{i}", Graph(n, edges), (root,)


def test_case6_search_by_gamma_matches_all_pairs(monkeypatch):
    # The gamma index visits only the y a chosen x can pair with; the
    # witnesses it tries, the reports, and the order of both are those of
    # the full search.
    tried = []
    witness = three_cuts._witness_report

    def recording(g, tree, parts, case, by):
        tried.append((tuple(parts), by))
        return witness(g, tree, parts, case, by)

    monkeypatch.setattr(three_cuts, "_witness_report", recording)
    found = 0
    for name, g, roots in case6_corpus():
        for root in roots:
            engine = Engine(g, SimulatorConfig(strict_bandwidth=True))
            info = build_bfs(engine, root)
            state = compute_eta(engine, info, preprocess_eta(engine, info))
            etas = preprocess_zeta(engine, info, state)
            up = distributed_k_sketch(engine, info, state, 3, etas)
            held = sketch_exchange(engine, info, up, state.paths)
            want = case6_all_pairs(g, state, etas, up, held)
            want_tried = tried[:]
            tried.clear()
            assert three_cuts.detect_case6(g, state, etas, up, held) == want, (name, root)
            assert tried == want_tried, (name, root)
            tried.clear()
            found += len(want)
    assert found >= 20


@st.composite
def sketch_metas(draw):
    """A random rooted tree as sketch entries, under scrambled ids."""
    size = draw(st.integers(1, 24))
    ids = draw(st.permutations(range(40)))[:size]
    parent = [None] + [draw(st.integers(0, i - 1)) for i in range(1, size)]
    order = draw(st.permutations(range(size)))
    return {ids[i]: SketchMeta(None if parent[i] is None else ids[parent[i]], 0, 0)
            for i in order}


@settings(deadline=None, max_examples=200)
@given(sketch_metas())
def test_preorder_spans_agree_with_parent_walks(meta):
    span = three_cuts._preorder_spans(meta)
    parent = {u: m.parent for u, m in meta.items()}
    for x in meta:
        for y in meta:
            assert three_cuts._sketch_disjoint(span, x, y) == apart(parent, x, y)


def test_hcast_swaps_rows_without_shared_or_empty_ones():
    # The crossing-count rows cross non-tree edges in the hcast phase
    # itself, so no pivot:pre phase runs; a row on the root-path prefix
    # both ends share, or of level 0 or 1 (empty), never crosses.
    res = pipeline(generate("grid", 16), force_battery=True)
    assert "hcast" in res.engine.stats.per_phase
    assert "pivot:pre" not in res.engine.stats.per_phase

    g = generate("grid", 16)
    engine = Engine(g, SimulatorConfig(strict_bandwidth=True))
    info = build_bfs(engine, 0)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    words = {}
    send = engine._send

    def tally(handle, e, ws):
        words[e] = words.get(e, 0) + len(ws)
        send(handle, e, ws)

    engine._send = tally
    hcast = downcast_h(engine, info, state)
    deepest = 0
    for x in range(g.n):
        for eid, path in state.paths[x].items():
            y = engine.handles[x].neighbor(eid)
            assert path == info[y].ancestors
            shared = sum(a == b for a, b in zip(info[x].ancestors, path))
            deepest = max(deepest, shared)
            first = max(shared, 2)
            chains = info[x].ancestors[first:] + info[y].ancestors[first:]
            # a level-l row is l - 1 counts, and nothing else crosses
            assert words.get(eid, 0) == sum(info[a].level - 1 for a in chains)
            for a in info[y].ancestors[2:]:
                assert hcast[x][a] == hcast[y][a]
    assert deepest > 2  # some edge's ends share more than the root and level 1


def test_scan_takes_layer0_from_the_zeta_fold():
    # The pivot-0 subgraph is the whole graph, so the size-2 stage's zeta
    # fold is the scan's layer 0 and no trsf:layer0 phase runs.  The BFS
    # cast already swapped the root paths' ids, and the eta cast swaps
    # the etas below the prefix both ends share on its own clock, so no
    # phase of its own sends either.
    res = pipeline(generate("cycle", 16), force_battery=True)
    per = res.engine.stats.per_phase
    assert "trsf:zeta" in per and "trsf:layer0" not in per
    assert "trsf:layer1" in per
    res = pipeline(generate("cycle", 12))
    per = res.engine.stats.per_phase
    assert list(per) == ["bfs", "trsf:eta", "broadcast1", "trsf:zeta"]
    assert per["broadcast1"].rounds == res.depth + 1
    # 55 with the ids and the etas each swapped in a phase of their own
    assert res.small_rounds == 46


def test_rounds_split_between_stages():
    g = generate("prism", 6)
    res = pipeline(g)
    assert 0 < res.small_rounds < res.engine.round
    assert res.battery_rounds == res.engine.round - res.small_rounds


def test_case_labels_deduplicate_in_rank_order():
    # prism's waist is simultaneously a case-6 arrangement from every
    # rooting; the stars are case 1.  No cut may appear twice.
    res = pipeline(generate("prism", 6))
    edges = [r.edges for r in res.reports]
    assert len(edges) == len(set(edges))
    assert all(r.case in {CASE1, CASE2, CASE3, CASE4, CASE5, CASE6, CASE7}
               for r in res.reports)


# -- layered scan internals -------------------------------------------------

def staying(state, a, u):
    return state.eta[a] - state.subtree_cross[a][u]


def test_one_cut_details_are_pivot_bridges():
    for g in (FORK_BRIDGES, generate("prism", 6), generate("random_connected", 10, seed=3)):
        info, state, (bridges, _) = battery_stage(g)
        tree = info.tree()
        for d in bridges:
            if d is None:
                continue
            pivot = info[d.node].ancestors[d.pivot_level]
            sub = PivotedSubgraph.build(g, tree, pivot)
            inside = set(tree.desc(d.node))
            crossing = [
                e for e in sub.graph.edges
                if (sub.nodes[e[0]] in inside) != (sub.nodes[e[1]] in inside)
            ]
            assert len(crossing) == 1, (d, g.edges)
            assert staying(state, d.node, pivot) == 1
            assert d.eta == state.eta[d.node]
            assert d.eta - 1 == state.subtree_cross[d.node][pivot]


def test_two_cut_details_are_pivot_pair_cuts():
    for g in (FORK_PAIRED, SHADOWED_FORK, generate("random_connected", 10, seed=5)):
        info, state, (_, pairs) = battery_stage(g)
        tree = info.tree()
        for d in pairs:
            if d is None:
                continue
            sub = PivotedSubgraph.build(g, tree, info[d.node1].ancestors[d.pivot_level])
            side = tree.desc(d.node1) | tree.desc(d.node2)
            crossing = [
                e for e in sub.graph.edges
                if (sub.nodes[e[0]] in side) != (sub.nodes[e[1]] in side)
            ]
            assert len(crossing) == 2, (d, g.edges)
            between = sum(
                1 for a, b in g.edges
                if (a in tree.desc(d.node1)) != (b in tree.desc(d.node1))
                and (a in tree.desc(d.node2)) != (b in tree.desc(d.node2))
                and ((a in tree.desc(d.node1)) or (a in tree.desc(d.node2)))
                and ((b in tree.desc(d.node1)) or (b in tree.desc(d.node2)))
            )
            assert d.between == between


def test_bridge_records_keep_the_shallowest_pivot():
    g = FORK_BRIDGES
    info, state, (bridges, _) = battery_stage(g)
    assert bridges[info.root] is None
    for a in range(g.n):
        if a == info.root:
            continue
        levels = [
            lvl
            for lvl, u in enumerate(info[a].ancestors[:-1])
            if staying(state, a, u) == 1
        ]
        if not levels:
            assert bridges[a] is None
            continue
        assert bridges[a].node == a
        assert bridges[a].pivot_level == levels[0]
    assert bridges[3] is not None and bridges[4] is not None  # the fork's prongs


def test_convergecast_delivers_fork_prongs():
    g = FORK_BRIDGES
    engine = Engine(g, SimulatorConfig(strict_bandwidth=True))
    info = build_bfs(engine, 0)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    etas = preprocess_zeta(engine, info, state)
    zeta = compute_zeta(engine, info, state, etas)
    hcast = downcast_h(engine, info, state)
    two = layered_min_cut(engine, info, state, etas, hcast, zeta)
    bridges, pairs = compute_cut_details(info, state, two)
    assert bridges[3] is not None and bridges[4] is not None
    received = convergecast_details(engine, info, bridges, pairs)
    got = {d.node for _, d in received.one[1]}
    assert {3, 4} <= got
    reports = detect_case5(g, state, etas, received)
    assert ((0, 1), (1, 3), (1, 4)) in {r.edges for r in reports}


# -- landing algebra --------------------------------------------------------

cands = st.builds(
    LayerCand,
    tag=st.just(TAG_CANDIDATE),
    w=st.integers(0, 5),
    stay=st.integers(0, 4),
    eta=st.integers(0, 4),
    gamma=st.integers(1, 3),
)
elements = st.one_of(st.just(LAYER_IDENTITY), st.just(LAYER_ABSORBING), cands)


@given(elements, elements)
def test_layer_combine_commutes(a, b):
    assert landing_combine(a, b) == landing_combine(b, a)


@settings(max_examples=300)
@given(elements, elements, elements)
def test_layer_combine_associates(a, b, c):
    assert landing_combine(landing_combine(a, b), c) == landing_combine(a, landing_combine(b, c))


@given(elements)
def test_layer_combine_identity_and_absorption(z):
    assert landing_combine(LAYER_IDENTITY, z) == z
    assert landing_combine(LAYER_ABSORBING, z) == LAYER_ABSORBING


@given(cands, cands)
def test_layer_combine_merges_only_exact_matches(a, b):
    out = landing_combine(a, b)
    if a[:-1] == b[:-1]:
        assert out == a._replace(gamma=a.gamma + b.gamma)
    else:
        assert out == LAYER_ABSORBING


# -- pivoted subgraph helper ------------------------------------------------

def test_pivoted_subgraph_shapes():
    g = generate("prism", 6)
    engine = Engine(g, SimulatorConfig())
    info = build_bfs(engine, 0)
    tree = info.tree()
    whole = PivotedSubgraph.build(g, tree, 0)
    assert whole.graph is g
    for v in range(1, g.n):
        sub = PivotedSubgraph.build(g, tree, v)
        inside = tree.desc(v)
        assert set(sub.nodes) == inside | {tree.parent[v]}
        # parent vertex appears with exactly its tree edge
        pa = sub.to_local[tree.parent[v]]
        assert sum(1 for e in sub.graph.edges if pa in e) == 1
