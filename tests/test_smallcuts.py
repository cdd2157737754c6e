"""Size-1 and size-2 cut detection, checked against centralized references."""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from smallcut.graphs import (
    Graph,
    RootedTree,
    boundary,
    generate,
    min_cut_oracle,
    non_tree_eids,
)
from smallcut.runtime import Engine, SimulatorConfig, measure_diameter
from smallcut.small_cuts import (
    CASE_DISJOINT,
    CASE_NESTED,
    CASE_ONE_RESPECT,
    LAYER_ABSORBING,
    LAYER_IDENTITY,
    TAG_ABSORBING,
    TAG_CANDIDATE,
    LayerCand,
    compute_eta,
    compute_zeta,
    detect_1cuts,
    detect_2cuts,
    landing_combine,
    preprocess_eta,
    preprocess_zeta,
)
from smallcut.three_cuts import run_full_pipeline
from smallcut.trees import build_bfs, shared_prefix

THETA = Graph(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])


def start(g, root=0):
    engine = Engine(g, SimulatorConfig(strict_bandwidth=True))
    return engine, build_bfs(engine, root)


def stage(g, root=0):
    """The size-1/2 stage in pipeline order: pairs only when no bridge."""
    engine, info = start(g, root)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    zeta, reports = None, detect_1cuts(state)
    lam = 1 if reports else None
    if not reports:
        etas = preprocess_zeta(engine, info, state)
        zeta = compute_zeta(engine, info, state, etas)
        reports = detect_2cuts(g, state, etas, zeta)
        lam = 2 if reports else None
    return engine, SimpleNamespace(lambda_detected=lam, reports=tuple(reports), zeta=zeta)


def report_edge_sets(g, reports):
    return {frozenset(g.eid(u, v) for u, v in r.edges) for r in reports}


# -- centralized references -------------------------------------------------

def crossing_ref(g, tree, a, v):
    desc_v = tree.desc(v)
    return sum(1 for b in g.adj[a] if b not in desc_v)


def subtree_crossing_ref(g, tree, a, v):
    desc_v = tree.desc(v)
    return sum(1 for x in tree.desc(a) for b in g.adj[x] if b not in desc_v)


def zeta_ref(g, tree, members, v):
    """Direct evaluation of the three-valued landing function."""
    lv = tree.level[v]
    members = set(members)
    desc_v = tree.desc(v)
    target = None
    count = 0
    for eid in non_tree_eids(g, tree):
        x, y = g.edges[eid]
        for p, q in ((x, y), (y, x)):
            if p not in members or q in desc_v:
                continue
            if tree.level[q] < lv:
                return LAYER_ABSORBING
            w = tree.ancestors(q)[lv]
            if target is None:
                target, count = w, 1
            elif target == w:
                count += 1
            else:
                return LAYER_ABSORBING
    if target is None:
        return LAYER_IDENTITY
    eta_w = len(boundary(g, tree.desc(target)))
    return cand(target, eta_w, count)


def cand(w, eta, gamma):
    """A root-pivot candidate: the partner's boundary stays whole."""
    return LayerCand(TAG_CANDIDATE, w, eta, eta, gamma)


# -- crossing tables and eta ------------------------------------------------

def test_crossing_table_examples():
    g = generate("cycle", 4)
    engine, info = start(g)
    pre = preprocess_eta(engine, info)
    assert pre[2][1] == 1  # only neighbour 3 lies outside desc(1)
    assert pre[2][2] == 2
    # the BFS cast delivered the one non-tree neighbour's root path, so
    # counting runs no phase
    assert info[2].paths == {g.eid(2, 3): (0, 3)}
    assert set(engine.stats.per_phase) == {"bfs"}

    star = Graph(6, [(0, i) for i in range(1, 6)])
    engine, info = start(star)
    pre = preprocess_eta(engine, info)
    for leaf in range(1, 6):
        assert pre[leaf][0] == 0
        assert pre[leaf][leaf] == 1
    assert set(engine.stats.per_phase) == {"bfs"}

    p4 = generate("path", 4)
    engine, info = start(p4)
    pre = preprocess_eta(engine, info)
    for a in range(1, 4):
        assert pre[a][a] >= 1
        for v in info[a].ancestors[:-1]:
            assert pre[a][v] == 0
    assert set(engine.stats.per_phase) == {"bfs"}


def test_eta_values_on_fixed_graphs():
    for g, expected in [
        (generate("path", 4), (0, 1, 1, 1)),
        (generate("cycle", 4), (0, 2, 2, 2)),
        (generate("complete", 4), (0, 3, 3, 3)),
    ]:
        engine, info = start(g)
        state = compute_eta(engine, info, preprocess_eta(engine, info))
        assert state.eta == expected


def test_eta_fold_sends_one_word_per_record():
    # A level-l node sends l records, one per ancestor level below its
    # own, in level order; each is the count alone, with no level word.
    for g, root in ((generate("grid", 16), 5), (generate("random_connected", 14, seed=2), 3)):
        engine, info = start(g, root)
        compute_eta(engine, info, preprocess_eta(engine, info))
        records = sum(info[v].level for v in range(g.n))
        assert engine.stats.per_phase["trsf:eta"].words == records


def test_eta_cast_sends_the_cast_plus_each_unshared_chain():
    # One broadcast1 phase casts every eta down its subtree (a node hears
    # one word per proper ancestor) and across each non-tree edge; both
    # ends hold the etas of the root-path prefix they share, so only the
    # rest of each chain crosses.  A node ends up with one eta per owner:
    # its ancestors and its neighbours' chains.
    for g, root in ((generate("grid", 16), 0), (generate("prism", 12), 0),
                    (generate("random_connected", 14, seed=11, lam_min=3, lam_max=3), 2)):
        engine, info = start(g, root)
        state = compute_eta(engine, info, preprocess_eta(engine, info))
        etas = preprocess_zeta(engine, info, state)
        cast = sum(nb.level for nb in info.nodes)
        heard = 0
        for a in range(g.n):
            owners = set(info[a].ancestors)
            for path in state.paths[a].values():
                heard += len(path) - shared_prefix(info[a].ancestors, path)
                owners.update(path)
            assert etas[a] == {u: state.eta[u] for u in owners}
        assert heard > 0
        assert engine.stats.per_phase["broadcast1"].words == cast + heard


def test_bridge_run_casts_no_etas():
    # A run that stops at a bridge needs no eta beyond the observer's.
    for g in (generate("path", 5), generate("barbell", 10)):
        res = run_full_pipeline(g, root=0, config=SimulatorConfig(strict_bandwidth=True))
        assert res.lambda_detected == 1
        assert set(res.engine.stats.per_phase) == {"bfs", "trsf:eta"}


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(0, 9))
def test_eta_tables_match_centralized(seed, root_pick):
    g = generate("random_connected", 10, seed=seed, p=0.35)
    root = root_pick % g.n
    engine, info = start(g, root)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    etas = preprocess_zeta(engine, info, state)
    ref = RootedTree.bfs(g, root)
    for a in range(g.n):
        assert state.paths[a] is info[a].paths
        assert state.eta[a] == len(boundary(g, ref.desc(a)))
        for v in ref.ancestors(a):
            assert state.own_cross[a][v] == crossing_ref(g, ref, a, v)
            assert state.subtree_cross[a][v] == subtree_crossing_ref(g, ref, a, v)
            assert etas[a][v] == state.eta[v]


def test_bridge_reports():
    engine, info = start(generate("path", 4))
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    reports = detect_1cuts(state)
    assert [r.edges for r in reports] == [((0, 1),), ((1, 2),), ((2, 3),)]
    assert all(r.case == CASE_ONE_RESPECT and r.size == 1 for r in reports)

    engine, info = start(generate("cycle", 5))
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    assert detect_1cuts(state) == []

    barbell = generate("barbell", 6)
    engine, result = stage(barbell)
    oracle = min_cut_oracle(barbell)
    assert oracle.lam == 1 and result.lambda_detected == 1
    assert report_edge_sets(barbell, result.reports) == set(oracle.min_cuts)
    assert result.reports[0].edges == ((2, 3),)


# -- the fold algebra -------------------------------------------------------

def test_combine_frozen_cases():
    z = cand(3, 2, 1)
    assert landing_combine(LAYER_IDENTITY, z) == z
    assert landing_combine(z, LAYER_IDENTITY) == z
    assert landing_combine(LAYER_ABSORBING, z) == LAYER_ABSORBING
    assert landing_combine(z, cand(3, 2, 2)) == cand(3, 2, 3)
    assert landing_combine(z, cand(4, 2, 1)) == LAYER_ABSORBING


zeta_elements = st.one_of(
    st.just(LAYER_IDENTITY),
    st.just(LAYER_ABSORBING),
    st.builds(cand, w=st.integers(1, 3), eta=st.integers(2, 4), gamma=st.integers(1, 2)),
)


@given(zeta_elements, zeta_elements, zeta_elements)
def test_combine_is_commutative_and_associative(a, b, c):
    assert landing_combine(a, b) == landing_combine(b, a)
    assert landing_combine(landing_combine(a, b), c) == landing_combine(a, landing_combine(b, c))


def test_fold_atoms_on_fixed_graphs():
    g = generate("cycle", 4)
    engine, info = start(g)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    tables = compute_zeta(engine, info, state, preprocess_zeta(engine, info, state))
    assert tables[2][1] == cand(3, 2, 1)  # leaf: fold == atom
    assert tables[2][0] == LAYER_IDENTITY

    p4 = generate("path", 4)
    engine, info = start(p4)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    tables = compute_zeta(engine, info, state, preprocess_zeta(engine, info, state))
    assert all(z == LAYER_IDENTITY for t in tables for z in t.values())

    k4 = generate("complete", 4)
    engine, info = start(k4)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    tables = compute_zeta(engine, info, state, preprocess_zeta(engine, info, state))
    assert tables[1][1].tag == TAG_ABSORBING


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(0, 9))
def test_fold_matches_centralized_property(seed, root_pick):
    g = generate("random_connected", 10, seed=seed, p=0.35)
    root = root_pick % g.n
    engine, info = start(g, root)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    tables = compute_zeta(engine, info, state, preprocess_zeta(engine, info, state))
    ref = RootedTree.bfs(g, root)
    for a in range(g.n):
        for v in ref.ancestors(a):
            direct = zeta_ref(g, ref, ref.desc(a), v)
            folded = LAYER_IDENTITY
            for x in sorted(ref.desc(a)):
                folded = landing_combine(folded, zeta_ref(g, ref, {x}, v))
            assert tables[a][v] == direct == folded


# -- two-cut detection ------------------------------------------------------

def test_square_reports_all_six_pairs():
    g = generate("cycle", 4)
    engine, info = start(g)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    etas = preprocess_zeta(engine, info, state)
    zeta = compute_zeta(engine, info, state, etas)
    reports = detect_2cuts(g, state, etas, zeta)
    assert len(reports) == 6
    cases = sorted(r.case for r in reports)
    assert cases.count(CASE_ONE_RESPECT) == 3
    assert cases.count(CASE_NESTED) == 1
    assert cases.count(CASE_DISJOINT) == 2
    oracle = min_cut_oracle(g)
    assert report_edge_sets(g, reports) == set(oracle.min_cuts)


def test_theta_graph_stage():
    oracle = min_cut_oracle(THETA)
    assert oracle.lam == 2 and len(oracle.min_cuts) == 3
    for root in range(THETA.n):
        engine, result = stage(THETA, root)
        assert result.lambda_detected == 2
        assert report_edge_sets(THETA, result.reports) == set(oracle.min_cuts)


def test_bridge_gates_pair_reports():
    p4 = generate("path", 4)
    engine, result = stage(p4)
    assert result.lambda_detected == 1
    assert len(result.reports) == 3
    assert result.zeta is None  # stopped early

    # The pair detector itself still sees every induced two-edge cut.
    engine, info = start(p4)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    etas = preprocess_zeta(engine, info, state)
    zeta = compute_zeta(engine, info, state, etas)
    induced_pairs = detect_2cuts(p4, state, etas, zeta)
    assert {r.edges for r in induced_pairs} == {
        ((0, 1), (1, 2)),
        ((1, 2), (2, 3)),
        ((0, 1), (2, 3)),  # boundary of the middle segment {1, 2}
    }


def test_triconnected_graph_reports_nothing():
    for g in (generate("complete", 4), generate("prism", 6)):
        engine, result = stage(g)
        assert result.lambda_detected is None
        assert result.reports == ()


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000), st.integers(0, 9))
def test_stage_matches_oracle_on_sparse_graphs(seed, root_pick):
    g = generate("random_connected", 9, seed=seed, p=0.3)
    oracle = min_cut_oracle(g)
    engine, result = stage(g, root_pick % g.n)
    if oracle.lam > 2:
        assert result.lambda_detected is None
        assert result.reports == ()
    else:
        assert result.lambda_detected == oracle.lam
        assert report_edge_sets(g, result.reports) == set(oracle.min_cuts)


def test_round_cost_stays_linear_in_diameter():
    for g in (generate("cycle", 32), generate("grid", 25)):
        engine, result = stage(g)
        d = measure_diameter(g)
        assert engine.stats.rounds_elapsed <= 20 * d + 30
        assert engine.stats.max_bits_per_edge_per_round <= 2 * engine.word_size
