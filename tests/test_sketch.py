"""Canonical trees, branching numbers, and truncated subtree sketches."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallcut.graphs import Graph, RootedTree, boundary, generate
from smallcut.runtime import Engine, SimulatorConfig, word_size_bits
from smallcut.sketches import (
    ENTRY_WORDS,
    SIZE_BOUND_FACTOR,
    SketchSource,
    branching_number,
    branching_numbers,
    build_canonical,
    distributed_k_sketch,
    distributed_reduced_sketch,
    encode_entries,
    first_branch_node,
    reference_k_sketch,
)
from smallcut.small_cuts import compute_eta, preprocess_eta, preprocess_zeta
from smallcut import three_cuts
from smallcut.three_cuts import downcast_h, sketch_exchange
from smallcut.trees import build_bfs, shared_prefix, swap_cutoffs

C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K4 = generate("complete", n=4)
PRISM = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
GRID9 = generate("grid", n=9)


def sketch_stage(g, root=0):
    """Engine plus everything the sketch waves consume, strict bandwidth on."""
    engine = Engine(g, SimulatorConfig(strict_bandwidth=True))
    info = build_bfs(engine, root)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    etas = preprocess_zeta(engine, info, state)
    return engine, info, state, etas


def corpus():
    yield "path7", generate("path", n=7), (0, 3, 6)
    yield "cycle8", generate("cycle", n=8), (0, 5)
    yield "grid9", GRID9, (0, 4, 8)
    yield "k4", K4, (0, 2)
    yield "k5", generate("complete", n=5), (0,)
    yield "prism", PRISM, (0, 4)
    yield "barbell8", generate("barbell", n=8), (0, 7)
    for seed in (0, 1, 2):
        yield f"rand{seed}", generate("random_connected", n=10, seed=seed), (0, 5)


# -- sources and canonical trees --------------------------------------------

def test_source_members():
    t = RootedTree.bfs(C4, 0)
    assert SketchSource(1).members(t) == frozenset({1, 2})
    assert SketchSource(0, exclude=1).members(t) == frozenset({0, 3})


def test_source_rejects_bad_exclusions():
    t = RootedTree.bfs(C4, 0)
    with pytest.raises(ValueError):
        SketchSource(1, exclude=3).members(t)  # 3 is not below 1
    with pytest.raises(ValueError):
        SketchSource(1, exclude=1).members(t)


def test_canonical_without_witnesses_is_the_root_path():
    g = generate("path", n=4)
    t = RootedTree.bfs(g, 0)
    assert build_canonical(t, g, SketchSource(0)).nodes == frozenset({0})
    assert build_canonical(t, g, SketchSource(2)).nodes == frozenset({0, 1, 2})


def test_canonical_c4():
    # desc(1) = {1, 2}; the lone non-tree edge (2, 3) pulls in rho(3).
    t = RootedTree.bfs(C4, 0)
    ct = build_canonical(t, C4, SketchSource(1))
    assert ct.nodes == frozenset({0, 1, 3})
    assert ct.parent[3] == 0 and ct.parent[1] == 0 and ct.parent[0] is None
    assert ct.children() == {0: [1, 3], 1: [], 3: []}


def test_canonical_k4_covers_all_witness_paths():
    t = RootedTree.bfs(K4, 0)  # star around 0
    ct = build_canonical(t, K4, SketchSource(1))
    assert ct.nodes == frozenset({0, 1, 2, 3})


# -- branching numbers -------------------------------------------------------

def test_branching_bare_path_defaults_to_the_root():
    g = generate("path", n=4)
    t = RootedTree.bfs(g, 0)
    ct = build_canonical(t, g, SketchSource(3))  # rho(3) = the whole path
    assert first_branch_node(ct) == 0
    assert branching_numbers(ct) == {0: 2, 1: 1, 2: 1, 3: 1}


def test_branching_star():
    t = RootedTree.bfs(K4, 0)
    ct = build_canonical(t, K4, SketchSource(1))
    assert first_branch_node(ct) == 0
    assert branching_numbers(ct) == {0: 2, 1: 3, 2: 3, 3: 3}
    assert branching_number(ct, 2) == 3


def test_branching_above_the_first_branch_is_one():
    g = Graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
    t = RootedTree.bfs(g, 0)
    ct = build_canonical(t, g, SketchSource(2))
    assert first_branch_node(ct) == 1
    assert branching_numbers(ct) == {0: 1, 1: 1, 2: 2, 3: 2}


def test_branching_compounds_past_nested_branches():
    # 0 -> {1, 2}, 1 -> {3, 4}, 3 -> {5}: every extra sibling raises the
    # numbers of everything below it.
    from smallcut.sketches import CanonicalTree

    parent = {0: None, 1: 0, 2: 0, 3: 1, 4: 1, 5: 3}
    level = {0: 0, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3}
    ct = CanonicalTree(
        root=0,
        source=SketchSource(0),
        nodes=frozenset(parent),
        parent=parent,
        level=level,
    )
    assert first_branch_node(ct) == 0
    assert branching_numbers(ct) == {0: 2, 1: 2, 2: 2, 3: 3, 4: 3, 5: 3}


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(4, 10),
    root=st.integers(0, 9),
)
def test_branching_grows_toward_wider_sources(seed, n, root):
    """Shared non-root nodes never lose branching number when the source
    widens from a child subtree to its parent's; roots stay at most 2."""
    g = generate("random_connected", n=n, seed=seed)
    t = RootedTree.bfs(g, root % n)
    xi = {}
    for v in range(n):
        ct = build_canonical(t, g, SketchSource(v))
        xi[v] = branching_numbers(ct)
        assert xi[v][t.root] <= 2
    for v in range(n):
        p = t.parent[v]
        if p is None:
            continue
        for u in xi[v].keys() & xi[p].keys():
            if u != t.root:
                assert xi[p][u] >= xi[v][u]


# -- reference sketches ------------------------------------------------------

def test_reference_rejects_nonpositive_budget():
    t = RootedTree.bfs(C4, 0)
    with pytest.raises(ValueError):
        reference_k_sketch(t, C4, 1, 0)


def test_reference_c4_frozen():
    t = RootedTree.bfs(C4, 0)
    sk = reference_k_sketch(t, C4, 1, 3)
    assert sk.dump() == "0 -1 0 0 2\n1 0 2 2 2\n3 0 2 1 2"
    assert sk.nodes == (0, 1, 3)
    assert encode_entries(sk.meta, 4) == (0, 4, 0, 0, 1, 0, 2, 2, 3, 0, 2, 1)
    assert sk.bit_size(4) == 12 * word_size_bits(4)
    assert not sk.self_witnessed


def test_reference_self_witness():
    t = RootedTree.bfs(C4, 0)
    assert reference_k_sketch(t, C4, 0, 3).self_witnessed
    g = generate("path", n=4)
    tp = RootedTree.bfs(g, 0)
    assert not reference_k_sketch(tp, g, 1, 3).self_witnessed


def test_reference_truncates_an_overwide_subtree():
    # Rooted at 0, K4's sketch of the whole graph branches three ways right
    # below the root; budget 2 erases the interior, budget 3 keeps it.
    t = RootedTree.bfs(K4, 0)
    assert set(reference_k_sketch(t, K4, 0, 2).meta) == {0}
    assert set(reference_k_sketch(t, K4, 0, 3).meta) == {0, 1, 2, 3}


def test_reference_keeps_high_branching_outside_the_subtree():
    # From a leaf of K4 the three-way branch sits outside desc(v), where
    # the budget has no authority: everything survives even at k = 2.
    t = RootedTree.bfs(K4, 0)
    assert set(reference_k_sketch(t, K4, 1, 2).meta) == {0, 1, 2, 3}


def test_reference_big_budget_keeps_the_canonical_tree():
    g = generate("complete", n=5)
    t = RootedTree.bfs(g, 0)
    ct = build_canonical(t, g, SketchSource(2))
    sk = reference_k_sketch(t, g, 2, 10)
    assert set(sk.meta) == set(ct.nodes)


def test_reference_eta_is_the_subtree_boundary():
    t = RootedTree.bfs(GRID9, 0)
    sk = reference_k_sketch(t, GRID9, 1, 3)
    for u, m in sk.meta.items():
        assert m.eta == len(boundary(GRID9, t.desc(u)))


def test_reference_gamma_categories():
    t = RootedTree.bfs(GRID9, 0)
    sk = reference_k_sketch(t, GRID9, 1, 3)
    desc1 = t.desc(1)
    for u, m in sk.meta.items():
        if u in (0, 1):
            continue  # spine: one-sided crossing count
        if u in desc1:
            assert m.gamma == 0  # strictly interior: recorded as zero
        else:
            desc_u = t.desc(u)
            assert m.gamma == sum(
                1
                for a, b in GRID9.edges
                if (a in desc1 and b in desc_u) or (b in desc1 and a in desc_u)
            )


def test_reference_respects_the_node_budget():
    for _name, g, roots in corpus():
        for root in roots:
            t = RootedTree.bfs(g, root)
            depth = max(t.depth, 1)
            for k in (2, 3):
                for v in range(g.n):
                    sk = reference_k_sketch(t, g, v, k)
                    assert len(sk.meta) <= SIZE_BOUND_FACTOR * 2**k * depth
                    assert sk.bit_size(g.n) <= (
                        4 * SIZE_BOUND_FACTOR * 2**k * depth * word_size_bits(g.n)
                    )


# -- distributed wave vs reference -------------------------------------------

def assert_same_sketch(got, want, ctx):
    assert got.owner == want.owner and got.k == want.k, ctx
    assert got.meta == want.meta, f"{ctx}\ngot:\n{got.dump()}\nwant:\n{want.dump()}"
    assert got.self_witnessed == want.self_witnessed, ctx


def test_distributed_matches_reference_everywhere():
    for name, g, roots in corpus():
        for root in roots:
            engine, info, state, etas = sketch_stage(g, root)
            tree = info.tree()
            for k in (2, 3):
                up = distributed_k_sketch(engine, info, state, k, etas)
                for v in range(g.n):
                    want = reference_k_sketch(tree, g, v, k)
                    assert_same_sketch(
                        up.sketches[v], want, f"{name} root={root} k={k} v={v}"
                    )


def test_distributed_survives_a_branch_buried_past_the_budget():
    # A long trunk ending in a triangle fan: at k=2 the fan's branching
    # numbers exceed the budget, so upstream wires degenerate to a bare
    # path and only the advertised branch evidence tells the trunk nodes
    # that their canonical root is not a path endpoint.
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6), (4, 5), (5, 6), (4, 6)])
    engine, info, state, etas = sketch_stage(g, 0)
    tree = info.tree()
    up = distributed_k_sketch(engine, info, state, 2, etas)
    for v in range(g.n):
        want = reference_k_sketch(tree, g, v, 2)
        assert_same_sketch(up.sketches[v], want, f"buried-branch v={v}")
    assert up.sketches[1].meta[0].xi == 1
    assert list(up.sketches[2].nodes) == [0, 1, 2, 3]


def test_reduced_matches_reference_for_every_pair():
    for name, g, roots in corpus():
        for root in roots[:2]:
            engine, info, state, etas = sketch_stage(g, root)
            tree = info.tree()
            red = distributed_reduced_sketch(engine, info, state, 2, etas)
            for x in range(g.n):
                anc = info[x].ancestors
                assert set(red.per_node[x]) == set(anc[1:-1])
                for v, got in red.per_node[x].items():
                    want = reference_k_sketch(
                        tree, g, SketchSource(v, exclude=x), 2
                    )
                    assert_same_sketch(got, want, f"{name} root={root} v={v} x={x}")


def test_reduced_at_k3_matches_too():
    engine, info, state, etas = sketch_stage(GRID9, 0)
    tree = info.tree()
    red = distributed_reduced_sketch(engine, info, state, 3, etas)
    for x in range(GRID9.n):
        for v, got in red.per_node[x].items():
            want = reference_k_sketch(tree, GRID9, SketchSource(v, exclude=x), 3)
            assert_same_sketch(got, want, f"grid9 v={v} x={x} k=3")


def reduced_reuse_corpus():
    for family, sizes in (("cycle", (12, 36)), ("grid", (16, 36)), ("prism", (12, 36))):
        for n in sizes:
            yield f"{family}{n}", generate(family, n=n), (0, n // 3, n - 1)
    for seed in range(10):
        g = generate("random_connected", n=16, seed=seed, lam_min=3, lam_max=3)
        yield f"random16_l3_s{seed}", g, (seed,)
    # A depth-32 leaf pools 31 strata; on the random λ=3 graph most
    # reduced sketches are self-witnessed.
    yield "cycle64", generate("cycle", n=64), (0,)
    yield "random40_l3_s5", generate("random_connected", n=40, seed=5, lam_min=3, lam_max=3), (0,)


def test_reduced_from_the_k3_wave_matches_reference():
    for name, g, roots in reduced_reuse_corpus():
        for root in roots:
            engine, info, state, etas = sketch_stage(g, root)
            tree = info.tree()
            up = distributed_k_sketch(engine, info, state, 3, etas)
            for k in (2, 3):
                red = distributed_reduced_sketch(engine, info, state, k, etas, up=up)
                for x in range(g.n):
                    assert set(red.per_node[x]) == set(info[x].ancestors[1:-1])
                    for v, got in red.per_node[x].items():
                        want = reference_k_sketch(tree, g, SketchSource(v, exclude=x), k)
                        assert_same_sketch(got, want, f"{name} root={root} k={k} v={v} x={x}")
            assert "sketch2" not in engine.stats.per_phase


def test_reduced_refuses_a_narrower_wave():
    engine, info, state, etas = sketch_stage(GRID9, 0)
    up = distributed_k_sketch(engine, info, state, 2, etas)
    with pytest.raises(ValueError, match="k=2"):
        distributed_reduced_sketch(engine, info, state, 3, etas, up=up)


def test_reduced_on_a_star_has_nothing_to_say():
    g = generate("complete", n=5)
    engine, info, state, etas = sketch_stage(g, 0)
    red = distributed_reduced_sketch(engine, info, state, 2, etas)
    assert all(not d for d in red.per_node)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), n=st.integers(4, 9), root=st.integers(0, 8))
def test_distributed_matches_reference_on_random_graphs(seed, n, root):
    g = generate("random_connected", n=n, seed=seed)
    engine, info, state, etas = sketch_stage(g, root % n)
    tree = info.tree()
    up = distributed_k_sketch(engine, info, state, 3, etas)
    for v in range(n):
        want = reference_k_sketch(tree, g, v, 3)
        assert_same_sketch(up.sketches[v], want, f"seed={seed} root={root % n} v={v}")


def test_waves_are_deterministic():
    dumps = []
    for _ in range(2):
        engine, info, state, etas = sketch_stage(PRISM, 0)
        up = distributed_k_sketch(engine, info, state, 3, etas)
        red = distributed_reduced_sketch(engine, info, state, 2, etas)
        dumps.append(
            (
                tuple(sk.dump() for sk in up.sketches),
                tuple(
                    (x, v, sk.dump())
                    for x, d in enumerate(red.per_node)
                    for v, sk in sorted(d.items())
                ),
            )
        )
    assert dumps[0] == dumps[1]


# -- sketch exchange ----------------------------------------------------------

@pytest.mark.parametrize(
    "g,roots",
    [
        (generate("grid", n=16), (0, 5, 15)),
        (generate("prism", n=12), (0, 7)),
        (generate("random_connected", n=14, seed=11, lam_min=3, lam_max=3), (0, 2, 9)),
        (generate("cycle", n=16), (0,)),
        (generate("random_connected", n=40, seed=5, lam_min=3, lam_max=3), (0, 20)),
    ],
    ids=["grid16", "prism12", "random14_l3", "cycle16", "random40_l3"],
)
def test_sketch_exchange_delivers_every_ancestor_chain(g, roots):
    for root in roots:
        engine, info, state, etas = sketch_stage(g, root)
        up = distributed_k_sketch(engine, info, state, 3, etas)
        held = sketch_exchange(engine, info, up, state.paths)

        def chain_of(y):
            # The wire carries every entry but the branching number.
            return {
                a: {u: m._replace(xi=None) for u, m in up.sketches[a].meta.items()}
                for a in info[y].ancestors
            }

        for x in range(g.n):
            nb = info[x]
            tree_eids = {eid for _, eid in nb.children} | {nb.parent_eid}
            nontree = {eid for _, eid in g.inc[x] if eid not in tree_eids}
            want = chain_of(x)
            for eid in nontree:
                want.update(chain_of(engine.handles[x].neighbor(eid)))
            # one entry per owner: its own chain and every non-tree neighbour's
            assert held[x] == want, f"root={root} x={x}"


@pytest.mark.parametrize("g", [generate("cycle", n=64), generate("grid", n=16)],
                         ids=["cycle64", "grid16"])
def test_sketch_exchange_decodes_each_block_once(g, monkeypatch):
    # Every node's block reaches its subtree and its neighbours across
    # non-tree edges; its holders share one decoding (2,175 decodes for
    # the 64 blocks on cycle64 when each holder decoded its own).
    engine, info, state, etas = sketch_stage(g)
    up = distributed_k_sketch(engine, info, state, 3, etas)
    decoded = []
    decode = three_cuts.decode_entries

    def counting(words, n):
        decoded.append(tuple(words))
        return decode(words, n)

    monkeypatch.setattr(three_cuts, "decode_entries", counting)
    held = sketch_exchange(engine, info, up, state.paths)
    assert len(decoded) == len(set(decoded)) == g.n
    for x in range(g.n):
        for a, entries in held[x].items():
            assert entries is held[a][a]


def _sketch_cast(g, root, named):
    """The sketch cast's words per directed edge ``(sender, edge id)``,
    what it left at each node, and the receivers' cutoffs; with
    ``named``, each receiver's cutoffs ride hcast first."""
    engine, info, state, etas = sketch_stage(g, root)
    up = distributed_k_sketch(engine, info, state, 3, etas)
    _, cutoffs = engine.run_chain(downcast_h(engine, info, state))
    words: dict[tuple[int, int], int] = {}
    send = engine._send

    def tally(handle, e, ws):
        words[handle.id, e] = words.get((handle.id, e), 0) + len(ws)
        send(handle, e, ws)

    engine._send = tally
    held = sketch_exchange(engine, info, up, state.paths, cutoffs if named else None)
    mine = [swap_cutoffs(nb.ancestors, paths) for nb, paths in zip(info.nodes, state.paths)]
    return engine, info, state, up, words, held, mine


@pytest.mark.parametrize("g", [
    generate("random_connected", n=14, seed=11, lam_min=3, lam_max=3),
    generate("random_connected", n=40, seed=5, lam_min=3, lam_max=3),
    generate("random_connected", n=40, seed=7, lam_min=3, lam_max=3),
], ids=["random14_l3", "random40_l3_s5", "random40_l3_s7"])
def test_sketch_cast_brings_each_owner_to_a_node_once(g):
    repeats = 0
    for root in (0, g.n // 2):
        engine, info, state, up, words, held, mine = _sketch_cast(g, root, True)
        *_, shared_held, _ = _sketch_cast(g, root, False)
        assert held == shared_held, root  # what case 6 reads does not move
        for x, nb in enumerate(info.nodes):
            owners = list(nb.ancestors)
            shared = list(nb.ancestors)
            for eid, path in state.paths[x].items():
                y = engine.handles[x].neighbor(eid)
                first = mine[x][eid]
                # the sender sends exactly the suffix its receiver named
                assert words.get((y, eid), 0) == sum(
                    1 + ENTRY_WORDS * len(up.sketches[a].meta) for a in path[first:])
                owners += path[first:]
                shared += path[shared_prefix(nb.ancestors, path):]
            assert len(owners) == len(set(owners)), (root, x)
            repeats += len(shared) - len(set(shared))
    assert repeats > 0  # the shared-prefix swap repeats some blocks here


def test_sketch_cast_sends_a_shared_off_path_ancestor_once():
    # Node 5 (root path 0, 2, 5) has non-tree neighbours 3 and 4, both
    # under node 1, which is off 5's root path.  The shared-prefix swap
    # sends 1's block on both edges; the named cutoffs take it from 3
    # alone, and nothing else moves.
    g = Graph(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)])
    engine, info, state, up, words, held, mine = _sketch_cast(g, 0, True)
    shared_engine, *_, shared_held, _ = _sketch_cast(g, 0, False)
    assert info[5].ancestors == (0, 2, 5)
    assert info[3].ancestors == (0, 1, 3) and info[4].ancestors == (0, 1, 4)
    assert mine[5] == {g.eid(3, 5): 1, g.eid(4, 5): 2}
    assert held == shared_held
    block = 1 + ENTRY_WORDS * len(up.sketches[1].meta)
    got, want = (e.stats.per_phase["sketchcast"] for e in (engine, shared_engine))
    assert want.words - got.words == block
    assert got.rounds <= want.rounds


# -- complexity ---------------------------------------------------------------

def test_round_growth_stays_quadratic_in_depth():
    for g in (generate("cycle", n=16), generate("grid", n=16)):
        engine, info, state, etas = sketch_stage(g)
        depth = max(info.depth, 1)
        distributed_k_sketch(engine, info, state, 3, etas)
        distributed_reduced_sketch(engine, info, state, 2, etas)
        per = engine.stats.per_phase
        assert per["sketch3"].rounds <= 6 * depth * depth + 20
        assert per["sketch2"].rounds <= 6 * depth * depth + 20
        assert per["rsketch2"].rounds <= 6 * depth * depth + 20


def test_strict_bandwidth_holds_throughout():
    engine, info, state, etas = sketch_stage(generate("cycle", n=12))
    distributed_k_sketch(engine, info, state, 3, etas)
    distributed_reduced_sketch(engine, info, state, 2, etas)
    cap = engine.config.word_bits * engine.word_size
    assert engine.stats.max_bits_per_edge_per_round <= cap
