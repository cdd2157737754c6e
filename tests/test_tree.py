"""BFS construction, broadcasts, and the subtree fold engine."""

from __future__ import annotations

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallcut.graphs import Graph, RootedTree, generate, non_tree_eids
from smallcut import trees
from smallcut.runtime import Engine, ProtocolError, SimulatorConfig
from smallcut.trees import (
    SemigroupError,
    SemigroupSpec,
    broadcast_t1,
    broadcast_t2,
    build_bfs,
    trsf_compute,
)


def strict_engine(g, **kw):
    return Engine(g, SimulatorConfig(strict_bandwidth=True, **kw))


def counting_spec(name="trsf:size"):
    return SemigroupSpec(
        name=name,
        combine=lambda a, b: a + b,
        atomic=lambda state, l: 1,
        encode=lambda x: (x,),
        decode=lambda w: w[0],
        identity=0,
    )


def test_bfs_square_levels_and_tie_break():
    g = generate("cycle", 4)
    engine = strict_engine(g)
    info = build_bfs(engine, 0)
    assert [info[v].level for v in range(4)] == [0, 1, 2, 1]
    assert info[2].parent == 1  # both 1 and 3 propose; lowest id wins
    assert info[1].parent == 0 and info[3].parent == 0
    assert info.depth == 2
    assert info[2].ancestors == (0, 1, 2)
    assert info[0].children == ((1, 0), (3, 3))
    # node 2 announces level 2 to node 3 too, but joins node 1
    assert info[3].children == ()
    assert info[3].neighbor_levels == {3: 0, 2: 2}
    # the one non-tree edge, (2, 3), carries each end's root path
    assert info[2].paths == {2: (0, 3)} and info[3].paths == {2: (0, 1, 2)}
    assert info[0].paths == info[1].paths == {}


def test_bfs_star_depth_one():
    g = Graph(6, [(0, i) for i in range(1, 6)])
    info = build_bfs(strict_engine(g), 0)
    assert info.depth == 1
    assert all(info[v].parent == 0 for v in range(1, 6))


def test_bfs_single_vertex():
    info = build_bfs(strict_engine(Graph(1, [])), 0)
    assert info.depth == 0
    assert info[0].ancestors == (0,)
    assert info[0].children == ()


@pytest.mark.parametrize("root", [0, 1])
def test_bfs_two_vertex_path(root):
    info = build_bfs(strict_engine(generate("path", 2)), root)
    leaf = 1 - root
    assert info.depth == 1
    assert info[leaf].parent == root and info[leaf].ancestors == (root, leaf)
    assert info[root].children == ((leaf, 0),) and info[leaf].children == ()
    assert info[root].neighbor_levels == {0: 1} and info[leaf].neighbor_levels == {0: 0}


def test_bfs_rounds_linear_in_diameter():
    # Flood and echo take about 2 * depth rounds, the ancestor cast depth.
    for family, n in [("grid", 16), ("grid", 36), ("grid", 64), ("cycle", 8), ("cycle", 9),
                      ("cycle", 64), ("random_connected", 80)]:
        g = generate(family, n)
        engine = strict_engine(g)
        info = build_bfs(engine, 0)
        assert engine.stats.per_phase["bfs"].rounds <= 3 * info.depth + 3, (family, n)


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10_000), st.integers(0, 10))
def test_bfs_matches_centralized_reference(seed, root_pick):
    g = generate("random_connected", 11, seed=seed, p=0.35)
    root = root_pick % g.n
    info = build_bfs(strict_engine(g), root)
    ref = RootedTree.bfs(g, root)
    assert [info[v].level for v in range(g.n)] == list(ref.level)
    assert [info[v].parent for v in range(g.n)] == list(ref.parent)
    assert info.depth == ref.depth
    for v in range(g.n):
        assert info[v].ancestors == ref.ancestors(v)
        assert info[v].children == tuple((c, g.eid(v, c)) for c in ref.children[v])
        assert info[v].neighbor_levels == {e: ref.level[w] for w, e in g.inc[v]}
    assert info.tree().parent == ref.parent


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 10_000), st.integers(0, 12))
def test_bfs_paths_match_centralized_root_paths(seed, root_pick):
    # The ancestor cast swaps ids across every non-tree edge, and only there.
    g = generate("random_connected", 13, seed=seed, p=0.3)
    root = root_pick % g.n
    info = build_bfs(strict_engine(g), root)
    ref = RootedTree.bfs(g, root)
    nontree = non_tree_eids(g, ref)
    for v in range(g.n):
        assert info[v].paths == {e: ref.ancestors(w) for w, e in g.inc[v] if e in nontree}


def test_bfs_cast_swaps_every_id_but_the_root():
    # The flood sends one word per port and each echo one more; the cast
    # one id per ancestor; and a level-l node l ids across each non-tree
    # edge, every id of its root path but the root's.
    for family, n in [("cycle", 12), ("grid", 16), ("prism", 12)]:
        g = generate(family, n)
        engine = strict_engine(g)
        info = build_bfs(engine, 0)
        flood = 2 * g.m + g.n - 1
        cast = sum(nb.level for nb in info.nodes)
        swapped = sum(len(path) - 1 for nb in info.nodes for path in nb.paths.values())
        assert swapped > 0
        assert engine.stats.per_phase["bfs"].words == flood + cast + swapped


def test_broadcast1_path_delivers_all_ancestor_ids():
    g = generate("path", 4)
    engine = strict_engine(g)
    info = build_bfs(engine, 0)
    got = broadcast_t1(engine, info, values=[v for v in range(4)])
    assert got[3] == {0: 0, 1: 1, 2: 2, 3: 3}
    assert got[0] == {0: 0}


def test_broadcast1_single_vertex_sends_nothing():
    g = Graph(1, [])
    engine = strict_engine(g)
    info = build_bfs(engine, 0)
    got = broadcast_t1(engine, info, values=[3])
    assert got == [{0: 3}]
    assert engine.stats.total_messages == 0


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_broadcast1_rounds_linear_in_depth(seed):
    g = generate("random_connected", 14, seed=seed, p=0.25)
    engine = strict_engine(g)
    info = build_bfs(engine, 0)
    values = [(v * 3) % g.n for v in range(g.n)]
    got = broadcast_t1(engine, info, values)
    for v in range(g.n):
        assert got[v] == {a: values[a] for a in info[v].ancestors}
    assert engine.stats.per_phase["broadcast1"].rounds <= 2 * info.depth + 4


def framed(words):
    return [len(words), *words]


def by_count(head):
    return head[0]


def test_broadcast2_path_delivers_ancestor_tables():
    g = generate("path", 4)
    engine = strict_engine(g)
    info = build_bfs(engine, 0)
    lists = [framed(info[v].ancestors) for v in range(4)]
    got, _ = engine.run_chain(broadcast_t2(engine, info, "broadcast2", lists, 1, more=by_count))
    for v in range(4):
        assert set(got[v]) == set(info[v].ancestors)
        for a in info[v].ancestors:
            assert got[v][a] == (info[a].level + 1, *info[a].ancestors)


def test_broadcast2_rejects_a_head_that_overstates_its_block():
    g = generate("path", 3)
    engine = strict_engine(g)
    info = build_bfs(engine, 0)
    with pytest.raises(ProtocolError, match="broadcast2"):
        engine.run_chain(broadcast_t2(engine, info, "broadcast2", [[2, 7], [0], [0]], 1,
                                      more=by_count))


def test_broadcast2_quadratic_cost_on_grids():
    for side in (4, 6):
        g = generate("grid", side * side)
        engine = strict_engine(g)
        info = build_bfs(engine, 0)
        lists = [framed([1] * (info[v].level + 1)) for v in range(g.n)]
        engine.run_chain(broadcast_t2(engine, info, "broadcast2", lists, 1, more=by_count))
        assert engine.stats.per_phase["broadcast2"].rounds <= (info.depth + 1) ** 2 + 4


def test_subtree_sizes_by_counting_fold():
    g = generate("cycle", 4)
    engine = strict_engine(g)
    info = build_bfs(engine, 0)
    folds = trsf_compute(engine, info, counting_spec(), [None] * 4)
    ref = info.tree()
    for v in range(4):
        assert folds[v][info[v].level] == len(ref.desc(v))
    assert engine.stats.per_phase["trsf:size"].rounds == info.depth + 1


def test_max_id_fold():
    g = generate("random_connected", 9, seed=11)
    engine = strict_engine(g)
    info = build_bfs(engine, 0)
    spec = SemigroupSpec(
        name="maxid",
        combine=max,
        atomic=lambda state, l: state,
        encode=lambda x: (x,),
        decode=lambda w: w[0],
    )
    folds = trsf_compute(engine, info, spec, list(range(g.n)))
    ref = info.tree()
    for v in range(g.n):
        assert folds[v][info[v].level] == max(ref.desc(v))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_fold_partials_and_round_count(seed):
    g = generate("random_connected", 12, seed=seed, p=0.3)
    engine = strict_engine(g)
    info = build_bfs(engine, 0)
    # Atom toward the level-l ancestor is l+1, so each partial is
    # (subtree size) * (l+1) -- l-dependence included on purpose.
    spec = SemigroupSpec(
        name="trsf:weighted",
        combine=lambda a, b: a + b,
        atomic=lambda state, l: l + 1,
        encode=lambda x: (x,),
        decode=lambda w: w[0],
    )
    folds = trsf_compute(engine, info, spec, [None] * g.n)
    ref = info.tree()
    for v in range(g.n):
        size = len(ref.desc(v))
        assert folds[v][info[v].level] == size * (info[v].level + 1)
        for l, val in folds[v].items():
            assert val == size * (l + 1)
    assert engine.stats.per_phase["trsf:weighted"].rounds == info.depth + 1


def test_fold_with_min_level_restricts_to_deep_forest():
    g = generate("path", 6)
    engine = strict_engine(g)
    info = build_bfs(engine, 0)
    folds = trsf_compute(engine, info, counting_spec("trsf:deep"), [None] * 6,
                          partial(range, 2))
    ref = info.tree()
    for v in range(6):
        if info[v].level < 2:
            assert folds[v] == {}
        else:
            assert folds[v][info[v].level] == len(ref.desc(v))
            assert sorted(folds[v]) == list(range(2, info[v].level + 1))
    assert engine.stats.per_phase["trsf:deep"].rounds == info.depth - 2 + 1


COHORT_GRAPHS = {
    "path": generate("path", 7),
    "star": Graph(6, [(0, i) for i in range(1, 6)]),
    "grid16": generate("grid", 16),
    "random14_l3": generate("random_connected", 14, seed=11, lam_min=3, lam_max=3),
}


def best_spec(pad=None):
    """The lowest ``(key, node)`` record per depth cohort; no record is
    the identity.  A record travels as a presence flag, then its two
    fields; the record ``pad`` travels with one word too many."""
    return SemigroupSpec(
        name="cohort",
        combine=lambda a, b: b if a is None else a if b is None else min(a, b),
        atomic=dict.get,
        encode=lambda r: (0,) if r is None else (1, *r, *((0,) if r == pad else ())),
        decode=lambda w: tuple(w[1:]) if w[0] else None,
        tail_words=lambda head: 2 if head[0] else 0,
    )


def cohort_fold(g, records, spec):
    engine = strict_engine(g)
    info = build_bfs(engine, 0)

    def cohorts(level):
        return range(level, info.depth + 1)

    states = [{info[v].level: records.get(v)} for v in range(g.n)]
    return info, cohorts, trsf_compute(engine, info, spec, states, cohorts)


@pytest.mark.parametrize("name", sorted(COHORT_GRAPHS))
def test_cohort_fold_sends_the_best_record_per_depth(name):
    g = COHORT_GRAPHS[name]
    # Records at two nodes in three, keyed out of id order.
    records = {v: ((7 * v) % 5, v) for v in range(1, g.n) if v % 3}
    info, cohorts, folds = cohort_fold(g, records, best_spec())
    tree = info.tree()
    for v in range(g.n):
        for cid, _ in info[v].children:
            sent = [folds[cid][d] for d in cohorts(info[v].level + 1)]
            want = [
                min((records[u] for u in tree.desc(cid) if u in records and info[u].level == d),
                    default=None)
                for d in cohorts(info[v].level + 1)
            ]
            assert sent == want, (v, cid)


def test_cohort_fold_refuses_a_record_one_word_too_long():
    g = generate("path", 5)
    with pytest.raises(ProtocolError, match=r"phase 'cohort': node \d+ heard 1 words"):
        cohort_fold(g, {4: (0, 4)}, best_spec(pad=(0, 4)))


def test_variable_length_fold_collects_subtree_ids():
    g = generate("random_connected", 10, seed=23, p=0.35)
    engine = strict_engine(g)
    info = build_bfs(engine, 0)
    spec = SemigroupSpec(
        name="members",
        combine=lambda a, b: tuple(sorted(a + b)),
        atomic=lambda state, l: (state,),
        encode=lambda x: (len(x),) + tuple(x),
        decode=lambda w: tuple(w[1:]),
        tail_words=lambda head: head[0],
        identity=(),
    )
    folds = trsf_compute(engine, info, spec, list(range(g.n)))
    ref = info.tree()
    for v in range(g.n):
        assert folds[v][info[v].level] == tuple(sorted(ref.desc(v)))


def test_fold_refuses_an_extra_record(monkeypatch):
    # Records carry no level word: a child's records arrive in level
    # order, and one past the last is left unread and refused.
    g = generate("path", 4)
    engine = strict_engine(g)
    info = build_bfs(engine, 0)
    start = trees._TrsfProgram.start

    def start_and_add_one(self):
        start(self)
        if self.node.id == 3:
            self.send(self.nb.parent_eid, 1)

    monkeypatch.setattr(trees._TrsfProgram, "start", start_and_add_one)
    with pytest.raises(ProtocolError, match="node 2 heard 1 words"):
        trsf_compute(engine, info, counting_spec(), [None] * 4)


def test_fold_rejects_broken_algebra():
    g = generate("path", 4)
    engine = strict_engine(g)
    info = build_bfs(engine, 0)
    lopsided = SemigroupSpec(
        name="sub",
        combine=lambda a, b: a - b,
        atomic=lambda state, l: 1,
        encode=lambda x: (abs(x),),
        decode=lambda w: w[0],
    )
    with pytest.raises(SemigroupError, match="not (commutative|associative)"):
        trsf_compute(engine, info, lopsided, [None] * 4)
    engine2 = strict_engine(g)
    info2 = build_bfs(engine2, 0)
    drifting = SemigroupSpec(
        name="drift",
        combine=lambda a, b: a * b + 1,
        atomic=lambda state, l: 1,
        encode=lambda x: (x,),
        decode=lambda w: w[0],
    )
    with pytest.raises(SemigroupError, match="not associative"):
        trsf_compute(engine2, info2, drifting, [None] * 4)


def test_fold_single_vertex():
    engine = strict_engine(Graph(1, []))
    info = build_bfs(engine, 0)
    folds = trsf_compute(engine, info, counting_spec(), [None])
    assert folds[0] == {0: 1}
