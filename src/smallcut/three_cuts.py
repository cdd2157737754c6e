"""Three-edge cut detection: seven detectors, one battery.

Every induced cut of size three falls into exactly one shape class,
determined by how many of its edges lie on the spanning tree and how the
corresponding subtrees nest: a single tree edge with two non-tree edges
(case 1), two tree edges nested or disjoint plus one non-tree edge
(cases 2 and 3), or three tree edges whose subtrees form a chain, a
fork, an antichain, or a mixed arrangement (cases 4 through 7).  Each
class gets its own detector; the battery runs all seven and unions the
results.

Cases 1, 2 and 4 need nothing beyond the eta tables (case 4 after one
quadratic downcast of crossing counts).  Cases 3 and 6 read partner
candidates out of the k=3 sketches, case 7 out of the reduced k=2
sketches.  Case 5 — a fork seen from a node that is an ancestor of
neither prong — is the one shape no single node can observe locally; it
is covered by the layered scan (sizes 1 and 2 re-run inside every
pivoted subgraph), whose per-node outcome records are convergecast to
the fork point with lowest-pivot-level contention.

Detectors report *witnesses* — the subtree stack whose symmetric
difference induces the cut — and the reported edge set is materialized
from the witness.  A witness whose boundary is not exactly three edges
is discarded on the spot, so a report can never name a non-cut no
matter how the detecting predicate was reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .graphs import Graph, RootedTree, boundary, edge_pairs
from .runtime import Engine, SimulatorConfig, WordProgram
from .small_cuts import (
    TAG_ABSORBING,
    TAG_CANDIDATE,
    TAG_IDENTITY,
    CutReport,
    EtaState,
    compute_eta,
    compute_zeta,
    dedupe_reports,
    detect_1cuts,
    detect_2cuts,
    landing_combine,
    landing_spec,
    preprocess_eta,
    preprocess_zeta,
)
from .sketches import (
    ENTRY_WORDS,
    ReducedSketchResult,
    SketchMeta,
    SketchUpResult,
    decode_entries,
    distributed_k_sketch,
    distributed_reduced_sketch,
    encode_entries,
)
from .trees import (
    BfsInfo,
    # Unused here, but perfbench/tracing.py wraps this binding (tests/test_trace_sites.py).
    broadcast_t1,
    broadcast_t2,
    build_bfs,
    nontree_exchange,
    trsf_compute,
)

LABEL_HCAST = "hcast"
LABEL_PIVOT_PRE = "pivot:pre"
LABEL_SKETCH_CAST = "sketchcast"
LABEL_SKETCH_XCH = "sketchxch"
LABEL_DETAILS1 = "details1"
LABEL_DETAILS2 = "details2"

CASE1 = "case1"
CASE2 = "case2"
CASE3 = "case3"
CASE4 = "case4"
CASE5 = "case5"
CASE6 = "case6"
CASE7 = "case7"

_CASE_RANK = {c: i for i, c in enumerate((CASE1, CASE2, CASE3, CASE4, CASE5, CASE6, CASE7))}


# ---------------------------------------------------------------------------
# witnesses


def _witness_report(
    g: Graph, tree: RootedTree, parts: Sequence[int], case: str, by: int
) -> CutReport | None:
    """Materialize a report from its witness, or reject it.

    The witness is a stack of subtree roots; the cut side is the
    symmetric difference of their descendant sets.  Only a boundary of
    exactly three edges survives — that check is what makes every
    detector sound regardless of which equalities led it here.
    """
    side: frozenset[int] = frozenset()
    for p in parts:
        side = side ^ tree.desc(p)
    if not side or len(side) == g.n:
        return None
    eids = boundary(g, side)
    if len(eids) != 3:
        return None
    return CutReport(edge_pairs(g, eids), case, by)


# ---------------------------------------------------------------------------
# pivoted subgraphs (centralized view, used by oracles and property tests)


@dataclass(frozen=True)
class PivotedSubgraph:
    """The graph a layer-``i`` instance works on: one subtree plus its
    parent edge, relabeled to contiguous ids."""

    pivot: int
    nodes: tuple[int, ...]
    graph: Graph
    to_local: dict[int, int]

    @classmethod
    def build(cls, g: Graph, tree: RootedTree, v: int) -> "PivotedSubgraph":
        if v == tree.root:
            nodes = tuple(range(g.n))
            return cls(v, nodes, g, {u: u for u in nodes})
        inside = tree.desc(v)
        nodes = tuple(sorted(inside | {tree.parent[v]}))
        local = {u: i for i, u in enumerate(nodes)}
        edges = [
            (local[a], local[b])
            for a, b in g.edges
            if a in inside and b in inside
        ]
        pa = tree.parent[v]
        edges.append((local[pa], local[v]))
        return cls(v, nodes, Graph(len(nodes), edges), local)


# ---------------------------------------------------------------------------
# cases 1 and 2: straight off the eta tables


def detect_case1(g: Graph, state: EtaState) -> list[CutReport]:
    """One tree edge, two non-tree edges: the subtree boundary is 3."""
    tree = state.info.tree()
    out = []
    for v in range(g.n):
        if v != state.info.root and state.eta[v] == 3:
            r = _witness_report(g, tree, (v,), CASE1, v)
            if r:
                out.append(r)
    return out


def detect_case2(g: Graph, state: EtaState) -> list[CutReport]:
    """Two nested tree edges plus one non-tree edge.

    The deeper node x tests each proper ancestor v: the shared boundary
    H (edges of desc(x) that leave desc(v)) must absorb all but one
    of each side's boundary, with the leftover non-tree edge attaching
    to one side or the other.
    """
    info = state.info
    tree = info.tree()
    out = []
    for x in range(g.n):
        if x == info.root:
            continue
        ex = state.eta[x]
        for v in info[x].ancestors[1:-1]:
            h = state.subtree_cross[x][v]
            ev = state.anc_eta[x][v]
            if (ev - 1 == h == ex - 2) or (ev - 2 == h == ex - 1):
                r = _witness_report(g, tree, (v, x), CASE2, x)
                if r:
                    out.append(r)
    return out


# ---------------------------------------------------------------------------
# case 4: three nested tree edges, enabled by the crossing-count downcast


def downcast_h(
    engine: Engine, info: BfsInfo, state: EtaState
) -> list[dict[int, tuple[int, ...]]]:
    """Ship every node's crossing counts to its whole subtree.

    After this, a node knows H(desc(y), z) — the number of edges from
    desc(y) leaving desc(z) — for every ancestor y and every z strictly
    between the root and y.  One pipelined pass of up to depth-1 words
    per ancestor; the quadratic half of the battery's round budget.
    """
    depth = info.depth
    width = max(depth - 1, 1)
    lists = []
    for y in range(engine.g.n):
        nb = info[y]
        lists.append(
            [state.subtree_cross[y][nb.ancestors[j]] for j in range(1, nb.level)]
        )
    return broadcast_t2(engine, info, lists, width, label=LABEL_HCAST)


def detect_case4(
    g: Graph, state: EtaState, hcast: Sequence[Mapping[int, tuple[int, ...]]]
) -> list[CutReport]:
    """Chain of three: desc(x) inside desc(y) inside desc(z).

    The deepest node x owns the test.  Writing H(A, w) for the count of
    A's edges that leave desc(w), the cut exists exactly when each of
    the three subtree boundaries is one tree edge plus the crossings
    the other two account for.
    """
    info = state.info
    tree = info.tree()
    out = []
    for x in range(g.n):
        nb = info[x]
        if nb.level < 3:
            continue
        ex = state.eta[x]
        for ly in range(2, nb.level):
            y = nb.ancestors[ly]
            h_xy = state.subtree_cross[x][y]
            ey = state.anc_eta[x][y]
            for lz in range(1, ly):
                z = nb.ancestors[lz]
                h_xz = state.subtree_cross[x][z]
                h_yz = hcast[x][y][lz - 1]
                if (
                    ex - 1 == h_xy + h_xz
                    and ey - 1 == h_yz + h_xy
                    and state.anc_eta[x][z] - 1 == h_xz + h_yz
                ):
                    r = _witness_report(g, tree, (z, y, x), CASE4, x)
                    if r:
                        out.append(r)
    return out


# ---------------------------------------------------------------------------
# cases 3 and 6: partner candidates live in the k=3 sketches


def _on_chain(meta: Mapping[int, SketchMeta], u: int, target: int) -> bool:
    """Is ``target`` equal to ``u`` or an ancestor of it, per the sketch?"""
    w: int | None = u
    while w is not None:
        if w == target:
            return True
        w = meta[w].parent
    return False


def _sketch_disjoint(meta: Mapping[int, SketchMeta], x: int, y: int) -> bool:
    return not _on_chain(meta, x, y) and not _on_chain(meta, y, x)


def detect_case3(g: Graph, state: EtaState, sketches: SketchUpResult) -> list[CutReport]:
    """Two disjoint tree edges plus one non-tree edge.

    Node v scans its own sketch for a partner u in an unrelated subtree
    whose boundary interlocks with v's through the recorded edge count
    between the two subtrees.  The third (non-tree) edge falls out of
    the witness boundary rather than being named explicitly.
    """
    info = state.info
    tree = info.tree()
    out = []
    for v in range(g.n):
        if v == info.root:
            continue
        meta = sketches.sketches[v].meta
        ev = state.eta[v]
        for u, m in sorted(meta.items()):
            if u == v or not _sketch_disjoint(meta, u, v):
                continue
            eu, guv = m.eta, m.gamma
            if (ev - 2 == guv == eu - 1) or (ev - 1 == guv == eu - 2):
                r = _witness_report(g, tree, (v, u), CASE3, v)
                if r:
                    out.append(r)
    return out


@dataclass(frozen=True)
class SketchExchange:
    """Who knows whose sketch after the downcast and the edge swap.

    ``chain[x]`` maps every ancestor of x (x included) to that
    ancestor's k=3 sketch entries as decoded from the wire; ``across[x]``
    holds, per incident non-tree edge, the same chain as seen from the
    other endpoint.
    """

    chain: tuple[dict[int, dict[int, SketchMeta]], ...]
    across: tuple[dict[int, dict[int, dict[int, SketchMeta]]], ...]


def sketch_exchange(
    engine: Engine, info: BfsInfo, sketches: SketchUpResult
) -> SketchExchange:
    """Downcast every sketch to its subtree, then swap whole ancestor
    chains across non-tree edges.

    Every block frames itself, so nothing is padded and no width is
    agreed first: the downcast carries ``[count, entries...]`` per
    ancestor, cut-through, and the swap ``[owner, count, entries...]``
    per ancestor of the sender.
    """
    n = engine.g.n
    blocks = [(len(sk.meta), *encode_entries(sk.meta, n)) for sk in sketches.sketches]
    received = broadcast_t2(
        engine, info, blocks, 1, label=LABEL_SKETCH_CAST,
        more=lambda head: ENTRY_WORDS * head[0],
    )
    chain = [{a: decode_entries(blk[1:], n) for a, blk in got.items()} for got in received]

    def words(x: int) -> list[int]:
        return [w for a in info[x].ancestors for w in (a, *blocks[a])]

    heard = nontree_exchange(
        engine, info, LABEL_SKETCH_XCH, words, lambda level: level + 1,
        width=2, more=lambda head: ENTRY_WORDS * head[1],
    )
    across = [
        {eid: {rec[0]: decode_entries(rec[2:], n) for rec in recs} for eid, recs in per_edge.items()}
        for per_edge in heard
    ]
    return SketchExchange(chain=tuple(chain), across=tuple(across))


def detect_case6(
    g: Graph,
    state: EtaState,
    sketches: SketchUpResult,
    exchange: SketchExchange,
) -> list[CutReport]:
    """Three pairwise-disjoint tree edges.

    Sub-case A (one of the three pair counts is zero): the node adjacent
    to both others sees the whole picture in its own sketch — if the
    two partner equalities hold with the third count taken as zero,
    any actual edge between the partners would already have inflated
    their boundaries, so the assumption proves itself.

    Sub-case B (all three pair counts positive): no single sketch holds
    all three numbers, but a non-tree edge between two of the subtrees
    sees the missing one: each endpoint combines an ancestor's sketch
    (for its two counts) with a sketch from the neighbour's chain (for
    the third).
    """
    info = state.info
    tree = info.tree()
    out = []

    for v in range(g.n):
        if v == info.root:
            continue
        meta = sketches.sketches[v].meta
        ev = state.eta[v]
        partners = [
            u
            for u in sorted(meta)
            if u != v and _sketch_disjoint(meta, u, v)
        ]
        for i, x in enumerate(partners):
            ex, gvx = meta[x].eta, meta[x].gamma
            for y in partners[i + 1 :]:
                if not _sketch_disjoint(meta, x, y):
                    continue
                ey, gvy = meta[y].eta, meta[y].gamma
                if ev - 1 == gvx + gvy and ex - 1 == gvx and ey - 1 == gvy:
                    r = _witness_report(g, tree, (v, x, y), CASE6, v)
                    if r:
                        out.append(r)

    for w in range(g.n):
        own = exchange.chain[w]
        for eid, theirs in sorted(exchange.across[w].items()):
            for v in info[w].ancestors:
                if v == info.root:
                    continue
                sv = own[v]
                ev = state.anc_eta[w][v]
                cands = [
                    u
                    for u in sorted(sv)
                    if u != v and _sketch_disjoint(sv, u, v)
                ]
                for x in cands:
                    if x not in theirs:
                        continue
                    sx = theirs[x]
                    ex, gvx = sv[x].eta, sv[x].gamma
                    for y in cands:
                        if y == x or not _sketch_disjoint(sv, x, y):
                            continue
                        if y not in sx or not _sketch_disjoint(sx, x, y):
                            continue
                        ey, gvy = sv[y].eta, sv[y].gamma
                        gxy = sx[y].gamma
                        if (
                            gxy > 0
                            and ev - 1 == gvx + gvy
                            and ex - 1 == gvx + gxy
                            and ey - 1 == gvy + gxy
                        ):
                            r = _witness_report(g, tree, (v, x, y), CASE6, w)
                            if r:
                                out.append(r)
    return out


# ---------------------------------------------------------------------------
# case 7: a chain of two with a third subtree hanging off elsewhere


def detect_case7(
    g: Graph, state: EtaState, reduced: ReducedSketchResult
) -> list[CutReport]:
    """desc(x) inside desc(v), with a disjoint desc(u) tied to the ring
    between them.

    The reduced sketch of desc(v) minus desc(x) is exactly the object
    whose counts refer to that ring, so x reads gamma(desc(u), ring)
    straight out of it and combines with its own crossing count H.
    """
    info = state.info
    tree = info.tree()
    out = []
    for x in range(g.n):
        if x == info.root:
            continue
        ex = state.eta[x]
        anc = set(info[x].ancestors)
        for v, sk in sorted(reduced.per_node[x].items()):
            h = state.subtree_cross[x][v]
            if ex - 1 != h:
                continue
            ev = state.anc_eta[x][v]
            for u, m in sorted(sk.meta.items()):
                if u in anc:
                    continue
                if ev - 1 == h + m.gamma and m.eta - 1 == m.gamma:
                    r = _witness_report(g, tree, (v, x, u), CASE7, x)
                    if r:
                        out.append(r)
    return out


# ---------------------------------------------------------------------------
# the layered scan: sizes 1 and 2 inside every pivoted subgraph


class OneCutDetail(NamedTuple):
    """A node's record of its parent edge being a bridge somewhere.

    ``pivot`` is the shallowest ancestor whose pivoted subgraph has
    (parent(node), node) as a bridge; ``out_edges`` counts the node's
    subtree edges that leave the pivot's subtree.
    """

    node: int
    parent: int
    eta: int
    pivot: int
    pivot_level: int
    out_edges: int


class TwoCutDetail(NamedTuple):
    """A node's record of a disjoint two-edge cut inside a pivoted
    subgraph, partner and counts included."""

    node1: int
    parent1: int
    eta1: int
    out1: int
    node2: int
    parent2: int
    eta2: int
    out2: int
    between: int
    lca: int
    lca_level: int
    pivot: int
    pivot_level: int


class LayerCand(NamedTuple):
    """Fold element for one layer: do all qualifying boundary edges land
    in a single partner subtree, and with what attached counts?

    ``stay`` is the partner's boundary within the pivot's subtree,
    ``eta`` its full boundary, ``lca_level`` the level where the two
    chains part ways — everything the detail record will need, carried
    through the fold so no second pass is necessary.
    """

    tag: int
    w: int = 0
    parent: int = 0
    stay: int = 0
    eta: int = 0
    lca_level: int = 0
    gamma: int = 0

    def is_candidate(self) -> bool:
        return self.tag == TAG_CANDIDATE


LAYER_IDENTITY = LayerCand(TAG_IDENTITY)
LAYER_ABSORBING = LayerCand(TAG_ABSORBING)


def preprocess_pivot(
    engine: Engine,
    info: BfsInfo,
    hcast: Sequence[Mapping[int, tuple[int, ...]]],
) -> tuple[dict[int, dict[int, tuple[int, ...]]], ...]:
    """Swap crossing-count triangles over non-tree edges.

    After the downcast each node knows H(desc(w), u) for its own
    ancestors w and their ancestors u; here it forwards that triangle to
    its non-tree neighbours, giving them the same numbers about the
    *other* side's chain.  Row l of the triangle describes the level-l
    ancestor, one entry per level strictly between the root and l.
    """
    def words(q: int) -> list[int]:
        return [h for l, w in enumerate(info[q].ancestors) if l for h in hcast[q][w][: l - 1]]

    heard = nontree_exchange(
        engine, info, LABEL_PIVOT_PRE, words, lambda level: level * (level - 1) // 2
    )
    tri = []
    for q, per_edge in enumerate(heard):
        rows_by_edge: dict[int, dict[int, tuple[int, ...]]] = {}
        for eid, recs in per_edge.items():
            ws = [rec[0] for rec in recs]
            rows: dict[int, tuple[int, ...]] = {}
            off = 0
            for l in range(1, info[q].neighbor_levels[eid] + 1):
                rows[l] = tuple(ws[off : off + l - 1])
                off += l - 1
            rows_by_edge[eid] = rows
        tri.append(rows_by_edge)
    return tuple(tri)


def _layer_atom(pivot_level: int, node_state, l: int) -> LayerCand:
    """One node's non-tree edges, classified for layer ``pivot_level``
    at reference level ``l``."""
    nb, per_edge, tri_rows = node_state
    v = nb.ancestors[l]
    u = nb.ancestors[pivot_level]
    acc = LAYER_IDENTITY
    for eid, triples in sorted(per_edge.items()):
        lq = len(triples) - 1
        if lq < pivot_level or triples[pivot_level][2] != u:
            continue  # the edge leaves the pivot's subtree: not ours to count
        if lq < l:
            return LAYER_ABSORBING  # lands between the pivot and the layer
        w = triples[l][2]
        if w == v:
            continue  # stays inside desc(v)
        cross_wu = tri_rows[eid][l][pivot_level - 1] if pivot_level else 0
        j = 1
        top = min(nb.level, lq)
        while j <= top and triples[j][2] == nb.ancestors[j]:
            j += 1
        cand = LayerCand(
            TAG_CANDIDATE,
            w,
            triples[l - 1][2],
            triples[l][1] - cross_wu,
            triples[l][1],
            j - 1,
            1,
        )
        acc = landing_combine(acc, cand)
    return acc


@dataclass(frozen=True)
class LayeredScan:
    """Everything the per-pivot instances produced.

    ``one[a]`` lists (pivot level, pivot) pairs where the parent edge of
    ``a`` is a bridge of the pivoted subgraph — a pure table lookup,
    since the subtree boundary within a pivot is eta minus the crossing
    count.  ``two[a][i][l]`` is the layer-i fold toward the level-l
    ancestor, candidate entries only.
    """

    one: tuple[tuple[tuple[int, int], ...], ...]
    two: tuple[dict[int, dict[int, LayerCand]], ...]


def layered_min_cut(
    engine: Engine,
    info: BfsInfo,
    state: EtaState,
    annotated: Sequence[Mapping[int, Sequence[tuple[int, int, int]]]],
    hcast: Sequence[Mapping[int, tuple[int, ...]]],
) -> LayeredScan:
    """Run the size-1/2 search inside every pivoted subgraph at once.

    Level by level, every subtree rooted below the layer folds the
    landing algebra restricted to edges that stay under its level-i
    ancestor.  The bridge half costs nothing at all: a parent edge is a
    bridge of the pivot exactly when the crossing table already says
    eta minus crossings is one.
    """
    g = engine.g
    one: list[tuple[tuple[int, int], ...]] = []
    for a in range(g.n):
        nb = info[a]
        hits = []
        if a != info.root:
            for lvl, u in enumerate(nb.ancestors[:-1]):
                if state.eta[a] - state.subtree_cross[a][u] == 1:
                    hits.append((lvl, u))
        one.append(tuple(hits))

    tri = preprocess_pivot(engine, info, hcast)
    two: list[dict[int, dict[int, LayerCand]]] = [dict() for _ in range(g.n)]
    states = [(info[a], annotated[a], tri[a]) for a in range(g.n)]
    for i in range(info.depth):
        spec = landing_spec(
            f"layer{i}", LayerCand, lambda st, l, _i=i: _layer_atom(_i, st, l)
        )
        folds = trsf_compute(engine, info, spec, states, min_level=i + 1)
        for a in range(g.n):
            if info[a].level < i + 1:
                continue
            cands = {
                l: z
                for l, z in folds[a].partials.items()
                if z.is_candidate()
            }
            if cands:
                two[a][i] = cands
    return LayeredScan(one=tuple(one), two=tuple(two))


def compute_cut_details(
    info: BfsInfo, state: EtaState, scan: LayeredScan
) -> tuple[list[OneCutDetail | None], list[TwoCutDetail | None]]:
    """Condense the scan into one record of each kind per node.

    The bridge record keeps the shallowest pivot.  The pair record keeps
    the shallowest pivot that admits any partner, then the shallowest
    (and lowest-id) partner at that pivot.
    """
    n = len(state.eta)
    ones: list[OneCutDetail | None] = [None] * n
    twos: list[TwoCutDetail | None] = [None] * n
    for a in range(n):
        if a == info.root:
            continue
        nb = info[a]
        if scan.one[a]:
            lvl, u = scan.one[a][0]
            ones[a] = OneCutDetail(
                node=a,
                parent=nb.parent,
                eta=state.eta[a],
                pivot=u,
                pivot_level=lvl,
                out_edges=state.subtree_cross[a][u],
            )
        for i in sorted(scan.two[a]):
            u = nb.ancestors[i]
            stay_a = state.eta[a] - state.subtree_cross[a][u]
            picks = []
            for l, z in sorted(scan.two[a][i].items()):
                if z.gamma >= 1 and stay_a - 1 == z.gamma and z.stay - 1 == z.gamma:
                    picks.append((l, z.w, z))
            if not picks:
                continue
            l, b, z = min(picks)
            twos[a] = TwoCutDetail(
                node1=a,
                parent1=nb.parent,
                eta1=state.eta[a],
                out1=state.subtree_cross[a][u],
                node2=b,
                parent2=z.parent,
                eta2=z.eta,
                out2=z.eta - z.stay,
                between=z.gamma,
                lca=nb.ancestors[z.lca_level],
                lca_level=z.lca_level,
                pivot=u,
                pivot_level=i,
            )
            break
    return ones, twos


# ---------------------------------------------------------------------------
# convergecast of the detail records


_W1 = 1 + len(OneCutDetail._fields)
_W2 = 1 + len(TwoCutDetail._fields)


@dataclass(frozen=True)
class ConvergecastResult:
    """Every detail each node saw go past, tagged with the child edge it
    arrived on."""

    one: tuple[tuple[tuple[int, OneCutDetail], ...], ...]
    two: tuple[tuple[tuple[int, TwoCutDetail], ...], ...]


class _DetailWave(WordProgram):
    """Forward one detail per level cohort, keeping the best.

    A node sends its own record first, then for each deeper cohort the
    winner — lowest pivot level, then lowest node id — among what its
    children delivered for that cohort.  Absent records travel as a
    zero flag so the framing stays fixed-width and deterministic.
    """

    def __init__(
        self,
        node,
        nb,
        depth: int,
        width: int,
        key_at: int,
        block: tuple[int, ...] | None,
    ):
        super().__init__(node)
        self.nb = nb
        self.depth = depth
        self.width = width
        self.key_at = key_at
        self.block = block
        self.collected: list[tuple[int, tuple[int, ...]]] = []
        self._pend: dict[int, int] = {}
        self._best: dict[int, tuple[tuple[int, int], tuple[int, ...]] | None] = {}

    def _phi(self) -> tuple[int, ...]:
        return (0,) * self.width

    def start(self):
        lv = self.nb.level
        up = self.nb.parent_eid
        kids = len(self.nb.children)
        for c in range(lv + 1, self.depth + 1):
            self._pend[c] = kids
            self._best[c] = None
        if up is not None:
            self.send(up, *(self.block or self._phi()))
            if kids == 0:
                for _ in range(lv + 1, self.depth + 1):
                    self.send(up, *self._phi())
        for cid, eid in self.nb.children:
            self._await(cid, eid, lv + 1)

    def _await(self, cid: int, eid: int, cohort: int):
        self.expect(eid, self.width, lambda blk: self._block(cid, eid, cohort, blk))

    def _block(self, cid: int, eid: int, cohort: int, blk: tuple[int, ...]):
        if blk[0]:
            self.collected.append((cid, blk))
            key = (blk[self.key_at], blk[1])  # pivot level, then node id
            cur = self._best[cohort]
            if cur is None or key < cur[0]:
                self._best[cohort] = (key, blk)
        self._pend[cohort] -= 1
        if self._pend[cohort] == 0 and self.nb.parent_eid is not None:
            best = self._best[cohort]
            self.send(self.nb.parent_eid, *(best[1] if best else self._phi()))
        if cohort < self.depth:
            self._await(cid, eid, cohort + 1)


def _run_wave(engine, info, blocks, width, key_at, label):
    programs = [
        _DetailWave(engine.handles[v], info[v], info.depth, width, key_at, blocks[v])
        for v in range(engine.g.n)
    ]
    engine.run_phase(label, programs)
    return programs


def convergecast_details(
    engine: Engine,
    info: BfsInfo,
    ones: Sequence[OneCutDetail | None],
    twos: Sequence[TwoCutDetail | None],
) -> ConvergecastResult:
    """Two pipelined waves, bridge records first, pair records second."""
    n = engine.g.n
    b1 = [None if d is None else (1, *d) for d in ones]
    b2 = [None if d is None else (1, *d) for d in twos]
    k1 = 1 + OneCutDetail._fields.index("pivot_level")
    k2 = 1 + TwoCutDetail._fields.index("pivot_level")
    p1 = _run_wave(engine, info, b1, _W1, k1, LABEL_DETAILS1)
    p2 = _run_wave(engine, info, b2, _W2, k2, LABEL_DETAILS2)
    one = tuple(
        tuple(
            (cid, OneCutDetail(*blk[1:]))
            for cid, blk in sorted(p1[v].collected)
        )
        for v in range(n)
    )
    two = tuple(
        tuple(
            (cid, TwoCutDetail(*blk[1:]))
            for cid, blk in sorted(p2[v].collected)
        )
        for v in range(n)
    )
    return ConvergecastResult(one=one, two=two)


def detect_case5(
    g: Graph, state: EtaState, received: ConvergecastResult
) -> list[CutReport]:
    """A fork: two disjoint subtrees under a third, seen from no single
    chain.

    A node on the path between the prongs' meeting point and the fork
    subtree assembles the picture from the details that reached it:
    either two bridge records from different child edges (the prongs
    have no edges between them) or one pair record (they do).  The fork
    subtree itself is not named in the records — its recorded pivot may
    sit strictly above the true fork — but the prongs' outward counts
    do not depend on that choice (they are eta minus one minus the pair
    count), so the observer simply tries each of its own ancestors as
    the fork and lets the witness check settle the matter.
    """
    info = state.info
    tree = info.tree()
    out = []
    for x in range(g.n):
        nb = info[x]
        forks = [
            (state.anc_eta[x][z], z) for z in nb.ancestors[1 : nb.level + 1]
        ]
        got = received.one[x]
        for i, (c1, d1) in enumerate(got):
            for c2, d2 in got[i + 1 :]:
                if c1 == c2 or d1.node == d2.node:
                    continue
                if d1.eta - 1 != d1.out_edges or d2.eta - 1 != d2.out_edges:
                    continue
                for ez, z in forks:
                    if ez - 1 == d1.out_edges + d2.out_edges:
                        r = _witness_report(g, tree, (z, d1.node, d2.node), CASE5, x)
                        if r:
                            out.append(r)
        for _, d in received.two[x]:
            o1 = d.eta1 - 1 - d.between
            o2 = d.eta2 - 1 - d.between
            if o1 < 0 or o2 < 0:
                continue
            for ez, z in forks:
                if ez - 1 == o1 + o2:
                    r = _witness_report(g, tree, (z, d.node1, d.node2), CASE5, x)
                    if r:
                        out.append(r)
    return out


# ---------------------------------------------------------------------------
# the battery and the full pipeline


@dataclass(frozen=True)
class BatteryResult:
    """Raw and deduplicated outcome of the size-3 stage."""

    reports: tuple[CutReport, ...]
    one_details: tuple[OneCutDetail | None, ...]
    two_details: tuple[TwoCutDetail | None, ...]
    scan: LayeredScan


def run_battery(
    engine: Engine,
    info: BfsInfo,
    state: EtaState,
    annotated: Sequence[Mapping[int, Sequence[tuple[int, int, int]]]],
) -> BatteryResult:
    """All seven detectors, every report validated, duplicates collapsed.

    Nothing here early-exits: a cut found by one detector does not
    excuse the others, since distinct cuts of the same size routinely
    live in different shape classes.
    """
    g = engine.g
    reports: list[CutReport] = []

    hcast = downcast_h(engine, info, state)
    reports += detect_case1(g, state)
    reports += detect_case2(g, state)
    reports += detect_case4(g, state, hcast)

    sk3 = distributed_k_sketch(engine, info, state, 3, annotated)
    reports += detect_case3(g, state, sk3)
    # The exchange is the battery's largest object; nothing after case 6
    # reads it, so it is not kept alive past that detector.
    reports += detect_case6(g, state, sk3, sketch_exchange(engine, info, sk3))

    red2 = distributed_reduced_sketch(engine, info, state, 2, annotated)
    reports += detect_case7(g, state, red2)

    scan = layered_min_cut(engine, info, state, annotated, hcast)
    ones, twos = compute_cut_details(info, state, scan)
    cc = convergecast_details(engine, info, ones, twos)
    reports += detect_case5(g, state, cc)

    return BatteryResult(
        reports=tuple(dedupe_reports(reports, _CASE_RANK)),
        one_details=tuple(ones),
        two_details=tuple(twos),
        scan=scan,
    )


@dataclass(frozen=True)
class PipelineResult:
    """One full run: what was found, by which stage, at what cost."""

    lambda_detected: int | str
    reports: tuple[CutReport, ...]
    battery_reports: tuple[CutReport, ...] | None
    info: BfsInfo
    state: EtaState
    engine: Engine
    small_rounds: int
    battery_rounds: int | None

    @property
    def depth(self) -> int:
        return self.info.depth


def run_full_pipeline(
    g: Graph,
    root: int | None = None,
    config: SimulatorConfig | None = None,
    max_size: int = 3,
    force_battery: bool = False,
) -> PipelineResult:
    """Find all min-cuts of size up to ``max_size``.

    Stages run in size order and stop at the first size that yields
    cuts, because anything a later stage reports would not be minimum.
    ``force_battery`` runs the size-3 battery regardless (its reports
    are then exposed separately when a smaller cut exists) — that is
    how the round-budget regressions measure the battery on graphs
    whose connectivity is below three.
    """
    if max_size not in (1, 2, 3):
        raise ValueError(f"max_size must be 1, 2 or 3, not {max_size}")
    engine = Engine(g, config or SimulatorConfig())
    info = build_bfs(engine, root)
    state = compute_eta(engine, info, preprocess_eta(engine, info))
    bridges = detect_1cuts(state)

    lam: int | str
    pairs: list[CutReport] = []
    annotated = None
    if max_size >= 2 and (not bridges or force_battery):
        annotated = preprocess_zeta(engine, info, state)
        zeta = compute_zeta(engine, info, state, annotated)
        pairs = detect_2cuts(g, state, zeta)
    small_rounds = engine.round

    battery = None
    battery_rounds = None
    if max_size >= 3 and annotated is not None and (not (bridges or pairs) or force_battery):
        mark = engine.round
        battery = run_battery(engine, info, state, annotated)
        battery_rounds = engine.round - mark

    if bridges:
        lam, reports = 1, bridges
    elif pairs:
        lam, reports = 2, pairs
    elif battery is not None and battery.reports:
        lam, reports = 3, list(battery.reports)
    else:
        lam, reports = f">{max_size}", []
    return PipelineResult(
        lambda_detected=lam,
        reports=tuple(reports),
        battery_reports=None if battery is None else battery.reports,
        info=info,
        state=state,
        engine=engine,
        small_rounds=small_rounds,
        battery_rounds=battery_rounds,
    )
