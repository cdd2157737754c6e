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
quadratic downcast of crossing-count rows, ``hcast``).  Cases 3 and 6
read partner candidates out of the k=3 sketches, case 7 out of the
reduced k=2 sketches, which are re-merged from the same k=3 up-wave.
Two phases send ancestor-indexed blocks across non-tree edges, and
both ride the tree relay's cast (``trees._Downcast``): it sends each
node's chain across its non-tree edges on the cast's clock, minus the
root-path prefix both ends share, and the receiver names each block
from the sender's root path.  ``hcast`` swaps the crossing-count
rows the layered scan reads, ``sketchcast`` the sketches case 6 reads.
A node holds each fact about another node once, by owner id (etas,
rows, sketch entries); ``EtaState.paths`` is its one per-edge record
of a neighbour.
Case 5 — a fork seen from a node that is an ancestor of neither prong —
is the one shape no single node can observe locally; it is covered by
the layered scan (sizes 1 and 2 re-run inside every pivoted subgraph).
The scan folds the size-2 stage's landing candidate with the same atom;
its layer 0 is the whole graph, so it reuses the zeta fold there.
Each finding exists as one record holding only what case 5 reads: the
scan folds it, the node keeps its best bridge and pair record, and the
records are convergecast to the fork point with lowest-pivot-level
contention.

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
from .runtime import Engine, SimulatorConfig, Steps, WordProgram
from .small_cuts import (
    CutReport,
    EtaState,
    LayerCand,
    compute_eta,
    compute_zeta,
    dedupe_reports,
    detect_1cuts,
    detect_2cuts,
    landing_spec,
    preprocess_eta,
    preprocess_zeta,
)
from .sketches import (
    ENTRY_WORDS,
    ReducedSketchResult,
    SketchMeta,
    SketchUpResult,
    _chain_has,
    decode_entries,
    distributed_k_sketch,
    distributed_reduced_sketch,
    encode_entries,
)
from .trees import (
    BfsInfo,
    _relay_to_subtrees,
    build_bfs,
    trsf_steps,
)
# Unused here, but perfbench/tracing.py wraps these bindings (tests/test_trace_sites.py).
from .trees import broadcast_t1, broadcast_t2, trsf_compute  # noqa: F401


LABEL_HCAST = "hcast"
LABEL_SKETCH_CAST = "sketchcast"
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
    """Ship every node's crossing-count row to its whole subtree and
    across its non-tree edges, in one phase.

    The row of a level-l node y holds H(desc(y), z) — the number of
    edges from desc(y) leaving desc(z) — for every z strictly between
    the root and y, by level of z: l - 1 counts, no more and no fewer,
    so nothing is padded to the depth and no head word is sent (every
    receiver knows the owner's level).  Rows of levels 0 and 1 are empty
    and nothing reads them, so those nodes cast nothing.  The relay
    swaps the rows across every non-tree edge on the cast's clock
    (``state.paths`` names the neighbour's chain), minus the root-path
    prefix both ends share.  Returns, per node x, ``hcast[x][y]`` for
    every y whose row x holds: x's own chain from level 2 on, and its
    non-tree neighbours' chains.  One pipelined pass, quadratic in
    depth.
    """
    return engine.run_chain(_hcast_steps(engine, info, state))


def _hcast_steps(engine: Engine, info: BfsInfo, state: EtaState) -> Steps:
    """:func:`downcast_h` as a one-phase chain."""
    rows = [
        [state.subtree_cross[y][a] for a in info[y].ancestors[1:-1]] for y in range(engine.g.n)
    ]
    return _relay_to_subtrees(engine, info, LABEL_HCAST, rows, lambda level: level - 1, None,
                              lo=2, paths=state.paths)


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


def _sketch_disjoint(parent: Mapping[int, int | None], x: int, y: int) -> bool:
    """Is neither of ``x`` and ``y`` on the other's root chain, per a
    sketch's parent pointers?"""
    return not _chain_has(parent, x, y) and not _chain_has(parent, y, x)


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
        parent = {u: m.parent for u, m in meta.items()}
        ev = state.eta[v]
        for u, m in sorted(meta.items()):
            if u == v or not _sketch_disjoint(parent, u, v):
                continue
            eu, guv = m.eta, m.gamma
            if (ev - 2 == guv == eu - 1) or (ev - 1 == guv == eu - 2):
                r = _witness_report(g, tree, (v, u), CASE3, v)
                if r:
                    out.append(r)
    return out


def sketch_exchange(
    engine: Engine,
    info: BfsInfo,
    sketches: SketchUpResult,
    paths: Sequence[Mapping[int, Sequence[int]]],
) -> list[dict[int, dict[int, SketchMeta]]]:
    """Downcast every sketch to its subtree and swap ancestor chains
    across non-tree edges, in one phase.

    Every block frames itself as ``[count, entries...]``, so nothing is
    padded and no width is agreed first.  ``paths`` (``EtaState.paths``)
    holds each non-tree neighbour's root path: it names the blocks that
    cross, and both endpoints work out the same shared prefix locally, so
    those blocks never cross (the root's, the largest, never does).
    Returns, per node, the k=3 sketch entries it holds, decoded, by
    owner: its own chain and its non-tree neighbours' chains.  Holders
    of the same block share one read-only decoding of it.
    """
    n = engine.g.n
    blocks = [(len(s.meta), *encode_entries(s.meta, n)) for s in sketches.sketches]
    held = engine.run_chain(_relay_to_subtrees(engine, info, LABEL_SKETCH_CAST, blocks, 1,
                                               lambda head: ENTRY_WORDS * head[0], paths=paths))
    # Holders of one block share its decoding; a block that differs in
    # any word is decoded on its own.
    decoded: dict[tuple[int, ...], dict[int, SketchMeta]] = {}

    def decode(blk: tuple[int, ...]) -> dict[int, SketchMeta]:
        meta = decoded.get(blk)
        if meta is None:
            meta = decoded[blk] = decode_entries(blk[1:], n)
        return meta

    return [{a: decode(blk) for a, blk in got.items()} for got in held]


def detect_case6(
    g: Graph,
    state: EtaState,
    sketches: SketchUpResult,
    held: Sequence[Mapping[int, Mapping[int, SketchMeta]]],
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
    the third).  ``held`` is what :func:`sketch_exchange` left at each
    node, by owner; whether ``x`` is on some non-tree neighbour's chain
    is read from ``state.paths``, and each ``(v, x, y)`` is tried once
    per node ``w``, however many of its edges reach ``x``.
    """
    info = state.info
    tree = info.tree()
    out = []

    for v in range(g.n):
        if v == info.root:
            continue
        meta = sketches.sketches[v].meta
        parent = {u: m.parent for u, m in meta.items()}
        ev = state.eta[v]
        partners = [
            u
            for u in sorted(meta)
            if u != v and _sketch_disjoint(parent, u, v)
        ]
        for i, x in enumerate(partners):
            ex, gvx = meta[x].eta, meta[x].gamma
            for y in partners[i + 1 :]:
                if not _sketch_disjoint(parent, x, y):
                    continue
                ey, gvy = meta[y].eta, meta[y].gamma
                if ev - 1 == gvx + gvy and ex - 1 == gvx and ey - 1 == gvy:
                    r = _witness_report(g, tree, (v, x, y), CASE6, v)
                    if r:
                        out.append(r)

    for w, sk in enumerate(held):
        if not state.paths[w]:
            continue  # no neighbour's chain to combine with
        parents = {a: {u: m.parent for u, m in s.items()} for a, s in sk.items()}
        # An ancestor's candidates do not depend on the edge.
        cands = {
            v: [u for u in sorted(sk[v]) if u != v and _sketch_disjoint(parents[v], u, v)]
            for v in info[w].ancestors[1:]
        }
        # A tuple (v, x, y) does not depend on which edge's chain holds x.
        theirs = {x for path in state.paths[w].values() for x in path}
        for v, cv in cands.items():
            sv = sk[v]
            ev = state.anc_eta[w][v]
            for x in cv:
                if x not in theirs:
                    continue
                sx = sk[x]
                ex, gvx = sv[x].eta, sv[x].gamma
                for y in cv:
                    if y == x or not _sketch_disjoint(parents[v], x, y):
                        continue
                    if y not in sx or not _sketch_disjoint(parents[x], x, y):
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


def layered_min_cut(
    engine: Engine,
    info: BfsInfo,
    state: EtaState,
    etas: Sequence[Mapping[int, int]],
    hcast: Sequence[Mapping[int, tuple[int, ...]]],
    zeta: Sequence[Mapping[int, LayerCand]],
) -> tuple[dict[int, dict[int, LayerCand]], ...]:
    """Run the size-2 search inside every pivoted subgraph at once.

    Level by level, every subtree rooted below the layer folds the
    landing algebra restricted to edges that stay under its level-i
    ancestor.  Layer 0 is the whole graph, whose fold the size-2 stage
    already ran: it is read off ``zeta`` (:func:`compute_zeta`'s
    tables), and only layers 1 to depth - 1 run a phase.  The atoms
    read the non-tree neighbours' ids from ``state.paths``, their etas
    from ``etas`` (:func:`preprocess_zeta`'s lookups) and the
    crossing-count rows of their chains out of ``hcast``
    (:func:`downcast_h` swapped them), all by owner id, so no phase of
    the scan's own sends them.  Returns, per
    node a, ``two[a][i][l]``: the layer-i fold toward the level-l
    ancestor, candidate entries only.  The size-1 half needs no phase:
    see :func:`compute_cut_details`.
    """
    return engine.run_chain(_scan_steps(engine, info, state, etas, hcast, zeta))


def _scan_steps(
    engine: Engine,
    info: BfsInfo,
    state: EtaState,
    etas: Sequence[Mapping[int, int]],
    hcast: Sequence[Mapping[int, tuple[int, ...]]],
    zeta: Sequence[Mapping[int, LayerCand]],
) -> Steps:
    """:func:`layered_min_cut` as a chain: one fold phase per layer."""
    g = engine.g
    two: list[dict[int, dict[int, LayerCand]]] = [dict() for _ in range(g.n)]
    for a, nb in enumerate(info.nodes):
        cands = {l: zeta[a][v] for l, v in enumerate(nb.ancestors) if zeta[a][v].is_candidate()}
        if cands:
            two[a][0] = cands
    states = [(info[a], state.paths[a], etas[a], hcast[a]) for a in range(g.n)]
    for i in range(1, info.depth):
        folds = yield from trsf_steps(engine, info, landing_spec(f"layer{i}", i), states,
                                      min_level=i + 1)
        for a in range(g.n):
            cands = {l: z for l, z in folds[a].items() if z.is_candidate()}
            if cands:
                two[a][i] = cands
    return tuple(two)


class BridgeRecord(NamedTuple):
    """A node's parent edge is a bridge of some pivoted subgraph.

    Wire order: node id, then the shallowest such pivot's level (the
    contention key), then the node's eta and its subtree edges that
    leave the pivot's subtree.
    """

    node: int
    pivot_level: int
    eta: int
    out_edges: int


class PairRecord(NamedTuple):
    """A node's parent edge and a partner's form a two-edge cut of some
    pivoted subgraph.

    Wire order: first node id, then the pivot level (the contention
    key), then the partner and the counts.
    """

    node1: int
    pivot_level: int
    eta1: int
    node2: int
    eta2: int
    between: int


def compute_cut_details(
    info: BfsInfo, state: EtaState, two: Sequence[Mapping[int, Mapping[int, LayerCand]]]
) -> tuple[list[BridgeRecord | None], list[PairRecord | None]]:
    """Condense the scan into at most one record of each kind per node.

    The bridge record keeps the shallowest pivot whose subgraph has the
    node's parent edge as a bridge: a table lookup, since the subtree
    boundary within a pivot is eta minus the crossing count.  The pair
    record keeps the shallowest pivot that admits any partner in the
    layer folds ``two``, then the shallowest partner at that pivot.
    """
    n = len(state.eta)
    bridges: list[BridgeRecord | None] = [None] * n
    pairs: list[PairRecord | None] = [None] * n
    for a in range(n):
        if a == info.root:
            continue
        eta = state.eta[a]
        cross = state.subtree_cross[a]
        for lvl, u in enumerate(info[a].ancestors[:-1]):
            if eta - cross[u] == 1:
                bridges[a] = BridgeRecord(a, lvl, eta, cross[u])
                break
        for i in sorted(two[a]):
            stay_a = eta - cross[info[a].ancestors[i]]
            z = next((
                z for _, z in sorted(two[a][i].items())
                if z.gamma >= 1 and stay_a - 1 == z.gamma and z.stay - 1 == z.gamma
            ), None)
            if z is not None:
                pairs[a] = PairRecord(a, i, eta, z.w, z.eta, z.gamma)
                break
    return bridges, pairs


# ---------------------------------------------------------------------------
# convergecast of the detail records


@dataclass(frozen=True)
class ConvergecastResult:
    """Every record each node saw go past, tagged with the child edge it
    arrived on."""

    one: tuple[tuple[tuple[int, BridgeRecord], ...], ...]
    two: tuple[tuple[tuple[int, PairRecord], ...], ...]


_ABSENT = (0,)  # a detail record's presence flag, unset


class _DetailWave(WordProgram):
    """Forward one record per level cohort, keeping the best.

    A node sends its own record first, then for each deeper cohort the
    winner — lowest pivot level (word 2), then lowest node id (word 1)
    — among what its children delivered for that cohort.  A record is
    a presence flag followed, when the flag is set, by the record's
    fields; an absent record is the flag alone.
    """

    def __init__(self, node, nb, depth: int, width: int, block: tuple[int, ...] | None):
        super().__init__(node)
        self.nb = nb
        self.depth = depth
        self.width = width
        self.block = block
        self.collected: list[tuple[int, tuple[int, ...]]] = []
        self._pend: dict[int, int] = {}
        self._best: dict[int, tuple[tuple[int, int], tuple[int, ...]] | None] = {}

    def start(self):
        lv = self.nb.level
        up = self.nb.parent_eid
        kids = len(self.nb.children)
        for c in range(lv + 1, self.depth + 1):
            self._pend[c] = kids
            self._best[c] = None
        if up is not None:
            self.send(up, *(self.block or _ABSENT))
            if kids == 0:
                for _ in range(lv + 1, self.depth + 1):
                    self.send(up, *_ABSENT)
        for cid, eid in self.nb.children:
            self._await(cid, eid, lv + 1)

    def _await(self, cid: int, eid: int, cohort: int):
        self.expect(eid, 1, lambda blk: self._block(cid, eid, cohort, blk), self._tail)

    def _tail(self, head: tuple[int, ...]) -> int:
        return self.width - 1 if head[0] else 0

    def _block(self, cid: int, eid: int, cohort: int, blk: tuple[int, ...]):
        if blk[0]:
            self.collected.append((cid, blk))
            key = (blk[2], blk[1])
            cur = self._best[cohort]
            if cur is None or key < cur[0]:
                self._best[cohort] = (key, blk)
        self._pend[cohort] -= 1
        if self._pend[cohort] == 0 and self.nb.parent_eid is not None:
            best = self._best[cohort]
            self.send(self.nb.parent_eid, *(best[1] if best else _ABSENT))
        if cohort < self.depth:
            self._await(cid, eid, cohort + 1)


def _run_wave(engine, info, records, cls, label):
    """One wave of ``cls`` records, each sent as ``(1, *record)``."""
    programs = [
        _DetailWave(
            engine.handles[v], info[v], info.depth, 1 + len(cls._fields),
            None if r is None else (1, *r),
        )
        for v, r in enumerate(records)
    ]
    engine.run_phase(label, programs)
    return tuple(
        tuple((cid, cls(*blk[1:])) for cid, blk in sorted(p.collected))
        for p in programs
    )


def convergecast_details(
    engine: Engine,
    info: BfsInfo,
    bridges: Sequence[BridgeRecord | None],
    pairs: Sequence[PairRecord | None],
) -> ConvergecastResult:
    """Two pipelined waves, bridge records first, pair records second.

    Each node ships the records :func:`compute_cut_details` made for it,
    4 and 6 words behind a presence flag, and forwards the best of each
    deeper level cohort.
    """
    return ConvergecastResult(
        one=_run_wave(engine, info, bridges, BridgeRecord, LABEL_DETAILS1),
        two=_run_wave(engine, info, pairs, PairRecord, LABEL_DETAILS2),
    )


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
    """The size-3 stage's deduplicated reports (``perfbench/tracing.py``
    reads ``reports`` off :func:`run_battery`'s result)."""

    reports: tuple[CutReport, ...]


def run_battery(
    engine: Engine,
    info: BfsInfo,
    state: EtaState,
    etas: Sequence[Mapping[int, int]],
    zeta: Sequence[Mapping[int, LayerCand]],
) -> BatteryResult:
    """All seven detectors, every report validated, duplicates collapsed.

    Nothing here early-exits: a cut found by one detector does not
    excuse the others, since distinct cuts of the same size routinely
    live in different shape classes.  ``etas`` and ``zeta`` are the
    size-2 stage's eta lookups (:func:`preprocess_zeta`) and fold; the
    latter is the layered scan's layer 0.

    The sketch phases run in the foreground, and beside them, on the
    same clock, a chain that never sends on the same directed edge:
    ``hcast`` (down the tree and across non-tree edges) beside
    ``sketch3`` (up), then the layer folds (up) beside ``sketchcast``
    (down and across) and ``rsketch2`` (down).  Each of these two stages
    takes as many rounds as its longer side.  The detail waves (up) run
    after both.  Hidden under the sketch phases too, they would leave
    every battery the sum of its sketch phases alone, and those take
    fewer rounds per D² on a cycle of 8 than on grids: the battery would
    no longer stay within the smallest instance's rounds per D², the
    quadratic bound the acceptance gate fits.
    """
    g = engine.g
    rows = engine.launch(_hcast_steps(engine, info, state))
    sk3 = distributed_k_sketch(engine, info, state, 3, etas)
    hcast = engine.join(rows)

    scan = engine.launch(_scan_steps(engine, info, state, etas, hcast, zeta))
    reports: list[CutReport] = []
    reports += detect_case1(g, state)
    reports += detect_case2(g, state)
    reports += detect_case4(g, state, hcast)
    reports += detect_case3(g, state, sk3)
    # The exchange is the battery's largest object; nothing after case 6
    # reads it, so it is not kept alive past that detector.
    reports += detect_case6(g, state, sk3, sketch_exchange(engine, info, sk3, state.paths))

    red2 = distributed_reduced_sketch(engine, info, state, 2, etas, up=sk3)
    reports += detect_case7(g, state, red2)

    bridges, pairs = compute_cut_details(info, state, engine.join(scan))
    reports += detect_case5(g, state, convergecast_details(engine, info, bridges, pairs))

    return BatteryResult(tuple(dedupe_reports(reports, _CASE_RANK)))


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
    etas = zeta = None
    if max_size >= 2 and (not bridges or force_battery):
        etas = preprocess_zeta(engine, info, state)
        zeta = compute_zeta(engine, info, state, etas)
        pairs = detect_2cuts(g, state, zeta)
    small_rounds = engine.round

    battery = None
    battery_rounds = None
    if max_size >= 3 and etas is not None and (not (bridges or pairs) or force_battery):
        mark = engine.round
        battery = run_battery(engine, info, state, etas, zeta)
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
