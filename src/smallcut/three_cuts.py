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
Every ancestor-indexed block that crosses a non-tree edge rides the tree
relay's cast (``trees._Downcast``): it sends each node's chain across
its non-tree edges on the cast's clock, minus the root-path prefix both
ends share, and the receiver names each block from the sender's root
path.  The BFS tree's ancestor cast swaps the root paths themselves and
the size-2 stage's eta cast the etas; here ``hcast`` swaps the
crossing-count rows the layered scan reads, ``sketchcast`` the
sketches case 6 reads.  A node holds each fact about another node
once, by owner id (etas, rows, sketch entries); ``EtaState.paths`` is
its one per-edge record of a neighbour.
Case 5 — a fork seen from a node that is an ancestor of neither prong —
is the one shape no single node can observe locally; it is covered by
the layered scan (sizes 1 and 2 re-run inside every pivoted subgraph).
The scan folds the size-2 stage's landing candidate with the same atom;
its layer 0 is the whole graph, so it reuses the zeta fold there.
Each finding exists as one record holding only what case 5 reads: the
scan folds it, the node keeps its best bridge and pair record, and the
records are convergecast to the fork point on the fold engine, one slot
per depth cohort, the lowest pivot level winning each slot.

Detectors report *witnesses* — the subtree stack whose symmetric
difference induces the cut — and the reported edge set is materialized
from the witness.  Every detector is exact: its predicate holds only
when the witness bounds exactly three edges, by inclusion–exclusion
over counts the detecting node holds.  The materializing check is
therefore an invariant, and a witness that fails it is a protocol
fault, not a filtered candidate.  One fact comes from the observer
rather than the records: whether a pair record's partner lies under a
fork deeper than the record's pivot (see :func:`detect_case5`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, NamedTuple, Sequence

from .graphs import Graph, RootedTree, boundary, edge_pairs
from .runtime import Engine, ProtocolError, SimulatorConfig, Steps
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
    decode_entries,
    distributed_k_sketch,
    distributed_reduced_sketch,
    encode_entries,
)
from .trees import (
    BfsInfo,
    SemigroupSpec,
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
) -> CutReport:
    """Materialize the report of node ``by``'s witness for ``case``.

    The witness is a stack of subtree roots; the cut side is the
    symmetric difference of their descendant sets.  Every detector's
    predicate already fixes that side's boundary at three edges, so any
    other boundary (an empty or whole side has none) is a detector
    fault and raises :class:`ProtocolError`.
    """
    side: frozenset[int] = frozenset()
    for p in parts:
        side = side ^ tree.desc(p)
    eids = boundary(g, side)
    if len(eids) != 3:
        raise ProtocolError(f"{case} witness {tuple(parts)} of node {by} bounds "
                            f"{len(eids)} edges, not 3")
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
            out.append(_witness_report(g, tree, (v,), CASE1, v))
    return out


def detect_case2(g: Graph, state: EtaState, etas: Sequence[Mapping[int, int]]) -> list[CutReport]:
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
            ev = etas[x][v]
            if (ev - 1 == h == ex - 2) or (ev - 2 == h == ex - 1):
                out.append(_witness_report(g, tree, (v, x), CASE2, x))
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
    g: Graph,
    state: EtaState,
    etas: Sequence[Mapping[int, int]],
    hcast: Sequence[Mapping[int, tuple[int, ...]]],
) -> list[CutReport]:
    """Chain of three: desc(x) inside desc(y) inside desc(z).

    The deepest node x owns the test.  Writing e_w for desc(w)'s
    boundary and h_ab for the count of desc(a)'s edges that leave
    desc(b), inclusion–exclusion over the three boundaries gives the
    side desc(z) - desc(y) + desc(x) the boundary

        ex + ey + ez - 2·(h_xy + h_yz - h_xz)

    (an edge counted by h_xz lies on all three boundaries), and the cut
    exists exactly when that is 3.  x holds every term: its eta and
    crossing counts, its ancestors' etas, and y's row out of ``hcast``.
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
            ey = etas[x][y]
            for lz in range(1, ly):
                z = nb.ancestors[lz]
                h_xz = state.subtree_cross[x][z]
                h_yz = hcast[x][y][lz - 1]
                if ex + ey + etas[x][z] - 2 * (h_xy + h_yz - h_xz) == 3:
                    out.append(_witness_report(g, tree, (z, y, x), CASE4, x))
    return out


# ---------------------------------------------------------------------------
# cases 3 and 6: partner candidates live in the k=3 sketches


def _preorder_spans(meta: Mapping[int, SketchMeta]) -> dict[int, tuple[int, int]]:
    """Per sketch node: its preorder number and the last one in its sketch
    subtree, so one is on the other's root chain exactly when the spans
    nest, and neither is when they do not meet."""
    kids: dict[int, list[int]] = {u: [] for u in meta}
    stack = []
    for u, m in meta.items():
        (stack if m.parent is None else kids[m.parent]).append(u)
    order = []
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(kids[u])
    size = dict.fromkeys(order, 1)
    for u in reversed(order):
        p = meta[u].parent
        if p is not None:
            size[p] += size[u]
    return {u: (i, i + size[u] - 1) for i, u in enumerate(order)}


def _sketch_disjoint(span: Mapping[int, tuple[int, int]], x: int, y: int) -> bool:
    """Is neither of ``x`` and ``y`` on the other's root chain, per a
    sketch's :func:`_preorder_spans`?"""
    (x0, x1), (y0, y1) = span[x], span[y]
    return x1 < y0 or y1 < x0


def _partners(span: Mapping[int, tuple[int, int]], meta: Mapping[int, SketchMeta],
              v: int) -> list[int]:
    """The ids of ``v``'s sketch ``meta`` (spans ``span``) off ``v``'s root
    chain and out of ``desc(v)``, ascending."""
    return [u for u in sorted(meta) if u != v and _sketch_disjoint(span, u, v)]


def _by_gamma(meta: Mapping[int, SketchMeta], ids: Sequence[int]) -> dict[int, list[int]]:
    """``ids`` grouped by their gamma in ``meta``, each group in the order given."""
    out: dict[int, list[int]] = {}
    for u in ids:
        out.setdefault(meta[u].gamma, []).append(u)
    return out


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
        for u in _partners(_preorder_spans(meta), meta, v):
            eu, guv = meta[u].eta, meta[u].gamma
            if (ev - 2 == guv == eu - 1) or (ev - 1 == guv == eu - 2):
                out.append(_witness_report(g, tree, (v, u), CASE3, v))
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
    etas: Sequence[Mapping[int, int]],
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

    Neither sub-case tries every pair.  In both, ``ev - 1 = gvx + gvy``
    fixes ``gvy`` once ``x`` is chosen (sub-case A also needs
    ``ex - 1 = gvx``, and the same of ``y``), so each candidate list is
    indexed by gamma and only the ``y`` with that gamma are visited, in
    ascending order.  Whether two nodes are disjoint is read off preorder
    spans, worked out once per sketch (once per shared decoding for
    ``held``).
    """
    info = state.info
    tree = info.tree()
    out = []

    for v in range(g.n):
        if v == info.root:
            continue
        meta = sketches.sketches[v].meta
        ev = state.eta[v]
        span = _preorder_spans(meta)
        partners = _partners(span, meta, v)
        # x and y each need eta - 1 == gamma, and gamma(y) == ev - 1 - gamma(x)
        tight = [u for u in partners if meta[u].eta - 1 == meta[u].gamma]
        by_gamma = _by_gamma(meta, tight)
        for x in tight:
            for y in by_gamma.get(ev - 1 - meta[x].gamma, ()):
                if y > x and _sketch_disjoint(span, x, y):
                    out.append(_witness_report(g, tree, (v, x, y), CASE6, v))

    # Holders of one block share its decoding (sketch_exchange), so what a
    # block yields is worked out once per decoding, not once per holder.
    Block = tuple[dict[int, tuple[int, int]], list[int], dict[int, list[int]]]
    blocks: dict[tuple[int, int], Block] = {}

    def block(a: int, s: Mapping[int, SketchMeta]) -> Block:
        """Spans of owner ``a``'s block ``s``, its candidates, and those by gamma."""
        if (a, id(s)) not in blocks:
            span = _preorder_spans(s)
            cands = _partners(span, s, a)
            blocks[a, id(s)] = span, cands, _by_gamma(s, cands)
        return blocks[a, id(s)]

    for w, sk in enumerate(held):
        if not state.paths[w]:
            continue  # no neighbour's chain to combine with
        # A tuple (v, x, y) does not depend on which edge's chain holds x.
        theirs = {x for path in state.paths[w].values() for x in path}
        for v in info[w].ancestors[1:]:
            sv = sk[v]
            span_v, cv, by_gamma = block(v, sv)
            ev = etas[w][v]
            for x in cv:
                if x not in theirs:
                    continue
                sx = sk[x]
                span_x = block(x, sx)[0]
                ex, gvx = sv[x].eta, sv[x].gamma
                for y in by_gamma.get(ev - 1 - gvx, ()):
                    if y == x or not _sketch_disjoint(span_v, x, y):
                        continue
                    if y not in sx or not _sketch_disjoint(span_x, x, y):
                        continue
                    ey, gvy = sv[y].eta, sv[y].gamma
                    gxy = sx[y].gamma
                    if gxy > 0 and ex - 1 == gvx + gxy and ey - 1 == gvy + gxy:
                        out.append(_witness_report(g, tree, (v, x, y), CASE6, w))
    return out


# ---------------------------------------------------------------------------
# case 7: a chain of two with a third subtree hanging off elsewhere


def detect_case7(
    g: Graph, state: EtaState, etas: Sequence[Mapping[int, int]], reduced: ReducedSketchResult
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
            ev = etas[x][v]
            for u, m in sorted(sk.meta.items()):
                if u in anc:
                    continue
                if ev - 1 == h + m.gamma and m.eta - 1 == m.gamma:
                    out.append(_witness_report(g, tree, (v, x, u), CASE7, x))
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
        folds = yield from trsf_steps(engine, info, landing_spec(f"trsf:layer{i}", i), states,
                                      partial(range, i + 1))
        for a in range(g.n):
            cands = {l: z for l, z in folds[a].items() if z.is_candidate()}
            if cands:
                two[a][i] = cands
    return tuple(two)


class BridgeRecord(NamedTuple):
    """A node's parent edge is a bridge of some pivoted subgraph.

    Wire order: node id, then the shallowest such pivot's level (the
    contention key), then the node's eta.  Every subtree edge but the
    parent edge leaves the pivot's subtree, so eta - 1 of them do.
    """

    node: int
    pivot_level: int
    eta: int


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
                bridges[a] = BridgeRecord(a, lvl, eta)
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
    """Every record each node's children sent it, tagged with the
    sending child's id."""

    one: tuple[tuple[tuple[int, BridgeRecord], ...], ...]
    two: tuple[tuple[tuple[int, PairRecord], ...], ...]


def _best_detail(a, b):
    """The better of two detail records: lowest pivot level, then lowest
    node id; ``None``, no record, loses to any."""
    if a is None or b is None:
        return b if a is None else a
    return min(a, b, key=lambda r: (r.pivot_level, r[0]))


def _detail_spec(label: str, cls: type) -> SemigroupSpec:
    """The fold of the best ``cls`` record per depth cohort.

    A record travels as a presence flag, then, when the flag is set, its
    fields; an absent record is the flag alone.  A node's state maps its
    own level to its own record, so its atom is that record in its own
    cohort and absent in every deeper one.
    """
    fields = len(cls._fields)
    return SemigroupSpec(
        name=label,
        combine=_best_detail,
        atomic=dict.get,
        encode=lambda r: (0,) if r is None else (1, *r),
        decode=lambda words: cls(*words[1:]) if words[0] else None,
        tail_words=lambda head: fields if head[0] else 0,
    )


def _details_steps(
    engine: Engine,
    info: BfsInfo,
    bridges: Sequence[BridgeRecord | None],
    pairs: Sequence[PairRecord | None],
) -> Steps:
    """:func:`convergecast_details` as a chain of two folds."""

    def cohorts(level: int) -> range:
        return range(level, info.depth + 1)

    waves = []
    for label, cls, records in ((LABEL_DETAILS1, BridgeRecord, bridges),
                                (LABEL_DETAILS2, PairRecord, pairs)):
        states = [{info[v].level: r} for v, r in enumerate(records)]
        folds = yield from trsf_steps(engine, info, _detail_spec(label, cls), states, cohorts)
        waves.append(tuple(
            tuple(sorted(
                (cid, folds[cid][d]) for cid, _ in nb.children
                for d in cohorts(nb.level + 1) if folds[cid][d] is not None
            ))
            for nb in info.nodes
        ))
    return ConvergecastResult(*waves)


def convergecast_details(
    engine: Engine,
    info: BfsInfo,
    bridges: Sequence[BridgeRecord | None],
    pairs: Sequence[PairRecord | None],
) -> ConvergecastResult:
    """Two pipelined waves, bridge records first, pair records second.

    Each wave is a fold over depth cohorts: every node sends up one
    record per depth from its own level to the tree's, its own record
    first and then, for each deeper depth, the best that its children
    sent for that depth (lowest pivot level, then lowest node id).  A
    record is 3 or 6 words behind a presence flag.  Returns, per node,
    the present records its children sent, which is what the node
    decoded.
    """
    return engine.run_chain(_details_steps(engine, info, bridges, pairs))


def detect_case5(
    g: Graph, state: EtaState, etas: Sequence[Mapping[int, int]], received: ConvergecastResult
) -> list[CutReport]:
    """A fork: two disjoint subtrees under a third, seen from no single
    chain.

    A node x on the path between the prongs' meeting point and the fork
    subtree assembles the picture from the details that reached it:
    either two bridge records from different child edges (the prongs
    have no edges between them) or one pair record (they do).  x tries
    its own ancestors z as the fork, from the deeper of level 1 and the
    records' pivots down to itself.  For prongs d1 and d2 under z the
    side desc(z) - desc(d1) - desc(d2) has the boundary

        ez + e1 + e2 - 2·(H(d1, z) + H(d2, z) + between),

    H(d, z) counting desc(d)'s edges that leave desc(z).  At or below a
    record's pivot, every edge of desc(d) but the parent edge and those
    to the partner leaves desc(z), so H(d, z) = ed - 1 - between (a
    bridge record has no edge to its partner), and the boundary is 3
    exactly when ez + 1 == e1 + e2 - 2·between.  Above the pivot that
    count does not hold, so no fork there is tried.

    A bridge record's prong is x's descendant, so it lies under every
    fork x tries.  A pair record's partner need not: it lies under the
    pivot, but whether it lies under a deeper z is the one fact the
    record does not carry (it would cost a word per record), so x reads
    it from the observer's tree.  This is the one place a detector does.
    Subtrees shrink as z goes deeper, so the first fork that misses the
    partner ends the search.
    """
    info = state.info
    tree = info.tree()
    out = []
    for x in range(g.n):
        nb = info[x]
        got = received.one[x]
        for i, (c1, d1) in enumerate(got):
            for c2, d2 in got[i + 1 :]:
                if c1 == c2:
                    continue
                top = max(1, d1.pivot_level, d2.pivot_level)
                for z in nb.ancestors[top : nb.level + 1]:
                    if etas[x][z] + 1 == d1.eta + d2.eta:
                        out.append(_witness_report(g, tree, (z, d1.node, d2.node), CASE5, x))
        for _, d in received.two[x]:
            outward = d.eta1 + d.eta2 - 2 - 2 * d.between
            for z in nb.ancestors[max(1, d.pivot_level) : nb.level + 1]:
                if d.node2 not in tree.desc(z):
                    break
                if etas[x][z] - 1 == outward:
                    out.append(_witness_report(g, tree, (z, d.node1, d.node2), CASE5, x))
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
    size-2 stage's eta lookups (:func:`preprocess_zeta`) and fold; every
    detector that reads an ancestor's eta reads it from the former, and
    the latter is the layered scan's layer 0.

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
    reports += detect_case2(g, state, etas)
    reports += detect_case4(g, state, etas, hcast)
    reports += detect_case3(g, state, sk3)
    # The exchange is the battery's largest object; nothing after case 6
    # reads it, so it is not kept alive past that detector.
    reports += detect_case6(g, state, etas, sk3, sketch_exchange(engine, info, sk3, state.paths))

    red2 = distributed_reduced_sketch(engine, info, state, 2, etas, up=sk3)
    reports += detect_case7(g, state, etas, red2)

    bridges, pairs = compute_cut_details(info, state, engine.join(scan))
    reports += detect_case5(g, state, etas, convergecast_details(engine, info, bridges, pairs))

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
        pairs = detect_2cuts(g, state, etas, zeta)
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
