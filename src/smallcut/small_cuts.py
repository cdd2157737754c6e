"""Finding every cut of size one and two.

The whole stage runs on top of one BFS tree.  Each node first works out,
for every ancestor ``v``, how many of its own edges leave ``desc(v)``,
from the root paths of its non-tree neighbours that the tree's ancestor
cast delivered (``NodeBfs.paths``, which every later stage reuses);
folding those per-node counts up the tree gives
``eta(v) = |boundary(desc(v))|`` for every vertex at once.  A bridge is a
tree edge with ``eta(v) = 1``.

Size-2 cuts split into three shapes, each decided by a local test:

* one tree edge plus one other edge -- exactly the nodes with ``eta(v) = 2``;
* two nested tree edges -- a subtree-crossing count drops both boundaries
  to one;
* two disjoint tree edges -- found by folding the landing algebra
  (:func:`landing_combine` over :class:`LayerCand`) that tracks where a
  subtree's outgoing edges land; its input is each neighbour's root
  path with its etas.  The ids are already known, and one cast sends
  every eta down its subtree and across non-tree edges, minus those of
  the prefix both ends share.  The same fold, restricted to edges
  under a deeper pivot, is the size-3 battery's layered scan; this one
  is its layer 0.

Detected cuts are collected by the observer, never shipped over the
simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping, NamedTuple, Sequence

from .graphs import Graph, boundary, edge_pairs
from .runtime import Engine, ProtocolError
from .trees import (
    BfsInfo,
    SemigroupSpec,
    broadcast_t1,
    shared_prefix,
    trsf_compute,
)

CASE_ONE_RESPECT = "1-respect"
CASE_NESTED = "2-nested"
CASE_DISJOINT = "2-disjoint"

_CASE_RANK = {CASE_ONE_RESPECT: 0, CASE_NESTED: 1, CASE_DISJOINT: 2}

TAG_IDENTITY = 0
TAG_ABSORBING = 1
TAG_CANDIDATE = 2


class LayerCand(NamedTuple):
    """Element of the landing algebra: do all qualifying boundary edges
    land in a single partner subtree ``desc(w)``?

    Seen from a pivot ``u`` and a reference ancestor ``v``, a candidate
    says: every non-tree edge so far that stays under ``u`` but leaves
    ``desc(v)`` lands inside ``desc(w)``, and there are ``gamma`` of
    them.  ``stay`` is the partner's boundary within ``desc(u)`` and
    ``eta`` its full boundary; at pivot 0 (the root, the whole graph)
    the two agree.  At a fixed pivot and reference level both are
    functions of ``w``, so two candidates merge exactly when they name
    the same partner.  The identity means "no such edge yet"; absorbing
    means the edges scatter over two targets or land between the pivot
    and the reference level, so no single partner exists.
    """

    tag: int
    w: int = 0
    stay: int = 0
    eta: int = 0
    gamma: int = 0

    def is_candidate(self) -> bool:
        return self.tag == TAG_CANDIDATE


LAYER_IDENTITY = LayerCand(TAG_IDENTITY)
LAYER_ABSORBING = LayerCand(TAG_ABSORBING)


def landing_combine(a, b):
    """Merge two elements of a landing algebra (commutative, associative).

    The elements are :class:`LayerCand`-shaped named tuples: a leading
    ``tag`` and a trailing ``gamma`` count.  Two candidates merge only
    when every other field agrees, and their counts then add; any
    disagreement absorbs.
    """
    if a.tag == TAG_IDENTITY:
        return b
    if b.tag == TAG_IDENTITY or a.tag == TAG_ABSORBING:
        return a
    if b.tag == TAG_ABSORBING:
        return b
    if a[:-1] == b[:-1]:
        return a._replace(gamma=a.gamma + b.gamma)
    return type(a)(TAG_ABSORBING)


def landing_spec(name: str, pivot_level: int) -> SemigroupSpec:
    """Fold of the landing algebra pivoted at ``pivot_level``, atoms from
    :func:`_layer_atom`.

    A candidate travels as its fields, tag first; the identity and
    absorbing elements as the tag alone.  At pivot 0 ``stay == eta``, so
    a candidate goes without ``stay`` and the receiver fills it in.
    """
    full = pivot_level > 0

    def encode(z: LayerCand) -> tuple[int, ...]:
        if z.tag != TAG_CANDIDATE:
            return (z.tag,)
        return tuple(z) if full else (z.tag, z.w, z.eta, z.gamma)

    def decode(words: tuple[int, ...]) -> LayerCand:
        if full or len(words) == 1:
            return LayerCand(*words)
        return LayerCand(*words[:3], *words[2:])  # (tag, w, eta, gamma): stay = eta

    tail = len(LayerCand._fields) - (1 if full else 2)
    return SemigroupSpec(
        name=name,
        combine=landing_combine,
        atomic=partial(_layer_atom, pivot_level),
        encode=encode,
        decode=decode,
        head_words=1,
        tail_words=lambda head: tail if head[0] == TAG_CANDIDATE else 0,
        identity=LAYER_IDENTITY,
    )


@dataclass(frozen=True)
class CutReport:
    """One detected cut: canonical edge pairs plus how it was found."""

    edges: tuple[tuple[int, int], ...]
    case: str
    detected_by: int

    @property
    def size(self) -> int:
        return len(self.edges)


def dedupe_reports(reports: list[CutReport], case_rank: dict[str, int]) -> list[CutReport]:
    """One report per cut, sorted by edges: the lowest-ranked case wins,
    then the lowest detecting node."""
    reports.sort(key=lambda r: (case_rank[r.case], r.detected_by, r.edges))
    unique: dict[tuple, CutReport] = {}
    for r in reports:
        unique.setdefault(r.edges, r)
    return sorted(unique.values(), key=lambda r: r.edges)


@dataclass(frozen=True)
class EtaState:
    """Everything the size-1/2 tests need, as each node ends up knowing it.

    ``own_cross[a][v]`` counts edges at ``a`` leaving ``desc(v)``;
    ``subtree_cross[a][v]`` sums that over ``desc(a)``; ``paths[a]`` is
    ``NodeBfs.paths``, each non-tree edge at ``a`` mapped to the
    neighbour's root path (ids).
    """

    info: BfsInfo
    eta: tuple[int, ...]
    own_cross: tuple[dict[int, int], ...]
    subtree_cross: tuple[dict[int, int], ...]
    paths: tuple[dict[int, tuple[int, ...]], ...]


def preprocess_eta(engine: Engine, info: BfsInfo) -> tuple[dict[int, int], ...]:
    """Count escaping edges: per node ``a``, a map from each ancestor
    ``v`` to the edges at ``a`` leaving ``desc(v)``.

    An edge (a, b) leaves ``desc(v)`` exactly when v is not an ancestor
    of b, and the BFS tree's ancestor cast already gave every node each
    non-tree neighbour's root path, so no phase runs.  Tree edges need
    no words: a child's root path contains all of a's, and the parent's
    lacks only a, so the parent edge leaves ``desc(a)`` and no larger
    subtree.
    """
    own_cross = []
    for nb in info.nodes:
        shared = [shared_prefix(nb.ancestors, path) for path in nb.paths.values()]
        # the edge leaves desc(v) exactly when v is off the shared prefix
        cross = {v: sum(1 for s in shared if s <= l) for l, v in enumerate(nb.ancestors)}
        if not nb.is_root:
            cross[nb.id] += 1  # the parent edge
        own_cross.append(cross)
    return tuple(own_cross)


def compute_eta(engine: Engine, info: BfsInfo, pre: Sequence[Mapping[int, int]]) -> EtaState:
    """Fold the crossing counts ``pre`` (:func:`preprocess_eta`) into
    eta(v) for every v, in one wave up the tree."""
    n = engine.g.n
    m = engine.g.m
    spec = SemigroupSpec(
        name="trsf:eta",
        combine=lambda x, y: x + y,
        atomic=lambda by_level, l: by_level[l],
        encode=lambda x: (x,),
        decode=lambda words: words[0],
        identity=0,
    )
    own_cross = tuple(pre)
    states = [
        [own_cross[a][v] for v in info[a].ancestors] for a in range(n)
    ]
    folds = trsf_compute(engine, info, spec, states)

    eta = tuple(folds[a][info[a].level] for a in range(n))
    subtree_cross = tuple(
        {info[a].ancestors[l]: val for l, val in folds[a].items()}
        for a in range(n)
    )

    if eta[info.root] != 0:
        raise ProtocolError(f"eta: the root's boundary is {eta[info.root]}, not empty")
    for a in range(n):
        if a != info.root and eta[a] < 1:
            raise ProtocolError(f"eta: node {a}'s subtree boundary is empty in a connected graph")
        for v in info[a].ancestors:
            if not 0 <= own_cross[a][v] <= subtree_cross[a][v] <= eta[v] <= m:
                raise ProtocolError(f"eta: node {a}'s crossing counts toward {v} are out of order")
    return EtaState(info, eta, own_cross, subtree_cross, tuple(nb.paths for nb in info.nodes))


def detect_1cuts(state: EtaState) -> list[CutReport]:
    """A tree edge (parent(v), v) is a bridge exactly when eta(v) = 1."""
    reports = []
    for v in range(len(state.eta)):
        if v != state.info.root and state.eta[v] == 1:
            p = state.info[v].parent
            reports.append(
                CutReport(((min(p, v), max(p, v)),), CASE_ONE_RESPECT, v)
            )
    return reports


def preprocess_zeta(engine: Engine, info: BfsInfo, state: EtaState) -> tuple[dict[int, int], ...]:
    """Cast every eta down its subtree and across non-tree edges, in one
    ``broadcast1`` phase.

    The ids are already known (``state.paths``), and both ends of a
    non-tree edge hold the etas of the root-path prefix they share, so
    only the etas of each chain below that prefix cross.  Returns, per
    node, one eta lookup by owner id: its own ancestors and the unshared
    part of each non-tree neighbour's chain.
    """
    return tuple(broadcast_t1(engine, info, state.eta, paths=state.paths))


def _layer_atom(pivot_level: int, node_state, l: int) -> LayerCand:
    """Where do this node's non-tree edges that stay under its
    level-``pivot_level`` ancestor land, seen from ancestor level ``l``?

    ``node_state`` is the node's ``BfsInfo`` entry, its neighbours' root
    paths (``EtaState.paths``), its eta lookup from :func:`preprocess_zeta`
    and the crossing-count rows it holds after ``hcast`` (read only below
    pivot 0); etas and rows are looked up by owner id.
    """
    nb, paths, etas, rows = node_state
    v = nb.ancestors[l]
    u = nb.ancestors[pivot_level]
    acc = LAYER_IDENTITY
    for path in paths.values():
        lq = len(path) - 1
        if lq < pivot_level or path[pivot_level] != u:
            continue  # the edge leaves the pivot's subtree: not ours to count
        if lq < l:
            return LAYER_ABSORBING  # lands between the pivot and the layer
        w = path[l]
        if w == v:
            continue  # stays inside desc(v)
        eta_w = etas[w]
        cross_wu = rows[w][pivot_level - 1] if pivot_level else 0
        acc = landing_combine(acc, LayerCand(TAG_CANDIDATE, w, eta_w - cross_wu, eta_w, 1))
    return acc


def compute_zeta(
    engine: Engine, info: BfsInfo, state: EtaState, etas: Sequence[Mapping[int, int]]
) -> tuple[dict[int, LayerCand], ...]:
    """Fold the landing algebra over each subtree, pivoted at the root.

    The atoms read the neighbours' ids from ``state.paths`` and their
    etas from ``etas``, :func:`preprocess_zeta`'s lookups.  Returns, per
    node a, a map v -> fold over desc(a) for every ancestor v of a
    (including a itself).  This is also layer 0 of the layered scan.
    """
    n = engine.g.n
    spec = landing_spec("trsf:zeta", 0)
    states = [(info[a], state.paths[a], etas[a], None) for a in range(n)]
    folds = trsf_compute(engine, info, spec, states)
    tables = tuple(
        {info[a].ancestors[l]: z for l, z in folds[a].items()}
        for a in range(n)
    )
    for table in tables:
        for z in table.values():
            if z.is_candidate():
                # In a real run the witnessed edges all sit on the
                # boundary of desc(w), so the count can never exceed it.
                if not 1 <= z.gamma <= z.eta or z.w == info.root:
                    raise ProtocolError(f"zeta: impossible candidate {z}")
    return tables


def detect_2cuts(
    g: Graph,
    state: EtaState,
    etas: Sequence[Mapping[int, int]],
    zeta: tuple[dict[int, LayerCand], ...],
) -> list[CutReport]:
    """All induced two-edge cuts, each reported once.

    A node reads its ancestors' etas from ``etas``, the lookups
    :func:`preprocess_zeta` returns.  The raw output is every induced
    cut of size two; whether those are minimum cuts depends on the graph
    (the caller gates on the size-1 stage coming up empty).
    """
    info = state.info
    tree = info.tree()
    found: list[CutReport] = []

    for v in range(g.n):
        if v != info.root and state.eta[v] == 2:
            edges = edge_pairs(g, boundary(g, tree.desc(v)))
            found.append(CutReport(edges, CASE_ONE_RESPECT, v))

    for a in range(g.n):
        if a == info.root:
            continue
        pa = info[a].parent
        own_edge = (min(pa, a), max(pa, a))
        for v in info[a].ancestors[:-1]:
            cross = state.subtree_cross[a][v]
            if etas[a][v] - cross == 1 and state.eta[a] - cross == 1:
                pv = info[v].parent
                pair = tuple(sorted({(min(pv, v), max(pv, v)), own_edge}))
                found.append(CutReport(pair, CASE_NESTED, a))
        for v, z in zeta[a].items():
            if not z.is_candidate():
                continue
            if state.eta[a] - z.gamma == 1 and z.eta - z.gamma == 1:
                pw = info[z.w].parent
                other = (min(pw, z.w), max(pw, z.w))
                pair = tuple(sorted({other, own_edge}))
                found.append(CutReport(pair, CASE_DISJOINT, a))

    return dedupe_reports(found, _CASE_RANK)
