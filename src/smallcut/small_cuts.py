"""Finding every cut of size one and two.

The whole stage runs on top of one BFS tree.  Each node first learns, for
every ancestor ``v``, how many of its own edges leave ``desc(v)``; folding
those per-node counts up the tree gives ``eta(v) = |boundary(desc(v))|``
for every vertex at once.  A bridge is a tree edge with ``eta(v) = 1``.

Size-2 cuts split into three shapes, each decided by a local test:

* one tree edge plus one other edge -- exactly the nodes with ``eta(v) = 2``;
* two nested tree edges -- a subtree-crossing count drops both boundaries
  to one;
* two disjoint tree edges -- found by folding the landing algebra
  (:func:`landing_combine` over :class:`Zeta`) that tracks where a
  subtree's outgoing edges land.

Detected cuts are collected by the observer, never shipped over the
simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .graphs import Graph, boundary, edge_pairs
from .runtime import Engine
from .trees import (
    BfsInfo,
    ListExchange,
    SemigroupSpec,
    broadcast_t1,
    nontree_exchange,
    trsf_compute,
)

LABEL_ETA_PRE = "eta:pre"
LABEL_ZETA_PRE = "zeta:pre"

CASE_ONE_RESPECT = "1-respect"
CASE_NESTED = "2-nested"
CASE_DISJOINT = "2-disjoint"

_CASE_RANK = {CASE_ONE_RESPECT: 0, CASE_NESTED: 1, CASE_DISJOINT: 2}

TAG_IDENTITY = 0
TAG_ABSORBING = 1
TAG_CANDIDATE = 2


class Zeta(NamedTuple):
    """Element of the fold algebra behind the disjoint-pair search.

    A candidate ``<w, parent, eta, gamma>`` says: every non-tree edge seen
    so far that leaves the reference subtree lands inside ``desc(w)``, and
    there are ``gamma`` of them.  The identity means "no such edge yet";
    absorbing means the edges already scatter over two different targets
    (or escape above the reference level), so no single partner exists.
    """

    tag: int
    w: int = 0
    parent: int = 0
    eta: int = 0
    gamma: int = 0

    def is_candidate(self) -> bool:
        return self.tag == TAG_CANDIDATE


ZETA_IDENTITY = Zeta(TAG_IDENTITY)
ZETA_ABSORBING = Zeta(TAG_ABSORBING)


def zeta_candidate(w: int, parent: int, eta: int, gamma: int) -> Zeta:
    if gamma < 1:
        raise ValueError("candidate without any witnessed edge")
    return Zeta(TAG_CANDIDATE, w, parent, eta, gamma)


def landing_combine(a, b):
    """Merge two elements of a landing algebra (commutative, associative).

    The elements are ``Zeta``-shaped named tuples: a leading ``tag`` and a
    trailing ``gamma`` count.  Two candidates merge only when every other
    field agrees, and their counts then add; any disagreement absorbs.
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


def landing_spec(name: str, cls, atomic) -> SemigroupSpec:
    """Fold of the landing algebra over elements of the named tuple ``cls``.

    A candidate travels as all of its fields, tag first; the identity and
    absorbing elements as the tag alone.
    """
    tail = len(cls._fields) - 1
    return SemigroupSpec(
        name=name,
        combine=landing_combine,
        atomic=atomic,
        encode=lambda z: tuple(z) if z.tag == TAG_CANDIDATE else (z.tag,),
        decode=lambda words: cls(*words),
        head_words=1,
        tail_words=lambda head: tail if head[0] == TAG_CANDIDATE else 0,
        identity=cls(TAG_IDENTITY),
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
    ``subtree_cross[a][v]`` sums that over ``desc(a)``; ``anc_eta[a]``
    maps every ancestor ``v`` of ``a`` to ``eta(v)``.
    """

    info: BfsInfo
    eta: tuple[int, ...]
    own_cross: tuple[dict[int, int], ...]
    subtree_cross: tuple[dict[int, int], ...]
    anc_eta: tuple[dict[int, int], ...]


def preprocess_eta(engine: Engine, info: BfsInfo) -> tuple[dict[int, int], ...]:
    """Exchange ancestor lists with all neighbours; count escaping edges.

    An edge (a, b) leaves ``desc(v)`` exactly when v is not an ancestor
    of b, so after one pipelined exchange every node can fill in its own
    crossing table locally (``EtaState.own_cross``).  Runs in O(depth)
    rounds.
    """
    g = engine.g
    programs = []
    for a in range(g.n):
        nb = info[a]
        outgoing = {eid: nb.ancestors for _, eid in g.inc[a]}
        incoming = {eid: nb.neighbor_levels[eid] + 1 for _, eid in g.inc[a]}
        programs.append(ListExchange(engine.handles[a], outgoing, incoming))
    engine.run_phase(LABEL_ETA_PRE, programs)

    own_cross = []
    for a in range(g.n):
        sets = [{rec[0] for rec in recs} for recs in programs[a].received.values()]
        own_cross.append(
            {v: sum(1 for s in sets if v not in s) for v in info[a].ancestors}
        )
    return tuple(own_cross)


def compute_eta(engine: Engine, info: BfsInfo, own_cross: tuple[dict[int, int], ...]) -> EtaState:
    """Fold the crossing counts into eta(v) for every v, then push each
    eta(v) back down to desc(v)."""
    n = engine.g.n
    m = engine.g.m
    spec = SemigroupSpec(
        name="eta",
        combine=lambda x, y: x + y,
        atomic=lambda by_level, l: by_level[l],
        encode=lambda x: (x,),
        decode=lambda words: words[0],
        identity=0,
    )
    states = [
        [own_cross[a][v] for v in info[a].ancestors] for a in range(n)
    ]
    folds = trsf_compute(engine, info, spec, states)

    eta = tuple(folds[a].f for a in range(n))
    anc_eta = tuple(broadcast_t1(engine, info, list(eta)))
    subtree_cross = tuple(
        {info[a].ancestors[l]: val for l, val in folds[a].partials.items()}
        for a in range(n)
    )

    assert eta[info.root] == 0
    for a in range(n):
        if a != info.root:
            assert eta[a] >= 1, "subtree boundary empty in a connected graph"
        assert subtree_cross[a][a] == eta[a]
        for v in info[a].ancestors:
            assert 0 <= own_cross[a][v] <= subtree_cross[a][v]
            assert subtree_cross[a][v] <= anc_eta[a][v] <= m
    return EtaState(info, eta, own_cross, subtree_cross, anc_eta)


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


def preprocess_zeta(
    engine: Engine, info: BfsInfo, state: EtaState
) -> tuple[dict[int, tuple[tuple[int, int, int], ...]], ...]:
    """Exchange (level, eta, id) annotated ancestor lists over non-tree edges.

    Returns, per node, a map from non-tree edge id to the neighbour's
    annotated ancestor list in root-to-node order.
    """
    def words(a: int) -> list[int]:
        return [x for lvl, u in enumerate(info[a].ancestors) for x in (lvl, state.anc_eta[a][u], u)]

    heard = nontree_exchange(engine, info, LABEL_ZETA_PRE, words, lambda level: level + 1, 3)
    return tuple({eid: tuple(recs) for eid, recs in per_edge.items()} for per_edge in heard)


def _zeta_atom(node_state, l: int) -> Zeta:
    """Where do this node's non-tree edges land, seen from ancestor level l?"""
    nb, per_edge = node_state
    v = nb.ancestors[l]
    best: Zeta | None = None
    for triples in per_edge.values():
        if len(triples) - 1 < l:
            return ZETA_ABSORBING  # the edge climbs above level l entirely
        _, eta_w, w = triples[l]
        if w == v:
            continue  # edge stays inside desc(v)
        parent_w = triples[l - 1][2]
        if best is None:
            best = zeta_candidate(w, parent_w, eta_w, 1)
        elif best.w == w:
            best = best._replace(gamma=best.gamma + 1)
        else:
            return ZETA_ABSORBING
    return ZETA_IDENTITY if best is None else best


def compute_zeta(
    engine: Engine,
    info: BfsInfo,
    state: EtaState,
    annotated: tuple[dict[int, tuple[tuple[int, int, int], ...]], ...],
) -> tuple[dict[int, Zeta], ...]:
    """Fold the landing algebra over each subtree.

    ``annotated`` is what :func:`preprocess_zeta` heard.  Returns, per
    node a, a map v -> fold over desc(a) for every ancestor v of a
    (including a itself).
    """
    n = engine.g.n
    spec = landing_spec("zeta", Zeta, _zeta_atom)
    states = [(info[a], annotated[a]) for a in range(n)]
    folds = trsf_compute(engine, info, spec, states)
    tables = tuple(
        {info[a].ancestors[l]: z for l, z in folds[a].partials.items()}
        for a in range(n)
    )
    for table in tables:
        for z in table.values():
            if z.is_candidate():
                # In a real run the witnessed edges all sit on the
                # boundary of desc(w), so the count can never exceed it.
                assert 1 <= z.gamma <= z.eta and z.w != info.root
    return tables


def detect_2cuts(
    g: Graph, state: EtaState, zeta: tuple[dict[int, Zeta], ...]
) -> list[CutReport]:
    """All induced two-edge cuts, each reported once.

    The raw output is every induced cut of size two; whether those are
    minimum cuts depends on the graph (the caller gates on the size-1
    stage coming up empty).
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
            if state.anc_eta[a][v] - cross == 1 and state.eta[a] - cross == 1:
                pv = info[v].parent
                pair = tuple(sorted({(min(pv, v), max(pv, v)), own_edge}))
                found.append(CutReport(pair, CASE_NESTED, a))
        for v, z in zeta[a].items():
            if not z.is_candidate():
                continue
            if state.eta[a] - z.gamma == 1 and z.eta - z.gamma == 1:
                other = (min(z.parent, z.w), max(z.parent, z.w))
                pair = tuple(sorted({other, own_edge}))
                found.append(CutReport(pair, CASE_DISJOINT, a))

    return dedupe_reports(found, _CASE_RANK)
