"""Truncated subtree summaries ("sketches") for locating distant cut partners.

Detecting a three-edge cut can require pairing a tree edge with another
tree edge whose subtree sits far away.  Shipping whole subtrees around is
hopeless under one-word messages, so every node assembles a *sketch*: take
the root paths of every vertex adjacent (by a non-tree edge) to the node's
subtree, union them into one rooted tree, prune the regions where that
union branches too aggressively, and annotate each surviving node with a
small statistics tuple.  The result is sized by the branching budget, not
by ``n``, yet still rich enough to evaluate the cut lemmas against faraway
subtrees.

Three layers live here:

* a centralized reference (:func:`build_canonical`,
  :func:`reference_k_sketch`) computing canonical trees, branching numbers
  and sketches straight from the graph — the oracle the tests trust;
* a distributed bottom-up wave (:func:`distributed_k_sketch`): each node
  merges its children's sketches with its own incident-edge information,
  truncates, and forwards the result — one simulator phase;
* the reduced variant (:func:`distributed_reduced_sketch`): every internal
  node re-merges its children's contributions leaving one child out, casts
  the per-child results down that child's subtree, and each descendant
  stitches the received strata back together into ``S_k(v \\ x)`` for every
  proper ancestor ``v``.  The cast runs on the tree relay
  (``trees._Downcast``): each stratum is a view record that frames itself
  with its entry count, and relays forward it cut-through.

Sketch metas record, per surviving node ``u``: the host-tree parent, the
subtree boundary size ``eta(u)``, and a crossing count ``gamma`` between
the sketch's source region and ``desc(u)``.  ``gamma`` equals the plain
edge count between the regions when they are disjoint, and the one-sided
boundary count when the source lies inside ``desc(u)``; for nodes strictly
inside the source region the quantity is neither needed by any consumer
nor recoverable from truncated summaries, so both layers record ``0``
there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, NamedTuple, Sequence

from .graphs import Graph, RootedTree, boundary, gamma, non_tree_eids
from .runtime import Engine, ProtocolError, WordProgram, word_size_bits
from .small_cuts import EtaState
from .trees import BfsInfo, _Downcast, _run_relay

__all__ = [
    "SketchSource",
    "CanonicalTree",
    "build_canonical",
    "first_branch_node",
    "branching_number",
    "branching_numbers",
    "SketchMeta",
    "SketchTree",
    "ENTRY_WORDS",
    "encode_entries",
    "decode_entries",
    "reference_k_sketch",
    "WireView",
    "SketchUpResult",
    "distributed_k_sketch",
    "ReducedSketchResult",
    "distributed_reduced_sketch",
    "SIZE_BOUND_FACTOR",
]

LABEL_SKETCH = "sketch"  # up-wave phase label: f"sketch{k}"
LABEL_REDUCED = "rsketch"  # downcast phase label: f"rsketch{k}"

#: Node-count slack for the hard size check in the distributed wave: a
#: sketch may hold at most ``SIZE_BOUND_FACTOR * 2**k * max(depth, 1)``
#: nodes before the merge declares an invariant breach.
SIZE_BOUND_FACTOR = 12


# ---------------------------------------------------------------------------
# sources and canonical trees (centralized reference layer)


@dataclass(frozen=True)
class SketchSource:
    """Region of the host tree a sketch summarizes.

    ``v`` alone denotes ``desc(v)``; with ``exclude=c`` it denotes
    ``desc(v) - desc(c)`` (the reduced variant, ``c`` a proper descendant
    of ``v``); with ``whole_subtree=False`` it denotes the single vertex.
    """

    v: int
    exclude: int | None = None
    whole_subtree: bool = True

    def members(self, tree: RootedTree) -> frozenset[int]:
        if not self.whole_subtree:
            if self.exclude is not None:
                raise ValueError("single-vertex source cannot exclude a subtree")
            return frozenset((self.v,))
        base = tree.desc(self.v)
        if self.exclude is None:
            return base
        if self.exclude == self.v or self.exclude not in base:
            raise ValueError(f"{self.exclude} is not a proper descendant of {self.v}")
        return base - tree.desc(self.exclude)


@dataclass(frozen=True)
class CanonicalTree:
    """Union of root paths reaching a source region's non-tree neighbourhood.

    Holds ``rho(x)`` for ``x = source.v`` and for every endpoint of a
    non-tree edge with at least one end among the source's members.
    Ancestor-closed by construction, so parents agree with the host tree.
    """

    root: int
    source: SketchSource
    nodes: frozenset[int]
    parent: Mapping[int, int | None] = field(compare=False)
    level: Mapping[int, int] = field(compare=False)

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {u: [] for u in self.nodes}
        for u in sorted(self.nodes):
            p = self.parent[u]
            if p is not None:
                out[p].append(u)
        return out


def _nontree_targets(g: Graph, tree: RootedTree, members: frozenset[int]) -> set[int]:
    """Endpoints of non-tree edges having at least one end in ``members``."""
    targets: set[int] = set()
    for eid in non_tree_eids(g, tree):
        a, b = g.edges[eid]
        if a in members:
            targets.add(b)
        if b in members:
            targets.add(a)
    return targets


def build_canonical(tree: RootedTree, g: Graph, source: SketchSource) -> CanonicalTree:
    """Assemble the canonical tree for ``source`` directly from the graph."""
    members = source.members(tree)
    anchors = {source.v}
    anchors.update(_nontree_targets(g, tree, members))
    nodes: set[int] = set()
    for x in anchors:
        nodes.update(tree.ancestors(x))
    parent = {u: tree.parent[u] for u in nodes}
    level = {u: tree.level[u] for u in nodes}
    return CanonicalTree(
        root=tree.root,
        source=source,
        nodes=frozenset(nodes),
        parent=parent,
        level=level,
    )


# ---------------------------------------------------------------------------
# branching numbers


def _branching(
    root: int,
    children: Mapping[int, Sequence[int]],
    level: Mapping[int, int],
) -> tuple[int, dict[int, int]]:
    """First branch node and per-node branching numbers of a rooted tree.

    Along the trunk down to the first branch node the number is 1 (2 at a
    root that never branches, or that branches immediately); past it, a
    node inherits ``deg(parent) + xi(parent) - 2``, so every extra sibling
    anywhere compounds downward.  ``deg`` counts tree neighbours, parent
    edge included.
    """
    parent: dict[int, int] = {}
    for p, ch in children.items():
        for c in ch:
            parent[c] = p
    branch_nodes = [u for u, ch in children.items() if len(ch) >= 2]
    if branch_nodes:
        fbn = min(branch_nodes, key=lambda u: (level[u], u))
    else:
        fbn = root
    xi: dict[int, int] = {}
    for u in sorted(children, key=lambda u: (level[u], u)):
        if u == root and fbn == root:
            xi[u] = 2
        elif level[u] <= level[fbn] and fbn != root:
            xi[u] = 1
        else:
            p = parent[u]
            deg = len(children[p]) + (0 if p == root else 1)
            xi[u] = deg + xi[p] - 2
    return fbn, xi


def first_branch_node(ct: CanonicalTree) -> int:
    """Shallowest node of the canonical tree with two or more children."""
    fbn, _ = _branching(ct.root, ct.children(), ct.level)
    return fbn


def branching_numbers(ct: CanonicalTree) -> dict[int, int]:
    _, xi = _branching(ct.root, ct.children(), ct.level)
    return xi


def branching_number(ct: CanonicalTree, b: int) -> int:
    return branching_numbers(ct)[b]


# ---------------------------------------------------------------------------
# sketch artifacts


class SketchMeta(NamedTuple):
    """One sketch node: host-tree parent, ``eta``, ``gamma`` and the
    branching number ``xi``.  The wire does not carry ``xi`` (it is
    recomputable from structure), so decoded entries leave it ``None``."""

    parent: int | None
    eta: int
    gamma: int
    xi: int | None = None


#: Words one sketch entry takes on the wire.
ENTRY_WORDS = 4


def encode_entries(meta: Mapping[int, SketchMeta], n: int) -> tuple[int, ...]:
    """Flat word list: ``(id, parent, eta, gamma)`` per node in id order.

    The root's missing parent is encoded as ``n`` (one past any vertex id).
    """
    words: list[int] = []
    for u in sorted(meta):
        m = meta[u]
        words.extend((u, n if m.parent is None else m.parent, m.eta, m.gamma))
    return tuple(words)


def decode_entries(words: Sequence[int], n: int) -> dict[int, SketchMeta]:
    """Inverse of :func:`encode_entries`, without the branching numbers."""
    meta: dict[int, SketchMeta] = {}
    for i in range(0, len(words), ENTRY_WORDS):
        u, p, eta_u, gamma_u = words[i : i + ENTRY_WORDS]
        meta[u] = SketchMeta(None if p == n else p, eta_u, gamma_u)
    return meta


@dataclass(frozen=True)
class SketchTree:
    """A truncated canonical tree with per-node statistics.

    ``owner`` is the vertex whose region the sketch summarizes.
    ``self_witnessed`` records whether the owner lies on a path to a
    non-tree endpoint inside the region — as opposed to appearing merely
    as the tip of its own root path.  Enclosing merges need that bit to
    decide whether the owner survives into their canonical trees.
    """

    owner: int
    k: int
    meta: dict[int, SketchMeta]
    self_witnessed: bool

    @property
    def root(self) -> int:
        for u, m in self.meta.items():
            if m.parent is None:
                return u
        raise ValueError("sketch has no root")

    @property
    def nodes(self) -> tuple[int, ...]:
        """Node ids in preorder, children visited in ascending id order."""
        kids: dict[int, list[int]] = {u: [] for u in self.meta}
        root = None
        for u in sorted(self.meta):
            p = self.meta[u].parent
            if p is None:
                root = u
            else:
                kids[p].append(u)
        assert root is not None
        order: list[int] = []
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            stack.extend(reversed(kids[u]))
        return tuple(order)

    def bit_size(self, n: int) -> int:
        return len(encode_entries(self.meta, n)) * word_size_bits(n)

    def dump(self) -> str:
        """Stable text form: one ``id parent eta gamma xi`` line per node."""
        lines = []
        for u in self.nodes:
            m = self.meta[u]
            p = -1 if m.parent is None else m.parent
            lines.append(f"{u} {p} {m.eta} {m.gamma} {m.xi}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# centralized reference sketch


def reference_k_sketch(
    tree: RootedTree, g: Graph, source: SketchSource | int, k: int
) -> SketchTree:
    """Centralized oracle for the sketch a node should end up holding.

    Builds the full canonical tree, drops every node strictly inside
    ``desc(source.v)`` whose branching number exceeds ``k`` (the root path
    of ``v`` itself is immune, as is everything outside the subtree), and
    fills in exact metas from the graph.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if isinstance(source, int):
        source = SketchSource(source)
    ct = build_canonical(tree, g, source)
    xi = branching_numbers(ct)
    v = source.v
    spine = set(tree.ancestors(v))
    desc_v = tree.desc(v)
    kept = {u for u in ct.nodes if xi[u] <= k or u not in desc_v or u in spine}
    # Removals are subtree-shaped (xi never decreases moving down past the
    # first branch node), so survivors stay ancestor-closed.
    for u in kept:
        p = ct.parent[u]
        assert p is None or p in kept, "truncation broke ancestor closure"

    members = source.members(tree)
    meta: dict[int, SketchMeta] = {}
    for u in sorted(kept):
        desc_u = tree.desc(u)
        eta_u = len(boundary(g, desc_u))
        if u in spine:
            gamma_u = sum(1 for x in members for y in g.adj[x] if y not in desc_u)
        elif not (desc_u & members):
            gamma_u = gamma(g, members, desc_u)
        else:
            gamma_u = 0
        meta[u] = SketchMeta(ct.parent[u], eta_u, gamma_u, xi[u])

    witnessed = any(y in desc_v for y in _nontree_targets(g, tree, members))
    return SketchTree(owner=v, k=k, meta=meta, self_witnessed=witnessed)


# ---------------------------------------------------------------------------
# distributed layer: wire format


@dataclass(frozen=True)
class WireView:
    """One sketch as it travelled over an edge.

    ``flagged`` holds the entries whose truncation flag is set: the
    sender cut nodes below them, so consumers drop their descendants.
    ``branch_below_root`` reports that the sender's canonical tree had a
    branch node other than the root.  Consumers need the hint when
    truncation erased every visible branch: the first-branch rule labels
    the root of a bare path 2, but the untruncated tree's root deserved 1.
    """

    owner: int
    self_witnessed: bool
    entries: dict[int, SketchMeta]
    branch_below_root: bool = False
    flagged: frozenset[int] = frozenset()


#: Words of a view's header: entry count, self-witness bit, branch bit.
_VIEW_HEAD = 3


def _encode_view(sketch: SketchTree, flagged: frozenset[int], branch: bool, n: int) -> list[int]:
    """Header, the entries, then one truncation-flag word per entry."""
    meta = sketch.meta
    return [
        len(meta), int(sketch.self_witnessed), int(branch),
        *encode_entries(meta, n),
        *(int(u in flagged) for u in sorted(meta)),
    ]


def _view_body_words(head: Sequence[int]) -> int:
    return (ENTRY_WORDS + 1) * head[0]


def _decode_view(owner: int, rec: Sequence[int], n: int) -> WireView:
    count, self_bit, branch_bit = rec[:_VIEW_HEAD]
    body = rec[_VIEW_HEAD:]
    entries = decode_entries(body[: ENTRY_WORDS * count], n)
    flags = body[ENTRY_WORDS * count :]
    return WireView(
        owner,
        bool(self_bit),
        entries,
        bool(branch_bit),
        frozenset(u for u, f in zip(entries, flags) if f),
    )


# ---------------------------------------------------------------------------
# distributed layer: the merge core


class _Source(NamedTuple):
    """One ingredient of a merge plus the trust metadata attached to it.

    ``riders`` are ids that may sit in the view's entries merely because
    they lie on the ingredient's own spine — their presence alone does not
    prove membership in the canonical tree being assembled here.  The
    sender's ``self_witnessed`` bit vouches for the ids in
    ``certify_on_self``.
    """

    view: WireView
    riders: frozenset[int]
    certify_on_self: frozenset[int]


class _MergeResult(NamedTuple):
    sketch: SketchTree
    flagged: frozenset[int]
    branch_bit: bool


def _merge_sources(
    *,
    root: int,
    v: int,
    k: int,
    spine: Sequence[int],
    spine_eta: Mapping[int, int],
    sources: Sequence[_Source],
    own_paths: Sequence[Sequence[tuple[int, int, int]]] = (),
    own_gamma: Mapping[int, int] | None = None,
    own_spine_gamma: Mapping[int, int] | None = None,
    exclude: int | None = None,
    spine_gamma_table: Mapping[int, int] | None = None,
    depth_hint: int = 1,
) -> _MergeResult:
    """Union ingredient sketches into the truncated sketch owned by ``v``.

    ``own_paths`` are annotated ancestor lists ``(level, eta, id)`` of the
    owner's non-tree neighbours; ``own_gamma`` / ``own_spine_gamma`` carry
    the owner's incident-edge crossing contributions for non-spine and
    spine nodes; ``spine_gamma_table`` — available when the source region
    is exactly ``desc(v)`` — provides authoritative spine values the
    summed ones are checked against.

    The merge (1) pools all entries, checking cross-source consistency,
    (2) discards ids nobody certifies (spine tips of ingredient sketches
    that are not genuinely part of this canonical tree), (3) recomputes
    levels, the first branch node and branching numbers on the assembled
    structure, (4) removes over-budget nodes strictly inside ``desc(v)``
    together with everything a truncation flag marks, and (5) fills metas
    by category.
    """
    own_gamma = own_gamma or {}
    own_spine_gamma = own_spine_gamma or {}
    spine_set = set(spine)

    parent: dict[int, int | None] = {}
    eta: dict[int, int] = {}
    flag_in: set[int] = set()
    certified: set[int] = set()

    def _add(u: int, p: int | None, e: int) -> None:
        if u in parent:
            if parent[u] != p or eta[u] != e:
                raise ProtocolError(
                    f"inconsistent sketch entries for node {u}: "
                    f"({parent[u]}, {eta[u]}) vs ({p}, {e})"
                )
        else:
            parent[u] = p
            eta[u] = e

    prev: int | None = None
    for u in spine:
        _add(u, prev, spine_eta[u])
        prev = u
    for src in sources:
        entries = src.view.entries
        for u in sorted(entries):
            e = entries[u]
            _add(u, e.parent, e.eta)
        flag_in |= src.view.flagged
        certified.update(set(entries) - src.riders)
        if src.view.self_witnessed:
            certified.update(src.certify_on_self)
    for path in own_paths:
        prev = None
        for _lvl, eta_u, u in path:
            _add(u, prev, eta_u)
            certified.add(u)
            prev = u

    # Root chains of everything certified: the witness-backed part of the
    # canonical tree.  The owner's spine is present regardless of backing.
    witness_backed: set[int] = set()
    for u in certified:
        w: int | None = u
        while w is not None and w not in witness_backed:
            witness_backed.add(w)
            w = parent[w]
    keep: set[int] = set(spine_set) | witness_backed
    structure: dict[int, int | None] = {u: parent[u] for u in keep}
    self_witnessed = v in witness_backed

    level: dict[int, int] = {root: 0}

    def _fill_level(u: int) -> None:
        trail = []
        while u not in level:
            trail.append(u)
            p = structure[u]
            if p is None:
                raise ProtocolError(f"sketch at {v}: node {u} detached from the root")
            u = p
        base = level[u]
        for w in reversed(trail):
            base += 1
            level[w] = base

    for u in keep:
        _fill_level(u)
    children: dict[int, list[int]] = {u: [] for u in keep}
    for u in sorted(keep):
        p = structure[u]
        if p is not None:
            children[p].append(u)
    fbn, xi = _branching(root, children, level)

    # When earlier truncation hid every branch, this structure degenerates
    # to a bare path and the fallback gives the root branching number 2 —
    # but a sender's evidence of a branch below the root means the full
    # canonical tree labelled the root 1.  Non-root path nodes compute 1
    # under either reading, so only the root needs the override.
    has_branch = any(len(ch) >= 2 for ch in children.values())
    evidence = any(src.view.branch_below_root for src in sources)
    if not has_branch and evidence and len(children[root]) == 1:
        xi[root] = 1
    # Only witness-backed branches may be advertised upward.  A branch here
    # is genuine for *this* canonical tree even when one arm is bare spine
    # (the spine belongs to the tree by definition), but a consumer merges
    # under a wider source whose canonical keeps an arm only if witnesses
    # back it — and witnesses survive into every enclosing source, while
    # the bare spine need not.
    robust_branch = any(
        b != root and sum(1 for c in ch if c in witness_backed) >= 2
        for b, ch in children.items()
    )
    branch_out = robust_branch or evidence

    def _eligible(u: int) -> bool:
        # Only nodes strictly inside the owner's subtree may be removed.
        return u not in spine_set and _chain_has(structure, u, v)

    dropped: set[int] = set()
    for u in sorted(keep, key=lambda w: (level[w], w)):
        p = structure[u]
        if p is None:
            continue
        if p in dropped:
            assert _eligible(u), "removal closure escaped the owner's subtree"
            dropped.add(u)
        elif p in flag_in and _eligible(u):
            dropped.add(u)
        elif xi[u] > k and _eligible(u):
            dropped.add(u)
    kept = keep - dropped
    fired = {structure[w] for w in dropped}
    flagged = frozenset(u for u in kept if u in flag_in or u in fired)

    if len(kept) > SIZE_BOUND_FACTOR * (1 << k) * max(depth_hint, 1):
        raise ProtocolError(
            f"sketch at {v} holds {len(kept)} nodes, over the "
            f"{SIZE_BOUND_FACTOR}*2^{k}*depth budget"
        )

    meta: dict[int, SketchMeta] = {}
    for u in sorted(kept):
        if u in spine_set:
            total = own_spine_gamma.get(u, 0)
            for src in sources:
                e = src.view.entries.get(u)
                if e is not None:
                    total += e.gamma
            if spine_gamma_table is not None and total != spine_gamma_table[u]:
                raise ProtocolError(
                    f"spine crossing count mismatch at {v} for ancestor {u}: "
                    f"summed {total}, subtree table says {spine_gamma_table[u]}"
                )
            gamma_u = total
        else:
            inside_v = _chain_has(structure, u, v)
            inside_excl = exclude is not None and _chain_has(structure, u, exclude)
            if inside_v and not inside_excl:
                gamma_u = 0  # strictly interior: not meaningful, see module doc
            else:
                gamma_u = own_gamma.get(u, 0)
                for src in sources:
                    e = src.view.entries.get(u)
                    if e is not None:
                        gamma_u += e.gamma
        meta[u] = SketchMeta(structure[u], eta[u], gamma_u, xi[u])

    sketch = SketchTree(owner=v, k=k, meta=meta, self_witnessed=self_witnessed)
    return _MergeResult(sketch, flagged, branch_out)


def _chain_has(structure: Mapping[int, int | None], u: int, target: int) -> bool:
    """True when ``target`` is ``u`` itself or an ancestor of ``u``."""
    w: int | None = u
    while w is not None:
        if w == target:
            return True
        w = structure[w]
    return False


# ---------------------------------------------------------------------------
# distributed up-wave


@dataclass(frozen=True)
class SketchUpResult:
    k: int
    sketches: tuple[SketchTree, ...]
    #: per node: child id -> the sketch received from that child
    child_views: tuple[dict[int, WireView], ...]


class _SketchUp(WordProgram):
    """Convergecast: merge the children's sketches, truncate, forward up."""

    def __init__(
        self,
        node,
        info: BfsInfo,
        state: EtaState,
        annotated: Sequence[Mapping[int, Sequence[tuple[int, int, int]]]],
        k: int,
    ) -> None:
        super().__init__(node)
        self.info = info
        self.state = state
        self.annotated = annotated
        self.k = k
        self.me = info[node.id]
        self.views: dict[int, WireView] = {}
        self.result: SketchTree | None = None
        self._waiting = len(self.me.children)

    def start(self) -> None:
        for cid, eid in self.me.children:
            self.expect(eid, _VIEW_HEAD, partial(self._got_view, cid), _view_body_words)
        if self._waiting == 0:
            self._finish_up()

    def _got_view(self, cid: int, rec: tuple[int, ...]) -> None:
        self.views[cid] = _decode_view(cid, rec, self.node.n)
        self._waiting -= 1
        if self._waiting == 0:
            self._finish_up()

    def _finish_up(self) -> None:
        merged = _merge_node_sketch(
            self.info, self.state, self.annotated, self.k, self.node.id, self.views
        )
        self.result = merged.sketch
        if not self.me.is_root:
            words = _encode_view(merged.sketch, merged.flagged, merged.branch_bit, self.node.n)
            self.send(self.me.parent_eid, *words)


def _merge_node_sketch(
    info: BfsInfo,
    state: EtaState,
    annotated: Sequence[Mapping[int, Sequence[tuple[int, int, int]]]],
    k: int,
    v: int,
    views: Mapping[int, WireView],
    exclude: int | None = None,
) -> _MergeResult:
    """Owner-side merge shared by the plain wave and the reduced re-merge."""
    me = info[v]
    rho_v = list(me.ancestors)
    own_paths = []
    own_gamma: Counter[int] = Counter()
    lists = annotated[v]
    for eid in sorted(lists):
        path = lists[eid]
        own_paths.append(path)
        chain = [t[2] for t in path]
        shared = _common_prefix_len(rho_v, chain)
        for u in chain[shared:]:
            own_gamma[u] += 1
    for cid, _eid in me.children:
        own_gamma[cid] += 1  # the tree edge (v, child) crosses into desc(child)

    sources = []
    for cid in sorted(views):
        if cid == exclude:
            continue
        rho_child = frozenset(rho_v) | {cid}
        sources.append(_Source(views[cid], rho_child, frozenset((cid,))))

    return _merge_sources(
        root=info.root,
        v=v,
        k=k,
        spine=rho_v,
        spine_eta=dict(state.anc_eta[v]),
        sources=sources,
        own_paths=own_paths,
        own_gamma=own_gamma,
        own_spine_gamma=dict(state.own_cross[v]),
        exclude=exclude,
        spine_gamma_table=(dict(state.subtree_cross[v]) if exclude is None else None),
        depth_hint=info.depth,
    )


def _common_prefix_len(a: Sequence[int], b: Sequence[int]) -> int:
    shared = 0
    for x, y in zip(a, b):
        if x != y:
            break
        shared += 1
    return shared


def distributed_k_sketch(
    engine: Engine,
    info: BfsInfo,
    state: EtaState,
    k: int,
    annotated: Sequence[Mapping[int, Sequence[tuple[int, int, int]]]],
) -> SketchUpResult:
    """Run the bottom-up sketch wave; node ``v`` ends up holding ``S_k(v)``.

    ``annotated`` is the non-tree neighbour ancestor exchange, the output
    of :func:`smallcut.small_cuts.preprocess_zeta`.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    programs = [
        _SketchUp(handle, info, state, annotated, k) for handle in engine.handles
    ]
    engine.run_phase(f"{LABEL_SKETCH}{k}", programs)
    for p in programs:
        assert p.result is not None
    return SketchUpResult(
        k=k,
        sketches=tuple(p.result for p in programs),
        child_views=tuple(dict(p.views) for p in programs),
    )


# ---------------------------------------------------------------------------
# reduced sketches: leave one child out, cast down, recombine


@dataclass(frozen=True)
class ReducedSketchResult:
    k: int
    #: per node x: ancestor id v (proper, non-root) -> S_k(v \ x)
    per_node: tuple[dict[int, SketchTree], ...]


def _strata_merge(
    info: BfsInfo, x: int, i: int, strata: Sequence[WireView], k: int
) -> SketchTree:
    """Union strata ``S_k(w_j \\ w_(j+1))``, ``j >= i``, into ``S_k(v \\ x)``."""
    me = info[x]
    rho_v = list(me.ancestors[: i + 1])
    v = rho_v[-1]
    sources = []
    for j, view in enumerate(strata, start=i):
        if view.owner != me.alpha(j):
            raise ProtocolError(
                f"node {x}: stratum {j} came from {view.owner}, not from ancestor {me.alpha(j)}"
            )
        sources.append(
            _Source(
                view,
                riders=frozenset(me.ancestors[: j + 1]),
                certify_on_self=frozenset(me.ancestors[i : j + 1]),
            )
        )
    spine_eta: dict[int, int] = {}
    for src in sources:
        for u in rho_v:
            e = src.view.entries.get(u)
            if e is not None:
                spine_eta.setdefault(u, e.eta)
    missing = [u for u in rho_v if u not in spine_eta]
    if missing:
        raise ProtocolError(f"node {x}: strata lost spine etas for {missing}")
    sketch = _merge_sources(
        root=info.root,
        v=v,
        k=k,
        spine=rho_v,
        spine_eta=spine_eta,
        sources=sources,
        exclude=x,
        depth_hint=info.depth,
    ).sketch
    # The tree edge (parent(x), x) crosses from the source region into
    # desc(x).  The parent's stratum accounts for it only when x sits in
    # that stratum's node set; if x entered the union through some other
    # stratum's witness instead, restore the lost unit here.  No other
    # crossing can go missing: non-tree contributions always travel with
    # their witness path (or the whole region dies under a truncation
    # flag), and no further tree edge leaves the source region downward.
    if x in sketch.meta and x not in sources[-1].view.entries:
        m = sketch.meta[x]
        sketch.meta[x] = m._replace(gamma=m.gamma + 1)
    return sketch


def distributed_reduced_sketch(
    engine: Engine,
    info: BfsInfo,
    state: EtaState,
    k: int,
    annotated: Sequence[Mapping[int, Sequence[tuple[int, int, int]]]],
) -> ReducedSketchResult:
    """Compute ``S_k(v \\ x)`` at every node ``x`` for each proper ancestor.

    Three steps: run the plain wave at ``k`` so every node holds its
    children's wire views; re-merge locally at each internal node leaving
    one child out; cast the per-child results down (one self-framed view
    record per child edge, relayed cut-through) and let every descendant
    union the received strata per ancestor.  The root is not a
    meaningful cut side, so its leave-one-out sketches are never built.
    """
    up = distributed_k_sketch(engine, info, state, k, annotated)

    n = engine.g.n
    blobs: list[dict[int, list[int]]] = []
    for v in range(n):
        per_edge: dict[int, list[int]] = {}
        if v != info.root:
            for cid, eid in info[v].children:
                merged = _merge_node_sketch(
                    info, state, annotated, k, v, up.child_views[v], exclude=cid
                )
                per_edge[eid] = _encode_view(
                    merged.sketch, merged.flagged, merged.branch_bit, n
                )
        blobs.append(per_edge)

    # The root casts nothing, so a node at level l reads l - 1 strata.
    programs = [
        _Downcast(h, max(info[v].level - 1, 0), info[v].parent_eid, info[v].children,
                  blobs[v], _VIEW_HEAD, _view_body_words)
        for v, h in enumerate(engine.handles)
    ]
    _run_relay(engine, f"{LABEL_REDUCED}{k}", programs)

    per_node: list[dict[int, SketchTree]] = []
    for x, prog in enumerate(programs):
        out: dict[int, SketchTree] = {}
        me = info[x]
        lx = me.level
        # received strata sit nearest-first: owner levels lx-1 down to 1
        views = [_decode_view(me.alpha(lx - 1 - j), rec, n) for j, rec in enumerate(prog.received)]
        for i in range(1, lx):
            strata = list(reversed(views[: lx - i]))
            out[me.alpha(i)] = _strata_merge(info, x, i, strata, k)
        per_node.append(out)
    return ReducedSketchResult(k=k, per_node=tuple(per_node))
