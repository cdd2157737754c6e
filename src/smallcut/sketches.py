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
  merges its children's sketches with its non-tree neighbours' root
  paths (ids from the BFS tree's ancestor cast, ``EtaState.paths``;
  etas from the eta cast, the lookup ``preprocess_zeta`` returns),
  truncates, and forwards the result;
* the reduced variant (:func:`distributed_reduced_sketch`): every internal
  node re-merges its children's contributions leaving one child out, casts
  the per-child results down that child's subtree, and each descendant
  unions the received strata in one pass, deepest stratum first: one pool
  gains a stratum per ancestor level and is settled there into
  ``S_k(v \\ x)``, for every proper ancestor ``v``.  The children's
  contributions are the wire views of an up-wave already run at ``k`` or
  wider (the battery reuses its k=3 wave for k=2), so no second wave is
  needed.  The cast runs on the tree relay (``trees._Downcast``): each
  stratum is a view record that frames itself with its entry count, and
  relays forward it cut-through.

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
    of ``v``).
    """

    v: int
    exclude: int | None = None

    def members(self, tree: RootedTree) -> frozenset[int]:
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
        if root is None:
            raise ValueError("sketch has no root")
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
    if any(ct.parent[u] not in kept for u in kept if ct.parent[u] is not None):
        raise RuntimeError("reference_k_sketch: truncation broke ancestor closure")

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


def _decode_view(rec: Sequence[int], n: int) -> WireView:
    count, self_bit, branch_bit = rec[:_VIEW_HEAD]
    body = rec[_VIEW_HEAD:]
    entries = decode_entries(body[: ENTRY_WORDS * count], n)
    flags = body[ENTRY_WORDS * count :]
    return WireView(
        bool(self_bit),
        entries,
        bool(branch_bit),
        frozenset(u for u, f in zip(entries, flags) if f),
    )


# ---------------------------------------------------------------------------
# distributed layer: the merge core


class _Pool:
    """Step (1) of a merge: the untruncated union of its ingredients.

    Holds each pooled id's parent and eta (an id pooled twice must agree),
    the ids a truncation flag marks, gamma sums per id, the branch
    evidence, and the root chains of certified ids: the witness-backed
    part of the canonical tree.  Ingredients only ever add to a pool, so
    it may grow between settles; levels, fixed by the parents, are kept.
    """

    def __init__(self, root: int) -> None:
        self.root = root
        self.parent: dict[int, int | None] = {}
        self.eta: dict[int, int] = {}
        self.flag_in: set[int] = set()
        self.gamma: Counter[int] = Counter()
        self.evidence = False
        self.level: dict[int, int] = {root: 0}
        self._backed: set[int] = set()
        self._certified: list[int] = []

    def _add(self, u: int, p: int | None, e: int) -> None:
        if u in self.parent:
            if self.parent[u] != p or self.eta[u] != e:
                raise ProtocolError(
                    f"inconsistent sketch entries for node {u}: "
                    f"({self.parent[u]}, {self.eta[u]}) vs ({p}, {e})"
                )
        else:
            self.parent[u] = p
            self.eta[u] = e

    def add_path(self, path: Sequence[int], eta_of: Mapping[int, int], certify: bool = False) -> None:
        """A root path; ``certify`` when a witness backs it."""
        prev: int | None = None
        for u in path:
            self._add(u, prev, eta_of[u])
            prev = u
        if certify:
            self._certified.extend(path)

    def add_view(self, view: WireView, riders: frozenset[int], on_self: Sequence[int] = ()) -> None:
        """One ingredient sketch.  ``riders`` are ids that may sit in its
        entries merely because they lie on the ingredient's own spine, so
        their presence alone does not certify them; the sender's
        ``self_witnessed`` bit vouches for the ids in ``on_self``."""
        for u in sorted(view.entries):
            e = view.entries[u]
            self._add(u, e.parent, e.eta)
            self.gamma[u] += e.gamma
        self.flag_in |= view.flagged
        self.evidence = self.evidence or view.branch_below_root
        self._certified.extend(u for u in view.entries if u not in riders)
        if view.self_witnessed:
            self._certified.extend(on_self)

    def witness_backed(self) -> set[int]:
        """Root chains of everything certified so far."""
        for u in self._certified:
            w: int | None = u
            while w is not None and w not in self._backed:
                self._backed.add(w)
                w = self.parent[w]
        self._certified.clear()
        return self._backed


class _MergeResult(NamedTuple):
    sketch: SketchTree
    flagged: frozenset[int]
    branch_bit: bool


def _merge_sources(
    pool: _Pool,
    *,
    v: int,
    k: int,
    spine: Sequence[int],
    exclude: int | None = None,
    spine_gamma_table: Mapping[int, int] | None = None,
    depth_hint: int = 1,
) -> _MergeResult:
    """Settle a pool into the truncated sketch owned by ``v``.

    A merge (1) pools its ingredients, checking their consistency
    (:class:`_Pool`); then, here, it (2) discards ids nobody certifies
    (spine tips of ingredient sketches that are not genuinely part of
    this canonical tree), (3) recomputes levels, the first branch node and
    branching numbers on the assembled structure, (4) removes over-budget
    nodes strictly inside ``desc(v)`` together with everything a
    truncation flag marks, and (5) fills metas by category.  Settling
    adds nothing to the pool, so a pool that grows by one ingredient at
    a time is settled after each (the strata pass).

    ``spine`` is the owner's root path, in the pool whether or not a
    witness backs it.  The pool's gamma sums hold the owner's own
    incident-edge crossings too; ``spine_gamma_table`` — available when
    the source region is exactly ``desc(v)`` — provides authoritative
    spine values the summed ones are checked against.
    """
    spine_set = set(spine)
    root = pool.root
    parent = pool.parent
    witness_backed = pool.witness_backed()
    keep = spine_set | witness_backed
    self_witnessed = v in witness_backed

    level = pool.level
    for u in keep:
        trail = []
        w: int | None = u
        while w not in level:
            trail.append(w)
            w = parent[w]
            if w is None:
                raise ProtocolError(f"sketch at {v}: node {trail[-1]} detached from the root")
        base = level[w]
        for t in reversed(trail):
            base += 1
            level[t] = base
    order = sorted(keep, key=lambda w: (level[w], w))
    children: dict[int, list[int]] = {u: [] for u in order}
    for u in order:
        p = parent[u]
        if p is not None:
            children[p].append(u)
    fbn, xi = _branching(root, children, level)

    # When earlier truncation hid every branch, this structure degenerates
    # to a bare path and the fallback gives the root branching number 2 —
    # but a sender's evidence of a branch below the root means the full
    # canonical tree labelled the root 1.  Non-root path nodes compute 1
    # under either reading, so only the root needs the override.
    has_branch = any(len(ch) >= 2 for ch in children.values())
    if not has_branch and pool.evidence and len(children[root]) == 1:
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
    branch_out = robust_branch or pool.evidence

    # Parents come first in (level, id) order, so one pass marks what lies
    # in desc(v) and desc(exclude) and decides removals.  Only nodes
    # strictly inside the owner's subtree may be removed.
    in_v: set[int] = set()
    in_excl: set[int] = set()
    dropped: set[int] = set()
    for u in order:
        p = parent[u]
        if u == v or p in in_v:
            in_v.add(u)
        if u == exclude or p in in_excl:
            in_excl.add(u)
        if p is None:
            continue
        eligible = u in in_v and u not in spine_set
        if p in dropped:
            if not eligible:
                raise ProtocolError(f"sketch at {v}: removal closure escaped the owner's subtree")
            dropped.add(u)
        elif eligible and (p in pool.flag_in or xi[u] > k):
            dropped.add(u)
    kept = keep - dropped
    fired = {parent[w] for w in dropped}
    flagged = frozenset(u for u in kept if u in pool.flag_in or u in fired)

    if len(kept) > SIZE_BOUND_FACTOR * (1 << k) * max(depth_hint, 1):
        raise ProtocolError(
            f"sketch at {v} holds {len(kept)} nodes, over the "
            f"{SIZE_BOUND_FACTOR}*2^{k}*depth budget"
        )

    meta: dict[int, SketchMeta] = {}
    for u in sorted(kept):
        gamma_u = pool.gamma[u]
        if u in spine_set:
            if spine_gamma_table is not None and gamma_u != spine_gamma_table[u]:
                raise ProtocolError(
                    f"spine crossing count mismatch at {v} for ancestor {u}: "
                    f"summed {gamma_u}, subtree table says {spine_gamma_table[u]}"
                )
        elif u in in_v and u not in in_excl:
            gamma_u = 0  # strictly interior: not meaningful, see module doc
        meta[u] = SketchMeta(parent[u], pool.eta[u], gamma_u, xi[u])

    sketch = SketchTree(owner=v, k=k, meta=meta, self_witnessed=self_witnessed)
    return _MergeResult(sketch, flagged, branch_out)


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
        etas: Sequence[Mapping[int, int]],
        k: int,
    ) -> None:
        super().__init__(node)
        self.info = info
        self.state = state
        self.etas = etas
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
        self.views[cid] = _decode_view(rec, self.node.n)
        self._waiting -= 1
        if self._waiting == 0:
            self._finish_up()

    def _finish_up(self) -> None:
        merged = _merge_node_sketch(
            self.info, self.state, self.etas, self.k, self.node.id, self.views
        )
        self.result = merged.sketch
        if not self.me.is_root:
            words = _encode_view(merged.sketch, merged.flagged, merged.branch_bit, self.node.n)
            self.send(self.me.parent_eid, *words)


def _merge_node_sketch(
    info: BfsInfo,
    state: EtaState,
    etas: Sequence[Mapping[int, int]],
    k: int,
    v: int,
    views: Mapping[int, WireView],
    exclude: int | None = None,
) -> _MergeResult:
    """Owner-side merge shared by the plain wave and the reduced re-merge;
    the neighbours' ids come from ``state.paths``, their etas from ``etas``."""
    me = info[v]
    rho_v = me.ancestors
    spine = frozenset(rho_v)
    eta_of = etas[v]
    pool = _Pool(info.root)
    pool.add_path(rho_v, eta_of)
    for cid in sorted(views):
        if cid != exclude:
            pool.add_view(views[cid], spine | {cid}, (cid,))
    paths = state.paths[v]
    for eid in sorted(paths):
        pool.add_path(paths[eid], eta_of, certify=True)
        # the edge crosses into desc(u) for every u off the shared prefix
        pool.gamma.update(u for u in paths[eid] if u not in spine)
    for cid, _eid in me.children:
        pool.gamma[cid] += 1  # the tree edge (v, child) crosses into desc(child)
    pool.gamma.update(state.own_cross[v])  # the spine's, by ancestor

    return _merge_sources(
        pool,
        v=v,
        k=k,
        spine=rho_v,
        exclude=exclude,
        spine_gamma_table=(state.subtree_cross[v] if exclude is None else None),
        depth_hint=info.depth,
    )


def distributed_k_sketch(
    engine: Engine,
    info: BfsInfo,
    state: EtaState,
    k: int,
    etas: Sequence[Mapping[int, int]],
) -> SketchUpResult:
    """Run the bottom-up sketch wave; node ``v`` ends up holding ``S_k(v)``.

    Each merge reads the ids of the node's non-tree neighbours' root
    paths from ``state.paths`` and their etas from ``etas``, the lookups
    :func:`smallcut.small_cuts.preprocess_zeta` returns.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    programs = [
        _SketchUp(handle, info, state, etas, k) for handle in engine.handles
    ]
    engine.run_phase(f"{LABEL_SKETCH}{k}", programs)
    for p in programs:
        if p.result is None:
            raise ProtocolError(f"{LABEL_SKETCH}{k}: node {p.node.id} never merged its sketch")
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


def _strata_pass(
    info: BfsInfo, x: int, views: Sequence[WireView], k: int, eta_of: Mapping[int, int]
) -> dict[int, SketchTree]:
    """``S_k(v \\ x)`` for every proper non-root ancestor ``v`` of ``x``.

    ``views`` are the strata ``S_k(w_j \\ w_(j+1))`` node ``x`` received,
    nearest owner first; ``eta_of`` is its eta lookup, which holds every
    ancestor's.  ``S_k(w_i \\ x)`` unions the strata ``j >= i``, so one pool
    takes them deepest first and is settled once per level ``i``.
    """
    anc = info[x].ancestors
    lx = len(anc) - 1
    pool = _Pool(info.root)
    pool.add_path(anc[:lx], eta_of)  # every spine below is a prefix of this one
    out: dict[int, SketchTree] = {}
    for i in range(lx - 1, 0, -1):
        view = views[lx - 1 - i]  # owned by w_i = anc[i]
        spine = anc[: i + 1]
        # Its self-witness bit vouches for w_i, whose root chain backs every
        # shallower owner too: in S_k(w_h \ x), h <= i, it certifies w_h..w_i.
        pool.add_view(view, frozenset(spine), (anc[i],))
        sketch = _merge_sources(
            pool, v=anc[i], k=k, spine=spine, exclude=x, depth_hint=info.depth
        ).sketch
        # The tree edge (parent(x), x) crosses from the source region into
        # desc(x).  The parent's stratum accounts for it only when x sits in
        # that stratum's node set; if x entered the union through some other
        # stratum's witness instead, restore the lost unit here.  No other
        # crossing can go missing: non-tree contributions always travel with
        # their witness path (or the whole region dies under a truncation
        # flag), and no further tree edge leaves the source region downward.
        if x in sketch.meta and x not in views[0].entries:
            m = sketch.meta[x]
            sketch.meta[x] = m._replace(gamma=m.gamma + 1)
        out[anc[i]] = sketch
    return dict(reversed(out.items()))


def distributed_reduced_sketch(
    engine: Engine,
    info: BfsInfo,
    state: EtaState,
    k: int,
    etas: Sequence[Mapping[int, int]],
    up: SketchUpResult | None = None,
) -> ReducedSketchResult:
    """Compute ``S_k(v \\ x)`` at every node ``x`` for each proper ancestor.

    Three steps: take every node's children's wire views from an up-wave;
    re-merge locally at each internal node leaving one child out; cast
    the per-child results down (one self-framed view record per child
    edge, relayed cut-through) and let every descendant union the
    received strata per ancestor.  The root is not a meaningful cut
    side, so its leave-one-out sketches are never built.

    ``up`` is a wave already run at some ``k' >= k`` (the battery passes
    its k=3 wave).  A wider view holds every entry a ``k`` view holds,
    and the re-merge truncates at ``k`` anyway, so the strata come out
    the same (the tests check them against :func:`reference_k_sketch`).
    Without ``up`` the wave is run here at ``k``.
    """
    if up is None:
        up = distributed_k_sketch(engine, info, state, k, etas)
    elif up.k < k:
        raise ValueError(f"a k={up.k} up-wave cannot serve reduced sketches at k={k}")

    n = engine.g.n
    blobs: list[dict[int, list[int]]] = []
    for v in range(n):
        per_edge: dict[int, list[int]] = {}
        if v != info.root:
            for cid, eid in info[v].children:
                merged = _merge_node_sketch(
                    info, state, etas, k, v, up.child_views[v], exclude=cid
                )
                per_edge[eid] = _encode_view(
                    merged.sketch, merged.flagged, merged.branch_bit, n
                )
        blobs.append(per_edge)

    # The root casts nothing, so a node at level l reads l - 1 strata.
    programs = [
        _Downcast(h, info[v].level, info[v].parent_eid, info[v].children,
                  blobs[v], _VIEW_HEAD, _view_body_words, lo=1)
        for v, h in enumerate(engine.handles)
    ]
    _run_relay(engine, f"{LABEL_REDUCED}{k}", programs)

    # received strata sit nearest-first: owner levels lx-1 down to 1
    return ReducedSketchResult(k=k, per_node=tuple(
        _strata_pass(info, x, [_decode_view(rec, n) for rec in prog.received], k, etas[x])
        for x, prog in enumerate(programs)
    ))
