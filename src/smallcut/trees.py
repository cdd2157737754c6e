"""Tree construction and the aggregation primitives built on top of it.

Everything downstream runs over one rooted BFS spanning tree.  This
module builds that tree distributedly (``build_bfs``), provides the two
pipelined dissemination patterns — every node's one-word message to its
whole subtree (``broadcast_t1``) and every node's word *list* to its
subtree, optionally swapped across non-tree edges too
(``broadcast_t2``) — plus the swap of a word list across each
non-tree edge (``nontree_exchange``), and implements the generic
bottom-up fold engine (``trsf_compute``) that evaluates, for every node
``v``, the semigroup fold of per-node atomic values over the subtree
below ``v``, while every node ``a`` also learns the partial folds of its
own subtree toward each of its ancestors.

Every block that moves down the tree rides one relay, ``_Downcast``: a
node queues its own block, forwards each chunk from its parent unchanged
in the round it arrives (cut-through, never store-and-forward), and reads
the parent's stream as records through ``expect``.  A record is a
block whose width every node knows, possibly from its owner's level, or
a self-framed block whose head says how long it is, so no phase is
spent agreeing on a width and nothing is padded to one.  Given each
non-tree neighbour's root
path, the same relay swaps the blocks across non-tree edges in the same
phase: a node sends its own block and then each ancestor's as it
completes, minus the root-path prefix both ends share, and the receiver
names each block by its place in the sender's root path.  A lowest
casting level lets the nodes whose blocks nobody reads cast nothing.

Exchanges between neighbours cross non-tree edges only: after
``build_bfs`` a tree neighbour's root path is already known (a child's
is one's own plus the child, the parent's one's own minus oneself), so
whatever follows from it is worked out locally.  ``nontree_exchange``
sends each non-tree edge its own word list and reads the reply whole.
Once both ends know each other's root path, the prefix they share
(``shared_prefix``) is known on both sides, so nothing keyed by it
crosses the edge.

Every fold record goes up as soon as it is complete, and the per-edge
queues pace the wire: a node's partial toward ancestor level ``l`` is
sent once all of its children have reported theirs.  A child's records
arrive in ascending level order, so none carries its level.  When a
record fits one round's budget, a fold restricted to levels
``>= min_level`` takes ``depth - min_level + 1`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Mapping, Sequence

from .graphs import RootedTree
from .runtime import Engine, NodeHandle, ProtocolError, Steps, WordProgram

LABEL_BFS = "bfs"
LABEL_BCAST1 = "broadcast1"
LABEL_BCAST2 = "broadcast2"


class SemigroupError(ProtocolError):
    """The supplied combine operation is not commutative/associative."""


# ---------------------------------------------------------------------------
# BFS tree construction


@dataclass
class NodeBfs:
    """Everything one node knows about the tree after construction."""

    id: int
    root: int
    n: int
    level: int
    parent: int | None
    parent_eid: int | None
    children: tuple[tuple[int, int], ...]  # (child id, edge id), sorted
    ancestors: tuple[int, ...]  # root .. self, inclusive
    depth: int
    neighbor_levels: dict[int, int]  # edge id -> neighbor's level

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def alpha(self, l: int) -> int:
        """Ancestor at level ``l`` (``l`` may be ``level`` itself)."""
        return self.ancestors[l]


class BfsInfo:
    """Collected per-node views plus centralized conveniences for tests."""

    def __init__(self, nodes: Sequence[NodeBfs], root: int):
        self.nodes = tuple(nodes)
        self.root = root
        self.depth = self.nodes[root].depth

    def __getitem__(self, v: int) -> NodeBfs:
        return self.nodes[v]

    @cached_property
    def _tree(self) -> RootedTree:
        return RootedTree([nb.parent for nb in self.nodes], self.root)

    def tree(self) -> RootedTree:
        """The centralized tree, built once and shared by every observer."""
        return self._tree


class _LevelProgram(WordProgram):
    """Flood levels outward; adopt the first proposer heard as parent.

    Flooding delivers all proposals of the winning level in one round, in
    sender-id order, so the first one heard is the smallest proposer's.
    """

    def __init__(self, node: NodeHandle, root: int):
        super().__init__(node)
        self.is_root = node.id == root
        self.level: int | None = 0 if self.is_root else None
        self.parent: int | None = None
        self.parent_eid: int | None = None
        self.neighbor_levels: dict[int, int] = {}

    def start(self):
        for nbr, eid in self.node.ports:
            self.expect(eid, 1, lambda rec, b=nbr, e=eid: self._announced(b, e, rec[0]))
        if self.is_root:
            self._announce()

    def _announce(self):
        for _, eid in self.node.ports:
            self.send(eid, self.level)

    def _announced(self, nbr: int, eid: int, lvl: int):
        self.neighbor_levels[eid] = lvl
        if self.level is None:
            self.level = lvl + 1
            self.parent = nbr
            self.parent_eid = eid
            self._announce()
        elif lvl < self.level - 1:
            raise ProtocolError(
                f"node {self.node.id} at level {self.level} heard level {lvl} from {nbr}"
            )


class _JoinProgram(WordProgram):
    """Tell the chosen parent about the adoption; collect own children."""

    def __init__(self, node: NodeHandle, parent_eid: int | None):
        super().__init__(node)
        self.parent_eid = parent_eid
        self.children: list[tuple[int, int]] = []

    def start(self):
        if self.parent_eid is not None:
            self.send(self.parent_eid, 1)

    def on_chunk(self, eid, words):
        # The only traffic in this phase is one join token per new child.
        self.children.append((self.node.neighbor(eid), eid))


class _DepthProgram(WordProgram):
    """Convergecast the maximum level, then broadcast it back down."""

    def __init__(self, node: NodeHandle, level: int, parent_eid: int | None,
                 children: tuple[tuple[int, int], ...]):
        super().__init__(node)
        self.level = level
        self.parent_eid = parent_eid
        self.children = children
        self.depth: int | None = None
        self._highest = level
        self._waiting = len(children)

    def start(self):
        for _, eid in self.children:
            self.expect(eid, 1, self._from_child)
        if self._waiting == 0:
            self._up()

    def _from_child(self, rec):
        self._highest = max(self._highest, rec[0])
        self._waiting -= 1
        if self._waiting == 0:
            self._up()

    def _up(self):
        if self.parent_eid is None:
            self._announce(self._highest)
        else:
            self.send(self.parent_eid, self._highest)
            self.expect(self.parent_eid, 1, lambda rec: self._announce(rec[0]))

    def _announce(self, depth: int):
        self.depth = depth
        for _, eid in self.children:
            self.send(eid, depth)


def build_bfs(engine: Engine, root: int | None = None) -> BfsInfo:
    """Grow a rooted BFS tree and give every node its place in it.

    ``root=None`` means the lowest-id policy, which with contiguous ids
    is always vertex 0.  Four sub-phases run under the ``bfs`` label:
    level flooding with lowest-proposer parent adoption, child
    registration, depth agreement, and ancestor-list dissemination (the
    broadcast relay, with each node's own id as its block).  Afterwards
    every node knows its level, parent, children, full ancestor list,
    the tree depth, and the level of each neighbor.
    """
    g = engine.g
    if root is None:
        root = 0
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range")

    levels = [_LevelProgram(h, root) for h in engine.handles]
    engine.run_phase(LABEL_BFS, levels)
    joins = [_JoinProgram(h, levels[v].parent_eid) for v, h in enumerate(engine.handles)]
    engine.run_phase(LABEL_BFS, joins)
    kids = [tuple(sorted(j.children)) for j in joins]
    depths = [
        _DepthProgram(h, levels[v].level, levels[v].parent_eid, kids[v])
        for v, h in enumerate(engine.handles)
    ]
    engine.run_phase(LABEL_BFS, depths)
    ancs = [
        _Downcast(h, levels[v].level, levels[v].parent_eid, kids[v], (v,), 1)
        for v, h in enumerate(engine.handles)
    ]
    _run_relay(engine, LABEL_BFS, ancs)

    nodes = []
    for v in range(g.n):
        nb = NodeBfs(
            id=v,
            root=root,
            n=g.n,
            level=levels[v].level,
            parent=levels[v].parent,
            parent_eid=levels[v].parent_eid,
            children=kids[v],
            ancestors=tuple(rec[0] for rec in reversed(ancs[v].received)) + (v,),
            depth=depths[v].depth,
            neighbor_levels=levels[v].neighbor_levels,
        )
        if (len(nb.ancestors) != nb.level + 1 or nb.ancestors[-1] != v
                or nb.ancestors[0] != root
                or len(nb.neighbor_levels) != len(engine.handles[v].ports)):
            raise ProtocolError(f"bfs: node {v} has an inconsistent view of the tree")
        nodes.append(nb)
    if nodes[root].level != 0:
        raise ProtocolError(f"bfs: root {root} is at level {nodes[root].level}")
    for nb in nodes:
        if not nb.is_root and (nb.level != nodes[nb.parent].level + 1
                               or (nb.id, nb.parent_eid) not in nodes[nb.parent].children):
            raise ProtocolError(f"bfs: node {nb.id} and its parent {nb.parent} disagree")
        if nb.depth != nodes[root].depth:
            raise ProtocolError(f"bfs: node {nb.id} has depth {nb.depth}, the root {nodes[root].depth}")
    return BfsInfo(nodes, root)


# ---------------------------------------------------------------------------
# Broadcasts


class _Downcast(WordProgram):
    """The one relay: casts blocks down the tree and swaps them across
    non-tree edges, cut-through.

    A node at ``level >= lo`` queues its own block on its child edges
    (nodes nearer the root cast nothing): ``block`` is one word list for
    all children, or a map from child edge id to that child's block (the
    reduced-sketch strata).  It then forwards every chunk from its
    parent unchanged, in the round the chunk arrives, and reads the
    parent's stream as records through ``expect``: ``width`` words each
    (``width(l)`` for the block of a level-``l`` owner, when a block's
    length follows from its owner's level), or ``width`` head words plus
    ``more(head)`` when blocks frame themselves.  No width is agreed
    beforehand and no block is stored before it moves on.
    ``received`` holds the ``level - lo`` records, nearest ancestor
    first.

    ``swap`` maps each non-tree edge to ``(first, path)``: the lowest
    level whose block crosses the edge, and the neighbour's root path.
    Across it the node sends its own (single) block at start and each
    ancestor's as soon as it completes in the parent stream, down to
    level ``first``.  The neighbour does the same, so its blocks arrive
    in a fixed order, its own first and then its ancestors nearest
    first, and are named from ``path`` into ``across``: no owner word
    crosses.  Each edge has its own budget per direction, so the swap
    rides the cast's rounds.  :func:`_run_relay` checks that nothing
    trails the records.
    """

    def __init__(self, node: NodeHandle, level: int, parent_eid: int | None,
                 children: tuple[tuple[int, int], ...],
                 block: Sequence[int] | Mapping[int, Sequence[int]],
                 width: int | Callable[[int], int],
                 more: Callable[[tuple[int, ...]], int] | None = None, lo: int = 0,
                 swap: Mapping[int, tuple[int, Sequence[int]]] | None = None):
        super().__init__(node)
        self.level = level
        self.lo = lo
        self.parent_eid = parent_eid
        self.children = children
        self.swap = swap or {}
        if level < lo:
            self.blocks = {}
        elif isinstance(block, Mapping):
            self.blocks = {eid: tuple(words) for eid, words in block.items()}
        else:
            own = tuple(block)
            self.blocks = dict.fromkeys((eid for _, eid in children), own)
            self.blocks.update(
                (eid, own) for eid, (first, _) in self.swap.items() if level >= first
            )
        self.width = width if callable(width) else lambda level: width
        self.more = more
        self.received: list[tuple[int, ...]] = []
        self.across: dict[int, tuple[int, ...]] = {}

    def frames(self, words: tuple[int, ...]) -> bool:
        """Is ``words`` exactly one record of this node's level as the
        relay reads them?"""
        head = self.width(self.level)
        if len(words) < head:
            return False
        return len(words) == head + (self.more(words[:head]) if self.more else 0)

    def start(self):
        for eid, words in self.blocks.items():
            self.send(eid, *words)
        for level in range(self.level - 1, self.lo - 1, -1):
            self.expect(self.parent_eid, self.width(level), self._read, self.more)
        for eid, (first, path) in self.swap.items():
            for level in range(len(path) - 1, first - 1, -1):
                self.expect(eid, self.width(level), partial(self.across.__setitem__, path[level]),
                            self.more)

    def _read(self, rec: tuple[int, ...]) -> None:
        self.received.append(rec)
        level = self.level - len(self.received)
        for eid, (first, _) in self.swap.items():
            if level >= first:
                self.send(eid, *rec)

    def on_chunk(self, eid, words):
        if eid == self.parent_eid:
            for _, ceid in self.children:
                self.send(ceid, *words)
        super().on_chunk(eid, words)


def _relay_phase(label: str, programs: Sequence[_Downcast]) -> Steps:
    """One relay phase; every node must read exactly the blocks owed
    to it, its ancestors' and its non-tree neighbours'.

    A block that does not frame itself is refused before anything is
    sent.  A missing record leaves an ``expect`` unmet, which the engine
    reports; words past the last record are caught here.
    """
    for p in programs:
        for words in p.blocks.values():
            if not p.frames(words):
                raise ProtocolError(
                    f"phase {label!r}: node {p.node.id} block {words} does not frame itself"
                )
    yield label, programs
    for p in programs:
        if p.stray:
            raise ProtocolError(
                f"phase {label!r}: node {p.node.id} heard {p.stray} words "
                f"that no record claimed"
            )


def _run_relay(engine: Engine, label: str, programs: Sequence[_Downcast]) -> None:
    """Run one relay phase now (see :func:`_relay_phase`)."""
    engine.run_chain(_relay_phase(label, programs))


def _relay_to_subtrees(engine: Engine, info: BfsInfo, label: str,
                       blocks: Sequence[Sequence[int]], width: int | Callable[[int], int],
                       more: Callable[[tuple[int, ...]], int] | None = None, lo: int = 0,
                       paths: Sequence[Mapping[int, Sequence[int]]] | None = None,
                       ) -> Steps:
    """Relay every node's block to its subtree and, given ``paths`` (per
    node, each non-tree neighbour's root path), across its non-tree
    edges; key what each node holds by owner.  A one-phase chain: run it
    with ``engine.run_chain`` or alongside another with ``engine.launch``.

    Nodes nearer the root than level ``lo`` cast nothing.  The blocks of
    the root-path prefix both ends of a non-tree edge share are already
    in both chains, so they never cross it.
    """
    programs = []
    for v, h in enumerate(engine.handles):
        nb = info[v]
        swap = {eid: (max(shared_prefix(nb.ancestors, path), lo), path)
                for eid, path in (paths[v] if paths else {}).items()}
        programs.append(
            _Downcast(h, nb.level, nb.parent_eid, nb.children, blocks[v], width, more, lo, swap)
        )
    yield from _relay_phase(label, programs)
    received = []
    for nb, p, own in zip(info.nodes, programs, blocks):
        got = dict(zip(reversed(nb.ancestors[lo:-1]), p.received))
        if nb.level >= lo:
            got[nb.id] = tuple(own)
        got.update(p.across)
        received.append(got)
    return received


def broadcast_t1(
    engine: Engine,
    info: BfsInfo,
    values: Sequence[int],
    label: str = LABEL_BCAST1,
) -> list[dict[int, int]]:
    """Deliver each node's single word to its entire subtree.

    Returns, per node ``u``, a map from every ancestor of ``u``
    (including ``u`` itself) to that ancestor's word.  Pipelining keeps
    the cost linear in the tree depth.
    """
    received = engine.run_chain(_relay_to_subtrees(engine, info, label, [(x,) for x in values], 1))
    return [{who: blk[0] for who, blk in got.items()} for got in received]


def broadcast_t2(
    engine: Engine,
    info: BfsInfo,
    lists: Sequence[Sequence[int]],
    width: int | Callable[[int], int],
    more: Callable[[tuple[int, ...]], int] | None,
    label: str = LABEL_BCAST2,
    lo: int = 0,
    paths: Sequence[Mapping[int, Sequence[int]]] | None = None,
) -> list[dict[int, tuple[int, ...]]]:
    """Deliver each node's word list to its entire subtree.

    Lists frame themselves: ``width`` head words, then ``more(head)``
    further words; or, without ``more``, a level-``l`` node's list is
    ``width(l)`` words long.  Either way each ancestor's block costs
    exactly its own length.  The relay is cut-through, so the cost is
    one pipelined pass of each ancestor's block, quadratic in depth when
    blocks are of depth order.  Nodes nearer the root than level ``lo``
    cast nothing.  With ``paths``
    (per node, each non-tree neighbour's root path) the same blocks are
    also swapped across non-tree edges in the same phase, minus those of
    the root-path prefix both ends share.  Returns, per node, a map from
    every owner whose list it holds (its ancestors from level ``lo``,
    itself, and its non-tree neighbours' chains) to that list, head
    words kept.
    """
    return engine.run_chain(_relay_to_subtrees(engine, info, label, lists, width, more, lo, paths))


# ---------------------------------------------------------------------------
# Exchanges between neighbours


def shared_prefix(path: Sequence[int], other: Sequence[int]) -> int:
    """How many levels two root paths share; both ends of a non-tree edge
    work it out alike, so nothing keyed by that prefix needs to cross."""
    return sum(a == b for a, b in zip(path, other))


class ListExchange(WordProgram):
    """Stream a word list over each selected edge, read the reply whole.

    ``plan`` maps edge ids to the words that go out over the edge and the
    number of words expected back.  ``received`` maps every such edge to
    the words heard.
    """

    def __init__(self, node: NodeHandle, plan: dict[int, tuple[Sequence[int], int]]):
        super().__init__(node)
        self._plan = plan
        self.received: dict[int, tuple[int, ...]] = {}

    def start(self) -> None:
        for eid, (words, count) in self._plan.items():
            self.send(eid, *words)
            self.expect(eid, count, partial(self.received.__setitem__, eid))


def nontree_exchange(
    engine: Engine,
    info: BfsInfo,
    label: str,
    plan: Callable[[int, int], tuple[Sequence[int], int]],
) -> list[dict[int, tuple[int, ...]]]:
    """Swap word lists across every non-tree edge, both ways at once.

    ``plan(v, eid)`` gives the words node ``v`` sends over its non-tree
    edge ``eid`` and how many words it reads back.  Returns, per node, a
    map from non-tree edge id to the words heard.
    """
    programs = []
    for v, handle in enumerate(engine.handles):
        nb = info[v]
        tree_eids = {eid for _, eid in nb.children} | {nb.parent_eid}
        programs.append(ListExchange(handle, {
            eid: plan(v, eid) for _, eid in handle.ports if eid not in tree_eids
        }))
    engine.run_phase(label, programs)
    return [p.received for p in programs]


# ---------------------------------------------------------------------------
# Tree-restricted semigroup folds


@dataclass
class SemigroupSpec:
    """A fold instance: domain, operation, atoms, and wire encoding.

    ``atomic(state, l)`` yields the node's atomic element toward its
    ancestor at level ``l``; ``state`` is whatever per-node object the
    caller passed to :func:`trsf_compute`.  ``encode``/``decode``
    translate elements to word tuples.  Fixed-size elements declare
    ``head_words`` alone; variable-size elements also supply
    ``tail_words``, which reads the head and answers how many words
    follow.  Elements must support ``==`` (used for the algebra
    self-check).
    """

    name: str
    combine: Callable[[object, object], object]
    atomic: Callable[[object, int], object]
    encode: Callable[[object], tuple[int, ...]]
    decode: Callable[[tuple[int, ...]], object]
    head_words: int = 1
    tail_words: Callable[[tuple[int, ...]], int] | None = None
    identity: object = None


class _TrsfProgram(WordProgram):
    """One node's part of a fold: a record per level, sent up in
    ascending level order, so no record carries its level."""

    def __init__(self, node: NodeHandle, nb: NodeBfs, spec: SemigroupSpec,
                 state: object, lo: int):
        super().__init__(node)
        self.nb = nb
        self.spec = spec
        self.state = state
        self.lo = lo
        self.acc: dict[int, object] = {}
        self.pending: dict[int, int] = {}
        self.next_l = lo

    def start(self):
        lv = self.nb.level
        if lv < self.lo:
            return
        for l in range(self.lo, lv + 1):
            self.acc[l] = self.spec.atomic(self.state, l)
            self.pending[l] = len(self.nb.children)
        # A child's records for levels lo..lv arrive in that order.
        for _, eid in self.nb.children:
            for l in range(self.lo, lv + 1):
                self.expect(eid, self.spec.head_words, partial(self._record, l),
                            self.spec.tail_words)
        self._settle()

    def _record(self, l: int, rec: tuple[int, ...]):
        self.pending[l] -= 1
        self.acc[l] = self.spec.combine(self.acc[l], self.spec.decode(rec))
        self._settle()

    def _settle(self):
        while self.next_l < self.nb.level and not self.pending[self.next_l]:
            self.send(self.nb.parent_eid, *self.spec.encode(self.acc[self.next_l]))
            self.next_l += 1


def _check_algebra(spec: SemigroupSpec, seen: list[object]) -> None:
    sample = []
    for elem in seen:
        if elem not in sample:
            sample.append(elem)
        if len(sample) >= 5:
            break
    if spec.identity is not None and spec.identity not in sample:
        sample.append(spec.identity)
    for a in sample:
        for b in sample:
            if spec.combine(a, b) != spec.combine(b, a):
                raise SemigroupError(
                    f"{spec.name}: combine is not commutative on {a!r}, {b!r}"
                )
            for c in sample:
                if spec.combine(a, spec.combine(b, c)) != spec.combine(
                    spec.combine(a, b), c
                ):
                    raise SemigroupError(
                        f"{spec.name}: combine is not associative on "
                        f"{a!r}, {b!r}, {c!r}"
                    )


def trsf_compute(
    engine: Engine,
    info: BfsInfo,
    spec: SemigroupSpec,
    states: Sequence[object],
    min_level: int = 0,
) -> list[dict[int, object]]:
    """Fold atomic values over every subtree, one wave up the tree.

    Every node ``a`` at level ``l_a >= min_level`` ends up with its
    partial fold toward each ancestor level in ``[min_level, l_a]``
    (the one at ``l_a`` being the node's own subtree value): the
    result's ``[a][l]``.
    ``min_level`` restricts the fold to the forest of subtrees rooted
    at that level, which is how per-pivot instances reuse this engine.
    A node sends each partial up as soon as all its children's records
    for that level are in; the per-edge queues pace the wire, so a fold
    whose records fit one round's budget takes ``depth - min_level + 1``
    rounds.  Records go up in ascending level order and carry no level
    word, so a record past the last level is left unread and refused
    here.  Afterwards the combine operation is checked for
    commutativity and associativity on a sample of the folded elements.
    """
    return engine.run_chain(trsf_steps(engine, info, spec, states, min_level))


def trsf_steps(
    engine: Engine,
    info: BfsInfo,
    spec: SemigroupSpec,
    states: Sequence[object],
    min_level: int = 0,
) -> Steps:
    """:func:`trsf_compute` as a one-phase chain, to run alongside
    another with ``engine.launch``."""
    if not 0 <= min_level <= max(info.depth, 0):
        raise ValueError(f"min_level {min_level} outside tree depth {info.depth}")
    programs = [
        _TrsfProgram(h, info[v], spec, states[v], min_level)
        for v, h in enumerate(engine.handles)
    ]
    yield f"trsf:{spec.name}", programs
    # A record short leaves an expect unmet, which the engine reports.
    for p in programs:
        if p.stray:
            raise ProtocolError(
                f"{spec.name}: node {p.node.id} heard {p.stray} words that no record claimed"
            )
    _check_algebra(spec, [x for p in programs for x in p.acc.values()])
    return [p.acc for p in programs]
