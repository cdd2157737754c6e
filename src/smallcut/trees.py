"""Tree construction and the aggregation primitives built on top of it.

Everything downstream runs over one rooted BFS spanning tree.  This
module builds that tree distributedly (``build_bfs``), provides the two
pipelined dissemination patterns — every node's one-word message to its
whole subtree (``broadcast_t1``) and every node's word *list* to its
subtree (``broadcast_t2``) — plus the swap of word lists across every
non-tree edge (``nontree_exchange``), and implements the generic bottom-up fold
engine (``trsf_compute``) that evaluates, for every node ``v``, the
semigroup fold of per-node atomic values over the subtree below ``v``,
while every node ``a`` also learns the partial folds of its own subtree
toward each of its ancestors.

Everything that moves down the tree rides one relay, ``_Downcast``: a
node queues its own block, forwards each chunk from its parent unchanged
in the round it arrives (cut-through, never store-and-forward), and reads
the parent's stream as records through ``expect``.  A record is a
fixed-width block whose width every node knows, or a self-framed block
whose head says how long it is, so no phase is spent agreeing on a width
and nothing is padded to one.  Exchanges with neighbours read their
replies as records the same way.

Every fold record goes up as soon as it is complete, and the per-edge
queues pace the wire: a node's partial toward ancestor level ``l`` is
sent once all of its children have reported theirs.  When a record
fits one round's budget, a fold restricted to levels ``>= min_level``
takes ``depth - min_level + 1`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Mapping, Sequence

from .graphs import RootedTree
from .runtime import Engine, NodeHandle, ProtocolError, WordProgram

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
        assert len(nb.ancestors) == nb.level + 1
        assert nb.ancestors[-1] == v and nb.ancestors[0] == root
        assert len(nb.neighbor_levels) == len(engine.handles[v].ports)
        nodes.append(nb)
    assert nodes[root].level == 0
    for nb in nodes:
        if not nb.is_root:
            assert nb.level == nodes[nb.parent].level + 1
            assert (nb.id, nb.parent_eid) in nodes[nb.parent].children
        assert nb.depth == nodes[root].depth
    return BfsInfo(nodes, root)


# ---------------------------------------------------------------------------
# Broadcasts


class _Downcast(WordProgram):
    """The one downward relay: own block first, then cut-through forwarding.

    A node queues its own block on its child edges: ``block`` is one
    word list for all children, or a map from child edge id to that
    child's block (the reduced-sketch strata).  It then forwards every
    chunk from its parent unchanged, in the round the chunk arrives, and
    reads the parent's stream as ``records`` records through ``expect``:
    ``width`` words each, or ``width`` head words plus ``more(head)``
    when blocks frame themselves.  No width is agreed beforehand and no
    block is stored before it moves on.  ``received`` holds the records,
    nearest ancestor first; :func:`_run_relay` checks that nothing
    trails them.
    """

    def __init__(self, node: NodeHandle, records: int, parent_eid: int | None,
                 children: tuple[tuple[int, int], ...],
                 block: Sequence[int] | Mapping[int, Sequence[int]], width: int,
                 more: Callable[[tuple[int, ...]], int] | None = None):
        super().__init__(node)
        self.records = records
        self.parent_eid = parent_eid
        self.children = children
        if isinstance(block, Mapping):
            self.blocks = {eid: tuple(words) for eid, words in block.items()}
        else:
            self.blocks = dict.fromkeys((eid for _, eid in children), tuple(block))
        self.width = width
        self.more = more
        self.received: list[tuple[int, ...]] = []

    def start(self):
        for eid, words in self.blocks.items():
            tail = self.more(words[:self.width]) if self.more and len(words) >= self.width else 0
            if len(words) != self.width + tail:
                raise ProtocolError(f"node {self.node.id} block {words} does not frame itself")
            self.send(eid, *words)
        for _ in range(self.records):
            self.expect(self.parent_eid, self.width, self.received.append, self.more)

    def on_chunk(self, eid, words):
        for _, ceid in self.children:
            self.send(ceid, *words)
        super().on_chunk(eid, words)

    @property
    def stray(self) -> int:
        """Words from the parent that no record claimed."""
        return len(self._buf.get(self.parent_eid, ()))


def _run_relay(engine: Engine, label: str, programs: Sequence[_Downcast]) -> None:
    """Run one relay phase; every node must read exactly its ancestors' blocks.

    A missing record leaves an ``expect`` unmet, which the engine reports;
    words past the last record are caught here.
    """
    engine.run_phase(label, programs)
    for p in programs:
        if p.stray:
            raise ProtocolError(
                f"phase {label!r}: node {p.node.id} heard {p.stray} words "
                f"past its {p.records} relayed blocks"
            )


def _relay_to_subtrees(engine: Engine, info: BfsInfo, label: str,
                       blocks: Sequence[Sequence[int]], width: int,
                       more: Callable[[tuple[int, ...]], int] | None = None,
                       ) -> list[dict[int, tuple[int, ...]]]:
    """Relay every node's block to its subtree; key what arrived by ancestor."""
    programs = [
        _Downcast(h, info[v].level, info[v].parent_eid, info[v].children, blocks[v], width, more)
        for v, h in enumerate(engine.handles)
    ]
    _run_relay(engine, label, programs)
    received = []
    for nb, p, own in zip(info.nodes, programs, blocks):
        got = dict(zip(reversed(nb.ancestors[:-1]), p.received))
        got[nb.id] = tuple(own)
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
    received = _relay_to_subtrees(engine, info, label, [(x,) for x in values], 1)
    return [{who: blk[0] for who, blk in got.items()} for got in received]


def broadcast_t2(
    engine: Engine,
    info: BfsInfo,
    lists: Sequence[Sequence[int]],
    width: int,
    label: str = LABEL_BCAST2,
    more: Callable[[tuple[int, ...]], int] | None = None,
) -> list[dict[int, tuple[int, ...]]]:
    """Deliver each node's word list to its entire subtree.

    Without ``more``, lists are zero-padded to ``width``, a bound every
    node already knows (``hcast`` derives it from the tree depth), and
    read as fixed-width blocks; callers use position metadata (every
    receiver knows each ancestor's level) to ignore the padding.  With
    ``more``, lists frame themselves: ``width`` head words, then
    ``more(head)`` further words, sent unpadded.  Either way the relay
    is cut-through, so the cost is one pipelined pass of each ancestor's
    block, quadratic in depth when blocks are of depth order.
    """
    if more is None:
        padded = []
        for v, lst in enumerate(lists):
            lst = list(lst)
            if len(lst) > width:
                raise ValueError(f"node {v} list length {len(lst)} exceeds width {width}")
            padded.append(lst + [0] * (width - len(lst)))
        lists = padded
    return _relay_to_subtrees(engine, info, label, lists, width, more)


# ---------------------------------------------------------------------------
# Exchanges between neighbours


class ListExchange(WordProgram):
    """Stream a word list over selected edges, read the replies as records.

    ``outgoing`` maps edge ids to the words sent there, ``incoming``
    edge ids to the number of records expected back.  A record is
    ``width`` words, or ``width`` head words plus ``more(head)`` when
    records frame themselves.  ``received`` maps every edge in
    ``incoming`` to its records in arrival order.
    """

    def __init__(self, node: NodeHandle, outgoing: dict[int, tuple[int, ...]],
                 incoming: dict[int, int], width: int = 1,
                 more: Callable[[tuple[int, ...]], int] | None = None):
        super().__init__(node)
        self._outgoing = outgoing
        self._incoming = incoming
        self._width = width
        self._more = more
        self.received: dict[int, list[tuple[int, ...]]] = {}

    def start(self) -> None:
        for eid, words in sorted(self._outgoing.items()):
            if words:
                self.node.send(eid, *words)
        for eid, count in self._incoming.items():
            records = self.received[eid] = []
            for _ in range(count):
                self.expect(eid, self._width, records.append, self._more)


def nontree_exchange(
    engine: Engine,
    info: BfsInfo,
    label: str,
    words: Callable[[int], Sequence[int]],
    incoming: Callable[[int], int],
    width: int = 1,
    more: Callable[[tuple[int, ...]], int] | None = None,
) -> list[dict[int, list[tuple[int, ...]]]]:
    """Swap word lists across every non-tree edge, both ways at once.

    Node ``v`` sends ``words(v)`` over each incident non-tree edge and
    reads ``incoming(l)`` records back from a neighbour at level ``l``,
    framed as :class:`ListExchange` describes.  ``words`` is called only
    for nodes that have a non-tree edge.  Returns, per node, a map from
    non-tree edge id to the records heard.
    """
    programs = []
    for v, handle in enumerate(engine.handles):
        nb = info[v]
        tree_eids = {eid for _, eid in nb.children} | {nb.parent_eid}
        nontree = [eid for _, eid in handle.ports if eid not in tree_eids]
        mine = tuple(words(v)) if nontree else ()
        expected = {eid: incoming(nb.neighbor_levels[eid]) for eid in nontree}
        programs.append(ListExchange(handle, dict.fromkeys(nontree, mine), expected, width, more))
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


@dataclass
class TrsfNodeResult:
    """Per-node fold outputs.

    ``partials[l]`` is the fold of the node's own subtree toward its
    level-``l`` ancestor; ``f`` (the full-subtree value) is the partial
    at the node's own level.  ``from_child`` keeps each child's
    contribution per ancestor level.  Nothing reads it yet; it is kept
    for eliding the spine from the sketch waves (ROADMAP item 3).
    """

    partials: dict[int, object] = field(default_factory=dict)
    from_child: dict[int, dict[int, object]] = field(default_factory=dict)
    f: object = None


class _TrsfProgram(WordProgram):
    _UNSET = object()

    def __init__(self, node: NodeHandle, nb: NodeBfs, spec: SemigroupSpec,
                 state: object, lo: int):
        super().__init__(node)
        self.nb = nb
        self.spec = spec
        self.state = state
        self.lo = lo
        self.acc: dict[int, object] = {}
        self.pending: dict[int, set[int]] = {}
        self.from_child: dict[int, dict[int, object]] = {}
        self.f: object = self._UNSET
        self.next_l = lo

    def start(self):
        lv = self.nb.level
        if lv < self.lo:
            return
        for l in range(self.lo, lv + 1):
            self.acc[l] = self.spec.atomic(self.state, l)
            self.pending[l] = {cid for cid, _ in self.nb.children}
        tail = self.spec.tail_words
        more = (lambda rec: tail(rec[1:])) if tail else None  # a record is (level, *element)
        for cid, eid in self.nb.children:
            self.from_child[cid] = {}
            for _ in range(self.lo, lv + 1):
                self.expect(eid, 1 + self.spec.head_words, partial(self._record, cid), more)
        self._settle()

    def _record(self, cid: int, rec: tuple[int, ...]):
        l = rec[0]
        elem = self.spec.decode(rec[1:])
        if cid not in self.pending.get(l, ()):
            raise ProtocolError(f"node {self.node.id}: record out of range (level {l}, child {cid})")
        self.pending[l].discard(cid)
        self.from_child[cid][l] = elem
        self.acc[l] = self.spec.combine(self.acc[l], elem)
        self._settle()

    def _settle(self):
        lv = self.nb.level
        while self.next_l < lv and not self.pending[self.next_l]:
            words = self.spec.encode(self.acc[self.next_l])
            self.send(self.nb.parent_eid, self.next_l, *words)
            self.next_l += 1
        if self.f is self._UNSET and not self.pending[lv]:
            self.f = self.acc[lv]


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
) -> list[TrsfNodeResult]:
    """Fold atomic values over every subtree, one wave up the tree.

    Every node ``a`` at level ``l_a >= min_level`` ends up with its
    partial fold toward each ancestor level in ``[min_level, l_a]``
    (the one at ``l_a`` being the node's own subtree value ``f``).
    ``min_level`` restricts the fold to the forest of subtrees rooted
    at that level, which is how per-pivot instances reuse this engine.
    A node sends each partial up as soon as all its children's records
    for that level are in; the per-edge queues pace the wire, so a fold
    whose records fit one round's budget takes ``depth - min_level + 1``
    rounds.  Afterwards the combine operation is checked for
    commutativity and associativity on a sample of the folded elements.
    """
    if not 0 <= min_level <= max(info.depth, 0):
        raise ValueError(f"min_level {min_level} outside tree depth {info.depth}")
    programs = [
        _TrsfProgram(h, info[v], spec, states[v], min_level)
        for v, h in enumerate(engine.handles)
    ]
    engine.run_phase(f"trsf:{spec.name}", programs)
    results = []
    seen: list[object] = []
    for p in programs:
        if p.nb.level >= min_level and (p.next_l != p.nb.level or p.f is _TrsfProgram._UNSET):
            raise ProtocolError(f"{spec.name}: node {p.node.id} did not complete its fold")
        f = None if p.f is _TrsfProgram._UNSET else p.f
        results.append(TrsfNodeResult(partials=dict(p.acc), from_child=p.from_child, f=f))
        seen.extend(p.acc.values())
    _check_algebra(spec, seen)
    return results
