"""Tree construction and the aggregation primitives built on top of it.

Everything downstream runs over one rooted BFS spanning tree.  This
module builds that tree distributedly (``build_bfs``: one flood of
levels with an echo of the deepest level back, then the ancestor cast,
whose root block is the depth and which also swaps every node's root
path across its non-tree edges), provides the pipelined dissemination
of every node's word list to its whole subtree, optionally swapped
across non-tree edges too (``broadcast_t2``, a one-phase chain the
caller runs or launches beside another; ``broadcast_t1`` runs it at
once for one word per node), and implements the generic bottom-up
fold engine (``trsf_compute``) that evaluates, for every node ``v``,
the semigroup fold of per-node atomic values over the subtree below
``v``, one record per slot: toward each of its ancestors, or per depth
cohort below it.

Every block that moves down the tree rides one relay, ``_Downcast``: a
node queues its own block, declares its parent edge a relay onto its
child edges, so the engine forwards each chunk from the parent unchanged
in the round it arrives (cut-through, never store-and-forward), and reads
the parent's stream as records through ``expect``.  A record is a
block whose width every node knows, possibly from its owner's level, or
a self-framed block whose head says how long it is, so no phase is
spent agreeing on a width and nothing is padded to one.  Given each
non-tree neighbour's level, the same relay swaps the blocks across
non-tree edges in the same phase: a node sends its own block and then
each ancestor's as it completes, down to a first level, and keeps what
it hears on each edge nearest first; the receiver names each block by
its place in the sender's root path.  A lowest casting level lets the
nodes whose blocks nobody reads cast nothing.

Chains cross non-tree edges only: a tree neighbour's root path is known
from one's own (a child's is one's own plus the child, the parent's
one's own minus oneself).  The ancestor cast swaps every id but the
root's, which all nodes know; after it both ends of a non-tree edge know
the prefix of root paths they share (``shared_prefix``), so no later
cast sends a block of that prefix across the edge.  A receiver can also
name its own cutoffs (``swap_cutoffs``): one word per edge, the lowest
level it still needs there, so an owner whose block another of its
non-tree edges brings crosses to it once.  The relay then sends each
edge down to the level its receiver named, which may differ from the
level it reads there.

A fold's slots are ancestor levels or depth cohorts.  A node sends its
record for a slot up once all of its children have reported theirs,
and the per-edge queues pace the wire.  A child's records arrive in
ascending slot order, so none carries its slot.  When a record fits one
round's budget, an ancestor fold from level ``m`` takes ``depth - m + 1``
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Mapping, Sequence

from .graphs import RootedTree
from .runtime import Engine, NodeHandle, ProtocolError, Steps, WordProgram

LABEL_BFS = "bfs"
LABEL_BCAST1 = "broadcast1"


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
    paths: dict[int, tuple[int, ...]]  # non-tree edge id -> neighbor's root path

    @property
    def is_root(self) -> bool:
        return self.parent is None


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


class _FloodEcho(WordProgram):
    """Flood levels out and echo the deepest level back: every node
    learns its level, parent, children and neighbours' levels, and the
    root the tree depth.

    A node adopts the first proposer it hears as its parent: flooding
    delivers all proposals of the winning level in one round, in
    sender-id order, so that is the smallest proposer at that level.  It
    then sends its level on every other port and, on its parent's, the
    join token ``n`` (no level reaches it).  Each port thus carries one
    record: a level, or a join token followed by that child's echo, the
    deepest level in its subtree, which a node sends once every port has
    spoken.  The root's echo is the tree depth.
    """

    def __init__(self, node: NodeHandle, root: int):
        super().__init__(node)
        self.level: int | None = 0 if node.id == root else None
        self.parent: int | None = None
        self.parent_eid: int | None = None
        self.children: list[tuple[int, int]] = []
        self.neighbor_levels: dict[int, int] = {}
        self.deepest = self.level
        self._silent = len(node.ports)

    def start(self):
        for nbr, eid in self.node.ports:
            self.expect(eid, 1, partial(self._heard, nbr, eid), self._echo_words)
        if self.level == 0:
            self._announce()

    def _echo_words(self, head: tuple[int, ...]) -> int:
        return int(head[0] == self.node.n)

    def _announce(self):
        for _, eid in self.node.ports:
            self.send(eid, self.node.n if eid == self.parent_eid else self.level)

    def _heard(self, nbr: int, eid: int, rec: tuple[int, ...]):
        if rec[0] == self.node.n:  # a child's join token and echo
            self.children.append((nbr, eid))
            self.neighbor_levels[eid] = self.level + 1
            self.deepest = max(self.deepest, rec[1])
        else:
            self.neighbor_levels[eid] = lvl = rec[0]
            if self.level is None:
                self.level = self.deepest = lvl + 1
                self.parent = nbr
                self.parent_eid = eid
                self._announce()
            elif lvl < self.level - 1:
                raise ProtocolError(
                    f"node {self.node.id} at level {self.level} heard level {lvl} from {nbr}"
                )
        self._silent -= 1
        if self._silent == 0 and self.parent_eid is not None:
            self.send(self.parent_eid, self.deepest)


def build_bfs(engine: Engine, root: int = 0) -> BfsInfo:
    """Grow a BFS tree rooted at ``root`` and give every node its place
    in it.

    Two sub-phases run under the ``bfs`` label: the flood-and-echo
    (levels out with lowest-proposer parent adoption, join tokens and
    the deepest level back), then the ancestor cast (the broadcast
    relay, with each node's own id as its block and the root's block
    the depth).  The cast swaps the ids across every non-tree edge from
    level 1 down, so the depth never crosses; the flood told each end
    the other's level, which is how many ids it reads.  Afterwards
    every node knows its level, parent, children, full ancestor list,
    the tree depth, the level of each neighbor and the root path of
    each non-tree neighbor.
    """
    g = engine.g
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range")

    flood = [_FloodEcho(h, root) for h in engine.handles]
    engine.run_phase(LABEL_BFS, flood)
    kids = [tuple(sorted(p.children)) for p in flood]
    ancs = []
    for v, (h, p) in enumerate(zip(engine.handles, flood)):
        tree_eids = {p.parent_eid, *(eid for _, eid in kids[v])}
        swap = {eid: (1, 1, lvl) for eid, lvl in p.neighbor_levels.items() if eid not in tree_eids}
        ancs.append(_Downcast(h, p.level, p.parent_eid, kids[v],
                              (p.deepest if v == root else v,), 1, swap=swap))
    _run_relay(engine, LABEL_BFS, ancs)

    nodes = []
    for v, p in enumerate(flood):
        # the root's block, the depth, is the last one heard
        depth, *above = [rec[0] for rec in reversed(ancs[v].received)] or [p.deepest]
        paths = {eid: (root, *(rec[0] for rec in reversed(recs)))
                 for eid, recs in ancs[v].across.items()}
        for eid, path in paths.items():
            if (path[-1] != engine.handles[v].neighbor(eid)
                    or len(path) != p.neighbor_levels[eid] + 1):
                raise ProtocolError(f"bfs: node {v} heard root path {path} on edge {eid}")
        nb = NodeBfs(
            id=v,
            root=root,
            n=g.n,
            level=p.level,
            parent=p.parent,
            parent_eid=p.parent_eid,
            children=kids[v],
            ancestors=(root, *above, v) if v != root else (v,),
            depth=depth,
            neighbor_levels=p.neighbor_levels,
            paths=paths,
        )
        if (len(nb.ancestors) != nb.level + 1 or nb.ancestors[-1] != v
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
    reduced-sketch strata).  Its ``relays`` send every chunk from its
    parent on to its children unchanged, in the round the chunk arrives
    (the engine forwards them), and it reads the parent's stream as
    records through ``expect``: ``width`` words each
    (``width(l)`` for the block of a level-``l`` owner, when a block's
    length follows from its owner's level), or ``width`` head words plus
    ``more(head)`` when blocks frame themselves.  No width is agreed
    beforehand and no block is stored before it moves on.
    ``received`` holds the ``level - lo`` records, nearest ancestor
    first.

    ``swap`` maps each non-tree edge to ``(send_first, recv_first,
    top)``: the lowest level whose block this node sends across it, the
    lowest level it reads there, and the neighbour's level.  Across it
    the node sends its own (single) block at start and each ancestor's
    as soon as it completes in the parent stream, down to level
    ``send_first``.  The neighbour does the same, so its blocks from
    level ``top`` down to ``recv_first`` arrive in a fixed order, its own
    first and then its ancestors nearest first; ``across`` keeps them per
    edge in that order, and no owner word crosses.  Each edge has its
    own budget per direction, so the swap rides the cast's rounds.
    ``heads`` maps non-tree edges to one word the node sends there ahead
    of its blocks; the neighbour's word on that edge lands in
    ``told``.  :func:`_run_relay` checks that nothing trails the
    records.
    """

    def __init__(self, node: NodeHandle, level: int, parent_eid: int | None,
                 children: tuple[tuple[int, int], ...],
                 block: Sequence[int] | Mapping[int, Sequence[int]],
                 width: int | Callable[[int], int],
                 more: Callable[[tuple[int, ...]], int] | None = None, lo: int = 0,
                 swap: Mapping[int, tuple[int, int, int]] | None = None,
                 heads: Mapping[int, int] | None = None):
        super().__init__(node)
        self.level = level
        self.lo = lo
        self.parent_eid = parent_eid
        self.children = children
        self.swap = swap or {}
        self.heads = heads or {}
        if parent_eid is not None:
            self.relays = {parent_eid: tuple(eid for _, eid in children)}
        if level < lo:
            self.blocks = {}
        elif isinstance(block, Mapping):
            self.blocks = {eid: tuple(words) for eid, words in block.items()}
        else:
            own = tuple(block)
            self.blocks = dict.fromkeys((eid for _, eid in children), own)
            self.blocks.update(
                (eid, own) for eid, (first, _, _) in self.swap.items() if level >= first
            )
        self.width = width if callable(width) else lambda level: width
        self.more = more
        self.received: list[tuple[int, ...]] = []
        self.across: dict[int, list[tuple[int, ...]]] = {eid: [] for eid in self.swap}
        self.told: dict[int, int] = {}

    def frames(self, words: tuple[int, ...]) -> bool:
        """Is ``words`` exactly one record of this node's level as the
        relay reads them?"""
        head = self.width(self.level)
        if len(words) < head:
            return False
        return len(words) == head + (self.more(words[:head]) if self.more else 0)

    def start(self):
        for eid, word in self.heads.items():
            self.send(eid, word)
            self.expect(eid, 1, partial(self._told, eid))
        for eid, words in self.blocks.items():
            self.send(eid, *words)
        for level in range(self.level - 1, self.lo - 1, -1):
            self.expect(self.parent_eid, self.width(level), self._read, self.more)
        for eid, (_, first, top) in self.swap.items():
            for level in range(top, first - 1, -1):
                self.expect(eid, self.width(level), self.across[eid].append, self.more)

    def _told(self, eid: int, rec: tuple[int, ...]) -> None:
        self.told[eid] = rec[0]

    def _read(self, rec: tuple[int, ...]) -> None:
        self.received.append(rec)
        level = self.level - len(self.received)
        for eid, (first, _, _) in self.swap.items():
            if level >= first:
                self.send(eid, *rec)


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


def broadcast_t1(
    engine: Engine,
    info: BfsInfo,
    values: Sequence[int],
    paths: Sequence[Mapping[int, Sequence[int]]] | None = None,
) -> list[dict[int, int]]:
    """Deliver each node's single word to its entire subtree (the
    :func:`broadcast_t2` chain, run at once).

    Returns, per node ``u``, a map from every ancestor of ``u``
    (including ``u`` itself) to that ancestor's word.  With ``paths``
    the words are also swapped across non-tree edges, and the map holds
    the rest of each neighbour's chain too (see :func:`broadcast_t2`).
    Pipelining keeps the cost linear in the tree depth.
    """
    received, _ = engine.run_chain(
        broadcast_t2(engine, info, LABEL_BCAST1, [(x,) for x in values], 1, paths=paths))
    return [{who: blk[0] for who, blk in got.items()} for got in received]


def broadcast_t2(
    engine: Engine,
    info: BfsInfo,
    label: str,
    blocks: Sequence[Sequence[int]],
    width: int | Callable[[int], int],
    more: Callable[[tuple[int, ...]], int] | None = None,
    lo: int = 0,
    paths: Sequence[Mapping[int, Sequence[int]]] | None = None,
    cutoffs: Sequence[Mapping[int, tuple[int, int]]] | None = None,
    heads: Sequence[Mapping[int, int]] | None = None,
) -> Steps:
    """Relay every node's block to its subtree and, given ``paths`` (per
    node, each non-tree neighbour's root path), across its non-tree
    edges.  A one-phase chain: run it with ``engine.run_chain`` or
    alongside another with ``engine.launch``.

    Blocks frame themselves: ``width`` head words, then ``more(head)``
    further words; or, without ``more``, a level-``l`` node's block is
    ``width(l)`` words long.  Either way each ancestor's block costs
    exactly its own length.  The relay is cut-through, so the cost is
    one pipelined pass of each ancestor's block, quadratic in depth when
    blocks are of depth order.  Nodes nearer the root than level ``lo``
    cast nothing.  By default the blocks of the root-path prefix both
    ends of a non-tree edge share are already in both chains, so they
    never cross it, and the rest of each chain does.  ``cutoffs`` names
    instead, per node and non-tree edge, ``(send_first, recv_first)``:
    the lowest level the neighbour asked for there and the lowest level
    this node asked for (:func:`swap_cutoffs`), neither below ``lo``.
    ``heads`` gives, per node, one word to send on each non-tree edge
    ahead of the blocks.

    The chain returns ``(held, told)``.  ``held`` maps, per node, every
    owner whose block it holds (its ancestors from level ``lo``, itself,
    and what it read of its non-tree neighbours' chains) to that block,
    head words kept; ``told`` maps, per node, each non-tree edge to the
    head word its neighbour sent there (empty without ``heads``).
    """
    programs = []
    for v, h in enumerate(engine.handles):
        nb = info[v]
        swap = {}
        for eid, path in (paths[v] if paths else {}).items():
            ends = cutoffs[v][eid] if cutoffs else (max(shared_prefix(nb.ancestors, path), lo),) * 2
            swap[eid] = (*ends, len(path) - 1)
        programs.append(_Downcast(h, nb.level, nb.parent_eid, nb.children, blocks[v], width,
                                  more, lo, swap, heads[v] if heads else None))
    yield from _relay_phase(label, programs)
    held = []
    for nb, p, own in zip(info.nodes, programs, blocks):
        got = dict(zip(reversed(nb.ancestors[lo:-1]), p.received))
        if nb.level >= lo:
            got[nb.id] = tuple(own)
        for eid, (_, first, _) in p.swap.items():
            got.update(zip(reversed(paths[nb.id][eid][first:]), p.across[eid]))
        held.append(got)
    return held, [p.told for p in programs]


def shared_prefix(path: Sequence[int], other: Sequence[int]) -> int:
    """How many levels two root paths share; both ends of a non-tree edge
    work it out alike, so nothing keyed by that prefix needs to cross."""
    return sum(a == b for a, b in zip(path, other))


def swap_cutoffs(ancestors: Sequence[int], paths: Mapping[int, Sequence[int]]) -> dict[int, int]:
    """Per non-tree edge, the lowest level of the neighbour's chain a node
    with root path ``ancestors`` still needs from that edge.

    The edges are walked in ascending neighbour id (``paths`` holds each
    neighbour's root path).  Each one starts at the prefix it shares
    with this node; levels whose owners an earlier edge already brings
    are skipped, and the edge takes the rest.  What the node holds is
    always closed under ancestors, since an edge brings whole suffixes of
    chains, so each edge's share is one suffix of its neighbour's chain,
    named by one level (past the neighbour's own when it needs none).
    """
    have = set(ancestors)
    first = {}
    for eid, path in sorted(paths.items(), key=lambda item: item[1][-1]):
        first[eid] = level = next((l for l, u in enumerate(path) if u not in have), len(path))
        have.update(path[level:])
    return first


# ---------------------------------------------------------------------------
# Tree-restricted semigroup folds


@dataclass
class SemigroupSpec:
    """A fold instance: phase label, domain, operation, atoms, and wire
    encoding.

    ``name`` labels the fold's phase.  ``atomic(state, s)`` yields the
    node's atomic element for slot ``s`` (an ancestor level or a depth
    cohort, see :func:`trsf_compute`); ``state`` is whatever per-node
    object the caller passed to :func:`trsf_compute`.  ``encode``/``decode``
    translate elements to word tuples.  An element's record opens with
    one head word, and is that word alone unless ``tail_words`` is
    given: it reads the head and answers how many words follow.
    Elements must support ``==`` (used for the algebra self-check).
    """

    name: str
    combine: Callable[[object, object], object]
    atomic: Callable[[object, int], object]
    encode: Callable[[object], tuple[int, ...]]
    decode: Callable[[tuple[int, ...]], object]
    tail_words: Callable[[tuple[int, ...]], int] | None = None
    identity: object = None


class _TrsfProgram(WordProgram):
    """One node's part of a fold: it folds its children's records for
    ``slots(level + 1)`` into its own atoms and sends its records for
    ``slots(level)`` up (a root sends none), in ascending slot order, so
    no record carries its slot."""

    def __init__(self, node: NodeHandle, nb: NodeBfs, spec: SemigroupSpec,
                 state: object, slots: Callable[[int], Sequence[int]]):
        super().__init__(node)
        self.nb = nb
        self.spec = spec
        self.up = () if nb.is_root else slots(nb.level)
        self.below = slots(nb.level + 1)
        self.acc = {s: spec.atomic(state, s) for s in sorted({*slots(nb.level), *self.below})}
        self.pending = dict.fromkeys(self.below, len(nb.children))
        self.sent = 0

    def start(self):
        # A child's records arrive in ascending slot order.
        for _, eid in self.nb.children:
            for s in self.below:
                self.expect(eid, 1, partial(self._record, s),
                            self.spec.tail_words)
        self._settle()

    def _record(self, s: int, rec: tuple[int, ...]):
        self.pending[s] -= 1
        self.acc[s] = self.spec.combine(self.acc[s], self.spec.decode(rec))
        self._settle()

    def _settle(self):
        # A slot no child sends is owed nothing and goes at once.
        while self.sent < len(self.up) and not self.pending.get(self.up[self.sent]):
            self.send(self.nb.parent_eid, *self.spec.encode(self.acc[self.up[self.sent]]))
            self.sent += 1


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
    slots: Callable[[int], Sequence[int]] = range,
) -> list[dict[int, object]]:
    """Fold atomic values over every subtree, one wave up the tree.

    ``slots(l)`` names the records a level-``l`` node sends up, in
    ascending order; its children send ``slots(l + 1)``.  The result's
    ``[a][s]`` is node ``a``'s atom for slot ``s`` combined with every
    record its children sent for ``s``.  The slots are either
    *ancestor levels* (the default, ``range``: slot ``l`` is the partial
    fold toward the level-``l`` ancestor, and ``[a][l_a]`` the node's
    own subtree value; ``partial(range, m)`` restricts the fold to the
    forest of subtrees rooted at level ``m``, which is how per-pivot
    instances reuse this engine) or *depth cohorts*
    (``lambda l: range(l, depth + 1)``: slot ``d`` folds the subtree's
    depth-``d`` atoms).

    A node sends each record up as soon as all its children's records
    for that slot are in; the per-edge queues pace the wire, so an
    ancestor fold from level ``m`` whose records fit one round's budget
    takes ``depth - m + 1`` rounds.  Records carry no slot word, so a
    record past the last slot is left unread and refused here.
    Afterwards the combine operation is checked for commutativity and
    associativity on a sample of the folded elements.
    """
    return engine.run_chain(trsf_steps(engine, info, spec, states, slots))


def trsf_steps(
    engine: Engine,
    info: BfsInfo,
    spec: SemigroupSpec,
    states: Sequence[object],
    slots: Callable[[int], Sequence[int]] = range,
) -> Steps:
    """:func:`trsf_compute` as a one-phase chain, labelled ``spec.name``,
    to run alongside another with ``engine.launch``."""
    programs = [
        _TrsfProgram(h, info[v], spec, states[v], slots)
        for v, h in enumerate(engine.handles)
    ]
    yield spec.name, programs
    # A record short leaves an expect unmet, which the engine reports.
    for p in programs:
        if p.stray:
            raise ProtocolError(
                f"phase {spec.name!r}: node {p.node.id} heard {p.stray} words "
                f"that no record claimed"
            )
    _check_algebra(spec, [x for p in programs for x in p.acc.values()])
    return [p.acc for p in programs]
