"""Graph model and centralized reference algorithms.

The protocols in this package run inside a message-passing simulator,
but every answer they produce is checked against plain sequential code.
This module holds that ground truth: a small immutable graph type with
stable edge identifiers, exhaustive min-cut enumeration, a polynomial
exact oracle for minimum cuts of size at most three, a max-flow
edge-connectivity routine, spanning-tree enumeration, rooted spanning
trees, and deterministic generators for the graph families used in
tests and benchmarks.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from collections import deque
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

ORACLE_LIMIT_ENV = "MINCUT_ORACLE_LIMIT"
_DEFAULT_ORACLE_LIMIT = 16


class Graph:
    """An undirected, simple, connected graph with stable edge ids.

    Edges are normalized to ``(u, v)`` with ``u < v`` and numbered by
    their position in the input sequence; that numbering is the edge id
    used everywhere else (cut sets, bandwidth accounting, message
    routing).  Instances are treated as immutable after construction.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError("a graph needs at least one vertex")
        norm: list[tuple[int, int]] = []
        index: dict[tuple[int, int], int] = {}
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in index:
                raise ValueError(f"duplicate edge ({u}, {v})")
            index[(u, v)] = len(norm)
            norm.append((u, v))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(norm)
        self.edge_index = index
        lists: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(norm):
            lists[u].append((v, e))
            lists[v].append((u, e))
        # inc[v] pairs (neighbor, edge id) sorted by neighbor; adj[v] is
        # the sorted neighbor tuple on its own.
        self.inc: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(sorted(l)) for l in lists
        )
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(w for w, _ in l) for l in self.inc
        )
        if not _pairs_connected(n, self.edges):
            raise ValueError("graph is not connected")

    @property
    def m(self) -> int:
        return len(self.edges)

    def eid(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        try:
            return self.edge_index[(u, v)]
        except KeyError:
            raise ValueError(f"no edge ({u}, {v})") from None

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def eccentricities(self) -> tuple[int, ...]:
        """Each vertex's largest hop distance to any other, by BFS from all."""
        return tuple(max(_bfs_levels(self, s)) for s in range(self.n))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _pairs_connected(n: int, pairs: Iterable[tuple[int, int]]) -> bool:
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    parts = n
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            parts -= 1
    return parts == 1


def loads(text: str) -> Graph:
    """Parse the graph text format.

    Everything after a ``#`` is a comment and blank lines are skipped.
    The first line left is the header ``n m`` (vertex and edge counts),
    and each further line is one edge ``u v``.
    """
    rows: list[tuple[int, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            a, b = map(int, parts)
        except ValueError:
            raise ValueError(f"line {ln}: expected two integers, got {raw!r}") from None
        rows.append((a, b))
    if not rows:
        raise ValueError("missing the 'n m' header line")
    (n, m), edges = rows[0], rows[1:]
    if len(edges) != m:
        raise ValueError(f"header claims {m} edges, file has {len(edges)}")
    return Graph(n, edges)


def dumps(g: Graph, comment: str = "") -> str:
    """The text form :func:`loads` reads, with an optional comment line."""
    lines = [f"# {comment}"] if comment else []
    lines.append(f"{g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _vertex_set(g: Graph, vs: Iterable[int]) -> frozenset[int]:
    s = frozenset(vs)
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex id {v} out of range 0..{g.n - 1}")
    return s


def boundary(g: Graph, side: Iterable[int]) -> frozenset[int]:
    """Edge ids with exactly one endpoint in ``side``."""
    s = _vertex_set(g, side)
    return frozenset(e for e, (u, v) in enumerate(g.edges) if (u in s) != (v in s))


def edge_pairs(g: Graph, eids: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Canonical form of an edge set: sorted tuple of sorted endpoint pairs."""
    return tuple(sorted(g.edges[e] for e in eids))


def gamma(g: Graph, a: Iterable[int], b: Iterable[int]) -> int:
    """Number of edges with one endpoint in ``a`` and the other in ``b``."""
    sa, sb = _vertex_set(g, a), _vertex_set(g, b)
    if sa & sb:
        raise ValueError("vertex sets overlap")
    return sum(
        1
        for u, v in g.edges
        if (u in sa and v in sb) or (u in sb and v in sa)
    )


def is_induced_cut(g: Graph, cut: Iterable[int]) -> frozenset[int] | None:
    """Decide whether an edge set is exactly the boundary of a vertex set.

    Returns the witness side that avoids vertex 0 when it is, ``None``
    otherwise.  The witness is unique for a connected graph: removing
    the candidate edges splits the graph into components, every
    candidate edge must join two distinct components, and the component
    graph (which is connected because the original graph is) must be
    two-colorable with all candidate edges bichromatic — a coloring
    fixed up to one global flip, pinned here by vertex 0's side.
    """
    f = frozenset(cut)
    if not f:
        return None
    for e in f:
        if not 0 <= e < g.m:
            raise ValueError(f"edge id {e} out of range")
    comp = [-1] * g.n
    ncomp = 0
    for s in range(g.n):
        if comp[s] != -1:
            continue
        comp[s] = ncomp
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w, e in g.inc[u]:
                if e in f or comp[w] != -1:
                    continue
                comp[w] = ncomp
                queue.append(w)
        ncomp += 1
    halves = []
    comp_adj: list[list[int]] = [[] for _ in range(ncomp)]
    for e in f:
        u, v = g.edges[e]
        cu, cv = comp[u], comp[v]
        if cu == cv:
            return None
        comp_adj[cu].append(cv)
        comp_adj[cv].append(cu)
        halves.append((cu, cv))
    color = [-1] * ncomp
    color[comp[0]] = 0
    queue = deque([comp[0]])
    while queue:
        c = queue.popleft()
        for d in comp_adj[c]:
            if color[d] == -1:
                color[d] = 1 - color[c]
                queue.append(d)
            elif color[d] == color[c]:
                return None
    witness = frozenset(v for v in range(g.n) if color[comp[v]] == 1)
    if boundary(g, witness) != f:
        raise RuntimeError(f"is_induced_cut: the two-coloured side does not induce {sorted(f)}")
    return witness


class OracleResult(NamedTuple):
    """An oracle's answer: the cut size and every minimum cut's edge ids."""

    lam: int
    min_cuts: tuple[frozenset[int], ...]


def min_cut_oracle(g: Graph, limit: int | None = None) -> OracleResult:
    """Enumerate all minimum cuts by brute force over vertex subsets.

    Every cut is the boundary of a vertex set avoiding vertex 0, so it
    suffices to scan the 2^(n-1) subsets of the remaining vertices.  The
    scan visits them in Gray-code order, one vertex moving across per
    step, and keeps the cut size from neighbour bitmasks.  Only a side
    whose size is at most the best seen so far has its edge set built,
    and that set's size is checked against the running count.  That is
    exponential on purpose: this is the trusted reference that tests
    hold :func:`small_cut_oracle` (which ``verify`` uses) and the
    protocols to, and it refuses graphs beyond ``limit`` vertices
    (default 16, overridable via the MINCUT_ORACLE_LIMIT environment
    variable) rather than silently burning hours.
    """
    if g.n < 2:
        raise ValueError("a single-vertex graph has no cuts")
    if limit is None:
        limit = int(os.environ.get(ORACLE_LIMIT_ENV, str(_DEFAULT_ORACLE_LIMIT)))
    if g.n > limit:
        raise ValueError(
            f"refusing exhaustive min-cut enumeration for n={g.n} > {limit}; "
            f"raise {ORACLE_LIMIT_ENV} or use edge_connectivity() for the size alone"
        )
    edges = g.edges
    nbrs = [sum(1 << w for w in ws) for ws in g.adj]
    degree = [len(ws) for ws in g.adj]
    best = g.m + 1
    cuts: set[frozenset[int]] = set()
    side = 0  # bit v set: vertex v is on the far side; vertex 0 never is
    size = 0
    for step in range(1, 1 << (g.n - 1)):
        # Gray code: step k moves the vertex one past k's lowest set bit.
        # Joining the side cuts its edges to the near side and uncuts
        # those to the far side; leaving does the opposite.
        v = (step & -step).bit_length()
        joined = degree[v] - 2 * (nbrs[v] & side).bit_count()
        size += -joined if side >> v & 1 else joined
        side ^= 1 << v
        if size > best:
            continue
        ids = [e for e, (u, w) in enumerate(edges) if (side >> u ^ side >> w) & 1]
        if len(ids) != size:
            raise RuntimeError(
                f"min_cut_oracle: side {side:#x} has {len(ids)} edges, counted {size}"
            )
        if size < best:
            best = size
            cuts = {frozenset(ids)}
        else:
            cuts.add(frozenset(ids))
    ordered = tuple(sorted(cuts, key=lambda f: edge_pairs(g, f)))
    return OracleResult(best, ordered)


def small_cut_oracle(g: Graph, max_size: int = 3) -> OracleResult:
    """Every minimum cut of size at most ``max_size`` (1, 2 or 3), in
    polynomial time.

    The size comes from max-flow (:func:`edge_connectivity`).  The cuts
    come from cycle-space sampling (Pritchard & Thurimella, "Fast
    computation of small cuts via cycle space sampling", ACM TALG 2011):
    every non-tree edge of the BFS tree from vertex 0 gets a 64-bit
    label from a fixed seed, and every tree edge the xor of the labels
    leaving its lower subtree.  A cut meets every cycle in an even
    number of edges, so its labels xor to 0, whatever they are: the
    zero-xor singletons, pairs and triples hold every cut of that size,
    and :func:`is_induced_cut` keeps exactly the real ones.  So the
    answer is exact; the labels only decide how many false candidates
    the filter has to turn away.

    For each size up to ``min(lambda, max_size)`` every kept cut is
    checked against max-flow: one smaller than lambda, or no cut of size
    lambda when lambda <= ``max_size``, raises ``RuntimeError``.  The
    result lists cuts in :func:`min_cut_oracle`'s order, and none when
    lambda exceeds ``max_size``.  O(m^2) candidate pairs for size 3,
    each zero-xor candidate tested in O(n + m).
    """
    if max_size not in (1, 2, 3):
        raise ValueError(f"max_size must be 1, 2 or 3, not {max_size}")
    lam = edge_connectivity(g)
    label = _cycle_space_labels(g)
    cuts = []
    for size in range(1, min(lam, max_size) + 1):
        for cand in _zero_xor_sets(label, size):
            if is_induced_cut(g, cand) is None:
                continue
            if size < lam:
                raise RuntimeError(
                    f"small_cut_oracle: {sorted(cand)} is a cut of size {size}, "
                    f"but max-flow gives lambda={lam}"
                )
            cuts.append(frozenset(cand))
    if lam <= max_size and not cuts:
        raise RuntimeError(f"small_cut_oracle: no cut of size lambda={lam} among the candidates")
    return OracleResult(lam, tuple(sorted(cuts, key=lambda f: edge_pairs(g, f))))


def _cycle_space_labels(g: Graph) -> list[int]:
    """One label per edge id: non-tree edges of the BFS tree from 0 draw
    64 bits from a fixed seed, tree edges carry the xor of those leaving
    their lower subtree."""
    rng = random.Random(0)
    tree = RootedTree.bfs(g, 0)
    label = [0] * g.m
    leaving = [0] * g.n
    parent_eid = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        if tree.parent[v] == u:
            parent_eid[v] = e
        elif tree.parent[u] == v:
            parent_eid[u] = e
        else:
            label[e] = x = rng.getrandbits(64)
            leaving[u] ^= x
            leaving[v] ^= x
    for v in reversed(tree.order[1:]):
        label[parent_eid[v]] = leaving[v]
        leaving[tree.parent[v]] ^= leaving[v]
    return label


def _zero_xor_sets(label: list[int], size: int) -> Iterator[tuple[int, ...]]:
    """Every ascending tuple of ``size`` edge ids (1 to 3) whose labels
    xor to 0, each once."""
    by_label: dict[int, list[int]] = {}
    for e, x in enumerate(label):
        by_label.setdefault(x, []).append(e)
    if size == 1:
        yield from ((e,) for e in by_label.get(0, ()))
    elif size == 2:
        for group in by_label.values():
            yield from itertools.combinations(group, 2)
    else:
        for a, b in itertools.combinations(range(len(label)), 2):
            for c in by_label.get(label[a] ^ label[b], ()):
                if c > b:
                    yield (a, b, c)


def _bfs_levels(g: Graph, root: int) -> list[int]:
    """Hop distance from ``root`` to every vertex."""
    level = [-1] * g.n
    level[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if level[w] == -1:
                level[w] = level[u] + 1
                queue.append(w)
    return level


def _unit_max_flow(g: Graph, s: int, t: int, limit: int) -> int:
    res: list[dict[int, int]] = [dict.fromkeys(g.adj[u], 1) for u in range(g.n)]
    flow = 0
    while flow < limit:
        prev = [-1] * g.n
        prev[s] = s
        queue = deque([s])
        while queue and prev[t] == -1:
            u = queue.popleft()
            for v, c in res[u].items():
                if c > 0 and prev[v] == -1:
                    prev[v] = u
                    queue.append(v)
        if prev[t] == -1:
            break
        v = t
        while v != s:
            u = prev[v]
            res[u][v] -= 1
            res[v][u] += 1
            v = u
        flow += 1
    return flow


def edge_connectivity(g: Graph) -> int:
    """Size of a minimum cut, via unit-capacity max-flow from vertex 0.

    Some side of any minimum cut avoids vertex 0, so the minimum over
    all sinks of maxflow(0, t) is exact.  Each individual flow stops
    augmenting once it reaches the best bound seen so far.
    """
    if g.n < 2:
        raise ValueError("a single-vertex graph has no cuts")
    best = min(g.degree(v) for v in range(g.n))
    for t in range(1, g.n):
        if best == 1:
            break
        best = min(best, _unit_max_flow(g, 0, t, best))
    return best


def generate(family: str, n: int, seed: int = 0, **params) -> Graph:
    """Build a named test-family graph deterministically.

    Families: ``path``, ``cycle``, ``complete``, ``grid`` (square, or
    pass ``rows``/``cols``), ``prism`` (two cycles of n/2 joined by a
    perfect matching), ``barbell`` (two cliques of n/2 joined by one
    bridge), and ``random_connected`` (Erdős–Rényi conditioned on
    connectivity, with optional ``lam_min``/``lam_max`` filters).
    ``seed`` only matters for the random family.
    """
    makers = {
        "path": _gen_path,
        "cycle": _gen_cycle,
        "complete": _gen_complete,
        "grid": _gen_grid,
        "prism": _gen_prism,
        "barbell": _gen_barbell,
        "random_connected": _gen_random_connected,
    }
    try:
        maker = makers[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; choose from {', '.join(sorted(makers))}"
        ) from None
    leftover = params.copy()
    g = maker(n, seed, leftover)
    if leftover:
        raise ValueError(f"family {family!r} does not take {sorted(leftover)}")
    return g


def _gen_path(n: int, seed: int, params: dict) -> Graph:
    if n < 2:
        raise ValueError("path needs n >= 2")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _gen_cycle(n: int, seed: int, params: dict) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _gen_complete(n: int, seed: int, params: dict) -> Graph:
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return Graph(n, list(itertools.combinations(range(n), 2)))


def _gen_grid(n: int, seed: int, params: dict) -> Graph:
    rows = params.pop("rows", None)
    cols = params.pop("cols", None)
    if rows is None and cols is None:
        side = math.isqrt(n)
        if side * side != n:
            raise ValueError("grid needs a perfect-square n, or explicit rows/cols")
        rows = cols = side
    elif rows is None:
        rows = n // cols
    elif cols is None:
        cols = n // rows
    if rows * cols != n or rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions {rows}x{cols} do not match n={n}")
    if n < 2:
        raise ValueError("grid needs n >= 2")
    pairs = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                pairs.append((v, v + 1))
            if r + 1 < rows:
                pairs.append((v, v + cols))
    return Graph(n, pairs)


def _gen_prism(n: int, seed: int, params: dict) -> Graph:
    if n < 6 or n % 2:
        raise ValueError("prism needs even n >= 6")
    k = n // 2
    pairs = [(i, (i + 1) % k) for i in range(k)]
    pairs += [(k + i, k + (i + 1) % k) for i in range(k)]
    pairs += [(i, k + i) for i in range(k)]
    return Graph(n, pairs)


def _gen_barbell(n: int, seed: int, params: dict) -> Graph:
    if n < 6 or n % 2:
        raise ValueError("barbell needs even n >= 6")
    k = n // 2
    pairs = list(itertools.combinations(range(k), 2))
    pairs += list(itertools.combinations(range(k, n), 2))
    pairs.append((k - 1, k))
    return Graph(n, pairs)


def _gen_random_connected(n: int, seed: int, params: dict) -> Graph:
    p = params.pop("p", None)
    lam_min = params.pop("lam_min", None)
    lam_max = params.pop("lam_max", None)
    tries = params.pop("tries", 200)
    if n < 2:
        raise ValueError("random_connected needs n >= 2")
    if p is None:
        p = 0.5 if n <= 12 else min(0.9, 2.0 * math.log(n) / n)
    if not 0.0 < p <= 1.0:
        raise ValueError(f"edge probability {p} outside (0, 1]")
    rng = random.Random(seed)
    for _ in range(tries):
        pairs = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < p
        ]
        if not pairs or not _pairs_connected(n, pairs):
            continue
        g = Graph(n, pairs)
        if lam_min is not None or lam_max is not None:
            lam = edge_connectivity(g)
            if lam_min is not None and lam < lam_min:
                continue
            if lam_max is not None and lam > lam_max:
                continue
        return g
    raise ValueError(
        f"could not generate a connected graph with n={n}, p={p} "
        f"within {tries} attempts"
    )


class RootedTree:
    """A spanning tree with root, parents, levels and descendant sets.

    The protocols grow this structure one message at a time; tests and
    the cut materializer need the same thing instantly, which is what
    this class provides.  ``bfs`` reproduces the distributed tie-break
    exactly: a vertex's parent is its smallest neighbor one level up.
    """

    def __init__(self, parent: Iterable[int | None], root: int):
        parent = tuple(parent)
        n = len(parent)
        if not 0 <= root < n or parent[root] is not None:
            raise ValueError("root must be in range with no parent")
        kids: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parent):
            if v == root:
                continue
            if p is None or not 0 <= p < n:
                raise ValueError(f"vertex {v} has invalid parent {p!r}")
            kids[p].append(v)
        level = [-1] * n
        level[root] = 0
        order = [root]
        for v in order:
            for c in sorted(kids[v]):
                level[c] = level[v] + 1
                order.append(c)
        if len(order) != n:
            raise ValueError("parent pointers do not form a tree on all vertices")
        self.n = n
        self.root = root
        self.parent = parent
        self.level = tuple(level)
        self.children = tuple(tuple(sorted(k)) for k in kids)
        self.order = tuple(order)
        self.depth = max(level)
        self._anc: dict[int, tuple[int, ...]] = {}
        self._desc: list[frozenset[int]] | None = None

    @classmethod
    def bfs(cls, g: Graph, root: int = 0) -> RootedTree:
        if not 0 <= root < g.n:
            raise ValueError(f"root {root} out of range")
        level = _bfs_levels(g, root)
        parent: list[int | None] = [None] * g.n
        for v in range(g.n):
            if v == root:
                continue
            parent[v] = next(u for u in g.adj[v] if level[u] == level[v] - 1)
        return cls(parent, root)

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]], root: int = 0) -> RootedTree:
        pairs = list(pairs)
        if len(pairs) != n - 1:
            raise ValueError(f"a spanning tree on {n} vertices needs {n - 1} edges")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in pairs:
            adj[u].append(v)
            adj[v].append(u)
        parent: list[int | None] = [None] * n
        seen = [False] * n
        seen[root] = True
        queue = deque([root])
        reached = 1
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = u
                    reached += 1
                    queue.append(w)
        if reached != n:
            raise ValueError("edges do not span all vertices")
        return cls(parent, root)

    def ancestors(self, v: int) -> tuple[int, ...]:
        """Path from the root down to ``v``, both endpoints included."""
        cached = self._anc.get(v)
        if cached is None:
            chain = [v]
            while self.parent[chain[-1]] is not None:
                chain.append(self.parent[chain[-1]])
            chain.reverse()
            cached = self._anc[v] = tuple(chain)
        return cached

    def alpha(self, v: int, l: int) -> int:
        """The ancestor of ``v`` sitting at level ``l``."""
        if not 0 <= l <= self.level[v]:
            raise ValueError(f"level {l} is outside 0..{self.level[v]} for vertex {v}")
        return self.ancestors(v)[l]

    def desc(self, v: int) -> frozenset[int]:
        """All descendants of ``v``, including ``v`` itself."""
        if self._desc is None:
            sets: list[frozenset[int] | None] = [None] * self.n
            for v2 in reversed(self.order):
                acc = {v2}
                for c in self.children[v2]:
                    acc |= sets[c]  # type: ignore[arg-type]
                sets[v2] = frozenset(acc)
            self._desc = sets  # type: ignore[assignment]
        return self._desc[v]


def non_tree_eids(g: Graph, t: RootedTree) -> frozenset[int]:
    """Edge ids of ``g`` that are not parent edges of ``t``."""
    out = []
    for e, (u, v) in enumerate(g.edges):
        if t.parent[u] == v or t.parent[v] == u:
            continue
        out.append(e)
    if len(out) != g.m - (g.n - 1):
        raise ValueError("the tree is not a spanning tree of the graph")
    return frozenset(out)


def spanning_trees(g: Graph) -> Iterator[tuple[int, ...]]:
    """Yield every spanning tree of ``g`` as a sorted tuple of edge ids.

    Pure enumeration over edge subsets — usable only for small graphs,
    which is exactly where exhaustive tree-by-tree validation runs.
    """
    n = g.n
    for combo in itertools.combinations(range(g.m), n - 1):
        root = list(range(n))
        ok = True
        for e in combo:
            u, v = g.edges[e]
            while root[u] != u:
                root[u] = root[root[u]]
                u = root[u]
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            if u == v:
                ok = False
                break
            root[u] = v
        if ok:
            yield combo
