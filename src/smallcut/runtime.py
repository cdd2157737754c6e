"""Synchronous message-passing engine with bandwidth metering.

The model is the classic synchronous network: one state machine per
vertex, lock-step rounds, and per-edge channels that carry only a few
machine words per round.  A word is ``max(1, ceil(log2 n))`` bits — big
enough for a vertex id — and every atomic value a protocol transmits
(an id, a level, a counter) is accounted as exactly one word.  The
per-round budget is ``word_bits`` words per edge *per direction*.

Programs do not send packets directly.  They append words to a per-edge
outbound queue; at the end of each round the engine drains at most the
budget from every queue into a frame that is delivered at the start of
the next round.  Longer records therefore stream across consecutive
rounds automatically, and the budget holds by construction.  Strict
mode adds value validation: a word must stay below ``max(4, n^2)``, so
a protocol cannot smuggle unbounded payloads through single words.

Programs read records with ``expect``: a fixed number of words, or a
head whose words say how long the rest is (``more``).  A relay also
overrides ``on_chunk`` to forward each chunk as it arrives, and hands
the chunk on to the base class to read its records; a program that
only counts tokens overrides ``on_chunk`` alone.

A phase ends when the wire is empty: no queue holds words and nothing
is in flight.  A program that still waits on an ``expect`` at that
point can never be served, so the engine raises ``ProtocolError``.
Deliveries within a round are dispatched in ``(sender id, edge id)``
order, which makes every run bit-for-bit reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from .graphs import Graph


def word_size_bits(n: int) -> int:
    """Bits in one word on an ``n``-vertex network: ceil(log2 n), at least 1."""
    return max(1, (n - 1).bit_length())


class ProtocolError(RuntimeError):
    """A protocol broke the rules of the communication model."""


class BandwidthError(ProtocolError):
    """A single word carried more than one word's worth of information."""

    def __init__(self, edge: int, round_no: int, bits: int, detail: str):
        super().__init__(
            f"bandwidth violation on edge {edge} in round {round_no}: {detail}"
        )
        self.edge = edge
        self.round = round_no
        self.bits = bits


class RoundLimitError(ProtocolError):
    """A phase kept the wire busy beyond the configured round budget."""

    def __init__(self, label: str, limit: int):
        super().__init__(f"phase {label!r} did not finish within {limit} rounds")
        self.label = label
        self.limit = limit


@dataclass(frozen=True)
class SimulatorConfig:
    """Engine knobs.

    ``word_bits`` is the bandwidth budget in words per edge per
    direction per round (the multiplier on the ceil(log2 n)-bit word).
    ``strict_bandwidth`` turns on per-value range validation.
    ``round_limit`` caps any single phase.  No protocol draws
    randomness, so every run is deterministic.
    """

    word_bits: int = 2
    strict_bandwidth: bool = False
    round_limit: int = 100_000

    def __post_init__(self):
        if self.word_bits < 1:
            raise ValueError("word_bits must be at least 1")
        if self.round_limit < 1:
            raise ValueError("round_limit must be at least 1")


@dataclass
class PhaseStats:
    rounds: int = 0
    messages: int = 0
    max_bits_per_edge_per_round: int = 0


class RoundStats:
    """Round and bandwidth accounting, total and per labeled phase."""

    def __init__(self):
        self.rounds_elapsed = 0
        self.total_messages = 0
        self.max_bits_per_edge_per_round = 0
        self.per_phase: dict[str, PhaseStats] = {}

    def record_round(self, label: str, messages: int, max_bits: int) -> None:
        phase = self.per_phase.setdefault(label, PhaseStats())
        phase.rounds += 1
        phase.messages += messages
        phase.max_bits_per_edge_per_round = max(
            phase.max_bits_per_edge_per_round, max_bits
        )
        self.rounds_elapsed += 1
        self.total_messages += messages
        self.max_bits_per_edge_per_round = max(
            self.max_bits_per_edge_per_round, max_bits
        )

    def as_dict(self) -> dict:
        return {
            "rounds_elapsed": self.rounds_elapsed,
            "total_messages": self.total_messages,
            "max_bits_per_edge_per_round": self.max_bits_per_edge_per_round,
            "per_phase": {
                label: {
                    "rounds": p.rounds,
                    "messages": p.messages,
                    "max_bits_per_edge_per_round": p.max_bits_per_edge_per_round,
                }
                for label, p in self.per_phase.items()
            },
        }


class NodeHandle:
    """A node's window onto the network.

    It exposes the node's id, the vertex count, and the local ports –
    ``(neighbor id, edge id)`` pairs sorted by neighbor.  Everything
    else must arrive as messages.
    """

    __slots__ = ("id", "n", "ports", "_engine", "_by_edge")

    def __init__(self, engine: Engine, v: int):
        self.id = v
        self.n = engine.g.n
        self.ports: tuple[tuple[int, int], ...] = engine.g.inc[v]
        self._engine = engine
        self._by_edge = {eid: nbr for nbr, eid in self.ports}

    def send(self, eid: int, *words: int) -> None:
        """Queue words on an incident edge; the engine paces the wire."""
        self._engine._send(self, eid, words)

    def neighbor(self, eid: int) -> int:
        try:
            return self._by_edge[eid]
        except KeyError:
            raise ProtocolError(f"edge {eid} is not incident to node {self.id}") from None

    @property
    def round(self) -> int:
        return self._engine.round


class WordProgram:
    """Base class for per-node state machines driven by word streams.

    Subclasses override ``start`` (runs before the first round) and
    register reception handlers with ``expect``; the base class
    reassembles records from the per-edge word streams and fires each
    handler exactly once, with the whole record, when it is complete.
    A relay overrides ``on_chunk`` to forward chunks and calls the base
    ``on_chunk`` to read them; a token counter overrides it alone.
    """

    def __init__(self, node: NodeHandle):
        self.node = node
        self._buf: dict[int, list[int]] = {}
        self._want: dict[int, deque[tuple]] = {}

    def start(self) -> None:
        pass

    def output(self):
        return None

    def send(self, eid: int, *words: int) -> None:
        self.node.send(eid, *words)

    def expect(
        self,
        eid: int,
        nwords: int,
        handler: Callable[[tuple[int, ...]], None],
        more: Callable[[tuple[int, ...]], int] | None = None,
    ) -> None:
        """Await the next record on ``eid``: ``nwords`` head words, then
        ``more(head)`` further words (possibly none) when ``more`` is given."""
        if nwords < 1:
            raise ProtocolError(f"node {self.node.id} expected a record of {nwords} words")
        self._want.setdefault(eid, deque()).append((nwords, more, handler))
        self._drain_buffer(eid)

    def on_chunk(self, eid: int, words: tuple[int, ...]) -> None:
        self._buf.setdefault(eid, []).extend(words)
        self._drain_buffer(eid)

    def _drain_buffer(self, eid: int) -> None:
        buf = self._buf.get(eid)
        want = self._want.get(eid)
        while buf and want and len(buf) >= want[0][0]:
            nwords, more, handler = want[0]
            if more is not None:
                # The head is in: fix the record's full length once.
                want[0] = (nwords + more(tuple(buf[:nwords])), None, handler)
                continue
            want.popleft()
            rec = tuple(buf[:nwords])
            del buf[:nwords]
            handler(rec)


class Engine:
    """Runs labeled protocol phases over one graph, one round at a time.

    The round counter keeps increasing across phases, so a multi-phase
    protocol is accounted exactly like one long execution; per-phase
    numbers land in ``stats.per_phase``.
    """

    def __init__(self, g: Graph, config: SimulatorConfig | None = None):
        self.g = g
        self.config = config or SimulatorConfig()
        self.word_size = word_size_bits(g.n)
        self.value_cap = max(4, g.n * g.n)
        self.round = 0
        self.stats = RoundStats()
        self.handles = tuple(NodeHandle(self, v) for v in range(g.n))
        self._outbox: dict[tuple[int, int], deque[int]] = {}
        # drained frames awaiting delivery: (destination, edge id, words)
        self._pending: list[tuple[int, int, tuple[int, ...]]] = []

    def _send(self, handle: NodeHandle, eid: int, words: tuple[int, ...]) -> None:
        if eid not in handle._by_edge:
            raise ProtocolError(f"edge {eid} is not incident to node {handle.id}")
        for w in words:
            if not isinstance(w, int) or w < 0:
                raise ProtocolError(f"words must be non-negative ints, got {w!r}")
            if self.config.strict_bandwidth and w >= self.value_cap:
                raise BandwidthError(
                    eid,
                    self.round,
                    w.bit_length(),
                    f"value {w} needs {w.bit_length()} bits, beyond the one-word "
                    f"range [0, {self.value_cap})",
                )
        if words:
            self._outbox.setdefault((handle.id, eid), deque()).extend(words)

    def run_phase(self, label: str, programs: Sequence[WordProgram]) -> None:
        """Run programs (one per vertex) until the wire is empty."""
        if len(programs) != self.g.n:
            raise ValueError(f"need one program per vertex, got {len(programs)}")
        budget = self.config.word_bits
        for p in programs:
            p.start()
        phase_rounds = 0
        while self._pending or self._outbox:
            if phase_rounds >= self.config.round_limit:
                raise RoundLimitError(label, self.config.round_limit)
            phase_rounds += 1
            self.round += 1
            for dst, eid, payload in self._pending:
                programs[dst].on_chunk(eid, payload)
            self._pending = []
            messages = 0
            max_bits = 0
            for key in sorted(self._outbox):
                src, eid = key
                queue = self._outbox[key]
                take = min(budget, len(queue))
                payload = tuple(queue.popleft() for _ in range(take))
                if not queue:
                    del self._outbox[key]
                u, v = self.g.edges[eid]
                dst = v if src == u else u
                self._pending.append((dst, eid, payload))
                messages += 1
                max_bits = max(max_bits, take * self.word_size)
            self.stats.record_round(label, messages, max_bits)
        for p in programs:
            if any(p._want.values()):
                raise ProtocolError(
                    f"phase {label!r} went quiet while node {p.node.id} still expects words"
                )


def run_protocol(
    g: Graph,
    program_factory: Callable[[NodeHandle], WordProgram],
    config: SimulatorConfig | None = None,
) -> tuple[dict[int, object], RoundStats]:
    """Convenience wrapper: one phase, outputs collected per node."""
    engine = Engine(g, config)
    programs = [program_factory(h) for h in engine.handles]
    engine.run_phase("main", programs)
    return {v: p.output() for v, p in enumerate(programs)}, engine.stats


def measure_diameter(g: Graph) -> int:
    """Largest shortest-path distance between any two vertices."""
    return max(g.eccentricities)
