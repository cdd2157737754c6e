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
head whose words say how long the rest is (``more``).  A relay declares
what it forwards in ``relays``, and the engine queues each chunk heard
on such an in-edge on its out-edges in the round it arrives
(cut-through), before the program reads it.  Those words were checked
when their origin sent them, so forwarding checks nothing again.  No
program in the package overrides ``on_chunk``.

Each phase has its own queues, frames in flight and round count, and
it ends when its own wire is empty: none of its queues holds words and
none of its frames is in flight.  A program that still waits on an
``expect`` at that point can never be served, so the engine raises
``ProtocolError``; the round limit, too, applies to each phase alone.
One round loop steps every live phase.  Besides the foreground phase,
a *chain* (a sequence of phases, see ``Steps``) can be launched to run
alongside it on the same clock: a phase that sends only toward the root
can share its rounds with one that sends only away from it, since the
budget holds per direction.  Two live phases that send on the same
directed edge in the same round are a ``ProtocolError``; they never
share a frame.  Deliveries within a phase's round are dispatched in
``(sender id, edge id)`` order, which makes every run bit-for-bit
reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

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
    words: int = 0
    max_bits_per_edge_per_round: int = 0


class RoundStats:
    """Round, message, word and bandwidth accounting, total and per
    labeled phase.  A message is one edge's frame in one round; its
    words are the frame's length.

    A phase counts every round in which it is live.  Phases of two
    chains can be live in the same rounds, so the per-phase rounds may
    sum to more than ``rounds_elapsed``; messages, words and peaks add
    up or max out as before.
    """

    def __init__(self):
        self.rounds_elapsed = 0
        self.total_messages = 0
        self.total_words = 0
        self.max_bits_per_edge_per_round = 0
        self.per_phase: dict[str, PhaseStats] = {}

    def record_round(self, label: str, messages: int, words: int, max_bits: int) -> None:
        """One phase's share of the current round; the engine counts the
        round itself in ``rounds_elapsed`` once."""
        phase = self.per_phase.setdefault(label, PhaseStats())
        phase.rounds += 1
        phase.messages += messages
        phase.words += words
        phase.max_bits_per_edge_per_round = max(
            phase.max_bits_per_edge_per_round, max_bits
        )
        self.total_messages += messages
        self.total_words += words
        self.max_bits_per_edge_per_round = max(
            self.max_bits_per_edge_per_round, max_bits
        )

    def as_dict(self) -> dict:
        return {
            "rounds_elapsed": self.rounds_elapsed,
            "total_messages": self.total_messages,
            "total_words": self.total_words,
            "max_bits_per_edge_per_round": self.max_bits_per_edge_per_round,
            "per_phase": {
                label: {
                    "rounds": p.rounds,
                    "messages": p.messages,
                    "words": p.words,
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
    ``relays`` maps an in-edge to the edges on which the engine forwards
    every chunk heard on it, unchanged and in the same round.
    """

    relays: dict[int, tuple[int, ...]] = {}

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
        buf = self._buf.setdefault(eid, [])
        buf.extend(words)
        # A chunk that completes no head or record costs the append alone.
        want = self._want.get(eid)
        if want and len(buf) >= want[0][0]:
            self._drain_buffer(eid)

    @property
    def stray(self) -> int:
        """Words heard that no record claimed."""
        return sum(len(buf) for buf in self._buf.values())

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


#: A chain of phases: a generator that yields ``(label, programs)`` for
#: each phase in turn and returns the chain's result.  Its code between
#: two yields runs on the observer side and costs no rounds.  (The class
#: is named by string: typing caches subscripted aliases, and a cached
#: class would keep a re-imported module alive.)
Steps = Generator[tuple[str, Sequence["WordProgram"]], None, Any]


class Chain:
    """A launched chain: ``result`` holds its return value once ``live``
    is false."""

    __slots__ = ("steps", "live", "result")

    def __init__(self, steps: Steps):
        self.steps = steps
        self.live = True
        self.result: Any = None


class _Phase:
    """One live phase: its programs, its own wire and its own count."""

    __slots__ = ("label", "programs", "chain", "outbox", "pending", "rounds")

    def __init__(self, label: str, programs: Sequence[WordProgram], chain: Chain):
        self.label = label
        self.programs = programs
        self.chain = chain
        self.outbox: dict[tuple[int, int], list[int]] = {}
        # drained frames awaiting delivery: (destination, edge id, words)
        self.pending: list[tuple[int, int, tuple[int, ...]]] = []
        self.rounds = 0


class Engine:
    """Runs labeled protocol phases over one graph, one round at a time.

    The round counter keeps increasing across phases, so a multi-phase
    protocol is accounted exactly like one long execution; per-phase
    numbers land in ``stats.per_phase``.  One round loop steps every
    live phase: the foreground one (``run_phase``) and the current phase
    of every chain started with ``launch``, which runs alongside on the
    same clock until ``join``.
    """

    def __init__(self, g: Graph, config: SimulatorConfig | None = None):
        self.g = g
        self.config = config or SimulatorConfig()
        self.word_size = word_size_bits(g.n)
        self.value_cap = max(4, g.n * g.n)
        self.round = 0
        self.stats = RoundStats()
        self.handles = tuple(NodeHandle(self, v) for v in range(g.n))
        self._live: list[_Phase] = []
        # the outbox of the phase whose programs are running
        self._outbox: dict[tuple[int, int], list[int]] = {}

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
            self._outbox.setdefault((handle.id, eid), []).extend(words)

    def run_phase(self, label: str, programs: Sequence[WordProgram]) -> None:
        """Run programs (one per vertex) until this phase's wire is empty."""
        self.join(self.launch(iter([(label, programs)])))

    def run_chain(self, steps: Steps) -> Any:
        """Run a chain's phases one after another, each by ``run_phase``,
        and return the chain's result."""
        while True:
            try:
                label, programs = next(steps)
            except StopIteration as stop:
                return stop.value
            self.run_phase(label, programs)

    def launch(self, steps: Steps) -> Chain:
        """Start a chain's first phase; from the next round on, its phases
        step in every round the engine runs, one after another."""
        chain = Chain(steps)
        self._advance(chain)
        return chain

    def _advance(self, chain: Chain) -> None:
        """Open the chain's next phase and start its programs."""
        try:
            label, programs = next(chain.steps)
        except StopIteration as stop:
            chain.live = False
            chain.result = stop.value
            return
        if len(programs) != self.g.n:
            raise ValueError(f"need one program per vertex, got {len(programs)}")
        for p in programs:
            for into, outs in p.relays.items():
                for eid in (into, *outs):
                    p.node.neighbor(eid)  # raises unless incident
        phase = _Phase(label, programs, chain)
        self._live.append(phase)
        self._outbox = phase.outbox
        for p in programs:
            p.start()

    def _retire(self) -> None:
        """Close every phase whose own wire is empty and move its chain on;
        the chain's next phase may itself be quiet from the start."""
        live = self._live
        i = 0
        while i < len(live):
            phase = live[i]
            if phase.pending or phase.outbox:
                i += 1
                continue
            del live[i]
            for p in phase.programs:
                if any(p._want.values()):
                    raise ProtocolError(
                        f"phase {phase.label!r} went quiet while node {p.node.id} "
                        f"still expects words"
                    )
            self._advance(phase.chain)

    def join(self, chain: Chain) -> Any:
        """Run rounds until ``chain`` has finished; return its result."""
        budget = self.config.word_bits
        limit = self.config.round_limit
        edges = self.g.edges
        stats = self.stats
        live = self._live
        while True:
            self._retire()
            if not chain.live:
                return chain.result
            for phase in live:
                if phase.rounds >= limit:
                    raise RoundLimitError(phase.label, limit)
            self.round += 1
            stats.rounds_elapsed += 1
            for phase in live:
                outbox = self._outbox = phase.outbox
                programs = phase.programs
                pending, phase.pending = phase.pending, []
                for dst, eid, payload in pending:
                    program = programs[dst]
                    for out in program.relays.get(eid, ()):
                        outbox.setdefault((dst, out), []).extend(payload)
                    program.on_chunk(eid, payload)
            # Two live phases never share a directed edge in one round.
            busy: dict[tuple[int, int], str] | None = {} if len(live) > 1 else None
            for phase in live:
                phase.rounds += 1
                outbox = phase.outbox
                if busy is not None:
                    clash = busy.keys() & outbox.keys()
                    if clash:
                        src, eid = min(clash)
                        raise ProtocolError(
                            f"phases {busy[src, eid]!r} and {phase.label!r} both send "
                            f"from node {src} on edge {eid} in round {self.round}"
                        )
                    busy.update(dict.fromkeys(outbox, phase.label))
                pending = phase.pending
                messages = len(outbox)
                words = 0
                widest = 0
                for key in sorted(outbox):
                    src, eid = key
                    queue = outbox[key]
                    payload = tuple(queue[:budget])
                    take = len(payload)
                    if take == len(queue):
                        del outbox[key]
                    else:
                        del queue[:take]
                    u, v = edges[eid]
                    pending.append((v if src == u else u, eid, payload))
                    words += take
                    if take > widest:
                        widest = take
                stats.record_round(phase.label, messages, words, widest * self.word_size)


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
