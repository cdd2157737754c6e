"""Synchronous message-passing engine with bandwidth metering.

The model is the classic synchronous network: one state machine per
vertex, lock-step rounds, and per-edge channels that carry only a few
machine words per round.  A word is ``max(1, ceil(log2 n))`` bits — big
enough for a vertex id — and every atomic value a protocol transmits
(an id, a level, a counter) is accounted as exactly one word.  The
per-round budget is ``word_bits`` words per edge *per direction*.

The engine numbers the directed edges once, in ``(sender id, edge id)``
order, and gives each phase one *wire* per directed edge, laid when the
first word is queued on it: the list of words queued on that edge and
three offsets into the list.  Words before ``sent`` have left the
sender, words before ``landed`` have reached the receiver, and words
before ``read`` belong to records the receiver has taken.  Programs
append words to their out-wires.  At the end of each round the engine
advances every wire's ``sent`` by at most the budget (one frame); at the
start of the next it sets ``landed = sent``, so longer records stream
across consecutive rounds and the budget holds by construction.  Strict
mode adds value validation: a word must stay below ``max(4, n^2)``, so a
protocol cannot smuggle unbounded payloads through single words.

Programs read records with ``expect``: a fixed number of words, or a
head whose words say how long the rest is (``more``).  The receiver
slices each record straight out of the sender's list, and the engine
calls into it only when the head record on a wire is complete.  A relay
declares what it forwards in ``relays``, and the engine appends each
frame heard on such an in-edge to its out-wires in the round it lands
(cut-through), before the program reads it.  Those words were checked
when their origin sent them, so forwarding checks nothing again.  A wire
drops the prefix its receiver has read once that is more than half of
it, and a finished phase drops its lists.

Each phase has its own wires and round count, and it ends when none of
its wires holds a word that has not landed.  A program that still waits
on an ``expect`` at that point can never be served, so the engine raises
``ProtocolError``; the round limit, too, applies to each phase alone.
One round loop steps every live phase.  Besides the foreground phase,
a *chain* (a sequence of phases, see ``Steps``) can be launched to run
alongside it on the same clock: a phase that sends only toward the root
can share its rounds with one that sends only away from it, since the
budget holds per direction.  Two live phases that send on the same
directed edge in the same round are a ``ProtocolError``; they never
share a frame.  Frames within a phase's round land in directed-edge
order, which makes every run bit-for-bit reproducible.
"""

from __future__ import annotations

import weakref
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
    else must arrive as messages.  It reaches its engine through a weak
    proxy, so an engine and its handles form no reference cycle and are
    freed as soon as the last outside reference goes.
    """

    __slots__ = ("id", "n", "ports", "_engine", "_tx")

    def __init__(self, engine: Engine, v: int, tx: dict[int, int]):
        self.id = v
        self.n = engine.g.n
        self.ports: tuple[tuple[int, int], ...] = engine.g.inc[v]
        self._engine = weakref.proxy(engine)
        # edge id -> number of the directed edge out of this node on it
        self._tx = tx

    def send(self, eid: int, *words: int) -> None:
        """Queue words on an incident edge; the engine paces the wire."""
        self._engine._send(self, eid, words)

    def neighbor(self, eid: int) -> int:
        try:
            d = self._tx[eid]
        except KeyError:
            raise ProtocolError(f"edge {eid} is not incident to node {self.id}") from None
        return self._engine._ends[d][2]

    @property
    def round(self) -> int:
        return self._engine.round


#: ``_Wire.need`` when the receiver waits on no record.
_NEVER = 1 << 62
#: Read words a wire keeps before it may drop them.
_SLACK = 64


class _Wire:
    """One directed edge's words in one phase.

    ``words[:read]`` belong to records the receiver has taken,
    ``words[:landed]`` have reached it and ``words[:sent]`` have left the
    sender.  ``need`` is where the receiver's head record ends, so the
    engine wakes the receiver only once ``landed`` reaches it.  The wire
    names its receiver by node id, not by program, so no reference cycle
    keeps a finished phase's lists alive.
    """

    __slots__ = ("words", "sent", "landed", "read", "need", "dst", "eid")

    def __init__(self, dst: int, eid: int):
        self.words: list[int] = []
        self.sent = self.landed = self.read = 0
        self.need = _NEVER
        self.dst = dst
        self.eid = eid


class WordProgram:
    """Base class for per-node state machines driven by word streams.

    Subclasses override ``start`` (runs before the first round) and
    register reception handlers with ``expect``.  ``_in`` maps an
    incident edge to the wire that carries words into the node in the
    running phase, once a word has been queued on it.  A record is read
    in place: once a head record's words have all landed, its handler
    fires exactly once with those words, and the wire's ``read`` offset
    moves past them.  ``relays`` maps an in-edge to the edges on which
    the engine forwards every frame heard on it, unchanged and in the
    same round.  A program has no per-frame hook: the engine refuses a
    class that defines ``on_chunk``.
    """

    relays: dict[int, tuple[int, ...]] = {}

    def __init__(self, node: NodeHandle):
        self.node = node
        self._in: dict[int, _Wire] = {}
        self._want: dict[int, deque[tuple]] = {}
        #: Words heard that no record claimed, counted when the phase ends.
        self.stray = 0

    def start(self) -> None:
        pass

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

    def _drain_buffer(self, eid: int) -> None:
        """Fire the handlers of every record on ``eid`` that has landed.
        A handler may ``expect`` again, which drains the same wire."""
        wire = self._in.get(eid)
        want = self._want.get(eid)
        if wire is None or not want:
            return
        words = wire.words
        while want:
            nwords, more, handler = want[0]
            start = wire.read
            end = start + nwords
            if end > wire.landed:
                break
            if more is not None:
                # The head is in: fix the record's full length once.
                want[0] = (nwords + more(tuple(words[start:end])), None, handler)
                continue
            want.popleft()
            wire.read = end
            handler(tuple(words[start:end]))
        read = wire.read
        if read > _SLACK and read + read > len(words):
            del words[:read]
            wire.sent -= read
            wire.landed -= read
            wire.read = read = 0
        wire.need = read + want[0][0] if want else _NEVER


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
    """One live phase: its programs, its own wires and its own count.

    ``wires`` is indexed by directed edge and holds ``None`` until a word
    is queued on that edge.  ``active`` holds the directed edges whose
    wires have words not yet sent, ``flight`` those whose last frame has
    not landed (ascending), and ``relay`` maps a directed in-edge to the
    out-edges it feeds."""

    __slots__ = ("label", "programs", "chain", "wires", "relay", "active", "flight", "rounds")

    def __init__(self, label: str, programs: Sequence[WordProgram], chain: Chain,
                 edges: int, relay: dict[int, tuple[int, ...]]):
        self.label = label
        self.programs = programs
        self.chain = chain
        self.wires: list[_Wire | None] = [None] * edges
        self.relay = relay
        self.active: set[int] = set()
        self.flight: list[int] = []
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
        # directed edge number -> (sender, edge id, receiver)
        self._ends = sorted(
            (u, eid, w) for eid, (a, b) in enumerate(g.edges) for u, w in ((a, b), (b, a))
        )
        tx: list[dict[int, int]] = [{} for _ in range(g.n)]
        for d, (u, eid, _) in enumerate(self._ends):
            tx[u][eid] = d
        self.handles = tuple(NodeHandle(self, v, tx[v]) for v in range(g.n))
        self._live: list[_Phase] = []
        # the phase whose programs are running
        self._phase: _Phase | None = None

    def _send(self, handle: NodeHandle, eid: int, words: tuple[int, ...]) -> None:
        d = handle._tx.get(eid)
        if d is None:
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
            phase = self._phase
            (phase.wires[d] or self._lay(phase, d)).words.extend(words)
            phase.active.add(d)

    def _lay(self, phase: _Phase, d: int) -> _Wire:
        """Lay directed edge ``d``'s wire in ``phase`` and hand it to the
        receiver, whose head record may already be awaited."""
        _, eid, dst = self._ends[d]
        wire = phase.wires[d] = _Wire(dst, eid)
        program = phase.programs[dst]
        program._in[eid] = wire
        want = program._want.get(eid)
        if want:
            wire.need = want[0][0]
        return wire

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
        for cls in {type(p) for p in programs}:
            if hasattr(cls, "on_chunk"):
                raise ProtocolError(
                    f"{cls.__name__} defines on_chunk; programs read records with expect"
                )
        relay: dict[int, tuple[int, ...]] = {}
        for p in programs:
            for into, outs in p.relays.items():
                for eid in (into, *outs):
                    p.node.neighbor(eid)  # raises unless incident
                sender = self.handles[p.node.neighbor(into)]
                relay[sender._tx[into]] = tuple(p.node._tx[eid] for eid in outs)
        phase = self._phase = _Phase(label, programs, chain, len(self._ends), relay)
        self._live.append(phase)
        for p in programs:
            p.start()

    def _retire(self) -> None:
        """Close every phase whose own wires are empty and move its chain
        on; the chain's next phase may itself be quiet from the start.  A
        closed phase's programs keep their ``stray`` counts, not its wires,
        and the engine keeps neither, so what the protocol drops is freed."""
        live = self._live
        i = 0
        while i < len(live):
            phase = live[i]
            if phase.flight or phase.active:
                i += 1
                continue
            del live[i]
            for p in phase.programs:
                if any(p._want.values()):
                    raise ProtocolError(
                        f"phase {phase.label!r} went quiet while node {p.node.id} "
                        f"still expects words"
                    )
                p.stray = sum(wire.landed - wire.read for wire in p._in.values())
                p._in = {}
            phase.wires.clear()
            if self._phase is phase:
                self._phase = None
            self._advance(phase.chain)

    def join(self, chain: Chain) -> Any:
        """Run rounds until ``chain`` has finished; return its result."""
        budget = self.config.word_bits
        limit = self.config.round_limit
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
                # Land last round's frames, in directed-edge order.
                self._phase = phase
                wires = phase.wires
                active = phase.active
                programs = phase.programs
                relay = phase.relay
                for d in phase.flight:
                    wire = wires[d]
                    lo = wire.landed
                    hi = wire.landed = wire.sent
                    outs = relay.get(d)
                    if outs:
                        chunk = wire.words[lo:hi]
                        for out in outs:
                            (wires[out] or self._lay(phase, out)).words.extend(chunk)
                            active.add(out)
                    if hi >= wire.need:
                        programs[wire.dst]._drain_buffer(wire.eid)
            # Two live phases never share a directed edge in one round.
            busy: dict[int, str] | None = {} if len(live) > 1 else None
            for phase in live:
                phase.rounds += 1
                active = phase.active
                if busy is not None:
                    clash = busy.keys() & active
                    if clash:
                        first = min(clash)
                        src, eid, _ = self._ends[first]
                        raise ProtocolError(
                            f"phases {busy[first]!r} and {phase.label!r} both send "
                            f"from node {src} on edge {eid} in round {self.round}"
                        )
                    busy.update(dict.fromkeys(active, phase.label))
                # Send one frame on every wire with words to go.
                wires = phase.wires
                flight = phase.flight = sorted(active)
                words = 0
                widest = 0
                for d in flight:
                    wire = wires[d]
                    take = len(wire.words) - wire.sent
                    if take > budget:
                        take = budget
                    else:
                        active.discard(d)
                    wire.sent += take
                    words += take
                    if take > widest:
                        widest = take
                stats.record_round(phase.label, len(flight), words, widest * self.word_size)


def measure_diameter(g: Graph) -> int:
    """Largest shortest-path distance between any two vertices."""
    return max(g.eccentricities)
