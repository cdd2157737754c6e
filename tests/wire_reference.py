"""The per-frame engine the wires replaced, kept to test against.

``RefEngine`` queues words per ``(sender, edge id)`` key, drains at most
the budget from every queue into a ``(receiver, edge id, words)`` frame
at the end of each round, and at the start of the next hands each frame,
in ``(sender, edge id)`` order, to the receiver's relays and then to its
``on_chunk``, which buffers the words and fires every record they
complete.  Programs subclass ``RefProgram``, which offers the same
``start``/``send``/``expect``/``relays``/``stray`` surface as
``smallcut.runtime.WordProgram``; a test writes one program body for
both bases and checks that the two engines agree on every record, the
round each handler fires in, and every ``RoundStats`` field.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Sequence

from smallcut.graphs import Graph
from smallcut.runtime import (
    BandwidthError,
    Chain,
    ProtocolError,
    RoundLimitError,
    RoundStats,
    SimulatorConfig,
    Steps,
    word_size_bits,
)


class RefHandle:
    __slots__ = ("id", "n", "ports", "_engine", "_by_edge")

    def __init__(self, engine: RefEngine, v: int):
        self.id = v
        self.n = engine.g.n
        self.ports = engine.g.inc[v]
        self._engine = engine
        self._by_edge = {eid: nbr for nbr, eid in self.ports}

    def send(self, eid: int, *words: int) -> None:
        self._engine._send(self, eid, words)

    def neighbor(self, eid: int) -> int:
        try:
            return self._by_edge[eid]
        except KeyError:
            raise ProtocolError(f"edge {eid} is not incident to node {self.id}") from None

    @property
    def round(self) -> int:
        return self._engine.round


class RefProgram:
    relays: dict[int, tuple[int, ...]] = {}

    def __init__(self, node: RefHandle):
        self.node = node
        self._buf: dict[int, list[int]] = {}
        self._want: dict[int, deque[tuple]] = {}

    def start(self) -> None:
        pass

    def send(self, eid: int, *words: int) -> None:
        self.node.send(eid, *words)

    def expect(self, eid: int, nwords: int, handler: Callable[[tuple[int, ...]], None],
               more: Callable[[tuple[int, ...]], int] | None = None) -> None:
        if nwords < 1:
            raise ProtocolError(f"node {self.node.id} expected a record of {nwords} words")
        self._want.setdefault(eid, deque()).append((nwords, more, handler))
        self._drain_buffer(eid)

    def on_chunk(self, eid: int, words: tuple[int, ...]) -> None:
        buf = self._buf.setdefault(eid, [])
        buf.extend(words)
        want = self._want.get(eid)
        if want and len(buf) >= want[0][0]:
            self._drain_buffer(eid)

    @property
    def stray(self) -> int:
        return sum(len(buf) for buf in self._buf.values())

    def _drain_buffer(self, eid: int) -> None:
        buf = self._buf.get(eid)
        want = self._want.get(eid)
        while buf and want and len(buf) >= want[0][0]:
            nwords, more, handler = want[0]
            if more is not None:
                want[0] = (nwords + more(tuple(buf[:nwords])), None, handler)
                continue
            want.popleft()
            rec = tuple(buf[:nwords])
            del buf[:nwords]
            handler(rec)


class _RefPhase:
    __slots__ = ("label", "programs", "chain", "outbox", "pending", "rounds")

    def __init__(self, label: str, programs: Sequence[RefProgram], chain: Chain):
        self.label = label
        self.programs = programs
        self.chain = chain
        self.outbox: dict[tuple[int, int], list[int]] = {}
        self.pending: list[tuple[int, int, tuple[int, ...]]] = []
        self.rounds = 0


class RefEngine:
    def __init__(self, g: Graph, config: SimulatorConfig | None = None):
        self.g = g
        self.config = config or SimulatorConfig()
        self.word_size = word_size_bits(g.n)
        self.value_cap = max(4, g.n * g.n)
        self.round = 0
        self.stats = RoundStats()
        self.handles = tuple(RefHandle(self, v) for v in range(g.n))
        self._live: list[_RefPhase] = []
        self._outbox: dict[tuple[int, int], list[int]] = {}

    def _send(self, handle: RefHandle, eid: int, words: tuple[int, ...]) -> None:
        if eid not in handle._by_edge:
            raise ProtocolError(f"edge {eid} is not incident to node {handle.id}")
        for w in words:
            if not isinstance(w, int) or w < 0:
                raise ProtocolError(f"words must be non-negative ints, got {w!r}")
            if self.config.strict_bandwidth and w >= self.value_cap:
                raise BandwidthError(
                    eid, self.round, w.bit_length(),
                    f"value {w} needs {w.bit_length()} bits, beyond the one-word "
                    f"range [0, {self.value_cap})",
                )
        if words:
            self._outbox.setdefault((handle.id, eid), []).extend(words)

    def run_phase(self, label: str, programs: Sequence[RefProgram]) -> None:
        self.join(self.launch(iter([(label, programs)])))

    def launch(self, steps: Steps) -> Chain:
        chain = Chain(steps)
        self._advance(chain)
        return chain

    def _advance(self, chain: Chain) -> None:
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
                    p.node.neighbor(eid)
        phase = _RefPhase(label, programs, chain)
        self._live.append(phase)
        self._outbox = phase.outbox
        for p in programs:
            p.start()

    def _retire(self) -> None:
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
