"""Engine semantics: rounds, framing, budgets, determinism."""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallcut.graphs import Graph, generate
from smallcut.runtime import (
    BandwidthError,
    Engine,
    ProtocolError,
    RoundLimitError,
    SimulatorConfig,
    WordProgram,
    measure_diameter,
    word_size_bits,
)
from smallcut.three_cuts import run_full_pipeline
from smallcut.trees import _Downcast, _run_relay


def run_protocol(g, program_factory, config=None):
    """One phase of ``program_factory``'s programs; each node's ``output()``."""
    engine = Engine(g, config)
    programs = [program_factory(h) for h in engine.handles]
    engine.run_phase("main", programs)
    return {v: p.output() for v, p in enumerate(programs)}, engine.stats


class Echo(WordProgram):
    """Send own id on every port once; record every neighbor's id."""

    def start(self):
        self.heard: dict[int, int] = {}
        for nbr, eid in self.node.ports:
            self.send(eid, self.node.id)
            self.expect(eid, 1, lambda rec, e=eid: self._hear(e, rec))

    def _hear(self, eid, rec):
        self.heard[eid] = rec[0]

    def output(self):
        return dict(self.heard)


def test_word_size():
    assert [word_size_bits(n) for n in (1, 2, 3, 4, 5, 256, 257)] == [
        1, 1, 2, 2, 3, 8, 9,
    ]


def test_echo_on_square_takes_two_rounds():
    g = generate("cycle", 4)
    outputs, stats = run_protocol(g, Echo)
    assert stats.rounds_elapsed == 2
    assert stats.max_bits_per_edge_per_round == word_size_bits(4)
    assert stats.total_messages == 8  # one frame per edge per direction
    for v in range(4):
        assert sorted(outputs[v].values()) == sorted(g.adj[v])


def test_single_vertex_runs_zero_rounds():
    outputs, stats = run_protocol(Graph(1, []), Echo)
    assert outputs == {0: {}}
    assert stats.rounds_elapsed == 0
    assert stats.total_messages == 0


def test_diameter_reference_values():
    assert measure_diameter(generate("cycle", 6)) == 3
    assert measure_diameter(generate("complete", 4)) == 1
    assert measure_diameter(generate("grid", 16)) == 6
    assert measure_diameter(Graph(1, [])) == 0


class Stream(WordProgram):
    """Node 0 queues a burst of words; node 1 collects them."""

    def __init__(self, node, k):
        super().__init__(node)
        self.k = k
        self.got = None

    def start(self):
        eid = self.node.ports[0][1]
        if self.node.id == 0:
            self.send(eid, *(i % 4 for i in range(self.k)))
        else:
            self.expect(eid, self.k, self._take)

    def _take(self, rec):
        self.got = rec

    def output(self):
        return self.got


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 40))
def test_long_records_stream_across_rounds(k):
    g = Graph(2, [(0, 1)])
    config = SimulatorConfig(strict_bandwidth=True)
    engine = Engine(g, config)
    programs = [Stream(h, k) for h in engine.handles]
    engine.run_phase("stream", programs)
    frames = -(-k // config.word_bits)
    assert programs[1].got == tuple(i % 4 for i in range(k))
    assert engine.stats.rounds_elapsed == frames + 1
    assert engine.stats.total_messages == frames
    assert engine.stats.max_bits_per_edge_per_round <= config.word_bits * engine.word_size


class SelfFramed(WordProgram):
    """Node 0 bursts three length-prefixed records; node 1 reads them."""

    BURST = (2, 7, 8, 0, 5, 1, 2, 3, 4, 5)

    def start(self):
        self.got: list[tuple[tuple[int, ...], int]] = []
        eid = self.node.ports[0][1]
        if self.node.id == 0:
            self.send(eid, *self.BURST)
        elif self.node.id == 1:
            self._next(eid)

    def _next(self, eid):
        self.expect(eid, 1, lambda rec: self._take(eid, rec), more=lambda head: head[0])

    def _take(self, eid, rec):
        self.got.append((rec, self.node.round))
        if len(self.got) < 3:
            self._next(eid)


def test_self_framed_records_fire_whole_and_in_order():
    g = generate("path", 3)  # n=3 lets strict mode carry values up to 8
    engine = Engine(g, SimulatorConfig(strict_bandwidth=True))
    programs = [SelfFramed(h) for h in engine.handles]
    engine.run_phase("framed", programs)
    # Two words a round: (2,7) (8,0) (5,1) (2,3) (4,5) land in rounds 2..6,
    # and the empty-tailed record fires in the round its head arrives.
    assert programs[1].got == [((2, 7, 8), 3), ((0,), 3), ((5, 1, 2, 3, 4, 5), 6)]
    assert engine.stats.rounds_elapsed == 6


def test_relay_with_silent_parent_raises():
    g = Graph(2, [(0, 1)])
    engine = Engine(g)
    # Node 0 claims no children, so its block never reaches node 1.
    programs = [
        _Downcast(engine.handles[0], 0, None, (), (5,), 1),
        _Downcast(engine.handles[1], 1, 0, (), (6,), 1),
    ]
    with pytest.raises(ProtocolError, match="'relay'.*node 1"):
        _run_relay(engine, "relay", programs)


class Babbler(_Downcast):
    """A relay whose own block is followed by one word nobody expects."""

    def start(self):
        super().start()
        for _, eid in self.children:
            self.send(eid, 9)


def framed_relay(engine, root_cls=_Downcast):
    """Relay self-framed blocks ``[count, words...]`` down the tree
    0 - 1 - {2, 3}, 0 - 4; node 1 gives its children blocks of
    different lengths, one per child edge."""
    h = engine.handles
    more = lambda head: head[0]  # noqa: E731
    return [
        root_cls(h[0], 0, None, ((1, 0), (4, 3)), (1, 7), 1, more),
        _Downcast(h[1], 1, 0, ((2, 1), (3, 2)), {1: (2, 4, 5), 2: (0,)}, 1, more),
        _Downcast(h[2], 2, 1, (), (), 1, more),
        _Downcast(h[3], 2, 2, (), (), 1, more),
        _Downcast(h[4], 1, 3, (), (), 1, more),
    ]


TREE5 = Graph(5, [(0, 1), (1, 2), (1, 3), (0, 4)])


def test_relay_delivers_per_child_framed_blocks_nearest_first():
    engine = Engine(TREE5, SimulatorConfig(strict_bandwidth=True))
    programs = framed_relay(engine)
    _run_relay(engine, "relay", programs)
    assert [p.received for p in programs] == [
        [], [(1, 7)], [(2, 4, 5), (1, 7)], [(0,), (1, 7)], [(1, 7)],
    ]


def test_relay_with_stray_trailing_word_raises():
    engine = Engine(TREE5)
    with pytest.raises(ProtocolError, match="'relay'.*node 1"):
        _run_relay(engine, "relay", framed_relay(engine, Babbler))


class Arrivals(WordProgram):
    """Record the order in which single-word messages come in."""

    def start(self):
        self.seen: list[int] = []
        if self.node.id == 0:
            for _, eid in self.node.ports:
                self.expect(eid, 1, self.seen.extend)
        else:
            self.send(self.node.ports[0][1], self.node.id)

    def output(self):
        return list(self.seen)


def test_delivery_order_is_sender_then_edge():
    # Star with center 0: all leaves transmit in the same round.
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    outputs, _ = run_protocol(g, Arrivals)
    assert outputs[0] == [1, 2, 3]


def test_determinism_across_runs():
    g = generate("random_connected", 9, seed=5)
    a_out, a_stats = run_protocol(g, Echo)
    b_out, b_stats = run_protocol(g, Echo)
    assert a_out == b_out
    assert a_stats.as_dict() == b_stats.as_dict()


class PingPong(WordProgram):
    """Two nodes bounce one word forever, so the wire never empties."""

    def start(self):
        eid = self.node.ports[0][1]
        if self.node.id == 0:
            self.send(eid, 1)
        self.expect(eid, 1, self._back)

    def _back(self, rec):
        eid = self.node.ports[0][1]
        self.send(eid, rec[0])
        self.expect(eid, 1, self._back)


def test_round_limit_raises_timeout():
    g = Graph(2, [(0, 1)])
    engine = Engine(g, SimulatorConfig(round_limit=10))
    with pytest.raises(RoundLimitError, match="'bounce'.*10 rounds"):
        engine.run_phase("bounce", [PingPong(h) for h in engine.handles])
    assert engine.stats.rounds_elapsed == 10


class Unanswered(WordProgram):
    """Node 0 sends a word and waits for a reply that node 1 never sends."""

    def start(self):
        if self.node.id == 0:
            eid = self.node.ports[0][1]
            self.send(eid, 1)
            self.expect(eid, 1, lambda rec: None)


def test_quiet_phase_with_unmet_expect_raises():
    g = Graph(2, [(0, 1)])
    engine = Engine(g)
    with pytest.raises(ProtocolError, match="'quiet'.*node 0") as err:
        engine.run_phase("quiet", [Unanswered(h) for h in engine.handles])
    assert not isinstance(err.value, RoundLimitError)
    assert engine.round <= 2


class Oversend(WordProgram):
    def start(self):
        if self.node.id == 0:
            self.send(self.node.ports[0][1], self.node.n * self.node.n)


def test_strict_mode_rejects_oversized_values():
    g = generate("path", 4)
    engine = Engine(g, SimulatorConfig(strict_bandwidth=True))
    with pytest.raises(BandwidthError) as err:
        engine.run_phase("over", [Oversend(h) for h in engine.handles])
    assert err.value.edge == 0
    assert err.value.round == 0
    assert err.value.bits == 5  # 16 needs five bits
    # Loose mode lets the same program through.
    relaxed = Engine(g, SimulatorConfig(strict_bandwidth=False))
    relaxed.run_phase("over", [Oversend(h) for h in relaxed.handles])


class BadSend(WordProgram):
    def __init__(self, node, mode):
        super().__init__(node)
        self.mode = mode

    def start(self):
        if self.node.id == 0:
            if self.mode == "foreign":
                self.send(2, 1)  # edge (2,3) is not incident to node 0
            else:
                self.send(self.node.ports[0][1], -1)


@pytest.mark.parametrize("mode,msg", [("foreign", "not incident"), ("neg", "non-negative")])
def test_send_validation(mode, msg):
    g = generate("path", 4)
    engine = Engine(g)
    with pytest.raises(ProtocolError, match=msg):
        engine.run_phase("bad", [BadSend(h, mode) for h in engine.handles])


def test_config_validation():
    with pytest.raises(ValueError, match="word_bits"):
        SimulatorConfig(word_bits=0)
    with pytest.raises(ValueError, match="round_limit"):
        SimulatorConfig(round_limit=0)


def test_phase_accounting_sums_to_totals():
    g = generate("cycle", 5)
    engine = Engine(g)
    engine.run_phase("first", [Echo(h) for h in engine.handles])
    after_first = engine.round
    engine.run_phase("second", [Echo(h) for h in engine.handles])
    stats = engine.stats
    assert set(stats.per_phase) == {"first", "second"}
    assert after_first == stats.per_phase["first"].rounds
    assert stats.rounds_elapsed == sum(p.rounds for p in stats.per_phase.values())
    assert stats.total_messages == sum(p.messages for p in stats.per_phase.values())
    assert stats.total_words == sum(p.words for p in stats.per_phase.values())
    assert stats.total_words >= stats.total_messages > 0
    assert stats.max_bits_per_edge_per_round == max(
        p.max_bits_per_edge_per_round for p in stats.per_phase.values()
    )


def test_narrow_budget_still_delivers():
    g = generate("cycle", 4)
    outputs, stats = run_protocol(g, Echo, SimulatorConfig(word_bits=1))
    for v in range(4):
        assert sorted(outputs[v].values()) == sorted(g.adj[v])
    assert stats.max_bits_per_edge_per_round == word_size_bits(4)


def test_programs_see_only_their_own_state():
    g = generate("cycle", 4)
    engine = Engine(g)
    programs = [Echo(h) for h in engine.handles]
    for v, p in enumerate(programs):
        p.secret = v * 100  # node-local marker
    engine.run_phase("echo", programs)
    for v, p in enumerate(programs):
        assert p.secret == v * 100
        assert p.node.id == v
        assert set(p.heard.values()) == set(g.adj[v])


def test_wrong_program_count_rejected():
    g = generate("path", 3)
    engine = Engine(g)
    with pytest.raises(ValueError, match="one program per vertex"):
        engine.run_phase("short", [Echo(engine.handles[0])])


class Flow(WordProgram):
    """Every node streams ``k`` words to its neighbour ``step`` ids away
    and reads as many from the neighbour on the other side."""

    def __init__(self, node, step, k):
        super().__init__(node)
        self.step = step
        self.k = k
        self.got = None

    def start(self):
        for nbr, eid in self.node.ports:
            if nbr == self.node.id + self.step:
                self.send(eid, *range(self.k))
            elif nbr == self.node.id - self.step:
                self.expect(eid, self.k, self._take)

    def _take(self, rec):
        self.got = rec


def flows(engine, *phases):
    """A chain of ``(label, step, k)`` flow phases over every node."""
    for label, step, k in phases:
        yield label, [Flow(h, step, k) for h in engine.handles]


def test_opposite_directions_share_rounds():
    # On a path, +1 flows use the directed edges (v, v+1) and -1 flows
    # the reverse ones, so the two phases can share every round.
    g = generate("path", 5)
    alone = Engine(g)
    alone.run_phase("down", [Flow(h, 1, 6) for h in alone.handles])
    alone.run_phase("up", [Flow(h, -1, 11) for h in alone.handles])
    both = Engine(g)
    up = both.launch(flows(both, ("up", -1, 11)))
    down = [Flow(h, 1, 6) for h in both.handles]
    both.run_phase("down", down)
    assert both.round == 4  # 3 frames of 2 words, then the delivery round
    both.join(up)
    assert [p.got for p in down[1:]] == [tuple(range(6))] * 4
    assert both.stats.as_dict()["per_phase"] == alone.stats.as_dict()["per_phase"]
    assert alone.stats.rounds_elapsed == 4 + 7
    assert both.stats.rounds_elapsed == both.round == 7
    assert both.stats.total_messages == alone.stats.total_messages
    assert both.stats.total_words == alone.stats.total_words


def test_two_phases_on_one_directed_edge_raise():
    engine = Engine(generate("path", 3))
    engine.launch(flows(engine, ("first", 1, 4)))
    with pytest.raises(ProtocolError, match="'first' and 'second' both send from node 0"):
        engine.run_phase("second", [Flow(h, 1, 4) for h in engine.handles])


def test_quiet_phase_raises_while_the_other_chain_goes_on():
    g = Graph(2, [(0, 1)])
    engine = Engine(g)
    # Unanswered sends 0 -> 1 only; the long flow runs 1 -> 0.
    engine.launch(iter([("quiet", [Unanswered(h) for h in engine.handles])]))
    with pytest.raises(ProtocolError, match="'quiet'.*node 0") as err:
        engine.run_phase("long", [Flow(h, -1, 40) for h in engine.handles])
    assert not isinstance(err.value, RoundLimitError)
    assert engine.round <= 2


def test_round_limit_applies_per_phase():
    engine = Engine(generate("path", 4), SimulatorConfig(round_limit=10))
    # two 7-round phases in a row beside a third: 14 rounds, none over 10
    chain = engine.launch(flows(engine, ("a", 1, 12), ("b", 1, 12)))
    engine.run_phase("c", [Flow(h, -1, 12) for h in engine.handles])
    engine.join(chain)
    assert engine.round == 14
    assert {label: p.rounds for label, p in engine.stats.per_phase.items()} == {
        "a": 7, "b": 7, "c": 7,
    }
    with pytest.raises(RoundLimitError, match="'d'.*10 rounds"):
        engine.run_phase("d", [Flow(h, -1, 22) for h in engine.handles])


class PathStream(WordProgram):
    """Node 0 streams ``words`` up a path; every inner node passes on what
    it hears from its lower neighbour, and the far end reads the block
    whole.  ``declared`` passes it on by a declared relay, else by
    one-word records whose handlers ``send`` each word on."""

    def __init__(self, node, words, declared=True):
        super().__init__(node)
        ports = {nbr: eid for nbr, eid in node.ports}
        self.into = ports.get(node.id - 1)
        self.out = ports.get(node.id + 1)
        self.words = words
        self.declared = declared
        self.got = None
        if declared and None not in (self.into, self.out):
            self.relays = {self.into: (self.out,)}

    def start(self):
        if self.into is None:
            self.send(self.out, *self.words)
        elif self.out is None:
            self.expect(self.into, len(self.words), self._take)
        elif not self.declared:
            for _ in self.words:
                self.expect(self.into, 1, self._pass)

    def _take(self, rec):
        self.got = (rec, self.node.round)

    def _pass(self, rec):
        self.send(self.out, *rec)


def test_declared_relay_matches_forwarding_in_handlers():
    g = generate("path", 5)
    runs = []
    for declared in (True, False):
        engine = Engine(g, SimulatorConfig(strict_bandwidth=True))
        programs = [PathStream(h, tuple(range(7)), declared) for h in engine.handles]
        engine.run_phase("path", programs)
        runs.append((programs[-1].got, engine.stats.as_dict()))
    assert runs[0] == runs[1]
    # Four frames leave node 0 in rounds 1..4 and each takes four hops,
    # forwarded in the round it arrives: the last lands in round 8.
    assert runs[0][0] == (tuple(range(7)), 8)
    assert runs[0][1]["per_phase"]["path"]["messages"] == 4 * 4


class ChunkHook(Echo):
    """A program with the per-frame hook the engine no longer calls."""

    def on_chunk(self, eid, words):
        pass


def test_program_defining_on_chunk_is_refused_before_round_one():
    engine = Engine(generate("path", 3))
    with pytest.raises(ProtocolError, match="ChunkHook defines on_chunk"):
        engine.run_phase("hook", [ChunkHook(h) for h in engine.handles])
    assert engine.round == 0


class ForeignRelay(WordProgram):
    """Node 0 declares a relay that names edge 2, which joins nodes 2 and 3."""

    def __init__(self, node, into):
        super().__init__(node)
        if node.id == 0:
            own = node.ports[0][1]
            self.relays = {2: (own,)} if into else {own: (2,)}


@pytest.mark.parametrize("into", [True, False])
def test_relay_on_a_foreign_edge_raises_before_round_one(into):
    engine = Engine(generate("path", 4))
    with pytest.raises(ProtocolError, match="edge 2 is not incident to node 0"):
        engine.run_phase("foreign", [ForeignRelay(h, into) for h in engine.handles])
    assert engine.round == 0


def test_oversized_word_raises_at_its_origin_before_relays():
    g = generate("path", 5)
    engine = Engine(g, SimulatorConfig(strict_bandwidth=True))
    with pytest.raises(BandwidthError) as err:
        engine.run_phase("over", [PathStream(h, (1, g.n * g.n)) for h in engine.handles])
    assert (err.value.edge, err.value.round) == (0, 0)


class Hop(WordProgram):
    """Node ``src`` streams ``k`` words to node ``src + 1``, which reads them."""

    def __init__(self, node, src, k):
        super().__init__(node)
        self.src = src
        self.k = k

    def start(self):
        ports = {nbr: eid for nbr, eid in self.node.ports}
        if self.node.id == self.src:
            self.send(ports[self.src + 1], *range(self.k))
        elif self.node.id == self.src + 1:
            self.expect(ports[self.src], self.k, lambda rec: None)


def test_forwarded_chunk_meeting_another_phase_raises():
    # Node 2 sends nothing of its own in 'relay'; its first forwarded
    # frame goes out on edge 2 in round 3, while 'hop' still sends there.
    engine = Engine(generate("path", 5))
    engine.launch(iter([("relay", [PathStream(h, tuple(range(7))) for h in engine.handles])]))
    with pytest.raises(ProtocolError, match="'relay' and 'hop' both send from node 2 on edge 2"):
        engine.run_phase("hop", [Hop(h, 2, 40) for h in engine.handles])
    assert engine.round == 3


def test_engine_is_freed_without_the_cycle_collector():
    # Handles reach their engine through a weak proxy: once a run's result
    # is dropped, reference counting alone frees its engine.
    gc.disable()
    try:
        res = run_full_pipeline(generate("prism", 10), 0, SimulatorConfig(strict_bandwidth=True),
                                force_battery=True)
        engine = weakref.ref(res.engine)
        del res
        assert engine() is None
    finally:
        gc.enable()
