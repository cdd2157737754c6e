"""The wire engine against the per-frame reference engine it replaced."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from smallcut.graphs import Graph, generate
from smallcut.runtime import Engine, ProtocolError, SimulatorConfig, WordProgram
from wire_reference import RefEngine, RefProgram


def scripted(base):
    """A program that follows a phase script: it sends its bursts at
    start, reads the records each in-edge owes it (all posted at start or
    each after the last), and on every record may send part of it on."""

    class Scripted(base):
        def __init__(self, node, label, script, log):
            super().__init__(node)
            self.label = label
            self.log = log
            self.bursts = script["bursts"].get(node.id, ())
            self.reads = script["reads"].get(node.id, {})
            self.chained = script["chained"]
            self.replies = script["replies"].get(node.id, {})
            relays = script["relays"].get(node.id)
            if relays:
                self.relays = relays

        def start(self):
            for eid, words in self.bursts:
                self.send(eid, *words)
            for eid, reads in self.reads.items():
                for i in range(1 if self.chained else len(reads)):
                    self._post(eid, i)

        def _post(self, eid, i):
            size, framed = self.reads[eid][i]
            more = (lambda head: head[0]) if framed else None
            self.expect(eid, size, lambda rec: self._fired(eid, i, rec), more)

        def _fired(self, eid, i, rec):
            self.log.append((self.label, self.node.id, eid, rec, self.node.round))
            reply = self.replies.get(eid)
            if reply is not None:
                out, width = reply
                self.send(out, *rec[:width])
            if self.chained and i + 1 < len(self.reads[eid]):
                self._post(eid, i + 1)

    return Scripted


NewScripted = scripted(WordProgram)
RefScripted = scripted(RefProgram)


@st.composite
def graphs(draw):
    n = draw(st.integers(2, 8))
    pairs = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    pairs |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    return Graph(n, draw(st.permutations(sorted(pairs))))


@st.composite
def records(draw):
    """One record's words and how it is read: ``size`` head words, and
    for a framed record a head that says how many words follow."""
    if draw(st.booleans()):
        tail = draw(st.lists(st.integers(0, 30), max_size=4))
        return [len(tail), *tail], (1, True)
    words = draw(st.lists(st.integers(0, 30), min_size=1, max_size=5))
    return words, (len(words), False)


@st.composite
def phase_scripts(draw, g: Graph, direction: str):
    """Bursts, reads, relays and replies on the directed edges that
    ``direction`` allows: ``up`` from lower to higher ids, ``down`` the
    reverse, ``any`` both."""
    def allowed(u, w):
        return direction == "any" or (u < w) == (direction == "up")

    outs = {v: [eid for w, eid in g.inc[v] if allowed(v, w)] for v in range(g.n)}
    ins = {v: [eid for w, eid in g.inc[v] if allowed(w, v)] for v in range(g.n)}
    script = {"bursts": {}, "reads": {}, "relays": {}, "replies": {},
              "chained": draw(st.booleans())}
    for v in range(g.n):
        for eid in outs[v]:
            w = g.inc[v][[e for _, e in g.inc[v]].index(eid)][0]
            recs = draw(st.lists(records(), max_size=3))
            if not recs:
                continue
            if draw(st.booleans()):
                bursts = [[word for words, _ in recs for word in words]]
            else:
                bursts = [words for words, _ in recs]
            script["bursts"].setdefault(v, []).extend((eid, words) for words in bursts)
            script["reads"].setdefault(w, {})[eid] = [how for _, how in recs]
        relays = {}
        for eid in ins[v]:
            fed = draw(st.lists(st.sampled_from(outs[v]), unique=True)) if outs[v] else []
            if fed:
                relays[eid] = tuple(fed)
            if outs[v] and draw(st.booleans()):
                script["replies"].setdefault(v, {})[eid] = (
                    draw(st.sampled_from(outs[v])), draw(st.integers(1, 3)))
        if relays:
            script["relays"][v] = relays
    return script


def run_scripts(engine_cls, program_cls, g, budget, chained, foreground):
    """Two chained phases launched, a foreground phase run beside them,
    then the chain joined; everything either engine lets a test see."""
    engine = engine_cls(g, SimulatorConfig(word_bits=budget, round_limit=200))
    log = []
    made = []

    def chain():
        for label, script in zip(("c1", "c2"), chained):
            programs = [program_cls(h, label, script, log) for h in engine.handles]
            made.append(programs)
            yield label, programs

    error = None
    try:
        launched = engine.launch(chain())
        programs = [program_cls(h, "fg", foreground, log) for h in engine.handles]
        made.append(programs)
        engine.run_phase("fg", programs)
        engine.join(launched)
    except ProtocolError as exc:
        error = (type(exc).__name__, str(exc))
    strays = None if error else [[p.stray for p in programs] for programs in made]
    return log, engine.stats.as_dict(), engine.round, error, strays


@st.composite
def scenarios(draw):
    g = draw(graphs())
    budget = draw(st.integers(1, 3))
    # The chain sends up the ids; the foreground down them, or in one
    # scenario of four anywhere, where it may meet the chain on an edge
    # or relay in a loop.
    clash = draw(st.integers(0, 3)) == 0
    chained = [draw(phase_scripts(g, "up")), draw(phase_scripts(g, "up"))]
    foreground = draw(phase_scripts(g, "any" if clash else "down"))
    return g, budget, chained, foreground


@settings(deadline=None, max_examples=200)
@given(scenarios())
def test_wires_match_the_per_frame_reference(scenario):
    g, budget, chained, foreground = scenario
    got = run_scripts(Engine, NewScripted, g, budget, chained, foreground)
    want = run_scripts(RefEngine, RefScripted, g, budget, chained, foreground)
    assert got == want


def test_scenarios_mostly_finish():
    # The reference comparison means little if most runs stop at an error.
    finished = 0

    @settings(deadline=None, max_examples=60, database=None, derandomize=True)
    @given(scenarios())
    def count(scenario):
        nonlocal finished
        g, budget, chained, foreground = scenario
        log, _, _, error, _ = run_scripts(Engine, NewScripted, g, budget, chained, foreground)
        finished += error is None and bool(log)

    count()
    assert finished >= 20


class LongRead(WordProgram):
    """Node 0 streams ``k`` words to node 2 through node 1's relay; node 2
    reads them one word at a time and notes how much its wire keeps."""

    def __init__(self, node, k):
        super().__init__(node)
        self.k = k
        ports = {nbr: eid for nbr, eid in node.ports}
        self.into = ports.get(node.id - 1)
        self.out = ports.get(node.id + 1)
        if node.id == 1:
            self.relays = {self.into: (self.out,)}
        self.got: list[int] = []
        self.excess = 0

    def start(self):
        if self.node.id == 0:
            self.send(self.out, *(i % 7 for i in range(self.k)))
        elif self.node.id == 2:
            self.expect(self.into, 1, self._take)

    def _take(self, rec):
        self.got.extend(rec)
        wire = self._in[self.into]
        unread = len(wire.words) - wire.read
        self.excess = max(self.excess, len(wire.words) - 2 * unread)
        if len(self.got) < self.k:
            self.expect(self.into, 1, self._take)


def test_a_long_relayed_stream_keeps_a_short_list():
    k = 5000
    engine = Engine(generate("path", 3))
    programs = [LongRead(h, k) for h in engine.handles]
    engine.run_phase("long", programs)
    assert programs[2].got == [i % 7 for i in range(k)]
    # The receiver's list stays within twice its unread words plus a constant.
    assert programs[2].excess <= 100
    assert engine.stats.rounds_elapsed == k // 2 + 2
