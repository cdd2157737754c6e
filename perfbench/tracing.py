"""Per-layer tracing by wrapping the package's functions from outside.

Modules bind imported names at import time, so a function is wrapped
in every module that calls it (``three_cuts.trsf_compute``,
``small_cuts.trsf_compute``, ...), not only where it is defined.  The
engine is wrapped at ``Engine.run_phase`` (one span per phase, with the
rounds and messages it added) and ``NodeHandle.send`` (call and word
counts, attributed to the phase running at the time).  Spans stay in
memory and are written as JSONL once the run ends.
"""

from __future__ import annotations

import functools
import json
import re
from collections import defaultdict
from time import perf_counter

# Phase labels map to metric names by turning ':' into '_'; the D per-layer
# folds of the layered scan (trsf:layer0, trsf:layer1, ...) form one group.
PHASE_GROUPS = (
    "bfs", "broadcast1", "broadcast2", "eta_pre", "trsf_eta", "zeta_pre",
    "trsf_zeta", "hcast", "sketch3", "trsf_skwidth", "skwidth_cast",
    "sketchcast", "sketchxch", "sketch2", "rsketch2", "pivot_pre",
    "trsf_layer", "details1", "details2", "other",
)
SKETCH_GROUPS = ("sketch3", "sketch2", "rsketch2", "sketchcast", "sketchxch")
_LAYER_LABEL = re.compile(r"trsf_layer\d+")


def phase_group(label: str) -> str:
    name = _LAYER_LABEL.sub("trsf_layer", label.replace(":", "_"))
    return name if name in PHASE_GROUPS else "other"


# (module, attribute, span name).  Every listed attribute is a call site
# binding: the function is looked up there when the caller runs.
WRAPPED = (
    ("cli", "load_graph", "cli.load_graph"),
    ("cli", "pick_root", "cli.pick_root"),
    ("cli", "build_report", "cli.build_report"),
    ("cli", "emit_report", "cli.emit_report"),
    ("cli", "min_cut_oracle", "graphs.oracle"),
    ("graphs", "generate", "graphs.generate"),
    ("three_cuts", "build_bfs", "trees.build_bfs"),
    ("three_cuts", "compute_eta", "small_cuts.eta"),
    ("three_cuts", "compute_zeta", "small_cuts.zeta"),
    ("three_cuts", "detect_1cuts", "small_cuts.detect"),
    ("three_cuts", "detect_2cuts", "small_cuts.detect"),
    ("three_cuts", "run_battery", "three_cuts.battery"),
    ("three_cuts", "downcast_h", "three_cuts.hcast"),
    ("three_cuts", "distributed_k_sketch", "sketches.k_sketch"),
    ("sketches", "distributed_k_sketch", "sketches.k_sketch"),
    ("three_cuts", "distributed_reduced_sketch", "sketches.reduced_sketch"),
    ("three_cuts", "sketch_exchange", "three_cuts.exchange"),
    ("three_cuts", "layered_min_cut", "three_cuts.scan"),
    ("three_cuts", "compute_cut_details", "three_cuts.details"),
    ("three_cuts", "convergecast_details", "three_cuts.convergecast"),
    ("three_cuts", "trsf_compute", "trees.trsf_compute"),
    ("small_cuts", "trsf_compute", "trees.trsf_compute"),
    ("three_cuts", "broadcast_t1", "trees.broadcast"),
    ("three_cuts", "broadcast_t2", "trees.broadcast"),
    ("small_cuts", "broadcast_t1", "trees.broadcast"),
) + tuple(("three_cuts", f"detect_case{i}", f"three_cuts.case{i}") for i in range(1, 8))

CASES = tuple(f"three_cuts.case{i}" for i in range(1, 8))


class Tracer:
    """Spans and counters for the traced ops of one benchmark run.

    A span is ``[name, start, end, parent index, op id, phase label]``;
    the parent is the span open when it began, so self time is the span's
    duration minus the durations of its direct children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op: str | None = None
        self.ops: set[str] = set()
        self.setups: set[str] = set()
        self.results: dict[str, int] = defaultdict(int)
        # per phase group: rounds, messages, send calls, words
        self.phase_counts = {g: [0, 0, 0, 0] for g in PHASE_GROUPS}
        self._outside = [0, 0, 0, 0]
        self._current = self._outside
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str, label: str | None = None) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.op, label])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._open.pop()

    def start_op(self, op_id: str, setup: bool = False) -> int:
        self.op = op_id
        (self.setups if setup else self.ops).add(op_id)
        return self.begin("setup" if setup else "op")

    def end_op(self, idx: int) -> None:
        self.end(idx)
        self.op = None

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, mods) -> None:
        """Wrap every call site in ``mods`` (a namespace of the package's
        modules); ``uninstall`` puts the originals back."""
        for mod_name, attr, span in WRAPPED:
            module = getattr(mods, mod_name)
            self._set(module, attr, self._wrap(getattr(module, attr), span))
        self._set(mods.runtime.Engine, "run_phase", self._wrap_run_phase(mods.runtime.Engine.run_phase))
        self._set(mods.runtime.NodeHandle, "send", self._wrap_send(mods.runtime.NodeHandle.send))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _wrap(self, fn, name: str):
        counts_reports = name in CASES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counts_reports:
                self.results[name + ".reports"] += len(out)
            elif name == "three_cuts.battery":
                self.results["three_cuts.reports_unique"] += len(out.reports)
            return out

        return traced

    def _wrap_run_phase(self, fn):
        @functools.wraps(fn)
        def run_phase(engine, label, programs):
            counts = self.phase_counts[phase_group(label)]
            rounds, messages = engine.round, engine.stats.total_messages
            outer, self._current = self._current, counts
            idx = self.begin("runtime.run_phase", label)
            try:
                fn(engine, label, programs)
            finally:
                self.end(idx)
                self._current = outer
                counts[0] += engine.round - rounds
                counts[1] += engine.stats.total_messages - messages

        return run_phase

    def _wrap_send(self, fn):
        @functools.wraps(fn)
        def send(handle, eid, *words):
            counts = self._current
            counts[2] += 1
            counts[3] += len(words)
            fn(handle, eid, *words)

        return send

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def write_jsonl(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, label) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op, "self_s": own[i]}
                if label is not None:
                    rec["label"] = label
                fh.write(json.dumps(rec) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer numbers, each a mean per traced op except the rates
        and ratios, whose bases are named beside them."""
        ops = max(1, len(self.ops))
        setups = max(1, len(self.setups))
        total: dict[str, float] = defaultdict(float)
        own_total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        phase_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _, op, label), own in zip(self.spans, self.self_times()):
            total[name] += end - start
            own_total[name] += own
            calls[name] += 1
            if label is not None:
                phase_s[phase_group(label)] += end - start

        def per_op(x: float) -> float:
            return x / ops

        out: dict[str, float] = {}
        phase_total = sum(phase_s.values())
        rounds = sum(c[0] for c in self.phase_counts.values())
        messages = sum(c[1] for c in self.phase_counts.values())
        sends = sum(c[2] for c in self.phase_counts.values()) + self._outside[2]
        words = sum(c[3] for c in self.phase_counts.values()) + self._outside[3]
        out["runtime.rounds_per_s"] = rounds / phase_total if phase_total else 0.0
        out["runtime.messages_per_s"] = messages / phase_total if phase_total else 0.0
        out["runtime.words"] = per_op(words)
        out["runtime.words_per_message"] = words / messages if messages else 0.0
        out["runtime.run_phase.s"] = per_op(total["runtime.run_phase"])
        out["runtime.run_phase.calls"] = per_op(calls["runtime.run_phase"])
        out["runtime.send.calls"] = per_op(sends)
        for g in PHASE_GROUPS:
            out[f"runtime.phase.{g}.s"] = per_op(phase_s[g])
        for g in SKETCH_GROUPS:
            out[f"runtime.phase.{g}.rounds"] = per_op(self.phase_counts[g][0])
            out[f"runtime.phase.{g}.words"] = per_op(self.phase_counts[g][3])

        for name in ("trees.build_bfs", "trees.broadcast", "three_cuts.exchange",
                     "three_cuts.hcast", "three_cuts.scan", "three_cuts.details",
                     "three_cuts.convergecast", "three_cuts.battery", "small_cuts.detect",
                     "cli.load_graph", "cli.pick_root", "cli.build_report",
                     "cli.emit_report"):
            out[f"{name}.s"] = per_op(total[name])
        for name in ("trees.trsf_compute", "sketches.k_sketch", "sketches.reduced_sketch",
                     "small_cuts.eta", "small_cuts.zeta"):
            out[f"{name}.s"] = per_op(total[name])
            out[f"{name}.self_s"] = per_op(own_total[name])
        out["trees.trsf_compute.calls"] = per_op(calls["trees.trsf_compute"])
        raw = 0
        for name in CASES:
            out[f"{name}.s"] = per_op(total[name])
            out[f"{name}.reports"] = per_op(self.results[name + ".reports"])
            raw += self.results[name + ".reports"]
        unique = self.results["three_cuts.reports_unique"]
        out["three_cuts.reports_unique"] = per_op(unique)
        # unique over raw reports; 0 when no detector reported anything
        out["three_cuts.dedupe_ratio"] = unique / raw if raw else 0.0
        out["graphs.oracle.s"] = per_op(total["graphs.oracle"])
        out["graphs.oracle.calls"] = per_op(calls["graphs.oracle"])
        out["graphs.generate.s"] = total["graphs.generate"] / setups
        return out
