"""The package holds what a run executes, plus the references tests need.

A fixed set of CLI commands runs under a call-event trace.  Every named
function in ``src/`` that none of them enters must be listed below with
the reason it stays: reference code that tests compare the protocols
against, an error path, or a named public convenience.  A function no
command runs and no reason covers is dead code, and a listed one that a
command does run has lost its reason to be listed.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import smallcut
from smallcut import cli

REFERENCE = "reference code that tests compare the protocols against"
ERROR = "error path: runs only when a run fails"
CONVENIENCE = "named public convenience"

NEVER_ENTERED = {
    "graphs.Graph.__repr__": CONVENIENCE,
    "graphs.Graph.eid": CONVENIENCE,
    "graphs.RootedTree.ancestors": REFERENCE,
    "graphs.RootedTree.from_edges": REFERENCE,
    "graphs.gamma": REFERENCE,
    "graphs.min_cut_oracle": REFERENCE,
    "graphs.non_tree_eids": REFERENCE,
    "runtime.BandwidthError.__init__": ERROR,
    "runtime.NodeHandle.round": CONVENIENCE,
    "runtime.RoundLimitError.__init__": ERROR,
    "runtime.WordProgram.start": "the base hook; every package program overrides it",
    "sketches.CanonicalTree.children": REFERENCE,
    "sketches.SketchSource.members": REFERENCE,
    "sketches.SketchTree.bit_size": REFERENCE,
    "sketches.SketchTree.dump": REFERENCE,
    "sketches.SketchTree.nodes": REFERENCE,
    "sketches._nontree_targets": REFERENCE,
    "sketches.branching_number": REFERENCE,
    "sketches.branching_numbers": REFERENCE,
    "sketches.build_canonical": REFERENCE,
    "sketches.first_branch_node": REFERENCE,
    "sketches.reference_k_sketch": REFERENCE,
    "small_cuts.CutReport.size": CONVENIENCE,
    "three_cuts.PipelineResult.depth": CONVENIENCE,
    "three_cuts.PivotedSubgraph.build": REFERENCE,
}

FAMILIES = (("path", 8), ("cycle", 8), ("complete", 6), ("grid", 9), ("prism", 12),
            ("barbell", 8), ("random_connected", 10))


def _commands(out: Path) -> list[list[str]]:
    cmds = []
    for family, n in FAMILIES:
        cmds.append(["run", "--family", family, "--n", str(n), "--force-battery", "--verify"])
        cmds.append(["verify", "--family", family, "--n", str(n)])
    graph = str(out / "prism12.txt")
    cmds.append(["gen", "--family", "prism", "--n", "12", "--out", graph])
    cmds.append(["run", "--graph", graph, "--strict-bandwidth",
                 "--report", str(out / "report.json")])
    cmds.append(["bench", "--family", "cycle", "--sizes", "6,8", "--out", str(out / "bench.json")])
    return cmds


def _named_functions() -> dict[tuple[str, int, str], str]:
    """Every ``def`` in the package's modules, class bodies, lambdas and
    comprehensions aside, keyed as a traced frame names its code."""

    def walk(code, prefix):
        for const in code.co_consts:
            if not inspect.iscode(const) or const.co_name.startswith("<"):
                continue
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const, name
                yield from walk(const, name + ".<locals>.")
            else:
                yield from walk(const, name + ".")

    out = {}
    for info in pkgutil.iter_modules(smallcut.__path__):
        mod = importlib.import_module(f"smallcut.{info.name}")
        top = compile(Path(mod.__file__).read_text(encoding="utf-8"), mod.__file__, "exec")
        for code, name in walk(top, f"{info.name}."):
            out[code.co_filename, code.co_firstlineno, code.co_name] = name
    return out


def test_every_function_a_command_skips_has_a_reason(tmp_path, capsys):
    entered = set()

    def on_call(frame, event, arg):
        entered.add(frame.f_code)
        return None  # call events only, no line tracing

    cmds = _commands(tmp_path)
    cli.make_parser.cache_clear()  # the traced commands build the parser, as a fresh process does
    outer = sys.gettrace()
    sys.settrace(on_call)
    try:
        codes = [cli.main(cmd) for cmd in cmds]
    finally:
        sys.settrace(outer)
    capsys.readouterr()
    assert codes == [cli.EXIT_OK] * len(cmds)
    seen = {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}
    never = {name for key, name in _named_functions().items() if key not in seen}
    unlisted = sorted(never - NEVER_ENTERED.keys())
    entered_anyway = sorted(NEVER_ENTERED.keys() - never)
    assert (unlisted, entered_anyway) == ([], [])
