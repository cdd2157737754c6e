"""Every ledger instance still costs and reports exactly what it did."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_costs import GOLDEN_PATH, INSTANCES, measure

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_ledger_covers_every_instance():
    assert sorted(GOLDEN) == sorted(INSTANCES)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_costs_and_reports_match_golden(name):
    got = json.loads(json.dumps(measure(*INSTANCES[name])))
    want = GOLDEN[name]
    assert got["phases"] == want["phases"]
    assert got == want


def test_ledger_unchanged_with_asserts_stripped():
    # Under python -O every assert is gone; costs and reports must not move.
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import json, golden_costs; print(json.dumps(golden_costs.collect()))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == GOLDEN


def test_src_has_no_asserts():
    # An assert vanishes under python -O; checks in src/ must raise instead.
    src = Path(__file__).resolve().parent.parent / "src" / "smallcut"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def _package_programs():
    """Every ``WordProgram`` subclass the package defines, by
    ``module.name``."""
    import importlib
    import pkgutil

    import smallcut
    from smallcut.runtime import WordProgram

    return {
        f"{info.name}.{name}": obj
        for info in pkgutil.iter_modules(smallcut.__path__)
        for mod in [importlib.import_module(f"smallcut.{info.name}")]
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and issubclass(obj, WordProgram)
        and obj is not WordProgram and obj.__module__ == mod.__name__
    }


def test_package_programs_are_the_flood_relay_fold_and_sketch_wave():
    # Four programs carry every phase: the BFS flood, the one relay (casts
    # and their swaps across non-tree edges), the fold, and the sketch
    # up-wave.  Another would be a second way to move the same words, and
    # small_cuts and three_cuts define none: every phase they run is a
    # trees fold or relay.
    assert sorted(_package_programs()) == [
        "sketches._SketchUp", "trees._Downcast", "trees._FloodEcho", "trees._TrsfProgram",
    ]


def test_no_program_overrides_on_chunk():
    # A relay declares what it forwards in ``relays`` and the engine
    # forwards it; an ``on_chunk`` override that sends would bring
    # per-chunk forwarding back into Python programs.
    found = sorted(name for name, obj in _package_programs().items() if "on_chunk" in vars(obj))
    assert found == []
