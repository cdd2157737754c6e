"""The benchmark's tracer still finds every call site it wraps.

``perfbench/tracing.py`` patches functions by module and attribute name
and groups phases by label.  A rename or deletion in the package would
otherwise surface only when a traced benchmark run fails or reports its
time under ``other``.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from smallcut.runtime import Engine, NodeHandle

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in TRACING.WRAPPED])
def test_wrapped_call_site_resolves(module, attr):
    owner = importlib.import_module(f"smallcut.{module}")
    assert callable(getattr(owner, attr, None)), f"smallcut.{module}.{attr} is gone"


def test_engine_hooks_exist():
    assert callable(Engine.run_phase)
    assert callable(NodeHandle.send)


def test_golden_phase_labels_have_groups():
    golden = json.loads((ROOT / "tests" / "golden_costs.json").read_text(encoding="utf-8"))
    labels = {label for run in golden.values() for label in run["phases"]}
    assert labels
    ungrouped = sorted(label for label in labels if TRACING.phase_group(label) == "other")
    assert not ungrouped


def test_traced_battery_counts_its_reports():
    # The tracer reads the battery's result, not only its name.
    mods = SimpleNamespace(**{
        m: importlib.import_module(f"smallcut.{m}")
        for m in ("cli", "graphs", "runtime", "small_cuts", "sketches", "three_cuts")
    })
    tracer = TRACING.Tracer()
    tracer.install(mods)
    try:
        res = mods.three_cuts.run_full_pipeline(mods.graphs.generate("complete", 4), root=0)
    finally:
        tracer.uninstall()
    assert res.lambda_detected == 3
    assert tracer.results["three_cuts.reports_unique"] == len(res.reports) == 4
