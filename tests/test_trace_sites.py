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


def _counter(calls: dict[str, int], site: str, fn):
    def counted(*args, **kwargs):
        calls[site] += 1
        return fn(*args, **kwargs)

    return counted


def test_wrap_sites_the_commands_never_call(tmp_path, monkeypatch, capsys):
    """Every wrap site but four is a binding that ``run`` or ``verify``
    looks up when it runs.  The four are wrap entries the next benchmark
    change can drop: ``cli.min_cut_oracle`` (``verify`` calls
    ``small_cut_oracle``), ``sketches.distributed_k_sketch`` (the battery
    calls it through ``three_cuts``), and ``three_cuts.broadcast_t1`` and
    ``three_cuts.trsf_compute``.  Three of those names are imported only
    so that the tracer finds them, and can go with their entries."""
    calls: dict[str, int] = {}
    for module, attr, _ in TRACING.WRAPPED:
        owner = importlib.import_module(f"smallcut.{module}")
        site = f"{module}.{attr}"
        calls[site] = 0
        monkeypatch.setattr(owner, attr, _counter(calls, site, getattr(owner, attr)))
    from smallcut import cli, graphs

    path = tmp_path / "prism12.txt"
    path.write_text(graphs.dumps(graphs.generate("prism", 12)), encoding="utf-8")
    assert cli.main(["run", "--graph", str(path), "--force-battery"]) == cli.EXIT_OK
    assert cli.main(["verify", "--graph", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert sorted(site for site, n in calls.items() if n == 0) == [
        "cli.min_cut_oracle",
        "sketches.distributed_k_sketch",
        "three_cuts.broadcast_t1",
        "three_cuts.trsf_compute",
    ]


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
