"""The ledger tool's ``--diff`` exit status, with the slow runs stubbed out."""

from __future__ import annotations

import copy
import json

import golden_costs

COMMITTED = json.loads(golden_costs.GOLDEN_PATH.read_text(encoding="utf-8"))


def test_diff_exits_0_when_nothing_moved(monkeypatch, capsys):
    monkeypatch.setattr(golden_costs, "collect", lambda: copy.deepcopy(COMMITTED))
    assert golden_costs.main(["--diff"]) == 0
    assert capsys.readouterr().out.strip() == "no change"


def test_diff_exits_1_when_a_phase_moved(monkeypatch, capsys):
    moved = copy.deepcopy(COMMITTED)
    name = sorted(moved)[0]
    label = sorted(moved[name]["phases"])[0]
    moved[name]["phases"][label]["rounds"] += 1
    monkeypatch.setattr(golden_costs, "collect", lambda: moved)
    assert golden_costs.main(["--diff"]) == 1
    assert f"{name}: {label}: rounds" in capsys.readouterr().out
