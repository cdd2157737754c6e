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


def test_diff_names_only_what_rose(monkeypatch, capsys):
    moved = copy.deepcopy(COMMITTED)
    name = sorted(moved)[0]
    down, up = sorted(moved[name]["phases"])[:2]
    moved[name]["phases"][down]["rounds"] -= 1
    moved[name]["phases"][up]["messages"] += 1
    monkeypatch.setattr(golden_costs, "collect", lambda: moved)
    assert golden_costs.main(["--diff"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert f"{name}: {down}: rounds" in lines[0]
    assert lines[-1] == f"rose: {name} {up} messages"


def test_diff_counts_a_new_phase_as_risen(monkeypatch, capsys):
    moved = copy.deepcopy(COMMITTED)
    name = sorted(moved)[0]
    moved[name]["phases"]["new:phase"] = {"rounds": 1, "messages": 1, "words": 1,
                                          "max_bits_per_edge_per_round": 1}
    monkeypatch.setattr(golden_costs, "collect", lambda: moved)
    assert golden_costs.main(["--diff"]) == 1
    assert capsys.readouterr().out.strip().splitlines()[-1] == f"rose: {name} new:phase"


def test_diff_sums_each_phase_over_the_ledger(monkeypatch, capsys):
    # Traffic that moves between phases and instances shows its net
    # effect per label, just before the rose: line.
    moved = copy.deepcopy(COMMITTED)
    a, b = sorted(moved)[:2]
    low, high = sorted(set(moved[a]["phases"]) & set(moved[b]["phases"]))[:2]
    moved[a]["phases"][low]["messages"] -= 3
    moved[b]["phases"][low]["messages"] += 1
    moved[a]["phases"][high]["messages"] += 2
    moved[a]["phases"][high]["words"] += 2
    monkeypatch.setattr(golden_costs, "collect", lambda: moved)
    assert golden_costs.main(["--diff"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2] == f"net: {low} messages -2 words +0, {high} messages +2 words +2"
    assert lines[-1].startswith("rose: ")

    moved = copy.deepcopy(COMMITTED)
    moved[a]["phases"][low]["rounds"] += 1
    monkeypatch.setattr(golden_costs, "collect", lambda: moved)
    assert golden_costs.main(["--diff"]) == 1
    assert capsys.readouterr().out.strip().splitlines()[-2] == "net: none"
