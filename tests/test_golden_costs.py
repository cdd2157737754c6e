"""Every ledger instance still costs and reports exactly what it did."""

from __future__ import annotations

import json

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
