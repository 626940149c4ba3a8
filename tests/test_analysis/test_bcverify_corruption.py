"""Seeded corruption campaign: no corrupted artifact reaches dispatch."""

from __future__ import annotations

from repro.analysis.bcverify import corruption_campaign
from repro.analysis.bcverify.corrupt import DEFAULT_CORPUS, _MUTATORS


def test_campaign_rejects_every_corruption():
    """The acceptance bar: >= 200 single-point corruptions of cached
    bytecode — opcodes, registers, costs, branch targets, swapped
    instructions, templates, block tables, raw bit flips — and every
    single one is rejected at load (0 reach a dispatch loop)."""
    report = corruption_campaign(seed=1234, corruptions=200)
    assert report.total >= 200
    assert report.rejected == report.total, report.format()
    assert report.ok


def test_campaign_exercises_many_mutation_kinds():
    report = corruption_campaign(seed=99, corruptions=120)
    assert report.ok
    # the seeded mix must cover most structural mutators plus bitflips
    structural = {name for name, _fn in _MUTATORS}
    assert len(set(report.kinds) & structural) >= len(structural) - 2
    assert any(kind.startswith("bitflip") for kind in report.kinds)


def test_campaign_is_deterministic():
    first = corruption_campaign(seed=5, corruptions=40)
    second = corruption_campaign(seed=5, corruptions=40)
    assert first.kinds == second.kinds
    assert [r.detail for r in first.records] == [
        r.detail for r in second.records
    ]


def test_campaign_report_json():
    report = corruption_campaign(
        seed=3, corruptions=25, corpus=DEFAULT_CORPUS[:1]
    )
    payload = report.to_json()
    assert payload["ok"] is True
    assert payload["total"] == report.total
    assert payload["accepted"] == []
