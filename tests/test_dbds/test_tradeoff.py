"""Tests for the Section 5.4 trade-off heuristic."""

import pytest

from repro.dbds import tradeoff
from repro.dbds.simulation import SimulationResult
from repro.dbds.tradeoff import (
    BENEFIT_SCALE,
    INCREASE_BUDGET,
    TradeOffConfig,
    should_duplicate,
    sort_candidates,
)


def candidate(benefit=10.0, cost=5.0, probability=1.0):
    return SimulationResult(
        pred=None, merge=None, benefit=benefit, cost=cost, probability=probability
    )


class TestPaperConstants:
    def test_published_values(self):
        assert BENEFIT_SCALE == 256.0
        assert INCREASE_BUDGET == 1.5
        config = TradeOffConfig()
        assert config.benefit_scale == 256.0
        assert config.increase_budget == 1.5


class TestShouldDuplicate:
    def test_beneficial_candidate_accepted(self):
        assert should_duplicate(candidate(), current_size=100, initial_size=100)

    def test_zero_benefit_rejected(self):
        assert not should_duplicate(
            candidate(benefit=0.0), current_size=100, initial_size=100
        )

    def test_benefit_scale_term(self):
        # b*p*BS > c: with b=1, p=1: cost 255 passes, 257 fails.
        # (initial_size is large so the growth budget is not the limit.)
        assert should_duplicate(
            candidate(benefit=1.0, cost=255.0), current_size=100, initial_size=1000
        )
        assert not should_duplicate(
            candidate(benefit=1.0, cost=257.0), current_size=100, initial_size=1000
        )

    def test_probability_scales_benefit(self):
        cold = candidate(benefit=1.0, cost=100.0, probability=0.01)
        hot = candidate(benefit=1.0, cost=100.0, probability=1.0)
        assert not should_duplicate(cold, current_size=100, initial_size=1000)
        assert should_duplicate(hot, current_size=100, initial_size=1000)

    def test_probability_ignored_when_disabled(self):
        config = TradeOffConfig(use_probability=False)
        cold = candidate(benefit=1.0, cost=100.0, probability=0.01)
        assert should_duplicate(cold, current_size=100, initial_size=1000, config=config)

    def test_max_unit_size_cap(self, monkeypatch):
        monkeypatch.setattr(tradeoff, "MAX_UNIT_SIZE", 500.0)
        assert not should_duplicate(
            candidate(), current_size=500.0, initial_size=100
        )
        assert should_duplicate(candidate(), current_size=499.0, initial_size=400)

    def test_increase_budget(self):
        # cs + c < is * 1.5
        assert should_duplicate(
            candidate(cost=49.0), current_size=100.0, initial_size=100.0
        )
        assert not should_duplicate(
            candidate(cost=51.0), current_size=100.0, initial_size=100.0
        )

    def test_budget_consumed_by_growth(self):
        # After growing to 149, even a cost-2 candidate busts 150.
        assert not should_duplicate(
            candidate(cost=2.0), current_size=149.0, initial_size=100.0
        )


class TestSorting:
    def test_by_weighted_benefit_descending(self):
        a = candidate(benefit=10.0, probability=0.1)  # weighted 1.0
        b = candidate(benefit=2.0, probability=1.0)  # weighted 2.0
        c = candidate(benefit=100.0, probability=0.5)  # weighted 50.0
        assert sort_candidates([a, b, c]) == [c, b, a]

    def test_cost_breaks_ties(self):
        cheap = candidate(benefit=5.0, cost=1.0)
        pricey = candidate(benefit=5.0, cost=9.0)
        assert sort_candidates([pricey, cheap]) == [cheap, pricey]

    def test_probability_disabled_changes_order(self):
        hot_small = candidate(benefit=2.0, probability=1.0)
        cold_big = candidate(benefit=10.0, probability=0.1)
        default = sort_candidates([hot_small, cold_big])
        assert default[0] is hot_small
        raw = sort_candidates(
            [hot_small, cold_big], TradeOffConfig(use_probability=False)
        )
        assert raw[0] is cold_big

    def test_empty(self):
        assert sort_candidates([]) == []
