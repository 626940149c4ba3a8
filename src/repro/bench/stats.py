"""Statistics helpers for the evaluation harness."""

from __future__ import annotations

import math
from typing import Iterable


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the paper reports geomeans)."""
    values = list(values)
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup_percent(baseline_cycles: float, config_cycles: float) -> float:
    """Peak-performance improvement in percent (higher is better)."""
    if config_cycles == 0:
        return 0.0
    return (baseline_cycles / config_cycles - 1.0) * 100.0


def format_percent(value: float) -> str:
    return f"{value:+.2f}%"
