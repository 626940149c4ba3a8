"""Compiler configurations matching the paper's evaluation setup.

Section 6.1: *"We ran each benchmark with three different
configurations: baseline (DBDS disabled), DBDS (DBDS enabled) and
dupalot (DBDS enabled but without cost/benefit trade-off)."*

A fourth configuration, *backtracking*, implements Algorithm 1 for the
compile-time comparison of Section 3.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..dbds.tradeoff import TradeOffConfig

if TYPE_CHECKING:
    from ..dbds.phase import DbdsConfig


@dataclass(frozen=True)
class CompilerConfig:
    """One named pipeline configuration."""

    name: str
    #: run the DBDS phase (simulate → trade-off → optimize)
    enable_dbds: bool = False
    #: DBDS without the trade-off tier: every positive-benefit pair
    dupalot: bool = False
    #: use the backtracking baseline instead of simulation
    backtracking: bool = False
    #: run the inliner in the front end
    enable_inlining: bool = True
    #: trade-off constants (ablations override)
    trade_off: TradeOffConfig = field(default_factory=TradeOffConfig)
    #: verify the IR after each phase (slow; tests enable it)
    paranoid: bool = False
    max_dbds_iterations: int = 3
    #: Section 8 future work: duplicate over multiple merges along paths
    path_duplication: bool = False
    #: experimental: peel first iterations of constant-entry loops
    #: before DBDS (duplication at loop headers — see DESIGN.md)
    enable_peeling: bool = False

    def fingerprint(self) -> str:
        """Deterministic digest of every tunable (cache-key component).

        Built from ``dataclasses.asdict`` so nested
        :class:`TradeOffConfig` constants participate: two configs that
        differ in any field — even an ablation tweak — never share
        artifact-cache entries (see ``repro.pipeline.cache``).
        """
        import dataclasses
        import hashlib
        import json

        payload = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def dbds_config(self) -> "DbdsConfig":
        from ..dbds.phase import DbdsConfig

        return DbdsConfig(
            trade_off=self.trade_off,
            dupalot=self.dupalot,
            paranoid=self.paranoid,
            max_iterations=self.max_dbds_iterations,
            path_duplication=self.path_duplication,
        )

    def with_trade_off(self, **kwargs) -> "CompilerConfig":
        return replace(self, trade_off=replace(self.trade_off, **kwargs))


BASELINE = CompilerConfig(name="baseline")
DBDS = CompilerConfig(name="dbds", enable_dbds=True)
DUPALOT = CompilerConfig(name="dupalot", enable_dbds=True, dupalot=True)
BACKTRACKING = CompilerConfig(name="backtracking", backtracking=True)
#: Section 8 future work: DBDS extended with path duplication.
PATH_DBDS = CompilerConfig(
    name="path-dbds", enable_dbds=True, path_duplication=True
)
#: Experimental: loop peeling before DBDS (duplication at loop headers).
PEEL_DBDS = CompilerConfig(
    name="peel-dbds", enable_dbds=True, enable_peeling=True
)

CONFIGURATIONS = {
    c.name: c
    for c in (BASELINE, DBDS, DUPALOT, BACKTRACKING, PATH_DBDS, PEEL_DBDS)
}
