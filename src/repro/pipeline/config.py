"""Compiler configurations matching the paper's evaluation setup.

Section 6.1: *"We ran each benchmark with three different
configurations: baseline (DBDS disabled), DBDS (DBDS enabled) and
dupalot (DBDS enabled but without cost/benefit trade-off)."*

A fourth configuration, *backtracking*, implements Algorithm 1 for the
compile-time comparison of Section 3.1.
"""

from __future__ import annotations

from typing import Optional

from ..dbds.tradeoff import TradeOffConfig


class CompilerConfig:
    """One named pipeline configuration.

    * ``enable_dbds``: run the DBDS phase (simulate → trade-off →
      optimize); ``dupalot``: DBDS without the trade-off tier, every
      positive-benefit pair; ``backtracking``: the backtracking baseline
      instead of simulation.
    * ``enable_inlining``: run the inliner in the front end.
    * ``trade_off``: trade-off constants (ablations override).
    * ``max_dbds_iterations``: the bound on DBDS's simulate →
      trade-off → optimize rounds (paper: 3).
    * ``path_duplication`` (Section 8 future work): after a kept
      duplication, keep duplicating along the resulting Goto chain
      through further merges ("duplicate over multiple merges along
      paths"; :data:`repro.dbds.phase.MAX_PATH_LENGTH` bounds a path).
    * ``enable_peeling`` (experimental): peel first iterations of
      constant-entry loops before DBDS (duplication at loop headers —
      see DESIGN.md).

    Configurations are not mutated once built; :meth:`replace` and
    :meth:`with_trade_off` make changed copies.
    """

    __slots__ = (
        "name", "enable_dbds", "dupalot", "backtracking", "enable_inlining",
        "trade_off", "max_dbds_iterations", "path_duplication",
        "enable_peeling",
    )

    def __init__(
        self,
        name: str,
        enable_dbds: bool = False,
        dupalot: bool = False,
        backtracking: bool = False,
        enable_inlining: bool = True,
        trade_off: Optional[TradeOffConfig] = None,
        max_dbds_iterations: int = 3,
        path_duplication: bool = False,
        enable_peeling: bool = False,
    ) -> None:
        self.name = name
        self.enable_dbds = enable_dbds
        self.dupalot = dupalot
        self.backtracking = backtracking
        self.enable_inlining = enable_inlining
        self.trade_off = trade_off if trade_off is not None else TradeOffConfig()
        self.max_dbds_iterations = max_dbds_iterations
        self.path_duplication = path_duplication
        self.enable_peeling = enable_peeling

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def replace(self, **changes) -> "CompilerConfig":
        """A copy with ``changes`` (field name -> value) applied."""
        return CompilerConfig(**{**self._fields(), **changes})

    def fingerprint(self) -> str:
        """Deterministic digest of every tunable (cache-key component).

        Every field by name, nested :class:`TradeOffConfig` constants
        included, so two configs that differ in any field — even an
        ablation tweak — never share artifact-cache entries (see
        ``repro.pipeline.cache``).
        """
        import hashlib
        import json

        fields = {**self._fields(), "trade_off": self.trade_off.to_json()}
        payload = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def with_trade_off(self, **kwargs) -> "CompilerConfig":
        """A copy whose trade-off constants have ``kwargs`` applied."""
        return self.replace(
            trade_off=TradeOffConfig(**{**self.trade_off.to_json(), **kwargs})
        )


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
