"""Compiler configurations matching the paper's evaluation setup.

Section 6.1: *"We ran each benchmark with three different
configurations: baseline (DBDS disabled), DBDS (DBDS enabled) and
dupalot (DBDS enabled but without cost/benefit trade-off)."*

A fourth configuration, *backtracking*, implements Algorithm 1 for the
compile-time comparison of Section 3.1; *path-dbds* and *peel-dbds*
are Section 8 extensions (see DESIGN.md).
"""

from __future__ import annotations

from typing import Optional

from ..dbds.tradeoff import TradeOffConfig

#: Every configuration a compile can run under.  What a compile runs
#: follows from the name alone:
#:
#: * ``baseline``: inlining and the cleanup phases, no duplication;
#: * ``dbds``: plus the DBDS phase (simulate → trade-off → optimize);
#: * ``dupalot``: DBDS without the trade-off tier, every
#:   positive-benefit pair while the unit is under MS;
#: * ``backtracking``: Algorithm 1 instead of simulation;
#: * ``path-dbds`` (Section 8 future work): DBDS whose kept
#:   duplications extend along the ensuing Goto chain through further
#:   merges (:data:`repro.dbds.phase.MAX_PATH_LENGTH` bounds a path);
#: * ``peel-dbds`` (experimental): first iterations of constant-entry
#:   loops peeled before DBDS (duplication at loop headers).
CONFIGURATION_NAMES = (
    "baseline", "dbds", "dupalot", "backtracking", "path-dbds", "peel-dbds",
)


class CompilerConfig:
    """One named configuration (one of :data:`CONFIGURATION_NAMES`)
    under the trade-off constants ``trade_off``, which ablations
    override.  Any other name raises :class:`ValueError`.

    Configurations are not mutated once built; :meth:`with_trade_off`
    makes a changed copy.
    """

    __slots__ = ("name", "trade_off")

    def __init__(
        self, name: str, trade_off: Optional[TradeOffConfig] = None
    ) -> None:
        if name not in CONFIGURATION_NAMES:
            raise ValueError(
                f"unknown compiler configuration {name!r} "
                f"(known: {', '.join(CONFIGURATION_NAMES)})"
            )
        self.name = name
        self.trade_off = trade_off if trade_off is not None else TradeOffConfig()

    def fingerprint(self) -> str:
        """Deterministic digest of the name and the trade-off constants
        (cache-key component), so two configs that differ in either —
        even an ablation tweak — never share artifact-cache entries (see
        ``repro.pipeline.cache``)."""
        import hashlib
        import json

        payload = json.dumps(
            {"name": self.name, "trade_off": self.trade_off.to_json()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def with_trade_off(self, **kwargs) -> "CompilerConfig":
        """A copy whose trade-off constants have ``kwargs`` applied."""
        return CompilerConfig(
            self.name,
            TradeOffConfig(**{**self.trade_off.to_json(), **kwargs}),
        )


CONFIGURATIONS = {name: CompilerConfig(name) for name in CONFIGURATION_NAMES}

BASELINE = CONFIGURATIONS["baseline"]
DBDS = CONFIGURATIONS["dbds"]
DUPALOT = CONFIGURATIONS["dupalot"]
BACKTRACKING = CONFIGURATIONS["backtracking"]
PATH_DBDS = CONFIGURATIONS["path-dbds"]
PEEL_DBDS = CONFIGURATIONS["peel-dbds"]
