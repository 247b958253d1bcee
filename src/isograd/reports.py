"""Small shared report containers returned by the optimizers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class OptimumReport:
    """One optimizer outcome: where, how good, and under which regime.

    ``label`` names the search space or slice ("Coin", "rho=+0.50",
    "unconstrained", ...); ``mode`` names the semantics the objective was
    evaluated under; ``diagnostics`` carries grid resolution, refinement
    iterations, boundary flags and similar bookkeeping.
    """

    label: str
    point: tuple[float, ...]
    value: float
    mode: str = ""
    diagnostics: dict[str, Any] = field(default_factory=dict)
