"""Probability-versus-scaled-time traces shared by the model solvers."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import _require_finite

__all__ = ["ProbabilityTrace"]

VALUE_SLACK = 1e-12


@dataclass(frozen=True)
class ProbabilityTrace:
    """A detection-probability curve on an ascending tau grid.

    meta records what produced the curve (model name, state or mixture
    parameters, atom number for the exact solver) so emitted files stay
    self-describing.
    """

    tau_grid: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "tau_grid", tau)
        object.__setattr__(self, "values", vals)
        if tau.ndim != 1 or vals.shape != tau.shape:
            raise ValueError(
                f"grid and values must be 1-d and equal length: {tau.shape} vs {vals.shape}"
            )
        if tau.size == 0:
            raise ValueError("trace needs at least one grid point")
        _require_finite(tau_grid=tau, values=vals)
        if np.any(np.diff(tau) <= 0):
            raise ValueError("tau grid must be strictly ascending")
        if np.any(vals < -VALUE_SLACK) or np.any(vals > 1.0 + VALUE_SLACK):
            raise ValueError(
                f"probabilities out of [0, 1]: min={vals.min()!r}, max={vals.max()!r}"
            )

    @property
    def peak_index(self) -> int:
        return int(np.argmax(self.values))

    @property
    def peak_time(self) -> float:
        return float(self.tau_grid[self.peak_index])

    @property
    def peak_value(self) -> float:
        return float(self.values[self.peak_index])
