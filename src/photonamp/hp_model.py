"""Large-N beam-splitter picture of the collective atom-photon coupling.

When the number of excitations is small compared to the number of atoms,
bosonizing the collective spin turns the resonant interaction into a
two-mode beam splitter exp(-i*tau*(b'a + ba')) acting on |n_e; n> states
(n_e excited atoms mapped to bosons, n photons). Total quanta are
conserved, the mode contents rotate with scaled time tau = g*t, and at
tau = pi/2 the atom and photon numbers swap.

Projecting every atom onto the collective ground state afterwards forces
all quanta into the field: the success probability has the closed
binomial form

    P(n_e, n, tau) = C(n+n_e, n_e) * cos(tau)^(2n) * sin(tau)^(2n_e),

which `ground_projection_probability` evaluates in log space, while
`evolve_fock` produces the full amplitude vector through the spin-(j)
rotation kernel with j = (n_e+n)/2.
"""
from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import _d_column, _require_whole, log_binomial
from .numerics import wigner_small_d  # noqa: F401  (perfbench/tracing.py wraps this name)

__all__ = [
    "TwoModeFockState",
    "HpEvolutionParams",
    "AmplitudeVector",
    "evolve_fock",
    "ground_projection_probability",
    "ground_projection_probabilities",
]

NORM_TOL = 1e-10


@dataclass(frozen=True)
class TwoModeFockState:
    """Joint label |n_e; n>: n_e excited atoms (bosonized) and n photons."""

    n_e: int
    n: int

    def __post_init__(self) -> None:
        if self.n_e < 0 or self.n < 0:
            raise ValueError(f"occupation numbers must be non-negative: {self}")
        n_e, n = _require_whole(n_e=self.n_e, n=self.n)
        object.__setattr__(self, "n_e", n_e)
        object.__setattr__(self, "n", n)

    @property
    def total_quanta(self) -> int:
        return self.n_e + self.n


@dataclass(frozen=True)
class HpEvolutionParams:
    """Scaled-time evolution parameters.

    The bosonized model is used on resonance only, so omega_over_g and
    omega0_over_g must agree (they feed a global phase). N_atoms enters
    validity monitoring: a warning is issued when the total quanta exceed
    validity_ratio * N_atoms, since the mapping assumes n_e + n << N.
    """

    tau: float
    omega_over_g: float = 1.0
    omega0_over_g: float = 1.0
    N_atoms: int = 10**6
    validity_ratio: float = 0.01

    def __post_init__(self) -> None:
        for name in ("tau", "omega_over_g", "omega0_over_g", "validity_ratio"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not math.isfinite(2.0 * float(self.tau)):
            raise ValueError(f"tau must keep the rotation angle 2*tau finite, got {self.tau!r}")
        if self.omega_over_g != self.omega0_over_g:
            raise ValueError(
                "beam-splitter reduction assumes resonance: "
                f"omega_over_g={self.omega_over_g} != omega0_over_g={self.omega0_over_g} "
                "(detuning is supported only by the exact sector solver)"
            )
        if self.N_atoms < 1:
            raise ValueError(f"N_atoms must be positive, got {self.N_atoms}")
        (N_atoms,) = _require_whole(N_atoms=self.N_atoms)
        object.__setattr__(self, "N_atoms", N_atoms)


@dataclass(frozen=True)
class AmplitudeVector:
    """Evolved state within one conserved-total sector.

    amplitudes[k] is the amplitude on |n_e'=k; n'=total_quanta-k>; the
    vector is unit norm (the rotation kernel is orthogonal).
    """

    total_quanta: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.total_quanta + 1,):
            raise ValueError(
                f"expected {self.total_quanta + 1} amplitudes, got shape {amps.shape}"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN fails too
            raise ValueError(f"amplitude vector not normalized: |a|^2 = {norm_sq!r}")

    def probability(self, n_e_prime: int) -> float:
        """|amplitude|^2 of ending in |n_e'; total - n_e'>."""
        return float(abs(self.amplitudes[n_e_prime]) ** 2)


def evolve_fock(state: TwoModeFockState, params: HpEvolutionParams) -> AmplitudeVector:
    """Apply the beam-splitter propagator to |n_e; n>.

    The amplitude on |n_e'; n'> (with n_e' + n' = n_e + n) is a global
    phase times d^j_{m',m}(2*tau) * exp(+i*pi*(m'-m)/2), where
    j = (n_e+n)/2, m = (n_e-n)/2 and m' = (n_e'-n')/2: the beam-splitter
    generator is 2*J_x in the two-mode spin realization, and
    J_x = exp(+i*pi*J_z/2) J_y exp(-i*pi*J_z/2) turns the J_y rotation
    kernel into the mode-hopping propagator (verified against a dense
    matrix exponential of the hopping generator in the tests).
    """
    total = state.total_quanta
    if total > params.validity_ratio * params.N_atoms:
        warnings.warn(
            f"bosonized model used with n_e + n = {total} quanta for "
            f"N_atoms = {params.N_atoms}; results carry O(quanta/N) error",
            stacklevel=2,
        )
    tau = params.tau
    phase = float(tau) * (
        params.omega_over_g * total - params.omega0_over_g * params.N_atoms / 2.0
    )
    if not math.isfinite(phase):
        raise ValueError(
            f"tau={tau!r} overflows the global phase tau*(omega*total - omega0*N_atoms/2)"
        )
    global_phase = cmath.exp(-1j * phase)
    d = _d_column(total, state.n_e - state.n, 2.0 * tau)
    # exp(i pi (m' - m) / 2) = i^(n_e' - n_e), taken exactly
    quarter_turns = np.array([1, 1j, -1, -1j])[(np.arange(total + 1) - state.n_e) % 4]
    amps = global_phase * d * quarter_turns
    return AmplitudeVector(total_quanta=total, amplitudes=amps)


def ground_projection_probability(n_e: int, n: int, tau: float) -> float:
    """Probability that projecting all atoms onto the collective ground
    state succeeds at scaled time tau, emitting all n + n_e quanta as
    photons.

    Evaluates C(n+n_e, n_e) * cos^(2n)(tau) * sin^(2n_e)(tau) through
    log-binomials so large sectors neither overflow nor lose the tail;
    vanishing bases enter only via the 0^0 = 1 convention (a zero
    exponent drops the factor entirely).
    """
    if n_e < 0 or n < 0:
        raise ValueError(f"occupation numbers must be non-negative: n_e={n_e}, n={n}")
    n_e, n = _require_whole(n_e=n_e, n=n)
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    c_sq = math.cos(tau) ** 2
    s_sq = math.sin(tau) ** 2
    log_p = log_binomial(n + n_e, n_e)
    if n > 0:
        if c_sq == 0.0:
            return 0.0
        log_p += n * math.log(c_sq)
    if n_e > 0:
        if s_sq == 0.0:
            return 0.0
        log_p += n_e * math.log(s_sq)
    return min(math.exp(log_p), 1.0)


def ground_projection_probabilities(n_e: int, n: int, tau_grid: np.ndarray) -> np.ndarray:
    """Vectorized ground_projection_probability over a grid of scaled times."""
    if n_e < 0 or n < 0:
        raise ValueError(f"occupation numbers must be non-negative: n_e={n_e}, n={n}")
    n_e, n = _require_whole(n_e=n_e, n=n)
    tau = np.asarray(tau_grid, dtype=float)
    if not np.isfinite(tau).all():
        raise ValueError("tau must be finite at every grid point")
    log_p = np.full(tau.shape, log_binomial(n + n_e, n_e))
    with np.errstate(divide="ignore"):
        if n > 0:
            log_p = log_p + n * np.log(np.cos(tau) ** 2)
        if n_e > 0:
            log_p = log_p + n_e * np.log(np.sin(tau) ** 2)
    return np.minimum(np.exp(log_p), 1.0)
