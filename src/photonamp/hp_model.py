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
rotation kernel with j = (n_e+n)/2. The model is resonant, and the
amplitudes leave out the global phase tau*(omega*(n_e+n) - omega0*N/2) of
the full Hamiltonian, which no detection probability reads.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import (_d_column, _require_finite, _require_twice_j, _require_whole,
                       _too_large, log_binomial)
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
        n_e, n = _require_whole(n_e=self.n_e, n=self.n)
        object.__setattr__(self, "n_e", n_e)
        object.__setattr__(self, "n", n)

    @property
    def total_quanta(self) -> int:
        return self.n_e + self.n


@dataclass(frozen=True)
class HpEvolutionParams:
    """Scaled time tau = g*t and the atom number of the bosonized mapping.

    The model is the resonant beam splitter; detuning is supported only by
    the exact sector solver. N_atoms enters validity monitoring alone:
    evolve_fock warns when the total quanta exceed N_atoms / 100, since the
    mapping assumes n_e + n << N.
    """

    tau: float
    N_atoms: int = 10**6

    def __post_init__(self) -> None:
        _require_finite(tau=self.tau)
        if not math.isfinite(2.0 * float(self.tau)):
            raise ValueError(f"tau must keep the rotation angle 2*tau finite, got {self.tau!r}")
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
        """|amplitude|^2 of ending in |n_e'; total - n_e'>, 0 <= n_e' <= total."""
        (k,) = _require_whole(n_e_prime=n_e_prime)
        if k > self.total_quanta:
            raise ValueError(f"n_e_prime must be at most total_quanta = {self.total_quanta}, "
                             f"got {n_e_prime!r}")
        return float(abs(self.amplitudes[k]) ** 2)


def evolve_fock(state: TwoModeFockState, params: HpEvolutionParams) -> AmplitudeVector:
    """Apply the beam-splitter propagator exp(-i*tau*(b'a + ba')) to |n_e; n>.

    The amplitude on |n_e'; n'> (with n_e' + n' = n_e + n) is
    d^j_{m',m}(2*tau) * exp(+i*pi*(m'-m)/2) = d^j_{m',m}(2*tau) * i^(n_e'-n_e),
    where j = (n_e+n)/2, m = (n_e-n)/2 and m' = (n_e'-n')/2: the
    beam-splitter generator is 2*J_x in the two-mode spin realization, and
    J_x = exp(+i*pi*J_z/2) J_y exp(-i*pi*J_z/2) turns the J_y rotation
    kernel into the mode-hopping propagator (verified against a dense
    matrix exponential of the hopping generator in the tests).
    """
    total = state.total_quanta
    _require_twice_j(total, "n_e" if state.n_e >= state.n else "n", "n_e + n")
    if 100 * total > params.N_atoms:
        warnings.warn(
            f"bosonized model used with n_e + n = {total} quanta for "
            f"N_atoms = {params.N_atoms}; results carry O(quanta/N) error",
            stacklevel=2,
        )
    d = _d_column(total, state.n_e - state.n, 2.0 * params.tau)
    # exp(i pi (m' - m) / 2) = i^(n_e' - n_e), taken exactly
    quarter_turns = np.array([1, 1j, -1, -1j])[(np.arange(total + 1) - state.n_e) % 4]
    return AmplitudeVector(total_quanta=total, amplitudes=d * quarter_turns)


def _log_binomial_of(n_e: int, n: int) -> float:
    """ln C(n + n_e, n_e) for checked counts; an overflow names the larger."""
    try:
        return log_binomial(n + n_e, n_e)
    except ValueError:  # the only one left: ln((n + n_e)!) overflows
        raise _too_large("n_e" if n_e > n else "n") from None


def ground_projection_probability(n_e: int, n: int, tau: float) -> float:
    """Probability that projecting all atoms onto the collective ground
    state succeeds at scaled time tau, emitting all n + n_e quanta as
    photons.

    Evaluates C(n+n_e, n_e) * cos^(2n)(tau) * sin^(2n_e)(tau) through
    log-binomials so large sectors neither overflow nor lose the tail;
    vanishing bases enter only via the 0^0 = 1 convention (a zero
    exponent drops the factor entirely). No double tau lies within
    4.7e-19 of an odd multiple of pi/2, so cos^2(tau) >= 2.2e-37 is never
    zero; sin^2(tau) is zero at tau = 0.
    """
    n_e, n = _require_whole(n_e=n_e, n=n)
    _require_finite(tau=tau)
    c_sq = math.cos(tau) ** 2
    s_sq = math.sin(tau) ** 2
    log_p = _log_binomial_of(n_e, n)
    if n > 0:
        log_p += n * math.log(c_sq)
    if n_e > 0:
        if s_sq == 0.0:
            return 0.0
        log_p += n_e * math.log(s_sq)
    return min(math.exp(log_p), 1.0)


def ground_projection_probabilities(n_e: int, n: int, tau_grid: np.ndarray) -> np.ndarray:
    """Vectorized ground_projection_probability over a grid of scaled times."""
    n_e, n = _require_whole(n_e=n_e, n=n)
    tau = np.asarray(tau_grid, dtype=float)
    _require_finite(tau_grid=tau)
    log_p = np.full(tau.shape, _log_binomial_of(n_e, n))
    with np.errstate(divide="ignore"):
        if n > 0:
            log_p = log_p + n * np.log(np.cos(tau) ** 2)
        if n_e > 0:
            log_p = log_p + n_e * np.log(np.sin(tau) ** 2)
    return np.minimum(np.exp(log_p), 1.0)
