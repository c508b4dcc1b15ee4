"""Ensemble inputs and the derived observables of the detection scheme.

Covers Poisson-weighted coherent radiation, uniform mixtures of collective
atomic excitations, the conditional intensity gain after a successful
ground projection, and the timing observables: time of maximum detection
probability, first epsilon-crossing (threshold) time, peak widths, and
nearest-peak photon-number discrimination.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln, xlogy

from .hp_model import ground_projection_probabilities, ground_projection_probability
from .numerics import _require_whole
from .traces import ProbabilityTrace

__all__ = [
    "CoherentInput",
    "AtomicMixture",
    "DiscriminationReport",
    "coherent_projection_probability",
    "mixed_projection_probability",
    "intensity_gain",
    "perception_time",
    "threshold_time",
    "discriminate_photon_number",
    "fwhm",
]

POISSON_TAIL_BOUND = 1e-12


def _poisson_tail(nmax: int, intensity: float) -> float:
    """P[X > nmax] for X ~ Poisson(intensity)."""
    return float(gammainc(nmax + 1, intensity))


def _auto_truncation(intensity: float) -> int:
    """Smallest nmax >= int(intensity) whose tail is below POISSON_TAIL_BOUND:
    the tail falls with nmax, so bracket it by doubling steps, then bisect."""
    start = max(0, int(intensity))
    lo, hi, step = start - 1, start, 1  # tail(lo) too large, tail(hi) small enough
    while _poisson_tail(hi, intensity) >= POISSON_TAIL_BOUND:
        lo, hi, step = hi, start + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _poisson_tail(mid, intensity) < POISSON_TAIL_BOUND:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class CoherentInput:
    """Coherent radiation of mean photon number `intensity` = |alpha|^2.

    The detection curves and the gain sum the whole Poisson photon-number
    series in closed form, so they involve no truncation. truncation_nmax
    bounds only the explicit weights of photon_weights(); it is auto-chosen
    (or validated) so the discarded tail is below 1e-12. The scheme is
    formulated for weak light; intensities >= 1 are allowed but flagged via
    in_design_regime.
    """

    intensity: float
    truncation_nmax: int | None = None

    def __post_init__(self) -> None:
        if not (self.intensity >= 0.0 and math.isfinite(self.intensity)):
            raise ValueError(f"intensity must be a finite non-negative real: {self.intensity!r}")
        if self.truncation_nmax is None:
            object.__setattr__(self, "truncation_nmax", _auto_truncation(self.intensity))
            return
        (nmax,) = _require_whole(truncation_nmax=self.truncation_nmax)
        object.__setattr__(self, "truncation_nmax", nmax)
        if self.truncation_nmax < 0 or _poisson_tail(
            self.truncation_nmax, self.intensity
        ) >= POISSON_TAIL_BOUND:
            raise ValueError(
                f"truncation_nmax={self.truncation_nmax} leaves a Poisson tail "
                f">= {POISSON_TAIL_BOUND} at intensity {self.intensity}"
            )

    @property
    def in_design_regime(self) -> bool:
        """True when the input is in the weak-light regime |alpha|^2 < 1."""
        return self.intensity < 1.0

    def photon_weights(self) -> np.ndarray:
        """Poisson weights exp(-intensity) * intensity^n / n! for n <= nmax."""
        ns = np.arange(self.truncation_nmax + 1)
        return np.exp(xlogy(ns, self.intensity) - self.intensity - gammaln(ns + 1))


@dataclass(frozen=True)
class AtomicMixture:
    """Uniform mixture of collective excitations m = 0..n_e_max, each with
    weight 1/(n_e_max + 1)."""

    n_e_max: int

    def __post_init__(self) -> None:
        if self.n_e_max < 0:
            raise ValueError(f"n_e_max must be >= 0, got {self.n_e_max}")
        (n_e_max,) = _require_whole(n_e_max=self.n_e_max)
        object.__setattr__(self, "n_e_max", n_e_max)

    def weights(self) -> np.ndarray:
        return np.full(self.n_e_max + 1, 1.0 / (self.n_e_max + 1))


@dataclass(frozen=True)
class DiscriminationReport:
    """Nearest-peak classification of an observed detection maximum."""

    inferred_n: int
    candidate_peak_times: np.ndarray
    distances: np.ndarray


def _poisson_averages(n_e: int, intensity: float, tau: np.ndarray) -> np.ndarray:
    """Poisson average over n of P(m, n, tau) for every m = 0..n_e, in one pass.

    With s2 = sin^2 and x = intensity * cos^2, the average is
    q_m = exp(-intensity s2) s2^m L_m(-x) and its photon moment x sigma_m,
    sigma_m = exp(-intensity s2) s2^m L^(1)_m(-x). The contiguous relations
    q_{m+1} = s2 (q_m + x sigma_m / (m+1)), sigma_{m+1} = s2 sigma_m + q_{m+1}
    (DLMF 18.9) add only non-negative terms, so nothing cancels, unlike the
    three-term recurrence. exp(-intensity s2) is carried as a logarithm, so
    the curve survives where it underflows. Returns q_{n_e}, t_{n_e},
    sum_m q_m and sum_m t_m, with t_m = m q_m + x sigma_m the moment of the
    n + m emitted photons, as one read-only 4 x len(tau) array.

    The pass steps in place in preallocated rows, so no step allocates. It
    measures max(sigma) against the 1e100 rescaling threshold only when a
    running bound says it could be crossed: q <= sigma and a step grows
    sigma by at most 2 + intensity, so rescaling fires at the same steps as
    a measurement on every step would. The last result is kept in a
    one-entry cache keyed by n_e, intensity and tau's shape and bytes, so
    the pure and the mixed curve of one (n_e, intensity, grid) share a
    single pass; the cache keeps that 4 x len(tau) array alive until the
    next miss.
    """
    if n_e < 0:
        raise ValueError(f"n_e must be non-negative, got {n_e}")
    (n_e,) = _require_whole(n_e=n_e)
    return _poisson_pass(n_e, intensity, tau.shape, tau.tobytes())


@functools.lru_cache(maxsize=1)
def _poisson_pass(n_e: int, intensity: float, shape: tuple, tau_bytes: bytes) -> np.ndarray:
    tau = np.frombuffer(tau_bytes).reshape(shape)
    s2 = np.sin(tau) ** 2
    x = intensity * np.cos(tau) ** 2
    log_scale = -intensity * s2
    out = np.zeros((4, *shape))
    q, t, q_sum, t_sum = out  # rows of out, stepped in place
    q.fill(1.0)
    sigma, x_sigma = np.ones(shape), np.empty(shape)
    growth = (2.0 + intensity) * (1.0 + 1e-12)  # with headroom for rounding
    bound = 1.0  # >= max(sigma)
    for m in range(n_e + 1):
        np.multiply(x, sigma, out=x_sigma)
        np.multiply(m, q, out=t)
        t += x_sigma
        q_sum += q
        t_sum += t
        if m == n_e:
            break
        x_sigma /= m + 1
        q += x_sigma
        q *= s2
        sigma *= s2
        sigma += q
        bound *= growth
        if bound > 1e100:
            bound = sigma.max(initial=0.0)
            if bound > 1e100:
                scale = np.maximum(sigma, 1.0)
                for row in (q, sigma, q_sum, t_sum):
                    row /= scale
                log_scale += np.log(scale)
                bound = 1.0
    with np.errstate(divide="ignore"):  # exp(log_scale) alone may underflow
        result = np.where(
            log_scale > -700.0, out * np.exp(log_scale), np.exp(np.log(out) + log_scale)
        )
    result.flags.writeable = False
    return result


def coherent_projection_probability(
    n_e: int, input: CoherentInput, tau_grid: np.ndarray
) -> ProbabilityTrace:
    """Detection probability for n_e excited atoms and coherent radiation,
    exp(-lambda sin^2) sin^(2 n_e) L_{n_e}(-lambda cos^2): the Poisson sum of
    the pure Fock-input probabilities in closed form."""
    tau = np.asarray(tau_grid, dtype=float)
    if input.intensity == 0.0:  # the Fock vacuum
        values = ground_projection_probabilities(n_e, 0, tau)
    else:
        values = _poisson_averages(n_e, input.intensity, tau)[0]
    return ProbabilityTrace(
        tau_grid=tau,
        values=np.minimum(values, 1.0),
        meta={
            "model": "coherent",
            "n_e": n_e,
            "intensity": input.intensity,
            "in_design_regime": input.in_design_regime,
        },
    )


def mixed_projection_probability(
    mix: AtomicMixture, input: CoherentInput, tau_grid: np.ndarray
) -> ProbabilityTrace:
    """Detection probability for the uniform atomic mixture with coherent
    radiation: the coherent curve averaged over the excitation components."""
    tau = np.asarray(tau_grid, dtype=float)
    values = _poisson_averages(mix.n_e_max, input.intensity, tau)[2] / (mix.n_e_max + 1)
    return ProbabilityTrace(
        tau_grid=tau,
        values=np.minimum(values, 1.0),
        meta={
            "model": "mixed",
            "n_e_max": mix.n_e_max,
            "intensity": input.intensity,
            "in_design_regime": input.in_design_regime,
        },
    )


def intensity_gain(
    atoms: int | AtomicMixture, input: CoherentInput, tau: float
) -> float:
    """Conditional intensity amplification I(tau)/I(0) after a successful
    ground projection at scaled time tau.

    Every surviving component started as (m excited atoms, n photons) and
    leaves n + m photons behind; the expectation runs over the projection-
    renormalized weights Poisson(n) * P(m, n, tau), summed over every n in
    closed form. Approaches n_e/intensity for the pure state and
    n_e/(2*intensity) for the uniform mixture as tau -> pi/2.
    """
    if input.intensity <= 0.0:
        raise ValueError("intensity gain requires a nonzero input intensity")
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau!r}")
    mixture = isinstance(atoms, AtomicMixture)
    n_e = atoms.n_e_max if mixture else atoms
    q, t, q_sum, t_sum = _poisson_averages(n_e, input.intensity, np.array([float(tau)]))[:, 0]
    weight, photons = (q_sum, t_sum) if mixture else (q, t)
    if weight <= 0.0:
        raise ValueError(
            f"projection probability vanishes at tau={tau}; "
            "conditional gain is undefined"
        )
    with np.errstate(over="ignore", divide="ignore"):
        gain = float(photons / (weight * input.intensity))
    if not math.isfinite(gain):
        raise ValueError(
            f"intensity {input.intensity!r} is too small for a finite gain at tau={tau}"
        )
    return gain


def perception_time(n_e: int, n: int) -> float:
    """Scaled time at which P(n_e, n, tau) is maximal:
    arccos(sqrt(n / (n + n_e))), in (0, pi/2] for n_e >= 1.

    The all-vacuum case n_e = n = 0 has a flat unit probability; pi/2 is
    returned by convention. With n_e = 0 and photons present the maximum
    degenerates to tau = 0.
    """
    if n_e < 0 or n < 0:
        raise ValueError(f"occupation numbers must be non-negative: n_e={n_e}, n={n}")
    n_e, n = _require_whole(n_e=n_e, n=n)
    if n_e == 0 and n == 0:
        return math.pi / 2.0
    return math.acos(math.sqrt(n / (n + n_e)))


def threshold_time(n_e: int, n: int, epsilon: float = 0.01) -> float:
    """Earliest scaled time at which the detection probability reaches
    epsilon, located by bisection on the rising flank (the probability
    increases monotonically up to the perception time)."""
    if not 0.0 < epsilon:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    tau_peak = perception_time(n_e, n)
    peak = ground_projection_probability(n_e, n, tau_peak)
    if epsilon >= peak:
        raise ValueError(
            f"no threshold: epsilon={epsilon} is not below the peak "
            f"probability {peak} of (n_e={n_e}, n={n})"
        )
    if n_e == 0:
        return 0.0  # instant response: probability starts at 1 and falls
    # bracket the first crossing on a coarse grid of the rising flank
    grid = np.linspace(0.0, tau_peak, 257)
    values = ground_projection_probabilities(n_e, n, grid)
    hit = int(np.argmax(values >= epsilon))
    lo, hi = grid[hit - 1], grid[hit]
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if ground_projection_probability(n_e, n, mid) >= epsilon:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def discriminate_photon_number(
    n_e: int, observed_peak_time: float, n_max: int
) -> DiscriminationReport:
    """Infer the input photon number from an observed detection maximum.

    The candidate peak times perception_time(n_e, n) for n = 0..n_max
    are well separated for n_e a few times larger than n; the nearest one
    wins, with ties resolved toward smaller n.
    """
    if not 0.0 < observed_peak_time <= math.pi / 2.0 + 1e-12:
        raise ValueError(
            f"observed peak time must lie in (0, pi/2], got {observed_peak_time}"
        )
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    (n_max,) = _require_whole(n_max=n_max)
    # perception_time checks n_e at the first candidate, n = 0
    candidates = np.array([perception_time(n_e, n) for n in range(n_max + 1)])
    distances = np.abs(candidates - observed_peak_time)
    inferred = int(np.argmin(distances))  # argmin takes the first, i.e. smallest n
    return DiscriminationReport(
        inferred_n=inferred,
        candidate_peak_times=candidates,
        distances=distances,
    )


def fwhm(trace: ProbabilityTrace) -> float:
    """Full width at half maximum of a single-peaked trace, with the two
    half-maximum crossings located by linear interpolation between grid
    points."""
    v = trace.values
    tau = trace.tau_grid
    i_peak = trace.peak_index
    half = trace.peak_value / 2.0
    below_left = np.nonzero(v[:i_peak] < half)[0]
    below_right = np.nonzero(v[i_peak:] < half)[0]
    if below_left.size == 0 or below_right.size == 0:
        raise ValueError("trace does not fall below half maximum on both sides of the peak")
    li = int(below_left[-1])
    t_left = tau[li] + (half - v[li]) * (tau[li + 1] - tau[li]) / (v[li + 1] - v[li])
    ri = i_peak + int(below_right[0])
    t_right = tau[ri - 1] + (half - v[ri - 1]) * (tau[ri] - tau[ri - 1]) / (v[ri] - v[ri - 1])
    return float(t_right - t_left)
