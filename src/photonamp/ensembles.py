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
from .numerics import _require_finite, _require_whole, _too_large, log_binomial
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
# Most weights photon_weights() builds (80 MB); intensity 1e6 needs 1,007,044.
MAX_PHOTON_WEIGHTS = 10**7


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
    series in closed form, so they involve no truncation. truncation_nmax,
    the cut below which the explicit weights of photon_weights() leave a
    tail under 1e-12, is computed only when it is read. The scheme is
    formulated for weak light; intensities >= 1 are allowed but flagged via
    in_design_regime.
    """

    intensity: float

    def __post_init__(self) -> None:
        if not (self.intensity >= 0.0 and math.isfinite(self.intensity)):
            raise ValueError(f"intensity must be a finite non-negative real: {self.intensity!r}")

    @property
    def truncation_nmax(self) -> int:
        """Smallest photon number whose Poisson tail beyond it is below 1e-12."""
        return _auto_truncation(self.intensity)

    @property
    def in_design_regime(self) -> bool:
        """True when the input is in the weak-light regime |alpha|^2 < 1."""
        return self.intensity < 1.0

    def photon_weights(self) -> np.ndarray:
        """Poisson weights exp(-intensity) * intensity^n / n! for n <= nmax."""
        nmax = self.truncation_nmax
        if nmax + 1 > MAX_PHOTON_WEIGHTS:
            raise _too_large("intensity", f"photon_weights() needs at most {MAX_PHOTON_WEIGHTS} "
                                          f"weights (80 MB), got {self.intensity!r}")
        ns = np.arange(nmax + 1)
        return np.exp(xlogy(ns, self.intensity) - self.intensity - gammaln(ns + 1))


@dataclass(frozen=True)
class AtomicMixture:
    """Uniform mixture of collective excitations m = 0..n_e_max, each with
    weight 1/(n_e_max + 1)."""

    n_e_max: int

    def __post_init__(self) -> None:
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
    the curve survives where it underflows. Returns q_{n_e}, sigma_{n_e},
    sum_m q_m, sum_m sigma_m and sum_m m q_m as one read-only 5 x len(tau)
    array; the n + m photons left behind have moment m q_m + x sigma_m.

    The pass steps in place in preallocated rows, so no step allocates. It
    measures max(sigma) against the 1e100 rescaling threshold only when a
    running bound says it could be crossed: q <= sigma and a step grows
    sigma by at most 2 + intensity, so rescaling fires at the same steps as
    a measurement on every step would. The last result is kept in a
    one-entry cache keyed by n_e, intensity and tau's shape and bytes, so
    the pure and the mixed curve of one (n_e, intensity, grid) share a
    single pass; the cache keeps that 5 x len(tau) array alive until the
    next miss.
    """
    (n_e,) = _require_whole(n_e=n_e)
    _require_finite(tau_grid=tau)  # before the pass and its cache
    return _poisson_pass(n_e, intensity, tau.shape, tau.tobytes())


@functools.lru_cache(maxsize=1)
def _poisson_pass(n_e: int, intensity: float, shape: tuple, tau_bytes: bytes) -> np.ndarray:
    tau = np.frombuffer(tau_bytes).reshape(shape)
    s2 = np.sin(tau) ** 2
    x = intensity * np.cos(tau) ** 2
    log_scale = -intensity * s2
    out = np.zeros((5, *shape))
    q, sigma, q_sum, sigma_sum, m_q_sum = out  # rows of out, stepped in place
    q.fill(1.0)
    sigma.fill(1.0)
    term = np.empty(shape)
    growth = (2.0 + intensity) * (1.0 + 1e-12)  # with headroom for rounding
    bound = 1.0  # >= max(sigma)
    for m in range(n_e + 1):
        q_sum += q
        sigma_sum += sigma
        np.multiply(m, q, out=term)
        m_q_sum += term
        if m == n_e:
            break
        np.multiply(x, sigma, out=term)
        term /= m + 1
        q += term
        q *= s2
        sigma *= s2
        sigma += q
        bound *= growth
        if bound > 1e100:
            bound = sigma.max(initial=0.0)
            if bound > 1e100:
                scale = np.maximum(sigma, 1.0)
                out /= scale
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
    closed form: the mean m over intensity plus cos^2 tau sigma/q, the
    ratio of two rows of the Poisson pass, so the product intensity
    cos^2 tau, which may be subnormal, never enters it. Approaches
    n_e/intensity for the pure state and n_e/(2*intensity) for the uniform
    mixture as tau -> pi/2. Raises where the gain overflows.
    """
    if input.intensity <= 0.0:
        raise ValueError("intensity gain requires a nonzero input intensity")
    _require_finite(tau=tau)
    mixture = isinstance(atoms, AtomicMixture)
    n_e = atoms.n_e_max if mixture else atoms
    q, sigma, q_sum, sigma_sum, m_q_sum = _poisson_averages(
        n_e, input.intensity, np.array([float(tau)]))[:, 0]
    weight, sigma = (q_sum, sigma_sum) if mixture else (q, sigma)
    if weight <= 0.0:
        raise ValueError(
            f"projection probability vanishes at tau={tau}; "
            "conditional gain is undefined"
        )
    mean_m = m_q_sum / weight if mixture else n_e
    with np.errstate(over="ignore"):
        gain = float(mean_m / input.intensity + math.cos(tau) ** 2 * (sigma / weight))
    if not math.isfinite(gain):
        raise ValueError(
            f"intensity {input.intensity!r} is too small for a finite gain at tau={tau}"
        )
    return gain


def perception_time(n_e: int, n: int) -> float:
    """Scaled time at which P(n_e, n, tau) is maximal: sin^2 tau =
    n_e / (n_e + n), taken as atan2(sqrt(n_e), sqrt(n)), in (0, pi/2] for
    n_e >= 1.

    The all-vacuum case n_e = n = 0 has a flat unit probability; pi/2 is
    returned by convention. With n_e = 0 and photons present the maximum
    degenerates to tau = 0.
    """
    n_e, n = _require_whole(n_e=n_e, n=n)
    if n_e == 0 and n == 0:
        return math.pi / 2.0
    return math.atan2(math.sqrt(n_e), math.sqrt(n))


def _require_epsilon(epsilon: float) -> None:
    """A threshold probability must be finite and positive."""
    _require_finite(epsilon=epsilon)
    if not 0.0 < epsilon:
        raise ValueError(f"epsilon must be positive, got {epsilon}")


def threshold_time(n_e: int, n: int, epsilon: float = 0.01) -> float:
    """Earliest scaled time at which the detection probability reaches
    epsilon, the first root of p^n_e (1 - p)^n = epsilon / C(n + n_e, n_e)
    in p = sin^2 tau.

    Newton's method solves it in w = ln p - ln(epsilon) / n_e, where
    g(w) = n_e w + n ln(1 - p) + ln C is concave and rises up to the peak
    p = n_e / (n_e + n). From w = -ln(C) / n_e, left of the root, the steps
    climb to it without passing it; they stop when one gains nothing, and a
    step that reaches the peak returns the perception time. The offset
    ln(epsilon) / n_e stays out of the iterate, so sin tau =
    epsilon^(1/(2 n_e)) e^(w/2) keeps its digits for the tiniest epsilon.
    """
    _require_epsilon(epsilon)
    tau_peak = perception_time(n_e, n)
    peak = ground_projection_probability(n_e, n, tau_peak)
    if epsilon >= peak:
        raise ValueError(f"no threshold: epsilon={epsilon} is not below the peak "
                         f"probability {peak} of (n_e={n_e}, n={n})")
    if n_e == 0:
        return 0.0  # instant response: probability starts at 1 and falls
    # ln C is finite: the peak guard computed it
    offset, log_c = math.log(epsilon) / n_e, log_binomial(n + n_e, n_e)
    w, w_peak = -log_c / n_e, math.log(n_e / (n_e + n)) - offset
    while True:
        u = offset + w  # ln p < 0, so 1 - p = -expm1(u) > 0
        g = n_e * w + n * math.log(-math.expm1(u)) + log_c
        slope = n_e + n * math.exp(u) / math.expm1(u)  # g'(w), > 0 left of the peak
        step = w - g / slope if slope > 0.0 else w_peak
        if step >= w_peak:
            return tau_peak
        if step <= w:
            return math.atan2(epsilon ** (0.5 / n_e) * math.exp(w / 2.0),
                              math.sqrt(-math.expm1(u)))
        w = step


def discriminate_photon_number(
    n_e: int, observed_peak_time: float, n_max: int
) -> DiscriminationReport:
    """Infer the input photon number from an observed detection maximum.

    The candidate peak times perception_time(n_e, n) for n = 0..n_max
    are well separated for n_e a few times larger than n; the nearest one
    wins, with ties resolved toward smaller n.
    """
    if not 0.0 < observed_peak_time <= math.pi / 2.0 + 1e-12:  # NaN fails too
        raise ValueError(
            f"observed_peak_time must lie in (0, pi/2], got {observed_peak_time!r}"
        )
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
