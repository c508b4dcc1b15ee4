"""Overflow-safe special functions used by every probability formula.

Provides:
  * log_factorial / log_binomial: ln(k!) and ln(n choose k) via lgamma.
  * HalfInteger: exact half-integer angular-momentum labels (stored as 2x).
  * wigner_small_d: the spin-j rotation matrix element d^j_{m',m}(beta)
    about the y axis. It is a float64 term sum, each term formed in
    (log-magnitude, sign) form so that factorials never overflow. Where
    that alternating sum would cancel too many digits, the element comes
    from the eigenbasis of J_x instead (the Fourier route of Feng, Wang,
    Yang & Jin, Phys. Rev. E 92, 043307 (2015)), at every j.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "HalfInteger",
    "log_factorial",
    "log_binomial",
    "wigner_small_d",
    "wigner_d_matrix",
]


@dataclass(frozen=True)
class HalfInteger:
    """Exact half-integer; stores twice the value so no float rounding enters
    index arithmetic (5/2 is twice_value=5, 3 is twice_value=6)."""

    twice_value: int

    @classmethod
    def of(cls, x: "HalfInteger | int | float") -> "HalfInteger":
        """Coerce an int, an exact multiple of 1/2, or a HalfInteger."""
        if isinstance(x, HalfInteger):
            return x
        if isinstance(x, (int, np.integer)):
            return cls(2 * int(x))
        twice = 2.0 * float(x)
        if twice != round(twice):
            raise ValueError(f"{x!r} is not an integer or half-integer")
        return cls(int(round(twice)))

    @property
    def value(self) -> float:
        return self.twice_value / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice_value % 2 == 0

    def __float__(self) -> float:
        return self.value

    def __neg__(self) -> "HalfInteger":
        return HalfInteger(-self.twice_value)

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"


def log_factorial(k: int) -> float:
    """ln(k!) for k >= 0."""
    if k != int(k) or k < 0:
        raise ValueError(f"factorial argument must be a non-negative integer, got {k!r}")
    return math.lgamma(int(k) + 1)


def log_binomial(n: int, k: int) -> float:
    """ln(n choose k) for 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError(f"binomial out of domain: n={n}, k={k}")
    return log_factorial(n) - log_factorial(k) - log_factorial(n - k)


# The term sum alternates in sign and can cancel seven or more digits at
# mid angles for j around 25. Escalate to the J_x eigenbasis once the
# float64 sum may have lost more than ~1e-13, i.e. once the gross term
# magnitude passes 1e-13 / 2.5e-16 = 400; a single term past that limit
# escalates before it is exponentiated, so large j cannot overflow.
_ESCALATION_THRESHOLD = 1e-13
_FLOAT64_TERM_EPS = 2.5e-16
_LOG_GROSS_LIMIT = math.log(_ESCALATION_THRESHOLD / _FLOAT64_TERM_EPS)


@functools.lru_cache(maxsize=1)
def _jx_eigenvectors(tj: int) -> np.ndarray:
    """Eigenvectors of J_x in the |j m> basis (rows by ascending m, columns
    by ascending eigenvalue mu = -j..j). They do not depend on the angle,
    and every caller sweeps one j at a time, so only the latest is kept."""
    twice_m = np.arange(-tj, tj, 2)
    off_diagonal = 0.25 * np.sqrt((tj - twice_m) * (tj + twice_m + 2.0))
    _, vectors = eigh_tridiagonal(np.zeros(tj + 1), off_diagonal)
    vectors.setflags(write=False)
    return vectors


def _eigenbasis_element(tj: int, tmp: int, tm: int, beta: float) -> float:
    """d^j_{m',m}(beta) = sum_k V[m',k] V[m,k] cos(beta mu_k + pi (m'-m)/2),
    from exp(-i beta J_y) = exp(-i pi J_z/2) exp(-i beta J_x) exp(i pi J_z/2),
    with the eigenvalues mu_k = -j..j taken exactly."""
    vectors = _jx_eigenvectors(tj)
    mu = 0.5 * np.arange(-tj, tj + 1, 2)
    phase = beta * mu + 0.25 * math.pi * (tmp - tm)
    return float(np.dot(vectors[(tj + tmp) // 2] * vectors[(tj + tm) // 2], np.cos(phase)))


def _validate_indices(tj: int, tmp: int, tm: int) -> None:
    if abs(tm) > tj or abs(tmp) > tj:
        raise ValueError(
            f"rotation indices out of range: |m|, |m'| must not exceed j "
            f"(got 2j={tj}, 2m'={tmp}, 2m={tm})"
        )
    if (tj - tm) % 2 != 0 or (tj - tmp) % 2 != 0:
        raise ValueError(
            f"rotation indices have mismatched parity: j - m and j - m' must be "
            f"integers (got 2j={tj}, 2m'={tmp}, 2m={tm})"
        )


def wigner_small_d(
    j: HalfInteger | int | float,
    m_prime: HalfInteger | int | float,
    m: HalfInteger | int | float,
    beta: float,
) -> float:
    """Rotation matrix element d^j_{m',m}(beta) = <j m'| exp(-i beta J_y) |j m>.

    Each term of the alternating sum over k is assembled as a signed
    exponential of summed log-factorials and log-powers of cos(beta/2),
    sin(beta/2); the terms are then combined with exact compensated
    summation (math.fsum). k runs over exactly the range where all four
    factorial arguments are non-negative. Bases equal to zero contribute
    only through zero exponents (0^0 = 1). When the gross term magnitude
    says the sum would cancel below ~1e-13 absolute accuracy, the element
    is taken from the eigenbasis of J_x instead.

    Satisfies d^j_{m',m}(beta) = d^j_{m,m'}(-beta).
    """
    tj = HalfInteger.of(j).twice_value
    tmp = HalfInteger.of(m_prime).twice_value
    tm = HalfInteger.of(m).twice_value
    if tj < 0:
        raise ValueError(f"j must be non-negative, got 2j={tj}")
    if not math.isfinite(beta):
        raise ValueError(f"rotation angle must be finite, got {beta!r}")
    _validate_indices(tj, tmp, tm)

    # All of these are exact integers once the parity invariant holds.
    j_plus_m = (tj + tm) // 2
    j_minus_m = (tj - tm) // 2
    j_plus_mp = (tj + tmp) // 2
    j_minus_mp = (tj - tmp) // 2
    m_minus_mp = (tm - tmp) // 2

    half = 0.5 * beta
    c = math.cos(half)
    s = math.sin(half)
    log_abs_c = math.log(abs(c)) if c != 0.0 else -math.inf
    log_abs_s = math.log(abs(s)) if s != 0.0 else -math.inf

    half_log_num = (
        0.5 * log_factorial(j_plus_m),
        0.5 * log_factorial(j_minus_m),
        0.5 * log_factorial(j_plus_mp),
        0.5 * log_factorial(j_minus_mp),
    )

    k_min = max(0, m_minus_mp)
    k_max = min(j_plus_m, j_minus_mp)
    terms = []
    gross = 0.0
    for k in range(k_min, k_max + 1):
        pow_c = tj - 2 * k + m_minus_mp  # exponent of cos(beta/2)
        pow_s = 2 * k - m_minus_mp  # exponent of sin(beta/2)
        if (c == 0.0 and pow_c > 0) or (s == 0.0 and pow_s > 0):
            continue
        # fsum keeps the numerator/denominator cancellation exact, e.g. the
        # identity rotation comes out as exp(0) = 1 with no residue
        log_mag = math.fsum(
            (
                *half_log_num,
                -log_factorial(j_plus_m - k),
                -log_factorial(k),
                -log_factorial(j_minus_mp - k),
                -log_factorial(k - m_minus_mp),
                pow_c * log_abs_c if pow_c > 0 else 0.0,
                pow_s * log_abs_s if pow_s > 0 else 0.0,
            )
        )
        if log_mag > _LOG_GROSS_LIMIT:
            return _eigenbasis_element(tj, tmp, tm, beta)
        magnitude = math.exp(log_mag)
        gross += magnitude
        if gross * _FLOAT64_TERM_EPS > _ESCALATION_THRESHOLD:
            return _eigenbasis_element(tj, tmp, tm, beta)
        sign = -1.0 if (k - m_minus_mp) % 2 else 1.0
        if c < 0.0 and pow_c % 2:
            sign = -sign
        if s < 0.0 and pow_s % 2:
            sign = -sign
        terms.append(sign * magnitude)
    return math.fsum(terms)


def wigner_d_matrix(j: HalfInteger | int | float, beta: float) -> np.ndarray:
    """Full (2j+1) x (2j+1) rotation matrix, rows/columns ordered by
    ascending m', m in {-j, ..., j}."""
    tj = HalfInteger.of(j).twice_value
    dim = tj + 1
    out = np.empty((dim, dim))
    for r in range(dim):
        tmp = 2 * r - tj
        for col in range(dim):
            tm = 2 * col - tj
            out[r, col] = wigner_small_d(
                HalfInteger(tj), HalfInteger(tmp), HalfInteger(tm), beta
            )
    return out
