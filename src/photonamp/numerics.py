"""Overflow-safe special functions used by every probability formula.

Provides:
  * log_factorial / log_binomial: ln(k!) and ln(n choose k) via lgamma.
  * HalfInteger: exact half-integer angular-momentum labels (stored as 2x).
  * wigner_small_d / wigner_d_matrix: the spin-j rotation matrix elements
    d^j_{m',m}(beta) about the y axis, read off whole columns
    d^j_{.,m}(beta). A column comes from the three-term recurrence in m',
    run inward from the closed-form edge values d^j_{+-j,m}(beta) until
    the two runs meet near m' = m cos(beta) (Prezeau & Reinecke, ApJS 190,
    267 (2010)). Each run grows away from its edge, so the tails keep
    their relative accuracy, and an edge that would underflow is carried
    with a separate binary exponent until the values it seeds are
    representable. A column costs O(2j) steps and O(2j) memory at every j.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# An edge below 2^_EXP_UNDERFLOW starts its run as a bare mantissa; the run
# folds the exponent back in, at most _EXP_FOLD bits at a time, once the
# values have grown, so no value overflows and no scaling rounds.
_EXP_UNDERFLOW = -1000
_EXP_FOLD = -800
_FOLD_AT = 2.0**-_EXP_FOLD


def _edge(tj: int, tm: int, c: float, s: float) -> tuple[float, int]:
    """d^j_{j,m} = (-1)^(j-m) sqrt(C(2j, j+m)) c^(j+m) s^(j-m) as a
    mantissa and a binary exponent, each factor rounded to a few ulps even
    where the value itself would underflow."""
    j_plus_m, j_minus_m = (tj + tm) // 2, (tj - tm) // 2
    binomial = math.comb(tj, j_plus_m)
    half_shift = max(0, binomial.bit_length() - 100) // 2
    mantissa, exponent = math.frexp(math.sqrt(binomial >> 2 * half_shift))
    exponent += half_shift
    for base, power in ((c, j_plus_m), (s, j_minus_m)):
        base_mantissa, base_exponent = math.frexp(base)
        exponent += base_exponent * power
        while power:  # base_mantissa >= 1/2, so 1000 steps stay above 2^-1001
            step = min(power, 1000)
            mantissa, e = math.frexp(mantissa * base_mantissa**step)
            exponent += e
            power -= step
    return (-mantissa if j_minus_m % 2 else mantissa), exponent


def _descend(tj: int, tm: int, c: float, s: float, count: int) -> list[float]:
    """d^j_{m',m} for m' = j, j-1, ... (`count` values), at a reduced angle
    with 0 < s = sin(beta/2) <= c = cos(beta/2).

    Starts from the edge m' = j and steps down with
    a_{m'} d_{m'+1} + a_{m'-1} d_{m'-1} = 2 (m - m' cos beta) / sin beta d_{m'},
    a_{m'} = sqrt((j+m'+1)(j-m')), where 2 (m - m' cos beta) / sin beta =
    (m - m' + 2 m' s^2) / (s c) has no cancellation at small s.
    """
    cur, scale = _edge(tj, tm, c, s)
    if scale >= _EXP_UNDERFLOW:
        cur, scale = math.ldexp(cur, scale), 0
    prev = 0.0
    two_s_sq = 2.0 * s * s
    inv_sc = 1.0 / (s * c)
    values, scales = [cur], [scale]
    a_above = 0.0  # a_{m'} for the current m'; a_j = 0
    for k in range(tj, tj + 1 - count, -1):  # k = j + m', stepping to m' - 1
        m_prime = k - 0.5 * tj
        x = (0.5 * tm - m_prime + m_prime * two_s_sq) * inv_sc
        while scale and abs(x * cur) > _FOLD_AT:
            shift = max(scale, _EXP_FOLD)
            cur, prev, scale = math.ldexp(cur, shift), math.ldexp(prev, shift), scale - shift
        a_below = math.sqrt(k * (tj - k + 1))
        prev, cur = cur, (x * cur - a_above * prev) / a_below
        a_above = a_below
        values.append(cur)
        scales.append(scale)
    if scales[0]:
        values = [math.ldexp(v, e) for v, e in zip(values, scales)]
    return values


def _d_column(tj: int, tm: int, beta: float) -> np.ndarray:
    """d^j_{m',m}(beta) for every m' = -j..j in ascending order, with
    j = tj/2 and m = tm/2 already checked.

    (cos, sin)(beta/2) are reduced to 0 <= s <= c by d(beta - 2 pi) =
    (-1)^(2j) d(beta), d_{m',m}(-beta) = (-1)^(m'-m) d_{m',m}(beta) and
    d_{m',m}(pi - beta) = (-1)^(j-m) d_{-m',m}(beta), so sin beta is small
    only near beta = 0, where s carries it to full relative precision; at
    beta = 0 the column is exactly the identity's. Above the meeting point
    the column descends from m' = j; below it, it is the mirror
    d_{m',m} = (-1)^(m'-m) d_{-m',-m} of the descent of column -m.
    """
    c, s = math.cos(0.5 * beta), math.sin(0.5 * beta)
    sign = (-1.0) ** tj if c < 0.0 else 1.0
    alternate = (c < 0.0) != (s < 0.0)
    c, s = abs(c), abs(s)
    mirror = s > c
    if mirror:
        c, s = s, c
        sign *= (-1.0) ** ((tj - tm) // 2)
    index_of_m = (tj + tm) // 2
    if s < 1e-300:  # beta/2 this close to a multiple of pi: the identity's column
        col = [0.0] * (tj + 1)
        col[index_of_m] = 1.0
    else:
        meet = min(max(round(0.5 * (tj + tm * (1.0 - 2.0 * s * s))), 1), tj)
        bottom = _descend(tj, -tm, c, s, meet) if meet else []
        col = [-v if (i - index_of_m) % 2 else v for i, v in enumerate(bottom)]
        col += reversed(_descend(tj, tm, c, s, tj + 1 - meet))
    if mirror:
        col.reverse()
    col = np.array(col)
    if alternate:
        col[(index_of_m + 1) % 2 :: 2] *= -1.0
    return sign * col


def wigner_small_d(
    j: HalfInteger | int | float,
    m_prime: HalfInteger | int | float,
    m: HalfInteger | int | float,
    beta: float,
) -> float:
    """Rotation matrix element d^j_{m',m}(beta) = <j m'| exp(-i beta J_y) |j m>,
    one element of the column d^j_{.,m}(beta).

    Satisfies d^j_{m',m}(beta) = d^j_{m,m'}(-beta).
    """
    tj = HalfInteger.of(j).twice_value
    tmp = HalfInteger.of(m_prime).twice_value
    tm = HalfInteger.of(m).twice_value
    if tj < 0:
        raise ValueError(f"j must be non-negative, got 2j={tj}")
    if not math.isfinite(beta):
        raise ValueError(f"rotation angle must be finite, got {beta!r}")
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
    return float(_d_column(tj, tm, beta)[(tj + tmp) // 2])


def wigner_d_matrix(j: HalfInteger | int | float, beta: float) -> np.ndarray:
    """Full (2j+1) x (2j+1) rotation matrix, rows/columns ordered by
    ascending m', m in {-j, ..., j}."""
    tj = HalfInteger.of(j).twice_value
    if tj < 0:
        raise ValueError(f"j must be non-negative, got j={j!r}")
    if not math.isfinite(beta):
        raise ValueError(f"rotation angle must be finite, got {beta!r}")
    return np.column_stack([_d_column(tj, tm, beta) for tm in range(-tj, tj + 1, 2)])
