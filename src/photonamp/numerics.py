"""Overflow-safe special functions used by every probability formula.

Provides:
  * log_factorial / log_binomial: ln(k!) and ln(n choose k) via lgamma.
  * _require_whole / _require_finite / _twice / _require_twice_j: the
    argument checks of the public entry points, raising a ValueError that
    names the argument; _twice also rejects a label whose double does not
    convert to a float, and _require_twice_j a rotation with 2j above
    MAX_TWICE_J (10**5); wigner_d_matrix also rejects 2j above
    MAX_MATRIX_TWICE_J (2000).
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
import sys
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

    def __post_init__(self) -> None:
        if not isinstance(self.twice_value, (int, np.integer)):
            raise ValueError(f"twice_value must be an int, got {self.twice_value!r}")

    @classmethod
    def of(cls, x: "HalfInteger | int | float") -> "HalfInteger":
        """Coerce an int, an exact multiple of 1/2, or a HalfInteger."""
        return cls(*_twice(x=x))

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


def _require_whole(**counts) -> tuple[int, ...]:
    """The counts as ints, in order; raises a ValueError naming the first
    count that is not a whole number (whole-valued floats pass, NaN and
    +-inf do not) or is below 1 for N_atoms, 0 for any other count."""
    for name, value in counts.items():
        if not (isinstance(value, (int, np.integer)) or float(value).is_integer()):
            raise ValueError(f"{name} must be a whole number, got {value!r}")
        if value < (name == "N_atoms"):
            least = "positive" if name == "N_atoms" else "non-negative"
            raise ValueError(f"{name} must be {least}, got {value!r}")
    return tuple(map(int, counts.values()))


def _require_finite(**values) -> None:
    """Raises a ValueError naming the first real scalar, or array such as a
    tau grid, that is not finite (at every point)."""
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite at every point")
        elif not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _twice(**labels) -> tuple[int, ...]:
    """Twice each angular-momentum label (a HalfInteger, int or float) as an
    int, in order; raises a ValueError naming the first label that is not a
    multiple of 1/2 (NaN and +-inf are not) or whose double does not
    convert to a float."""
    twices = []
    for name, x in labels.items():
        if isinstance(x, HalfInteger):
            twice = x.twice_value
        elif isinstance(x, (int, np.integer)):
            twice = 2 * int(x)
        elif float(x) % 0.5 == 0.0:  # exact; NaN and +-inf fail
            twice = 2.0 * float(x)
        else:
            raise ValueError(f"{name} must be an integer or half-integer, got {x!r}")
        if not abs(twice) <= sys.float_info.max:  # an int compares exactly; inf fails
            raise _too_large(name, f"2{name} {_FLOAT_RANGE}")
        twices.append(int(twice))
    return tuple(twices)


# the limit of a count that overflows as a float, rather than as a log-factorial
_FLOAT_RANGE = "converts to a float (about 1.8e308 at most)"

# Largest 2j (n_e + n for a two-mode state) whose rotation columns are built:
# a column takes O(2j) time and memory, 0.48 s at 2j = 10**5 and 23 s at
# 10**6 on a 2-vCPU Xeon, and past sys.maxsize it cannot be allocated at all.
MAX_TWICE_J = 10**5
# Largest 2j of a whole rotation matrix: its 2j + 1 columns make (2j+1)^2
# floats, 0.10 s / 1.9 MB at 2j = 500, 0.45 s / 7.6 MB at 1000 and
# 2.0 s / 31 MB at 2000 on a 2-vCPU Xeon; at MAX_TWICE_J it would be 80 GB.
MAX_MATRIX_TWICE_J = 2000


def _require_twice_j(tj: int, name: str = "j", total: str = "2j") -> None:
    """Raises a ValueError naming `name` unless 0 <= tj <= MAX_TWICE_J;
    tj is twice a rotation's j, which the message calls `total` ("2j", or
    "n_e + n" for a two-mode state)."""
    if tj < 0:
        raise ValueError(f"{name} must be non-negative, got {total} = {tj}")
    if tj > MAX_TWICE_J:
        raise _too_large(name, f"{total} is at most {MAX_TWICE_J}, got {total} = {tj}")


def _too_large(
    name: str, limit: str = "the log-factorial stays finite (about 2.56e305 at most)"
) -> ValueError:
    """For a count that overflowed where it was used (lgamma, float() or
    float arithmetic), so valid calls pay no check."""
    return ValueError(f"{name} must be small enough that {limit}")


def log_factorial(k: int) -> float:
    """ln(k!) for whole k >= 0."""
    (k,) = _require_whole(k=k)
    try:
        return math.lgamma(k + 1)
    except OverflowError:
        raise _too_large("k") from None


def log_binomial(n: int, k: int) -> float:
    """ln(n choose k) for whole 0 <= k <= n."""
    # checked inline first: the closed forms call this on every evaluation
    try:
        if 0 <= k <= n and float(n).is_integer() and float(k).is_integer():
            return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    except OverflowError:  # n >= k, so n is the count that overflowed
        raise _too_large("n") from None
    n, k = _require_whole(n=n, k=k)  # names a count that is not one
    raise ValueError(f"k must not exceed n, got n={n}, k={k}")


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
    tj, tmp, tm = _twice(j=j, m_prime=m_prime, m=m)
    _require_twice_j(tj)
    _require_finite(beta=beta)
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
    ascending m', m in {-j, ..., j}; 2j is at most MAX_MATRIX_TWICE_J."""
    (tj,) = _twice(j=j)
    _require_twice_j(tj)
    if tj > MAX_MATRIX_TWICE_J:
        raise _too_large("j", f"2j is at most {MAX_MATRIX_TWICE_J} for a whole matrix, "
                              f"got 2j = {tj}")
    _require_finite(beta=beta)
    return np.column_stack([_d_column(tj, tm, beta) for tm in range(-tj, tj + 1, 2)])
