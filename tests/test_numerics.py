"""Special-function tests: log-factorials, half-integer labels, and the
rotation kernel checked against independent matrix-exponential and
high-precision term-sum oracles."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonamp import numerics
from photonamp.numerics import (
    MAX_MATRIX_TWICE_J,
    MAX_TWICE_J,
    HalfInteger,
    log_binomial,
    log_factorial,
    wigner_d_matrix,
    wigner_small_d,
)


def spin_matrix_exponential(twice_j: int, beta: float) -> np.ndarray:
    """Independent oracle: exp(-i*beta*J_y) in the spin-j representation via
    dense Hermitian eigen-decomposition; real for this generator."""
    dim = twice_j + 1
    j = twice_j / 2.0
    m = np.arange(dim) - j
    j_plus = np.zeros((dim, dim))
    for i in range(dim - 1):
        j_plus[i + 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    j_y = (j_plus - j_plus.T) / 2j
    w, v = np.linalg.eigh(j_y)
    return (v @ np.diag(np.exp(-1j * beta * w)) @ v.conj().T).real


def mpmath_column(twice_j: int, twice_m: int, beta: float, twice_mps=None) -> list[float]:
    """Independent oracle: the alternating term sum for d^j_{m',m}(beta) at
    each requested m' (default: every m' ascending), with exact integer
    factorials, in at least 400 significant digits and 50 beyond the 2j
    digits the sum may cancel (its gross term magnitude stays below
    10^(2j))."""
    j_plus_m, j_minus_m = (twice_j + twice_m) // 2, (twice_j - twice_m) // 2
    if twice_mps is None:
        twice_mps = range(-twice_j, twice_j + 1, 2)
    with mpmath.workdps(max(400, 50 + twice_j)):
        c = mpmath.cos(mpmath.mpf(beta) / 2)
        s = mpmath.sin(mpmath.mpf(beta) / 2)
        fact = [mpmath.mpf(math.factorial(i)) for i in range(twice_j + 1)]
        c_pow, s_pow = [mpmath.mpf(1)], [mpmath.mpf(1)]
        for _ in range(twice_j):
            c_pow.append(c_pow[-1] * c)
            s_pow.append(s_pow[-1] * s)
        out = []
        for twice_mp in twice_mps:
            j_plus_mp, j_minus_mp = (twice_j + twice_mp) // 2, (twice_j - twice_mp) // 2
            m_minus_mp = (twice_m - twice_mp) // 2
            total = mpmath.mpf(0)
            for k in range(max(0, m_minus_mp), min(j_plus_m, j_minus_mp) + 1):
                term = (
                    c_pow[twice_j - 2 * k + m_minus_mp]
                    * s_pow[2 * k - m_minus_mp]
                    / (fact[j_plus_m - k] * fact[k] * fact[j_minus_mp - k] * fact[k - m_minus_mp])
                )
                total += -term if (k - m_minus_mp) % 2 else term
            scale = mpmath.sqrt(fact[j_plus_m] * fact[j_minus_m] * fact[j_plus_mp] * fact[j_minus_mp])
            out.append(float(scale * total))
        return out


def mpmath_small_d(twice_j: int, twice_mp: int, twice_m: int, beta: float) -> float:
    return mpmath_column(twice_j, twice_m, beta, [twice_mp])[0]


class TestLogFactorial:
    def test_base_cases(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0

    def test_ten(self):
        # 10! = 3628800 exactly
        assert log_factorial(10) == pytest.approx(math.log(3628800), rel=1e-15)

    @pytest.mark.parametrize("k", [2, 7, 50, 300, 2000, 10**5, 10**6])
    def test_against_summed_logs(self, k):
        # independent route: exactly-rounded sum of ln(i)
        expected = math.fsum(math.log(i) for i in range(2, k + 1))
        assert log_factorial(k) == pytest.approx(expected, rel=1e-13)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_factorial(-1)


class TestLogBinomial:
    @pytest.mark.parametrize("n,k", [(0, 0), (5, 2), (30, 15), (100, 3), (60, 60)])
    def test_against_exact_comb(self, n, k):
        assert log_binomial(n, k) == pytest.approx(math.log(math.comb(n, k)), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_binomial(3, 4)
        with pytest.raises(ValueError):
            log_binomial(3, -1)


class TestHalfInteger:
    def test_of_int_and_half(self):
        assert HalfInteger.of(3).twice_value == 6
        assert HalfInteger.of(2.5).twice_value == 5
        assert HalfInteger.of(HalfInteger(7)).twice_value == 7

    def test_of_rejects_quarter(self):
        with pytest.raises(ValueError):
            HalfInteger.of(0.3)

    @pytest.mark.parametrize("x", [1e308, -1e308, 10**400, HalfInteger(2 * 10**400)],
                             ids=["1e308", "-1e308", "10**400", "HalfInteger(2*10**400)"])
    def test_of_rejects_a_double_past_the_float_range(self, x):
        with pytest.raises(ValueError, match="^x must be small enough that 2x converts to a float"):
            HalfInteger.of(x)

    def test_value_and_str(self):
        assert HalfInteger(5).value == 2.5
        assert str(HalfInteger(5)) == "5/2"
        assert str(HalfInteger(6)) == "3"
        assert float(-HalfInteger(5)) == -2.5


class TestWignerSmallD:
    def test_identity_rotation(self):
        assert wigner_small_d(5, 3, 3, 0.0) == 1.0
        assert wigner_small_d(5, 2, 3, 0.0) == 0.0

    def test_spin_half_diagonal_is_half_angle_cosine(self):
        for beta in np.linspace(-7.0, 7.0, 23):
            assert wigner_small_d(0.5, 0.5, 0.5, beta) == pytest.approx(
                math.cos(beta / 2), abs=1e-15
            )

    def test_spin_one_corner_at_pi(self):
        # lone surviving term is sin^2(beta/2) -> 1 at beta = pi
        assert wigner_small_d(1, -1, 1, math.pi) == pytest.approx(1.0, abs=1e-15)
        oracle = spin_matrix_exponential(2, math.pi)
        assert wigner_small_d(1, -1, 1, math.pi) == pytest.approx(oracle[0, 2], abs=1e-12)

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            wigner_small_d(1, 2, 0, 0.3)  # |m'| > j
        with pytest.raises(ValueError):
            wigner_small_d(1.5, 1, 0.5, 0.3)  # parity mismatch: j - m' not integer
        with pytest.raises(ValueError):
            wigner_small_d(1, 0, 0, math.inf)

    @pytest.mark.parametrize("j", [1e308, 10**400, HalfInteger(2 * 10**400)],
                             ids=["1e308", "10**400", "HalfInteger(2*10**400)"])
    def test_huge_j_is_named_for_its_float_range(self, j):
        # 2j = inf used to read as "not an integer or half-integer"
        for call in (lambda: wigner_small_d(j, 0, 0, 0.1), lambda: wigner_d_matrix(j, 0.1)):
            with pytest.raises(ValueError, match="^j must be small enough that 2j converts to a float"):
                call()

    @pytest.mark.parametrize("j", [MAX_TWICE_J / 2 + 0.5, 10**20],
                             ids=["2j=cap+1", "10**20"])
    def test_j_past_the_cap_is_named(self, j):
        # at beta = 0 the identity's column of 2j + 1 zeros used to be built,
        # and past sys.maxsize raised a bare OverflowError
        assert wigner_small_d(MAX_TWICE_J // 2, 7, 7, 0.0) == 1.0  # 2j at the cap
        for call in (lambda: wigner_small_d(j, j, j, 0.0),
                     lambda: wigner_d_matrix(j, 0.0)):
            with pytest.raises(ValueError, match=f"^j must be small enough that 2j is at "
                                                 f"most {MAX_TWICE_J}, got 2j = "):
                call()

    def test_matrix_past_its_bound_is_named_before_any_column(self, monkeypatch):
        # a (2j+1)-square matrix at the column cap would take 80 GB
        assert MAX_MATRIX_TWICE_J >= 1000
        inside = wigner_d_matrix(MAX_MATRIX_TWICE_J / 2, 0.0)
        assert inside.shape == (MAX_MATRIX_TWICE_J + 1,) * 2
        assert np.array_equal(inside, np.eye(MAX_MATRIX_TWICE_J + 1))

        def no_column(*args):
            raise AssertionError("built a column past the matrix bound")

        monkeypatch.setattr(numerics, "_d_column", no_column)
        for j in (MAX_MATRIX_TWICE_J / 2 + 0.5, MAX_TWICE_J // 2):
            with pytest.raises(ValueError, match=f"^j must be small enough that 2j is at most "
                                                 f"{MAX_MATRIX_TWICE_J} for a whole matrix, "
                                                 f"got 2j = {int(2 * j)}$"):
                wigner_d_matrix(j, 0.3)

    @pytest.mark.parametrize("twice_j", [0, 1, 2, 5, 9, 12])
    def test_matches_matrix_exponential(self, twice_j):
        for beta in (0.31, 1.414, 2.9, 4.2):
            got = wigner_d_matrix(twice_j / 2, beta)
            want = spin_matrix_exponential(twice_j, beta)
            np.testing.assert_allclose(got, want, atol=1e-11)

    def test_high_j_row_unitarity(self):
        for beta in (0.9, 1.414, 2.4):
            mat = wigner_d_matrix(25, beta)
            np.testing.assert_allclose((mat**2).sum(axis=0), 1.0, atol=1e-10)

    @pytest.mark.parametrize(
        "twice_j,twice_mp,twice_m,beta",
        [
            (171, 31, -17, 1.3),
            (171, -101, 45, 2.7),
            (200, 0, 40, 2.1),
            (200, 150, 150, 0.6),
            (400, 100, -60, 0.9),
            (400, 0, 0, 1.7),
            # a float64 term sum misses these by 5.8e-13, 1.5e-13 and 2.5e-12
            (50, 42, 10, 1.4),
            (100, -92, 0, 1.4),
            (400, -392, 0, 1.4),
        ],
    )
    def test_large_j_matches_high_precision_sum(self, twice_j, twice_mp, twice_m, beta):
        j, m_prime, m = (HalfInteger(t) for t in (twice_j, twice_mp, twice_m))
        got = wigner_small_d(j, m_prime, m, beta)
        assert got == pytest.approx(mpmath_small_d(twice_j, twice_mp, twice_m, beta), abs=5e-14)

    @pytest.mark.parametrize(
        "twice_j,twice_m,beta",
        [
            (22, 2, 1.4),
            (22, 0, 1.7),
            (22, 2, 0.05),
            (50, 10, 1.4),
            (50, 0, 0.05),
            (400, 0, 1.4),
            (400, 0, 0.05),
        ],
    )
    def test_column_matches_high_precision_sum(self, twice_j, twice_m, beta):
        # relative accuracy in the tails too, which fall far below 1e-100
        got = wigner_d_matrix(HalfInteger(twice_j), beta)[:, (twice_j + twice_m) // 2]
        assert got == pytest.approx(mpmath_column(twice_j, twice_m, beta), abs=1e-13, rel=1e-12)

    @pytest.mark.parametrize(
        "beta",
        [0.0, math.pi, 2 * math.pi, -math.pi, -0.8, 7.5, -13.0, 1e-12, -1e-12,
         math.pi - 1e-12, math.pi + 1e-12],
    )
    def test_special_angles_match_high_precision_sum(self, beta):
        for twice_j in (7, 12):
            got = wigner_d_matrix(twice_j / 2, beta)
            want = [mpmath_column(twice_j, twice_m, beta) for twice_m in range(-twice_j, twice_j + 1, 2)]
            np.testing.assert_allclose(got, np.transpose(want), rtol=0.0, atol=2e-15)
            np.testing.assert_allclose(got, wigner_d_matrix(twice_j / 2, -beta).T, rtol=0.0, atol=2e-15)

    def test_identity_is_exact_at_large_j(self):
        for beta in (0.0, -0.0):
            assert np.array_equal(wigner_d_matrix(HalfInteger(401), beta), np.eye(402))

    @pytest.mark.parametrize("j", [-0.5, -1])
    def test_matrix_rejects_negative_j(self, j):
        with pytest.raises(ValueError, match="j must be non-negative"):
            wigner_d_matrix(j, 0.3)

    def test_orthogonal_above_2j_170(self):
        mat = wigner_d_matrix(HalfInteger(180), 1.4)
        assert np.abs(mat @ mat.T - np.eye(181)).max() <= 1e-10

    @given(
        twice_j=st.integers(min_value=0, max_value=20),
        beta=st.floats(min_value=-10.0, max_value=10.0),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_under_index_swap(self, twice_j, beta, data):
        twice_mp = data.draw(
            st.integers(-twice_j, twice_j).filter(lambda t: (twice_j - t) % 2 == 0)
        )
        twice_m = data.draw(
            st.integers(-twice_j, twice_j).filter(lambda t: (twice_j - t) % 2 == 0)
        )
        j = HalfInteger(twice_j)
        forward = wigner_small_d(j, HalfInteger(twice_mp), HalfInteger(twice_m), beta)
        swapped = wigner_small_d(j, HalfInteger(twice_m), HalfInteger(twice_mp), -beta)
        assert forward == pytest.approx(swapped, abs=1e-12)
        assert abs(forward) <= 1.0 + 1e-12

    @given(
        twice_j=st.integers(min_value=0, max_value=16),
        beta=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_unitarity_property(self, twice_j, beta):
        mat = wigner_d_matrix(twice_j / 2, beta)
        np.testing.assert_allclose((mat**2).sum(axis=0), 1.0, atol=1e-10)
