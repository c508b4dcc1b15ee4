"""Beam-splitter evolution tests, cross-checked against a brute-force
matrix exponential of the two-mode hopping generator."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from photonamp.hp_model import (
    AmplitudeVector,
    HpEvolutionParams,
    TwoModeFockState,
    evolve_fock,
    ground_projection_probabilities,
    ground_projection_probability,
)


def hopping_propagator(total: int, tau: float) -> np.ndarray:
    """Oracle: exp(-i*tau*(b'a + ba')) on the fixed-total sector, built from
    raw ladder elements and scipy's dense expm. Basis index = n_e'."""
    dim = total + 1
    gen = np.zeros((dim, dim))
    for k in range(dim - 1):  # b'a: (n_e=k, n=total-k) -> (k+1, total-k-1)
        gen[k + 1, k] = math.sqrt((k + 1) * (total - k))
    gen = gen + gen.T
    return expm(-1j * tau * gen)


def no_phase_params(tau: float) -> HpEvolutionParams:
    return HpEvolutionParams(tau=tau, omega_over_g=0.0, omega0_over_g=0.0)


class TestStateAndParams:
    def test_state_validation(self):
        with pytest.raises(ValueError):
            TwoModeFockState(-1, 0)
        assert TwoModeFockState(3, 2).total_quanta == 5

    def test_detuned_params_rejected(self):
        with pytest.raises(ValueError, match="resonance"):
            HpEvolutionParams(tau=0.1, omega_over_g=1.0, omega0_over_g=1.2)

    def test_validity_warning(self):
        params = HpEvolutionParams(tau=0.1, N_atoms=100)
        with pytest.warns(UserWarning, match="O\\(quanta/N\\)"):
            evolve_fock(TwoModeFockState(2, 0), params)

    @pytest.mark.parametrize(
        "make,name",
        [
            (lambda: TwoModeFockState(2.5, 0), "n_e"),
            (lambda: TwoModeFockState(0, 1.5), "n"),
            (lambda: HpEvolutionParams(0.3, N_atoms=2.5), "N_atoms"),
            (lambda: ground_projection_probability(2.5, 1, 0.5), "n_e"),
            (lambda: ground_projection_probabilities(1, 0.5, np.array([0.5])), "n"),
        ],
        ids=["state-n_e", "state-n", "params-N_atoms", "closed-form", "closed-form-grid"],
    )
    def test_fractional_count_rejected(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            make()

    def test_amplitude_vector_requires_unit_norm(self):
        with pytest.raises(ValueError, match="normalized"):
            AmplitudeVector(total_quanta=1, amplitudes=np.array([0.5, 0.5]))

    def test_amplitude_vector_rejects_nan(self):
        with pytest.raises(ValueError, match="normalized"):
            AmplitudeVector(total_quanta=1, amplitudes=np.array([math.nan, 0.0]))

    @pytest.mark.parametrize(
        "make,name",
        [
            # equal infinities pass the resonance check and gave NaN amplitudes
            (lambda: evolve_fock(TwoModeFockState(2, 1), HpEvolutionParams(
                0.1, omega_over_g=math.inf, omega0_over_g=math.inf)), "omega_over_g"),
            (lambda: HpEvolutionParams(0.1, omega_over_g=1.0, omega0_over_g=math.nan),
             "omega0_over_g"),
            # NaN turned the validity warning off
            (lambda: HpEvolutionParams(0.1, validity_ratio=math.nan), "validity_ratio"),
        ],
        ids=["omega_over_g", "omega0_over_g", "validity_ratio"],
    )
    def test_non_finite_params_rejected(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            make()

    @pytest.mark.parametrize("tau", [1e308, -1.7e308])
    def test_overflowing_rotation_angle_names_tau(self, tau):
        with pytest.raises(ValueError, match="^tau must keep the rotation angle 2\\*tau finite"):
            evolve_fock(TwoModeFockState(2, 1), HpEvolutionParams(tau=tau))

    def test_overflowing_global_phase_names_tau(self):
        # 2 tau is finite, tau * N_atoms / 2 is not
        with pytest.raises(ValueError, match="^tau=1e\\+307 overflows the global phase"):
            evolve_fock(TwoModeFockState(2, 1), HpEvolutionParams(tau=1e307))


class TestEvolveFock:
    def test_identity_at_tau_zero(self):
        out = evolve_fock(TwoModeFockState(3, 0), HpEvolutionParams(tau=0.0))
        assert out.probability(3) == pytest.approx(1.0, abs=1e-14)
        assert out.probability(0) == 0.0

    def test_swap_at_quarter_period(self):
        for n_e, n in [(3, 0), (2, 5), (1, 1), (7, 4)]:
            out = evolve_fock(TwoModeFockState(n_e, n), HpEvolutionParams(tau=math.pi / 2))
            assert out.probability(n) == pytest.approx(1.0, abs=1e-12)

    def test_one_one_splits_evenly(self):
        out = evolve_fock(TwoModeFockState(1, 1), HpEvolutionParams(tau=math.pi / 4))
        assert out.probability(0) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "tau,n_e,n",
        [
            (tau, n_e, n)
            for tau in (0.37, math.pi / 4, 1.9)
            for n_e, n in ((1, 1), (3, 2), (0, 4), (5, 0), (4, 4))
        ]
        # sectors where the term sum cancels most of its digits
        + [(0.81, 80, 80), (0.6912, 80, 80), (0.8, 90, 90)],
    )
    def test_matches_expm_oracle(self, tau, n_e, n):
        total = n_e + n
        got = evolve_fock(TwoModeFockState(n_e, n), no_phase_params(tau)).amplitudes
        want = hopping_propagator(total, tau)[:, n_e]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_unit_norm_at_2j_4000(self):
        # single terms of the rotation sum exceed the float64 range here
        out = evolve_fock(TwoModeFockState(2000, 2000), HpEvolutionParams(tau=0.7))
        assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("tau", [0.7, 0.025])
    def test_2j_4000_keeps_no_quadratic_memory(self, tau):
        # at tau = 0.025 both edges of the column lie far below the float64 range
        tracemalloc.start()
        try:
            out = evolve_fock(TwoModeFockState(1000, 3000), HpEvolutionParams(tau=tau))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)
        assert held < 2**20 and peak < 4 * 2**20

    @given(
        n_e=st.integers(0, 12),
        n=st.integers(0, 12),
        tau=st.floats(min_value=-6.0, max_value=6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_norm_and_total_conserved(self, n_e, n, tau):
        out = evolve_fock(TwoModeFockState(n_e, n), HpEvolutionParams(tau=tau))
        assert out.total_quanta == n_e + n
        assert np.sum(np.abs(out.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-10)


class TestGroundProjectionProbability:
    def test_dark_input_peak(self):
        assert ground_projection_probability(7, 0, math.pi / 2) == 1.0

    def test_bright_input_vanishes_at_quarter_period(self):
        assert ground_projection_probability(4, 2, math.pi / 2) == pytest.approx(0.0, abs=1e-30)

    def test_one_one_half(self):
        assert ground_projection_probability(1, 1, math.pi / 4) == pytest.approx(0.5, abs=1e-14)

    def test_zero_exponent_conventions(self):
        # n = 0 leaves pure sin^(2 n_e); n_e = 0 leaves pure cos^(2n)
        tau = 0.7
        assert ground_projection_probability(3, 0, tau) == pytest.approx(
            math.sin(tau) ** 6, rel=1e-12
        )
        assert ground_projection_probability(0, 3, tau) == pytest.approx(
            math.cos(tau) ** 6, rel=1e-12
        )
        assert ground_projection_probability(0, 0, tau) == 1.0

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau"):
            ground_projection_probability(2, 3, tau)
        with pytest.raises(ValueError, match="tau"):
            ground_projection_probabilities(2, 3, np.array([0.1, tau]))

    def test_grid_version_matches_scalar(self):
        tau = np.linspace(0.0, math.pi, 97)
        grid = ground_projection_probabilities(6, 3, tau)
        scalar = [ground_projection_probability(6, 3, t) for t in tau]
        np.testing.assert_allclose(grid, scalar, atol=1e-15)

    @given(
        n_e=st.integers(0, 15),
        n=st.integers(0, 15),
        tau=st.floats(min_value=0.0, max_value=math.pi),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_projected_amplitude(self, n_e, n, tau):
        closed = ground_projection_probability(n_e, n, tau)
        amp = evolve_fock(TwoModeFockState(n_e, n), HpEvolutionParams(tau=tau))
        assert closed == pytest.approx(amp.probability(0), abs=1e-10)
        assert 0.0 <= closed <= 1.0

    @given(
        n_e=st.integers(0, 10),
        n=st.integers(0, 10),
        tau=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_periodicity(self, n_e, n, tau):
        assert ground_projection_probability(n_e, n, tau) == pytest.approx(
            ground_projection_probability(n_e, n, tau + math.pi), abs=1e-12
        )

    @pytest.mark.parametrize("n_e,n", [(1, 1), (10, 5), (25, 10), (3, 8)])
    def test_two_symmetric_peaks_for_bright_input(self, n_e, n):
        tau = np.linspace(0.0, math.pi, 4001)
        p = ground_projection_probabilities(n_e, n, tau)
        interior = (p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])
        peaks = tau[1:-1][interior]
        assert len(peaks) == 2
        assert peaks[0] + peaks[1] == pytest.approx(math.pi, abs=1e-9)

    def test_no_warning_in_default_validity_regime(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evolve_fock(TwoModeFockState(5, 5), HpEvolutionParams(tau=1.0))
