"""Finite-N sector solver tests: hand-checked matrix elements, dense expm
cross-checks, conservation and symmetry properties, and convergence of the
exact probabilities toward the closed binomial form."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from photonamp.exact_model import (
    SectorBasis,
    build_sector,
    eigensystem,
    exact_projection_probability,
    hp_deviation,
)
from photonamp.hp_model import ground_projection_probabilities

TAU_256 = np.linspace(0.0, math.pi, 256)

# measured once on the 256-point grid and frozen as a regression baseline
DEV_3_2_N4000 = 7.1826e-4


class TestBasisAndBuild:
    def test_basis_states_and_dim(self):
        basis = SectorBasis(N_atoms=4, total_excitation=2)
        assert basis.states == ((0, 2), (1, 1), (2, 0))
        assert basis.dim == 3

    def test_dim_clipped_by_atom_number(self):
        basis = SectorBasis(N_atoms=2, total_excitation=5)
        assert basis.dim == 3
        assert basis.states[-1] == (2, 3)

    def test_index_of_rejects_foreign_state(self):
        basis = SectorBasis(N_atoms=4, total_excitation=2)
        with pytest.raises(ValueError):
            basis.index_of(1, 2)

    def test_single_atom_single_excitation(self):
        # a lone two-level atom: the one-excitation block couples at g
        h = build_sector(1, 1, omega=1.0, omega0=1.0, g=1.0)
        assert h.off_diagonal[0] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(h.diagonal, [0.5, 0.5])

    def test_vacuum_sector_is_one_by_one(self):
        h = build_sector(37, 0)
        assert h.basis.dim == 1
        assert h.off_diagonal.size == 0

    def test_two_atom_coupling_element(self):
        # collective raising from the ground pair: sqrt(1*(2-0)*(0+1)/2) = 1
        h = build_sector(2, 1, omega=1.0, omega0=1.0, g=1.0)
        assert h.off_diagonal[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["omega", "omega0", "g"])
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build_sector(10, 3, **{name: value})

    def test_arrays_frozen(self):
        h = build_sector(5, 3)
        with pytest.raises(ValueError):
            h.diagonal[0] = 99.0


class TestExactEvolution:
    def test_no_evolution_at_tau_zero(self):
        h = build_sector(10, 4)
        assert exact_projection_probability(h, (3, 1), np.array([0.0])).values[0] == (
            pytest.approx(0.0, abs=1e-30)
        )
        assert exact_projection_probability(h, (0, 4), np.array([0.0])).values[0] == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_single_atom_rabi_oscillation(self):
        h = build_sector(1, 1)
        trace = exact_projection_probability(h, (1, 0), TAU_256)
        np.testing.assert_allclose(trace.values, np.sin(TAU_256) ** 2, atol=1e-10)

    def test_initial_state_outside_sector_rejected(self):
        h = build_sector(10, 4)
        with pytest.raises(ValueError):
            exact_projection_probability(h, (2, 1), TAU_256)

    def test_scaled_time_uses_physical_time(self):
        # doubling g halves the physical time for the same scaled time
        tau = np.linspace(0.0, 2.0, 40)
        slow = exact_projection_probability(build_sector(50, 3, g=1.0), (2, 1), tau)
        fast = exact_projection_probability(build_sector(50, 3, g=2.0), (2, 1), tau)
        np.testing.assert_allclose(slow.values, fast.values, atol=1e-9)

    @pytest.mark.parametrize("N,E", [(1, 1), (6, 3), (40, 5), (7, 9)])
    def test_matches_dense_expm(self, N, E):
        h = build_sector(N, E, omega=1.3, omega0=0.9, g=0.7)
        dense = h.dense()
        init = min(2, h.basis.dim - 1)
        taus = np.array([0.4, 1.1, 2.7])
        trace = exact_projection_probability(h, h.basis.states[init], taus)
        for i, tau in enumerate(taus):
            u = expm(-1j * dense * tau / h.g)
            assert trace.values[i] == pytest.approx(abs(u[0, init]) ** 2, abs=1e-9)

    def test_detuned_matches_dense_expm(self):
        h = build_sector(20, 2, omega=2.0, omega0=1.5, g=1.0)
        taus = np.linspace(0.0, 3.0, 50)
        trace = exact_projection_probability(h, (2, 0), taus)
        u_vals = [abs(expm(-1j * h.dense() * t)[0, 2]) ** 2 for t in taus]
        np.testing.assert_allclose(trace.values, u_vals, atol=1e-9)

    def test_eigensystem_orthogonal_and_real(self):
        h = build_sector(100, 8)
        w, v = eigensystem(h)
        assert w.dtype.kind == "f"
        np.testing.assert_allclose(v @ v.T, np.eye(h.basis.dim), atol=1e-9)

    def test_time_reversal_symmetry(self):
        h = build_sector(30, 5)
        forward = np.linspace(0.1, 3.0, 37)
        backward = -forward[::-1]
        p_fwd = exact_projection_probability(h, (4, 1), forward).values
        p_bwd = exact_projection_probability(h, (4, 1), backward).values
        np.testing.assert_allclose(p_fwd, p_bwd[::-1], atol=1e-10)

    @given(
        N=st.integers(1, 60),
        E=st.integers(0, 8),
        i=st.integers(0, 8),
        tau=st.floats(0.0, 6.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_excitation_conserved_unit_norm(self, N, E, i, tau):
        h = build_sector(N, E)
        w, v = eigensystem(h)
        init = min(i, h.basis.dim - 1)
        amps = v @ (np.exp(-1j * w * tau) * v[init, :])
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-9)


class TestHpDeviation:
    def test_single_atom_exact_coincidence(self):
        assert hp_deviation(1, 1, 0, TAU_256) <= 1e-10

    def test_deviation_shrinks_with_atom_number(self):
        # every sector with up to six quanta
        for total in range(0, 7):
            for n_e in range(total + 1):
                devs = [
                    hp_deviation(N, n_e, total - n_e, TAU_256)
                    for N in (500, 1000, 2000, 4000)
                ]
                for a, b in zip(devs, devs[1:]):
                    # allow exact ties at the rounding floor (sectors with
                    # n_e + n <= 1 are beam-splitter-exact for every N)
                    assert b <= a + 1e-12, (n_e, total - n_e, devs)

    def test_low_excitation_sectors_sit_at_rounding_floor(self):
        for N in (500, 4000):
            assert hp_deviation(N, 1, 0, TAU_256) < 1e-12
            assert hp_deviation(N, 0, 1, TAU_256) < 1e-12

    def test_regression_baseline_three_two(self):
        dev = hp_deviation(4000, 3, 2, TAU_256)
        assert dev <= 0.02
        assert dev == pytest.approx(DEV_3_2_N4000, rel=0.05)

    def test_agreement_tracks_closed_form_everywhere(self):
        h = build_sector(4000, 5)
        exact = exact_projection_probability(h, (3, 2), TAU_256).values
        closed = ground_projection_probabilities(3, 2, TAU_256)
        assert np.max(np.abs(exact - closed)) <= 0.02
