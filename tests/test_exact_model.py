"""Finite-N sector solver tests: hand-checked matrix elements, dense expm
cross-checks, conservation and symmetry properties, and convergence of the
exact probabilities toward the closed binomial form."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal, expm, lapack
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply

from photonamp import exact_model
from photonamp.exact_model import (
    SectorBasis,
    SectorHamiltonian,
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

    @pytest.mark.parametrize(
        "make,name",
        [
            (lambda: build_sector(10.5, 3), "N_atoms"),
            (lambda: build_sector(10, 3.5), "E"),
            (lambda: SectorBasis(N_atoms=4, total_excitation=2.5), "total_excitation"),
            (lambda: exact_projection_probability(build_sector(10, 3), (2.5, 0.5), TAU_256), "n_e"),
        ],
        ids=["N_atoms", "E", "basis", "initial-state"],
    )
    def test_fractional_count_rejected(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            make()

    def test_whole_valued_float_counts(self):
        h, want = build_sector(10.0, 3.0), build_sector(10, 3)
        assert h.basis.states == want.basis.states
        np.testing.assert_array_equal(h.diagonal, want.diagonal)
        np.testing.assert_array_equal(h.off_diagonal, want.off_diagonal)

    def test_arrays_frozen(self):
        h = build_sector(5, 3)
        with pytest.raises(ValueError):
            h.diagonal[0] = 99.0

    @pytest.mark.parametrize(
        "field,value,message",
        [
            # g = inf used to give the tau = 0 value at every tau
            ("g", math.inf, "g must be finite"),
            ("g", -1.0, "g must be positive"),
            ("omega0", math.nan, "omega0 must be finite"),
            # a NaN diagonal used to fail inside scipy, naming no field
            ("diagonal", np.array([0.0, math.nan, 0.0, 0.0]), "diagonal must be finite"),
            ("off_diagonal", np.array([1.0, math.inf, 1.0]), "off_diagonal must be finite"),
        ],
    )
    def test_hand_built_block_checks_its_fields(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            replace(build_sector(5, 3), **{field: value})


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

    @pytest.mark.parametrize("E", [5, 600], ids=["dense", "twisted"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_grid_rejected_before_any_solve(self, monkeypatch, E, bad):
        def no_solve(*args):
            raise AssertionError("solved a block for a non-finite tau grid")

        for name in ("eigensystem", "_twisted_weights", "_positive_half"):
            monkeypatch.setattr(exact_model, name, no_solve)
        with pytest.raises(ValueError, match="^tau_grid must be finite at every point"):
            exact_projection_probability(build_sector(1000, E), (3, E - 3), np.array([0.0, bad]))

    @pytest.mark.parametrize("tau_max", [1e300, 1e12])
    def test_phase_error_past_tolerance_names_tau_grid(self, tau_max):
        # eps * |H| * tau/g: 1e300 used to return 0.130 without complaint
        with pytest.raises(ValueError, match="^tau_grid must keep the phase error bound"):
            exact_projection_probability(build_sector(1000, 5), (3, 2), np.array([0.0, tau_max]))

    def test_phase_error_bound_leaves_room_for_long_grids(self):
        # E = 3000 at tau = pi has a bound of about 2e-12, far inside 1e-8
        h = build_sector(10**5, 3000)
        assert exact_projection_probability(h, (1500, 1500), np.array([0.0, math.pi])).values.size == 2
        exact_projection_probability(build_sector(1000, 5), (3, 2), np.array([0.0, 1e5]))

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

    @pytest.mark.parametrize("N,E", [(10**6, 5), (10**8, 6)])
    def test_large_N_matches_dense_expm_of_centred_block(self, N, E):
        # the mean diagonal, about -N/2, is a global phase; eigenvalues shifted
        # back by it are rounded to the spacing of floats near N/2
        h = build_sector(N, E)
        centred = h.dense() - np.mean(h.diagonal) * np.eye(h.basis.dim)
        taus = np.linspace(0.3, 3.0, 9)
        for init, state in enumerate(h.basis.states):
            trace = exact_projection_probability(h, state, taus)
            want = [abs(expm(-1j * centred * t)[0, init]) ** 2 for t in taus]
            np.testing.assert_allclose(trace.values, want, rtol=0, atol=1e-13)

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


def _zero_diagonal_block() -> SectorHamiltonian:
    # odd dimension: the lambda = 0 eigenvector vanishes at every odd index,
    # so one of the two candidate twists sits on a zero of it
    h = build_sector(10**6, 600)
    return SectorHamiltonian(h.basis, np.zeros(h.basis.dim), h.off_diagonal, 1.0, 1.0, 1.0)


# blocks of dimension 451 to 651, around the dense/twisted cutoff of 512
AROUND_CUTOFF = {
    "detuned": lambda: build_sector(4000, 600, omega=1.3, omega0=0.7, g=0.5),
    "strongly-detuned": lambda: build_sector(10**6, 450, omega=5.0, omega0=0.2, g=0.1),
    "E>N": lambda: build_sector(650, 900, omega=1.3, omega0=0.7, g=0.5),
    "zero-diagonal": _zero_diagonal_block,
}
TAU_16 = np.linspace(0.0, 3.0, 16)


def _indices(h):
    # dim // 2 + 1 is one past the deepest site of every eigenvalue of the
    # zero-diagonal block, where its odd eigenvectors take their twist
    return [0, 1, 3, h.basis.dim // 2, h.basis.dim // 2 + 1, h.basis.dim - 1]


def both_paths(monkeypatch, h, i, tau, falls_back=False):
    """Probabilities from the dense eigenvectors and from the twisted
    factorizations, each forced through the cutoff; `falls_back` says
    whether the twisted call must end on the dense path."""
    calls = []
    dense = exact_model.eigensystem
    monkeypatch.setattr(exact_model, "eigensystem", lambda block: calls.append(1) or dense(block))
    out = []
    for cutoff in (h.basis.dim, 0):
        monkeypatch.setattr(exact_model, "_DENSE_MAX_DIM", cutoff)
        out.append(exact_projection_probability(h, h.basis.states[i], tau).values)
    assert len(calls) == (2 if falls_back else 1)
    return out


class TestTwistedWeights:
    @pytest.mark.parametrize("block", AROUND_CUTOFF)
    def test_paths_agree(self, monkeypatch, block):
        h = AROUND_CUTOFF[block]()
        for i in _indices(h):
            dense, twisted = both_paths(monkeypatch, h, i, TAU_16)
            np.testing.assert_allclose(twisted, dense, rtol=0, atol=1e-11, err_msg=f"i={i}")

    def test_twist_one_past_the_initial_index(self, monkeypatch):
        # at resonance the centred diagonal is zero, so every eigenvalue's
        # deepest site is 500, and the odd eigenvectors, zero there, twist
        # at 501: the initial index i = 501 must then be read from the
        # bottom-up pass
        h = build_sector(10**6, 1000)
        for i in (499, 500, 501, 502):
            dense, twisted = both_paths(monkeypatch, h, i, TAU_16)
            np.testing.assert_allclose(twisted, dense, rtol=0, atol=1e-11, err_msg=f"i={i}")

    @pytest.mark.parametrize("block", ["detuned", "E>N", "zero-diagonal"])
    def test_paths_match_expm_multiply(self, monkeypatch, block):
        h = AROUND_CUTOFF[block]()
        a = h.diagonal - np.mean(h.diagonal)
        generator = diags([h.off_diagonal, a, h.off_diagonal], [-1, 0, 1], format="csr") / h.g
        starts = np.eye(h.basis.dim, dtype=complex)[:, _indices(h)]
        psi = expm_multiply(-1j * generator, starts, start=0.0, stop=TAU_16[-1],
                            num=TAU_16.size, endpoint=True)
        for col, i in enumerate(_indices(h)):
            want = np.abs(psi[:, 0, col]) ** 2
            for got in both_paths(monkeypatch, h, i, TAU_16):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-11, err_msg=f"i={i}")

    def test_strongly_detuned_edge_matches_corner_expm(self, monkeypatch):
        # expm_multiply misses by up to 7e-11 here (norm x time near 3e4);
        # checked against a 40-digit eigendecomposition of the 60-site
        # corner, dense expm of that corner is within 4e-14. A coupling of
        # 0.1 sqrt(450 k) against a detuning of 4.8 per site keeps the states
        # near index 0 inside the corner.
        h = AROUND_CUTOFF["strongly-detuned"]()
        m = 60
        corner = np.diag(h.diagonal[:m] - h.diagonal[0])
        corner += np.diag(h.off_diagonal[:m - 1], 1) + np.diag(h.off_diagonal[:m - 1], -1)
        # one expm per time serves both initial indices
        row = np.array([expm(-1j * corner * t / h.g)[0, :2] for t in TAU_16])
        for i in (0, 1):
            want = np.abs(row[:, i]) ** 2
            for got in both_paths(monkeypatch, h, i, TAU_16):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-11, err_msg=f"i={i}")

    def test_exact_eigenvalue_makes_zero_pivots(self):
        # LAPACK returns the lambda = 0 eigenvalue of the zero-diagonal block
        # as a few 1e-14; handed over exactly, it makes the first pivot of
        # both passes exactly zero
        h = _zero_diagonal_block()
        a, b = h.diagonal, h.off_diagonal
        w = eigvalsh_tridiagonal(a, b, lapack_driver="sterf")
        assert np.sum(np.abs(w) < 1e-9) == 1
        w = np.where(np.abs(w) < 1e-9, 0.0, w)
        dense_w, v = eigensystem(h)
        for i in _indices(h):
            kept, weights = exact_model._twisted_weights(a, b, i, w)
            assert 0.0 in kept
            want = np.abs(v[0] * v[i] @ np.exp(-1j * np.outer(dense_w, TAU_16))) ** 2
            got = np.abs(weights @ np.exp(-1j * np.outer(kept, TAU_16))) ** 2
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11, err_msg=f"i={i}")

    @pytest.mark.parametrize("split", ["zero-coupling", "two-wells"])
    def test_split_block_falls_back_to_dense(self, monkeypatch, split):
        # twisting where an eigenvector vanishes gives garbage, which the
        # first-row completeness check sends to the dense eigenvectors
        h = AROUND_CUTOFF["detuned"]()
        if split == "zero-coupling":
            off = h.off_diagonal.copy()
            off[300] = 0.0
            h = SectorHamiltonian(h.basis, h.diagonal, off, h.omega, h.omega0, h.g)
        else:  # a concave diagonal: low-lying states sit in both end wells
            diag = -0.002 * (np.arange(h.basis.dim) - 300.0) ** 2
            h = SectorHamiltonian(h.basis, diag, np.ones(h.basis.dim - 1), 1.0, 1.0, 1.0)
        for i in (0, 1, 300):
            dense, twisted = both_paths(monkeypatch, h, i, TAU_16, falls_back=True)
            np.testing.assert_allclose(twisted, dense, rtol=0, atol=1e-11, err_msg=f"i={i}")

    def test_large_sector_keeps_no_quadratic_memory(self):
        # dense eigenvectors of this block alone would take 122 MB
        h = build_sector(10**6, 4000)
        tau = np.linspace(0.0, math.pi, 256)
        tracemalloc.start()
        try:
            trace = exact_projection_probability(h, (3, 3997), tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert np.all((trace.values >= 0.0) & (trace.values <= 1.0 + 1e-12))


# resonant blocks: the centred diagonal is exactly zero
RESONANT = {
    "dim-513": lambda: build_sector(10**5, 512),
    "dim-514": lambda: build_sector(10**5, 513),
    "dim-601": lambda: build_sector(10**6, 600),
    "E>N": lambda: build_sector(650, 900),
}


def _general_path(monkeypatch, h, i, tau):
    """Probabilities with the half-spectrum route switched off."""
    with monkeypatch.context() as m:
        m.setattr(exact_model, "_positive_half", lambda b, i: None)
        return exact_projection_probability(h, h.basis.states[i], tau).values


class TestHalfSpectrum:
    @pytest.mark.parametrize("block", RESONANT)
    def test_positive_eigenvalues_match_bisection(self, block):
        # bisection on the zero-diagonal matrix finds its eigenvalues to high
        # relative accuracy (Demmel & Kahan 1990)
        b = RESONANT[block]().off_diagonal
        dim = b.size + 1
        w, _, _ = exact_model._positive_half(b, 0)
        norm = 2.0 * np.abs(b).max()
        m, want, *_, info = lapack.dstebz(np.zeros(dim), b, 1, 0.0, norm, 0, 0,
                                          2 * np.finfo(float).tiny, "E")
        assert info == 0 and m == w.size == dim // 2
        np.testing.assert_allclose(np.sort(w), np.sort(want[:m]), rtol=0,
                                   atol=10 * np.finfo(float).eps * norm)

    def test_zero_eigenvector_weight_matches_dense(self):
        h = RESONANT["dim-601"]()
        w, v = eigensystem(h)
        k = np.argmin(np.abs(w - h.diagonal[0]))
        for i in [*range(0, h.basis.dim, 2), 1, 3, 301, 599]:
            _, weight, mass = exact_model._positive_half(h.off_diagonal, i)
            assert mass == pytest.approx(v[0, k] ** 2, rel=1e-12)
            assert weight == pytest.approx(v[0, k] * v[i, k], rel=1e-10, abs=1e-15), i
            if i % 2:
                assert weight == 0.0
        assert exact_model._positive_half(RESONANT["dim-514"]().off_diagonal, 0)[1:] == (0.0, 0.0)

    @pytest.mark.parametrize("block", ["dim-513", "dim-514"])
    def test_matches_expm_multiply(self, monkeypatch, block):
        h = RESONANT[block]()

        def general(*args, **kwargs):
            raise AssertionError("left the half-spectrum route")

        monkeypatch.setattr(exact_model, "eigensystem", general)
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", general)
        indices = [0, 1, 2, 3, 256, 257, h.basis.dim - 2, h.basis.dim - 1]
        generator = diags([h.off_diagonal, h.off_diagonal], [-1, 1], format="csr") / h.g
        starts = np.eye(h.basis.dim, dtype=complex)[:, indices]
        psi = expm_multiply(-1j * generator, starts, start=0.0, stop=TAU_16[-1],
                            num=TAU_16.size, endpoint=True)
        for col, i in enumerate(indices):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            np.testing.assert_allclose(got, np.abs(psi[:, 0, col]) ** 2, rtol=0, atol=1e-11,
                                       err_msg=f"i={i}")

    @pytest.mark.parametrize("block", RESONANT)
    def test_agrees_with_the_general_path(self, monkeypatch, block):
        h = RESONANT[block]()
        for i in _indices(h):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            want = _general_path(monkeypatch, h, i, TAU_16)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11, err_msg=f"i={i}")

    @pytest.mark.parametrize("site", [300, 301])
    def test_zero_coupling_falls_back(self, monkeypatch, site):
        # a zero b_2k makes B singular, which fails the twisted completeness
        # check; a zero b_2k+1 makes the lambda = 0 eigenvector infinite
        h = RESONANT["dim-601"]()
        off = h.off_diagonal.copy()
        off[site] = 0.0
        h = SectorHamiltonian(h.basis, h.diagonal, off, 1.0, 1.0, 1.0)
        calls, half = [], exact_model._positive_half
        monkeypatch.setattr(exact_model, "_positive_half",
                            lambda b, i: calls.append(i) or half(b, i))
        for i in (0, 1, 300):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            np.testing.assert_array_equal(got, _general_path(monkeypatch, h, i, TAU_16))
        assert calls == [0, 1, 300]

    def test_overflowing_square_falls_back(self, monkeypatch):
        # b^2 overflows at g = 1e160; scaled time keeps the probabilities of g = 1
        h = build_sector(10**6, 600, g=1e160)
        assert exact_model._positive_half(h.off_diagonal, 0) is None
        for i in (0, 1, 300):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            np.testing.assert_array_equal(got, _general_path(monkeypatch, h, i, TAU_16))
            want = exact_projection_probability(RESONANT["dim-601"](), h.basis.states[i], TAU_16)
            np.testing.assert_allclose(got, want.values, rtol=0, atol=1e-11, err_msg=f"i={i}")


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
