"""Finite-N sector solver tests: hand-checked matrix elements, dense expm
cross-checks, conservation and symmetry properties, and convergence of the
exact probabilities toward the closed binomial form."""
import math
import re
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

    def test_states_are_built_on_read(self):
        # a tuple per basis state used to be built at construction, so this
        # basis never finished
        basis = SectorBasis(N_atoms=10**15, total_excitation=10**15)
        assert basis.dim == 10**15 + 1
        assert basis.index_of(10**15, 0) == 10**15

    @pytest.mark.parametrize("N_atoms,E", [(4, 2), (2, 5), (3, 3), (7, 0)])
    def test_states_read_back_through_index_of(self, N_atoms, E):
        basis = SectorBasis(N_atoms=N_atoms, total_excitation=E)
        assert len(basis.states) == basis.dim
        for k, state in enumerate(basis.states):
            assert basis.index_of(*state) == k

    def test_index_of_rejects_foreign_state(self):
        basis = SectorBasis(N_atoms=4, total_excitation=2)
        with pytest.raises(ValueError):
            basis.index_of(1, 2)

    def test_single_atom_single_excitation(self):
        # a lone two-level atom: the one-excitation block couples at g (1 in
        # units of g), and both states carry one quantum above the all-ground
        # state
        h = build_sector(1, 1, omega=1.0, omega0=1.0)
        assert h.off_diagonal[0] == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(h.diagonal, [1.0, 1.0])

    def test_vacuum_sector_is_one_by_one(self):
        h = build_sector(37, 0)
        assert h.basis.dim == 1
        assert h.off_diagonal.size == 0

    def test_two_atom_coupling_element(self):
        # collective raising from the ground pair: sqrt(1*(2-0)*(0+1)/2) = 1
        h = build_sector(2, 1, omega=1.0, omega0=1.0)
        assert h.off_diagonal[0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["omega", "omega0"])
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

    @pytest.mark.parametrize("N_atoms,E,name", [
        (10**4 + 1, 10**6, "N_atoms"), (10**6, 10**4 + 1, "E"), (10**15, 10**15, "E")])
    def test_dimension_past_the_bound_names_the_smaller_count(self, N_atoms, E, name):
        # (10**15, 10**15) used to build a tuple of 10**15 basis states
        assert exact_model.MAX_SECTOR_DIM == 10**4 + 1
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{name} must be small enough that the "
                                                 r"sector dimension min\(N_atoms, E\) \+ 1 is "
                                                 f"at most 10001, got {min(N_atoms, E) + 1}$"):
                build_sector(N_atoms, E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize("N_atoms,E", [(10**4, 10**6), (10**6, 10**4)])
    def test_dimension_at_the_bound_is_built(self, N_atoms, E):
        assert build_sector(N_atoms, E).basis.dim == exact_model.MAX_SECTOR_DIM

    def test_arrays_frozen(self):
        h = build_sector(5, 3)
        with pytest.raises(ValueError):
            h.diagonal[0] = 99.0

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("diagonal", np.zeros(3), "diagonal must have shape (4,)"),
            ("off_diagonal", np.ones(4), "off_diagonal must have shape (3,)"),
            # a basis of another dimension: the diagonal is named first
            ("basis", SectorBasis(5, 2), "diagonal must have shape (3,)"),
            # a NaN diagonal used to fail inside scipy, naming no field
            ("diagonal", np.array([0.0, math.nan, 0.0, 0.0]), "diagonal must be finite"),
            ("off_diagonal", np.array([1.0, math.inf, 1.0]), "off_diagonal must be finite"),
        ],
    )
    def test_hand_built_block_checks_its_fields(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
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
        # eps * |H| * tau: 1e300 used to return 0.130 without complaint
        with pytest.raises(ValueError, match="^tau_grid must keep the phase error bound"):
            exact_projection_probability(build_sector(1000, 5), (3, 2), np.array([0.0, tau_max]))

    def test_phase_error_bound_leaves_room_for_long_grids(self):
        # E = 3000 at tau = pi has a bound of about 2e-12, far inside 1e-8
        h = build_sector(10**5, 3000)
        assert exact_projection_probability(h, (1500, 1500), np.array([0.0, math.pi])).values.size == 2
        exact_projection_probability(build_sector(1000, 5), (3, 2), np.array([0.0, 1e5]))

    def test_scaled_time_uses_physical_time(self):
        # doubling g doubles the block in units of g/2 and halves the time
        tau = np.linspace(0.0, 2.0, 40)
        h = build_sector(50, 3, omega=1.3, omega0=0.9)
        doubled = SectorHamiltonian(h.basis, 2.0 * h.diagonal, 2.0 * h.off_diagonal)
        slow = exact_projection_probability(h, (2, 1), tau)
        fast = exact_projection_probability(doubled, (2, 1), tau / 2.0)
        np.testing.assert_allclose(slow.values, fast.values, atol=1e-9)

    @pytest.mark.parametrize("field", ["diagonal", "off_diagonal"])
    @pytest.mark.parametrize("E", [5, 600], ids=["dense", "twisted"])
    def test_subnormal_entry_gives_finite_probabilities(self, E, field):
        # the contract's subnormal rule, for a hand-built block's entries
        h = build_sector(10**6, E)
        entries = getattr(h, field).copy()
        entries[-1] = 5e-324
        h = replace(h, **{field: entries})
        for i in (0, 1, E // 2):
            values = exact_projection_probability(h, h.basis.states[i], TAU_256).values
            assert np.isfinite(values).all()
            assert values.min() >= 0.0 and values.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("N,E", [(1, 1), (6, 3), (40, 5), (7, 9)])
    def test_matches_dense_expm(self, N, E):
        h = build_sector(N, E, omega=1.3 / 0.7, omega0=0.9 / 0.7)
        dense = h.dense()
        init = min(2, h.basis.dim - 1)
        taus = np.array([0.4, 1.1, 2.7])
        trace = exact_projection_probability(h, h.basis.states[init], taus)
        for i, tau in enumerate(taus):
            u = expm(-1j * dense * tau)
            assert trace.values[i] == pytest.approx(abs(u[0, init]) ** 2, abs=1e-9)

    @pytest.mark.parametrize("N,E", [(10**6, 5), (10**8, 6)])
    def test_large_N_matches_dense_expm_of_centred_block(self, N, E):
        # the mean diagonal is a global phase; eigenvalues shifted back by it
        # would carry its rounding
        h = build_sector(N, E)
        centred = h.dense() - np.mean(h.diagonal) * np.eye(h.basis.dim)
        taus = np.linspace(0.3, 3.0, 9)
        for init, state in enumerate(h.basis.states):
            trace = exact_projection_probability(h, state, taus)
            want = [abs(expm(-1j * centred * t)[0, init]) ** 2 for t in taus]
            np.testing.assert_allclose(trace.values, want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("detuning", [0.1, 0.3])
    @pytest.mark.parametrize("N", [10**3, 10**5, 10**8, 10**10])
    def test_detuned_single_quantum_follows_rabi_formula(self, N, detuning):
        # E = 1 couples exactly at g for every N: p = sin^2(k tau) / k^2 with
        # k = sqrt(1 + (detuning/2)^2). A diagonal of size N/2 lost eps*N here.
        h = build_sector(N, 1, omega=1.0 + detuning, omega0=1.0)
        taus = np.linspace(0.0, 3.0, 301)
        k = math.sqrt(1.0 + (detuning / 2.0) ** 2)
        p = np.sin(k * taus) ** 2 / k**2
        for state, want in (((1, 0), p), ((0, 1), 1.0 - p)):
            got = exact_projection_probability(h, state, taus).values
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_detuned_matches_dense_expm(self):
        h = build_sector(20, 2, omega=2.0, omega0=1.5)
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
    return SectorHamiltonian(h.basis, np.zeros(h.basis.dim), h.off_diagonal)


# blocks of dimension 451 to 651, above the dense/twisted cutoff of 224;
# both_paths forces each through both routes
AROUND_CUTOFF = {
    "detuned": lambda: build_sector(4000, 600, omega=2.6, omega0=1.4),
    "strongly-detuned": lambda: build_sector(10**6, 450, omega=50.0, omega0=2.0),
    "E>N": lambda: build_sector(650, 900, omega=2.6, omega0=1.4),
    "zero-diagonal": _zero_diagonal_block,
}
TAU_16 = np.linspace(0.0, 3.0, 16)


def _indices(h):
    # dim // 2 + 1 is one past the deepest site of every eigenvalue of the
    # zero-diagonal block, where its odd eigenvectors take their twist
    return [0, 1, 3, h.basis.dim // 2, h.basis.dim // 2 + 1, h.basis.dim - 1]


def _count_dense_calls(monkeypatch):
    calls, dense = [], exact_model.eigensystem
    monkeypatch.setattr(exact_model, "eigensystem", lambda block: calls.append(1) or dense(block))
    return calls


def both_paths(monkeypatch, h, i, tau, falls_back=False):
    """Probabilities from the dense eigenvectors and from the twisted
    factorizations, each forced through the cutoff; `falls_back` says
    whether the twisted call must end on the dense path."""
    calls = _count_dense_calls(monkeypatch)
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
        generator = diags([h.off_diagonal, a, h.off_diagonal], [-1, 0, 1], format="csr")
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
        # sqrt(450 k) against a detuning of 48 per site keeps the states near
        # index 0 inside the corner.
        h = AROUND_CUTOFF["strongly-detuned"]()
        m = 60
        corner = np.diag(h.diagonal[:m] - h.diagonal[0])
        corner += np.diag(h.off_diagonal[:m - 1], 1) + np.diag(h.off_diagonal[:m - 1], -1)
        # one expm per time serves both initial indices
        row = np.array([expm(-1j * corner * t)[0, :2] for t in TAU_16])
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
            h = SectorHamiltonian(h.basis, h.diagonal, off)
        else:  # a concave diagonal: low-lying states sit in both end wells
            diag = -0.002 * (np.arange(h.basis.dim) - 300.0) ** 2
            h = SectorHamiltonian(h.basis, diag, np.ones(h.basis.dim - 1))
        for i in (0, 1, 300):
            dense, twisted = both_paths(monkeypatch, h, i, TAU_16, falls_back=True)
            np.testing.assert_allclose(twisted, dense, rtol=0, atol=1e-11, err_msg=f"i={i}")
        a = h.diagonal - np.mean(h.diagonal)
        with pytest.raises(FloatingPointError, match="^twisted eigenvectors miss their first-row "
                                                     r"mass by \d"):
            exact_model._twisted_weights(a, h.off_diagonal, 0, _sterf(h))

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


# blocks of dimension 200 to 320, on both sides of the cutoff of 224
NEAR_CUTOFF = {
    "resonant-dim-207": lambda: build_sector(2 * 10**5, 206),
    "resonant-dim-225": lambda: build_sector(2 * 10**5, 224),
    "detuned-dim-241": lambda: build_sector(4000, 240, omega=2.6, omega0=1.4),
    "resonant-dim-301": lambda: build_sector(2 * 10**5, 300),
    "detuned-dim-281": lambda: build_sector(4000, 280, omega=2.6, omega0=1.4),
    "E>N-dim-301": lambda: build_sector(300, 400, omega=2.6, omega0=1.4),
}


class TestCutoff:
    @pytest.mark.parametrize("block", NEAR_CUTOFF)
    def test_default_route_matches_dense_expm(self, monkeypatch, block):
        h = NEAR_CUTOFF[block]()
        calls = _count_dense_calls(monkeypatch)
        centred = h.dense() - np.mean(h.diagonal) * np.eye(h.basis.dim)
        step = expm(-1j * centred * (TAU_16[1] - TAU_16[0]))  # TAU_16 is uniform
        row = [np.eye(h.basis.dim)[0]]  # <0| U(t) on the grid
        for _ in TAU_16[1:]:
            row.append(row[-1] @ step)
        row = np.array(row)
        for i in _indices(h):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            np.testing.assert_allclose(got, np.abs(row[:, i]) ** 2, rtol=0, atol=1e-11,
                                       err_msg=f"i={i}")
        assert bool(calls) == (h.basis.dim <= 224)

    @pytest.mark.parametrize("omega", [1.0, 1.3], ids=["resonant", "detuned"])
    @pytest.mark.parametrize("dim,dense", [(224, True), (225, False)])
    def test_cutoff_is_dim_224(self, monkeypatch, omega, dim, dense):
        h = build_sector(10**5, dim - 1, omega=omega)
        calls = _count_dense_calls(monkeypatch)
        exact_projection_probability(h, h.basis.states[1], TAU_16)
        assert bool(calls) == dense


def reference_pivot_pass(a, b, w, stop, i, x0=True):
    """exact_model._pivot_pass as it was before it stopped at the last
    stop_k + 1: every pass runs to j = n - 1, re-slicing on every step."""
    n = a.size
    pivmin = np.finfo(float).eps * (np.abs(a).max() + np.abs(b).max())
    first = np.searchsorted(stop, np.arange(n + 1))  # first w_k with stop_k >= j
    cur = np.zeros((4, w.size))
    cur[0] = a[0] - w
    cur[2] = 1.0
    at_stop = np.full((4, w.size), np.nan)
    ratio = np.empty(w.size)
    lead = 2 if x0 else 3  # first row of the ratios x_./x_j that are stepped
    for j in range(n):
        lo = first[j]
        if j == i:  # every state still running, stop_k >= i - 1
            cur[3, np.searchsorted(stop, i - 1):] = 1.0
        at_stop[:, lo:first[j + 1]] = cur[:, lo:first[j + 1]]
        if j == n - 1:
            break
        # step the states with stop_k >= j to j + 1; the others stay frozen
        d, s, f = cur[0, lo:], cur[1, lo:], ratio[lo:]
        d[d == 0.0] = pivmin
        np.divide(-b[j], d, out=f)  # x_j / x_{j+1}
        cur[lead:4 if j >= i else 3, lo:] *= f  # x_0/x_j, and x_i/x_j from j = i
        s += 1.0
        s *= f
        s *= f
        np.multiply(f, b[j], out=d)
        d += a[j + 1]
        d -= w[lo:]
    return np.array([at_stop, cur])


def _retired(got):
    """States a retiring pass froze: both outputs equal, |x_0/x_j| negligible."""
    return (got[0] == got[1]).all(axis=0) & (np.abs(got[1, 2]) < exact_model._NEGLIGIBLE)


def _assert_same_pass(a, b, w, stop, i, retire=True):
    """_pivot_pass against the reference loop, byte for byte: the reversed
    pass (retire False) on rows 0, 1 and 3, since its x_0/x_j row is
    stepped but never read; the top-down pass on every row of each state
    still running at its stop, and each retired state on its values at the
    first multiple of 32 where the reference's |x_0/x_j| is negligible."""
    got = exact_model._pivot_pass(a, b, w, stop, i, retire=retire)
    want = reference_pivot_pass(a, b, w, stop, i, x0=retire)
    if not retire:
        assert got[:, [0, 1, 3]].tobytes() == want[:, [0, 1, 3]].tobytes()
        return np.zeros(w.size, dtype=bool)
    retired = _retired(got)
    assert got[..., ~retired].tobytes() == want[..., ~retired].tobytes()
    frozen = np.zeros(w.size, dtype=bool)
    for site in range(32, int(stop.max(initial=-1)) + 1, 32):
        at_site = reference_pivot_pass(a, b, w, np.full(w.size, site), i)[0]
        now = ~frozen & (stop >= site) & (np.abs(at_site[2]) < exact_model._NEGLIGIBLE)
        assert got[0][:, now].tobytes() == at_site[:, now].tobytes()
        frozen |= now
    np.testing.assert_array_equal(retired, frozen)
    return retired


def _pass_arguments(h, i, w=None, mass=1.0):
    """The arguments of the top-down and the reversed _pivot_pass call that
    _twisted_weights makes for initial index i, with the eigenvalues w and
    their first-row mass, or by default all of them and 1."""
    calls, real = [], exact_model._pivot_pass
    w = _sterf(h) if w is None else w
    with pytest.MonkeyPatch.context() as m:
        m.setattr(exact_model, "_pivot_pass",
                  lambda *args, **kwargs: calls.append((args, kwargs)) or real(*args, **kwargs))
        exact_model._twisted_weights(h.diagonal - np.mean(h.diagonal), h.off_diagonal, i, w, mass)
    assert [kwargs for _, kwargs in calls] == [{}, {"retire": False}]
    return calls


def _sterf(h):
    return eigvalsh_tridiagonal(h.diagonal - np.mean(h.diagonal), h.off_diagonal,
                                lapack_driver="sterf")


def _exact_zero_eigenvalue(h):
    w = _sterf(h)
    w[np.abs(w) < 1e-9] = 0.0
    return w


PASS_BLOCKS = {
    # every twist at site 349 top-down, 350 in the reversed pass
    "resonant": lambda: build_sector(10**5, 700),
    # twists from site 137 to 455 top-down
    "detuned": AROUND_CUTOFF["detuned"],
    # twists from site 0 to the last site, 450, top-down
    "strongly-detuned": AROUND_CUTOFF["strongly-detuned"],
    "E>N": AROUND_CUTOFF["E>N"],
    # the exact lambda = 0 makes the first pivot of both passes exactly zero
    "zero-pivot": _zero_diagonal_block,
}


class _DivideSpy:
    """numpy, counting the divides that raise FloatingPointError."""

    def __init__(self):
        self.raised = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def divide(self, *args, **kwargs):
        try:
            return np.divide(*args, **kwargs)
        except FloatingPointError:
            self.raised += 1
            raise


class TestPivotPass:
    @pytest.mark.parametrize(
        "block,i",
        [("resonant", 0), ("resonant", 200), ("resonant", 350), ("resonant", 600),
         ("detuned", 0), ("detuned", 300), ("detuned", 456), ("detuned", 600),
         ("strongly-detuned", 3), ("strongly-detuned", 449)],
    )
    def test_twisted_weights_passes_equal_the_full_loop(self, block, i):
        # i = 350 and 456 are one past the last top-down twist, i = 600 past it
        for args, kwargs in _pass_arguments(PASS_BLOCKS[block](), i):
            _assert_same_pass(*args, **kwargs)

    @pytest.mark.parametrize("retire", [True, False])
    def test_no_state_steps(self, retire):
        h = PASS_BLOCKS["resonant"]()
        w = _sterf(h)
        _assert_same_pass(np.zeros(h.basis.dim), h.off_diagonal, w, np.full(w.size, -1), 0,
                          retire=retire)

    @pytest.mark.parametrize("retire", [True, False])
    def test_stops_spread_to_the_last_site(self, retire):
        h = PASS_BLOCKS["detuned"]()
        a, b, w = h.diagonal - np.mean(h.diagonal), h.off_diagonal, _sterf(h)
        n = a.size
        stop = np.sort(np.random.default_rng(14).integers(-1, n, w.size))
        stop[[0, -1]] = -1, n - 1
        for i in (0, int(stop[w.size // 2]) + 1, n - 1):
            retired = _assert_same_pass(a, b, w, stop, i, retire=retire)
            assert retired.any() == retire

    def test_exact_zero_pivot(self, monkeypatch):
        # each pass finds its zero first pivot by the divide's FloatingPointError
        h = PASS_BLOCKS["zero-pivot"]()
        w = _exact_zero_eigenvalue(h)
        spy = _DivideSpy()
        for i in (0, h.basis.dim // 2 + 1):
            for args, kwargs in _pass_arguments(h, i, w):
                assert 0.0 in args[2]
                raised = spy.raised
                with monkeypatch.context() as m:
                    m.setattr(exact_model, "np", spy)
                    exact_model._pivot_pass(*args, **kwargs)
                assert spy.raised > raised
                _assert_same_pass(*args, **kwargs)

    @pytest.mark.parametrize("block", PASS_BLOCKS)
    def test_weights_equal_the_full_loop_on_states_both_keep(self, monkeypatch, block):
        h = PASS_BLOCKS[block]()
        a, b = h.diagonal - np.mean(h.diagonal), h.off_diagonal
        w = _exact_zero_eigenvalue(h) if block == "zero-pivot" else _sterf(h)
        for i in (0, 1, h.basis.dim // 3, h.basis.dim // 2 + 1, h.basis.dim - 1):
            kept, weights = exact_model._twisted_weights(a, b, i, w)
            with monkeypatch.context() as m:
                m.setattr(exact_model, "_pivot_pass", lambda *args, retire=True:
                          reference_pivot_pass(*args, x0=retire))
                parent_kept, parent_weights = exact_model._twisted_weights(a, b, i, w)
            both = np.isin(parent_kept, kept)
            assert parent_kept[both].tobytes() == kept.tobytes()
            assert parent_weights[both].tobytes() == weights.tobytes()
            assert np.all(np.abs(parent_weights[~both]) < 1e-20)

    def test_resonant_e3000_retires_at_least_the_twist_drops(self):
        # the positive half of the spectrum, as exact_projection_probability
        # twists it: 1,500 states, every twist at site 1500
        h = build_sector(10**6, 3000)
        w, _, zero_mass = exact_model._positive_half(h.off_diagonal, 1000)
        (args, _), _ = _pass_arguments(h, 1000, w, (1.0 - zero_mass) / 2.0)
        got, want = exact_model._pivot_pass(*args), reference_pivot_pass(*args)
        retired = _retired(got)
        assert got[..., ~retired].tobytes() == want[..., ~retired].tobytes()
        dropped = np.abs(want[:, 2]).max(axis=0) < exact_model._NEGLIGIBLE
        assert retired.sum() >= dropped.sum() > 0

    def test_floating_point_fault_falls_back_to_dense(self, monkeypatch):
        def fault(*args, **kwargs):
            raise FloatingPointError("invalid value encountered in multiply")

        h = AROUND_CUTOFF["detuned"]()
        dense, _ = both_paths(monkeypatch, h, 1, TAU_16)
        monkeypatch.setattr(exact_model, "_pivot_pass", fault)
        _, fallen_back = both_paths(monkeypatch, h, 1, TAU_16, falls_back=True)
        assert fallen_back.tobytes() == dense.tobytes()


# resonant blocks: the centred diagonal is exactly zero
RESONANT = {
    "dim-513": lambda: build_sector(10**5, 512),
    "dim-514": lambda: build_sector(10**5, 513),
    "dim-601": lambda: build_sector(10**6, 600),
    "E>N": lambda: build_sector(650, 900),
}


def _zero_coupling(site):
    """The resonant dim-601 block with its coupling at site set to zero."""
    h = RESONANT["dim-601"]()
    off = h.off_diagonal.copy()
    off[site] = 0.0
    return SectorHamiltonian(h.basis, h.diagonal, off)


def _huge_couplings():
    """The resonant dim-601 block with its couplings scaled by 1e160, where
    b^2 overflows; on TAU_16 * 1e-160 it has the probabilities of dim-601."""
    h = RESONANT["dim-601"]()
    return SectorHamiltonian(h.basis, h.diagonal, h.off_diagonal * 1e160)


def _dense_fallback(monkeypatch, h, i, tau):
    """Probabilities with the half-spectrum route failing, which sends a
    resonant block to the dense eigenvectors."""
    def fail(b, i):
        raise FloatingPointError("overflow encountered in square")

    with monkeypatch.context() as m:
        m.setattr(exact_model, "_positive_half", fail)
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
        generator = diags([h.off_diagonal, h.off_diagonal], [-1, 1], format="csr")
        starts = np.eye(h.basis.dim, dtype=complex)[:, indices]
        psi = expm_multiply(-1j * generator, starts, start=0.0, stop=TAU_16[-1],
                            num=TAU_16.size, endpoint=True)
        for col, i in enumerate(indices):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            np.testing.assert_allclose(got, np.abs(psi[:, 0, col]) ** 2, rtol=0, atol=1e-11,
                                       err_msg=f"i={i}")

    @pytest.mark.parametrize("block", RESONANT)
    def test_agrees_with_the_dense_fallback(self, monkeypatch, block):
        h = RESONANT[block]()
        for i in _indices(h):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            want = _dense_fallback(monkeypatch, h, i, TAU_16)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11, err_msg=f"i={i}")

    @pytest.mark.parametrize("site", [300, 301])
    def test_zero_coupling_falls_back(self, monkeypatch, site):
        # a zero b_2k makes B singular, which fails the twisted completeness
        # check; a zero b_2k+1 makes the lambda = 0 eigenvector infinite
        h = _zero_coupling(site)
        if site % 2:
            with pytest.raises(FloatingPointError, match="divide by zero"):
                exact_model._positive_half(h.off_diagonal, 0)
        calls, half = [], exact_model._positive_half
        monkeypatch.setattr(exact_model, "_positive_half",
                            lambda b, i: calls.append(i) or half(b, i))
        generator = diags([h.off_diagonal, h.off_diagonal], [-1, 1], format="csr")
        starts = np.eye(h.basis.dim, dtype=complex)[:, [0, 1, 300]]
        psi = expm_multiply(-1j * generator, starts, start=0.0, stop=TAU_16[-1],
                            num=TAU_16.size, endpoint=True)
        for col, i in enumerate((0, 1, 300)):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            np.testing.assert_allclose(got, np.abs(psi[:, 0, col]) ** 2, rtol=0, atol=1e-11,
                                       err_msg=f"i={i}")
        assert calls == [0, 1, 300]

    def test_overflowing_square_falls_back(self, monkeypatch):
        h = _huge_couplings()
        with pytest.raises(FloatingPointError):
            exact_model._positive_half(h.off_diagonal, 0)
        for i in (0, 1, 300):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16 * 1e-160).values
            np.testing.assert_array_equal(
                got, _dense_fallback(monkeypatch, h, i, TAU_16 * 1e-160))
            want = exact_projection_probability(RESONANT["dim-601"](), h.basis.states[i], TAU_16)
            np.testing.assert_allclose(got, want.values, rtol=0, atol=1e-11, err_msg=f"i={i}")

    def test_failed_dpteqr_falls_back(self, monkeypatch):
        # no build_sector block makes dpteqr report a failure; one that did
        # must take the dense eigenvectors, once per call
        h = RESONANT["dim-601"]()
        real = lapack.dpteqr
        monkeypatch.setattr(lapack, "dpteqr", lambda *args: (*real(*args)[:3], 1))
        with pytest.raises(FloatingPointError, match="^dpteqr failed with info = 1$"):
            exact_model._positive_half(h.off_diagonal, 0)
        dense = _count_dense_calls(monkeypatch)
        for i in (0, 1, 300):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            assert len(dense) == 1
            assert got.tobytes() == _dense_fallback(monkeypatch, h, i, TAU_16).tobytes()
            dense.clear()

    @pytest.mark.parametrize("block,tau,twisted", [
        (lambda: _zero_coupling(300), TAU_16, True),  # B singular: the twisted check fails
        (_huge_couplings, TAU_16 * 1e-160, False),  # b^2 overflows
    ], ids=["zero-coupling", "couplings-1e160"])
    def test_failed_route_goes_straight_to_dense(self, monkeypatch, block, tau, twisted):
        # a failed half spectrum is not retried as the whole spectrum: at
        # most one twisted attempt per call, and no sterf eigenvalues
        def no_sterf(*args, **kwargs):
            raise AssertionError("took the general route")

        h = block()
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", no_sterf)
        attempts, real = [], exact_model._twisted_weights
        monkeypatch.setattr(exact_model, "_twisted_weights",
                            lambda a, b, i, *rest: attempts.append(i) or real(a, b, i, *rest))
        dense = _count_dense_calls(monkeypatch)
        for i in (0, 1, 300):
            exact_projection_probability(h, h.basis.states[i], tau)
        assert attempts == ([0, 1, 300] if twisted else [])
        assert len(dense) == 3


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
