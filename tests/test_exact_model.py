"""Finite-N sector solver tests: hand-checked matrix elements, dense expm
cross-checks, conservation and symmetry properties, and convergence of the
exact probabilities toward the closed binomial form."""
import functools
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.matrices.eigen_symmetric import tridiag_eigen
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

    @pytest.mark.parametrize("field", ["diagonal", "off_diagonal"])
    @pytest.mark.parametrize("E", [5, 600], ids=["dim-6", "dim-601"])
    def test_entries_at_the_float_range_name_their_field(self, monkeypatch, E, field):
        # +-1e308 used to overflow with a warning, and then the phase guard
        # blamed tau_grid, even for tau_grid = [0.0]
        def no_solve(*args):
            raise AssertionError("solved a block whose width overflows")

        for name in ("eigensystem", "_half_eigenvectors", "_twisted_weights", "_positive_half"):
            monkeypatch.setattr(exact_model, name, no_solve)
        h = build_sector(10**6, E)
        entries = getattr(h, field).copy()
        entries[0], entries[-1] = 1e308, -1e308
        h = replace(h, **{field: entries})
        with pytest.raises(ValueError, match=f"^{field} must be small enough that the block's "
                                             r"width max\(a\) - min\(a\) \+ 4 max\|b\| "
                                             "stays finite$"):
            exact_projection_probability(h, h.basis.states[1], np.array([0.0]))

    def test_overflow_in_the_twisted_route_is_scaled_away(self, monkeypatch):
        # one 1e308 on the diagonal leaves the width finite, but the twist
        # element d + p - (a - w) overflows, which used to warn and go on;
        # the block is solved scaled by 2^-1024, on the twisted route
        h = build_sector(10**6, 600, omega=1.3)
        diag = h.diagonal.copy()
        diag[0] = 1e308
        h = replace(h, diagonal=diag)
        a = diag - np.mean(diag)
        with pytest.raises(FloatingPointError, match="overflow"):
            exact_model._twisted_weights(a, h.off_diagonal, 1, _sterf(h))
        dense, tops, real = _count_dense_calls(monkeypatch), [], exact_model._twisted_weights
        monkeypatch.setattr(exact_model, "_twisted_weights",
                            lambda a, *rest: tops.append(np.abs(a).max()) or real(a, *rest))
        # the phase guard allows max|tau| up to about 4.5e-301 here
        values = exact_projection_probability(h, h.basis.states[1], np.array([0.0, 1e-302])).values
        assert (dense, len(tops)) == ([], 1) and 0.5 <= tops[0] < 1.0
        np.testing.assert_allclose(values, 0.0, rtol=0, atol=1e-12)

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
    """Records the dimension of each block whose dense eigenvectors are
    formed: the whole block's, or a resonant one's half block."""
    calls, dense = [], exact_model.eigensystem
    monkeypatch.setattr(exact_model, "eigensystem",
                        lambda block: calls.append(block.basis.dim) or dense(block))
    return calls


def _split_block(split):
    """The detuned dim-601 block with its coupling at site 300 set to zero,
    or a concave diagonal whose low-lying states sit in both end wells."""
    h = AROUND_CUTOFF["detuned"]()
    if split == "zero-coupling":
        off = h.off_diagonal.copy()
        off[300] = 0.0
        return SectorHamiltonian(h.basis, h.diagonal, off)
    diag = -0.002 * (np.arange(h.basis.dim) - 300.0) ** 2
    return SectorHamiltonian(h.basis, diag, np.ones(h.basis.dim - 1))


def _row_zero_oracle(h, tau):
    """|<0| exp(-i H_centred tau) |i>|^2 for every i, by expm_multiply of
    the one start vector |0>: H is real symmetric, so <0|U|i> = <i|U|0>."""
    a = h.diagonal - np.mean(h.diagonal)
    generator = diags([h.off_diagonal, a, h.off_diagonal], [-1, 0, 1], format="csr")
    psi = expm_multiply(-1j * generator, np.eye(h.basis.dim, 1, dtype=complex)[:, 0],
                        start=0.0, stop=tau[-1], num=tau.size, endpoint=True)
    return np.abs(psi) ** 2


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
    def test_twisting_a_split_block_fails(self, split):
        # twisting where an eigenvector vanishes gives garbage, which the
        # first-row completeness check reports
        h = _split_block(split)
        a = h.diagonal - np.mean(h.diagonal)
        with pytest.raises(FloatingPointError, match="^twisted eigenvectors miss their first-row "
                                                     r"mass by \d"):
            exact_model._twisted_weights(a, h.off_diagonal, 0, _sterf(h))

    def test_split_classical_region_falls_back_to_dense(self, monkeypatch):
        h = _split_block("two-wells")
        for i in (0, 1, 300):
            dense, twisted = both_paths(monkeypatch, h, i, TAU_16, falls_back=True)
            np.testing.assert_allclose(twisted, dense, rtol=0, atol=1e-11, err_msg=f"i={i}")

    def test_zero_coupling_splits_the_block(self, monkeypatch):
        # the coupling at site 300 is zero: rows 0 to 300 are solved as a
        # block of their own, densely or twisted, and the rows past them
        # never reach row 0
        h = _split_block("zero-coupling")
        for i in (0, 1, 300):
            dense, twisted = both_paths(monkeypatch, h, i, TAU_16)
            np.testing.assert_allclose(twisted, dense, rtol=0, atol=1e-11, err_msg=f"i={i}")
        dense, sizes, real = _count_dense_calls(monkeypatch), [], exact_model._twisted_weights
        monkeypatch.setattr(exact_model, "_twisted_weights",
                            lambda a, *rest: sizes.append(a.size) or real(a, *rest))
        want = _row_zero_oracle(h, TAU_16)
        for i in (0, 300, 301, 600):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            np.testing.assert_allclose(got, want[:, i], rtol=0, atol=1e-11, err_msg=f"i={i}")
            assert got.any() == (i <= 300)
        assert (dense, sizes) == ([], [301, 301])

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


# blocks on both sides of the cutoffs: dim 224 for a detuned block, and 448
# for a resonant one, whose half block B B^T has (dim + 1) // 2 rows
NEAR_CUTOFF = {
    "resonant-dim-207": lambda: build_sector(2 * 10**5, 206),
    "resonant-dim-225": lambda: build_sector(2 * 10**5, 224),
    "detuned-dim-241": lambda: build_sector(4000, 240, omega=2.6, omega0=1.4),
    "resonant-dim-301": lambda: build_sector(2 * 10**5, 300),
    "detuned-dim-281": lambda: build_sector(4000, 280, omega=2.6, omega0=1.4),
    "E>N-dim-301": lambda: build_sector(300, 400, omega=2.6, omega0=1.4),
    "resonant-dim-448": lambda: build_sector(2 * 10**5, 447),
    "resonant-dim-449": lambda: build_sector(2 * 10**5, 448),
}


def _dense_cutoff(h):
    """The largest dimension whose default route forms dense eigenvectors."""
    return 448 if not np.any(h.diagonal - np.mean(h.diagonal)) else 224


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
        assert bool(calls) == (h.basis.dim <= _dense_cutoff(h))

    @pytest.mark.parametrize("omega,dim,numpy", [
        (1.3, 16, True), (1.3, 17, False), (1.0, 32, True), (1.0, 34, False)],
        ids=["detuned-16", "detuned-17", "resonant-dim-32", "resonant-dim-34"])
    def test_numpy_solves_up_to_16_rows(self, monkeypatch, omega, dim, numpy):
        # numpy's eigh up to 16 rows of dense eigenvectors and scipy's
        # eigh_tridiagonal (stevd) above, both inside eigensystem: the
        # block's own rows, or the (dim + 1) // 2 of a resonant one's half
        # block
        h = build_sector(10**5, dim - 1, omega=omega)
        calls = _count_dense_calls(monkeypatch)
        solvers = []
        for module, name in ((np.linalg, "eigh"), (scipy.linalg, "eigh_tridiagonal")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                                solvers.append(name) or real(*args))
        exact_projection_probability(h, h.basis.states[1], TAU_16)
        rows = dim if omega != 1.0 else (dim + 1) // 2
        assert (calls, solvers) == ([rows], ["eigh" if numpy else "eigh_tridiagonal"])

    @pytest.mark.parametrize("omega,dim,dense", [
        (1.3, 224, True), (1.3, 225, False), (1.0, 448, True), (1.0, 449, False)],
        ids=["detuned-224", "detuned-225", "resonant-448", "resonant-449"])
    def test_cutoff_is_dim_224(self, monkeypatch, omega, dim, dense):
        # at most 224 rows of dense eigenvectors: the block's own, or the
        # (dim + 1) // 2 of the half block of a resonant one
        h = build_sector(10**5, dim - 1, omega=omega)
        calls = _count_dense_calls(monkeypatch)
        exact_projection_probability(h, h.basis.states[1], TAU_16)
        assert calls == ([224] if dense else [])


def reference_phase_sum(w, weights, parity, tau):
    """exact_model._phase_sum as it was before it reused one buffer: a
    fresh np.outer and a fresh phase array for every block."""
    phase = (np.cos, np.sin)[parity] if parity is not None else lambda x: np.exp(-1j * x)
    step = max(1, exact_model._BLOCK // max(tau.size, 1))
    return sum(
        weights[k:k + step] @ phase(np.outer(w[k:k + step], tau))
        for k in range(0, w.size, step)
    )


# twisted blocks that keep 614 (resonant) and 741 (detuned) eigenvalues
PHASE_BLOCKS = {
    "resonant-even": (lambda: build_sector(3000, 3000), 1500, 0),
    "resonant-odd": (lambda: build_sector(3000, 3000), 1501, 1),
    "detuned": (lambda: build_sector(10**6, 3000, omega=1.3), 1500, None),
}


@functools.cache
def _phase_spectrum(block):
    make, i, parity = PHASE_BLOCKS[block]
    h = make()
    w, weights, got_parity = exact_model._spectrum(h.diagonal - np.mean(h.diagonal),
                                                   h.off_diagonal, i)
    assert got_parity == parity
    return w, weights, parity


class TestPhaseSum:
    @pytest.mark.parametrize("points", [64, 256, 1024])
    @pytest.mark.parametrize("block", PHASE_BLOCKS)
    def test_bitwise_equal_to_fresh_arrays_per_block(self, monkeypatch, block, points):
        # the kept eigenvalues span at least three blocks, so the buffer is
        # reused and its last block is cut short. On 64 points a block holds
        # 1,024 eigenvalues, more than any build_sector block up to
        # MAX_SECTOR_DIM keeps (at most about 1,400), so there the block is
        # lowered to a third of them; on 256 and 1,024 points it is _BLOCK.
        w, weights, parity = _phase_spectrum(block)
        step = min(exact_model._BLOCK // points, (w.size - 1) // 2)
        monkeypatch.setattr(exact_model, "_BLOCK", step * points)
        assert -(-w.size // step) >= 3 and w.size % step
        tau = np.linspace(0.0, math.pi, points)
        got = exact_model._phase_sum(w, weights, parity, tau)
        assert got.dtype == (float if parity is not None else complex)
        assert got.tobytes() == reference_phase_sum(w, weights, parity, tau).tobytes()


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

    @pytest.mark.parametrize("site", [300, 301, 500, 501])
    def test_zero_coupling_splits_the_block(self, monkeypatch, site):
        # a zero b_2k makes B singular, which fails the twisted completeness
        # check; a zero b_2k+1 makes the lambda = 0 eigenvector infinite. So
        # the leading site + 1 rows are solved alone: by the dense half route
        # up to 448 of them, by the twisted one above, and never as the
        # whole block
        h = _zero_coupling(site)
        if site % 2:
            with pytest.raises(FloatingPointError, match="divide by zero"):
                exact_model._positive_half(h.off_diagonal, 0)
        calls, half = [], exact_model._positive_half
        monkeypatch.setattr(exact_model, "_positive_half",
                            lambda b, i: calls.append(b.size + 1) or half(b, i))
        dense = _count_dense_calls(monkeypatch)
        generator = diags([h.off_diagonal, h.off_diagonal], [-1, 1], format="csr")
        starts = np.eye(h.basis.dim, dtype=complex)[:, [0, 1, 300, site + 1]]
        psi = expm_multiply(-1j * generator, starts, start=0.0, stop=TAU_16[-1],
                            num=TAU_16.size, endpoint=True)
        for col, i in enumerate((0, 1, 300, site + 1)):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            np.testing.assert_allclose(got, np.abs(psi[:, 0, col]) ** 2, rtol=0, atol=1e-11,
                                       err_msg=f"i={i}")
        twisted = site + 1 > 448
        assert calls == ([site + 1] * 3 if twisted else [])
        assert len(dense) == (0 if twisted else 3) and max(dense, default=0) <= (site + 2) // 2

    def test_zero_coupling_at_dim_3001_keeps_linear_memory(self, monkeypatch):
        # the dense fallback of the whole block took 144 MB and about three
        # times a normal solve's time; split at site 2000, its leading 2001
        # rows take the twisted half route, and rows past 2000 give 0
        plain = build_sector(10**6, 3000)
        off = plain.off_diagonal.copy()
        off[2000] = 0.0
        h = SectorHamiltonian(plain.basis, plain.diagonal, off)
        tau = np.linspace(0.0, math.pi, 256)
        dense = _count_dense_calls(monkeypatch)
        tracemalloc.start()
        try:
            exact_projection_probability(h, h.basis.states[1000], tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        times = {"plain": [], "split": []}
        for _ in range(3):
            for name, block in (("plain", plain), ("split", h)):
                start = time.perf_counter()
                exact_projection_probability(block, block.basis.states[1000], tau)
                times[name].append(time.perf_counter() - start)
        assert min(times["split"]) < 1.5 * min(times["plain"])
        want = _row_zero_oracle(h, TAU_16)
        for i in (0, 1, 1000, 2000, 2001, 3000):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            np.testing.assert_allclose(got, want[:, i], rtol=0, atol=1e-11, err_msg=f"i={i}")
        assert dense == []

    def test_overflowing_square_is_scaled_away(self, monkeypatch):
        # b^2 overflows, so the block is solved scaled by a power of two: on
        # the half-spectrum route, with no dense eigendecomposition and no
        # sterf eigenvalues
        def no_sterf(*args, **kwargs):
            raise AssertionError("took the general route")

        h = _huge_couplings()
        with pytest.raises(FloatingPointError):
            exact_model._positive_half(h.off_diagonal, 0)
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", no_sterf)
        attempts, real = [], exact_model._twisted_weights
        monkeypatch.setattr(exact_model, "_twisted_weights",
                            lambda a, b, i, *rest: attempts.append(i) or real(a, b, i, *rest))
        dense = _count_dense_calls(monkeypatch)
        for i in (0, 1, 300):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16 * 1e-160).values
            want = exact_projection_probability(RESONANT["dim-601"](), h.basis.states[i], TAU_16)
            np.testing.assert_allclose(got, want.values, rtol=0, atol=1e-11, err_msg=f"i={i}")
        assert (attempts, dense) == ([0, 0, 1, 1, 300, 300], [])

    def test_tiny_couplings_are_scaled_up(self, monkeypatch):
        # couplings of 1e-160, whose squares underflow, on TAU_16 * 1e160
        # have the probabilities of the unscaled block
        plain = RESONANT["dim-601"]()
        h = SectorHamiltonian(plain.basis, plain.diagonal, plain.off_diagonal * 1e-160)
        dense = _count_dense_calls(monkeypatch)
        for i in (0, 1, 300):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16 * 1e160).values
            want = exact_projection_probability(plain, h.basis.states[i], TAU_16).values
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11, err_msg=f"i={i}")
        assert dense == []

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

    @pytest.mark.parametrize("failure,twisted", [
        ("completeness", True),  # the twisted check fails
        ("dpteqr", False),  # the eigenvalues fail
    ])
    def test_failed_route_goes_straight_to_dense(self, monkeypatch, failure, twisted):
        # a failed half spectrum is not retried as the whole spectrum: at
        # most one twisted attempt per call, and no sterf eigenvalues
        def no_sterf(*args, **kwargs):
            raise AssertionError("took the general route")

        h = RESONANT["dim-601"]()
        if failure == "completeness":
            monkeypatch.setattr(exact_model, "_COMPLETENESS_TOL", -1.0)
        else:
            real_dpteqr = lapack.dpteqr
            monkeypatch.setattr(lapack, "dpteqr", lambda *args: (*real_dpteqr(*args)[:3], 1))
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", no_sterf)
        attempts, real = [], exact_model._twisted_weights
        monkeypatch.setattr(exact_model, "_twisted_weights",
                            lambda a, b, i, *rest: attempts.append(i) or real(a, b, i, *rest))
        dense = _count_dense_calls(monkeypatch)
        for i in (0, 1, 300):
            exact_projection_probability(h, h.basis.states[i], TAU_16)
        assert attempts == ([0, 1, 300] if twisted else [])
        assert dense == [601] * 3


def _two_wells(dim):
    """A concave diagonal over dim rows, unit couplings: the split classical
    region that fails the twisted completeness check."""
    diag = -0.002 * (np.arange(dim) - 300.0) ** 2
    return SectorHamiltonian(SectorBasis(dim - 1, dim - 1), diag, np.ones(dim - 1))


class TestDenseFallbackCap:
    """A block whose twisted route fails takes the dense eigenvectors only
    up to 2001 rows; a larger one raises a ValueError that names it."""

    def test_failed_block_at_the_cap_falls_back(self, monkeypatch):
        assert exact_model._FALLBACK_MAX_DIM == 2001
        h = _two_wells(2001)
        dense = _count_dense_calls(monkeypatch)
        values = exact_projection_probability(h, h.basis.states[1], TAU_16).values
        assert dense == [2001]
        assert np.all((values >= 0.0) & (values <= 1.0 + 1e-12))

    def test_failed_block_above_the_cap_names_its_dimension(self, monkeypatch):
        dense = _count_dense_calls(monkeypatch)
        with pytest.raises(ValueError, match=r"^the block of dimension 2002 failed its twisted "
                                             r"route \(twisted eigenvectors miss their first-row "
                                             r"mass by [\d.e+-]+\), and its dense eigenvectors "
                                             "are formed only up to dimension 2001$"):
            exact_projection_probability(_two_wells(2002), (1, 2000), TAU_16)
        assert dense == []

    def test_failed_dpteqr_above_the_cap_names_it(self, monkeypatch):
        real = lapack.dpteqr
        monkeypatch.setattr(lapack, "dpteqr", lambda *args: (*real(*args)[:3], 1))
        h = build_sector(10**6, 3000)
        with pytest.raises(ValueError, match=r"^the block of dimension 3001 failed its twisted "
                                             r"route \(dpteqr failed with info = 1\)"):
            exact_projection_probability(h, h.basis.states[1000], TAU_16)

    def test_cap_applies_to_the_split_block(self):
        # the leading 2002 rows of a dim-3001 block split at site 2001
        h = _two_wells(3001)
        off = h.off_diagonal.copy()
        off[2001] = 0.0
        h = SectorHamiltonian(h.basis, h.diagonal, off)
        with pytest.raises(ValueError, match="^the block of dimension 2002 failed"):
            exact_projection_probability(h, h.basis.states[1], TAU_16)
        assert not exact_projection_probability(h, h.basis.states[2002], TAU_16).values.any()


def _mp_half_spectrum(b, rows):
    """The eigenvalues sigma > 0, ascending, of the zero-diagonal matrix with
    off-diagonal b, and for each i in rows the doubled weights
    2 v[0, k] v[i, k] at +sigma_k and v[0] v[i] at lambda = 0, from a
    40-digit eigendecomposition of B^T B (mpmath's implicit QL, which takes
    only the tridiagonal; a dense one would be O(dim^3) in Python). Over
    even and odd sites the matrix is [[0, B], [B^T, 0]], and an eigenvector
    z of B^T B gives (B z / sigma, z) / sqrt(2) at lambda = sigma; at an
    odd dimension the lambda = 0 vector is x_2k+2 = -x_2k b_2k / b_2k+1 on
    the even sites."""
    with mpmath.workdps(40):
        c = [mpmath.mpf(float(x)) for x in b] + [mpmath.mpf(0)]  # b_j, and 0 past the end
        m = len(c) // 2  # odd sites 2k + 1, z_k
        # (B z)_k at even site 2k is b_2k z_k + b_2k-1 z_k-1
        sites = {0: [(c[0], 0)]}
        for i in rows:
            j = i // 2
            sites[i] = [(1, j)] if i % 2 else [(c[2 * j], j), (c[2 * j - 1], j - 1)]
        need = sorted({j for terms in sites.values() for _, j in terms if 0 <= j < m})
        z = mpmath.matrix(len(need), m)
        for r, j in enumerate(need):
            z[r, j] = 1
        d = [c[2 * k] ** 2 + c[2 * k + 1] ** 2 for k in range(m)]
        tridiag_eigen(mpmath.mp, d, [c[2 * k + 1] * c[2 * k + 2] for k in range(m - 1)] + [0], z)
        sigma = [mpmath.sqrt(x) for x in d]  # d is now ascending, z its vectors' rows

        def x(i, k):  # site i of the +sigma_k eigenvector, times sqrt(2)
            value = sum(f * z[need.index(j), k] for f, j in sites[i] if 0 <= j < m)
            return value if i % 2 else value / sigma[k]

        zero = [mpmath.mpf(1)]
        if len(b) % 2 == 0:  # odd dimension
            for k in range(m):
                zero.append(-zero[-1] * c[2 * k] / c[2 * k + 1])
        norm2 = sum(t * t for t in zero) if len(b) % 2 == 0 else None
        weights = {
            i: (np.array([float(x(0, k) * x(i, k)) for k in range(m)]),
                float(zero[0] * zero[i // 2] / norm2) if norm2 and i % 2 == 0 else 0.0)
            for i in rows
        }
        return np.array([float(t) for t in sigma]), weights


class TestHalfEigenvectors:
    """The dense half route: eigenvectors of the half block of the initial
    index's parity, B B^T or B^T B, for resonant blocks up to dim 448."""

    @pytest.mark.parametrize("N,E", [(4000, 5), (10**5, 20), (10**5, 31), (10**5, 33),
                                     (10**5, 97), (2 * 10**5, 224), (10**6, 448)],
                             ids=["dim-6", "dim-21", "dim-32", "dim-34", "dim-98", "dim-225",
                                  "dim-449"])
    def test_weights_match_mpmath(self, N, E):
        # dims 6 to 225 take the dense half route, numpy's eigh up to dim 32
        # (16 rows) and stevd from dim 34 (17 rows), dim 449 the twisted one,
        # which drops weights below 1e-20 (left at 0 here); the oracle
        # decomposes B^T B, which the dense route does only for odd i
        h = build_sector(N, E)
        rows = [1, 2, E // 2, E - 1]
        sigma, want = _mp_half_spectrum(h.off_diagonal, rows)
        for i in rows:
            w, weights, parity = exact_model._spectrum(np.zeros(h.basis.dim), h.off_diagonal, i)
            assert parity == i % 2 and w[-1] == 0.0
            k = np.argmin(np.abs(sigma[:, None] - w[None, :-1]), axis=0)
            assert np.unique(k).size == k.size
            np.testing.assert_allclose(w[:-1], sigma[k], rtol=0, atol=1e-12, err_msg=f"i={i}")
            placed = np.zeros(sigma.size)
            placed[k] = weights[:-1]
            np.testing.assert_allclose(placed, want[i][0], rtol=0, atol=1e-13, err_msg=f"i={i}")
            assert weights[-1] == pytest.approx(want[i][1], rel=0, abs=1e-13), i

    @pytest.mark.parametrize("E", [300, 301], ids=["dim-301", "dim-302"])
    @pytest.mark.parametrize("site", [0, 1, 150, 151])
    def test_zero_coupling_matches_expm_multiply(self, monkeypatch, E, site):
        # a dense eigendecomposition needs no connected block, unlike the
        # twisted one, so the route stands where the twisted one falls back
        h = build_sector(10**6, E)
        off = h.off_diagonal.copy()
        off[site] = 0.0
        h = SectorHamiltonian(h.basis, h.diagonal, off)
        dense = _count_dense_calls(monkeypatch)
        indices = [0, 1, 2, 150, 151, E]
        generator = diags([off, off], [-1, 1], format="csr")
        starts = np.eye(h.basis.dim, dtype=complex)[:, indices]
        psi = expm_multiply(-1j * generator, starts, start=0.0, stop=TAU_16[-1],
                            num=TAU_16.size, endpoint=True)
        for col, i in enumerate(indices):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            np.testing.assert_allclose(got, np.abs(psi[:, 0, col]) ** 2, rtol=0, atol=1e-11,
                                       err_msg=f"i={i}")
        assert h.basis.dim not in dense  # only half blocks, no fallback

    @pytest.mark.parametrize("dim", [10, 11])
    def test_uncoupled_block_splits_at_site_0(self, monkeypatch, dim):
        # with no coupling at all every sigma is exactly zero, and an odd i,
        # whose row 0 is b_0 y_0 / sigma, would fail the route; the block
        # splits at site 0 instead, so row 0 is a block of its own, solved
        # once, and cos(0 tau) = 1, while every other row gives 0
        h = SectorHamiltonian(SectorBasis(dim - 1, dim - 1), np.zeros(dim), np.zeros(dim - 1))
        with pytest.raises(FloatingPointError, match="invalid value"):
            exact_model._half_eigenvectors(h.off_diagonal, 1)
        dense = _count_dense_calls(monkeypatch)
        for i in range(dim):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16).values
            np.testing.assert_array_equal(got, np.full(TAU_16.size, float(i == 0)))
        assert dense == [1]

    def test_overflowing_square_is_scaled_away(self, monkeypatch):
        # couplings scaled by 1e160, where b^2 overflows; on TAU_16 * 1e-160
        # the probabilities are those of the unscaled block, from the half
        # blocks of the block scaled by a power of two
        plain = build_sector(10**6, 300)
        h = SectorHamiltonian(plain.basis, plain.diagonal, plain.off_diagonal * 1e160)
        with pytest.raises(FloatingPointError, match="overflow"):
            exact_model._half_eigenvectors(h.off_diagonal, 0)
        dense = _count_dense_calls(monkeypatch)
        for i in (0, 1, 150):
            got = exact_projection_probability(h, h.basis.states[i], TAU_16 * 1e-160).values
            want = exact_projection_probability(plain, h.basis.states[i], TAU_16).values
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-11, err_msg=f"i={i}")
        assert dense == [151, 151, 150, 150, 151, 151]  # each call's half block, and its twin's

    def test_vacuum_sector(self):
        # dim 1: B B^T is the 1 x 1 zero, all of it the lambda = 0 vector
        w, weights, parity = exact_model._half_eigenvectors(np.zeros(0), 0)
        assert (w.tolist(), weights.tolist(), parity) == ([0.0], [1.0], 0)
        trace = exact_projection_probability(build_sector(37, 0), (0, 0), TAU_16)
        np.testing.assert_array_equal(trace.values, np.ones(TAU_16.size))


def _imports_scipy_linalg(*args):
    """Whether `python ARGS` in a fresh interpreter imports scipy.linalg,
    read off the -X importtime lines on its stderr."""
    src = str(pathlib.Path(exact_model.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return any(line.startswith("import time:") and line.rsplit("|", 1)[-1].strip()
               == "scipy.linalg" for line in done.stderr.splitlines())


def _solve(N, E, i, omega=1.0):
    return ("-c", "import numpy as np; from photonamp.exact_model import *; "
                  f"h = build_sector({N}, {E}, omega={omega}); "
                  f"exact_projection_probability(h, h.basis.states[{i}], np.linspace(0, 3, 257))")


class TestScipyLinalgImport:
    """numpy's eigh solves blocks of up to 16 rows, so only a larger block,
    or a twisted route, imports scipy.linalg."""

    @pytest.mark.parametrize("args,loads", [
        (("-c", "import photonamp"), False),
        (("-m", "photonamp", "exact-compare"), False),
        (_solve(1000, 31, 0), False),
        (_solve(1000, 31, 1), False),
        (_solve(1000, 15, 1, omega=1.3), False),
        (_solve(1000, 33, 17), True),
        (_solve(1000, 16, 1, omega=1.3), True),
    ], ids=["import", "exact-compare", "half-block-16-even", "half-block-16-odd",
            "detuned-dim-16", "half-block-17", "detuned-dim-17"])
    def test_only_blocks_past_16_rows_import_it(self, args, loads):
        assert _imports_scipy_linalg(*args) == loads


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

    @pytest.mark.parametrize("N_atoms,n_e,n,name", [
        (10**6, 10**4, 1, "n_e"), (10**6, 1, 10**4, "n"), (10**4 + 1, 10**4, 10**4, "N_atoms")])
    def test_dimension_past_the_bound_names_an_argument(self, N_atoms, n_e, n, name):
        # build_sector's own message names E, which is not an argument here
        with pytest.raises(ValueError, match=f"^{name} must be small enough that the sector "
                                             r"dimension min\(N_atoms, n_e \+ n\) \+ 1 is at "
                                             "most 10001, got 10002$"):
            hp_deviation(N_atoms, n_e, n, np.array([0.0, 1.0]))

    def test_regression_baseline_three_two(self):
        dev = hp_deviation(4000, 3, 2, TAU_256)
        assert dev <= 0.02
        assert dev == pytest.approx(DEV_3_2_N4000, rel=0.05)

    def test_agreement_tracks_closed_form_everywhere(self):
        h = build_sector(4000, 5)
        exact = exact_projection_probability(h, (3, 2), TAU_256).values
        closed = ground_projection_probabilities(3, 2, TAU_256)
        assert np.max(np.abs(exact - closed)) <= 0.02
