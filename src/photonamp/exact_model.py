"""Exact finite-N solver for one excitation sector of the collective model.

The full Hamiltonian

    H = omega * a'a + omega0 * S_z + (g/sqrt(N)) * (S+ a + S- a')

conserves a'a + S_z + N/2, so each total-excitation value E spans a block
of dimension min(N, E) + 1 with basis |n_e; n = E - n_e>. Within a block
the matrix is real symmetric tridiagonal: the diagonal holds the bare
energies and the raising/lowering terms couple neighbors (n_e, n) <->
(n_e + 1, n - 1) with element g * sqrt(n * (N - n_e) * (n_e + 1) / N) in
the symmetric S = N/2 sector.

This module is the finite-N reference against which the bosonized
beam-splitter picture is checked: `hp_deviation` measures how far the
exact ground-projection probability sits from the closed binomial form,
which shrinks like O(1/N).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hp_model import ground_projection_probabilities
from .traces import ProbabilityTrace

__all__ = [
    "SectorBasis",
    "SectorHamiltonian",
    "build_sector",
    "eigensystem",
    "exact_projection_probability",
    "hp_deviation",
]


@dataclass(frozen=True)
class SectorBasis:
    """Ordered basis of one conserved-excitation block.

    states[k] = (n_e, n) with n_e = k ascending and n = E - n_e; the
    collective ground state with every quantum radiated is states[0].
    """

    N_atoms: int
    total_excitation: int
    states: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.N_atoms < 1:
            raise ValueError(f"N_atoms must be positive, got {self.N_atoms}")
        if self.total_excitation < 0:
            raise ValueError(f"total excitation must be >= 0, got {self.total_excitation}")
        E = self.total_excitation
        dim = min(self.N_atoms, E) + 1
        object.__setattr__(
            self, "states", tuple((n_e, E - n_e) for n_e in range(dim))
        )

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, n_e: int, n: int) -> int:
        """Position of |n_e; n> in the block; raises if outside it."""
        if n_e + n != self.total_excitation or not 0 <= n_e < self.dim or n < 0:
            raise ValueError(
                f"state (n_e={n_e}, n={n}) is not in the sector with "
                f"E={self.total_excitation}, N={self.N_atoms}"
            )
        return n_e


@dataclass(frozen=True)
class SectorHamiltonian:
    """Real symmetric tridiagonal block; off_diagonal[k] couples basis
    states k and k+1. Arrays are frozen after construction."""

    basis: SectorBasis
    diagonal: np.ndarray
    off_diagonal: np.ndarray
    omega: float
    omega0: float
    g: float

    def __post_init__(self) -> None:
        diag = np.asarray(self.diagonal, dtype=float)
        off = np.asarray(self.off_diagonal, dtype=float)
        if diag.shape != (self.basis.dim,) or off.shape != (self.basis.dim - 1,):
            raise ValueError(
                f"tridiagonal shapes inconsistent with dim {self.basis.dim}: "
                f"{diag.shape}, {off.shape}"
            )
        diag.setflags(write=False)
        off.setflags(write=False)
        object.__setattr__(self, "diagonal", diag)
        object.__setattr__(self, "off_diagonal", off)

    def dense(self) -> np.ndarray:
        """Dense copy, mainly for cross-checks."""
        h = np.diag(self.diagonal)
        idx = np.arange(self.basis.dim - 1)
        h[idx, idx + 1] = self.off_diagonal
        h[idx + 1, idx] = self.off_diagonal
        return h


def build_sector(
    N_atoms: int,
    E: int,
    omega: float = 1.0,
    omega0: float = 1.0,
    g: float = 1.0,
) -> SectorHamiltonian:
    """Assemble the excitation-E block for N_atoms in the symmetric spin
    sector S = N/2.

    Diagonal entries are omega*n + omega0*(n_e - N/2); the coupling between
    (n_e, n) and (n_e+1, n-1) combines the photon annihilation sqrt(n) with
    the collective raising element sqrt((N - n_e)(n_e + 1)), scaled by
    g/sqrt(N). The product is taken under a single square root so sectors
    where the coupling is exactly g (E <= 1) come out bit-exact for any N.
    """
    for name, value in (("omega", omega), ("omega0", omega0), ("g", g)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if g <= 0:
        raise ValueError(f"coupling g must be positive, got {g}")
    basis = SectorBasis(N_atoms=N_atoms, total_excitation=E)
    n_e = np.arange(basis.dim, dtype=float)
    n = E - n_e
    diagonal = omega * n + omega0 * (n_e - N_atoms / 2.0)
    k = n_e[:-1]
    off_diagonal = g * np.sqrt(n[:-1] * (N_atoms - k) * (k + 1.0) / N_atoms)
    return SectorHamiltonian(
        basis=basis,
        diagonal=diagonal,
        off_diagonal=off_diagonal,
        omega=omega,
        omega0=omega0,
        g=g,
    )


def eigensystem(h: SectorHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of the block.

    The diagonal is shifted by its mean before factorization; the shift is
    a global phase under evolution and keeping eigenvalues small avoids
    rounding the fast common phase into the probabilities. Returned
    eigenvalues include the shift back.
    """
    # deferred: scipy.linalg costs several MB at import, and only this needs it
    from scipy.linalg import eigh_tridiagonal

    shift = float(np.mean(h.diagonal))
    if h.basis.dim == 1:
        return np.array([h.diagonal[0]]), np.ones((1, 1))
    w, v = eigh_tridiagonal(h.diagonal - shift, h.off_diagonal)
    return w + shift, v


def exact_projection_probability(
    h: SectorHamiltonian,
    initial: tuple[int, int],
    tau_grid: np.ndarray,
) -> ProbabilityTrace:
    """Ground-projection probability |<0; E| exp(-i H tau/g) |n_e; n>|^2
    on a grid of scaled times (physical time is tau/g).

    Computed by eigen-decomposition of the tridiagonal block; the target is
    the all-atoms-ground state carrying every quantum as a photon.
    """
    n_e0, n0 = initial
    i_init = h.basis.index_of(n_e0, n0)
    tau = np.asarray(tau_grid, dtype=float)
    w, v = eigensystem(h)
    w_centered = w - np.mean(w)  # global phase only; keeps exp arguments small
    weights = v[0, :] * v[i_init, :]
    amps = weights @ np.exp(-1j * np.outer(w_centered, tau / h.g))
    values = np.abs(amps) ** 2
    return ProbabilityTrace(
        tau_grid=tau,
        values=values,
        meta={
            "model": "exact",
            "N_atoms": h.basis.N_atoms,
            "n_e": n_e0,
            "n": n0,
            "omega": h.omega,
            "omega0": h.omega0,
            "g": h.g,
        },
    )


def hp_deviation(
    N_atoms: int,
    n_e: int,
    n: int,
    tau_grid: np.ndarray,
) -> float:
    """Largest pointwise gap between the exact finite-N probability and the
    closed binomial form, at resonance (omega = omega0 = 1, g = 1).

    Sectors with n_e + n <= 1 are exactly beam-splitter-like for every N,
    so their deviation sits at the floating-point floor.
    """
    h = build_sector(N_atoms, n_e + n, omega=1.0, omega0=1.0, g=1.0)
    exact = exact_projection_probability(h, (n_e, n), tau_grid).values
    approx = ground_projection_probabilities(n_e, n, tau_grid)
    return float(np.max(np.abs(exact - approx)))
