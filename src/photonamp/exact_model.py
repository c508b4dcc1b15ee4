"""Exact finite-N solver for one excitation sector of the collective model.

The full Hamiltonian

    H = omega * a'a + omega0 * S_z + (g/sqrt(N)) * (S+ a + S- a')

conserves a'a + S_z + N/2, so each total-excitation value E spans a block
of dimension min(N, E) + 1 with basis |n_e; n = E - n_e>. Energies here
are in units of g and times in units of 1/g: a block is H/g, with omega
and omega0 standing for omega/g and omega0/g, and it evolves in the scaled
time tau = g*t. Within a block the matrix is real symmetric tridiagonal:
the diagonal holds the energies omega * n + omega0 * n_e above the
all-ground state (the constant -omega0 * N/2 of S_z is a global phase,
left out so no entry rounds at size N) and the raising/lowering terms
couple neighbors (n_e, n) <-> (n_e + 1, n - 1) with element
sqrt(n * (N - n_e) * (n_e + 1) / N) in the symmetric S = N/2 sector.

This module is the finite-N reference against which the bosonized
beam-splitter picture is checked: `hp_deviation` measures how far the
exact ground-projection probability sits from the closed binomial form,
which shrinks like O(1/N).

The projection probability needs only the products v[0, k] * v[i, k] of
two rows of the eigenvector matrix. Blocks of dimension above
_DENSE_MAX_DIM (224) get them without the eigenvectors: LAPACK's
eigenvalues plus one twisted factorization per eigenvalue, in O(dim)
memory and O(dim^2) time, each pivot pass ending at its last twist and the
top-down one retiring, every 32 sites, eigenvalues whose weight bound has
fallen below 1e-20.
Smaller blocks use LAPACK's dense eigenvectors, which are faster there. At
resonance the spectrum comes in +-lambda pairs, and large blocks whose
centred diagonal is exactly zero (omega = omega0 = 1) solve only its
positive half. `_spectrum` is the one place that picks among the three
routes, and a route that fails falls back to the dense eigenvectors.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .hp_model import ground_projection_probabilities
from .numerics import _require_finite, _require_whole, _too_large
from .traces import ProbabilityTrace

__all__ = [
    "SectorBasis",
    "SectorHamiltonian",
    "build_sector",
    "eigensystem",
    "exact_projection_probability",
    "hp_deviation",
]

# Blocks up to this dimension take LAPACK's dense eigenvectors, larger ones
# the twisted factorizations. Median of 41 interleaved calls, 256-point grid,
# N = 2e5, one BLAS thread on a 2-vCPU Xeon, twisted against dense, in ms:
# general route (omega = 1.3) 4.8/3.9 at dim 151, 4.2/4.2 at 200, 4.1/4.3 at
# 216, 4.3/4.5 at 224, 4.5/4.8 at 232, 5.0/5.6 at 257, 6.2/7.4 at 301, where
# the twisted route won 21, 33, 38, 38 and 40 of 41 calls from dim 200 up;
# resonant half-spectrum route 1.4/2.2 at 151, 3.7/13.9 at 440. One cutoff at
# the general crossover serves both; below it the resonant route gains under
# 2 ms a call.
_DENSE_MAX_DIM = 224
# The phase sum takes the eigenvalues in blocks of _BLOCK // len(tau), so
# its complex temporaries hold about this many elements.
_BLOCK = 1 << 16
# A twisted-factorization weight x_0 x_i / |x|^2 is at most |x_0/x_j| at any
# site j, since |x| >= |x_j|; eigenvalues where that is below this, at a
# retirement site of the top-down pass or at the twist, are dropped. Their
# weights move an amplitude by less than dim * 1e-20, but the phase sum over
# fewer terms also rounds differently, by a few units in the last place.
_NEGLIGIBLE = 1e-20
# Allowed |sum_k v[0, k]^2 - 1| of the twisted eigenvectors; the tested
# build_sector blocks, dim 451 to 10^4, stay below 2e-14.
_COMPLETENESS_TOL = 1e-10
# Largest allowed phase error bound eps * |H_centred| * max|tau|; the
# tested blocks and the benchmark's grids stay below 1e-11.
_PHASE_TOL = 1e-8
# Largest sector dimension min(N_atoms, E) + 1 that build_sector builds. At
# this bound one resonant solve on a 256-point grid takes 0.51 s and peaks
# at 3.1 MB by tracemalloc (a detuned one 1.8 s), on a 2-vCPU Xeon with one
# BLAS thread; the time grows as dim^2 (1.8 s resonant at dim 20001).
MAX_SECTOR_DIM = 10**4 + 1


@dataclass(frozen=True)
class SectorBasis:
    """Ordered basis of one conserved-excitation block.

    states[k] = (n_e, n) with n_e = k ascending and n = E - n_e; the
    collective ground state with every quantum radiated is states[0].
    """

    N_atoms: int
    total_excitation: int

    def __post_init__(self) -> None:
        N, E = _require_whole(N_atoms=self.N_atoms, total_excitation=self.total_excitation)
        object.__setattr__(self, "N_atoms", N)
        object.__setattr__(self, "total_excitation", E)

    @property
    def dim(self) -> int:
        return min(self.N_atoms, self.total_excitation) + 1

    @property
    def states(self) -> tuple[tuple[int, int], ...]:
        """Every (n_e, n) of the block, built on read."""
        E = self.total_excitation
        return tuple((n_e, E - n_e) for n_e in range(self.dim))

    def index_of(self, n_e: int, n: int) -> int:
        """Position of |n_e; n> in the block; raises if outside it."""
        n_e, n = _require_whole(n_e=n_e, n=n)
        if n_e + n != self.total_excitation or n_e >= self.dim:
            raise ValueError(
                f"state (n_e={n_e}, n={n}) is not in the sector with "
                f"E={self.total_excitation}, N={self.N_atoms}"
            )
        return n_e


@dataclass(frozen=True)
class SectorHamiltonian:
    """Real symmetric tridiagonal block, in units of g; off_diagonal[k]
    couples basis states k and k+1. The arrays must be finite and of
    lengths dim and dim - 1, and are frozen after construction."""

    basis: SectorBasis
    diagonal: np.ndarray
    off_diagonal: np.ndarray

    def __post_init__(self) -> None:
        diag = np.asarray(self.diagonal, dtype=float)
        off = np.asarray(self.off_diagonal, dtype=float)
        dim = self.basis.dim
        for name, array, size in (("diagonal", diag, dim), ("off_diagonal", off, dim - 1)):
            if array.shape != (size,):
                raise ValueError(f"{name} must have shape ({size},) for a basis of "
                                 f"dimension {dim}, got {array.shape}")
        _require_finite(diagonal=diag, off_diagonal=off)
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
    N_atoms: int, E: int, omega: float = 1.0, omega0: float = 1.0
) -> SectorHamiltonian:
    """Assemble the excitation-E block for N_atoms in the symmetric spin
    sector S = N/2, with omega and omega0 in units of g.

    Diagonal entries are omega*n + omega0*n_e, the energies above the
    all-ground state, without the global phase -omega0*N/2, so detuned
    entries carry no rounding of size eps*N; the coupling between (n_e, n)
    and (n_e+1, n-1) combines the photon annihilation sqrt(n) with the
    collective raising element sqrt((N - n_e)(n_e + 1)), scaled by
    1/sqrt(N). The product is taken under a single square root so sectors
    where the coupling is exactly 1 (E <= 1) come out bit-exact for any N.
    A dimension min(N_atoms, E) + 1 above MAX_SECTOR_DIM raises a
    ValueError naming the smaller count, before anything is allocated.
    """
    N_atoms, E = _require_whole(N_atoms=N_atoms, E=E)
    _require_finite(omega=omega, omega0=omega0)
    basis = SectorBasis(N_atoms=N_atoms, total_excitation=E)
    if basis.dim > MAX_SECTOR_DIM:
        raise _too_large("E" if E <= N_atoms else "N_atoms",
                         f"the sector dimension min(N_atoms, E) + 1 is at most "
                         f"{MAX_SECTOR_DIM}, got {basis.dim}")
    n_e = np.arange(basis.dim, dtype=float)
    k = n_e[:-1]
    with np.errstate(over="raise"):
        try:  # a count past the float range; dim = min(N, E) + 1 is small, so the larger one
            N, n = float(N_atoms), float(E) - n_e
            coupling = np.sqrt(n[:-1] * (N - k) * (k + 1.0) / N)
        except (OverflowError, FloatingPointError):
            raise _too_large("N_atoms" if N_atoms > E else "E",
                             "the sector's couplings stay finite") from None
        try:
            diagonal = omega * n + omega0 * n_e
        except FloatingPointError:
            raise _too_large("omega" if abs(omega) >= abs(omega0) else "omega0",
                             "the sector's diagonal stays finite") from None
    return SectorHamiltonian(basis=basis, diagonal=diagonal, off_diagonal=coupling)


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
    w, v = eigh_tridiagonal(h.diagonal - shift, h.off_diagonal)
    return w + shift, v


def _deepest_sites(w: np.ndarray, a: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """argmin_j |w_k - a_j| - reach_j for every w_k, in O(dim log dim).

    A site with a_j <= w scores w - (a_j + reach_j) and one with a_j > w
    scores (a_j - reach_j) - w, so the best site of each kind is a running
    extreme over the sites sorted by a_j, from the low end or the high end.
    """
    order = np.argsort(a, kind="stable")
    pos = np.arange(a.size)

    def running_argmin(score):  # latest position of the running minimum
        return np.maximum.accumulate(np.where(score == np.minimum.accumulate(score), pos, 0))

    below = order[running_argmin(-(a + reach)[order])]
    desc = order[::-1]
    above = desc[running_argmin((a - reach)[desc])][::-1]
    k = np.searchsorted(a[order], w, side="right")  # sites with a_j <= w
    sites = np.array([below[np.maximum(k - 1, 0)], above[np.minimum(k, a.size - 1)]])
    score = np.abs(w - a[sites]) - reach[sites]
    return sites[np.argmin(score, axis=0), np.arange(w.size)]


def _pivot_pass(
    a: np.ndarray, b: np.ndarray, w: np.ndarray, stop: np.ndarray, i: int, retire: bool = True
):
    """Top-down LDL^T pivots of the tridiagonal T - w_k (diagonal a,
    off-diagonal b) for every w_k at once, each from index 0 to stop_k + 1,
    with stop sorted ascending in -1..n-1. Returns, shape (2, 4, w.size),
    (d_j, sum_{k<j} (x_k/x_j)^2, x_0/x_j, x_i/x_j) at j = stop_k (NaN for
    stop_k = -1) and at j = stop_k + 1 (j = n - 1 for stop_k = n - 1);
    x_i/x_j is 0 before j = i. The loop ends at the last stop_k + 1, since
    no state steps past it.

    With retire, every 32 sites the states with |x_0/x_j| < _NEGLIGIBLE
    stop early and hold their values at that j in both outputs: since
    |x| >= |x_j|, the weight x_0 x_i / |x|^2 is at most |x_0/x_j| at every
    j. A stable partition moves them left of the running columns, which
    stay sorted by stop_k. Without retire (the reversed pass, whose x_0/x_j
    nobody reads) every state runs to its stop.

    The loop runs under np.errstate(divide="raise", invalid="raise"). A
    zero pivot, the divide's FloatingPointError, is replaced by one
    rounding unit of the matrix norm, a backward-stable change of one
    element; any other invalid operation (inf * 0 or inf - inf, after an
    overflow) leaves the pass as a FloatingPointError.
    """
    n = a.size
    pivmin = np.finfo(float).eps * (np.abs(a).max() + np.abs(b).max())
    last = min(int(stop.max(initial=-1)) + 1, n - 1)
    first = np.searchsorted(stop, np.arange(last + 2)).tolist()  # first column with stop_k >= j
    a_next = a[1:].tolist() if a.any() else None  # a zero diagonal adds nothing
    b_list = b.tolist()
    cols = np.arange(w.size)  # the state held in each column
    w_cols = w
    cur = np.zeros((4, w.size))
    cur[0] = a[0] - w
    cur[2] = 1.0
    at_stop = np.full((4, w.size), np.nan)
    ratio = np.empty(w.size)
    lo = -1
    with np.errstate(divide="raise", invalid="raise"):
        for j in range(last + 1):
            if j == i:  # every state still running, stop_k >= i - 1
                cur[3, first[i - 1] if i else 0:] = 1.0
            if retire and j % 32 == 0:
                run = first[j]
                gone = np.abs(cur[2, run:]) < _NEGLIGIBLE
                if gone.any():  # move them left of the running states, in order
                    order = run + np.argsort(~gone, kind="stable")
                    cols[run:], cur[:, run:] = cols[order], cur[:, order]
                    live = run + int(np.count_nonzero(gone))  # first running column
                    at_stop[:, run:live] = cur[:, run:live]
                    w_cols = w[cols]  # first[j] moves right, so the views are re-sliced
                    sites = np.arange(j, last + 2)
                    first[j:] = (live + np.searchsorted(stop[cols[live:]], sites)).tolist()
            if first[j] < first[j + 1]:
                at_stop[:, first[j]:first[j + 1]] = cur[:, first[j]:first[j + 1]]
            if j == last:
                break
            # step the states with stop_k >= j to j + 1; the others stay frozen
            if first[j] != lo or j == i:
                lo = first[j]
                d, s, f, w_lo = cur[0, lo:], cur[1, lo:], ratio[lo:], w_cols[lo:]
                x = cur[1:4 if j >= i else 3, lo:]  # s, x_0/x_j, and x_i/x_j from j = i
            try:
                np.divide(-b_list[j], d, out=f)  # x_j / x_{j+1}
            except FloatingPointError:  # a zero pivot: one rounding unit of the norm instead
                d[d == 0.0] = pivmin
                np.divide(-b_list[j], d, out=f)
            s += 1.0
            x *= f
            s *= f
            np.multiply(f, b_list[j], out=d)
            if a_next is not None:
                d += a_next[j]
            d -= w_lo
    out = np.empty((2, 4, w.size))
    out[..., cols] = at_stop, cur
    return out


def _twisted_weights(
    a: np.ndarray, b: np.ndarray, i: int, w: np.ndarray, mass: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w_k of the tridiagonal matrix T with diagonal a and
    nonzero off-diagonal b (all of them, or one half of the spectrum),
    and the products v[0, k] * v[i, k] of its unit eigenvectors, in O(dim)
    memory. Raises FloatingPointError, with the residual, when the computed
    first components miss sum_k v[0, k]^2 = mass, which is 1 for the whole
    spectrum.

    Each eigenvector x solves a twisted factorization of T - w_k
    (Dhillon & Parlett, SIMAX 25 (2004) 858): with x_r = 1 at the twist r,
    the top-down LDL^T pivots d_j give x_j = -b_j x_{j+1} / d_j above r and
    the bottom-up pivots p_j give x_j = -b_{j-1} x_{j-1} / p_j below it.
    The bottom-up pass is the top-down `_pivot_pass` of the reversed block.
    Each pass carries x_0/x_j, x_i/x_j and the partial sum of (x_k/x_j)^2,
    so the weight x_0 x_i / |x|^2 needs no vector; for i = 0 it is the
    squared first component of Golub & Welsch (1969). The top-down pass
    retires eigenvalues whose bound |x_0/x_j| on the weight falls below
    _NEGLIGIBLE; a floating-point fault in either pass propagates as a
    FloatingPointError. The twist is the deepest point of the eigenvalue's
    classical region, argmin_j |w - a_j| - (b_{j-1} + b_j), or the next
    index where that has the smaller twist element
    gamma = d_r + p_r - (a_r - w), that is the larger |x_r|. The
    eigenvalues come back sorted by their twist, so each step of a pass
    works on one contiguous slice.
    """
    n = a.size
    reach = np.abs(np.append(b, 0.0)) + np.abs(np.append(0.0, b))  # b_j + b_{j-1}
    r = _deepest_sites(w, a, reach)
    order = np.argsort(r, kind="stable")
    w, r = w[order], r[order]
    top = _pivot_pass(a, b, w, r, i)  # at r and at r + 1
    # |weight| <= |x_0/x_j|: drop those retired or below _NEGLIGIBLE at either twist
    keep = np.abs(top[:, 2]).max(axis=0) >= _NEGLIGIBLE
    w, r, top = w[keep], r[keep], top[..., keep]
    # the reversed block's index n - 2 - r is r + 1, and n - 1 - r is r
    bot = _pivot_pass(a[::-1], b[::-1], w[::-1], n - 2 - r[::-1], n - 1 - i, retire=False)
    bot = bot[::-1, :, ::-1]
    twist = r + np.arange(2)[:, None]
    (d, s, x0, xi), (p, t, _, yi) = top.swapaxes(0, 1), bot.swapaxes(0, 1)
    gamma = np.abs(d + p - (a[np.minimum(twist, n - 1)] - w))
    norm = np.sqrt(s + 1.0 + t)
    # x_i/x_j starts at j = i, so x_i/x_twist comes from the top-down pass
    # for i <= twist and from the bottom-up pass for i >= twist
    v = np.array([x0, np.where(i <= twist, xi, yi)]) / norm
    v0, vi = np.where(gamma[1] < gamma[0], v[:, 1], v[:, 0])
    # sum_k v[0, k]^2 = 1 for an orthonormal basis; eigenvectors twisted
    # where they vanish (a zero coupling, or a classical region in two
    # pieces) break it, and the caller falls back to the dense route
    residual = abs(np.dot(v0, v0) - mass)
    if not residual <= _COMPLETENESS_TOL:
        raise FloatingPointError(f"twisted eigenvectors miss their first-row mass "
                                 f"by {residual:.3g}")
    return w, v0 * vi


def _positive_half(b: np.ndarray, i: int) -> tuple[np.ndarray, float, float]:
    """Eigenvalues lambda > 0 of the tridiagonal matrix with zero diagonal
    and off-diagonal b, and v[0] v[i] and v[0]^2 of its lambda = 0 unit
    eigenvector (0 for an even dimension). Raises FloatingPointError where
    B^T B or that vector overflows or divides by a zero b_2k+1, or where
    dpteqr fails. Over even and odd sites the matrix is [[0, B], [B^T, 0]],
    so lambda are the singular values of the bidiagonal B (Golub & Kahan
    1965), the roots of the eigenvalues of B^T B, diagonal b_2k^2 + b_2k+1^2
    and off-diagonal b_2k+1 b_2k+2. The lambda = 0 vector is 0 on odd sites
    and x_2k+2 = -x_2k b_2k / b_2k+1.
    """
    from scipy.linalg.lapack import dpteqr  # deferred, as in eigensystem

    c = np.append(b, 0.0)  # b_k, and 0 past the end
    even, odd = c[0:b.size:2], c[1:b.size + 1:2]  # b_2k and b_2k+1 by column of B
    x = np.zeros(0)  # the lambda = 0 eigenvector on the even sites, x_0 = 1
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        d, e = even ** 2 + odd ** 2, odd[:-1] * even[1:]
        if b.size % 2 == 0:  # odd dimension
            x = np.cumprod(np.append(1.0, -even / odd))
        norm2 = np.dot(x, x)
    sigma2, _, _, info = dpteqr(d, e, np.zeros((1, 1)))
    if info != 0:
        raise FloatingPointError(f"dpteqr failed with info = {info}")
    if x.size == 0:
        return np.sqrt(sigma2), 0.0, 0.0
    return np.sqrt(sigma2), x[i // 2] / norm2 if i % 2 == 0 else 0.0, 1.0 / norm2


def _spectrum(centred: SectorHamiltonian, i: int) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Eigenvalues w_k of a block centred on its mean diagonal, the weights
    v[0, k] v[i, k] of its unit eigenvectors, and the parity: None for the
    whole spectrum, i % 2 for the half lambda >= 0 of a +-lambda spectrum.

    Blocks of dimension up to _DENSE_MAX_DIM (224) take the weights from
    `eigensystem`; larger ones from eigenvalues and twisted factorizations
    (`_twisted_weights`), without the dim x dim eigenvector matrix. A block
    with an exactly zero centred diagonal (every build_sector block with
    omega = omega0 = 1) twists only its eigenvalues lambda > 0, from
    `_positive_half`: the weight at -lambda is (-1)^i times that at lambda,
    so the weights double and lambda = 0 is appended with its own weight,
    checked by 2 sum_k v[0, k]^2 + v_0(0)^2 = 1, v_0(0) at lambda = 0.
    Every other block twists the eigenvalues of LAPACK's sterf. Either
    route reports a failure as a FloatingPointError, which `_spectrum`
    catches in one place and answers with the dense eigenvectors:
    `_positive_half` raises where b^2 overflows (couplings past about
    1e154) or a zero coupling makes its lambda = 0 vector infinite, and
    `_twisted_weights` on a floating-point fault or a failed completeness
    check, seen only on hand-built blocks with a zero coupling or a split
    classical region.

    Both twisted routes are limited by the rounding of the eigenvalues,
    about eps * |H| * tau in each phase. On blocks of dimension 451 to
    651 the general route and the dense one agree within 1e-11 (worst
    4.5e-12, for a strongly detuned block, omega = 50 and omega0 = 2, at
    tau = 3) and each lies within 4e-13 of a 40-digit eigendecomposition
    where one was made; from dim 225 to 512 the general route lies within
    1e-13 of dense expm. The half-spectrum and the general route agree
    within 1e-13 on blocks of dim 225 to 512 and 4e-13 on blocks of dim
    513 to 3001.
    """
    a, b = centred.diagonal, centred.off_diagonal
    if centred.basis.dim > _DENSE_MAX_DIM:
        try:
            if not a.any():
                w, zero_weight, zero_mass = _positive_half(b, i)
                w, weights = _twisted_weights(a, b, i, w, (1.0 - zero_mass) / 2.0)
                return np.append(w, 0.0), np.append(2.0 * weights, zero_weight), i % 2
            from scipy.linalg import eigvalsh_tridiagonal  # deferred, as in eigensystem

            w = eigvalsh_tridiagonal(a, b, lapack_driver="sterf")
            return (*_twisted_weights(a, b, i, w), None)
        except FloatingPointError:  # a failed route: the dense eigenvectors below
            pass
    w, v = eigensystem(centred)
    return w, v[0, :] * v[i, :], None


def exact_projection_probability(
    h: SectorHamiltonian,
    initial: tuple[int, int],
    tau_grid: np.ndarray,
) -> ProbabilityTrace:
    """Ground-projection probability |<0; E| exp(-i H tau) |n_e; n>|^2
    on a grid of scaled times tau = g*t, with H in units of g.

    The target is the all-atoms-ground state carrying every quantum as a
    photon. The amplitude is sum_k v[0, k] v[i, k] exp(-i w_k tau) over
    the eigenpairs of the block centred on its mean diagonal, from
    `_spectrum`; over a half spectrum, lambda >= 0, it is a real sum of
    cosines (even i) or sines (odd i). The phases are summed in blocks of
    eigenvalues, so memory stays O(dim + len(tau)) above the dense cutoff.
    A tau_grid that is not finite, or where the bound
    eps * |H_centred| * max|tau| exceeds _PHASE_TOL (1e-8), raises a
    ValueError naming it before any solve.
    """
    n_e0, n0 = initial
    i_init = h.basis.index_of(n_e0, n0)
    tau = np.asarray(tau_grid, dtype=float)
    _require_finite(tau_grid=tau)
    # factor the centred block: the mean diagonal is a global phase, and
    # eigenvalues shifted back by it would carry its rounding
    centred = replace(h, diagonal=h.diagonal - np.mean(h.diagonal))
    a, b = centred.diagonal, centred.off_diagonal
    norm = float(np.abs(a).max() + 2.0 * np.abs(b).max(initial=0.0))  # >= |H_centred|
    tau_max = float(np.abs(tau).max(initial=0.0))
    if not sys.float_info.epsilon * norm * tau_max <= _PHASE_TOL:
        raise ValueError(f"tau_grid must keep the phase error bound eps*|H|*max|tau| "
                         f"within {_PHASE_TOL}, got max|tau| = {tau_max!r}")
    w, weights, parity = _spectrum(centred, i_init)
    # over +-lambda pairs, cosines for even i and sines for odd i
    phase = (np.cos, np.sin)[parity] if parity is not None else lambda x: np.exp(-1j * x)
    step = max(1, _BLOCK // max(tau.size, 1))
    amps = sum(
        weights[k:k + step] @ phase(np.outer(w[k:k + step], tau))
        for k in range(0, w.size, step)
    )
    return ProbabilityTrace(
        tau_grid=tau,
        values=np.abs(amps) ** 2,
        meta={"model": "exact", "N_atoms": h.basis.N_atoms, "n_e": n_e0, "n": n0},
    )


def hp_deviation(
    N_atoms: int,
    n_e: int,
    n: int,
    tau_grid: np.ndarray,
) -> float:
    """Largest pointwise gap between the exact finite-N probability and the
    closed binomial form, at resonance (omega = omega0 = 1).

    Sectors with n_e + n <= 1 are exactly beam-splitter-like for every N,
    so their deviation sits at the floating-point floor.
    """
    N_atoms, n_e, n = _require_whole(N_atoms=N_atoms, n_e=n_e, n=n)
    approx = ground_projection_probabilities(n_e, n, tau_grid)  # names a huge n_e or n
    h = build_sector(N_atoms, n_e + n)
    exact = exact_projection_probability(h, (n_e, n), tau_grid).values
    return float(np.max(np.abs(exact - approx)))
