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
Smaller blocks use LAPACK's dense eigenvectors, which are faster there:
numpy's for at most _NUMPY_MAX_DIM (16) rows, so small sectors never
import scipy.linalg, and scipy's divide and conquer on the tridiagonal
(stevd) above. At resonance the spectrum comes in +-lambda pairs, and
blocks whose centred diagonal is exactly zero (omega = omega0 = 1) solve
only its positive half, the singular values of a bidiagonal half of the
block: from the dense eigenvectors of a half-size block of at most
_DENSE_MAX_DIM rows (up to dim 448), and by twisted factorizations above.
`_spectrum` is the one place that picks among the routes. Before it does,
a block with a zero coupling is split there and one with entries past
2^500, or all below 2^-500, is scaled by a power of two, both exactly; a
route that still fails falls back to the dense eigenvectors of the block
up to _FALLBACK_MAX_DIM (2001) rows and raises a ValueError above, so no
solve holds a matrix of more than 2001^2 elements.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

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

# The largest matrix whose dense eigenvectors are formed: a block up to this
# dimension, or a half block, at most (dim + 1) // 2 rows, of a resonant one
# up to twice it; larger ones take the twisted factorizations. Median of 41
# interleaved calls, 256-point grid, N = 2e5, one BLAS thread on a 2-vCPU
# Xeon, twisted against dense, in ms: general route (omega = 1.3) 4.8/3.9 at
# dim 151, 4.2/4.2 at 200, 4.1/4.3 at 216, 4.3/4.5 at 224, 4.5/4.8 at 232,
# 5.0/5.6 at 257, 6.2/7.4 at 301, where the twisted route won 21, 33, 38, 38
# and 40 of 41 calls from dim 200 up. Resonant, i = E // 3, the half block's
# dense eigenvectors against twisted (whole-block dense eigenvectors in
# brackets): 0.49/0.89 (1.44) at dim 98, 1.69/3.04 (5.8) at 225, 2.05/2.66
# at 351, 3.08/3.46 (11.8) at 448, winning 40 or 41 of 41 calls at each of
# seven dims from 98 to 448; on a 64-point grid 0.33/0.72 at 98 and
# 2.72/3.13 at 448. One cutoff keeps the largest eigenvector matrix at 224^2
# on every route; only the fallback of a failed one goes further, up to
# _FALLBACK_MAX_DIM.
_DENSE_MAX_DIM = 224
# The largest block whose eigenvectors come from numpy's LAPACK (dsyevd on
# the dense matrix), which numpy loads anyway; larger ones take scipy's
# eigh_tridiagonal, whose default LAPACK routine is stevd, divide and
# conquer on the tridiagonal. Median of 3,000 interleaved `eigensystem`
# calls on resonant half blocks, one BLAS thread on a 2-vCPU Xeon, numpy
# against stevd, in us: 32.4/36.5 at 2 rows, 40.6/43.4 at 8, 63.2/63.7 at
# 16, 63.6/64.1 at 17, 77.9/77.6 at 20, 67.2/67.7 at 24, 87.3/87.1 at 32 and
# 151.4/124.2 at 40; numpy won 80 % of the calls at 2 rows, 51 % at 16 and
# 17, 45-48 % from 20 to 32 and 5 % at 40. From 16 to 20 rows the medians
# stay within 2 us and the share of wins moves from run to run (48-64 % in
# three runs); from 24 rows numpy loses more calls than it wins.
_NUMPY_MAX_DIM = 16
# The phase sum takes the eigenvalues in blocks of _BLOCK // len(tau), so
# its one buffer, and the complex one of a whole spectrum, hold about this
# many elements.
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
# The largest block whose dense eigenvectors a failed twisted route falls back
# to: 2001^2 doubles, 31 MB, the budget MAX_MATRIX_TWICE_J sets for a whole
# rotation matrix (LAPACK stevd's workspace is as large again: the fallback
# at 2001 rows peaks at 61 MB by tracemalloc). A larger block whose route
# fails raises a ValueError.
_FALLBACK_MAX_DIM = 2001
# Largest sector dimension min(N_atoms, E) + 1 that build_sector builds. At
# this bound one solve from row E // 3 on a 256-point grid takes 0.49 s and
# peaks at 2.0 MB by tracemalloc when resonant, 1.7 s and 3.5 MB detuned
# (omega = 1.3), on a 2-vCPU Xeon with one BLAS thread; the time grows as
# dim^2 (1.8 s resonant at dim 20001).
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
        """Dense copy, which `eigensystem` factors for small blocks."""
        h = np.diag(self.diagonal)
        idx = np.arange(self.basis.dim - 1)
        h[idx, idx + 1] = self.off_diagonal
        h[idx + 1, idx] = self.off_diagonal
        return h


def _sector_total(N_atoms: int, parts: dict[str, int], atoms: str = "N_atoms") -> int:
    """E = sum(parts), once the sector dimension min(N_atoms, E) + 1 is
    found at most MAX_SECTOR_DIM; past it a ValueError names the count that
    sets the dimension, in the caller's own terms: `atoms`, or the largest
    of the parts, keyed by name."""
    E = sum(parts.values())
    if min(N_atoms, E) >= MAX_SECTOR_DIM:
        raise _too_large(atoms if N_atoms < E else max(parts, key=parts.get),
                         f"the sector dimension min({atoms}, {' + '.join(parts)}) + 1 is at "
                         f"most {MAX_SECTOR_DIM}, got {min(N_atoms, E) + 1}")
    return E


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
    _sector_total(N_atoms, {"E": E})
    basis = SectorBasis(N_atoms=N_atoms, total_excitation=E)
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
    """Eigenvalues and orthonormal eigenvectors of the block: from numpy's
    eigh of the dense matrix up to _NUMPY_MAX_DIM (16) rows, and from
    scipy's eigh_tridiagonal (LAPACK stevd, divide and conquer) above, so
    small sectors never import scipy.linalg.

    The diagonal is shifted by its mean before factorization; the shift is
    a global phase under evolution and keeping eigenvalues small avoids
    rounding the fast common phase into the probabilities. Returned
    eigenvalues include the shift back.
    """
    shift = float(np.mean(h.diagonal))
    if h.basis.dim <= _NUMPY_MAX_DIM:
        centred = h.dense()
        np.fill_diagonal(centred, h.diagonal - shift)
        w, v = np.linalg.eigh(centred)
    else:
        # deferred, as in the twisted routes: scipy.linalg costs about 5 MB
        # at import, even after scipy.special
        from scipy.linalg import eigh_tridiagonal

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


@np.errstate(over="raise", invalid="raise")  # in the passes too: an overflow fails the route
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
    _NEGLIGIBLE; an overflow or another floating-point fault, in either
    pass or after them, propagates as a FloatingPointError. The twist is
    the deepest point of the eigenvalue's classical region,
    argmin_j |w - a_j| - (b_{j-1} + b_j), or the next index where that has
    the smaller twist element gamma = d_r + p_r - (a_r - w), that is the
    larger |x_r|. The eigenvalues come back sorted by their twist, so each
    step of a pass works on one contiguous slice.
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


def _half_block(b: np.ndarray, parity: int) -> tuple[np.ndarray, ...]:
    """b_j-1 and b_j (0 past either end) at the sites j of one parity, and
    the diagonal b_j-1^2 + b_j^2 and off-diagonal b_j b_j+1 of the half
    block over them. Over those sites and the others the tridiagonal matrix
    with zero diagonal and off-diagonal b is [[0, C], [C^T, 0]], and the
    half block is C C^T: B^T B for parity 1, B B^T for parity 0. An
    overflow of the squares follows the caller's errstate.
    """
    left, right = np.append(0.0, b)[parity::2], np.append(b, 0.0)[parity::2]
    return left, right, left**2 + right**2, right[:-1] * left[1:]


def _positive_half(b: np.ndarray, i: int) -> tuple[np.ndarray, float, float]:
    """Eigenvalues lambda > 0 of the tridiagonal matrix with zero diagonal
    and off-diagonal b, and v[0] v[i] and v[0]^2 of its lambda = 0 unit
    eigenvector (0 for an even dimension). Raises FloatingPointError where
    B^T B or that vector overflows or divides by a zero b_2k+1, or where
    dpteqr fails. Over even and odd sites the matrix is [[0, B], [B^T, 0]],
    so lambda are the singular values of the bidiagonal B (Golub & Kahan
    1965), the roots of the eigenvalues of B^T B (`_half_block` of the odd
    sites). The lambda = 0 vector is 0 on odd sites and
    x_2k+2 = -x_2k b_2k / b_2k+1.
    """
    from scipy.linalg.lapack import dpteqr  # deferred, as in eigensystem

    x = np.zeros(0)  # the lambda = 0 eigenvector on the even sites, x_0 = 1
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        even, odd, d, e = _half_block(b, 1)  # b_2k and b_2k+1 by odd site 2k + 1
        if b.size % 2 == 0:  # odd dimension
            x = np.cumprod(np.append(1.0, -even / odd))
        norm2 = np.dot(x, x)
    sigma2, _, _, info = dpteqr(d, e, np.zeros((1, 1)))
    if info != 0:
        raise FloatingPointError(f"dpteqr failed with info = {info}")
    if x.size == 0:
        return np.sqrt(sigma2), 0.0, 0.0
    return np.sqrt(sigma2), x[i // 2] / norm2 if i % 2 == 0 else 0.0, 1.0 / norm2


def _half_eigenvectors(b: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray, int]:
    """What `_spectrum` returns for the tridiagonal matrix with zero
    diagonal and off-diagonal b, from the dense eigenvectors of the half
    block C C^T over the sites of i's parity (`_half_block`), which
    `eigensystem` forms as it does any block's. A unit eigenvector y of it
    gives (y, +-C^T y / sigma) / sqrt(2) at lambda = +-sigma, with
    sigma = |C^T y|: row i is read off y, and so is row 0 for even i, while
    for odd i row 0 is one product, b_0 y_0 / sigma. At an odd dimension
    the first y of B B^T is the lambda = 0 vector. Raises
    FloatingPointError where b^2 or |C^T y|^2 overflows, or where an odd i
    divides by a zero sigma.
    """
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        left, right, d, e = _half_block(b, i % 2)
        _, y = eigensystem(_tridiagonal(d, e))
        other = np.zeros((y.shape[0] + 1, y.shape[1]))  # C^T y at the sites j - 1, and one past
        other[:-1] = left[:, None] * y
        other[1:] += right[:, None] * y
        odd = int(i % 2 == 0 and b.size % 2 == 0)  # an odd dimension: B B^T is singular
        zero_weight = y[0, 0] * y[i // 2, 0] if odd else 0.0
        sigma = np.sqrt(np.einsum("jk,jk->k", other, other))[odd:]
        x0 = other[0] / sigma if i % 2 else y[0, odd:]
    return np.append(sigma, 0.0), np.append(x0 * y[i // 2, odd:], zero_weight), i % 2


def _tridiagonal(d: np.ndarray, e: np.ndarray) -> SectorHamiltonian:
    """The tridiagonal matrix with diagonal d and off-diagonal e, as a block
    that `eigensystem` takes; its basis only labels the d.size rows."""
    return SectorHamiltonian(SectorBasis(N_atoms=d.size, total_excitation=d.size - 1), d, e)


def _spectrum(a: np.ndarray, b: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Eigenvalues w_k of the tridiagonal block with diagonal a, centred on
    its mean, and off-diagonal b, the weights v[0, k] v[i, k] of its unit
    eigenvectors, and the parity: None for the whole spectrum, i % 2 for
    the half lambda >= 0 of a +-lambda spectrum.

    Two kinds of block are changed exactly before any route is picked. A
    zero coupling at site s splits the block: from a row i > s the
    amplitude is zero, and otherwise the leading s + 1 rows, centred on
    their own mean, are solved alone. A block whose largest entry lies
    outside [2^-500, 2^500] is solved scaled by a power of two, and its
    eigenvalues scaled back, so no square of an entry overflows or
    underflows in the routes.

    A block with an exactly zero centred diagonal (every build_sector
    block with omega = omega0 = 1) solves only its eigenvalues lambda > 0:
    the weight at -lambda is (-1)^i times that at lambda, so the weights
    double and lambda = 0 is appended with its own weight. Up to dimension
    2 * _DENSE_MAX_DIM (448) they come from the dense eigenvectors that
    `eigensystem` forms of the half block of i's parity, B B^T or B^T B,
    of at most _DENSE_MAX_DIM rows (`_half_eigenvectors`); above it from
    `_positive_half` and twisted factorizations (`_twisted_weights`),
    checked by 2 sum_k v[0, k]^2 + v_0(0)^2 = 1, v_0(0) at lambda = 0.
    Every other block takes `eigensystem` up to dimension _DENSE_MAX_DIM
    (224), and above it twists the eigenvalues of LAPACK's sterf, without
    the dim x dim eigenvector matrix. Each route but `eigensystem` reports
    a failure as a FloatingPointError: `_positive_half` where dpteqr fails,
    `_half_eigenvectors` where an odd i meets a zero sigma, and
    `_twisted_weights` on an overflow, another floating-point fault or a
    failed completeness check, seen only on hand-built blocks with a split
    classical region. `_spectrum` catches it in one place and answers with
    the dense eigenvectors of the block it routed, whole or split, up to
    _FALLBACK_MAX_DIM (2001) rows; above that it raises a ValueError naming
    that block's dimension and the failure.

    On resonant build_sector blocks of dim 6 to 448 the dense half route
    lies within 7e-14 of the weights of a 40-digit eigendecomposition and
    within 3e-13 of its eigenvalues; its probabilities on a 256-point grid
    up to tau = pi lie within 8e-14 of the 40-digit ones (1e-15 at dim 6).

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
    if not b.all():
        s = int(np.flatnonzero(b == 0.0)[0])
        if i > s:  # row i is not coupled to row 0
            return np.zeros(1), np.zeros(1), None
        a, b = a[:s + 1] - np.mean(a[:s + 1]), b[:s]
    top = max(float(np.abs(a).max()), float(np.abs(b).max(initial=0.0)))
    if 2.0**-500 <= top <= 2.0**500 or top == 0.0:
        return _routes(a, b, i)
    exponent = math.frexp(top)[1]
    w, weights, parity = _routes(np.ldexp(a, -exponent), np.ldexp(b, -exponent), i)
    return np.ldexp(w, exponent), weights, parity


def _routes(a: np.ndarray, b: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray, int | None]:
    """`_spectrum`'s route table, for a block with no zero coupling whose
    largest entry lies within [2^-500, 2^500]."""
    try:
        if not a.any() and a.size <= 2 * _DENSE_MAX_DIM:  # (dim + 1) // 2 rows
            return _half_eigenvectors(b, i)
        if a.size > _DENSE_MAX_DIM:
            if not a.any():
                w, zero_weight, zero_mass = _positive_half(b, i)
                w, weights = _twisted_weights(a, b, i, w, (1.0 - zero_mass) / 2.0)
                return np.append(w, 0.0), np.append(2.0 * weights, zero_weight), i % 2
            from scipy.linalg import eigvalsh_tridiagonal  # deferred, as in eigensystem

            w = eigvalsh_tridiagonal(a, b, lapack_driver="sterf")
            return (*_twisted_weights(a, b, i, w), None)
    except FloatingPointError as failure:  # a failed route: the dense eigenvectors, up to the cap
        if a.size > _FALLBACK_MAX_DIM:
            raise ValueError(f"the block of dimension {a.size} failed its twisted route "
                             f"({failure}), and its dense eigenvectors are formed only up to "
                             f"dimension {_FALLBACK_MAX_DIM}") from None
    w, v = eigensystem(_tridiagonal(a, b))
    return w, v[0, :] * v[i, :], None


def _phase_sum(w: np.ndarray, weights: np.ndarray, parity: int | None, tau: np.ndarray):
    """The amplitude sum_k weights_k phase(w_k tau) at every tau, with the
    phase exp(-i w tau) over a whole spectrum (parity None), and over the
    +-lambda pairs of a half spectrum cos for an even initial index
    (parity 0) and sin for an odd one (parity 1). The
    eigenvalues go in blocks of _BLOCK // len(tau): each block's w_k tau is
    written into one preallocated buffer and its phase taken in place (in
    a second, complex buffer for exp), so the working memory is that one
    block, and its complex twin, whatever the number of eigenvalues.
    """
    step = max(1, _BLOCK // max(tau.size, 1))
    x = np.empty((min(step, w.size), tau.size))
    z = x if parity is not None else np.empty(x.shape, complex)
    amps = 0
    for k in range(0, w.size, step):
        block, phase = x[:w.size - k], z[:w.size - k]
        np.multiply.outer(w[k:k + step], tau, out=block)
        if parity is None:
            np.exp(np.multiply(-1j, block, out=phase), out=phase)
        else:
            (np.cos, np.sin)[parity](block, out=phase)
        amps = amps + weights[k:k + step] @ phase
    return amps


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
    eigenvalues, each written into one preallocated buffer (`_phase_sum`),
    so above the dense cutoffs the working memory is O(dim) plus one block
    of _BLOCK phases: from row 1000 of build_sector(10**6, 3000) on 256
    points it peaks at 0.73 MB by tracemalloc, where a fresh array per
    block and phase took 1.10 MB.
    A tau_grid that is not finite raises a ValueError naming it before any
    solve; so do a hand-built block whose width max(a) - min(a) + 4 max|b|
    overflows, naming the diagonal (a) or the off_diagonal (b), and then a
    tau_grid where the bound eps * |H_centred| * max|tau| exceeds
    _PHASE_TOL (1e-8). A hand-built block above _FALLBACK_MAX_DIM (2001)
    rows whose twisted route fails raises a ValueError naming its
    dimension and the failure (`_spectrum`).
    """
    n_e0, n0 = initial
    i_init = h.basis.index_of(n_e0, n0)
    tau = np.asarray(tau_grid, dtype=float)
    _require_finite(tau_grid=tau)
    # factor the centred block: the mean diagonal is a global phase, and
    # eigenvalues shifted back by it would carry its rounding. Its Gershgorin
    # width bounds every a_j - w_k and w_k - w_l that a route forms.
    with np.errstate(over="ignore", invalid="ignore"):  # a width past the range, named below
        a = h.diagonal - np.mean(h.diagonal)
        spread, b_max = float(a.max() - a.min()), float(np.abs(h.off_diagonal).max(initial=0.0))
    for name, width in (("diagonal", spread), ("off_diagonal", spread + 4.0 * b_max)):
        if not width <= sys.float_info.max:
            raise _too_large(name, "the block's width max(a) - min(a) + 4 max|b| stays finite")
    norm = float(np.abs(a).max()) + 2.0 * b_max  # >= |H_centred|
    tau_max = float(np.abs(tau).max(initial=0.0))
    if not sys.float_info.epsilon * norm * tau_max <= _PHASE_TOL:
        raise ValueError(f"tau_grid must keep the phase error bound eps*|H|*max|tau| "
                         f"within {_PHASE_TOL}, got max|tau| = {tau_max!r}")
    amps = _phase_sum(*_spectrum(a, h.off_diagonal, i_init), tau)
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
    h = build_sector(N_atoms, _sector_total(N_atoms, {"n_e": n_e, "n": n}))
    exact = exact_projection_probability(h, (n_e, n), tau_grid).values
    return float(np.max(np.abs(exact - approx)))
