"""Reference computations the benchmark checks photonamp's outputs against.

None of these call photonamp. Each one takes the physics from the paper's
formulas by a route the program does not use: exact integer binomials,
Laguerre polynomials, regularized incomplete beta functions, dense matrix
exponentials and Krylov propagation of a Hamiltonian built here.

scipy is imported inside the functions that use it: the worker imports this
module before photonamp, and `setup_s` must time photonamp's own imports,
not the references'.
"""
from __future__ import annotations

import math

import numpy as np


class CheckError(Exception):
    """An output of the program disagrees with its reference."""


def require_close(name: str, got, want, atol: float, rtol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{name}: shape {got.shape} != reference {want.shape}")
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise CheckError(
            f"{name}: {int(bad.sum())} of {bad.size} values off, first at {i}: "
            f"{got.flat[i]!r} vs reference {want.flat[i]!r}"
        )


def _log_power(base_sq: np.ndarray, exponent: int) -> np.ndarray:
    """exponent * log(base_sq), with 0^0 = 1 and 0^k = 0 for k > 0."""
    if exponent == 0:
        return np.zeros_like(base_sq)
    with np.errstate(divide="ignore"):
        return exponent * np.log(base_sq)


def fock_probability(n_e: int, n: int, tau) -> np.ndarray:
    """C(n+n_e, n_e) cos^2n(tau) sin^2n_e(tau), the binomial from math.comb."""
    tau = np.asarray(tau, dtype=float)
    log_c = math.log(math.comb(n + n_e, n_e))
    log_p = log_c + _log_power(np.cos(tau) ** 2, n) + _log_power(np.sin(tau) ** 2, n_e)
    return np.minimum(np.exp(log_p), 1.0)


def poisson_weights(intensity: float, tail: float = 1e-18) -> list[float]:
    """exp(-x) x^k / k!, up to the first term past the mode below `tail`."""
    weights = [math.exp(-intensity)]
    k = 0
    while True:
        k += 1
        w = weights[-1] * intensity / k
        if w < tail and k > intensity:
            return weights
        weights.append(w)


def coherent_probability(n_e: int, intensity: float, tau) -> np.ndarray:
    """exp(-x sin^2) sin^(2 n_e) L_{n_e}(-x cos^2): the Poisson sum in closed form."""
    from scipy.special import eval_laguerre

    tau = np.asarray(tau, dtype=float)
    c_sq, s_sq = np.cos(tau) ** 2, np.sin(tau) ** 2
    lag = eval_laguerre(n_e, -intensity * c_sq)
    return np.minimum(np.exp(-intensity * s_sq + _log_power(s_sq, n_e)) * lag, 1.0)


def pure_coherent_probability(n_e: int, intensity: float, tau) -> np.ndarray:
    """Poisson-weighted sum of binomials, weights made here."""
    tau = np.asarray(tau, dtype=float)
    total = np.zeros(tau.shape)
    for n, w in enumerate(poisson_weights(intensity)):
        total += w * fock_probability(n_e, n, tau)
    return np.minimum(total, 1.0)


def mixed_coherent_probability(n_e_max: int, intensity: float, tau) -> np.ndarray:
    """Uniform mixture over m <= M of the coherent curve:
    sum_n Poisson_n I_{cos^2}(n+1, M+1) / ((M+1) cos^2), with its limit
    Poisson_0 where cos^2 vanishes."""
    from scipy.special import betainc

    tau = np.asarray(tau, dtype=float)
    c_sq = np.cos(tau) ** 2
    weights = poisson_weights(intensity)
    total = np.zeros(tau.shape)
    nonzero = c_sq > 0.0
    for n, w in enumerate(weights):
        term = np.zeros(tau.shape)
        term[nonzero] = betainc(n + 1, n_e_max + 1, c_sq[nonzero]) / (
            (n_e_max + 1) * c_sq[nonzero]
        )
        total += w * term
    total[~nonzero] = weights[0]
    return np.minimum(total, 1.0)


def spin_y(two_j: int) -> np.ndarray:
    """Real matrix of -i J_y (rows, columns ascending m = -j..j), so that
    expm(beta * result) = exp(-i beta J_y)."""
    j = two_j / 2.0
    m = -j + np.arange(two_j)  # lower index of each raising element
    raise_el = np.sqrt(j * (j + 1) - m * (m + 1))
    out = np.zeros((two_j + 1, two_j + 1))
    idx = np.arange(two_j)
    # -i J_y = -(J+ - J-)/2 ; <m+1|J+|m> sits below the diagonal
    out[idx + 1, idx] = -raise_el / 2.0
    out[idx, idx + 1] = raise_el / 2.0
    return out


def wigner_d(two_j: int, beta: float) -> np.ndarray:
    """d^j(beta) = exp(-i beta J_y) as a dense real matrix exponential."""
    from scipy.linalg import expm

    return expm(beta * spin_y(two_j))


def hopping_column(total: int, n_e: int, tau: float) -> np.ndarray:
    """Column n_e of exp(-i tau (b'a + b a')) in the basis n_e' = 0..total."""
    from scipy.linalg import expm

    k = np.arange(total)
    hop = np.sqrt((k + 1.0) * (total - k))
    h = np.diag(hop, -1) + np.diag(hop, 1)
    return expm(-1j * tau * h)[:, n_e]


def require_same_up_to_phase(name: str, got: np.ndarray, want: np.ndarray, atol: float) -> None:
    got = np.asarray(got, dtype=complex)
    overlap = np.vdot(want, got)
    if abs(overlap) == 0.0:
        raise CheckError(f"{name}: output is orthogonal to the reference")
    phase = overlap / abs(overlap)
    err = float(np.max(np.abs(got / phase - want)))
    if not err <= atol:
        raise CheckError(f"{name}: differs from the reference by {err!r} after phase removal")
    norm_defect = abs(float(np.vdot(got, got).real) - 1.0)
    if not norm_defect <= 1e-10:
        raise CheckError(f"{name}: norm defect {norm_defect!r}")


def sector_hamiltonian(N: int, E: int):
    """Sparse excitation-E block of the resonant collective Hamiltonian
    (omega = omega0 = g = 1), basis n_e = 0..min(N, E), with its constant
    diagonal dropped (a global phase)."""
    from scipy.sparse import diags

    dim = min(N, E) + 1
    off = []
    for k in range(dim - 1):
        photons = E - k
        off.append(math.sqrt(photons * (N - k) * (k + 1) / N))
    return diags([off, off], [-1, 1], shape=(dim, dim), format="csr", dtype=complex)


def ground_projection_grid(N: int, E: int, n_e: int, tau_max: float, points: int) -> np.ndarray:
    """|<0; E| exp(-i H tau) |n_e; E-n_e>|^2 on linspace(0, tau_max, points),
    in one expm_multiply propagation."""
    from scipy.sparse.linalg import expm_multiply

    h = sector_hamiltonian(N, E)
    start = np.zeros(h.shape[0], dtype=complex)
    start[n_e] = 1.0
    states = expm_multiply(-1j * h, start, start=0.0, stop=tau_max, num=points, endpoint=True)
    return np.abs(states[:, 0]) ** 2
