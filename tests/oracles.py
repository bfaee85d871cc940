"""Dense test oracles: the Fock-space constructions the package no longer
runs, kept so the tests can hold its paths to an independent one; a
Parlett-Reid Pfaffian for every Wick coordinate; and break_phase, the fault
of the Wick scatter that the Fock cross-check catches."""

from functools import lru_cache, reduce
from itertools import product
from math import factorial

import numpy as np

from fermigauss import gaussian, verify
from fermigauss.fock import _annihilators, _wick_plan, from_eigenpairs, quadratic_hamiltonian_batch
from fermigauss.gaussian import assemble_blocks, exp_normalized_fock_batch


@lru_cache(maxsize=None)
def gamma_ops(modes: int) -> np.ndarray:
    """Stacked matrices of (a_1..a_M, a_1^dag..a_M^dag), shape (2M, dim, dim)."""
    ann = _annihilators(modes)
    stack = np.concatenate([ann, np.swapaxes(ann, -1, -2)])
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=None)
def quadratic_tensor(modes: int) -> np.ndarray:
    """T[k, l] = gamma_k^dag @ gamma_l, shape (2M, 2M, dim, dim)."""
    gam = gamma_ops(modes)
    out = np.einsum("kba,lbc->klac", gam.conj(), gam)
    out.setflags(write=False)
    return out


def rotated_gaussian_blocks(points: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Normalized Gaussian operators for coefficient matrices U^-1 diag(lam,-lam) U,
    one Fock matrix per node.

    ``points`` is (N, M); ``rotation`` the 2M x 2M transformation U. Same
    algorithm as gaussian_normalized, vectorized; returns the parity blocks,
    shape (N, 2, 2^(M-1), 2^(M-1)). The drivers take the Wick path
    (verify._moment_mean).
    """
    mats = from_eigenpairs(np.concatenate([points, -points], axis=1), rotation.conj().T)
    return exp_normalized_fock_batch(quadratic_hamiltonian_batch(mats))


def rotated_ncons_blocks(points: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """Normalized number-conserving operators at h = U diag(lam) U^dag, one
    Fock matrix per node.

    ``unitaries`` is either one M x M matrix shared by all points or a stack
    matching the points. Same algorithm as gaussian_number_conserving,
    vectorized: h is embedded as (h, delta = 0). Returns the parity blocks.
    """
    h = from_eigenpairs(points, unitaries)
    return exp_normalized_fock_batch(quadratic_hamiltonian_batch(assemble_blocks(h, np.zeros_like(h))))


def covariance_x_from_eigenpairs(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The X of the Majorana covariances Gamma = X - X^T of the normalized
    Gaussian operators of v[s] diag(w[s]) v[s]^dag, or of v diag(w[s]) v^dag
    for one ``v`` shared by a stack of ``w``, one per node:
    X = (Im u) diag(t) (Re u)^T, u = majorana v and t = -tanh(w/2)/2, so
    gaussian._pair_rows(X) are the Wick pair rows of Gamma. The per-node path
    the quadrature drivers took before the moment map
    (gaussian.moment_wick_coordinates)."""
    u = _wick_plan(w.shape[-1] // 2).majorana @ v
    return (u.imag * -0.5 * np.tanh(0.5 * w)[:, None, :]) @ np.swapaxes(u.real, -1, -2)


def pfaffian(a: np.ndarray) -> float:
    """Pf(a) of a real antisymmetric matrix of even order (1 for the empty
    one) by Parlett-Reid tridiagonalization with pivoting (Wimmer,
    arXiv:1102.3440, Algorithm 1). Step k swaps the largest entry of column k
    below the diagonal into row k + 1, rows and columns alike, which flips the
    sign of Pf; then a Gauss transform pivoting on a[k + 1, k] clears the rest
    of rows and columns k and k + 1, which keeps Pf. Pf of the tridiagonal
    result is the product of its entries a[k, k + 1], k even."""
    a = np.array(a, dtype=float)
    pf = 1.0
    for k in range(0, len(a) - 1, 2):
        piv = k + 1 + int(np.argmax(np.abs(a[k + 1 :, k])))
        if piv != k + 1:
            a[[k + 1, piv]] = a[[piv, k + 1]]
            a[:, [k + 1, piv]] = a[:, [piv, k + 1]]
            pf = -pf
        if a[k, k + 1] == 0.0:
            return 0.0
        pf *= a[k, k + 1]
        tau, col = a[k, k + 2 :] / a[k, k + 1], a[k + 2 :, k + 1]
        a[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return pf


def eigh_covariance_x(mats: np.ndarray) -> np.ndarray:
    """The X of the Majorana covariances of a stack of coefficient matrices
    (covariance_x_from_eigenpairs) through the complex 2M x 2M eigh and their
    eigenpairs, the route the Monte Carlo drivers took before the real form
    (gaussian.real_form)."""
    return covariance_x_from_eigenpairs(*np.linalg.eigh(mats))


def tuple_normal_ordered_exp(bmat: np.ndarray) -> np.ndarray:
    """:exp(a^dag B a): by its terminating expansion over index tuples, the
    construction fock.normal_ordered_exp regroups by minors:
    sum_(k=0..M) (1/k!) sum over tuples of B[i1,j1] .. B[ik,jk] a_i1^dag .. a_ik^dag a_jk .. a_j1.
    O(M^(2M)) string products, for M <= 3."""
    modes = len(bmat)
    ann, eye = _annihilators(modes), np.eye(1 << modes)
    total = np.zeros((1 << modes, 1 << modes), dtype=complex)
    for k in range(modes + 1):
        strings = {t: reduce(lambda s, j: ann[j] @ s, t, eye) for t in product(range(modes), repeat=k)}  # a_tk .. a_t1
        for (i, left), (j, right) in product(strings.items(), repeat=2):
            total += np.prod(bmat[list(i), list(j)]) / factorial(k) * (left.T @ right)
    return total


def break_phase(monkeypatch, modes: int, column: int = -1) -> None:
    """Make the Wick scatter at ``modes`` modes multiply one weight w of a Wick
    coordinate's column by i, the column's first in block-entry order; by
    default the parity coordinate's (the full Majorana set's), the last column.
    The scatter holds w only as the product of its factors (fock.WickPlan), so
    wick_blocks, in gaussian and where verify calls it, adds (i - 1) w c at
    that block entry for the coordinate c."""
    columns, units, scale, hadamard, entries = _wick_plan(modes).scatter
    pattern, free = np.argwhere(columns == column % columns.size)[0]
    src = np.argmin(entries[pattern])
    weight = scale[pattern, src] * hadamard[src, free] * complex(*units[:, pattern, free])
    wick_blocks = gaussian.wick_blocks

    def broken(coords):
        out = wick_blocks(coords)
        if out.shape[-1] == len(columns):  # as many flip patterns as states of one parity
            coordinate = np.atleast_2d(coords)[:, columns[pattern, free]]
            out.reshape(len(out), -1)[:, entries[pattern, src]] += (1j - 1) * weight * coordinate
        return out

    for module in (gaussian, verify):
        monkeypatch.setattr(module, "wick_blocks", broken)
