"""The quadrature rules and the exact eigenvalue-moment oracle, outside the
operator code: the Gauss rules, the one-mode rule of each weight, the one
order-doubling rule, and the Andreief means of the exchangeable beta = 2 laws.
"""

import math
from functools import lru_cache

import numpy as np

from .ensembles import RadialLaw, WeightSpec
from .errors import ContractError, NonConvergenceError, _count

#: Nodes per mode of the package's one Gauss rule: every quadrature run reads it, and the Andreief
#: oracle's values on it, which _doubled holds to twice as many nodes, to QUAD_CONVERGENCE_TOL.
ORACLE_ORDER = 120
QUAD_CONVERGENCE_TOL = 1e-9

#: Most nodes of any Gauss rule (radial_quadrature_nodes takes any order): numpy's Hermite weights
#: are all zero at 371 nodes, NaN from 372.
MAX_QUAD_ORDER = 370


def _gauss_rule(build, name: str, order: int) -> tuple[np.ndarray, np.ndarray]:
    """An ``order``-node Gauss rule, or, before it is built, a ContractError
    when it has no nodes or more than MAX_QUAD_ORDER."""
    _count(order, "order", ContractError)
    if order > MAX_QUAD_ORDER:
        raise ContractError(f"the {order}-node Gauss-{name} rule is above the {MAX_QUAD_ORDER}-node cap; lower order")
    return build(order)


@lru_cache(maxsize=None, typed=True)  # typed: True is no order, but hashes as 1
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return _gauss_rule(np.polynomial.hermite.hermgauss, "Hermite", order)


@lru_cache(maxsize=None, typed=True)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return _gauss_rule(np.polynomial.legendre.leggauss, "Legendre", order)


def _weight_rule(weight: WeightSpec, order: int, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """One-mode nodes and weights absorbing the weight factor, on the full
    line or, with ``half``, on (0, inf). The determinant weight maps Gauss-
    Legendre nodes through lam = tan(theta); the Gaussian weights exp(-c lam^2)
    use Gauss-Hermite on the line and Gauss-Legendre up to e^-50 on the half
    line. nc_modified's pair factor has no one-mode rule."""
    if weight.kind == "nc_modified":
        raise ContractError(f"no per-mode quadrature rule for weight kind {weight.kind!r}")
    if weight.kind == "determinant":
        x, w = _leggauss(order)
        jac = 0.25 * math.pi if half else 0.5 * math.pi
        lam = np.tan(jac * (x + 1.0) if half else jac * x)
        return lam, jac * w * (1.0 + lam**2) ** (1.0 - 2.0 * weight.p)
    c = 2.0 * weight.p if weight.kind == "gaussian" else weight.p
    if half:
        x, w = _leggauss(order)
        jac = 0.5 * math.sqrt(50.0 / c)
        lam = jac * (x + 1.0)
        return lam, jac * w * np.exp(-c * lam**2)
    x, w = _hermgauss(order)
    scale = math.sqrt(c)
    return x / scale, w / scale


def _doubled(evaluate, order: int, what: str, advice: str) -> np.ndarray:
    """The one order-doubling rule of every oracle value: ``evaluate`` over
    the ``order``- and ``2 * order``-node rules, which must agree to
    QUAD_CONVERGENCE_TOL in every entry, or NonConvergenceError saying that
    ``what`` moved, with the ``advice``. Returns the ``order``-node value."""
    hi, lo = evaluate(2 * order), evaluate(order)  # an order over the cap raises before any rule is built
    delta = float(np.abs(hi - lo).max())
    if not delta <= QUAD_CONVERGENCE_TOL:
        raise NonConvergenceError(
            f"{what} moved by {delta:.3e} from order {order} to {2 * order} (> {QUAD_CONVERGENCE_TOL}); {advice}"
        )
    return lo


def _andreief_means(lam: np.ndarray, w: np.ndarray, u: np.ndarray, modes: int) -> tuple[np.ndarray, float]:
    """E[e_k(t)], k = 0..modes, with t = -tanh(lam/2)/2 and e_k the k-th
    elementary symmetric polynomial, under the beta = 2 law
    Delta(u)^2 prod_j w(lam_j) of ``modes`` eigenvalues over the one-mode rule
    (lam, w), u(lam) being the variable whose Vandermonde the law squares. By
    the Andreief identity E[prod_j (1 + z t_j)] = det(G + z G_t) / det(G), with
    G = phi diag(w) phi^T over the Hermite basis phi_i(u), i < modes, and G_t
    the same with w t; so the E[e_k] are the e_k of the eigenvalues of
    G^-1 G_t. They come through the Cholesky factor R of G, from the QR
    diag(sqrt w) phi^T = Q R, as those of Q^T diag(t) Q: G, whose condition
    number forming it would square, is never formed. Also returns log det G =
    2 sum log |R_ii|: the law's normalization, the rule's sum of Delta(u)^2
    prod w, is M! det G / 4^(M (M - 1) / 2), as phi_i leads with 2^i."""
    q, r = np.linalg.qr(np.polynomial.hermite.hermvander(u, modes - 1) * np.sqrt(w)[:, None])
    mu = np.linalg.eigvalsh((q.T * (-0.5 * np.tanh(0.5 * lam))) @ q)
    return np.poly(mu) * (-1.0) ** np.arange(modes + 1), 2.0 * float(np.log(np.abs(np.diagonal(r))).sum())


def exchangeable_moments(law: RadialLaw, modes: int, offset: float = 0.0) -> np.ndarray:
    """The moments E[e_k(t)] / C(M, k), k = 0..modes, t = -tanh(lam/2)/2 (each set of k modes has the k-th),
    of ``modes`` eigenvalues under the exchangeable beta = 2 ``law``: the hermitian Delta(lam)^2 exp(-p sum lam^2),
    or a class D or C law Delta(lam^2)^2 prod |lam_j|^alpha exp(-2p (lam_j - c)^2), displaced by ``offset`` = c.
    Returns _andreief_means over the ORACLE_ORDER-node Hermite rule x = s y, s = sqrt(p) or sqrt(2p), at
    lam = y + c, which _doubled holds to the 2 * ORACLE_ORDER-node one (tanh(lam/2) nears a step as p -> 0). The class
    law's Delta(lam^2)^2 is that of u = s y (c + y/2) / max(|c|, 1/s), affine in lam^2 and of order one at every
    offset, and its |lam|^alpha enters the weight as |lam / max|lam||^alpha, so every finite offset stays in
    float64. ContractError for a class with beta != 2 (DIII, CI)."""
    hermitian, p = law.jacobian is None, law.weight.p
    if not hermitian and law.jacobian.beta != 2:
        raise ContractError(f"the Andreief oracle takes beta = 2 classes (D, C), not class {law.jacobian.label}")
    s = math.sqrt(p) if hermitian else math.sqrt(2.0) * math.sqrt(p)  # 2p overflows from p = 9e307

    def means(order: int) -> np.ndarray:
        x, w = _hermgauss(order)
        y = x / s
        if hermitian:
            return _andreief_means(y, w, x, modes)[0]
        lam = y + offset
        u = x * ((offset + 0.5 * y) / max(abs(offset), 1.0 / s))  # s y = x
        return _andreief_means(lam, w * np.abs(lam / np.abs(lam).max()) ** law.jacobian.alpha, u, modes)[0]

    what = "the even-weight oracle" if hermitian else "the displaced-weight oracle"
    comb = [math.comb(modes, k) for k in range(modes + 1)]
    return _doubled(means, ORACLE_ORDER, what, f"p = {p} is too small, choose a larger p") / comb
