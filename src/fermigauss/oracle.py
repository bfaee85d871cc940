"""The quadrature rules and the exact eigenvalue-moment oracle, outside the
operator code: the Gauss rules, the one-mode rule of each weight, the one
radial rule of every quadrature driver, and the Andreief means of the
exchangeable beta = 2 laws.
"""

import math
from functools import lru_cache

import numpy as np

from .ensembles import RadialLaw, WeightSpec
from .errors import ContractError, DomainError, NonConvergenceError

#: Nodes per mode of the package's one Gauss rule: every quadrature run reads it, and the Andreief
#: oracle's values on it, which exchangeable_moments holds to twice as many nodes, to QUAD_CONVERGENCE_TOL.
ORACLE_ORDER = 120
QUAD_CONVERGENCE_TOL = 1e-9


@lru_cache(maxsize=None)
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(order)


@lru_cache(maxsize=None)
def _leggauss() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(ORACLE_ORDER)


def _weight_rule(weight: WeightSpec, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """One-mode nodes and weights absorbing the weight factor, on the full
    line or, with ``half``, on (0, inf). The determinant weight maps Gauss-
    Legendre nodes through lam = tan(theta); the Gaussian weights exp(-c lam^2)
    use Gauss-Hermite on the line and Gauss-Legendre up to e^-50 on the half
    line. nc_modified's pair factor has no one-mode rule."""
    if weight.kind == "nc_modified":
        raise ContractError(f"no per-mode quadrature rule for weight kind {weight.kind!r}")
    if weight.kind == "determinant":
        x, w = _leggauss()
        jac = 0.25 * math.pi if half else 0.5 * math.pi
        lam = np.tan(jac * (x + 1.0) if half else jac * x)
        return lam, jac * w * (1.0 + lam**2) ** (1.0 - 2.0 * weight.p)
    c = 2.0 * weight.p if weight.kind == "gaussian" else weight.p
    if half:
        x, w = _leggauss()
        jac = 0.5 * math.sqrt(50.0 / c)
        lam = jac * (x + 1.0)
        return lam, jac * w * np.exp(-c * lam**2)
    x, w = _hermgauss(ORACLE_ORDER)
    scale = math.sqrt(c)
    return x / scale, w / scale


def _tensor(lam: np.ndarray, w: np.ndarray, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """One- or two-mode tensor power of a one-mode rule: points (n^modes, modes)
    and weights (n^modes,)."""
    if modes not in (1, 2):
        raise ContractError("radial quadrature is implemented for one or two modes")
    if modes == 1:
        return lam[:, None], w
    return np.column_stack([np.repeat(lam, lam.size), np.tile(lam, lam.size)]), np.outer(w, w).ravel()


def _fold_signs(points: np.ndarray, wts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reflect positive-orthant nodes into all sign orthants."""
    modes = points.shape[1]
    signs = [np.array([1.0 if s & (1 << j) else -1.0 for j in range(modes)]) for s in range(1 << modes)]
    return np.concatenate([points * s for s in signs]), np.tile(wts, 1 << modes)


def radial_quadrature_nodes(law: RadialLaw, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The radial quadrature rule of every verifier, ORACLE_ORDER nodes per
    one-mode rule: points (N, modes) and weights integrating f against the
    density of ``law`` over R^modes, for one or two modes.

    An even power of every kink is a plain tensor rule. An odd alpha puts a
    kink at lam_j = 0, so the positive orthant is integrated and reflected;
    an odd beta puts one at |lam_1| = |lam_2|, so the ordered sector of the
    positive quadrant is integrated, both orderings are added, and the result
    is reflected. Raises DomainError when the stiffness leaves the rule
    outside float64.
    """
    weight, jac = law.weight, law.jacobian
    odd_alpha, odd_beta = (False, False) if jac is None else (jac.alpha % 2, jac.beta % 2)
    with np.errstate(all="ignore"):
        if modes == 2 and odd_beta:
            r, w_r = _leggauss()
            t, w_t = _weight_rule(weight, True)
            inner = np.outer(0.5 * (r + 1.0), t).ravel()
            t = np.tile(t, ORACLE_ORDER)
            base = np.outer(0.5 * w_r, w_t).ravel() * t * np.exp(weight.log_weight(inner[:, None]))
            sector = np.concatenate([np.column_stack([inner, t]), np.column_stack([t, inner])])
            points, wts = _fold_signs(sector, np.concatenate([base, base]))
        elif odd_alpha:
            points, wts = _fold_signs(*_tensor(*_weight_rule(weight, True), modes))
        else:
            points, wts = _tensor(*_weight_rule(weight, False), modes)
        wts = wts * np.exp(law.log_jacobian(points))
        total = wts.sum()
    if not (np.isfinite(points).all() and np.isfinite(wts).all() and 0.0 < total < math.inf):
        raise DomainError(
            f"the {weight.kind} weight at p = {weight.p} gives a radial quadrature rule "
            f"outside float64 (total weight {total:.3g}); choose a moderate p"
        )
    return points, wts


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
    lam = y + c, held to the 2 * ORACLE_ORDER-node one to QUAD_CONVERGENCE_TOL (tanh(lam/2) nears a step as p -> 0). The class
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

    hi, lo = means(2 * ORACLE_ORDER), means(ORACLE_ORDER)
    delta = float(np.abs(hi - lo).max())
    if not delta <= QUAD_CONVERGENCE_TOL:
        what = "the even-weight oracle" if hermitian else "the displaced-weight oracle"
        raise NonConvergenceError(
            f"{what} moved by {delta:.3e} from order {ORACLE_ORDER} to {2 * ORACLE_ORDER} (> {QUAD_CONVERGENCE_TOL}); "
            f"p = {p} is too small, choose a larger p"
        )
    return lo / [math.comb(modes, k) for k in range(modes + 1)]
