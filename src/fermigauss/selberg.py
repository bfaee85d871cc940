"""Closed-form evaluators for the eigenvalue integrals and normalizing constants.

Everything is returned as a natural logarithm so the formulas stay finite well
past the Fock-space cap; callers exponentiate only when they know the value is
small. Each formula is paired with a small-n quadrature oracle in the test
suite.
"""

import math

import numpy as np

from .errors import DomainError

LOG2 = math.log(2.0)
LOG_PI = math.log(math.pi)


#: log|Gamma(x)| entrywise, through ``math.lgamma``. The arrays here hold one
#: term per mode, all with positive arguments in the validated domains, so no
#: pole is ever met; this keeps ``scipy.special`` off the import path.
_lgamma = np.vectorize(math.lgamma, otypes=[float])


def vandermonde(lams) -> float:
    """prod_{i<j} (lam_i - lam_j); empty and singleton sequences give 1."""
    lam = np.asarray(lams, dtype=float)
    out = 1.0
    for i in range(lam.size - 1):
        out *= float(np.prod(lam[i] - lam[i + 1 :]))
    return out


def selberg_integral_log(a: float, b: float, g: float, n: int) -> float:
    """Log of the n-fold beta-type eigenvalue integral
    int_0^inf prod x_j^(a-1) (1+x_j)^(-a-b-2g(n-1)) |Delta(x)|^(2g) dx.

    Valid for a > 0, b > 0 and g > -min(1/n, a/(n-1), b/(n-1)).
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if a <= 0:
        raise DomainError(f"domain violation: a > 0 required, got a = {a}")
    if b <= 0:
        raise DomainError(f"domain violation: b > 0 required, got b = {b}")
    bound = 1.0 / n
    if n > 1:
        bound = min(bound, a / (n - 1), b / (n - 1))
    if g <= -bound:
        raise DomainError(f"domain violation: g > {-bound} required, got g = {g}")
    j = np.arange(n)
    terms = (
        _lgamma(1 + g + j * g)
        + _lgamma(a + j * g)
        + _lgamma(b + j * g)
        - _lgamma(1 + g)
        - _lgamma(a + b + (n + j - 1) * g)
    )
    return float(terms.sum())


def laguerre_selberg_log(atilde: float, g: float, n: int) -> float:
    """Log of the Gaussian-weight eigenvalue integral
    int prod |x_j|^(2*atilde-1) exp(-x_j^2/2) |Delta(x^2)|^(2g) dx over R^n."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if atilde <= 0:
        raise DomainError(f"domain violation: atilde > 0 required, got {atilde}")
    if g < 0:
        raise DomainError(f"domain violation: g >= 0 required, got {g}")
    j = np.arange(1, n + 1)
    terms = _lgamma(1 + j * g) + _lgamma(atilde + g * (j - 1)) - _lgamma(1 + g)
    return float((atilde * n + g * n * (n - 1)) * LOG2 + terms.sum())


def radial_gaussian_integral_log(modes: int, p: float) -> float:
    """Log of int over R^M of Delta(lam^2)^2 exp(-2p sum lam_j^2) d lam.

    The scale exponent is -M(M - 1/2); a variant with exponent -M(M - 1)
    circulates for the same integral but is off by a factor (2p)^(M/2) and
    fails the quadrature cross-check.
    """
    if modes < 1:
        raise DomainError(f"need modes >= 1, got {modes}")
    if not (math.isfinite(p) and p > 0):
        raise DomainError(f"domain violation: finite p > 0 required, got p = {p}")
    j = np.arange(1, modes + 1)
    return float(-modes * (modes - 0.5) * math.log(2 * p) + (_lgamma(1 + j) + _lgamma(j - 0.5)).sum())


def cartesian_gaussian_integral_log(modes: int, p: float) -> float:
    """Log of int exp(-p Tr[H^2]) dH over the M(2M-1) independent real
    components of a particle-hole coefficient matrix."""
    if modes < 1:
        raise DomainError(f"need modes >= 1, got {modes}")
    if not (math.isfinite(p) and p > 0):
        raise DomainError(f"domain violation: finite p > 0 required, got p = {p}")
    return float(
        modes * (2 * modes - 1) / 2.0 * math.log(math.pi / (2 * p)) - modes * (modes - 1) * LOG2
    )


def angular_volume_log(modes: int) -> float:
    """Log of the angular volume: the ratio of the Cartesian Gaussian integral
    to the radial one, which is independent of the stiffness p."""
    if modes < 1:
        raise DomainError(f"need modes >= 1, got {modes}")
    j = np.arange(modes)
    return float(
        modes * (modes - 0.5) * LOG_PI
        - modes * (modes - 1) * LOG2
        - (_lgamma(2 + j) + _lgamma(j + 0.5)).sum()
    )


def norm_const_det_log(modes: int, p: float) -> float:
    """Log of the constant that normalizes the determinant eigenvalue weight
    prod (1 + lam_j^2)^(-2p) against the class-D measure. Requires p > M - 3/4."""
    if modes < 1:
        raise DomainError(f"need modes >= 1, got {modes}")
    if not (math.isfinite(p) and p > modes - 0.75):
        raise DomainError(
            f"domain violation: finite p > M - 3/4 required (M = {modes}), got p = {p}"
        )
    j = np.arange(modes)
    return float(
        modes**2 * LOG2
        - modes * (modes - 0.5) * LOG_PI
        + (_lgamma(2 * p - modes + j + 1) - _lgamma(2 * p - 2 * modes + j + 1.5)).sum()
    )


def norm_const_gauss_log(modes: int, p: float) -> float:
    """Log of the constant that normalizes the Gaussian eigenvalue weight
    exp(-p Tr[H^2]) against the class-D measure."""
    if modes < 1:
        raise DomainError(f"need modes >= 1, got {modes}")
    if not (math.isfinite(p) and p > 0):
        raise DomainError(f"domain violation: finite p > 0 required, got p = {p}")
    return float(modes**2 * LOG2 + modes * (modes - 0.5) * math.log(2 * p / math.pi))
