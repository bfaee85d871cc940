"""Closed-form evaluators for the eigenvalue integrals and normalizing constants.

Everything is returned as a natural logarithm so the formulas stay finite well
past the Fock-space cap; callers exponentiate only when they know the value is
small. Each formula is paired with a small-n quadrature oracle in the test
suite. Every formula leaves through _finite_exit, so it returns a finite float
or raises DomainError, never NaN or inf.
"""

import functools
import math
import sys

import numpy as np

from .errors import DomainError, _above, _count

LOG2 = math.log(2.0)
LOG_PI = math.log(math.pi)


def _log(value: float, *logs: float) -> float:
    """math.log(value) where value, a product or quotient, is a finite normal
    float, so ordinary values keep their bits; elsewhere the sum of ``logs``,
    the logs of its factors, which stays finite (2p overflows from p = 9e307)."""
    return math.log(value) if sys.float_info.min <= value <= sys.float_info.max else sum(logs)


#: log|Gamma(x)| entrywise, through ``math.lgamma``. The arrays here hold one
#: term per mode, all with positive arguments in the validated domains, so no
#: pole is ever met; this keeps ``scipy.special`` off the import path.
_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _finite_exit(func):
    """The one exit of a closed form: its value as a finite float, or a
    DomainError naming the function, its arguments and what it got instead,
    also where math.lgamma or math.log leaves the float range."""

    @functools.wraps(func)
    def closed_form(*args, **kwargs):
        try:
            with np.errstate(all="ignore"):
                out = func(*args, **kwargs)
        except DomainError:
            raise
        except (OverflowError, ValueError) as exc:  # math's "range error" and "domain error"
            out = exc
        if not (isinstance(out, float) and math.isfinite(out)):
            call = ", ".join(map(repr, [*args, *kwargs.values()]))
            raise DomainError(f"{func.__name__}({call}) is not a finite float ({out})")
        return out

    return closed_form


@_finite_exit
def vandermonde(lams) -> float:
    """prod_{i<j} (lam_i - lam_j); empty and singleton sequences give 1."""
    lam = np.asarray(lams, dtype=float)
    out = 1.0
    for i in range(lam.size - 1):
        out *= float(np.prod(lam[i] - lam[i + 1 :]))
    return out


@_finite_exit
def selberg_integral_log(a: float, b: float, g: float, n: int) -> float:
    """Log of the n-fold beta-type eigenvalue integral
    int_0^inf prod x_j^(a-1) (1+x_j)^(-a-b-2g(n-1)) |Delta(x)|^(2g) dx.

    Valid for a > 0, b > 0 and g > -min(1/n, a/(n-1), b/(n-1)).
    """
    _count(n, "n", DomainError)
    _above(a, 0, "a")
    _above(b, 0, "b")
    bound = 1.0 / n
    if n > 1:
        bound = min(bound, a / (n - 1), b / (n - 1))
    _above(g, -bound, "g")
    j = np.arange(n)
    terms = (
        _lgamma(1 + g + j * g)
        + _lgamma(a + j * g)
        + _lgamma(b + j * g)
        - _lgamma(1 + g)
        - _lgamma(a + b + (n + j - 1) * g)
    )
    return float(terms.sum())


@_finite_exit
def laguerre_selberg_log(atilde: float, g: float, n: int) -> float:
    """Log of the Gaussian-weight eigenvalue integral
    int prod |x_j|^(2*atilde-1) exp(-x_j^2/2) |Delta(x^2)|^(2g) dx over R^n."""
    _count(n, "n", DomainError)
    _above(atilde, 0, "atilde")
    _above(g, 0, "g", closed=True)
    j = np.arange(1, n + 1)
    terms = _lgamma(1 + j * g) + _lgamma(atilde + g * (j - 1)) - _lgamma(1 + g)
    return float((atilde * n + g * n * (n - 1)) * LOG2 + terms.sum())


@_finite_exit
def radial_gaussian_integral_log(modes: int, p: float) -> float:
    """Log of int over R^M of Delta(lam^2)^2 exp(-2p sum lam_j^2) d lam.

    The scale exponent is -M(M - 1/2); a variant with exponent -M(M - 1)
    circulates for the same integral but is off by a factor (2p)^(M/2) and
    fails the quadrature cross-check.
    """
    _count(modes, "modes", DomainError)
    _above(p, 0, "p")
    j = np.arange(1, modes + 1)
    return float(-modes * (modes - 0.5) * _log(2 * p, LOG2, math.log(p)) + (_lgamma(1 + j) + _lgamma(j - 0.5)).sum())


@_finite_exit
def cartesian_gaussian_integral_log(modes: int, p: float) -> float:
    """Log of int exp(-p Tr[H^2]) dH over the M(2M-1) independent real
    components of a particle-hole coefficient matrix."""
    _count(modes, "modes", DomainError)
    _above(p, 0, "p")
    log_scale = _log(math.pi / (2 * p), LOG_PI, -LOG2, -math.log(p))
    return float(modes * (2 * modes - 1) / 2.0 * log_scale - modes * (modes - 1) * LOG2)


@_finite_exit
def angular_volume_log(modes: int) -> float:
    """Log of the angular volume: the ratio of the Cartesian Gaussian integral
    to the radial one, which is independent of the stiffness p."""
    _count(modes, "modes", DomainError)
    j = np.arange(modes)
    return float(
        modes * (modes - 0.5) * LOG_PI
        - modes * (modes - 1) * LOG2
        - (_lgamma(2 + j) + _lgamma(j + 0.5)).sum()
    )


@_finite_exit
def norm_const_det_log(modes: int, p: float) -> float:
    """Log of the constant that normalizes the determinant eigenvalue weight
    prod (1 + lam_j^2)^(-2p) against the class-D measure. Requires p > M - 3/4."""
    _count(modes, "modes", DomainError)
    _above(p, modes - 0.75, "p")
    j = np.arange(modes)
    return float(
        modes**2 * LOG2
        - modes * (modes - 0.5) * LOG_PI
        + (_lgamma(2 * p - modes + j + 1) - _lgamma(2 * p - 2 * modes + j + 1.5)).sum()
    )


@_finite_exit
def norm_const_gauss_log(modes: int, p: float) -> float:
    """Log of the constant that normalizes the Gaussian eigenvalue weight
    exp(-p Tr[H^2]) against the class-D measure."""
    _count(modes, "modes", DomainError)
    _above(p, 0, "p")
    return float(modes**2 * LOG2 + modes * (modes - 0.5) * _log(2 * p / math.pi, LOG2, math.log(p), -LOG_PI))
