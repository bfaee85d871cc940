"""Gaussian operators built from particle-hole coefficient matrices.

The central parameter is the 2M x 2M matrix H = [[h, D], [-D*, -h^T]] with
hermitian h and skew-symmetric D. Exponentials of the associated quadratic
Fock operators are the (un)normalized Gaussian operators; this module provides
their constructors, normalization, polar decomposition into eigenvalue pairs
plus a diagonalizing transformation, number-conserving specializations, and the
group composition laws at matrix level.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BranchCutError, ContractError, DegenerateSpectrumError, DomainError, StructureError
from .fock import (  # noqa: F401  op_exp stays importable here: benchmark/tracing.py wraps it
    DEFAULT_MODE_CAP,
    LOG_FLOAT_MAX,
    STRUCTURE_TOL,
    FockOperator,
    _check_modes,
    _frozen,
    from_eigenpairs,
    op_exp,
    quadratic_hamiltonian,
)

#: Default tolerance for matching +-lambda eigenvalue pairs.
PAIR_TOL = 1e-8


def _sigma_x(modes: int) -> np.ndarray:
    sig = np.zeros((2 * modes, 2 * modes))
    sig[:modes, modes:] = np.eye(modes)
    sig[modes:, :modes] = np.eye(modes)
    return sig


@dataclass(frozen=True)
class BdgMatrix:
    """Coefficient matrix of a quadratic fermion form, stored by blocks.

    ``h`` is the single-particle block and ``delta`` the pairing block; the
    assembled matrix is [[h, delta], [delta_lower, -h^T]]. For hermitian
    elements (the validated output of :func:`make_bdg`) ``delta_lower`` is
    -conj(delta). Composition of non-commuting hermitian elements leaves the
    hermitian slice, so ``delta_lower`` is stored explicitly and ``hermitian``
    records whether the assembled matrix equals its adjoint.
    """

    modes: int
    h: np.ndarray
    delta: np.ndarray
    delta_lower: np.ndarray | None = None
    hermitian: bool = True

    def __post_init__(self):
        m = self.modes
        h = np.asarray(self.h, dtype=complex)
        d = np.asarray(self.delta, dtype=complex)
        dl = -d.conj() if self.delta_lower is None else np.asarray(self.delta_lower, dtype=complex)
        if h.shape != (m, m) or d.shape != (m, m) or dl.shape != (m, m):
            raise StructureError(
                f"blocks of a {m}-mode coefficient matrix must be {m} x {m}; "
                f"got h {h.shape}, delta {d.shape}, lower {dl.shape}"
            )
        if not (np.isfinite(h).all() and np.isfinite(d).all() and np.isfinite(dl).all()):
            raise StructureError("coefficient blocks have non-finite entries")
        skew = np.abs(d + d.T).max()
        if not skew <= STRUCTURE_TOL:
            raise StructureError(f"pairing block is not skew-symmetric: max violation {skew:.3e}")
        skew_l = np.abs(dl + dl.T).max()
        if not skew_l <= STRUCTURE_TOL:
            raise StructureError(f"lower pairing block is not skew-symmetric: max violation {skew_l:.3e}")
        if self.hermitian:
            herm = np.abs(h - h.conj().T).max()
            if not herm <= STRUCTURE_TOL:
                raise StructureError(f"single-particle block is not hermitian: max violation {herm:.3e}")
            cross = np.abs(dl + d.conj()).max()
            if not cross <= STRUCTURE_TOL:
                raise StructureError(
                    f"lower pairing block inconsistent with hermiticity: max violation {cross:.3e}"
                )
        object.__setattr__(self, "h", _frozen(h))
        object.__setattr__(self, "delta", _frozen(d))
        object.__setattr__(self, "delta_lower", _frozen(dl))

    def assembled(self) -> np.ndarray:
        m = self.modes
        out = np.empty((2 * m, 2 * m), dtype=complex)
        out[:m, :m] = self.h
        out[:m, m:] = self.delta
        out[m:, :m] = self.delta_lower
        out[m:, m:] = -self.h.T
        return out


@dataclass(frozen=True)
class PolarForm:
    """Radial/angular split of a hermitian coefficient matrix.

    ``lambdas`` holds the M nonnegative eigenvalue-pair representatives in
    ascending order; ``bogoliubov`` is the 2M x 2M unitary U such that the
    assembled matrix equals U^-1 diag(lambdas, -lambdas) U and (b, b^dag)^T =
    U (a, a^dag)^T defines canonical transformed mode operators.
    """

    lambdas: np.ndarray
    bogoliubov: np.ndarray
    pair_tolerance: float = PAIR_TOL

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        u = np.asarray(self.bogoliubov, dtype=complex)
        m = lam.size
        if u.shape != (2 * m, 2 * m):
            raise StructureError(f"transformation must be {2*m} x {2*m}, got {u.shape}")
        unit = np.abs(u @ u.conj().T - np.eye(2 * m)).max()
        if unit > 1e-10:
            raise StructureError(f"diagonalizing transformation is not unitary: residual {unit:.3e}")
        object.__setattr__(self, "lambdas", _frozen(lam).real)
        object.__setattr__(self, "bogoliubov", _frozen(u))

    @property
    def modes(self) -> int:
        return self.lambdas.size

    def diagonal_coefficient(self) -> np.ndarray:
        return np.diag(np.concatenate([self.lambdas, -self.lambdas])).astype(complex)


@dataclass(frozen=True)
class GreensPair:
    """Particle/hole single-particle expectation matrices of a normalized
    number-conserving Gaussian operator. They satisfy n + n_tilde = I with both
    hermitian and spectra inside (0, 1)."""

    n: np.ndarray
    n_tilde: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n, dtype=complex)
        nt = np.asarray(self.n_tilde, dtype=complex)
        if np.abs(n + nt - np.eye(n.shape[0])).max() > 1e-12:
            raise StructureError("particle and hole matrices must sum to the identity")
        for name, mat in (("n", n), ("n_tilde", nt)):
            if np.abs(mat - mat.conj().T).max() > STRUCTURE_TOL:
                raise StructureError(f"{name} must be hermitian")
            w = np.linalg.eigvalsh(mat)
            if w.min() <= 0 or w.max() >= 1:
                raise StructureError(f"{name} eigenvalues must lie strictly inside (0, 1)")
        object.__setattr__(self, "n", _frozen(n))
        object.__setattr__(self, "n_tilde", _frozen(nt))


def make_bdg(h, delta, cap: int = DEFAULT_MODE_CAP) -> BdgMatrix:
    """Validate blocks and build a hermitian coefficient matrix.

    Rejects (rather than symmetrizes) inputs whose single-particle block is not
    hermitian or whose pairing block is not skew-symmetric to within
    STRUCTURE_TOL; BdgMatrix runs those checks, and the error names the
    offending block and the size of the violation. A single mode forces
    delta = 0.
    """
    h = np.asarray(h, dtype=complex)
    delta = np.asarray(delta, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape != delta.shape:
        raise StructureError(
            f"blocks must be square matrices of equal dimension, got {h.shape} and {delta.shape}"
        )
    modes = h.shape[0]
    _check_modes(modes, cap)
    return BdgMatrix(modes, h, delta)


def make_bdg_from_r(r, cap: int = DEFAULT_MODE_CAP) -> BdgMatrix:
    """Coefficient matrix sigma @ R for an antisymmetric quadratic-form matrix R.

    sigma is the off-diagonal identity block matrix, so the round trip
    R = sigma @ assembled() is exact. Hermiticity of the result is checked,
    not assumed.
    """
    r = np.asarray(r, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] % 2:
        raise StructureError(f"quadratic-form matrix must be square of even dimension, got {r.shape}")
    modes = r.shape[0] // 2
    _check_modes(modes, cap)
    anti = np.abs(r + r.T).max()
    if anti > STRUCTURE_TOL:
        raise StructureError(f"quadratic-form matrix is not antisymmetric: max violation {anti:.3e}")
    assembled = _sigma_x(modes) @ r
    herm = np.abs(assembled - assembled.conj().T).max()
    if herm > STRUCTURE_TOL:
        raise StructureError(
            f"sigma @ R is not hermitian (max violation {herm:.3e}); "
            f"only hermitian elements are accepted here"
        )
    return make_bdg(assembled[:modes, :modes], assembled[:modes, modes:], cap=cap)


def _paired_eigh(bdg: BdgMatrix, pair_tolerance: float, context: str) -> tuple[np.ndarray, np.ndarray]:
    """Pair representatives (as paired_eigenvalues) and the eigenvectors of the
    assembled matrix, ascending."""
    if not bdg.hermitian:
        raise ContractError(f"{context} requires a hermitian coefficient matrix")
    w, v = np.linalg.eigh(bdg.assembled())
    m = bdg.modes
    mirror = np.abs(w + w[::-1]).max()
    if mirror > pair_tolerance:
        raise StructureError(
            f"spectrum is not symmetric under sign reversal: max pairing violation {mirror:.3e}"
        )
    return (w[m:] - w[m - 1 :: -1]) / 2.0, v


def paired_eigenvalues(bdg: BdgMatrix, pair_tolerance: float = PAIR_TOL) -> np.ndarray:
    """Ascending nonnegative representatives of the +-lambda eigenvalue pairs.

    Only mirror symmetry of the spectrum is required, so degenerate spectra
    (including the zero matrix) are fine here.
    """
    return _paired_eigh(bdg, pair_tolerance, "eigenvalue pairing")[0]


def polar_decompose(bdg: BdgMatrix, pair_tolerance: float = PAIR_TOL) -> PolarForm:
    """Split a hermitian coefficient matrix into eigenvalue pairs and a
    canonical diagonalizing transformation.

    The partner of the eigenvector w for +lambda is sigma_x conj(w) for
    -lambda, which makes the stacked transformation both unitary and
    compatible with the mode-operator anticommutators. Spectra where distinct
    pairs (or a pair and its mirror) come closer than ``pair_tolerance`` are
    rejected: the pairing is then ambiguous and callers should perturb the
    input. Samplers treat this as a probability-zero event and redraw.
    """
    lam, v = _paired_eigh(bdg, pair_tolerance, "polar decomposition")
    m = bdg.modes
    gaps = np.diff(lam)
    if (m > 1 and gaps.min() < pair_tolerance) or lam[0] < pair_tolerance / 2:
        raise DegenerateSpectrumError(
            "eigenvalue pairs are closer than the pair tolerance "
            f"({pair_tolerance:.1e}); perturb the input and retry"
        )
    plus = v[:, m:]
    partner = _sigma_x(m) @ plus.conj()
    big = np.hstack([plus, partner])
    return PolarForm(lambdas=lam, bogoliubov=big.conj().T, pair_tolerance=pair_tolerance)


def trace_formula(bdg: BdgMatrix, pair_tolerance: float = PAIR_TOL) -> float:
    """prod_j 2 cosh(lambda_j / 2) over the M eigenvalue-pair representatives.

    Equals the exact Fock trace of the exponentiated quadratic operator, and
    the *square root* of the determinant of 2 cosh(H/2) taken over the doubled
    2M x 2M matrix (each factor appears there twice, once per pair member).
    Raises DomainError when the trace exceeds the float range.
    """
    lam = paired_eigenvalues(bdg, pair_tolerance)
    log_trace = float(np.sum(np.abs(lam) / 2.0 + np.log1p(np.exp(-np.abs(lam)))))
    if not log_trace < LOG_FLOAT_MAX:
        raise DomainError(f"trace overflows a float: its log is {log_trace:.6g}")
    return float(np.prod(2.0 * np.cosh(lam / 2.0)))


def gaussian_normalized(bdg: BdgMatrix) -> FockOperator:
    """Trace-normalized exponential of the quadratic operator of ``bdg``.

    This is exp_normalized_fock_batch applied to the one Fock matrix of
    ``bdg``, so large coefficient scales do not overflow. The divisor is the
    exact Fock-space trace; agreement with the closed-form product of
    2 cosh(lambda_j / 2) is a separately tested identity. The result is
    hermitian, positive definite and has unit trace.
    """
    ham = quadratic_hamiltonian(bdg)
    if not ham.hermitian:
        raise ContractError("normalized Gaussian operators require a hermitian coefficient matrix")
    return FockOperator(bdg.modes, exp_normalized_fock_batch(ham.matrix[None])[0], hermitian=True)


def exp_normalized_fock_batch(hams: np.ndarray) -> np.ndarray:
    """Trace-normalized exponentials of a stack of hermitian Fock matrices.

    The package's one normalized-exponential kernel: gaussian_normalized,
    gaussian_number_conserving and the Monte Carlo and quadrature drivers all
    go through it. The spectrum is shifted by its maximum before
    exponentiation, which the trace normalization divides back out, so no
    entry overflows. Its independent oracle is the per-mode product form in
    the rotated mode basis (test_gaussian.py, test_matches_per_mode_product).
    """
    w, v = np.linalg.eigh(hams)
    mats = from_eigenpairs(np.exp(w - w.max(axis=-1, keepdims=True)), v)
    tr = np.einsum("saa->s", mats).real
    return mats / tr[:, None, None]


@np.errstate(over="ignore")
def _stable_filling(w: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(w))


def gaussian_number_conserving(h) -> FockOperator:
    """Normalized number-conserving Gaussian operator for hermitian h.

    This is gaussian_normalized on the embedding (h, delta = 0), whose
    quadratic operator is a^dag h a - (1/2) tr h; the normalizing trace equals
    det 2 cosh(h/2) over the M x M block itself.
    """
    h = np.asarray(h, dtype=complex)
    return gaussian_normalized(make_bdg(h, np.zeros_like(h)))


def greens_parameterization(h) -> GreensPair:
    """Particle/hole matrices of the normalized number-conserving operator.

    n_tilde = (I + exp(h^T))^-1 and n = I - n_tilde. Always well defined: the
    eigenvalues of I + exp(h^T) are 1 + exp(lambda) >= 1.
    """
    h = np.asarray(h, dtype=complex)
    dev = np.abs(h - h.conj().T).max()
    if dev > STRUCTURE_TOL:
        raise StructureError(f"matrix is not hermitian: max violation {dev:.3e}")
    w, v = np.linalg.eigh(h.T)
    n_tilde = from_eigenpairs(_stable_filling(w), v)
    return GreensPair(n=np.eye(h.shape[0]) - n_tilde, n_tilde=n_tilde)


def _principal_log(a: np.ndarray, b: np.ndarray, context: str) -> np.ndarray:
    """Principal logarithm of exp(a) exp(b) for hermitian a, b of combined
    spectral norm below pi.

    The product is similar, through x = exp(a/2), to the positive definite
    x exp(b) x, and a primary matrix function commutes with similarity, so
    log = x log(x exp(b) x) x^-1 needs only hermitian eigendecompositions and
    never meets the branch cut. The round trip through expm is still checked.
    """
    wa, va = np.linalg.eigh(a)
    wb, vb = np.linalg.eigh(b)
    total = float(np.abs(wa).max() + np.abs(wb).max())
    if total >= math.pi:
        raise ContractError(
            f"combined spectral norm {total:.3f} >= pi; large-norm composition is out of scope"
        )
    x = from_eigenpairs(np.exp(wa / 2.0), va)
    exp_b = from_eigenpairs(np.exp(wb), vb)
    ws, vs = np.linalg.eigh(x @ exp_b @ x)
    log = x @ from_eigenpairs(np.log(ws), vs) @ from_eigenpairs(np.exp(-wa / 2.0), va)
    prod = x @ x @ exp_b
    resid = np.abs(scipy.linalg.expm(log) - prod).max()
    if not resid <= 1e-10 * max(1.0, np.abs(prod).max()):
        raise BranchCutError(f"{context}: matrix logarithm round trip failed ({resid:.3e})")
    return log


def compose_general(bdg1: BdgMatrix, bdg2: BdgMatrix) -> BdgMatrix:
    """Coefficient matrix whose exponential is exp(H1) exp(H2).

    Both inputs must be hermitian and jointly small in spectral norm (sum
    below pi); larger norms are out of scope. The product of exponentials of
    non-commuting hermitian elements is generally *not* hermitian; the result
    is returned faithfully with its ``hermitian`` flag cleared rather than
    rejected.
    """
    if not (bdg1.hermitian and bdg2.hermitian):
        raise ContractError("composition requires hermitian inputs")
    if bdg1.modes != bdg2.modes:
        raise ContractError("mode counts differ")
    log = _principal_log(bdg1.assembled(), bdg2.assembled(), "compose_general")
    m = bdg1.modes
    herm = np.abs(log - log.conj().T).max() <= STRUCTURE_TOL
    return BdgMatrix(m, log[:m, :m], log[:m, m:], delta_lower=log[m:, :m], hermitian=herm)


def compose_number_conserving(h1, h2) -> np.ndarray:
    """M x M matrix h with exp(h) = exp(h1) exp(h2), for hermitian h1, h2.

    Same small-norm gate and logarithm as compose_general; the result is
    returned as a plain matrix since it is generally not hermitian.
    """
    h1 = np.asarray(h1, dtype=complex)
    h2 = np.asarray(h2, dtype=complex)
    if h1.shape != h2.shape or h1.ndim != 2 or h1.shape[0] != h1.shape[1]:
        raise ContractError(f"expected equal square matrices, got {h1.shape} and {h2.shape}")
    for name, h in (("first", h1), ("second", h2)):
        dev = np.abs(h - h.conj().T).max()
        if dev > STRUCTURE_TOL:
            raise ContractError(f"{name} argument is not hermitian: max violation {dev:.3e}")
    return _principal_log(h1, h2, "compose_number_conserving")
