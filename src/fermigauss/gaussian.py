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

from .errors import BranchCutError, ContractError, DegenerateSpectrumError, StructureError
from .fock import (  # noqa: F401  op_exp stays importable here: benchmark/tracing.py wraps it
    HERMITICITY_TOL,
    STRUCTURE_TOL,
    FockOperator,
    _check_modes,
    _frozen,
    _require_close,
    _sigma_x,
    _square,
    _wick_plan,
    from_eigenpairs,
    op_exp,
    quadratic_hamiltonian,
)

#: Tolerance for matching +-lambda eigenvalue pairs.
PAIR_TOL = 1e-8


def assemble_blocks(h: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The one writer of the block layout: (..., M, M) blocks h and D stacked
    into coefficient matrices [[h, D], [-D*, -h^T]], (..., 2M, 2M)."""
    m = h.shape[-1]
    out = np.zeros(h.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    out[..., :m, :m] = h
    out[..., :m, m:] = delta
    out[..., m:, :m] = -delta.conj()
    out[..., m:, m:] = -np.swapaxes(h, -1, -2)
    return out


@dataclass(frozen=True)
class BdgMatrix:
    """Hermitian coefficient matrix of a quadratic fermion form, stored by blocks.

    ``h`` is the single-particle block and ``delta`` the pairing block of the
    same size; the assembled matrix is assemble_blocks(h, delta). Construction
    checks that ``h`` is hermitian and ``delta`` skew-symmetric to within
    STRUCTURE_TOL, so every instance is a valid hermitian element.
    """

    h: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        h = _square(self.h, "single-particle block")
        d = _square(self.delta, "pairing block", h.shape[0])
        _require_close(d, -d.T, STRUCTURE_TOL, "pairing block is not skew-symmetric")
        _require_close(h, h.conj().T, STRUCTURE_TOL, "single-particle block is not hermitian")
        object.__setattr__(self, "h", _frozen(h))
        object.__setattr__(self, "delta", _frozen(d))

    @property
    def modes(self) -> int:
        return self.h.shape[0]

    def assembled(self) -> np.ndarray:
        return assemble_blocks(self.h, self.delta)


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

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or not lam.size or not np.isfinite(lam).all():
            raise StructureError(f"lambdas must be a finite non-empty vector, got shape {lam.shape}")
        u = _square(self.bogoliubov, "transformation", 2 * lam.size)
        _require_close(u @ u.conj().T, np.eye(2 * lam.size), STRUCTURE_TOL, "diagonalizing transformation is not unitary")
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
        n = _square(self.n, "n")
        nt = _square(self.n_tilde, "n_tilde", n.shape[0])
        _require_close(n + nt, np.eye(n.shape[0]), HERMITICITY_TOL, "particle and hole matrices must sum to the identity")
        for name, mat in (("n", n), ("n_tilde", nt)):
            _require_close(mat, mat.conj().T, STRUCTURE_TOL, f"{name} must be hermitian")
            w = np.linalg.eigvalsh(mat)
            if not (0 < w.min() and w.max() < 1):
                raise StructureError(f"{name} eigenvalues must lie strictly inside (0, 1)")
        object.__setattr__(self, "n", _frozen(n))
        object.__setattr__(self, "n_tilde", _frozen(nt))


def make_bdg(h, delta) -> BdgMatrix:
    """Validate blocks and build a hermitian coefficient matrix.

    Rejects (rather than symmetrizes) inputs whose single-particle block is not
    hermitian or whose pairing block is not skew-symmetric to within
    STRUCTURE_TOL; BdgMatrix runs those checks, and the error names the
    offending block and the size of the violation. A single mode forces
    delta = 0.
    """
    h = _square(h, "single-particle block")
    _check_modes(h.shape[0])
    return BdgMatrix(h, delta)


def _assembled(bdg: BdgMatrix, context: str) -> np.ndarray:
    if not isinstance(bdg, BdgMatrix):
        raise ContractError(f"{context} requires a BdgMatrix coefficient matrix")
    return bdg.assembled()


def _paired_eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair representatives (as paired_eigenvalues) and the eigenvectors of one
    assembled coefficient matrix or a stack, ascending; StructureError unless
    every spectrum is symmetric under sign reversal."""
    w, v = np.linalg.eigh(mats)
    m = mats.shape[-1] // 2
    _require_close(w, -w[..., ::-1], PAIR_TOL, "spectrum is not symmetric under sign reversal")
    return (w[..., m:] - w[..., m - 1 :: -1]) / 2.0, v


def paired_eigenvalues(bdg: BdgMatrix) -> np.ndarray:
    """Ascending nonnegative representatives of the +-lambda eigenvalue pairs.

    Only mirror symmetry of the spectrum is required, so degenerate spectra
    (including the zero matrix) are fine here.
    """
    return _paired_eigh(_assembled(bdg, "eigenvalue pairing"))[0]


def _polar_parts(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair representatives and canonical transformations of
    polar_decompose for one assembled coefficient matrix or a stack, and
    whether each spectrum is degenerate (pairs closer than PAIR_TOL)."""
    lam, v = _paired_eigh(mats)
    m = mats.shape[-1] // 2
    degenerate = (np.diff(lam).min(axis=-1, initial=math.inf) < PAIR_TOL) | (lam[..., 0] < PAIR_TOL / 2)
    plus = v[..., m:]
    big = np.concatenate([plus, _sigma_x(m) @ plus.conj()], axis=-1)
    return lam, np.swapaxes(big.conj(), -1, -2), degenerate


def polar_decompose(bdg: BdgMatrix) -> PolarForm:
    """Split a hermitian coefficient matrix into eigenvalue pairs and a
    canonical diagonalizing transformation.

    The partner of the eigenvector w for +lambda is sigma_x conj(w) for
    -lambda, which makes the stacked transformation both unitary and
    compatible with the mode-operator anticommutators. Spectra where distinct
    pairs (or a pair and its mirror) come closer than PAIR_TOL are
    rejected: the pairing is then ambiguous and callers should perturb the
    input. Samplers treat this as a probability-zero event and redraw.
    """
    lam, u, degenerate = _polar_parts(_assembled(bdg, "polar decomposition"))
    if degenerate:
        raise DegenerateSpectrumError(
            "eigenvalue pairs are closer than the pair tolerance "
            f"({PAIR_TOL:.1e}); perturb the input and retry"
        )
    return PolarForm(lambdas=lam, bogoliubov=u)


def log_trace_of_pairs(lam: np.ndarray) -> np.ndarray:
    """sum_j log(2 cosh(lambda_j / 2)) over the last axis, the log of the Fock
    trace of the exponentiated quadratic operator, taken stably as
    |lambda|/2 + log1p(exp(-|lambda|)) so that no cosh overflows."""
    a = np.abs(lam)
    return np.sum(a / 2.0 + np.log1p(np.exp(-a)), axis=-1)


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
    return FockOperator(ham.modes, exp_normalized_fock_batch(ham.matrix[None])[0], hermitian=True)


def exp_normalized_fock_batch(hams: np.ndarray) -> np.ndarray:
    """Trace-normalized exponentials of a stack of hermitian Fock operators.

    The package's one normalized-exponential kernel on Fock matrices:
    gaussian_normalized and gaussian_number_conserving go through it, and the
    Monte Carlo and quadrature drivers check their Wick means against it.
    ``hams`` is (n, d, d) full matrices or (n, 2, d/2, d/2) parity blocks;
    each of the n operators is normalized jointly over all its blocks. Its spectrum is shifted by one common maximum before
    exponentiation, which the joint trace normalization divides back out, so
    no entry overflows and the blocks keep their relative weight. Its
    independent oracle is the per-mode product form in the rotated mode basis
    (test_gaussian.py, test_matches_per_mode_product).
    """
    w, v = np.linalg.eigh(hams)
    op_axes = tuple(range(1, w.ndim))
    mats = from_eigenpairs(np.exp(w - w.max(axis=op_axes, keepdims=True)), v)
    tr = np.einsum("...aa->...", mats).real.sum(axis=op_axes[:-1])
    return mats / tr.reshape((-1,) + (1,) * (mats.ndim - 1))


def _draw_weights(count: int, log_weights=None) -> np.ndarray:
    """Normalized weights of ``count`` draws: equal, or e^log_weights taken
    relative to the largest, so none overflows."""
    if log_weights is None:
        return np.full(count, 1.0 / count)
    w = np.exp(np.subtract(log_weights, np.max(log_weights)))
    return w / w.sum()


def _tanh_ratio(s: np.ndarray) -> np.ndarray:
    """g(s) = -tanh(s/2) / (2s), with g(0) = -1/4."""
    return -0.25 * np.divide(np.tanh(0.5 * s), 0.5 * s, out=np.ones_like(s), where=s > 0)


def _scaled_real_form(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A / top, top) of class-D coefficient matrices H: A = Im(Omega H
    Omega^dag) / 2 (Omega = WickPlan.majorana) written from the blocks of H,
    and top its largest entry, (..., 1, 1), so no square of A / top overflows."""
    m = mats.shape[-1] // 2
    h, d = mats[..., :m, :m], mats[..., :m, m:]
    a = np.empty(mats.shape)
    a[..., ::2, ::2], a[..., ::2, 1::2] = h.imag + d.imag, h.real - d.real
    a[..., 1::2, ::2], a[..., 1::2, 1::2] = -(h.real + d.real), h.imag - d.imag
    top = np.abs(a).max(axis=(-2, -1), keepdims=True)
    return a / np.where(top > 0.0, top, 1.0), top


def real_form(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A V, V, s) of class-D coefficient matrices H for every L(t H): the real
    form A of _scaled_real_form, one real eigh A^T A = V diag(mu) V^T of A over
    its largest entry (no square overflows), and s = |A v_k|: sqrt(mu) with the
    rounding of A, not of A^T A, so each pair eigenvalue of H twice, ascending
    (s[:, 1::2] once)."""
    scaled, top = _scaled_real_form(mats)
    vecs = np.linalg.eigh(np.swapaxes(scaled, -1, -2) @ scaled)[1]
    sv = scaled @ vecs
    return top * sv, vecs, top[..., 0] * np.linalg.norm(sv, axis=-2)


def pair_values(mats: np.ndarray) -> np.ndarray:
    """Ascending pair eigenvalues, (n, M), of a stack of class-D coefficient
    matrices: eigvalsh(mats)[:, M:]. At M = 2 in closed form, from the 4 x 4
    real form A over its largest entry: its self-dual and anti-self-dual
    parts, the 3-vectors u = x + y and v = x - y of the entries x = (A_01,
    A_02, A_03) and their Hodge duals y = (A_23, A_31, A_12), commute and
    square to -|u|^2 I / 4 and -|v|^2 I / 4, so the singular values of A, the
    pair eigenvalues, are (|u| + |v|) / 2 and ||u| - |v|| / 2."""
    m = mats.shape[-1] // 2
    if m != 2:
        return np.linalg.eigvalsh(mats)[:, m:]
    a, top = _scaled_real_form(mats)
    x, y = a[:, [0, 0, 0], [1, 2, 3]], a[:, [2, 3, 1], [3, 1, 2]]
    u, v = np.linalg.norm(x + y, axis=-1), np.linalg.norm(x - y, axis=-1)
    return 0.5 * top[:, 0] * np.stack([np.abs(u - v), u + v], axis=-1)


def covariance_of_real_form(av: np.ndarray, vecs: np.ndarray, s: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Majorana covariances Gamma = P - P^T, P = t A V diag(g(|t| s)) V^T, of
    the normalized Gaussian operators L(t H) of the draws of real_form: the
    filling -tanh(H/2)/2 is odd and Omega H Omega^dag / 2 = i A, Omega / sqrt(2)
    unitary, so i Gamma = 2 i t A g(|t| sqrt(A^T A)) = 2 i P, and P - P^T is
    exactly antisymmetric, and 0 for H = 0 or t = 0."""
    p = (av * (t * _tanh_ratio(abs(t) * s))[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return p - np.swapaxes(p, -1, -2)


def covariance_from_eigenpairs(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Majorana covariances of the normalized Gaussian operators of v[s]
    diag(w[s]) v[s]^dag, or of v diag(w[s]) v^dag for one ``v`` shared by the
    nodes of a quadrature rule (one flat product): Gamma = X - X^T with
    X = (Im u) diag(t) (Re u)^T, u = majorana v and t = -tanh(w/2)/2. The
    quadrature rules use it; number-conserving draws take
    covariance_number_conserving."""
    u = _wick_plan(w.shape[-1] // 2).majorana @ v
    x = u.imag * -0.5 * np.tanh(0.5 * w)[:, None, :]  # rebound below, so one (n, 2M, 2M) stack less is held
    x = (x.reshape(-1, x.shape[-1]) @ u.real.T).reshape(x.shape) if v.ndim == 2 else x @ np.swapaxes(u.real, -1, -2)
    return x - np.swapaxes(x, -1, -2)


def covariance_number_conserving(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Majorana covariances of the normalized number-conserving Gaussian
    operators of h[s] = u[s] diag(lam[s]) u[s]^dag: covariance_from_eigenpairs
    on the eigenpairs [lam, -lam] and blockdiag(u, conj u) of the embedding
    (h, 0), from M x M products only: _filling_covariance of the filling
    F = u diag(-tanh(lam/2)/2) u^dag."""
    return _filling_covariance(from_eigenpairs(-0.5 * np.tanh(0.5 * lam), u))


def _rank_one_filling(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """u diag(w) u^dag for (n, 2) ``w`` and 2 x 2 unitaries u given by their
    (n, 2) first columns ``q``: since u u^dag = I, it is
    w_2 I + (w_1 - w_2) q q^dag, which the second column's phase leaves alone."""
    f = (w[:, 0] - w[:, 1])[:, None, None] * (q[:, :, None] * q[:, None, :].conj())
    f[:, [0, 1], [0, 1]] += w[:, 1:]
    return f


def _filling_covariance(f: np.ndarray) -> np.ndarray:
    """Majorana covariances of the normalized number-conserving Gaussian
    operators with the M x M fillings ``f``: Gamma = X - X^T, where X holds
    Im F at (2j, 2l) and (2j+1, 2l+1), Re F at (2j, 2l+1) and -Re F at
    (2j+1, 2l): exactly antisymmetric, and 0 at F = 0."""
    m = f.shape[-1]
    x = np.empty(f.shape[:-2] + (2 * m, 2 * m))
    x[..., ::2, ::2] = x[..., 1::2, 1::2] = f.imag
    x[..., ::2, 1::2], x[..., 1::2, ::2] = f.real, -f.real
    return x - np.swapaxes(x, -1, -2)


def wick_coordinates(gamma: np.ndarray, log_weights=None) -> np.ndarray:
    """Mean Wick coordinates Pf(Gamma_S) of the normalized Gaussian operators
    with the (n, 2M, 2M) Majorana covariances ``gamma``, in the subset order
    of fock.WickPlan; with ``log_weights`` draw s weighs e^log_weights[s]. The
    empty set's coordinate is 1. The draws run along the last axis of the
    recursion, and each level is averaged before the next."""
    modes = gamma.shape[-1] // 2
    _check_modes(modes)
    plan = _wick_plan(modes)
    pairs = np.ascontiguousarray(gamma[:, plan.pair_rows, plan.pair_cols].T)
    weights = _draw_weights(len(gamma), log_weights)
    coords, prev = [np.ones(1), pairs @ weights], pairs
    for pair, sub in plan.levels:
        cur = pairs[pair[:, 0]] * prev[sub[:, 0]]
        for t in range(1, pair.shape[1]):
            term = pairs[pair[:, t]] * prev[sub[:, t]]
            if t % 2:
                cur -= term
            else:
                cur += term
        coords.append(cur @ weights)
        prev = cur
    return np.concatenate(coords)


def wick_blocks(coords: np.ndarray) -> np.ndarray:
    """Parity blocks, (k, 2, 2^(M-1), 2^(M-1)), of the operators whose Wick
    coordinates are the k rows of ``coords`` (or its one row): with the scatter
    of fock.WickPlan, one gather of every flip pattern's coordinates and one
    batched product with its weights, so a Monte Carlo run maps all its chunks at once."""
    coords = np.atleast_2d(coords)
    columns, weights, entries = _wick_plan(coords.shape[-1].bit_length() // 2).scatter
    parts = weights @ coords.T[columns]  # (2, pattern, src, k): the real and imaginary parts
    out = np.empty((len(coords), entries.size), dtype=complex)
    out[:, entries] = np.moveaxis(parts[0] + 1j * parts[1], -1, 0)
    return out.reshape(-1, 2, len(columns), len(columns))  # as many flip patterns as states of one parity


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
    h = _square(h, "matrix")
    _require_close(h, h.conj().T, STRUCTURE_TOL, "matrix is not hermitian")
    w, v = np.linalg.eigh(h.T)
    n_tilde = from_eigenpairs(_stable_filling(w), v)
    return GreensPair(n=np.eye(h.shape[0]) - n_tilde, n_tilde=n_tilde)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) as v diag(exp(w)) v^-1 from one eigendecomposition a = v diag(w) v^-1.

    Exact to rounding when ``a`` is similar to a hermitian matrix, a = x h x^-1:
    then ``a`` is diagonalizable with real eigenvalues, however degenerate, and
    v is as well conditioned as x. Every input the package gives it is such a
    matrix: a hermitian one, the logarithm x L x^-1 of _principal_log, or the
    Fock matrix of a composed coefficient matrix, which the similarity x
    lifts to one in Fock space.
    """
    w, v = np.linalg.eig(a)
    return (v * np.exp(w)[..., None, :]) @ np.linalg.inv(v)


def _principal_log(a: np.ndarray, b: np.ndarray, context: str) -> np.ndarray:
    """Principal logarithm of exp(a) exp(b) for hermitian a, b of combined
    spectral norm below pi, for one pair or for stacks of pairs, taken pair by
    pair: compose_general and compose_number_conserving are its calls on one.

    The product is similar, through x = exp(a/2), to the positive definite
    x exp(b) x, and a primary matrix function commutes with similarity, so
    log = x log(x exp(b) x) x^-1 needs only hermitian eigendecompositions and
    never meets the branch cut. The round trip through _expm is still checked.
    The norm gate and the round trip hold each pair of a stack to its own bound.
    """
    wa, va = np.linalg.eigh(a)
    wb, vb = np.linalg.eigh(b)
    total = np.abs(wa).max(axis=-1) + np.abs(wb).max(axis=-1)
    if not np.all(total < math.pi):
        raise ContractError(
            f"combined spectral norm {np.max(total):.3f} >= pi; large-norm composition is out of scope"
        )
    x = from_eigenpairs(np.exp(wa / 2.0), va)
    exp_b = from_eigenpairs(np.exp(wb), vb)
    ws, vs = np.linalg.eigh(x @ exp_b @ x)
    log = x @ from_eigenpairs(np.log(ws), vs) @ from_eigenpairs(np.exp(-wa / 2.0), va)
    prod = x @ x @ exp_b
    resid = np.abs(_expm(log) - prod).max(axis=(-2, -1))
    if not np.all(resid <= 1e-10 * np.maximum(1.0, np.abs(prod).max(axis=(-2, -1)))):
        raise BranchCutError(f"{context}: matrix logarithm round trip failed ({np.max(resid):.3e})")
    return log


def compose_general(bdg1: BdgMatrix, bdg2: BdgMatrix) -> np.ndarray:
    """2M x 2M coefficient matrix X with exp(X) = exp(H1) exp(H2).

    Both inputs must be BdgMatrix elements jointly small in spectral norm (sum
    below pi); larger norms are out of scope. The product of exponentials of
    non-commuting hermitian elements is generally *not* hermitian, so X is
    returned as a plain matrix, as compose_number_conserving returns its
    M x M one; quadratic_hamiltonian checks its particle-hole structure and
    flags whether it is hermitian.
    """
    if not all(isinstance(b, BdgMatrix) for b in (bdg1, bdg2)):
        raise ContractError("composition requires BdgMatrix inputs")
    if bdg1.modes != bdg2.modes:
        raise ContractError("mode counts differ")
    return _principal_log(bdg1.assembled(), bdg2.assembled(), "compose_general")


def compose_number_conserving(h1, h2) -> np.ndarray:
    """M x M matrix h with exp(h) = exp(h1) exp(h2), for hermitian h1, h2.

    Same small-norm gate and logarithm as compose_general; the result is
    returned as a plain matrix since it is generally not hermitian.
    """
    h1 = _square(h1, "first argument", error=ContractError)
    h2 = _square(h2, "second argument", h1.shape[0], ContractError)
    for name, h in (("first", h1), ("second", h2)):
        _require_close(h, h.conj().T, STRUCTURE_TOL, f"{name} argument is not hermitian", ContractError)
    return _principal_log(h1, h2, "compose_number_conserving")
