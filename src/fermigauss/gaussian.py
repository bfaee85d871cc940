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
from functools import lru_cache

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
#: The Wick kernel (_wick_sums) runs its draws in blocks of this many
#: Pfaffians of its largest level: a cache-sized block, fixed rather than an
#: option, so the kernel's transient does not grow with the draw count.
WICK_BLOCK_VALUES = 1 << 16


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
    U (a, a^dag)^T defines canonical transformed mode operators. Construction
    checks that U is unitary and has the particle-hole pairing
    U = [[A, B], [B*, A*]] to within STRUCTURE_TOL.
    """

    lambdas: np.ndarray
    bogoliubov: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or not lam.size or not np.isfinite(lam).all():
            raise StructureError(f"lambdas must be a finite non-empty vector, got shape {lam.shape}")
        u = _square(self.bogoliubov, "transformation", 2 * lam.size)
        _require_close(u @ u.conj().T, np.eye(2 * lam.size), STRUCTURE_TOL, "diagonalizing transformation is not unitary")
        a, b = u[: lam.size, : lam.size], u[: lam.size, lam.size :]
        _require_close(u[lam.size :], np.concatenate([b, a], axis=1).conj(), STRUCTURE_TOL, "diagonalizing transformation lacks the particle-hole pairing")
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


def _majorana_form(h, d) -> np.ndarray:
    """A = Im(Omega H Omega^dag) / 2 (Omega = WickPlan.majorana) of the class-D
    coefficient matrices H = [[h, D], [-D*, -h^T]], written from their
    (..., M, M) blocks: the one writer of the Majorana block layout, for the
    real form and for the number-conserving fillings (F, 0)."""
    m = h.shape[-1]
    a = np.empty(h.shape[:-2] + (2 * m, 2 * m))
    a[..., ::2, ::2], a[..., ::2, 1::2] = h.imag + d.imag, h.real - d.real
    a[..., 1::2, ::2], a[..., 1::2, 1::2] = -(h.real + d.real), h.imag - d.imag
    return a


def _scaled_real_form(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A / top, top) of class-D coefficient matrices H: A = _majorana_form of their
    blocks, and top its largest entry, (..., 1, 1), so no square of A / top overflows."""
    m = mats.shape[-1] // 2
    a = _majorana_form(mats[..., :m, :m], mats[..., :m, m:])
    top = np.abs(a).max(axis=(-2, -1), keepdims=True)
    a /= np.where(top > 0.0, top, 1.0)  # in place: a second (n, 2M, 2M) stack costs more than the division
    return a, top


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


def real_form_pair_rows(av: np.ndarray, vecs: np.ndarray, s: np.ndarray, t: float = 1.0) -> np.ndarray:
    """The Wick pair rows (_pair_rows) of the Majorana covariances Gamma = P -
    P^T, P = t A V diag(g(|t| s)) V^T, of the normalized Gaussian operators
    L(t H) of the draws of real_form: the filling -tanh(H/2)/2 is odd and
    Omega H Omega^dag / 2 = i A, Omega / sqrt(2) unitary, so i Gamma = 2 i t A
    g(|t| sqrt(A^T A)) = 2 i P; the rows are 0 for H = 0 or t = 0."""
    p = (av * (t * _tanh_ratio(abs(t) * s))[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return _pair_rows(p)


def number_conserving_pair_rows(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The Wick pair rows of the Majorana covariances of the normalized
    number-conserving Gaussian operators of h[s] = u[s] diag(lam[s]) u[s]^dag,
    from M x M products only: Gamma = X - X^T, X the _majorana_form of the
    filling (F, 0), F = u diag(-tanh(lam/2)/2) u^dag; 0 at F = 0."""
    return _pair_rows(_majorana_form(from_eigenpairs(-0.5 * np.tanh(0.5 * lam), u), 0.0))


def _rank_one_filling(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """u diag(w) u^dag for (n, 2) ``w`` and 2 x 2 unitaries u given by their
    (n, 2) first columns ``q``: since u u^dag = I, it is
    w_2 I + (w_1 - w_2) q q^dag, which the second column's phase leaves alone."""
    f = (w[:, 0] - w[:, 1])[:, None, None] * (q[:, :, None] * q[:, None, :].conj())
    f[:, [0, 1], [0, 1]] += w[:, 1:]
    return f


def _rank_one_pair_rows(lam: np.ndarray, real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """The (6, n) Wick pair rows, Gamma at (01, 02, 12, 03, 13, 23) as
    fock.WickPlan(2) orders them, of the normalized number-conserving
    operators of h = u diag(lam) u^dag for (n, 2) ``lam`` and 2 x 2 unitaries
    u with first columns z / |z|, z_j = real[j] + i imag[j] for the (2, n)
    rows ``real`` and ``imag``: in real arithmetic, with no complex stack.
    The filling is _rank_one_filling's F = w_1 I + c z z^dag,
    w = -tanh(lam/2)/2 and c = (w_0 - w_1) / |z|^2, and the rows are
    2 (F_00, Im F_01, -Re F_01, Re F_01, Im F_01, F_11), the rows that
    number_conserving_pair_rows gathers; the factor 2 is folded into w, exactly."""
    v = -np.tanh(0.5 * lam.T)  # 2 w
    norms = real * real + imag * imag  # |z_j|^2
    c = (v[0] - v[1]) / (norms[0] + norms[1])
    re01 = c * (real[0] * real[1] + imag[0] * imag[1])
    im01 = c * (imag[0] * real[1] - real[0] * imag[1])
    return np.stack([v[1] + c * norms[0], im01, -re01, re01, im01, v[1] + c * norms[1]])


@lru_cache(maxsize=None)
def _wick_block_draws(modes: int) -> int:
    """Draws per block of _wick_sums: WICK_BLOCK_VALUES over the largest
    level's subset count, at least 1 (70 draws at M = 6, 10922 at M = 2)."""
    plan = _wick_plan(modes)
    sizes = [len(plan.pair_rows)] + [len(pair) for pair, _ in plan.levels]
    return max(1, WICK_BLOCK_VALUES // max(sizes))


def _pair_rows(x: np.ndarray) -> np.ndarray:
    """The (P, n) Wick pair rows of the (n, 2M, 2M) matrices ``x``: x_ab - x_ba
    at the P = M(2M - 1) pairs a < b of fock.WickPlan, one column per draw:
    all that a Pfaffian reads of the covariances Gamma = x - x^T, none built."""
    plan = _wick_plan(x.shape[-1] // 2)
    return (x[:, plan.pair_rows, plan.pair_cols] - x[:, plan.pair_cols, plan.pair_rows]).T


def _wick_sums(pairs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted sums of the Pfaffians Pf(Gamma_S) of the draws with the (P, n)
    Wick pair rows ``pairs`` (_pair_rows), in the subset order of
    fock.WickPlan: row k - 1 of the (M, n) ``weights`` weighs the n Pfaffians
    of each subset of size 2k, and the empty set's coordinate is 1.

    The draws run in blocks of _wick_block_draws, along the last axis of the
    recursion, and the block totals are added in draw order. Per level, one
    gather of the previous level's Pfaffians and one of the pair values for
    all k - 1 terms, (k - 1, n_k, block) each, are multiplied in place and
    added into the first term in term order, odd terms subtracted; the level
    is summed over the block before the next. Both gathers go to one scratch
    array per call, sized for the widest level and reused by every level and
    block: at most 2 WICK_BLOCK_VALUES (k - 1) values, whatever n is, taken
    from the allocator once per call rather than once per level."""
    modes, count = len(weights), pairs.shape[1]
    _check_modes(modes)
    plan, block = _wick_plan(modes), _wick_block_draws(modes)
    widest = max((pair.size for pair, _ in plan.levels), default=0)
    scratch = np.empty((2, widest * min(block, count)))
    sums = None
    for start in range(0, count, block):
        block_pairs = np.ascontiguousarray(pairs[:, start : start + block])
        block_weights = weights[:, start : start + block]
        coords, prev = [block_pairs @ block_weights[0]], block_pairs
        for (pair, sub), level_weights in zip(plan.levels, block_weights[1:]):
            shape = (pair.shape[1], pair.shape[0], block_pairs.shape[1])
            size = math.prod(shape)
            # the previous level lives in scratch[0], so its gather goes first
            subs = np.take(prev, sub.T, axis=0, out=scratch[1, :size].reshape(shape), mode="clip")
            terms = np.take(block_pairs, pair.T, axis=0, out=scratch[0, :size].reshape(shape), mode="clip")
            terms *= subs
            prev = terms[0]
            for t in range(1, len(terms)):
                if t % 2:
                    prev -= terms[t]
                else:
                    prev += terms[t]
            coords.append(prev @ level_weights)
        sums = coords if sums is None else [a + b for a, b in zip(sums, coords)]
    return np.concatenate([np.ones(1), *sums])


def wick_coordinates(pairs: np.ndarray, log_weights=None) -> np.ndarray:
    """Mean Wick coordinates Pf(Gamma_S) of the normalized Gaussian operators
    whose Majorana covariances have the (P, n) Wick pair rows ``pairs``
    (_pair_rows: Gamma_ab at the P = M(2M - 1) pairs a < b, one column per
    draw), in the subset order of fock.WickPlan; with ``log_weights`` draw s
    weighs e^log_weights[s]. The Wick kernel's one entry: StructureError
    unless ``pairs`` is a finite (P, n) array, ContractError for no draws or
    unless ``log_weights`` is one finite value per draw."""
    pairs = np.asarray(pairs)
    modes = (1 + math.isqrt(1 + 8 * len(pairs))) // 4 if pairs.ndim == 2 else 0
    if not modes or modes * (2 * modes - 1) != len(pairs):
        raise StructureError(f"Wick pair rows must be (P, n) with P = M(2M - 1) for some M, got shape {pairs.shape}")
    if not np.isfinite(pairs).all():
        raise StructureError("Wick pair rows must be finite")
    count = pairs.shape[1]
    if not count or not (log_weights is None or np.shape(log_weights) == (count,) and np.isfinite(log_weights).all()):
        raise ContractError(f"need at least one draw and, if given, one finite log weight per draw; got {count} draws")
    return _wick_sums(pairs, np.broadcast_to(_draw_weights(count, log_weights), (modes, count)))


def filling_moments(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The 2^M moments m_J, the means of prod_(j in J) t_j with
    t_j = -tanh(lam_j / 2) / 2 over the (n, M) nodes ``points`` under the
    nonnegative node ``weights`` (a node of weight 0 adds nothing), for every
    subset J of the M modes by bit mask; m_0 = 1. One pass over the nodes:
    the products of the subsets with highest mode j are those without j
    times t_j."""
    t = -0.5 * np.tanh(0.5 * points)
    prods = np.ones((len(points), 1 << points.shape[-1]))
    for j in range(points.shape[-1]):
        prods[:, 1 << j : 2 << j] = prods[:, : 1 << j] * t[:, j : j + 1]
    return (weights / weights.sum()) @ prods


def moment_wick_coordinates(moments: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mean Wick coordinates of the normalized Gaussian operators of
    v diag(lam, -lam) v^dag over the nodes lam whose filling_moments are
    ``moments``, for one v with the particle-hole pairing of the polar
    forms, u_(j+M) = conj(u_j) for the columns of u = majorana v.

    A node's covariance is Gamma(t) = sum_j t_j K_j, where K_j, the layout
    X - X^T, X = (Im u) diag(f) (Re u)^T, at the filling f of 1 at j and -1 at
    j + M, has rank 2 by the pairing. So Pf(Gamma_S) is multilinear of degree
    |S|/2 in t, and its mean is sum_(|J| = |S|/2) m_J Pf((K_J)_S), with K_J
    = sum_(j in J) K_j the covariance at the filling of J: one Pfaffian
    recursion over the pair rows of the 2^M matrices K_J, which _pair_rows
    takes from their X_J. StructureError unless v is paired."""
    modes = v.shape[-1] // 2
    _check_modes(modes)
    u = _wick_plan(modes).majorana @ v
    _require_close(u[:, modes:], u[:, :modes].conj(), STRUCTURE_TOL, "eigenvectors lack the particle-hole pairing")
    masks = np.arange(1 << modes)
    member = ((masks[:, None] >> np.arange(modes)) & 1).astype(float)  # (2^M, M): 1 where j is in J
    x = (u.imag * np.concatenate([member, -member], axis=1)[:, None, :]) @ u.real.T
    levels = np.bitwise_count(masks) == np.arange(1, modes + 1)[:, None]  # (M, 2^M): |J| = k
    return _wick_sums(_pair_rows(x), np.where(levels, moments, 0.0))


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
def _hole_filling(h: np.ndarray) -> np.ndarray:
    """n_tilde = (I + exp(h^T))^-1 of one hermitian h or a stack, from one eigh
    of h^T: greens_parameterization's n_tilde. A filling whose exponential
    overflows is 0, not NaN."""
    w, v = np.linalg.eigh(np.swapaxes(h, -1, -2))
    return from_eigenpairs(1.0 / (1.0 + np.exp(w)), v)


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
    n_tilde = _hole_filling(h)
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
