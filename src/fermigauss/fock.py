"""Exact second-quantized machinery on the 2**M-dimensional fermionic Fock space.

Basis convention: occupation bitstrings in ascending integer order, with mode j
stored in bit j (mode 0 = least significant bit). The sign string of each mode
operator acts on the lower-indexed modes, which keeps the construction a pure
bit-twiddling exercise.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import factorial, inf, log

import numpy as np

from .errors import CapacityError, ContractError, DomainError, StructureError, _above, _count

#: Largest mode count of every Fock-space construction (64 x 64 matrices).
DEFAULT_MODE_CAP = 6

#: Absolute tolerance used when an operator claims to be hermitian.
HERMITICITY_TOL = 1e-12

#: Looser tolerance for validating the structure of *inputs* (hermiticity,
#: skew symmetry, particle-hole blocks).
STRUCTURE_TOL = 1e-10

#: Log of the largest finite float.
LOG_FLOAT_MAX = log(np.finfo(float).max)


def _square(arr, what: str, dim: int | None = None, error: type[Exception] = StructureError) -> np.ndarray:
    """The one rule of every matrix argument: ``arr`` as a complex array, with StructureError
    on a NaN or inf entry (so none reaches the arithmetic of a check), and ``error``
    unless it is a non-empty square matrix, of size ``dim`` when given."""
    out = np.asarray(arr, dtype=complex)
    if not np.isfinite(out).all():
        raise StructureError(f"{what} has non-finite entries")
    if out.ndim != 2 or out.shape[0] != out.shape[1] or not out.size or dim not in (None, out.shape[0]):
        size = "" if dim is None else f" of size {dim}"
        raise error(f"{what} must be a non-empty square matrix{size}, got shape {out.shape}")
    return out


def _require_close(a, b, tol: float, what: str, error: type[Exception] = StructureError) -> None:
    """The one rule of every structure check: raise ``error`` unless
    max|a - b| <= tol, so a NaN or inf violation fails."""
    gap = np.abs(np.subtract(a, b)).max()
    if not gap <= tol:
        raise error(f"{what}: max violation {gap:.3e}")


def _sigma_x(modes: int) -> np.ndarray:
    """The 2M x 2M off-diagonal identity block matrix."""
    sig = np.zeros((2 * modes, 2 * modes))
    sig[:modes, modes:] = np.eye(modes)
    sig[modes:, :modes] = np.eye(modes)
    return sig


def _check_modes(modes: int) -> None:
    _count(modes, "modes", CapacityError)
    if modes > DEFAULT_MODE_CAP:
        raise CapacityError(f"mode count {modes} exceeds the Fock-space cap of {DEFAULT_MODE_CAP} modes")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on the occupation-number basis of M fermionic modes.

    ``matrix`` is 2**modes x 2**modes complex. When ``hermitian`` is set the
    entries are checked against the conjugate transpose at construction time.
    Instances are immutable and safe to share between threads.
    """

    modes: int
    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        _check_modes(self.modes)
        mat = _square(self.matrix, f"operator on {self.modes} modes", 1 << self.modes)
        if self.hermitian:
            _require_close(mat, mat.conj().T, HERMITICITY_TOL, "operator flagged hermitian deviates from its adjoint")
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return 1 << self.modes

    @classmethod
    def identity(cls, modes: int) -> "FockOperator":
        return cls(modes, np.eye(1 << modes, dtype=complex), hermitian=True)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


@lru_cache(maxsize=None)
def _annihilators(modes: int) -> tuple[np.ndarray, ...]:
    """Matrices of the M annihilation operators, cached per mode count."""
    dim = 1 << modes
    ops = []
    for j in range(modes):
        bit = 1 << j
        lower = bit - 1
        mat = np.zeros((dim, dim), dtype=complex)
        for n in range(dim):
            if n & bit:
                sign = -1.0 if (n & lower).bit_count() & 1 else 1.0
                mat[n ^ bit, n] = sign
        ops.append(_frozen(mat))
    return tuple(ops)


def build_mode_operators(modes: int) -> list[FockOperator]:
    """Annihilation operators a_1 .. a_M as Fock-space matrices.

    The returned operators satisfy {a_i, a_j^dag} = delta_ij and {a_i, a_j} = 0
    exactly (entries are 0 or +-1), and annihilate the vacuum (basis index 0).
    """
    _check_modes(modes)
    return [FockOperator(modes, m) for m in _annihilators(modes)]


@lru_cache(maxsize=None)
def _parities(modes: int) -> np.ndarray:
    """Occupation parity (0 or 1) of every basis state."""
    out = np.array([n.bit_count() & 1 for n in range(1 << modes)])
    out.setflags(write=False)
    return out


def _ladder(states: np.ndarray, mode: int, create: bool, parity: np.ndarray):
    """a_mode (or its adjoint) on basis states: (image states, signs, nonzero mask).

    The sign string counts the occupied modes below ``mode``; ``parity`` is
    _parities of the mode count.
    """
    bit = 1 << mode
    alive = (states & bit) == 0 if create else (states & bit) != 0
    return states ^ bit, 1.0 - 2.0 * parity[states & (bit - 1)], alive


@lru_cache(maxsize=None)
def _parity_sectors(modes: int) -> np.ndarray:
    """Basis states of even and odd occupation parity, ascending, shape (2, dim/2)."""
    parity = _parities(modes)
    out = np.stack([np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)])
    out.setflags(write=False)
    return out


def _block_entry(dst: np.ndarray, src: np.ndarray, modes: int) -> np.ndarray:
    """Flat index of entry (dst, src), both of one parity, in the (2, dim/2, dim/2)
    parity blocks. States 2r and 2r + 1 differ in parity, so the r-th state of
    either parity, ascending, is one of them: a state's rank is n >> 1."""
    half = 1 << (modes - 1)
    return (_parities(modes)[src] * half + (dst >> 1)) * half + (src >> 1)


@lru_cache(maxsize=None)
def _assembly_plan(modes: int) -> np.ndarray:
    """The linear map from a 2M x 2M coefficient matrix to the parity blocks
    of (1/2) gamma^dag H gamma, as one dense real (4M^2, 2^(2M-1)) matrix.

    gamma_k^dag gamma_l maps each basis state to at most one basis state of
    the same parity, with a sign. Each such (k, l, state) term is the entry
    +-1/2 in row k * 2M + l (the flat coefficient index) and in the column of
    the flat (2, dim/2, dim/2) block entry it reaches; no two terms share one.
    """
    parity = _parities(modes)
    states = np.arange(1 << modes)
    plan = np.zeros((4 * modes * modes, 1 << (2 * modes - 1)))
    for k in range(2 * modes):
        for l in range(2 * modes):
            # gamma_l, then gamma_k^dag
            mid, s1, alive1 = _ladder(states, l % modes, l >= modes, parity)
            out, s2, alive2 = _ladder(mid, k % modes, k < modes, parity)
            alive = alive1 & alive2
            plan[k * 2 * modes + l, _block_entry(out[alive], states[alive], modes)] = 0.5 * (s1 * s2)[alive]
    plan.setflags(write=False)
    return plan


#: Powers of i, indexed by their exponent mod 4.
_I_POWERS = np.array([1, 1j, -1, -1j])


@dataclass(frozen=True)
class WickPlan:
    """Tables that turn a Majorana covariance into parity blocks, for one mode count.

    Majorana operators are c_2j = a_j + a_j^dag and c_2j+1 = -i (a_j - a_j^dag),
    so c = majorana @ gamma. A normalized Gaussian operator L has the Wick
    coordinates Tr(L c_S) = Pf(K_S), K_ab = Tr(L c_a c_b), over the
    ascending even subsets S of the 2M Majorana indices, and
    L = 2^-M sum_S (-1)^(k(k-1)/2) Pf(K_S) c_S with k = |S|. Off its unit
    diagonal K = i Gamma, Gamma real antisymmetric, so Pf(K_S) = i^(k/2) Pf(Gamma_S);
    gaussian.covariance_of_real_form, covariance_from_eigenpairs and
    covariance_number_conserving build Gamma.

    The subsets are numbered by size, then by bit mask (bit a for c_a): the
    empty set, the ``pair_rows[i] < pair_cols[i]`` pairs, then one level per
    size k = 4..2M. Level k expands Pf(Gamma_S) along the lowest index s_1:
    sum_t (-1)^t Gamma_{s_1 s_(t+2)} Pf(Gamma_(S - {s_1, s_(t+2)})), and
    ``levels`` holds, per level, the (pair, smaller subset) numbers of those
    k - 1 terms, each an (n_k, k - 1) array within its own level. ``scatter``
    maps the 2^(2M-1) coordinates Pf(Gamma_S) to the flat parity blocks of L,
    (2, 2^(M-1), 2^(M-1)) as quadratic_hamiltonian_batch lays them out. Every
    block entry of flip pattern dst ^ src (2^(M-1) even masks) gathers the same
    2^M coordinates: ``scatter`` is their (pattern, 2^M) columns, the (2, pattern,
    src, 2^M) real and imaginary parts of the weights 2^-M i^phase, and the
    (pattern, src) flat block entries, which number every block entry once.
    """

    majorana: np.ndarray
    pair_rows: np.ndarray
    pair_cols: np.ndarray
    levels: tuple[tuple[np.ndarray, np.ndarray], ...]
    scatter: tuple[np.ndarray, np.ndarray, np.ndarray]


@lru_cache(maxsize=None)
def _wick_plan(modes: int) -> WickPlan:
    """The cached WickPlan of ``modes`` modes, built with vectorized bit operations.

    Block entry (dst, src) gathers the 2^M subsets S whose c_S maps src to
    dst. Mode j contributes 1, c_2j, c_2j+1 or c_2j c_2j+1 to c_S, as bit j
    of the flip pattern dst ^ src and of a free index select, so c_S is a
    product over ascending modes and its subset depends on the pattern alone.
    The higher modes act first and flip only their own bits, so mode j acts on
    src's bits: its sign string is src's parity below j, and c_2j+1 adds a
    phase -i or i as bit j of src is set or not. With the convention's
    (-1)^(k(k-1)/2) i^(k/2) = i^(3k/2) every phase is an integer power of i.
    """
    majorana = np.zeros((2 * modes, 2 * modes), dtype=complex)
    for j in range(modes):
        majorana[2 * j, [j, j + modes]] = 1.0, 1.0
        majorana[2 * j + 1, [j, j + modes]] = -1j, 1j

    # Pfaffian recursion: subsets by size, then mask
    size = np.bitwise_count(np.arange(1 << (2 * modes)))
    order = np.argsort(size, kind="stable")
    order = order[size[order] % 2 == 0]
    number = np.empty(1 << (2 * modes), dtype=np.intp)
    number[order] = np.arange(order.size)
    starts = np.searchsorted(size[order], np.arange(0, 2 * modes + 3, 2))
    levels = []
    for k in range(2, 2 * modes + 1, 2):
        masks = order[starts[k // 2] : starts[k // 2 + 1]]
        elems = np.nonzero((masks[:, None] >> np.arange(2 * modes)) & 1)[1].reshape(masks.size, k)
        pairs = (1 << elems[:, :1]) | (1 << elems[:, 1:])
        if k == 2:
            pair_rows, pair_cols = elems[:, 0], elems[:, 1]
        else:
            levels.append((number[pairs] - starts[1], number[masks[:, None] ^ pairs] - starts[k // 2 - 1]))

    # scatter, by (flip pattern, src, free index): small integers keep the bit arrays cheap to build
    dtype = np.min_scalar_type(1 << (2 * modes))
    flips = _parity_sectors(modes)[0].astype(dtype)[:, None, None]  # the even states are the even masks
    src, free = np.arange(1 << modes, dtype=dtype)[:, None], np.arange(1 << modes, dtype=dtype)
    subset = np.zeros((flips.size, 1, free.size), dtype=dtype)
    phase = np.zeros((flips.size, src.size, free.size), dtype=dtype)
    for j in range(modes):
        xj, yj = (flips >> j) & 1, (free >> j) & 1
        subset |= np.where(xj == 1, 1 << (2 * j + yj), (3 * yj) << (2 * j))
        below = np.bitwise_count(src & ((1 << j) - 1)) & 1
        phase += 2 * xj * below + yj * (1 + 2 * ((src >> j) & 1))
    phase += 3 * (np.bitwise_count(subset) // 2)
    weights = _I_POWERS[phase & 3] / (1 << modes)
    scatter = (number[subset[:, 0]], np.stack([weights.real, weights.imag]), _block_entry(src ^ flips, src, modes)[..., 0])
    for arr in [majorana, pair_rows, pair_cols, *scatter] + [a for level in levels for a in level]:
        arr.setflags(write=False)
    return WickPlan(majorana, pair_rows, pair_cols, tuple(levels), scatter)


def embed_parity_blocks(blocks: np.ndarray) -> np.ndarray:
    """Full (..., dim, dim) matrices from their (..., 2, dim/2, dim/2) parity blocks.

    The package's one place where parity blocks become Fock matrices; every
    entry that couples the two parities is exactly 0.
    """
    sectors = _parity_sectors(blocks.shape[-1].bit_length())
    dim = 2 * blocks.shape[-1]
    out = np.zeros(blocks.shape[:-3] + (dim, dim), dtype=blocks.dtype)
    out[..., sectors[:, :, None], sectors[:, None, :]] = blocks
    return out


def _check_coefficient_structure(coeff) -> np.ndarray:
    """``coeff`` as a validated 2M x 2M coefficient matrix with the particle-hole block structure.

    Requires sigma_x-antisymmetry (both off-diagonal blocks antisymmetric and the
    lower-right block equal to minus the transpose of the upper-left one), which
    is exactly closure of the quadratic-form algebra. Hermiticity is *not*
    required here; composed elements may be non-hermitian.
    """
    mat = _square(coeff, "coefficient matrix")
    if mat.shape[0] % 2:
        raise StructureError(f"coefficient matrix must be of even size, got shape {mat.shape}")
    sr = _sigma_x(mat.shape[0] // 2) @ mat
    _require_close(sr, -sr.T, STRUCTURE_TOL, "coefficient matrix violates the particle-hole block structure")
    return mat


def quadratic_hamiltonian(coeff) -> FockOperator:
    """Fock-space operator (1/2) gamma^dag H gamma for a 2M x 2M coefficient matrix.

    Accepts a BdgMatrix or a plain 2M x 2M array with valid block structure.
    Expanded in mode operators this is
    (1/2) (a^dag h a - a h^T a^dag + a^dag D a^dag + a D' a), and it is traceless
    for every valid coefficient matrix. The result is flagged hermitian exactly
    when the input matrix is.
    """
    mat = _check_coefficient_structure(coeff.assembled() if hasattr(coeff, "assembled") else coeff)
    out = embed_parity_blocks(quadratic_hamiltonian_batch(mat[None])[0])
    herm = np.abs(mat - mat.conj().T).max() <= STRUCTURE_TOL
    return FockOperator(mat.shape[0] // 2, out, hermitian=herm)


def quadratic_hamiltonian_batch(mats: np.ndarray) -> np.ndarray:
    """Parity blocks of the Fock matrices (1/2) gamma^dag H gamma for a stack
    of coefficient matrices.

    This is the package's one Fock assembly; the scalar quadratic_hamiltonian
    is this call with n = 1, embedded. ``mats`` has shape (n, 2M, 2M) and the
    result (n, 2, 2^(M-1), 2^(M-1)): the even-parity block, then the odd one,
    each over its basis states in ascending order (embed_parity_blocks turns
    them into full matrices). It is one product of the real and one of the
    imaginary parts of ``mats`` with the cached _assembly_plan. No per-element
    structure validation is done, so callers are expected to feed matrices
    built by validated constructors (or validated one at a time, as
    quadratic_hamiltonian does).
    """
    mats = np.asarray(mats, dtype=complex)
    modes = mats.shape[-1] // 2
    _check_modes(modes)
    half = 1 << (modes - 1)
    flat = mats.reshape(len(mats), -1)
    plan = _assembly_plan(modes)
    return (flat.real @ plan + 1j * (flat.imag @ plan)).reshape(len(mats), 2, half, half)


def from_eigenpairs(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The matrix v diag(w) v^dag from eigenvalues ``w`` and eigenvector columns ``v``.

    The package's one rebuild from eigenpairs (gaussian.covariance_from_eigenpairs
    forms only the imaginary part of one, in real arithmetic). It covers one
    matrix, a stack (``w`` of shape (n, d), ``v`` of shape (n, d, d)), or one
    ``v`` shared by a stack of ``w``.
    """
    return (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def op_exp(op: FockOperator, scale: float = 1.0) -> FockOperator:
    """exp(scale * A) of a hermitian Fock operator, via spectral decomposition.

    The rebuild is symmetrized, since its rounding error grows with the
    largest entry. Raises DomainError when ``scale`` is not a finite real or
    an entry would exceed the float range.
    """
    _above(scale, -inf, "scale")
    _require_close(op.matrix, op.matrix.conj().T, STRUCTURE_TOL, "op_exp requires a hermitian operator", ContractError)
    w, v = np.linalg.eigh(op.matrix)
    w = scale * w
    if not w.max() < LOG_FLOAT_MAX:
        raise DomainError(f"exponential overflows a float: the log of its largest eigenvalue is {w.max():.6g}")
    mat = from_eigenpairs(np.exp(w), v)
    return FockOperator(op.modes, 0.5 * mat + 0.5 * mat.conj().T, hermitian=True)


def normal_ordered_exp(coeff) -> FockOperator:
    """Normal-ordered exponential :exp(a^dag B a): by its terminating expansion.

    Evaluates sum_{k=0..M} (1/k!) sum over index tuples of
    B[i1,j1] .. B[ik,jk] a_i1^dag .. a_ik^dag a_jk .. a_j1. The sum terminates
    at k = M because higher strings repeat a mode operator and vanish. The cost
    is O(M^(2M)) matrix products, so this is an exact-construction tool for
    small M, deliberately free of any exponential-identity shortcut.
    """
    bmat = _square(coeff, "coefficient")
    modes = bmat.shape[0]
    _check_modes(modes)
    dim = 1 << modes
    ann = _annihilators(modes)
    cre = [m.conj().T for m in ann]

    total = np.eye(dim, dtype=complex)
    eye = np.eye(dim, dtype=complex)
    left = {(): eye}   # i1..ik  ->  a_i1^dag @ ... @ a_ik^dag
    right = {(): eye}  # j1..jk  ->  a_jk @ ... @ a_j1
    for k in range(1, modes + 1):
        new_left, new_right = {}, {}
        for t in product(range(modes), repeat=k):
            prev = left.get(t[:-1])
            if prev is not None:
                mat = prev @ cre[t[-1]]
                if mat.any():
                    new_left[t] = mat
            prev = right.get(t[:-1])
            if prev is not None:
                mat = ann[t[-1]] @ prev
                if mat.any():
                    new_right[t] = mat
        left, right = new_left, new_right
        term = np.zeros((dim, dim), dtype=complex)
        for itup, lmat in left.items():
            for jtup, rmat in right.items():
                c = np.prod(bmat[list(itup), list(jtup)])
                if c != 0:
                    term += c * (lmat @ rmat)
        total += term / factorial(k)
    return FockOperator(modes, total)
