"""Exact second-quantized machinery on the 2**M-dimensional fermionic Fock space.

Basis convention: occupation bitstrings in ascending integer order, with mode j
stored in bit j (mode 0 = least significant bit). The sign string of each mode
operator acts on the lower-indexed modes, which keeps the construction a pure
bit-twiddling exercise.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from math import inf, log

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

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


@lru_cache(maxsize=None)
def _annihilators(modes: int) -> np.ndarray:
    """The M annihilation operators as one read-only (M, dim, dim) stack, cached
    per mode count; every entry is 0 or +-1, so a_j^dag is a_j^T."""
    dim = 1 << modes
    out = np.zeros((modes, dim, dim), dtype=complex)
    for j in range(modes):
        src = np.flatnonzero(np.arange(dim) >> j & 1)  # the states with mode j occupied
        out[j, src ^ (1 << j), src] = np.where(np.bitwise_count(src & ((1 << j) - 1)) & 1, -1.0, 1.0)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _mode_strings(modes: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per k = 0..M: the ascending k-subsets J of the modes, (C(M,k), k), and their strings
    S_J = a_(j_k) .. a_(j_1), (C(M,k), dim, dim) with entries 0 or +-1; S_J^T = a_(j_1)^dag .. a_(j_k)^dag."""
    ann, eye = _annihilators(modes), np.eye(1 << modes, dtype=complex)[None]
    out = []
    for k in range(modes + 1):
        subsets = np.array(list(combinations(range(modes), k)), dtype=np.intp)
        strings = reduce(lambda s, col: ann[col] @ s, subsets.T, eye)  # a_(j_1) acts first
        subsets.setflags(write=False)
        strings.setflags(write=False)
        out.append((subsets, strings))
    return tuple(out)


def _string_sum(strings: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """sum_(I,J) coeff[..., I, J] S_I^T S_J over a (C, dim, dim) stack of real strings S, as two
    matrix products, for one (C, C) ``coeff`` or a stack of them."""
    dim = strings.shape[-1]
    rows = np.swapaxes(coeff, -1, -2) @ strings.reshape(len(strings), -1)
    return np.swapaxes(rows.reshape(rows.shape[:-2] + (-1, dim)), -1, -2) @ strings.reshape(-1, dim)


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
def _assembly_plan(modes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The linear map from a 2M x 2M coefficient matrix to the parity blocks
    of (1/2) gamma^dag H gamma, grouped by flip pattern: (src, weights, dst).

    gamma_k^dag gamma_l, gamma = (a, a^dag), flips the modes of k and l and
    no other, so block entry (src ^ x, src) takes its terms from one flip
    pattern x: none, or two modes (1 + C(M, 2) patterns, ascending by mask).
    Each pattern's terms are the flat coefficient indices k * 2M + l,
    ascending, padded with index 0 to the widest group (4M terms for no flip,
    8 for two modes). ``src`` is (pattern, 2, term): the offsets of each
    term's real and imaginary part in one matrix's float view. ``weights`` is
    (pattern, term, src): (1/2) gamma_k^dag[src ^ x, mid] gamma_l[mid, src],
    read from _annihilators through the one state mid = src ^ bit(l) that
    gamma_l reaches, 0 where gamma_l kills src and at the padding. ``dst`` is
    (pattern, 2, src): the offsets of the real and imaginary part of block
    entry (src ^ x, src) in one matrix's float view of its flat parity
    blocks. The mode operators have entries 0 or +-1, so the weights are
    exactly 0 or +-1/2.
    """
    ann = _annihilators(modes).real
    gamma = np.concatenate([ann, np.swapaxes(ann, -1, -2)])  # gamma_k^dag = gamma_k^T
    bit = 1 << (np.arange(2 * modes) % modes)
    states = np.arange(1 << modes)
    flipped = np.bitwise_count(states)
    patterns = states[(flipped == 0) | (flipped == 2)]
    number = np.searchsorted(patterns, (bit[:, None] ^ bit).ravel())  # each flat index's pattern
    sizes = np.bincount(number)
    order = np.argsort(number, kind="stable")  # the flat indices by pattern, ascending within each
    rank = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # each one's place in its pattern
    cols = np.zeros((patterns.size, sizes.max()), dtype=np.intp)
    cols[number[order], rank] = order
    k, l = (a[..., None] for a in np.divmod(cols, 2 * modes))
    mid = states ^ bit[l]  # (pattern, term, src)
    # a padding term, index 0, is a_0^dag a_0, which no other pattern's entry reaches: weight 0
    weights = 0.5 * gamma[k, mid, states ^ patterns[:, None, None]] * gamma[l, mid, states]
    parts = np.arange(2)[:, None]  # the real, then the imaginary part
    src = 2 * cols[:, None, :] + parts
    dst = 2 * _block_entry(states ^ patterns[:, None], states, modes)[:, None, :] + parts
    for arr in (src, weights, dst):
        arr.setflags(write=False)
    return src, weights, dst


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
    gaussian.real_form_pair_rows and number_conserving_pair_rows write the
    entries of Gamma at the pairs below (the Wick pair rows), and
    gaussian.moment_wick_coordinates the quadrature means.

    The subsets are numbered by size, then by bit mask (bit a for c_a): the
    empty set, the ``pair_rows[i] < pair_cols[i]`` pairs, then one level per
    size k = 4..2M. Level k expands Pf(Gamma_S) along the lowest index s_1:
    sum_t (-1)^t Gamma_{s_1 s_(t+2)} Pf(Gamma_(S - {s_1, s_(t+2)})), and
    ``levels`` holds, per level, the (pair, smaller subset) numbers of those
    k - 1 terms, each an (n_k, k - 1) array within its own level. ``scatter``
    maps the 2^(2M-1) coordinates Pf(Gamma_S) to the flat parity blocks of L,
    (2, 2^(M-1), 2^(M-1)) as quadratic_hamiltonian_batch lays them out. Every
    block entry of flip pattern x = dst ^ src (2^(M-1) even masks) gathers the
    same 2^M coordinates, one per free index y, with the weight
    2^-M i^A(x, y) (-1)^B(x, src) (-1)^|y & src|: A = |y| + 3 |S(x, y)| / 2 and
    B = sum_j x_j (parity of src below mode j). ``scatter`` holds the weight's
    factors: the (pattern, 2^M) ``columns`` of the coordinates; ``units``, the
    (2, pattern, 2^M) real and imaginary parts of i^A, each 0 or +-1;
    ``scale``, the (pattern, src) values (-1)^B 2^-M; ``hadamard``, the one
    (src, 2^M) matrix (-1)^|y & src|; and ``entries``, the (pattern, src) flat
    block entries, which number every block entry once.
    """

    majorana: np.ndarray
    pair_rows: np.ndarray
    pair_cols: np.ndarray
    levels: tuple[tuple[np.ndarray, np.ndarray], ...]
    scatter: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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

    # scatter, by flip pattern and free index, or pattern and src: small integers keep the bit arrays cheap to build
    dtype = np.min_scalar_type(1 << (2 * modes))
    flips = _parity_sectors(modes)[0].astype(dtype)[:, None]  # the even states are the even masks
    states = np.arange(1 << modes, dtype=dtype)  # the free indices, or src
    subset = np.zeros((flips.size, states.size), dtype=dtype)
    below = np.zeros((flips.size, states.size), dtype=dtype)  # B(pattern, src)
    for j in range(modes):
        xj, yj = (flips >> j) & 1, (states >> j) & 1
        subset |= np.where(xj == 1, 1 << (2 * j + yj), (3 * yj) << (2 * j))
        below += xj * (np.bitwise_count(states & ((1 << j) - 1)) & 1)
    units = _I_POWERS[(np.bitwise_count(states) + 3 * (np.bitwise_count(subset) // 2)) & 3]
    scatter = (
        number[subset],
        np.stack([units.real, units.imag]),
        np.where(below & 1, -1.0, 1.0) / (1 << modes),
        np.where(np.bitwise_count(states[:, None] & states) & 1, -1.0, 1.0),
        _block_entry(states ^ flips, states, modes),
    )
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


def quadratic_hamiltonian(coeff) -> FockOperator:
    """Fock-space operator (1/2) gamma^dag H gamma for a 2M x 2M coefficient matrix.

    Accepts a BdgMatrix or a plain 2M x 2M array with the particle-hole block
    structure: sigma_x H antisymmetric (both off-diagonal blocks antisymmetric
    and the lower-right block minus the transpose of the upper-left one),
    which is exactly closure of the quadratic-form algebra. Hermiticity is
    *not* required; composed elements may be non-hermitian. Expanded in mode
    operators this is (1/2) (a^dag h a - a h^T a^dag + a^dag D a^dag + a D' a),
    and it is traceless for every valid coefficient matrix. The result is
    flagged hermitian exactly when the input matrix is.
    """
    mat = _square(coeff.assembled() if hasattr(coeff, "assembled") else coeff, "coefficient matrix")
    if mat.shape[0] % 2:
        raise StructureError(f"coefficient matrix must be of even size, got shape {mat.shape}")
    _require_particle_hole(mat)
    out = embed_parity_blocks(quadratic_hamiltonian_batch(mat[None])[0])
    herm = np.abs(mat - mat.conj().T).max() <= STRUCTURE_TOL
    return FockOperator(mat.shape[0] // 2, out, hermitian=herm)


def _require_particle_hole(mats: np.ndarray) -> None:
    """StructureError unless every coefficient matrix of ``mats``, one or a stack,
    has the particle-hole block structure: sigma_x H antisymmetric."""
    sr = _sigma_x(mats.shape[-1] // 2) @ mats
    _require_close(sr, -np.swapaxes(sr, -1, -2), STRUCTURE_TOL, "coefficient matrix violates the particle-hole block structure")


def quadratic_hamiltonian_batch(mats: np.ndarray) -> np.ndarray:
    """Parity blocks of the Fock matrices (1/2) gamma^dag H gamma for a stack
    of coefficient matrices.

    This is the package's one Fock assembly; the scalar quadratic_hamiltonian
    is this call with n = 1, embedded. ``mats`` has shape (n, 2M, 2M) and the
    result (n, 2, 2^(M-1), 2^(M-1)): the even-parity block, then the odd one,
    each over its basis states in ascending order (embed_parity_blocks turns
    them into full matrices). It gathers the real and imaginary parts of each
    flip pattern's coefficients at the cached _assembly_plan's offsets, takes
    one batched product with the pattern's weights, and writes the products
    to their block entries' offsets; entries that no pattern reaches (more
    than two flipped modes) stay 0. The gathered parts are the rows of the
    product, so each entry sums its terms in ascending flat index, as a dense
    map would. No per-element structure validation is done, so callers are
    expected to feed matrices built by validated constructors (or validated
    one at a time, as quadratic_hamiltonian does).
    """
    mats = np.ascontiguousarray(mats, dtype=complex)
    modes = mats.shape[-1] // 2
    _check_modes(modes)
    half, count = 1 << (modes - 1), len(mats)
    src, weights, dst = _assembly_plan(modes)
    parts = mats.reshape(count, -1).view(float)[:, src]  # (count, pattern, 2, term)
    products = np.swapaxes(parts, 0, 1).reshape(len(src), 2 * count, -1) @ weights  # (pattern, count * 2, src)
    out = np.zeros((count, 4 * half * half))
    out[:, dst] = np.swapaxes(products.reshape(len(src), count, 2, -1), 0, 1)
    return out.view(complex).reshape(count, 2, half, half)


def from_eigenpairs(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The matrix v diag(w) v^dag from eigenvalues ``w`` and eigenvector columns ``v``.

    The package's one rebuild from eigenpairs. It covers one matrix, a stack
    (``w`` of shape (n, d), ``v`` of shape (n, d, d)), or one ``v`` shared by
    a stack of ``w``.
    """
    return (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def _exp_hermitian(mats: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(scale * A) of one hermitian matrix or a stack, by eigh; op_exp is its
    call on one Fock matrix. The rebuild is symmetrized, since its rounding
    error grows with the largest entry. Raises ContractError unless every
    matrix is hermitian, and DomainError when an entry of any would exceed the
    float range."""
    _require_close(mats, np.swapaxes(mats.conj(), -1, -2), STRUCTURE_TOL, "op_exp requires a hermitian operator", ContractError)
    w, v = np.linalg.eigh(mats)
    w = scale * w
    if not w.max() < LOG_FLOAT_MAX:
        raise DomainError(f"exponential overflows a float: the log of its largest eigenvalue is {w.max():.6g}")
    mat = from_eigenpairs(np.exp(w), v)
    return 0.5 * mat + 0.5 * np.swapaxes(mat.conj(), -1, -2)


def op_exp(op: FockOperator, scale: float = 1.0) -> FockOperator:
    """exp(scale * A) of a hermitian Fock operator, via spectral decomposition
    (_exp_hermitian). Raises DomainError when ``scale`` is not a finite real or
    an entry would exceed the float range."""
    _above(scale, -inf, "scale")
    return FockOperator(op.modes, _exp_hermitian(op.matrix, scale), hermitian=True)


def _normal_ordered_stack(bmats: np.ndarray) -> np.ndarray:
    """:exp(a^dag B a): of one (M, M) coefficient or a stack, (..., dim, dim), as
    normal_ordered_exp states it. The k = 0 term is the identity and the k = 1
    minors are the entries of B themselves: np.linalg.det goes through a
    log-determinant, which would move even a 1 x 1 minor by rounding. DomainError
    when an entry overflows a float."""
    (_, identity), (_, singles), *higher = _mode_strings(bmats.shape[-1])
    with np.errstate(all="ignore"):
        total = identity[0] + _string_sum(singles, bmats)
        for subsets, strings in higher:
            total = total + _string_sum(strings, np.linalg.det(bmats[..., subsets[:, None, :, None], subsets[None, :, None, :]]))
    if not np.isfinite(total).all():
        raise DomainError("normal_ordered_exp overflows a float: a minor of the coefficient or a sum of them")
    return total


def normal_ordered_exp(coeff) -> FockOperator:
    """Normal-ordered exponential :exp(a^dag B a): by its terminating expansion.

    The expansion sum_k (1/k!) sum over index tuples of B[i1,j1] .. B[ik,jk]
    a_i1^dag .. a_ik^dag a_jk .. a_j1 loses every tuple that repeats a mode, so
    it ends at k = M. Sorting the rest into ascending sets I and J gives signs
    sgn(sigma) sgn(tau), so the k! orderings of a pair of sets sum to k! det B[I, J]:
    :exp(a^dag B a): = sum_k sum_(|I|=|J|=k) det(B[I, J]) S_I^T S_J, with the
    strings S_J of _mode_strings. The cost is sum_k C(M,k)^2 string products, per
    k one batched det of the minors and two matrix products (_normal_ordered_stack,
    of which this is the call on one B). An exact construction, free of any
    exponential identity; DomainError when an entry overflows a float.
    """
    bmat = _square(coeff, "coefficient")
    _check_modes(bmat.shape[0])
    return FockOperator(bmat.shape[0], _normal_ordered_stack(bmat))
