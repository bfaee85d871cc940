"""Exact second-quantized machinery on the 2**M-dimensional fermionic Fock space.

Basis convention: occupation bitstrings in ascending integer order, with mode j
stored in bit j (mode 0 = least significant bit). The sign string of each mode
operator acts on the lower-indexed modes, which keeps the construction a pure
bit-twiddling exercise.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import factorial, log

import numpy as np

from .errors import CapacityError, ContractError, DomainError, StructureError

#: Largest mode count accepted by default (64 x 64 matrices). Overridable per call.
DEFAULT_MODE_CAP = 6

#: Absolute tolerance used when an operator claims to be hermitian.
HERMITICITY_TOL = 1e-12

#: Looser tolerance for validating the structure of *inputs* (hermiticity,
#: skew symmetry, particle-hole blocks).
STRUCTURE_TOL = 1e-10

#: Log of the largest finite float.
LOG_FLOAT_MAX = log(np.finfo(float).max)


def _check_modes(modes: int, cap: int) -> None:
    if not isinstance(modes, (int, np.integer)) or modes < 1:
        raise CapacityError(f"mode count must be a positive integer, got {modes!r}")
    if modes > cap:
        raise CapacityError(
            f"mode count {modes} exceeds the Fock-space cap of {cap} modes "
            f"(pass a larger cap explicitly to override)"
        )


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
        dim = 1 << self.modes
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (dim, dim):
            raise StructureError(
                f"operator on {self.modes} modes must be {dim} x {dim}, got {mat.shape}"
            )
        if not np.isfinite(mat).all():
            raise StructureError("operator has non-finite entries")
        if self.hermitian:
            dev = np.abs(mat - mat.conj().T).max()
            if not dev <= HERMITICITY_TOL:
                raise StructureError(
                    f"operator flagged hermitian deviates from its adjoint by {dev:.3e}"
                )
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return 1 << self.modes

    @classmethod
    def identity(cls, modes: int) -> "FockOperator":
        return cls(modes, np.eye(1 << modes, dtype=complex), hermitian=True)

    def dagger(self) -> "FockOperator":
        return FockOperator(self.modes, self.matrix.conj().T, hermitian=self.hermitian)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def __matmul__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.modes, self.matrix @ other.matrix)

    def __add__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.modes, self.matrix + other.matrix)

    def __sub__(self, other: "FockOperator") -> "FockOperator":
        return FockOperator(self.modes, self.matrix - other.matrix)

    def __rmul__(self, scalar: complex) -> "FockOperator":
        return FockOperator(self.modes, scalar * self.matrix)


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


def build_mode_operators(modes: int, cap: int = DEFAULT_MODE_CAP) -> list[FockOperator]:
    """Annihilation operators a_1 .. a_M as Fock-space matrices.

    The returned operators satisfy {a_i, a_j^dag} = delta_ij and {a_i, a_j} = 0
    exactly (entries are 0 or +-1), and annihilate the vacuum (basis index 0).
    """
    _check_modes(modes, cap)
    return [FockOperator(modes, m) for m in _annihilators(modes)]


@lru_cache(maxsize=None)
def _gamma_ops(modes: int) -> np.ndarray:
    """Stacked matrices of (a_1..a_M, a_1^dag..a_M^dag), shape (2M, dim, dim)."""
    ann = _annihilators(modes)
    stack = np.stack(list(ann) + [m.conj().T for m in ann])
    stack.setflags(write=False)
    return stack


@lru_cache(maxsize=None)
def _quadratic_tensor(modes: int) -> np.ndarray:
    """T[k, l] = gamma_k^dag @ gamma_l, shape (2M, 2M, dim, dim)."""
    gam = _gamma_ops(modes)
    out = np.einsum("kba,lbc->klac", gam.conj(), gam)
    out.setflags(write=False)
    return out


def _check_coefficient_structure(mat: np.ndarray, tol: float = STRUCTURE_TOL) -> int:
    """Validate the particle-hole block structure of a 2M x 2M coefficient matrix.

    Requires sigma_x-antisymmetry (both off-diagonal blocks antisymmetric and the
    lower-right block equal to minus the transpose of the upper-left one), which
    is exactly closure of the quadratic-form algebra. Hermiticity is *not*
    required here; composed elements may be non-hermitian.
    """
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] % 2:
        raise StructureError(f"coefficient matrix must be square of even dimension, got {mat.shape}")
    m = mat.shape[0] // 2
    sig = np.zeros_like(mat)
    sig[:m, m:] = np.eye(m)
    sig[m:, :m] = np.eye(m)
    sr = sig @ mat
    dev = np.abs(sr + sr.T).max()
    if dev > tol:
        raise StructureError(
            f"coefficient matrix violates the particle-hole block structure by {dev:.3e}"
        )
    return m


def quadratic_hamiltonian(coeff, cap: int = DEFAULT_MODE_CAP) -> FockOperator:
    """Fock-space operator (1/2) gamma^dag H gamma for a 2M x 2M coefficient matrix.

    Accepts a BdgMatrix or a plain 2M x 2M array with valid block structure.
    Expanded in mode operators this is
    (1/2) (a^dag h a - a h^T a^dag + a^dag D a^dag + a D' a), and it is traceless
    for every valid coefficient matrix. The result is flagged hermitian exactly
    when the input matrix is.
    """
    mat = coeff.assembled() if hasattr(coeff, "assembled") else np.asarray(coeff, dtype=complex)
    modes = _check_coefficient_structure(mat)
    out = quadratic_hamiltonian_batch(mat[None], cap)[0]
    herm = np.abs(mat - mat.conj().T).max() <= STRUCTURE_TOL
    return FockOperator(modes, out, hermitian=herm)


def quadratic_hamiltonian_batch(mats: np.ndarray, cap: int = DEFAULT_MODE_CAP) -> np.ndarray:
    """Fock matrices (1/2) gamma^dag H gamma for a stack of coefficient matrices.

    This is the package's one contraction against the quadratic tensor; the
    scalar quadratic_hamiltonian is this call with n = 1. ``mats`` has shape
    (n, 2M, 2M); no per-element structure validation is done, so callers are
    expected to feed matrices built by validated constructors (or validated
    one at a time, as quadratic_hamiltonian does).
    """
    mats = np.asarray(mats, dtype=complex)
    modes = mats.shape[-1] // 2
    _check_modes(modes, cap)
    tensor = _quadratic_tensor(modes)
    return 0.5 * np.einsum("skl,klab->sab", mats, tensor)


def from_eigenpairs(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The matrix v diag(w) v^dag from eigenvalues ``w`` and eigenvector columns ``v``.

    The package's one rebuild from eigenpairs. It covers one matrix, a stack
    (``w`` of shape (n, d), ``v`` of shape (n, d, d)), or one ``v`` shared by a
    stack of ``w``.
    """
    return (v * w[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)


def op_exp(op: FockOperator, scale: float = 1.0) -> FockOperator:
    """exp(scale * A) of a hermitian Fock operator, via spectral decomposition.

    The rebuild is symmetrized, since its rounding error grows with the
    largest entry. Raises DomainError when an entry would exceed the float
    range.
    """
    dev = np.abs(op.matrix - op.matrix.conj().T).max()
    if dev > STRUCTURE_TOL:
        raise ContractError(f"op_exp requires a hermitian operator; deviation {dev:.3e}")
    w, v = np.linalg.eigh(op.matrix)
    w = scale * w
    if not w.max() < LOG_FLOAT_MAX:
        raise DomainError(f"exponential overflows a float: the log of its largest eigenvalue is {w.max():.6g}")
    mat = from_eigenpairs(np.exp(w), v)
    return FockOperator(op.modes, 0.5 * mat + 0.5 * mat.conj().T, hermitian=True)


def normal_ordered_exp(coeff, cap: int = DEFAULT_MODE_CAP) -> FockOperator:
    """Normal-ordered exponential :exp(a^dag B a): by its terminating expansion.

    Evaluates sum_{k=0..M} (1/k!) sum over index tuples of
    B[i1,j1] .. B[ik,jk] a_i1^dag .. a_ik^dag a_jk .. a_j1. The sum terminates
    at k = M because higher strings repeat a mode operator and vanish. The cost
    is O(M^(2M)) matrix products, so this is an exact-construction tool for
    small M, deliberately free of any exponential-identity shortcut.
    """
    bmat = np.asarray(coeff, dtype=complex)
    if bmat.ndim != 2 or bmat.shape[0] != bmat.shape[1]:
        raise StructureError(f"coefficient must be a square matrix, got {bmat.shape}")
    modes = bmat.shape[0]
    _check_modes(modes, cap)
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
