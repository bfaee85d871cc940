"""Executable verification drivers: resolution-of-unity checks by quadrature
and Monte Carlo, canonical-mixture triviality, and the number-conserving
failure/success dichotomy, plus the operator-identity and closed-form
consistency suites shared by the test suite and the CLI.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import numpy as np
import scipy.linalg

from . import selberg
from .ensembles import (  # noqa: F401  sample_radial_mcmc stays importable here: benchmark/tracing.py wraps it
    RngSpec,
    SymmetryClass,
    WeightSpec,
    assemble_blocks,
    random_polar_rotation,
    sample_class_d,
    sample_class_d_batch,
    sample_haar_unitary_batch,
    sample_radial_mcmc,
)
from .errors import ContractError, NonConvergenceError
from .fock import (
    FockOperator,
    _annihilators,
    _quadratic_tensor,
    build_mode_operators,
    from_eigenpairs,
    normal_ordered_exp,
    op_exp,
    quadratic_hamiltonian,
    quadratic_hamiltonian_batch,
)
from .gaussian import (
    PolarForm,
    compose_general,
    compose_number_conserving,
    exp_normalized_fock_batch,
    gaussian_normalized,
    gaussian_number_conserving,
    greens_parameterization,
    make_bdg,
    paired_eigenvalues,
)

#: Samples per Monte Carlo chunk; the chunk index doubles as the RNG substream,
#: which makes results independent of how chunks are assigned to workers.
CHUNK = 4000

#: Minimum number of chunks, so batch-means standard errors stay usable.
MIN_CHUNKS = 16

#: Entry deviations below this absolute floor always pass the Monte Carlo gate
#: (relevant only for entries that vanish identically, e.g. across parity blocks).
ABS_FLOOR = 1e-12

#: Named seed from which the deterministic quadrature rotations are derived.
ROTATION_SEED = 8128

QUAD_TOL = 1e-8
QUAD_CONVERGENCE_TOL = 1e-9


@dataclass
class EstimatorReport:
    """Outcome of one verification run.

    ``passed`` reflects the stated rule: for quadrature runs the max-entry
    deviation against the target at the deterministic tolerance (plus
    rotation independence); for Monte Carlo runs the entrywise gate
    |mean - target| <= 5 SE with at most max(1, 1% of entries) in the
    3-to-5 SE band, entries below a 1e-12 absolute floor always passing.
    """

    target: FockOperator
    mean: FockOperator
    max_abs_deviation: float
    per_entry_se: np.ndarray | None
    samples: int
    seed: RngSpec | None
    passed: bool
    criterion: str
    details: dict = field(default_factory=dict)


@dataclass
class CriterionResult:
    """One named check with its measured extreme violation and tolerance."""

    name: str
    measured: float
    tolerance: float
    passed: bool
    detail: str = ""


def _as_rngspec(rng) -> RngSpec:
    if isinstance(rng, RngSpec):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RngSpec(int(rng))
    raise ContractError(f"expected an RngSpec (or integer seed), got {type(rng).__name__}")


# ---------------------------------------------------------------------------
# Chunked Monte Carlo machinery
# ---------------------------------------------------------------------------


def _chunk_layout(n_samples: int) -> tuple[int, int]:
    """(number of chunks, samples per chunk); chunks are equal-sized, so the
    total may exceed the request by less than one chunk."""
    if n_samples < 1:
        raise ContractError(f"need a positive sample count, got {n_samples}")
    chunks = max(-(-n_samples // CHUNK), min(n_samples, MIN_CHUNKS))
    per = -(-n_samples // chunks)
    return chunks, per


def _run_chunks(worker, n_samples: int, spec: RngSpec, modes: int, workers: int = 1) -> tuple[list, int]:
    """The chunked Monte Carlo estimator: ``worker(generator, per)`` once per
    chunk, chunk i drawing from the i-th substream past ``spec``, so results
    do not depend on the worker count. Returns the chunk results in chunk
    order and the total sample count."""
    chunks, per = _chunk_layout(n_samples)
    _quadratic_tensor(modes)  # warm the cache before any thread fan-out

    def task(i: int):
        return worker(spec.with_stream(spec.stream + i).generator(), per)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(task, range(chunks))), chunks * per
    return [task(i) for i in range(chunks)], chunks * per


def _batch_se(chunk_values: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Per-entry batch-means standard error of equal-sized chunk estimates about ``center``."""
    k = chunk_values.shape[0]
    if k < 2:
        return np.zeros(center.shape, dtype=float)
    dev = chunk_values - center
    var = ((dev.real**2).sum(axis=0) + (dev.imag**2).sum(axis=0)) / (k - 1)
    return np.sqrt(var / k)


def _entry_gate(mean: np.ndarray, target: np.ndarray, se: np.ndarray) -> tuple[bool, dict]:
    dev = np.abs(mean - target)
    ok = (dev <= 5.0 * se) | (dev <= ABS_FLOOR)
    band = ok & (dev > 3.0 * se) & (dev > ABS_FLOOR)
    allowed = max(1, int(0.01 * dev.size))
    passed = bool(ok.all() and band.sum() <= allowed)
    info = {
        "max_sigma": float((dev / np.maximum(se, 1e-300)).max()) if se.any() else 0.0,
        "band_entries": int(band.sum()),
        "band_allowed": allowed,
        "frobenius_deviation": float(np.linalg.norm(mean - target)),
    }
    return passed, info


MC_RULE = (
    "every entry within 5 standard errors of the target "
    "(absolute floor 1e-12), at most max(1, 1% of entries) between 3 and 5 SE"
)


def _mc_report(modes: int, mean: np.ndarray, se: np.ndarray, samples: int, spec: RngSpec, details: dict) -> EstimatorReport:
    """Gate a Monte Carlo mean against 2^-M I; ``details`` follow the gate's own entries."""
    dim = 1 << modes
    target = FockOperator(modes, np.eye(dim) / dim, hermitian=True)
    passed, info = _entry_gate(mean, target.matrix, se)
    return EstimatorReport(
        target=target,
        mean=FockOperator(modes, mean),
        max_abs_deviation=float(np.abs(mean - target.matrix).max()),
        per_entry_se=se,
        samples=samples,
        seed=spec,
        passed=passed,
        criterion=MC_RULE,
        details={**info, **details},
    )


# ---------------------------------------------------------------------------
# Batched operator evaluation
# ---------------------------------------------------------------------------


def _rotated_gaussian_ops(points: np.ndarray, rotation: np.ndarray | None) -> np.ndarray:
    """Normalized Gaussian operators for coefficient matrices U^-1 diag(lam,-lam) U.

    ``points`` is (N, M); ``rotation`` the 2M x 2M transformation U (None for
    the identity). Same algorithm as gaussian_normalized, vectorized.
    """
    n, m = points.shape
    diag = np.concatenate([points, -points], axis=1)
    if rotation is None:
        mats = np.zeros((n, 2 * m, 2 * m), dtype=complex)
        idx = np.arange(2 * m)
        mats[:, idx, idx] = diag
    else:
        mats = from_eigenpairs(diag, rotation.conj().T)
    hams = quadratic_hamiltonian_batch(mats)
    return exp_normalized_fock_batch(hams)


def _rotated_ncons_ops(points: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """Normalized number-conserving operators at h = U diag(lam) U^dag.

    ``unitaries`` is either one M x M matrix shared by all points or a stack
    matching the points. Same algorithm as gaussian_number_conserving,
    vectorized: h is embedded as (h, delta = 0).
    """
    h = from_eigenpairs(points, unitaries)
    hams = quadratic_hamiltonian_batch(assemble_blocks(h, np.zeros_like(h)))
    return exp_normalized_fock_batch(hams)


# ---------------------------------------------------------------------------
# Quadrature rules for the radial densities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.hermite.hermgauss(order)
    return x, w


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _gauss_scale(weight: WeightSpec) -> float:
    """Coefficient c of the Gaussian factor exp(-c lam^2) in the weight."""
    return 2.0 * weight.p if weight.kind == "gaussian" else weight.p


def _line_rule(weight: WeightSpec, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-line nodes and weights absorbing the per-mode weight factor."""
    if weight.kind in ("gaussian", "nc_even"):
        scale = math.sqrt(_gauss_scale(weight))
        x, w = _hermgauss(order)
        return x / scale, w / scale
    if weight.kind == "determinant":
        x, w = _leggauss(order)
        theta = 0.5 * math.pi * x
        lam = np.tan(theta)
        wts = 0.5 * math.pi * w * (1.0 + lam**2) ** (1.0 - 2.0 * weight.p)
        return lam, wts
    raise ContractError(f"no per-mode quadrature rule for weight kind {weight.kind!r}")


def _half_line_rule(weight: WeightSpec, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on (0, inf) with the weight factor included."""
    x, w = _leggauss(order)
    if weight.kind in ("gaussian", "nc_even"):
        c = _gauss_scale(weight)
        cutoff = math.sqrt(50.0 / c)
        lam = 0.5 * cutoff * (x + 1.0)
        wts = 0.5 * cutoff * w * np.exp(-c * lam**2)
        return lam, wts
    if weight.kind == "determinant":
        theta = 0.25 * math.pi * (x + 1.0)
        lam = np.tan(theta)
        wts = 0.25 * math.pi * w * (1.0 + lam**2) ** (1.0 - 2.0 * weight.p)
        return lam, wts
    raise ContractError(f"no per-mode quadrature rule for weight kind {weight.kind!r}")


def _weight_factor(weight: WeightSpec, lam: np.ndarray) -> np.ndarray:
    if weight.kind in ("gaussian", "nc_even"):
        return np.exp(-_gauss_scale(weight) * lam**2)
    if weight.kind == "determinant":
        return (1.0 + lam**2) ** (-2.0 * weight.p)
    raise ContractError(f"no closed per-mode factor for weight kind {weight.kind!r}")


def _tensor_pair(lam: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-mode tensor product of a one-mode rule: points (n^2, 2) and weights (n^2,)."""
    l1, l2 = np.meshgrid(lam, lam, indexing="ij")
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    return np.column_stack([l1.ravel(), l2.ravel()]), (w1 * w2).ravel()


def _fold_signs(points: np.ndarray, wts: np.ndarray, modes: int):
    """Reflect half-line tensor nodes into all sign orthants."""
    out_p, out_w = [], []
    for pattern in range(1 << modes):
        signs = np.array([1.0 if pattern & (1 << j) else -1.0 for j in range(modes)])
        out_p.append(points * signs)
        out_w.append(wts)
    return np.concatenate(out_p), np.concatenate(out_w)


def _class_rule(sym_class: SymmetryClass, weight: WeightSpec, modes: int, order: int):
    """Nodes and weights integrating f against the unnormalized radial density
    |Delta(lam^2)|^beta prod |lam_j|^alpha * weight(lam) over R^modes."""
    if modes > 2:
        raise ContractError("radial quadrature is implemented for one or two modes")
    alpha, beta = sym_class.alpha, sym_class.beta
    if modes == 1:
        if alpha % 2 == 0:
            lam, wts = _line_rule(weight, order)
        else:
            lam, wts = _half_line_rule(weight, order)
            lam, wts = _fold_signs(lam[:, None], wts, 1)
            lam = lam.ravel()
        points = lam[:, None]
        wts = wts * np.abs(lam) ** alpha if alpha else wts.copy()
        return points, wts

    if alpha % 2 == 0 and beta % 2 == 0:
        points, wts = _tensor_pair(*_line_rule(weight, order))
    elif beta % 2 == 0:
        points, wts = _fold_signs(*_tensor_pair(*_half_line_rule(weight, order)), 2)
    else:
        # odd |Delta| power: integrate the ordered sector of the positive
        # quadrant (where the kink sits on the boundary) and add both
        # orderings, then reflect into the sign orthants
        outer, w_outer = _half_line_rule(weight, order)
        r, w_r = _leggauss(order)
        r = 0.5 * (r + 1.0)
        w_r = 0.5 * w_r
        rr, tt = np.meshgrid(r, outer, indexing="ij")
        wr, wt = np.meshgrid(w_r, w_outer, indexing="ij")
        inner = (rr * tt).ravel()
        t = tt.ravel()
        base_w = (wr * wt).ravel() * t * _weight_factor(weight, inner)
        points = np.concatenate(
            [np.column_stack([inner, t]), np.column_stack([t, inner])]
        )
        wts = np.concatenate([base_w, base_w])
        points, wts = _fold_signs(points, wts, 2)

    dens = np.abs(points[:, 0] ** 2 - points[:, 1] ** 2) ** beta
    if alpha:
        dens = dens * np.abs(points).prod(axis=1) ** alpha
    return points, wts * dens


def _hermitian_rule(weight: WeightSpec, modes: int, order: int):
    """Nodes and weights for Delta(lam)^2 * weight over R^modes (the
    hermitian-matrix radial measure)."""
    if modes > 2:
        raise ContractError("radial quadrature is implemented for one or two modes")
    lam, w = _line_rule(weight, order)
    if modes == 1:
        return lam[:, None], w.copy()
    points, wts = _tensor_pair(lam, w)
    return points, wts * (points[:, 0] - points[:, 1]) ** 2


def radial_quadrature_nodes(
    sym_class: SymmetryClass, weight: WeightSpec, modes: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Public accessor for the tensor rule (points, weights) used by the
    quadrature verifiers; handy for dumping the node set."""
    if weight.uses_hermitian_jacobian:
        return _hermitian_rule(weight, modes, order)
    return _class_rule(sym_class, weight, modes, order)


def class_d_lambda_samples(modes: int, p: float, rng, n_samples: int) -> np.ndarray:
    """Eigenvalue-pair representatives of the class-D draws that the Monte
    Carlo drivers consume, chunk for chunk (identical streams, identical
    matrices)."""

    def worker(gen: np.random.Generator, per: int) -> np.ndarray:
        return np.linalg.eigvalsh(sample_class_d_batch(modes, p, gen, per))[:, modes:]

    chunk_points, _ = _run_chunks(worker, n_samples, _as_rngspec(rng), modes)
    return np.concatenate(chunk_points)


def _weighted_mean_ops(points, wts, op_batch_fn) -> np.ndarray:
    ops = op_batch_fn(points)
    return np.einsum("s,sab->ab", wts, ops) / wts.sum()


def _converged_mean(rule_fn, op_batch_fn, order: int):
    """Weighted operator mean at `order` and `2 * order`; they must agree."""
    q_lo = _weighted_mean_ops(*rule_fn(order), op_batch_fn)
    q_hi = _weighted_mean_ops(*rule_fn(2 * order), op_batch_fn)
    delta = float(np.abs(q_hi - q_lo).max())
    if delta > QUAD_CONVERGENCE_TOL:
        raise NonConvergenceError(
            f"quadrature order doubling changed the mean by {delta:.3e} "
            f"(> {QUAD_CONVERGENCE_TOL}); increase quad_order"
        )
    return q_hi, delta


# ---------------------------------------------------------------------------
# Resolution of unity
# ---------------------------------------------------------------------------


def verify_resolution_quadrature(
    modes: int,
    sym_class: SymmetryClass,
    weight: WeightSpec,
    rotation: PolarForm | None = None,
    quad_order: int = 60,
) -> EstimatorReport:
    """Tensor-quadrature mean of the rotated normalized Gaussian operators
    against the normalized radial density; target is 2^-M times the identity.

    Requires an even, integrable weight (the hypothesis doing the work).
    Convergence is checked by order doubling, and independence from the
    rotation by comparing against a second, deterministically seeded rotation.
    """
    if modes > 2:
        raise ContractError("quadrature verification is implemented for one or two modes")
    if not weight.is_even:
        raise ContractError(
            f"weight kind {weight.kind!r} is not even in each eigenvalue; "
            f"the resolution hypothesis requires an even integrable weight"
        )
    weight.validate_for(modes, sym_class)

    u_main = None if rotation is None else rotation.bogoliubov
    alt = random_polar_rotation(modes, RngSpec(ROTATION_SEED, stream=1))
    rule = lambda order: _class_rule(sym_class, weight, modes, order)

    q_main, delta = _converged_mean(rule, lambda pts: _rotated_gaussian_ops(pts, u_main), quad_order)
    pts_hi, wts_hi = rule(2 * quad_order)
    q_alt = _weighted_mean_ops(pts_hi, wts_hi, lambda pts: _rotated_gaussian_ops(pts, alt.bogoliubov))

    dim = 1 << modes
    target = FockOperator(modes, np.eye(dim) / dim, hermitian=True)
    dev = float(np.abs(q_main - target.matrix).max())
    rot_delta = float(np.abs(q_main - q_alt).max())
    odd_coeffs = np.einsum("s,sj->j", wts_hi, np.tanh(pts_hi / 2.0)) / wts_hi.sum()
    passed = dev <= QUAD_TOL and rot_delta <= QUAD_TOL
    return EstimatorReport(
        target=target,
        mean=FockOperator(modes, q_main),
        samples=pts_hi.shape[0],
        per_entry_se=None,
        seed=RngSpec(ROTATION_SEED, stream=1),
        max_abs_deviation=dev,
        passed=passed,
        criterion=(
            f"max-entry deviation from 2^-{modes} I <= {QUAD_TOL} and "
            f"rotation-independence delta <= {QUAD_TOL}"
        ),
        details={
            "symmetry_class": sym_class.label,
            "weight": weight.kind,
            "p": weight.p,
            "convergence_delta": delta,
            "rotation_delta": rot_delta,
            "odd_mode_coefficients": [float(abs(c)) for c in odd_coeffs],
        },
    )


def shifted_weight_quadrature_deviation(
    modes: int,
    sym_class: SymmetryClass,
    p: float,
    offset: float,
    quad_order: int = 60,
) -> float:
    """Max-entry deviation from 2^-M I when the Gaussian weight is displaced by
    ``offset`` (hence not even). Demonstrates that the evenness hypothesis is
    doing real work; no pass rule attached."""
    if modes > 2:
        raise ContractError("quadrature verification is implemented for one or two modes")
    scale = math.sqrt(2.0 * p)
    x, w = _hermgauss(quad_order)
    lam = x / scale + offset
    if modes == 1:
        points = lam[:, None]
        wts = w.copy()
    else:
        points, wts = _tensor_pair(lam, w)
    dens = np.abs(points[:, 0:1] ** 2 - points[:, 1:2] ** 2) ** sym_class.beta if modes == 2 else 1.0
    if modes == 2:
        wts = wts * dens.ravel()
    if sym_class.alpha:
        wts = wts * np.abs(points).prod(axis=1) ** sym_class.alpha
    q = _weighted_mean_ops(points, wts, lambda pts: _rotated_gaussian_ops(pts, None))
    dim = 1 << modes
    return float(np.abs(q - np.eye(dim) / dim).max())


def verify_resolution_mc(
    modes: int, p: float, n_samples: int, rng, workers: int = 1
) -> EstimatorReport:
    """Monte Carlo mean of normalized Gaussian operators over Gaussian-weight
    class-D draws; target is 2^-M times the identity, gated entrywise at 5 SE."""
    spec = _as_rngspec(rng)

    def worker(gen: np.random.Generator, per: int) -> np.ndarray:
        mats = sample_class_d_batch(modes, p, gen, per)
        return exp_normalized_fock_batch(quadratic_hamiltonian_batch(mats)).mean(axis=0)

    chunk_means, samples = _run_chunks(worker, n_samples, spec, modes, workers)
    chunk_means = np.stack(chunk_means)
    mean = chunk_means.mean(axis=0)
    details = {"p": p, "chunks": chunk_means.shape[0], "workers": workers}
    return _mc_report(modes, mean, _batch_se(chunk_means, mean), samples, spec, details)


# ---------------------------------------------------------------------------
# Canonical-mixture triviality
# ---------------------------------------------------------------------------


def verify_canonical_triviality(
    modes: int, p: float, betas, n_samples: int, rng, workers: int = 1
) -> list[EstimatorReport]:
    """Normalized means of exp(-beta H_op) over Gaussian-weight class-D draws.

    For every beta the normalized mixture equals 2^-M times the identity; the
    beta = 0 case is exact by construction. Each report carries the pairwise
    agreement with the other betas in its details.
    """
    spec = _as_rngspec(rng)
    betas = [float(b) for b in betas]
    if not betas:
        raise ContractError("need at least one beta")
    dim = 1 << modes

    def worker(gen: np.random.Generator, per: int):
        mats = sample_class_d_batch(modes, p, gen, per)
        w, v = np.linalg.eigh(quadratic_hamiltonian_batch(mats))
        nums, dens = [], []
        for beta in betas:
            ew = np.exp(-beta * w)
            nums.append(from_eigenpairs(ew, v).mean(axis=0))
            dens.append(float(ew.sum(axis=1).mean()))
        return np.stack(nums), np.array(dens)

    results, samples = _run_chunks(worker, n_samples, spec, modes, workers)
    nums = np.stack([r[0] for r in results])  # (chunks, nbeta, d, d)
    dens = np.stack([r[1] for r in results])  # (chunks, nbeta)

    reports = []
    for bi, beta in enumerate(betas):
        grand = nums[:, bi].mean(axis=0) / dens[:, bi].mean()
        se = _batch_se(nums[:, bi] / dens[:, bi, None, None], grand)
        details = {"beta": beta, "p": p}
        if beta == 0.0:
            exact_dev = float(np.abs(grand - np.eye(dim) / dim).max())
            details = {"beta_zero_exact_deviation": exact_dev, **details}
        rep = _mc_report(modes, grand, se, samples, spec, details)
        if beta == 0.0:
            rep.passed = rep.passed and exact_dev <= 1e-14
            rep.criterion += "; beta = 0 must be exact"
        reports.append(rep)
    for i, rep in enumerate(reports):
        worst = 0.0
        for j, other in enumerate(reports):
            if j == i:
                continue
            dev = np.abs(rep.mean.matrix - other.mean.matrix)
            comb = np.sqrt(rep.per_entry_se**2 + other.per_entry_se**2)
            ok = (dev <= 5.0 * comb) | (dev <= ABS_FLOOR)
            worst = max(worst, float((dev / np.maximum(comb, 1e-300)).max()) if comb.any() else 0.0)
            if not ok.all():
                rep.passed = False
        rep.details["pairwise_max_sigma"] = worst
    return reports


# ---------------------------------------------------------------------------
# Number-conserving dichotomy
# ---------------------------------------------------------------------------


def load_failure_floor(modes: int = 2, p: float = 1.0) -> dict:
    """Golden lower bound for the even-weight residual, generated by
    scripts/generate_nc_failure_floor.py and shipped with the package."""
    path = resources.files("fermigauss").joinpath("golden/nc_failure_floor.json")
    data = json.loads(path.read_text())
    for entry in data["entries"]:
        if entry["modes"] == modes and abs(entry["p"] - p) < 1e-12:
            return entry
    raise ContractError(
        f"no golden failure floor for modes = {modes}, p = {p}; "
        f"run scripts/generate_nc_failure_floor.py to add one"
    )


def _closest_identity_multiple(mat: np.ndarray) -> tuple[float, float]:
    """(c, residual) minimizing the max-entry norm of mat - c I for hermitian mat."""
    diag = np.real(np.diagonal(mat))
    c = 0.5 * (diag.max() + diag.min())
    off = np.abs(mat - np.diag(np.diagonal(mat))).max()
    return float(c), float(max(off, 0.5 * (diag.max() - diag.min())))


def nc_even_weight_quadrature(modes: int, p: float, quad_order: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature mean of rotated number-conserving operators under the
    hermitian-matrix measure with the even weight exp(-p sum lam^2).

    Returns (mean operator, fixed Haar rotation). With one mode the mean is
    proportional to the identity; with two the eigenvalue-repulsion factor is
    not even in each eigenvalue separately and a nonzero residual survives.
    """
    weight = WeightSpec.nc_even(p)
    u = sample_haar_unitary_batch(modes, RngSpec(ROTATION_SEED, stream=2), 1)[0]
    rule = lambda order: _hermitian_rule(weight, modes, order)
    q, _ = _converged_mean(rule, lambda pts: _rotated_ncons_ops(pts, u), quad_order)
    return q, u


def verify_nc_failure(modes: int = 2, p: float = 1.0, quad_order: int = 60) -> EstimatorReport:
    """Quadrature of the number-conserving family against the even weight: the
    residual distance from all identity multiples must *exceed* the golden
    failure floor, and must live entirely in the rotated number-operator
    sector."""
    if modes != 2:
        raise ContractError("the even-weight failure demonstration is pinned at two modes")
    golden = load_failure_floor(modes, p)
    q, u = nc_even_weight_quadrature(modes, p, quad_order)
    c, residual = _closest_identity_multiple(q)

    # residual decomposition over {I, N_1, N_2, N_1 N_2} built from b = U^dag a
    ann = np.stack(_annihilators(modes))
    b = np.einsum("kj,kab->jab", u.conj(), ann)
    nops = [bj.conj().T @ bj for bj in b]
    basis = [np.eye(1 << modes, dtype=complex), nops[0], nops[1], nops[0] @ nops[1]]
    stack = np.stack([m.ravel() for m in basis]).T
    coeffs, *_ = np.linalg.lstsq(stack, q.ravel(), rcond=None)
    sector_residual = float(np.abs(q.ravel() - stack @ coeffs).max())

    dim = 1 << modes
    target = FockOperator(modes, c * np.eye(dim), hermitian=True)
    passed = residual >= golden["failure_floor"] and sector_residual < 1e-9
    return EstimatorReport(
        target=target,
        mean=FockOperator(modes, q),
        max_abs_deviation=residual,
        per_entry_se=None,
        samples=(2 * quad_order) ** modes,
        seed=RngSpec(ROTATION_SEED, stream=2),
        passed=passed,
        criterion=(
            f"min over c of the max-entry norm of (mean - c I) must exceed the golden "
            f"floor {golden['failure_floor']:.6g} and project onto the rotated "
            f"number-operator sector to within 1e-9"
        ),
        details={
            "p": p,
            "closest_multiple": c,
            "residual": residual,
            "failure_floor": golden["failure_floor"],
            "oracle_residual": golden["oracle_residual"],
            "sector_residual": sector_residual,
        },
    )


def verify_nc_modified(
    modes: int,
    p: float,
    n_samples: int,
    rng,
    workers: int = 1,
    keep_samples: bool = False,
) -> EstimatorReport:
    """Monte Carlo mean of number-conserving operators with eigenvalues drawn
    from the parity-restoring modified weight and independent Haar rotations;
    target is 2^-M times the identity.

    The modified weight times the hermitian Jacobian is the class-D radial
    density at stiffness p/2,
    Delta(lam)^2 * prod_{i<j} (lam_i + lam_j)^2 exp(-p sum lam^2)
    = Delta(lam^2)^2 exp(-p sum lam^2),
    even in every eigenvalue. Each chunk therefore samples it exactly: the
    pair representatives of class-D draws at p/2, with independent random
    signs.
    """
    spec = _as_rngspec(rng)
    WeightSpec.nc_modified(p)  # rejects p <= 0 with the caller's value

    def worker(gen: np.random.Generator, per: int):
        pts = np.linalg.eigvalsh(sample_class_d_batch(modes, 0.5 * p, gen, per))[:, modes:]
        pts = pts * gen.choice((-1.0, 1.0), size=(per, modes))
        us = sample_haar_unitary_batch(modes, gen, per)
        return _rotated_ncons_ops(pts, us).mean(axis=0), pts

    results, samples = _run_chunks(worker, n_samples, spec, modes, workers)
    chunk_means = np.stack([r[0] for r in results])
    mean = chunk_means.mean(axis=0)
    details = {"p": p, "chunks": chunk_means.shape[0]}
    if keep_samples:
        details["lambda_samples"] = np.concatenate([r[1] for r in results])
    return _mc_report(modes, mean, _batch_se(chunk_means, mean), samples, spec, details)


# ---------------------------------------------------------------------------
# Operator-identity suite (shared by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------


def _hermitian_matrix(gen: np.random.Generator, m: int) -> np.ndarray:
    z = gen.normal(size=(m, m)) + 1j * gen.normal(size=(m, m))
    return (z + z.conj().T) / 2.0


def operator_identity_suite(max_modes: int = 3, seed: int = 42, trials: int = 50) -> list[CriterionResult]:
    """Run the operator-level identity checks and return one result per check."""
    gen = RngSpec(seed).generator()
    out = []

    # canonical anticommutators, vacuum annihilation, nilpotency
    worst_car, worst_nil, worst_vac = 0.0, 0.0, 0.0
    for m in range(1, min(max_modes, 4) + 1):
        ops = build_mode_operators(m)
        eye = np.eye(1 << m)
        for i, ai in enumerate(ops):
            worst_vac = max(worst_vac, float(np.abs(ai.matrix[:, 0]).max()))
            for j, aj in enumerate(ops):
                car = ai.matrix @ aj.matrix.conj().T + aj.matrix.conj().T @ ai.matrix
                worst_car = max(worst_car, float(np.abs(car - (i == j) * eye).max()))
                nil = ai.matrix @ aj.matrix + aj.matrix @ ai.matrix
                worst_nil = max(worst_nil, float(np.abs(nil).max()))
    out.append(CriterionResult("anticommutators {a_i, a_j^dag} = delta_ij", worst_car, 1e-13, worst_car <= 1e-13))
    out.append(CriterionResult("anticommutators {a_i, a_j} = 0", worst_nil, 1e-13, worst_nil <= 1e-13))
    out.append(CriterionResult("vacuum annihilated by every mode", worst_vac, 0.0, worst_vac == 0.0))

    # normal-ordering identity on random hermitian generators
    worst = 0.0
    for t in range(trials):
        m = 1 + t % min(max_modes, 3)
        h = _hermitian_matrix(gen, m)
        # the embedding (h, 0) gives a^dag h a - (1/2) tr h; undo the shift
        direct = op_exp(quadratic_hamiltonian(assemble_blocks(h, np.zeros_like(h))))
        direct = math.exp(0.5 * np.trace(h).real) * direct.matrix
        ordered = normal_ordered_exp(scipy.linalg.expm(h) - np.eye(m))
        worst = max(worst, float(np.abs(direct - ordered.matrix).max()))
    out.append(CriterionResult("normal-ordered exponential identity", worst, 1e-9, worst <= 1e-9))

    # trace formula three ways
    worst = 0.0
    for t in range(2 * trials):
        m = 1 + t % min(max_modes, 3)
        bdg = sample_class_d(m, 1.0, gen)
        closed = np.prod(2.0 * np.cosh(paired_eigenvalues(bdg) / 2.0))
        exact = op_exp(quadratic_hamiltonian(bdg)).trace().real
        w, v = np.linalg.eigh(bdg.assembled())
        coshm = (v * (2.0 * np.cosh(w / 2.0))) @ v.conj().T
        root_det = math.sqrt(abs(np.linalg.det(coshm)))
        worst = max(
            worst,
            abs(exact - closed) / closed,
            abs(root_det - closed) / closed,
        )
    out.append(
        CriterionResult("trace = product of 2cosh(lam/2) = sqrt(det 2cosh(H/2))", worst, 1e-9, worst <= 1e-9)
    )

    # positivity and unit trace of normalized operators
    worst_eig, worst_tr = 0.0, 0.0
    for t in range(2 * trials):
        m = 1 + t % min(max_modes, 3)
        lam = gaussian_normalized(sample_class_d(m, 1.0, gen))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(lam.matrix).min()))
        worst_tr = max(worst_tr, abs(lam.trace().real - 1.0))
    out.append(CriterionResult("normalized operators positive definite", -worst_eig, 1e-12, worst_eig >= -1e-12))
    out.append(CriterionResult("normalized operators have unit trace", worst_tr, 1e-12, worst_tr <= 1e-12))

    # composition laws at the Fock level
    worst_g, worst_n = 0.0, 0.0
    for _ in range(trials):
        m = 2
        b1 = sample_class_d(m, 1.0, gen)
        b2 = sample_class_d(m, 1.0, gen)
        scale = 1.2 / (
            np.abs(np.linalg.eigvalsh(b1.assembled())).max()
            + np.abs(np.linalg.eigvalsh(b2.assembled())).max()
        )
        b1 = make_bdg(scale * b1.h, scale * b1.delta)
        b2 = make_bdg(scale * b2.h, scale * b2.delta)
        comp = compose_general(b1, b2)
        lhs = scipy.linalg.expm(quadratic_hamiltonian(comp).matrix)
        rhs = scipy.linalg.expm(quadratic_hamiltonian(b1).matrix) @ scipy.linalg.expm(
            quadratic_hamiltonian(b2).matrix
        )
        worst_g = max(worst_g, float(np.abs(lhs - rhs).max()))

        h1 = _hermitian_matrix(gen, m)
        h2 = _hermitian_matrix(gen, m)
        scale = 1.2 / (np.abs(np.linalg.eigvalsh(h1)).max() + np.abs(np.linalg.eigvalsh(h2)).max())
        h1, h2 = scale * h1, scale * h2
        hc = compose_number_conserving(h1, h2)

        def gn(hmat):
            return scipy.linalg.expm(quadratic_hamiltonian(assemble_blocks(hmat, np.zeros_like(hmat))).matrix)

        worst_n = max(worst_n, float(np.abs(gn(hc) - gn(h1) @ gn(h2)).max()))
    out.append(CriterionResult("general composition law at operator level", worst_g, 1e-9, worst_g <= 1e-9))
    out.append(
        CriterionResult("number-conserving composition law at operator level", worst_n, 1e-9, worst_n <= 1e-9)
    )

    # number-conserving embedding against exp(a^dag h a) built from mode operators
    worst = 0.0
    for t in range(trials // 2):
        m = 1 + t % min(max_modes, 3)
        h = _hermitian_matrix(gen, m)
        ann = [a.matrix for a in build_mode_operators(m)]
        ham = sum(h[k, l] * ann[k].conj().T @ ann[l] for k in range(m) for l in range(m))
        direct = op_exp(FockOperator(m, ham, hermitian=True))
        emb = gaussian_number_conserving(h)
        worst = max(worst, float(np.abs(emb.matrix - direct.matrix / direct.trace().real).max()))
    out.append(CriterionResult("number-conserving embedding (delta = 0)", worst, 1e-12, worst <= 1e-12))

    # diagonal form in the transformed mode basis
    worst_prod, worst_diag = 0.0, 0.0
    for t in range(trials // 2):
        m = 1 + t % min(max_modes, 3)
        polar = random_polar_rotation(m, gen)
        bdg_mat = polar.bogoliubov.conj().T @ polar.diagonal_coefficient() @ polar.bogoliubov
        bdg = make_bdg(bdg_mat[:m, :m], bdg_mat[:m, m:])
        lam_op = gaussian_normalized(bdg)
        gam = np.concatenate([np.stack(_annihilators(m)), np.stack([a.conj().T for a in _annihilators(m)])])
        bops = np.einsum("jk,kab->jab", polar.bogoliubov[:m], gam)
        dim = 1 << m
        prod = np.eye(dim, dtype=complex)
        tanh = np.tanh(polar.lambdas / 2.0)
        combo = np.zeros((dim, dim), dtype=complex)
        for j in range(m):
            nj = bops[j].conj().T @ bops[j]
            prod = prod @ (0.5 * (1.0 - tanh[j]) * np.eye(dim) + tanh[j] * nj)
            combo += 3.0**j * nj
        worst_prod = max(worst_prod, float(np.abs(lam_op.matrix - prod).max()))
        _, vv = np.linalg.eigh(combo)
        rotated = vv.conj().T @ lam_op.matrix @ vv
        worst_diag = max(worst_diag, float(np.abs(rotated - np.diag(np.diagonal(rotated))).max()))
    out.append(
        CriterionResult("normalized operator is the per-mode product in the rotated basis", worst_prod, 1e-9, worst_prod <= 1e-9)
    )
    out.append(CriterionResult("rotated normalized operator is diagonal", worst_diag, 1e-9, worst_diag <= 1e-9))

    # particle/hole parameterization rebuild
    worst = 0.0
    for _ in range(10):
        m = 2
        h = _hermitian_matrix(gen, m)
        pair = greens_parameterization(h)
        rebuilt = np.linalg.det(pair.n_tilde).real * normal_ordered_exp(
            (np.linalg.inv(pair.n_tilde) - 2.0 * np.eye(m)).T
        ).matrix
        worst = max(worst, float(np.abs(rebuilt - gaussian_number_conserving(h).matrix).max()))
    out.append(CriterionResult("particle/hole parameterization rebuilds the operator", worst, 1e-9, worst <= 1e-9))

    # spectral exponential sanity
    worst = 0.0
    for _ in range(10):
        m = 2
        hmat = _hermitian_matrix(gen, 1 << m)
        a = FockOperator(m, hmat, hermitian=True)
        e_plus = op_exp(a)
        e_minus = op_exp(a, -1.0)
        worst = max(worst, float(np.abs(e_plus.matrix @ e_minus.matrix - np.eye(1 << m)).max()))
        spec_map = np.sort(np.linalg.eigvalsh(e_plus.matrix)) - np.exp(np.sort(np.linalg.eigvalsh(hmat)))
        worst = max(worst, float(np.abs(spec_map).max()))
    out.append(CriterionResult("spectral exponential inverse pair and eigenvalue map", worst, 1e-10, worst <= 1e-10))

    return out


def selberg_consistency_suite(max_modes: int = 6, ps=(0.5, 1.0, 3.0)) -> list[CriterionResult]:
    """Closed-form consistency checks: angular + radial = Cartesian in log
    space, p-independence of the angular volume, and unit normalization of the
    two weight constants."""
    out = []
    worst = 0.0
    for m in range(1, max_modes + 1):
        for p in ps:
            gap = abs(
                selberg.angular_volume_log(m)
                + selberg.radial_gaussian_integral_log(m, p)
                - selberg.cartesian_gaussian_integral_log(m, p)
            )
            worst = max(worst, gap)
    out.append(
        CriterionResult(
            f"angular + radial = Cartesian in log space (M <= {max_modes}, p in {tuple(ps)})",
            worst,
            1e-10,
            worst <= 1e-10,
        )
    )

    worst = 0.0
    for m in range(1, max_modes + 1):
        ratio1 = selberg.cartesian_gaussian_integral_log(m, 1.0) - selberg.radial_gaussian_integral_log(m, 1.0)
        ratio3 = selberg.cartesian_gaussian_integral_log(m, 3.0) - selberg.radial_gaussian_integral_log(m, 3.0)
        worst = max(worst, abs(ratio1 - ratio3))
    out.append(CriterionResult("angular volume is independent of p", worst, 1e-10, worst <= 1e-10))

    gap = abs(selberg.angular_volume_log(1))
    out.append(CriterionResult("angular volume is 1 for a single mode", gap, 1e-12, gap <= 1e-12))

    worst = 0.0
    for m in range(1, 5):
        for p in (0.5, 1.0, 2.0):
            total = (
                -m * math.log(2.0)
                + selberg.angular_volume_log(m)
                + selberg.norm_const_gauss_log(m, p)
                + selberg.radial_gaussian_integral_log(m, p)
            )
            worst = max(worst, abs(total))
    out.append(CriterionResult("Gaussian weight constant normalizes to one", worst, 1e-10, worst <= 1e-10))

    worst = 0.0
    for m in range(1, 4):
        for p in (m + 0.5, m + 1.0):
            total = (
                -m * math.log(2.0)
                + selberg.angular_volume_log(m)
                + selberg.norm_const_det_log(m, p)
                + selberg.selberg_integral_log(0.5, 2 * p - 2 * m + 1.5, 1.0, m)
            )
            worst = max(worst, abs(total))
    out.append(CriterionResult("determinant weight constant normalizes to one", worst, 1e-8, worst <= 1e-8))
    return out
