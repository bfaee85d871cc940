"""Executable verification drivers: resolution-of-unity checks by quadrature
and Monte Carlo, canonical-mixture triviality, and the number-conserving
failure/success dichotomy, plus the operator-identity and closed-form
consistency suites shared by the test suite and the CLI.
"""

import math
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import selberg
from .ensembles import (  # noqa: F401  sample_class_d and sample_radial_mcmc stay importable here: benchmark/tracing.py wraps them
    CLASS_D,
    RngSpec,
    SymmetryClass,
    WeightSpec,
    _haar_unitaries,
    _log_jacobian,
    _normal_parts,
    _polar_rotations,
    class_d_pair_values,
    random_polar_rotation,
    sample_class_d,
    sample_class_d_batch,
    sample_haar_unitary_batch,
    sample_radial_mcmc,
)
from .errors import CapacityError, ContractError, DomainError, NonConvergenceError, _above, _count
from .fock import (  # noqa: F401  quadratic_hamiltonian, op_exp and normal_ordered_exp stay importable here: benchmark/tracing.py wraps them
    FockOperator,
    _annihilators,
    _check_modes,
    _exp_hermitian,
    _normal_ordered_stack,
    _require_particle_hole,
    _string_sum,
    _wick_plan,
    build_mode_operators,
    embed_parity_blocks,
    from_eigenpairs,
    normal_ordered_exp,
    op_exp,
    quadratic_hamiltonian,
    quadratic_hamiltonian_batch,
)
from .gaussian import (  # noqa: F401  gaussian_normalized, gaussian_number_conserving, greens_parameterization,
    # compose_general, compose_number_conserving, paired_eigenvalues and make_bdg stay importable here: benchmark/tracing.py wraps them
    PolarForm,
    _draw_weights,
    _expm,
    _hole_filling,
    _paired_eigh,
    _principal_log,
    _rank_one_pair_rows,
    assemble_blocks,
    compose_general,
    compose_number_conserving,
    exp_normalized_fock_batch,
    filling_moments,
    gaussian_normalized,
    gaussian_number_conserving,
    greens_parameterization,
    log_trace_of_pairs,
    make_bdg,
    moment_wick_coordinates,
    number_conserving_pair_rows,
    paired_eigenvalues,
    real_form,
    real_form_pair_rows,
    wick_blocks,
    wick_coordinates,
)

#: Samples per Monte Carlo chunk; the chunk index doubles as the RNG substream,
#: which makes results independent of how chunks are assigned to workers.
CHUNK = 4000

#: Draws or nodes that every driver also builds through the Fock construction
#: (_fock_check): chunk 0's first draws, or the quad_order rule's last kept
#: nodes; a fixed cost per run, whatever the chunk size or quad_order.
FOCK_CHECK_DRAWS = 4

#: Minimum number of chunks, so batch-means standard errors stay usable.
MIN_CHUNKS = 16

#: Entry deviations below this absolute floor always pass the Monte Carlo gate
#: (relevant only for entries that vanish identically, e.g. across parity blocks).
ABS_FLOOR = 1e-12

#: Named seed from which the deterministic quadrature rotations are derived.
ROTATION_SEED = 8128

#: (law, order) rules with their moments, and fixed rotations per mode count,
#: that one process keeps, least recently used out first: at the default order
#: 60 at most about 28 MB of rules (odd-beta sector rules), 1.3 MB for the
#: three laws of the benchmark's checks workload.
LAW_CACHE_SIZE = 16

QUAD_TOL = 1e-8
QUAD_CONVERGENCE_TOL = 1e-9

#: The even-weight residual must exceed this fraction of nc_failure_residual.
FAILURE_FLOOR_FRACTION = 0.95

#: Smallest failure floor verify_nc_failure judges: float64's eps. The rounding
#: of the mean's 1/4 entries moves the residual by 7e-18 to 1e-17 (p = 1e14 to
#: 1e15), 3% of the oracle at this floor, inside the 5% the floor fraction leaves.
FAILURE_ROUNDING_LEVEL = float(np.finfo(float).eps)

#: Largest max-entry gap allowed between the Wick mean of FOCK_CHECK_DRAWS
#: draws or nodes and their mean built through the Fock construction. Single
#: operators agree to about 2e-13 at energies near 1000, and a weighted
#: canonical mean there is carried by one draw.
FOCK_CHECK_TOL = 1e-12


@dataclass
class CriterionResult:
    """One named check with its measured extreme violation and tolerance.
    It passes when ``measured <= tolerance``, so a NaN fails."""

    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.tolerance)


@dataclass
class EstimatorReport:
    """Outcome of one verification run: its mean against the target over
    ``samples`` points (kept as (n, M) ``point_chunks`` by quadrature runs, and
    by Monte Carlo runs with ``keep_points``), and the ``bounds`` that are its
    verdict, each named after the report entries it reads. It passes exactly
    when every bound holds, and states its rule, ``criterion``, from that list."""

    target: FockOperator
    mean: FockOperator
    per_entry_se: np.ndarray | None
    samples: int
    seed: RngSpec | None
    bounds: list[CriterionResult]
    details: dict = field(default_factory=dict)
    point_chunks: tuple[np.ndarray, ...] = ()

    @property
    def points(self) -> np.ndarray:
        """The kept (samples, M) points in chunk order, concatenated on each
        call; ContractError if the report kept none."""
        if not self.point_chunks:
            raise ContractError("this report kept no points: run its driver with keep_points=True")
        return np.concatenate(self.point_chunks)

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.bounds)

    @property
    def criterion(self) -> str:
        return "; ".join(f"{b.name} <= {b.tolerance:g}" for b in self.bounds)

    @property
    def max_abs_deviation(self) -> float:
        return float(np.abs(self.mean.matrix - self.target.matrix).max())


def _as_rngspec(rng) -> RngSpec:
    if isinstance(rng, RngSpec):
        return rng
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        return RngSpec(int(rng))
    raise ContractError(f"expected an RngSpec (or integer seed), got {type(rng).__name__}")


# ---------------------------------------------------------------------------
# Chunked Monte Carlo machinery
# ---------------------------------------------------------------------------


def _chunk_layout(n_samples: int) -> tuple[int, int]:
    """(number of chunks, samples per chunk); chunks are equal-sized, so the
    total may exceed the request by fewer than one sample per chunk (17 runs
    16 chunks of 2, 4001 runs 4016)."""
    _count(n_samples, "n_samples", ContractError)
    chunks = max(-(-n_samples // CHUNK), min(n_samples, MIN_CHUNKS))
    per = -(-n_samples // chunks)
    return chunks, per


@dataclass(frozen=True)
class _Chunk:
    """One Monte Carlo chunk's record: its draws' mean Wick coordinates, their
    number, chunk 0's Fock gap (None elsewhere), their pair values if the run
    keeps them, and for canonical chunks the log sums of traces and squares."""

    coords: np.ndarray
    draws: int
    fock_dev: float | None
    points: np.ndarray | None = None
    log_w: float | None = None
    log_w2: float | None = None


def _run_chunks(worker, n_samples: int, spec: RngSpec, modes: int, workers: int = 1) -> list:
    """Chunked Monte Carlo sampling: ``worker(generator, per, first)`` once
    per chunk, chunk i drawing from the i-th substream past ``spec``, so
    results do not depend on the worker count. ``first`` is set for chunk 0
    alone, whose worker hands its own first FOCK_CHECK_DRAWS draws to the
    Fock cross-check (_fock_check). Returns the chunk results in chunk order."""
    _count(workers, "workers", ContractError)
    _check_modes(modes)
    chunks, per = _chunk_layout(n_samples)
    _wick_plan(modes)  # warm the cache before any thread fan-out

    def task(i: int):
        return worker(spec.with_stream(spec.stream + i).generator(), per, i == 0)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(task, i) for i in range(chunks)]
            wait(futures, return_when=FIRST_EXCEPTION)
            for fut in futures:  # after an error, drop the chunks not yet started
                fut.cancel()
            # chunks queue in order, so every chunk before a failed one has
            # started, and the first error in chunk order is the one raised
            return [fut.result() for fut in futures]
    return [task(i) for i in range(chunks)]


def _chunk_estimate(chunks, log_weights=None) -> tuple[np.ndarray, np.ndarray]:
    """The chunked Monte Carlo estimator: the grand mean of equal-sized chunk
    estimates and the batch-means SE of their spread about it, per entry. Chunk
    k may weigh e^log_weights[k], taken relative to the largest so none overflows."""
    x = np.stack(chunks)
    w = None if log_weights is None else np.exp(np.subtract(log_weights, np.max(log_weights)))
    mean = np.average(x, axis=0, weights=w)
    dev = x - mean  # zero for a single chunk, which has no SE
    var = ((dev.real**2).sum(axis=0) + (dev.imag**2).sum(axis=0)) / max(len(x) - 1, 1)
    return mean, np.sqrt(var / len(x))


def _log_sum_exp(logs) -> float:
    """log sum exp(logs), taken relative to the largest so nothing overflows."""
    top = np.max(logs)
    return float(top + math.log(np.exp(np.subtract(logs, top)).sum()))


def _max_sigma(dev: np.ndarray, se: np.ndarray) -> float:
    """Largest deviation in standard errors over the entries the gate judges,
    those not at or below ABS_FLOOR; 0 when there are none. So ``<= 5`` holds
    when every entry is within 5 SE or at or below the floor: a NaN
    deviation or SE stays NaN, and a judged entry with zero SE reads huge."""
    judged = ~(dev <= ABS_FLOOR)
    return float((dev[judged] / np.maximum(se[judged], 1e-300)).max(initial=0.0))


def _require_judged(se: np.ndarray, p: float, samples: int) -> None:
    """Raise DomainError when no per-entry SE exceeds ABS_FLOOR: the gate then
    judges no entry, so a pass would say nothing (at huge p every draw is
    below rounding and every operator is 2^-M I)."""
    if not (se > ABS_FLOOR).any():
        raise DomainError(
            f"no per-entry standard error exceeds the {ABS_FLOOR:g} floor at p = {p} "
            f"({samples} samples), so the Monte Carlo gate would judge no entry"
        )


def _entry_gate(mean: np.ndarray, target: np.ndarray, se: np.ndarray) -> tuple[list[CriterionResult], dict]:
    """The entrywise Monte Carlo gate: its bounds on ``max_sigma`` and on the
    entries in the 3-5 SE band, and the measurements they read."""
    dev = np.abs(mean - target)
    ok = (dev <= 5.0 * se) | (dev <= ABS_FLOOR)
    band = ok & (dev > 3.0 * se) & (dev > ABS_FLOOR)
    info = {
        "max_sigma": _max_sigma(dev, se),
        "band_entries": int(band.sum()),
        "band_allowed": max(1, int(0.01 * dev.size)),
        "frobenius_deviation": float(np.linalg.norm(mean - target)),
    }
    bounds = [
        CriterionResult("max_sigma", info["max_sigma"], 5.0),
        CriterionResult("band_entries", info["band_entries"], info["band_allowed"]),
    ]
    return bounds, info


def _fock_check(mats: np.ndarray, coords: np.ndarray, log_weights=None) -> float:
    """Max-entry gap between the mean Wick coordinates ``coords`` that a
    driver took of exactly the draws or nodes it hands over, mapped by
    wick_blocks, and the mean of the normalized Gaussian operators of their
    coefficient matrices ``mats`` through quadratic_hamiltonian_batch and
    exp_normalized_fock_batch, weighted by ``log_weights`` when given, as the
    coordinates were. The one Fock cross-check of every driver: the Monte
    Carlo workers hand it wick_coordinates(rows[:, :FOCK_CHECK_DRAWS]) of
    chunk 0's pair rows with those draws' raw ``mats``, and _converged_mean
    the moment map of the last FOCK_CHECK_DRAWS kept nodes of its rule."""
    wick = wick_blocks(coords)[0]  # parity blocks, as the Fock mean's
    ops = exp_normalized_fock_batch(quadratic_hamiltonian_batch(mats))
    return float(np.abs(np.einsum("s,spab->pab", _draw_weights(len(mats), log_weights), ops) - wick).max())


def _mc_report(modes: int, chunks: list[_Chunk], spec: RngSpec, details: dict, _exact: bool = False) -> EstimatorReport:
    """The one Monte Carlo verdict path, and the one place that combines chunk
    records, in chunk order: one scatter of their Wick coordinates to parity
    blocks, their chunked estimate (weighing chunks by their sums of traces w
    if they have them, with the Kish size (sum w)^2 / sum w^2 in ``details``),
    and the gate of the mean against 2^-M I and of chunk 0's Fock gap against
    FOCK_CHECK_TOL; ``details``, which carry p, follow the gate's entries. With
    ``_exact`` (canonical beta = 0) the mean must also be 2^-M I to 1e-14, and
    the gate may judge no entry; otherwise one that judges none raises DomainError."""
    log_w = None if chunks[0].log_w is None else [c.log_w for c in chunks]
    mean, se = _chunk_estimate(wick_blocks(np.stack([c.coords for c in chunks])), log_w)
    if log_w is not None:
        ess = math.exp(2.0 * _log_sum_exp(log_w) - _log_sum_exp([c.log_w2 for c in chunks]))
        details = {**details, "effective_sample_size": ess}
    samples = sum(c.draws for c in chunks)
    dim = 1 << modes
    if _exact:  # over both parity blocks
        details = {"beta_zero_exact_deviation": float(np.abs(mean - np.eye(dim // 2) / dim).max()), **details}
    else:
        _require_judged(se, details["p"], samples)
    mean, se, fock_dev = embed_parity_blocks(mean), embed_parity_blocks(se), chunks[0].fock_dev
    target = FockOperator(modes, np.eye(dim) / dim, hermitian=True)
    bounds, info = _entry_gate(mean, target.matrix, se)
    bounds.append(CriterionResult("fock_check_deviation", fock_dev, FOCK_CHECK_TOL))
    if _exact:
        bounds.append(CriterionResult("beta_zero_exact_deviation", details["beta_zero_exact_deviation"], 1e-14))
    return EstimatorReport(
        target=target,
        mean=FockOperator(modes, mean),
        per_entry_se=se,
        samples=samples,
        seed=spec,
        bounds=bounds,
        details={**info, **details, "fock_check_deviation": fock_dev},
        point_chunks=() if chunks[0].points is None else tuple(c.points for c in chunks),
    )


# ---------------------------------------------------------------------------
# The radial quadrature rule
# ---------------------------------------------------------------------------


def _gauss_rule(build, name: str, order: int) -> tuple[np.ndarray, np.ndarray]:
    """An ``order``-node Gauss rule, or a ContractError when it has no nodes
    or does not fit in float64 (numpy gives NaN Hermite weights from 372 nodes)."""
    _count(order, "quad_order", ContractError)
    with np.errstate(all="ignore"):
        x, w = build(order)
    if not (np.isfinite(x).all() and np.isfinite(w).all()):
        raise ContractError(
            f"the {order}-node Gauss-{name} rule is not finite in float64; lower quad_order "
            f"(the drivers also evaluate 2 x quad_order nodes)"
        )
    return x, w


@lru_cache(maxsize=None, typed=True)  # typed: True is no quad_order, but hashes as 1
def _hermgauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return _gauss_rule(np.polynomial.hermite.hermgauss, "Hermite", order)


@lru_cache(maxsize=None, typed=True)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return _gauss_rule(np.polynomial.legendre.leggauss, "Legendre", order)


def _gauss_scale(weight: WeightSpec) -> float:
    """Coefficient c of the Gaussian factor exp(-c lam^2) in the weight."""
    if weight.kind == "nc_modified":
        raise ContractError(f"no per-mode quadrature rule for weight kind {weight.kind!r}")
    return 2.0 * weight.p if weight.kind == "gaussian" else weight.p


def _weight_rule(weight: WeightSpec, order: int, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """One-mode nodes and weights absorbing the weight factor, on the full
    line or, with ``half``, on (0, inf). The determinant weight maps Gauss-
    Legendre nodes through lam = tan(theta); the Gaussian weights use Gauss-
    Hermite on the line and Gauss-Legendre up to exp(-c lam^2) = e^-50 on
    the half line."""
    if weight.kind == "determinant":
        x, w = _leggauss(order)
        jac = 0.25 * math.pi if half else 0.5 * math.pi
        lam = np.tan(jac * (x + 1.0) if half else jac * x)
        return lam, jac * w * (1.0 + lam**2) ** (1.0 - 2.0 * weight.p)
    c = _gauss_scale(weight)
    if half:
        x, w = _leggauss(order)
        jac = 0.5 * math.sqrt(50.0 / c)
        lam = jac * (x + 1.0)
        return lam, jac * w * np.exp(-c * lam**2)
    x, w = _hermgauss(order)
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


def radial_quadrature_nodes(
    sym_class: SymmetryClass, weight: WeightSpec, modes: int, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """The radial quadrature rule of every verifier: points (N, modes) and
    weights integrating f against the radial density times the weight over
    R^modes, for one or two modes. The density is the class Jacobian of
    ``sym_class``, or Delta(lam)^2 for the number-conserving weight kinds.

    An even power of every kink is a plain tensor rule. An odd alpha puts a
    kink at lam_j = 0, so the positive orthant is integrated and reflected;
    an odd beta puts one at |lam_1| = |lam_2|, so the ordered sector of the
    positive quadrant is integrated, both orderings are added, and the result
    is reflected. Raises DomainError when the stiffness leaves the rule
    outside float64, and ContractError when every node sits on a zero of the
    density (an order too low for it).
    """
    hermitian = weight.uses_hermitian_jacobian
    odd_alpha, odd_beta = (False, False) if hermitian else (sym_class.alpha % 2, sym_class.beta % 2)
    with np.errstate(all="ignore"):
        if modes == 2 and odd_beta:
            r, w_r = _leggauss(order)
            t, w_t = _weight_rule(weight, order, True)
            inner = np.outer(0.5 * (r + 1.0), t).ravel()
            t = np.tile(t, order)
            base = np.outer(0.5 * w_r, w_t).ravel() * t * np.exp(weight.log_weight(inner[:, None]))
            sector = np.concatenate([np.column_stack([inner, t]), np.column_stack([t, inner])])
            points, wts = _fold_signs(sector, np.concatenate([base, base]))
        elif odd_alpha:
            points, wts = _fold_signs(*_tensor(*_weight_rule(weight, order, True), modes))
        else:
            points, wts = _tensor(*_weight_rule(weight, order, False), modes)
        wts = wts * np.exp(_log_jacobian(sym_class, hermitian, points))
        total = wts.sum()
    finite = np.isfinite(points).all() and np.isfinite(wts).all()
    if finite and total == 0.0:
        # scaling the nodes moves the density's underflow, not its zeros
        unit = points / (np.abs(points).max() or 1.0)
        if not np.isfinite(_log_jacobian(sym_class, hermitian, unit)).any():
            raise ContractError(
                f"every node of the order-{order} radial rule sits on a zero of the radial density "
                f"(total weight 0); raise quad_order"
            )
    if not (finite and 0.0 < total < math.inf):
        raise DomainError(
            f"the {weight.kind} weight at p = {weight.p} gives a radial quadrature rule "
            f"outside float64 (total weight {total:.3g}); choose a moderate p"
        )
    return points, wts


@lru_cache(maxsize=LAW_CACHE_SIZE, typed=True)  # typed: True is no quad_order, but hashes as 1
def _law_tables(
    sym_class: SymmetryClass, weight: WeightSpec, modes: int, order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule of radial_quadrature_nodes and its filling_moments, read-only:
    (points, weights, moments). A rule that raises is not kept."""
    pts, wts = radial_quadrature_nodes(sym_class, weight, modes, order)
    tables = pts, wts, filling_moments(pts, wts)
    for arr in tables:
        arr.setflags(write=False)
    return tables


@lru_cache(maxsize=LAW_CACHE_SIZE, typed=True)
def _second_rotation(modes: int) -> np.ndarray:
    """Eigenvectors, read-only, of the fixed second rotation of
    verify_resolution_quadrature at M >= 2."""
    v = random_polar_rotation(modes, RngSpec(ROTATION_SEED, stream=1)).bogoliubov.conj().T
    v.setflags(write=False)
    return v


@lru_cache(maxsize=LAW_CACHE_SIZE, typed=True)
def _nc_rotation(modes: int) -> np.ndarray:
    """The fixed Haar unitary, read-only, of the even-weight failure run."""
    u = sample_haar_unitary_batch(modes, RngSpec(ROTATION_SEED, stream=2), 1)[0]
    u.setflags(write=False)
    return u


def class_d_lambda_samples(modes: int, p: float, rng, n_samples: int) -> np.ndarray:
    """Eigenvalue-pair representatives of the class-D draws that the Monte
    Carlo drivers consume, chunk for chunk (identical streams, identical
    matrices). A standalone sampler that the CLI no longer calls: its dumps
    take the pair values that the Monte Carlo reports keep."""

    def worker(gen: np.random.Generator, per: int, first: bool) -> np.ndarray:
        return class_d_pair_values(modes, p, gen, per)

    return np.concatenate(_run_chunks(worker, n_samples, _as_rngspec(rng), modes))


def _moment_mean(moments: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Weighted Wick mean, as a full matrix, of the normalized Gaussian
    operators with eigenvalues [lam, -lam] at the nodes whose filling_moments
    are ``moments`` and the shared eigenvectors ``v``, through the moment map
    moment_wick_coordinates; no Fock matrix and no node covariance is formed."""
    return embed_parity_blocks(wick_blocks(moment_wick_coordinates(moments, v))[0])


def _converged_mean(sym_class: SymmetryClass, weight: WeightSpec, modes: int, order: int, v: np.ndarray):
    """Wick mean of the operators with eigenvectors ``v`` over the `order` and
    `2 * order` rules, which must agree. The `order` rule's last
    FOCK_CHECK_DRAWS kept nodes, its outermost in the all-positive orthant,
    go through _fock_check with the moment map of their own moments: there
    every tanh(lam_j / 2) is near 1, so every Wick coordinate of their mean
    is of order one (those of the whole rule's mean vanish by the resolution
    of unity). Kept nodes are those of nonzero weight: the others sit on a
    zero of the radial density. Both rules and their moments come from
    _law_tables; everything that reads ``v`` runs on every call. Returns the
    `2 * order` mean, the change, the `2 * order` rule, its moments and the
    Fock gap."""
    pts_lo, wts_lo, moments_lo = _law_tables(sym_class, weight, modes, order)
    q_lo = _moment_mean(moments_lo, v)
    keep = wts_lo > 0.0
    pts, w = pts_lo[keep][-FOCK_CHECK_DRAWS:], wts_lo[keep][-FOCK_CHECK_DRAWS:]  # v is shared: never index it by node
    coords = moment_wick_coordinates(filling_moments(pts, w), v)
    fock_dev = _fock_check(from_eigenpairs(np.concatenate([pts, -pts], axis=1), v), coords, np.log(w))
    pts_hi, wts_hi, moments_hi = _law_tables(sym_class, weight, modes, 2 * order)
    q_hi = _moment_mean(moments_hi, v)
    delta = float(np.abs(q_hi - q_lo).max())
    if not delta <= QUAD_CONVERGENCE_TOL:
        raise NonConvergenceError(
            f"quadrature order doubling changed the mean by {delta:.3e} "
            f"(> {QUAD_CONVERGENCE_TOL}); increase quad_order"
        )
    return q_hi, delta, (pts_hi, wts_hi), moments_hi, fock_dev


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

    Requires an even, integrable weight of a class measure, not an nc_ one
    (the hypothesis doing the work), and a PolarForm rotation or None.
    Convergence is checked by order doubling, and independence from the
    rotation by comparing against a second, deterministically seeded rotation;
    at M = 1, where a rotation only keeps or swaps particle and hole and the
    mean depends on nothing else, against the first with the two swapped.
    Raises DomainError when no kept node has |tanh(lam_j / 2)| above QUAD_TOL,
    at a stiffness so large that the deviation bound could not fail.
    """
    if not weight.is_even or weight.uses_hermitian_jacobian:
        raise ContractError(
            f"weight kind {weight.kind!r} is not a symmetry-class weight even in each eigenvalue (nc_ kinds weigh "
            f"the hermitian measure); the resolution hypothesis requires an even integrable weight"
        )
    weight.validate_for(modes, sym_class)
    if not isinstance(rotation, (PolarForm, type(None))):
        raise ContractError(f"rotation must be a PolarForm or None, got {type(rotation).__name__}")
    if rotation is not None and rotation.modes != modes:
        raise ContractError(f"the rotation acts on {rotation.modes} modes, but the run has modes = {modes}")

    # the coefficient matrix U^-1 diag(lam, -lam) U has the eigenvectors U^dag
    v_main = np.eye(2 * modes) if rotation is None else rotation.bogoliubov.conj().T
    if modes == 1:  # swapping the eigenvector columns maps lam to -lam
        v_alt = v_main[:, ::-1]
    else:
        v_alt = _second_rotation(modes)
    q_main, delta, rule_hi, moments_hi, fock_dev = _converged_mean(sym_class, weight, modes, quad_order, v_main)
    pts_hi, wts_hi = rule_hi
    if not (np.abs(np.tanh(pts_hi[wts_hi > 0.0] / 2.0)) > QUAD_TOL).any():  # each node within ((1+T)^M - 1) / 2^M < T of 2^-M I
        raise DomainError(
            f"no kept node has |tanh(lam_j / 2)| above {QUAD_TOL:g} at p = {weight.p}, so the bound could not fail"
        )
    q_alt = _moment_mean(moments_hi, v_alt)  # the same rule: its moments serve both rotations

    dim = 1 << modes
    target = FockOperator(modes, np.eye(dim) / dim, hermitian=True)
    dev = float(np.abs(q_main - target.matrix).max())
    rot_delta = float(np.abs(q_main - q_alt).max())
    odd_coeffs = [float(abs(2.0 * moments_hi[1 << j])) for j in range(modes)]  # |E tanh(lam_j / 2)| = |2 m_j|
    return EstimatorReport(
        target=target,
        mean=FockOperator(modes, q_main),
        samples=len(pts_hi),
        per_entry_se=None,
        seed=RngSpec(ROTATION_SEED, stream=1),
        bounds=[
            CriterionResult("max_abs_deviation", dev, QUAD_TOL),
            CriterionResult("rotation_delta", rot_delta, QUAD_TOL),
            CriterionResult("fock_check_deviation", fock_dev, FOCK_CHECK_TOL),
        ],
        details={
            "symmetry_class": sym_class.label,
            "weight": weight.kind,
            "p": weight.p,
            "convergence_delta": delta,
            "rotation_delta": rot_delta,
            "odd_mode_coefficients": odd_coeffs,
            "fock_check_deviation": fock_dev,
            "tolerance": QUAD_TOL,
        },
        point_chunks=(pts_hi,),
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
    doing real work; no pass rule attached. The displaced rule is a plain
    tensor rule, so it needs a density without kinks: a class with an odd
    alpha (a kink at lam_j = 0) or an odd beta (at |lam_1| = |lam_2|) raises
    ContractError, as does a rule with every node on a zero of the density
    (an order too low for it). Raises DomainError when the shifted rule
    leaves float64 or its nodes round together at a huge offset."""
    kinks = [at for at, odd in (("lam_j = 0", sym_class.alpha % 2), ("|lam_1| = |lam_2|", sym_class.beta % 2)) if odd]
    if kinks:
        raise ContractError(
            f"class {sym_class.label} puts a kink at {' and '.join(kinks)} in the radial density, which "
            f"the shifted tensor rule cannot integrate; use a class with even alpha and beta (D or C)"
        )
    lam, w = _weight_rule(WeightSpec.gaussian(p), quad_order, False)
    with np.errstate(all="ignore"):
        points, wts = _tensor(lam + offset, w, modes)
        wts = wts * np.exp(_log_jacobian(sym_class, False, points))
    if not (np.isfinite(points).all() and np.isfinite(wts).all()):
        raise DomainError(f"offset = {offset} puts the shifted rule outside float64; choose a finite, moderate offset")
    if not wts.any():
        # in exact arithmetic, an order >= 2 rule has x_1 = +-x_2 at every node
        # only at offset 0, so a true zero stays at an offset scaled to unit
        # size, while nodes lam + offset that round together part again
        unit, _ = _tensor(lam + offset / max(1.0, abs(offset)), w, modes)
        if np.isfinite(_log_jacobian(sym_class, False, unit)).any():
            raise DomainError(
                f"offset = {offset} exceeds the float resolution of the shifted rule: its nodes "
                f"lam + offset round together onto a zero of the radial density; choose a moderate offset"
            )
        raise ContractError(
            f"every node of the order-{quad_order} shifted rule sits on a zero of the radial density; "
            f"raise quad_order"
        )
    q = _moment_mean(filling_moments(points, wts), np.eye(2 * modes))
    dim = 1 << modes
    return float(np.abs(q - np.eye(dim) / dim).max())


def verify_resolution_mc(
    modes: int, p: float, n_samples: int, rng, workers: int = 1, keep_points: bool = False
) -> EstimatorReport:
    """Monte Carlo mean of normalized Gaussian operators over Gaussian-weight
    class-D draws; target is 2^-M times the identity, gated entrywise at 5 SE.
    With ``keep_points`` the report keeps the draws' pair values. Raises
    DomainError when the gate would judge no entry."""
    spec = _as_rngspec(rng)

    def worker(gen: np.random.Generator, per: int, first: bool) -> _Chunk:
        mats = sample_class_d_batch(modes, p, gen, per)
        form = real_form(mats)
        rows, pts = real_form_pair_rows(*form), (form[2][:, 1::2].copy() if keep_points else None)
        del form  # A V, V and s go before the Wick kernel; s[:, 1::2] are the pair values
        fock_dev = _fock_check(mats[:FOCK_CHECK_DRAWS], wick_coordinates(rows[:, :FOCK_CHECK_DRAWS])) if first else None
        return _Chunk(wick_coordinates(rows), per, fock_dev, pts)

    chunks = _run_chunks(worker, n_samples, spec, modes, workers)
    return _mc_report(modes, chunks, spec, {"p": p, "chunks": len(chunks), "workers": workers})


# ---------------------------------------------------------------------------
# Canonical-mixture triviality
# ---------------------------------------------------------------------------


def verify_canonical_triviality(
    modes: int, p: float, betas, n_samples: int, rng, workers: int = 1, keep_points: bool = False
) -> list[EstimatorReport]:
    """Normalized means of exp(-beta H_op) over Gaussian-weight class-D draws.

    For every beta the normalized mixture equals 2^-M times the identity; the
    beta = 0 case is exact by construction. exp(-beta H_op) is its trace
    prod_j 2 cosh(beta lambda_j / 2) times L(-beta H), so each chunk is the
    Wick mean of L(-beta H) with those traces as log weights, and the chunks,
    all of one size, weigh the log sum of their traces. Each report carries
    the pairwise agreement with the other nonzero betas in its details (0 at
    beta = 0, whose exact mean is compared with none), and fails beyond 5
    combined SE, and the Kish effective sample size of the traces. With
    ``keep_points`` every report keeps the draws' pair values, the same
    arrays. Raises DomainError when beta times an energy of the draws
    overflows a float, or when the gate would judge no entry at some beta != 0.
    """
    spec = _as_rngspec(rng)
    if isinstance(betas, str) or not np.iterable(betas):
        raise ContractError(f"betas must be a sequence of reals, got {type(betas).__name__}")
    betas = [float(b) for b in betas]
    if not betas:
        raise ContractError("need at least one beta")
    for beta in betas:
        _above(beta, -math.inf, "beta")

    def worker(gen: np.random.Generator, per: int, first: bool) -> list[_Chunk]:
        mats = sample_class_d_batch(modes, p, gen, per)
        form = real_form(mats)  # one eigh for every beta
        lam = form[2][:, 1::2]  # the pair eigenvalues of H
        pts = lam.copy() if keep_points else None
        out = []  # one record per beta
        for beta in betas:
            if not abs(beta) * float(lam.max()) < math.inf:
                raise DomainError(f"beta = {beta} times an energy of the draws at p = {p} overflows a float")
            log_tr = log_trace_of_pairs(beta * lam)  # log Tr exp(-beta H_op) per draw
            rows = real_form_pair_rows(*form, -beta)  # the pair rows of L(-beta H)
            k, fock_dev = FOCK_CHECK_DRAWS, None
            if first:
                fock_dev = _fock_check(-beta * mats[:k], wick_coordinates(rows[:, :k], log_tr[:k]), log_tr[:k])
            coords = wick_coordinates(rows, log_tr)
            out.append(_Chunk(coords, per, fock_dev, pts, _log_sum_exp(log_tr), _log_sum_exp(2.0 * log_tr)))
        return out

    per_beta = zip(betas, zip(*_run_chunks(worker, n_samples, spec, modes, workers)))
    reports = [_mc_report(modes, list(chunks), spec, {"beta": b, "p": p}, b == 0.0) for b, chunks in per_beta]
    for beta, rep in zip(betas, reports):
        sigmas = [  # the exact beta = 0 mean takes part in no comparison, on either side
            _max_sigma(np.abs(rep.mean.matrix - other.mean.matrix), np.sqrt(rep.per_entry_se**2 + other.per_entry_se**2))
            for other_beta, other in zip(betas, reports)
            if other is not rep and 0.0 not in (beta, other_beta)
        ]
        worst = float(np.max(sigmas, initial=0.0))  # a NaN stays NaN, and fails
        rep.details["pairwise_max_sigma"] = worst
        rep.bounds.append(CriterionResult("pairwise_max_sigma", worst, 5.0))
    return reports


# ---------------------------------------------------------------------------
# Number-conserving dichotomy
# ---------------------------------------------------------------------------


def _ncons_eigenvectors(unitaries: np.ndarray) -> np.ndarray:
    """blockdiag(U, conj U), for one U or a stack: the eigenvectors of the
    embedding (h, 0) of h = U diag(lam) U^dag, whose eigenvalues are
    [lam, -lam]."""
    m = unitaries.shape[-1]
    v = np.zeros(unitaries.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    v[..., :m, :m] = unitaries
    v[..., m:, m:] = unitaries.conj()
    return v


def _closest_identity_multiple(mat: np.ndarray) -> tuple[float, float]:
    """(c, residual) minimizing the max-entry norm of mat - c I for hermitian mat."""
    diag = np.real(np.diagonal(mat))
    c = 0.5 * (diag.max() + diag.min())
    off = np.abs(mat - np.diag(np.diagonal(mat))).max()
    return float(c), float(max(off, 0.5 * (diag.max() - diag.min())))


def _nc_even_mean(modes: int, p: float, quad_order: int) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Quadrature mean of rotated number-conserving operators under the
    hermitian-matrix measure with the even weight exp(-p sum lam^2), the
    fixed Haar rotation, the mean's Fock gap and the nodes of the
    `2 * quad_order` rule it was taken over. With one mode the mean is
    proportional to the identity; with two the eigenvalue-repulsion factor is
    not even in each eigenvalue separately and a nonzero residual survives."""
    u = _nc_rotation(modes)
    q, _, rule, _, fock_dev = _converged_mean(CLASS_D, WeightSpec.nc_even(p), modes, quad_order, _ncons_eigenvectors(u))
    return q, u, fock_dev, rule[0]


def nc_failure_residual(p: float) -> float:
    """Two-mode residual of the even-weight number-conserving mean from the
    nearest identity multiple, from scalar integrals outside the operator code.

    At two modes the mean is 1/4 I + (c/4)(2 N_1 - I)(2 N_2 - I) with
    c = E[t_1 t_2] and t = tanh(lam/2): the repulsion factor (lam_1 - lam_2)^2
    cancels the single-t terms under the joint sign flip, but its cross term
    -2 lam_1 lam_2 couples to t_1 t_2. With I1 = int lam tanh(lam/2) exp(-p lam^2),
    I0 = sqrt(pi/p) and I2 = sqrt(pi)/(2 p^1.5), c = -2 I1^2 / (2 I2 I0), so the
    residual |c|/4 is p^2 I1^2 / (2 pi): one 120-node Gauss-Hermite sum.
    """
    WeightSpec.nc_even(p)  # rejects p <= 0 with the caller's value
    x, w = _hermgauss(120)
    return float(np.dot(w, x * np.tanh(x / (2.0 * math.sqrt(p)))) ** 2 / (2.0 * math.pi))


def verify_nc_failure(modes: int = 2, p: float = 1.0, quad_order: int = 60) -> EstimatorReport:
    """Quadrature of the number-conserving family against the even weight: the
    residual distance from all identity multiples must *exceed* the oracle
    floor, FAILURE_FLOOR_FRACTION of nc_failure_residual(p), and must live
    entirely in the rotated number-operator sector; the last FOCK_CHECK_DRAWS
    kept nodes of its quad_order rule are held to the Fock construction as
    in verify_resolution_quadrature. Raises DomainError when the floor is not
    above FAILURE_ROUNDING_LEVEL."""
    if modes != 2:
        raise ContractError("the even-weight failure demonstration is pinned at two modes")
    oracle = nc_failure_residual(p)
    floor = FAILURE_FLOOR_FRACTION * oracle
    if not floor > FAILURE_ROUNDING_LEVEL:
        raise DomainError(
            f"the failure floor {floor:.3g} at p = {p} is not above the rounding level {FAILURE_ROUNDING_LEVEL:.3g}"
        )
    q, u, fock_dev, pts = _nc_even_mean(modes, p, quad_order)
    c, residual = _closest_identity_multiple(q)

    # residual decomposition over {I, N_1, N_2, N_1 N_2} built from b = U^dag a
    b = np.einsum("kj,kab->jab", u.conj(), _annihilators(modes))
    nops = [bj.conj().T @ bj for bj in b]
    basis = [np.eye(1 << modes, dtype=complex), nops[0], nops[1], nops[0] @ nops[1]]
    stack = np.stack([m.ravel() for m in basis]).T
    coeffs, *_ = np.linalg.lstsq(stack, q.ravel(), rcond=None)
    sector_residual = float(np.abs(q.ravel() - stack @ coeffs).max())

    dim = 1 << modes
    return EstimatorReport(
        target=FockOperator(modes, c * np.eye(dim), hermitian=True),
        mean=FockOperator(modes, q),
        per_entry_se=None,
        samples=len(pts),
        seed=RngSpec(ROTATION_SEED, stream=2),
        bounds=[
            CriterionResult("failure_floor - residual", floor - residual, 0.0),  # residual >= floor
            CriterionResult("sector_residual", sector_residual, 1e-9),
            CriterionResult("fock_check_deviation", fock_dev, FOCK_CHECK_TOL),
        ],
        details={
            "p": p,
            "closest_multiple": c,
            "residual": residual,
            "failure_floor": floor,
            "oracle_residual": oracle,
            "sector_residual": sector_residual,
            "fock_check_deviation": fock_dev,
        },
        point_chunks=(pts,),
    )


def verify_nc_modified(
    modes: int, p: float, n_samples: int, rng, workers: int = 1, keep_points: bool = False
) -> EstimatorReport:
    """Monte Carlo mean of number-conserving operators with eigenvalues drawn
    from the parity-restoring modified weight and independent Haar rotations;
    target is 2^-M times the identity.

    The modified weight times the hermitian Jacobian is the class-D radial
    density at stiffness p/2,
    Delta(lam)^2 * prod_{i<j} (lam_i + lam_j)^2 exp(-p sum lam^2)
    = Delta(lam^2)^2 exp(-p sum lam^2),
    even in every eigenvalue. Each chunk therefore samples it exactly: the
    pair representatives of class-D draws at p/2 (class_d_pair_values, at
    M = 2 from the draws' normals with no matrix), with independent random
    signs. The Haar rotations come by QR of one draw of normals per chunk,
    except for the Wick pair rows at M = 2: they need only each unitary's
    first column, the normals' column 0 over its norm, and come in real
    arithmetic with no covariance. Chunk 0's Fock check builds its unitaries
    by QR of the same normals at every M, so it does not share the rows'
    column extraction.
    With ``keep_points`` the report keeps the signed pair values. Raises
    DomainError when the gate would judge no entry.
    """
    spec = _as_rngspec(rng)
    WeightSpec.nc_modified(p)  # rejects p <= 0 with the caller's value

    def worker(gen: np.random.Generator, per: int, first: bool) -> _Chunk:
        pts = class_d_pair_values(modes, 0.5 * p, gen, per)
        pts = pts * gen.choice((-1.0, 1.0), size=(per, modes))
        real, imag = _normal_parts(gen, per, modes)
        if modes == 2:  # each unitary's first column z / |z|, z the normals' column 0: no QR
            rows = _rank_one_pair_rows(pts, real[:, :, 0].T, imag[:, :, 0].T)
        else:
            rows = number_conserving_pair_rows(pts, _haar_unitaries(real, imag))
        k = FOCK_CHECK_DRAWS
        # h = U diag(pts) U^dag is known, no eigh; at every M its U by QR of the full normals
        h = from_eigenpairs(pts[:k], _haar_unitaries(real[:k], imag[:k])) if first else None
        fock_dev = _fock_check(assemble_blocks(h, np.zeros_like(h)), wick_coordinates(rows[:, :k])) if first else None
        return _Chunk(wick_coordinates(rows), per, fock_dev, pts if keep_points else None)

    chunks = _run_chunks(worker, n_samples, spec, modes, workers)
    return _mc_report(modes, chunks, spec, {"p": p, "chunks": len(chunks)})


# ---------------------------------------------------------------------------
# Operator-identity suite (shared by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------


def _hermitian_matrices(gen: np.random.Generator, m: int, count: int) -> np.ndarray:
    """``count`` random m x m hermitian matrices, (count, m, m), from one draw of normals."""
    z = gen.normal(size=(count, m, m)) + 1j * gen.normal(size=(count, m, m))
    return (z + np.swapaxes(z.conj(), -1, -2)) / 2.0


def _fock_matrices(mats: np.ndarray) -> np.ndarray:
    """Full Fock matrices of a stack of coefficient matrices: quadratic_hamiltonian
    on each, without its per-matrix checks."""
    return embed_parity_blocks(quadratic_hamiltonian_batch(mats))


def _max_gaps(a: np.ndarray, b) -> np.ndarray:
    """Max-entry gap between each matrix of ``a`` and ``b``, one per draw."""
    return np.abs(a - b).max(axis=(-2, -1))


def _mode_algebra(gen: np.random.Generator, m: int, count: int) -> list[tuple]:
    """The sign-string mode matrices of build_mode_operators, their anticommutators
    against delta_ij I and 0, every pair (i, j) in one (m, m, d, d) product, and
    their vacuum column against 0; no draws. The entries are 0 and +-1, so
    every gap is exact."""
    a = np.stack([op.matrix for op in build_mode_operators(m)])
    ai, aj, aj_dag = a[:, None], a[None, :], np.swapaxes(a.conj(), -1, -2)[None, :]
    delta = np.eye(m)[:, :, None, None] * np.eye(1 << m)
    return [
        ("anticommutators {a_i, a_j^dag} = delta_ij", 1e-13, np.array([np.abs(ai @ aj_dag + aj_dag @ ai - delta).max()])),
        ("anticommutators {a_i, a_j} = 0", 1e-13, np.array([np.abs(ai @ aj + aj @ ai).max()])),
        ("vacuum annihilated by every mode", 0.0, np.array([np.abs(a[:, :, 0]).max()])),
    ]


def _normal_ordering(gen: np.random.Generator, m: int, count: int) -> list[tuple]:
    """Per hermitian draw h: the exponential, by eigh (op_exp's kernel), of the
    Fock matrix of the embedding (h, 0), which is a^dag h a - (1/2) tr h, its
    shift undone, against the sum over minors of :exp(a^dag B a): with
    B = _expm(h) - I (normal_ordered_exp's kernel)."""
    h = _hermitian_matrices(gen, m, count)
    direct = _exp_hermitian(_fock_matrices(assemble_blocks(h, np.zeros_like(h))))
    direct = np.exp(0.5 * np.trace(h, axis1=-2, axis2=-1).real)[:, None, None] * direct
    ordered = _normal_ordered_stack(_expm(h) - np.eye(m))
    return [("normal-ordered exponential identity", 1e-9, _max_gaps(direct, ordered))]


def _trace_formula(gen: np.random.Generator, m: int, count: int) -> list[tuple]:
    """Per class-D draw H, relative to the closed form prod 2cosh(lam/2) over
    its pair values (paired_eigenvalues' kernel): the Fock trace of the
    exponential of its Fock matrix, by eigh (op_exp's kernel), and
    sqrt|det 2cosh(H/2)| of the doubled matrix, rebuilt from its own eigh."""
    mats = sample_class_d_batch(m, 1.0, gen, count)
    closed = np.prod(2.0 * np.cosh(_paired_eigh(mats)[0] / 2.0), axis=-1)
    exact = np.trace(_exp_hermitian(_fock_matrices(mats)), axis1=-2, axis2=-1).real
    w, v = np.linalg.eigh(mats)
    root_det = np.sqrt(np.abs(np.linalg.det(from_eigenpairs(2.0 * np.cosh(w / 2.0), v))))
    gaps = np.maximum(np.abs(exact - closed) / closed, np.abs(root_det - closed) / closed)
    return [("trace = product of 2cosh(lam/2) = sqrt(det 2cosh(H/2))", 1e-9, gaps)]


def _normalization(gen: np.random.Generator, m: int, count: int) -> list[tuple]:
    """Per class-D draw, its normalized operator as gaussian_normalized builds
    it (exp_normalized_fock_batch of its Fock matrix): minus its smallest
    eigenvalue (eigvalsh), against 0, and its trace, against 1."""
    lam = exp_normalized_fock_batch(_fock_matrices(sample_class_d_batch(m, 1.0, gen, count)))
    return [  # positivity is judged on minus the smallest eigenvalue
        ("normalized operators positive definite", 1e-12, -np.linalg.eigvalsh(lam).min(axis=-1)),
        ("normalized operators have unit trace", 1e-12, np.abs(np.trace(lam, axis1=-2, axis2=-1).real - 1.0)),
    ]


def _composition(gen: np.random.Generator, m: int, count: int) -> list[tuple]:
    """Per pair of draws scaled to combined spectral norm 1.2, class-D (H1, H2)
    and hermitian (h1, h2) in turn: _expm of the Fock matrix of the composed
    X = log(e^H1 e^H2), by gaussian._principal_log on the stack as
    compose_general and compose_number_conserving take one pair, against the
    product of the exponentials of the two factors' hermitian Fock matrices,
    by eigh (op_exp's kernel). Each composed general X must keep the
    particle-hole structure that quadratic_hamiltonian checks;
    assemble_blocks writes it into the number-conserving (h, 0)."""

    def product_of_factors(first, second):
        return _exp_hermitian(_fock_matrices(first)) @ _exp_hermitian(_fock_matrices(second))

    def scaled(mats):
        norms = np.abs(np.linalg.eigvalsh(mats)).max(axis=-1)
        scale = 1.2 / (norms[:count] + norms[count:])
        return scale[:, None, None] * mats[:count], scale[:, None, None] * mats[count:]

    b1, b2 = scaled(sample_class_d_batch(m, 1.0, gen, 2 * count))
    x = _principal_log(b1, b2, "compose_general")
    _require_particle_hole(x)
    general = _max_gaps(_expm(_fock_matrices(x)), product_of_factors(b1, b2))
    h1, h2 = scaled(_hermitian_matrices(gen, m, 2 * count))
    hc, h1, h2 = (assemble_blocks(h, np.zeros_like(h)) for h in (_principal_log(h1, h2, "compose_number_conserving"), h1, h2))
    conserving = _max_gaps(_expm(_fock_matrices(hc)), product_of_factors(h1, h2))
    return [
        ("general composition law at operator level", 1e-9, general),
        ("number-conserving composition law at operator level", 1e-9, conserving),
    ]


def _nc_embedding(gen: np.random.Generator, m: int, count: int) -> list[tuple]:
    """Per hermitian draw h: its normalized operator as gaussian_number_conserving
    builds it (exp_normalized_fock_batch of the Fock matrix of (h, 0)), against
    exp(a^dag h a) = exp(sum h_kl a_k^dag a_l), one contraction over the mode
    operators, exponentiated by eigh (op_exp's kernel) and divided by its trace."""
    h = _hermitian_matrices(gen, m, count)
    direct = _exp_hermitian(_string_sum(_annihilators(m), h))
    direct = direct / np.trace(direct, axis1=-2, axis2=-1).real[:, None, None]
    embedded = exp_normalized_fock_batch(_fock_matrices(assemble_blocks(h, np.zeros_like(h))))
    return [("number-conserving embedding (delta = 0)", 1e-12, _max_gaps(embedded, direct))]


def _diagonal_form(gen: np.random.Generator, m: int, count: int) -> list[tuple]:
    """Per polar form (lam, U) of a class-D draw: the normalized operator of
    U^dag diag(lam, -lam) U, as gaussian_normalized builds it, against the
    product of per-mode factors (1 - tanh(lam_j/2))/2 + tanh(lam_j/2) n_j in
    the number operators n_j of the Bogoliubov-rotated modes; and its
    off-diagonal part in their common eigenbasis (eigh of sum 3^j n_j)."""
    lam, u = _polar_rotations(m, gen, count)
    coeff = from_eigenpairs(np.concatenate([lam, -lam], axis=-1), np.swapaxes(u.conj(), -1, -2))
    lam_op = exp_normalized_fock_batch(_fock_matrices(assemble_blocks(coeff[:, :m, :m], coeff[:, :m, m:])))
    ann = _annihilators(m)
    dim, tanh = 1 << m, np.tanh(lam / 2.0)[..., None, None]
    modes = np.concatenate([ann, np.swapaxes(ann, -1, -2)]).reshape(2 * m, -1)
    bops = (u[:, :m] @ modes).reshape(count, m, dim, dim)
    nums = np.swapaxes(bops.conj(), -1, -2) @ bops
    prod, combo = np.eye(dim, dtype=complex), np.zeros((count, dim, dim), dtype=complex)
    for j in range(m):
        prod = prod @ (0.5 * (1.0 - tanh[:, j]) * np.eye(dim) + tanh[:, j] * nums[:, j])
        combo += 3.0**j * nums[:, j]
    vv = np.linalg.eigh(combo)[1]
    rotated = np.swapaxes(vv.conj(), -1, -2) @ lam_op @ vv
    return [
        ("normalized operator is the per-mode product in the rotated basis", 1e-9, _max_gaps(lam_op, prod)),
        ("rotated normalized operator is diagonal", 1e-9, _max_gaps(rotated * (1.0 - np.eye(dim)), 0.0)),
    ]


def _greens_rebuild(gen: np.random.Generator, m: int, count: int) -> list[tuple]:
    """Per hermitian draw h, on the stack: det(n_tilde) times the sum over
    minors of :exp(a^dag B a): (normal_ordered_exp's kernel), B = (n_tilde^-1
    - 2I)^T, with greens_parameterization's n_tilde = (I + exp(h^T))^-1,
    against the normalized operator as gaussian_number_conserving builds it
    (exp_normalized_fock_batch of the Fock matrix of (h, 0))."""
    h = _hermitian_matrices(gen, m, count)
    n_tilde = _hole_filling(h)
    coeff = np.swapaxes(np.linalg.inv(n_tilde) - 2.0 * np.eye(m), -1, -2)
    rebuilt = np.linalg.det(n_tilde).real[:, None, None] * _normal_ordered_stack(coeff)
    direct = exp_normalized_fock_batch(_fock_matrices(assemble_blocks(h, np.zeros_like(h))))
    return [("particle/hole parameterization rebuilds the operator", 1e-9, _max_gaps(rebuilt, direct))]


def _spectral_exp(gen: np.random.Generator, m: int, count: int) -> list[tuple]:
    """Per hermitian Fock matrix A: exp(A) exp(-A), each by eigh (op_exp's
    kernel), against I, and the eigenvalues of exp(A) (eigvalsh) against exp
    of those of A."""
    hmat = _hermitian_matrices(gen, 1 << m, count)
    e_plus = _exp_hermitian(hmat)
    inverse = _max_gaps(e_plus @ _exp_hermitian(hmat, -1.0), np.eye(1 << m))
    spectrum = np.abs(np.linalg.eigvalsh(e_plus) - np.exp(np.linalg.eigvalsh(hmat))).max(axis=-1)
    return [("spectral exponential inverse pair and eigenvalue map", 1e-10, np.maximum(inverse, spectrum))]


def _cycle(runs: int, max_modes: int, cap: int = 3) -> dict[int, int]:
    """Draws per mode count of ``runs`` runs that cycle through the mode counts
    1, 2, .., min(max_modes, cap), 1, 2, ..: ascending, each with at least one."""
    top = min(max_modes, cap)
    return {m: len(range(m - 1, runs, top)) for m in range(1, min(top, runs) + 1)}


#: The one list of identity criteria, in draw order. Each row is a trial,
#: ``trial(gen, m, count)``, which draws a stack of ``count`` draws on m modes
#: and returns its criteria as (name, tolerance, per-draw gaps), and its
#: schedule: the draws per mode count, in run order, no mode count above max_modes.
_IDENTITY_TRIALS = (
    (_mode_algebra, lambda trials, max_modes: _cycle(min(max_modes, 4), max_modes, cap=4)),
    (_normal_ordering, lambda trials, max_modes: _cycle(trials, max_modes)),
    (_trace_formula, lambda trials, max_modes: _cycle(2 * trials, max_modes)),
    (_normalization, lambda trials, max_modes: _cycle(2 * trials, max_modes)),
    (_composition, lambda trials, max_modes: {min(2, max_modes): trials}),
    (_nc_embedding, lambda trials, max_modes: _cycle(max(1, trials // 2), max_modes)),
    (_diagonal_form, lambda trials, max_modes: _cycle(max(1, trials // 2), max_modes)),
    (_greens_rebuild, lambda trials, max_modes: {min(2, max_modes): 10}),
    (_spectral_exp, lambda trials, max_modes: {min(2, max_modes): 10}),
)


def operator_identity_suite(max_modes: int = 3, seed: RngSpec | int = 42, trials: int = 50) -> list[CriterionResult]:
    """Run the operator-level identity checks and return one result per
    criterion of ``_IDENTITY_TRIALS``, the one list of them, in its order:
    each criterion's largest gap over its row's runs, against its tolerance.
    ``seed`` is an RngSpec, or an integer seed on stream 0. All rows draw
    from one generator in turn, so a row inserted before the end moves the
    draws, and so the measured values, of every row after it."""
    _count(max_modes, "max_modes", CapacityError)
    _count(trials, "trials", ContractError)
    gen = _as_rngspec(seed).generator()
    out = []
    for trial, schedule in _IDENTITY_TRIALS:
        runs = [trial(gen, m, count) for m, count in schedule(trials, max_modes).items()]
        for criterion in zip(*runs):  # one criterion's (name, tolerance, gaps) from every mode count
            name, tolerance, _ = criterion[0]
            out.append(CriterionResult(name, float(np.max(np.concatenate([gaps for _, _, gaps in criterion]))), tolerance))
    return out


#: Stiffnesses at which selberg_consistency_suite checks angular + radial = Cartesian.
CONSISTENCY_PS = (0.5, 1.0, 3.0)


def selberg_consistency_suite(max_modes: int = 6) -> list[CriterionResult]:
    """Closed-form consistency checks: angular + radial = Cartesian in log
    space, p-independence of the angular volume, and unit normalization of the
    two weight constants, the first two at M = 1..max_modes and the last two at
    most at M <= 4 and M <= 3."""
    _count(max_modes, "max_modes", ContractError)
    # each distinct (closed form, arguments) is computed once; every use still
    # looks the form up at its selberg name, where benchmark/tracing.py wraps it
    once = lru_cache(maxsize=None)(lambda closed_form, *args: closed_form(*args))
    sums = [
        abs(
            once(selberg.angular_volume_log, m)
            + once(selberg.radial_gaussian_integral_log, m, p)
            - once(selberg.cartesian_gaussian_integral_log, m, p)
        )
        for m in range(1, max_modes + 1)
        for p in CONSISTENCY_PS
    ]

    def ratio(m, p):  # Cartesian over radial: the angular volume, at any p
        return once(selberg.cartesian_gaussian_integral_log, m, p) - once(selberg.radial_gaussian_integral_log, m, p)

    ratios = [abs(ratio(m, 1.0) - ratio(m, 3.0)) for m in range(1, max_modes + 1)]
    gauss = [
        abs(
            -m * math.log(2.0)
            + once(selberg.angular_volume_log, m)
            + once(selberg.norm_const_gauss_log, m, p)
            + once(selberg.radial_gaussian_integral_log, m, p)
        )
        for m in range(1, min(max_modes, 4) + 1)
        for p in (0.5, 1.0, 2.0)
    ]
    det = [
        abs(
            -m * math.log(2.0)
            + once(selberg.angular_volume_log, m)
            + once(selberg.norm_const_det_log, m, p)
            + once(selberg.selberg_integral_log, 0.5, 2 * p - 2 * m + 1.5, 1.0, m)
        )
        for m in range(1, min(max_modes, 3) + 1)
        for p in (m + 0.5, m + 1.0)
    ]
    return [
        CriterionResult(
            f"angular + radial = Cartesian in log space (M <= {max_modes}, p in {CONSISTENCY_PS})",
            float(np.max(sums)),
            1e-10,
        ),
        CriterionResult("angular volume is independent of p", float(np.max(ratios)), 1e-10),
        CriterionResult("angular volume is 1 for a single mode", abs(once(selberg.angular_volume_log, 1)), 1e-12),
        CriterionResult("Gaussian weight constant normalizes to one", float(np.max(gauss)), 1e-10),
        CriterionResult("determinant weight constant normalizes to one", float(np.max(det)), 1e-8),
    ]
