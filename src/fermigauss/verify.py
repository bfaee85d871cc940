"""Executable verification drivers: resolution-of-unity checks by quadrature
and Monte Carlo, canonical-mixture triviality, and the number-conserving
failure/success dichotomy, plus the operator-identity and closed-form
consistency suites shared by the test suite and the CLI.
"""

import math
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import selberg
from .ensembles import (  # noqa: F401  sample_class_d and sample_radial_mcmc stay importable here: benchmark/tracing.py wraps them
    RadialLaw,
    RngSpec,
    SymmetryClass,
    WeightSpec,
    _haar_unitaries,
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
    _pair_values,
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

#: (law, order) rules with their moments, fixed rotations per mode count and
#: even-weight targets per (M, p) that one process keeps, least recently used
#: out first: at the default order 60 at most about 28 MB of rules (odd-beta
#: sector rules), 1.3 MB for the three laws of the benchmark's checks workload.
LAW_CACHE_SIZE = 16

#: Nodes of the Gauss-Hermite rule over which _andreief_means takes
#: shifted_weight_quadrature_deviation; nc_even_target takes twice as many.
ORACLE_ORDER = 120

QUAD_TOL = 1e-8
QUAD_CONVERGENCE_TOL = 1e-9

#: The even-weight mean must lie at least this fraction of its exact target's
#: distance from 2^-M I.
FAILURE_FLOOR_FRACTION = 0.95

#: Smallest failure floor verify_nc_failure judges: float64's eps. At M = 2 it
#: admits p up to about 1.3e14, where the mean's and the target's 1/4 entries
#: still round alike, so their gaps from 2^-M I are one double.
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
    entries in the 3-5 SE band, and the measurements they read. ``max_sigma``
    is the largest deviation in standard errors over the entries the gate
    judges, those not at or below ABS_FLOOR; 0 when there are none. So
    ``<= 5`` holds when every entry is within 5 SE or at or below the floor:
    a NaN deviation or SE stays NaN, and a judged entry with zero SE reads huge."""
    dev = np.abs(mean - target)
    ok = (dev <= 5.0 * se) | (dev <= ABS_FLOOR)
    band = ok & (dev > 3.0 * se) & (dev > ABS_FLOOR)
    judged = ~(dev <= ABS_FLOOR)
    info = {
        "max_sigma": float((dev[judged] / np.maximum(se[judged], 1e-300)).max(initial=0.0)),
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


def _mc_report(modes: int, chunks: list[_Chunk], details: dict, _exact: bool = False, target=None, floor=None) -> EstimatorReport:
    """The one Monte Carlo verdict path, which alone sets a report's bounds
    and details, and the one place that combines chunk records, in chunk
    order: one scatter of their Wick coordinates to parity blocks, their
    chunked estimate (weighing chunks by their sums of traces w if they have
    them, with the Kish size (sum w)^2 / sum w^2 in ``details``), and the
    gate of the mean against ``target`` (a full matrix, or 2^-M I), of its
    distance from 2^-M I against ``floor`` if given, and of chunk 0's Fock gap
    against FOCK_CHECK_TOL; ``details``, which carry p, follow the gate's entries. With ``_exact``
    (canonical beta = 0) the mean must also be 2^-M I to 1e-14; otherwise a gate that judges no entry raises DomainError."""
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
    target = FockOperator(modes, np.eye(dim) / dim if target is None else target, hermitian=True)
    bounds, info = _entry_gate(mean, target.matrix, se)
    failure, gap = _failure_bounds(mean, floor)
    bounds += [*failure, CriterionResult("fock_check_deviation", fock_dev, FOCK_CHECK_TOL)]
    if _exact:
        bounds.append(CriterionResult("beta_zero_exact_deviation", details["beta_zero_exact_deviation"], 1e-14))
    return EstimatorReport(
        target=target,
        mean=FockOperator(modes, mean),
        per_entry_se=se,
        samples=samples,
        bounds=bounds,
        details={**info, **gap, **details, "fock_check_deviation": fock_dev},
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


def _weight_rule(weight: WeightSpec, order: int, half: bool) -> tuple[np.ndarray, np.ndarray]:
    """One-mode nodes and weights absorbing the weight factor, on the full
    line or, with ``half``, on (0, inf). The determinant weight maps Gauss-
    Legendre nodes through lam = tan(theta); the Gaussian weights exp(-c lam^2)
    use Gauss-Hermite on the line and Gauss-Legendre up to e^-50 on the half
    line. nc_modified's pair factor has no one-mode rule."""
    if weight.kind == "nc_modified":
        raise ContractError(f"no per-mode quadrature rule for weight kind {weight.kind!r}")
    if weight.kind == "determinant":
        x, w = _leggauss(order)
        jac = 0.25 * math.pi if half else 0.5 * math.pi
        lam = np.tan(jac * (x + 1.0) if half else jac * x)
        return lam, jac * w * (1.0 + lam**2) ** (1.0 - 2.0 * weight.p)
    c = 2.0 * weight.p if weight.kind == "gaussian" else weight.p
    if half:
        x, w = _leggauss(order)
        jac = 0.5 * math.sqrt(50.0 / c)
        lam = jac * (x + 1.0)
        return lam, jac * w * np.exp(-c * lam**2)
    x, w = _hermgauss(order)
    scale = math.sqrt(c)
    return x / scale, w / scale


def _andreief_means(lam: np.ndarray, w: np.ndarray, u: np.ndarray, modes: int) -> np.ndarray:
    """E[e_k(t)], k = 0..modes, with t = -tanh(lam/2)/2 and e_k the k-th
    elementary symmetric polynomial, under the beta = 2 law
    Delta(u)^2 prod_j w(lam_j) of ``modes`` eigenvalues over the one-mode rule
    (lam, w), u(lam) being the variable whose Vandermonde the law squares. By
    the Andreief identity E[prod_j (1 + z t_j)] = det(G + z G_t) / det(G), with
    G = phi diag(w) phi^T over the Hermite basis phi_i(u), i < modes, and G_t
    the same with w t; so the E[e_k] are the e_k of the eigenvalues of
    G^-1 G_t. They come through the Cholesky factor R of G, from the QR
    diag(sqrt w) phi^T = Q R, as those of Q^T diag(t) Q: G, whose condition
    number forming it would square, is never formed."""
    q = np.linalg.qr(np.polynomial.hermite.hermvander(u, modes - 1) * np.sqrt(w)[:, None])[0]
    mu = np.linalg.eigvalsh((q.T * (-0.5 * np.tanh(0.5 * lam))) @ q)
    return np.poly(mu) * (-1.0) ** np.arange(modes + 1)


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


def radial_quadrature_nodes(law: RadialLaw, modes: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The radial quadrature rule of every verifier: points (N, modes) and
    weights integrating f against the density of ``law`` over R^modes, for
    one or two modes.

    An even power of every kink is a plain tensor rule. An odd alpha puts a
    kink at lam_j = 0, so the positive orthant is integrated and reflected;
    an odd beta puts one at |lam_1| = |lam_2|, so the ordered sector of the
    positive quadrant is integrated, both orderings are added, and the result
    is reflected. Raises DomainError when the stiffness leaves the rule
    outside float64, and ContractError when every node sits on a zero of the
    density (an order too low for it).
    """
    weight, jac = law.weight, law.jacobian
    odd_alpha, odd_beta = (False, False) if jac is None else (jac.alpha % 2, jac.beta % 2)
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
        wts = wts * np.exp(law.log_jacobian(points))
        total = wts.sum()
    finite = np.isfinite(points).all() and np.isfinite(wts).all()
    if finite and total == 0.0:
        # scaling the nodes moves the density's underflow, not its zeros
        unit = points / (np.abs(points).max() or 1.0)
        if not np.isfinite(law.log_jacobian(unit)).any():
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


@dataclass(frozen=True)
class _LawTable:
    """One (law, order) rule of radial_quadrature_nodes and its
    filling_moments, read-only, and two more functions of the rule alone,
    each computed on its first use and kept from then on."""

    points: np.ndarray
    weights: np.ndarray
    moments: np.ndarray

    @cached_property
    def fock_nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The last FOCK_CHECK_DRAWS kept nodes (those of nonzero weight: the
        others sit on a zero of the radial density), read-only: the
        eigenvalues [lam, -lam] of their coefficient matrices, their own
        filling_moments and their log weights."""
        keep = self.weights > 0.0
        pts, w = self.points[keep][-FOCK_CHECK_DRAWS:], self.weights[keep][-FOCK_CHECK_DRAWS:]
        nodes = np.concatenate([pts, -pts], axis=1), filling_moments(pts, w), np.log(w)
        for arr in nodes:
            arr.setflags(write=False)
        return nodes

    @cached_property
    def resolvable(self) -> bool:
        """Whether some kept node has |tanh(lam_j / 2)| above QUAD_TOL: each
        node's operator is within ((1+T)^M - 1) / 2^M < T of 2^-M I."""
        return bool((np.abs(np.tanh(self.points[self.weights > 0.0] / 2.0)) > QUAD_TOL).any())


@lru_cache(maxsize=LAW_CACHE_SIZE, typed=True)  # typed: True is no quad_order, but hashes as 1
def _law_tables(law: RadialLaw, modes: int, order: int) -> _LawTable:
    """The _LawTable of one rule, built once per process. A rule that raises
    is not kept."""
    pts, wts = radial_quadrature_nodes(law, modes, order)
    tables = pts, wts, filling_moments(pts, wts)
    for arr in tables:
        arr.setflags(write=False)
    return _LawTable(*tables)


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


def _converged_mean(law: RadialLaw, modes: int, order: int, v: np.ndarray):
    """Wick mean of the operators with eigenvectors ``v`` over the `order` and
    `2 * order` rules, which must agree. The `order` rule's last
    FOCK_CHECK_DRAWS kept nodes, its outermost in the all-positive orthant,
    go through _fock_check with the moment map of their own moments: there
    every tanh(lam_j / 2) is near 1, so every Wick coordinate of their mean
    is of order one (those of the whole rule's mean vanish by the resolution
    of unity). Both rules, their moments and those nodes come from
    _law_tables; everything that reads ``v`` runs on every call. Returns the
    `2 * order` mean, the change, the `2 * order` rule's _LawTable and the
    Fock gap."""
    lo = _law_tables(law, modes, order)
    q_lo = _moment_mean(lo.moments, v)
    eigenvalues, moments, log_w = lo.fock_nodes
    coords = moment_wick_coordinates(moments, v)  # v is shared: never index it by node
    fock_dev = _fock_check(from_eigenpairs(eigenvalues, v), coords, log_w)
    hi = _law_tables(law, modes, 2 * order)
    q_hi = _moment_mean(hi.moments, v)
    delta = float(np.abs(q_hi - q_lo).max())
    if not delta <= QUAD_CONVERGENCE_TOL:
        raise NonConvergenceError(
            f"quadrature order doubling changed the mean by {delta:.3e} "
            f"(> {QUAD_CONVERGENCE_TOL}); increase quad_order"
        )
    return q_hi, delta, hi, fock_dev


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
    law = RadialLaw.of(sym_class, weight)
    if law.jacobian is None or not law.is_even:
        raise ContractError(
            f"weight kind {weight.kind!r} is not a symmetry-class weight even in each eigenvalue (nc_ kinds weigh "
            f"the hermitian measure); the resolution hypothesis requires an even integrable weight"
        )
    law.require_integrable(modes)  # the rule guards float64 itself
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
    q_main, delta, hi, fock_dev = _converged_mean(law, modes, quad_order, v_main)
    if not hi.resolvable:
        raise DomainError(
            f"no kept node has |tanh(lam_j / 2)| above {QUAD_TOL:g} at p = {weight.p}, so the bound could not fail"
        )
    q_alt = _moment_mean(hi.moments, v_alt)  # the same rule: its moments serve both rotations

    dim = 1 << modes
    target = FockOperator(modes, np.eye(dim) / dim, hermitian=True)
    dev = float(np.abs(q_main - target.matrix).max())
    rot_delta = float(np.abs(q_main - q_alt).max())
    odd_coeffs = [float(abs(2.0 * hi.moments[1 << j])) for j in range(modes)]  # |E tanh(lam_j / 2)| = |2 m_j|
    return EstimatorReport(
        target=target,
        mean=FockOperator(modes, q_main),
        samples=len(hi.points),
        per_entry_se=None,
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
        point_chunks=(hi.points,),
    )


def shifted_weight_quadrature_deviation(modes: int, sym_class: SymmetryClass, p: float, offset: float) -> float:
    """Max-entry deviation from 2^-M I of the mean at v = I under the class
    law with the Gaussian weight displaced by ``offset`` = c,
    exp(-2p (lam - c)^2), which is not even: it shows that the evenness
    hypothesis does real work; no pass rule attached. The law is symmetric in
    the lam_j, so its moments are m_J = E[e_|J|(t)] / C(M, |J|), from
    _andreief_means over the ORACLE_ORDER-node Hermite rule x = s y,
    s = sqrt(2p), at lam = y + c. Its Delta(lam^2)^2 is that of
    u = s y (c + y/2) / max(|c|, 1/s), affine in lam^2 and of order one at
    every offset, and its |lam|^alpha enters the weight as
    |lam / max|lam||^alpha, so every finite offset stays in float64. From |c|
    near 1e8 up every tanh(lam/2) rounds to sign(c), and the value is the
    limit 1 - 2^-M. ContractError for beta != 2 (DIII, CI), DomainError for a
    non-finite offset."""
    _check_modes(modes)
    if sym_class.beta != 2:
        raise ContractError(f"the Andreief oracle takes beta = 2 classes (D, C), not class {sym_class.label}")
    WeightSpec.gaussian(p)  # rejects p <= 0 with the caller's value
    _above(offset, -math.inf, "offset")
    x, w = _hermgauss(ORACLE_ORDER)
    s = math.sqrt(2.0) * math.sqrt(p)  # 2p overflows from p = 9e307
    y = x / s
    lam = y + offset
    u = x * ((offset + 0.5 * y) / max(abs(offset), 1.0 / s))  # s y = x
    e = _andreief_means(lam, w * np.abs(lam / np.abs(lam).max()) ** sym_class.alpha, u, modes)
    sizes = np.bitwise_count(np.arange(1 << modes))  # |J| of every subset J
    return _identity_gap(_moment_mean((e / [math.comb(modes, k) for k in range(modes + 1)])[sizes], np.eye(2 * modes)))


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
    return _mc_report(modes, chunks, {"p": p, "chunks": len(chunks), "workers": workers})


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
    all of one size, weigh the log sum of their traces. Each beta is judged
    alone against 2^-M I by _mc_report, and its report carries the Kish
    effective sample size of the traces. With ``keep_points`` every report
    keeps the draws' pair values, the same arrays. Raises DomainError when
    beta times an energy of the draws overflows a float, or when the gate
    would judge no entry at some beta != 0.
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
    return [_mc_report(modes, list(chunks), {"beta": b, "p": p}, b == 0.0) for b, chunks in per_beta]


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


@lru_cache(maxsize=LAW_CACHE_SIZE)
def nc_even_target(modes: int, p: float) -> np.ndarray:
    """The exact mean (a full matrix) of the number-conserving operators under
    the even weight exp(-p sum lam^2), outside the operator code. The law is
    exchangeable, so the mean is diagonal: at N particles 2^-M sum_k
    E[e_k(tau)] K_k(N) / C(M, k), tau = tanh(lam/2), K_k(N) = e_k of N ones and
    M - N minus ones; a sum of projectors on fixed N, which every
    number-conserving rotation keeps. The E[e_k] are _andreief_means over the
    2 * ORACLE_ORDER-node rule, which must agree with the ORACLE_ORDER one to
    QUAD_CONVERGENCE_TOL (tanh(lam/2) nears a step as p -> 0). The law is even,
    so odd k give 0, and at M = 1 the mean is I / 2. Kept per process, read-only."""
    _check_modes(modes)
    WeightSpec.nc_even(p)  # rejects p <= 0 with the caller's value
    lo, e = (_andreief_means(x / math.sqrt(p), w, x, modes) for x, w in map(_hermgauss, (ORACLE_ORDER, 2 * ORACLE_ORDER)))
    delta = float(np.abs(e - lo).max())
    if not delta <= QUAD_CONVERGENCE_TOL:
        raise NonConvergenceError(
            f"the even-weight oracle moved by {delta:.3e} from {ORACLE_ORDER} to {2 * ORACLE_ORDER} nodes "
            f"at p = {p} (> {QUAD_CONVERGENCE_TOL}); choose a larger p"
        )
    e = e * (-2.0) ** np.arange(modes + 1)  # tau = -2 t
    e[1::2] = 0.0
    krawtchouk = np.array([np.poly(np.repeat([-1.0, 1.0], [n, modes - n])) for n in range(modes + 1)])
    c = krawtchouk @ (e / [math.comb(modes, k) for k in range(modes + 1)]) / (1 << modes)
    target = np.diag(c[np.bitwise_count(np.arange(1 << modes))])
    target.setflags(write=False)
    return target


def _identity_gap(mat: np.ndarray) -> float:
    """max |mat - 2^-M I| of a full 2^M x 2^M matrix."""
    return float(np.abs(mat - np.eye(len(mat)) / len(mat)).max())


def _failure_bounds(mean: np.ndarray, floor: float | None) -> tuple[list[CriterionResult], dict]:
    """With a ``floor``, the bound that ``mean`` lies that far from 2^-M I or more, and the gap it reads."""
    if floor is None:
        return [], {}
    gap = _identity_gap(mean)
    return [CriterionResult("failure_floor - identity_gap", floor - gap, 0.0)], {"identity_gap": gap}


def verify_nc_failure(
    modes: int = 2, p: float = 1.0, quad_order: int = 60, n_samples: int = 16_000, rng=0, workers: int = 1, keep_points=False
) -> EstimatorReport:
    """The even-weight number-conserving mean against nc_even_target: at M <= 2
    the quadrature at the fixed Haar rotation, to 1e-10, with the Fock check of
    verify_resolution_quadrature; at M >= 3 n_samples GUE draws h, law
    exp(-p tr h^2), one eigh each, as in verify_resolution_mc. From M = 2 it
    must lie FAILURE_FLOOR_FRACTION of the target's distance from 2^-M I or
    more; DomainError when that floor is not above FAILURE_ROUNDING_LEVEL."""
    WeightSpec.nc_even(p)  # a named error for any p, before the target's cache hashes it
    target = nc_even_target(modes, p)
    floor = None if modes == 1 else FAILURE_FLOOR_FRACTION * _identity_gap(target)
    if floor is not None and not floor > FAILURE_ROUNDING_LEVEL:
        raise DomainError(
            f"the failure floor {floor:.3g} at p = {p} is not above the rounding level {FAILURE_ROUNDING_LEVEL:.3g}"
        )
    details = {"p": p} if floor is None else {"p": p, "failure_floor": floor}
    if modes > 2:
        def worker(gen: np.random.Generator, per: int, first: bool) -> _Chunk:
            h = _hermitian_matrices(gen, modes, per) / (math.sqrt(2.0) * math.sqrt(p))  # 2p overflows from p = 9e307
            lam, u = np.linalg.eigh(h)
            rows, k = number_conserving_pair_rows(lam, u), FOCK_CHECK_DRAWS
            fock_dev = _fock_check(assemble_blocks(h[:k], np.zeros_like(h[:k])), wick_coordinates(rows[:, :k])) if first else None
            return _Chunk(wick_coordinates(rows), per, fock_dev, lam if keep_points else None)

        chunks = _run_chunks(worker, n_samples, _as_rngspec(rng), modes, workers)
        return _mc_report(modes, chunks, {**details, "chunks": len(chunks), "workers": workers}, target=target, floor=floor)

    v = _ncons_eigenvectors(_nc_rotation(modes))
    q, _, hi, fock_dev = _converged_mean(RadialLaw(None, WeightSpec.nc_even(p)), modes, quad_order, v)
    failure, gap = _failure_bounds(q, floor)
    fock = CriterionResult("fock_check_deviation", fock_dev, FOCK_CHECK_TOL)
    return EstimatorReport(
        target=FockOperator(modes, target, hermitian=True),
        mean=FockOperator(modes, q),
        per_entry_se=None,
        samples=len(hi.points),
        bounds=[CriterionResult("max_abs_deviation", float(np.abs(q - target).max()), 1e-10), *failure, fock],
        details={**details, **gap, "fock_check_deviation": fock_dev, "tolerance": 1e-10},
        point_chunks=(hi.points,),
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
    return _mc_report(modes, chunks, {"p": p, "chunks": len(chunks)})


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
    B = exp(h) - I, by eigh as well (normal_ordered_exp's kernel)."""
    h = _hermitian_matrices(gen, m, count)
    direct = _exp_hermitian(_fock_matrices(assemble_blocks(h, np.zeros_like(h))))
    direct = np.exp(0.5 * np.trace(h, axis1=-2, axis2=-1).real)[:, None, None] * direct
    ordered = _normal_ordered_stack(_exp_hermitian(h) - np.eye(m))
    return [("normal-ordered exponential identity", 1e-9, _max_gaps(direct, ordered))]


def _trace_formula(gen: np.random.Generator, m: int, count: int) -> list[tuple]:
    """Per class-D draw H, relative to the closed form prod 2cosh(lam/2) over
    its pair values (paired_eigenvalues' kernel, _pair_values of its eigh):
    the Fock trace of the exponential of its Fock matrix, by eigh (op_exp's
    kernel), and sqrt|det 2cosh(H/2)| of the doubled matrix, rebuilt from the
    same eigh."""
    mats = sample_class_d_batch(m, 1.0, gen, count)
    w, v = np.linalg.eigh(mats)
    closed = np.prod(2.0 * np.cosh(_pair_values(w) / 2.0), axis=-1)
    exact = np.trace(_exp_hermitian(_fock_matrices(mats)), axis1=-2, axis2=-1).real
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
