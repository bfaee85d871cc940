"""Random-matrix sampling: Cartesian class-D draws, Haar unitaries, the radial
eigenvalue laws (RadialLaw) of the four particle-hole symmetry classes and of
the number-conserving weights, and a random-walk Metropolis sampler for them.

Every sampler is a pure function of its parameters and an RngSpec; identical
(seed, stream) pairs reproduce identical output bit for bit.
"""

import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .errors import ContractError, DegenerateSpectrumError, DomainError, _above, _count
from .gaussian import BdgMatrix, PolarForm, _polar_parts, assemble_blocks, make_bdg

#: Proposals landing this close to a density zero are rejected outright.
COINCIDENCE_FLOOR = 1e-300

#: Independent walkers of sample_radial_mcmc (fewer when fewer samples are asked for).
MCMC_CHAINS = 25
#: Acceptance rate the burn-in tunes the walkers' step toward, and the band
#: outside which sample_radial_mcmc warns that the rate is off.
MCMC_TARGET_ACCEPTANCE = 0.4
MCMC_ACCEPTANCE_BAND = (0.1, 0.9)


@dataclass(frozen=True)
class SymmetryClass:
    """Label plus the (beta, alpha) exponents of the radial eigenvalue measure
    Delta(lam^2)^beta * prod |lam_j|^alpha for one particle-hole class."""

    label: str
    beta: int
    alpha: int

    def __post_init__(self):
        for name in ("beta", "alpha"):
            _count(getattr(self, name), name, DomainError, low=0)


CLASS_D = SymmetryClass("D", beta=2, alpha=0)
CLASS_C = SymmetryClass("C", beta=2, alpha=2)
CLASS_DIII = SymmetryClass("DIII", beta=4, alpha=1)
CLASS_CI = SymmetryClass("CI", beta=1, alpha=1)

SYMMETRY_CLASSES = {c.label: c for c in (CLASS_D, CLASS_C, CLASS_DIII, CLASS_CI)}


def symmetry_class(label: str) -> SymmetryClass:
    try:
        return SYMMETRY_CLASSES[label]
    except KeyError:
        raise DomainError(
            f"unknown symmetry class {label!r}; choose one of {sorted(SYMMETRY_CLASSES)}"
        ) from None


@dataclass(frozen=True)
class RngSpec:
    """Seed plus substream index; the pair fully determines a sample sequence."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            _count(getattr(self, name), name, ContractError, low=0)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(seq))

    def with_stream(self, stream: int) -> "RngSpec":
        return replace(self, stream=stream)


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngSpec):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ContractError(f"expected an RngSpec or numpy Generator, got {type(rng).__name__}")


@dataclass(frozen=True)
class WeightSpec:
    """Eigenvalue weight choice with stiffness p.

    Kinds: ``determinant`` = prod (1 + lam_j^2)^(-2p); ``gaussian`` =
    exp(-2p sum lam_j^2); ``nc_even`` = exp(-p sum lam_j^2) for the
    number-conserving (hermitian-matrix) measure; ``nc_modified`` =
    prod_{i<j} (lam_i + lam_j)^2 * exp(-p sum lam_j^2), whose product with the
    hermitian Vandermonde is even in every eigenvalue separately.
    """

    kind: str
    p: float

    KINDS = ("determinant", "gaussian", "nc_even", "nc_modified")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DomainError(f"unknown weight kind {self.kind!r}; choose one of {self.KINDS}")
        _above(self.p, 0, "p")

    @classmethod
    def determinant(cls, p: float) -> "WeightSpec":
        return cls("determinant", p)

    @classmethod
    def gaussian(cls, p: float) -> "WeightSpec":
        return cls("gaussian", p)

    @classmethod
    def nc_even(cls, p: float) -> "WeightSpec":
        return cls("nc_even", p)

    @classmethod
    def nc_modified(cls, p: float) -> "WeightSpec":
        return cls("nc_modified", p)

    def log_weight(self, lams: np.ndarray) -> np.ndarray:
        """Log of the weight, vectorized over leading axes of (..., M) input."""
        lam = np.asarray(lams, dtype=float)
        if self.kind == "determinant":
            return -2.0 * self.p * np.log1p(lam**2).sum(axis=-1)
        if self.kind == "gaussian":
            return -2.0 * self.p * (lam**2).sum(axis=-1)
        if self.kind == "nc_even":
            return -self.p * (lam**2).sum(axis=-1)
        # nc_modified
        return -self.p * (lam**2).sum(axis=-1) + _log_pairs(lam, np.add, 2.0)


@cache
def _upper_pairs(modes: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(modes, 1), computed once per mode count, read-only."""
    iu, ju = np.triu_indices(modes, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _log_abs_sum(x: np.ndarray) -> np.ndarray:
    """Sum of log|x| over the last axis, -inf where any |x| is within
    COINCIDENCE_FLOOR of zero."""
    mag = np.abs(x)
    with np.errstate(divide="ignore"):
        return np.where(mag < COINCIDENCE_FLOOR, -np.inf, np.log(mag)).sum(axis=-1)


def _log_pairs(lam: np.ndarray, pair, power: float) -> np.ndarray:
    """power * sum over i < j of log|pair(lam_i, lam_j)| for rows of (..., M),
    -inf where any pair factor is within COINCIDENCE_FLOOR of zero."""
    iu, ju = _upper_pairs(lam.shape[-1])
    return power * _log_abs_sum(pair(lam[..., iu], lam[..., ju]))


@dataclass(frozen=True)
class RadialLaw:
    """One radial eigenvalue law: a Jacobian times ``weight``. The Jacobian is
    the class measure |Delta(lam^2)|^beta prod |lam_j|^alpha of ``jacobian``
    or, with ``jacobian`` None, the hermitian-matrix Delta(lam)^2 that the nc_
    weight kinds, and they alone, weigh."""

    jacobian: SymmetryClass | None
    weight: WeightSpec

    def __post_init__(self):
        if (self.jacobian is None) != self.weight.kind.startswith("nc_"):
            raise ContractError(f"the nc_ weight kinds, and they alone, weigh the hermitian measure; got {self}")

    @classmethod
    def of(cls, sym_class: SymmetryClass, weight: WeightSpec) -> "RadialLaw":
        """The law that a symmetry class and a weight name: an nc_ kind takes
        the hermitian Jacobian, which only class D, the default, may name."""
        law = cls(None if weight.kind.startswith("nc_") else sym_class, weight)
        if law.jacobian is None and sym_class != CLASS_D:
            raise ContractError(f"the {weight.kind} weight weighs the hermitian measure, not class {sym_class.label}")
        return law

    def require_integrable(self, modes: int) -> None:
        """DomainError unless the determinant weight's tails, those of one
        eigenvalue fiber too, stay integrable at ``modes``."""
        if self.weight.kind == "determinant":
            _above(self.weight.p, modes - 0.75, "p")
            _above(self.weight.p, (2 * self.jacobian.beta * (modes - 1) + self.jacobian.alpha + 1) / 4.0, "p")

    def validate(self, modes: int) -> None:
        """require_integrable, then DomainError unless the squares lam^2 near
        1/(2p) that log_density takes sit a factor 1/eps inside the range where
        it can be evaluated: below the largest float, and above the class
        Jacobian's COINCIDENCE_FLOOR on lam_i^2 - lam_j^2 or, for the hermitian
        one, whose pair factors are lam_i -+ lam_j, the smallest normal float."""
        self.require_integrable(modes)
        info = np.finfo(float)
        floor = info.tiny if self.jacobian is None else COINCIDENCE_FLOOR
        low, high = 0.5 / (info.eps * info.max), 0.5 * info.eps / floor
        if not low <= self.weight.p <= high:
            raise DomainError(f"this law's log_density needs {low:.3g} <= p <= {high:.3g}, got p = {self.weight.p}")

    def log_jacobian(self, lam: np.ndarray) -> np.ndarray:
        """Log of the Jacobian, rows of (..., M); -inf within COINCIDENCE_FLOOR of a zero."""
        if self.jacobian is None:
            return _log_pairs(lam, np.subtract, 2.0)
        out = _log_pairs(lam, lambda a, b: a**2 - b**2, self.jacobian.beta)
        return out + self.jacobian.alpha * _log_abs_sum(lam) if self.jacobian.alpha else out

    def log_density(self, lam: np.ndarray) -> np.ndarray:
        """Log of the weight times the Jacobian, rows of (..., M)."""
        return self.weight.log_weight(lam) + self.log_jacobian(lam)


def _class_d_normals(modes: int, p: float, gen: np.random.Generator, count: int):
    """The normals behind ``count`` class-D matrices with density proportional
    to exp(-p Tr[H^2]): the (count, M) diagonal entries of h, variance 1/(4p),
    drawn first, then the (count, 4, M(M-1)/2) real components (Re h, Im h,
    Re D, Im D) of each pair i < j, variance 1/(8p)."""
    _above(p, 0, "p")
    _count(modes, "modes", DomainError)
    _count(count, "count", ContractError, low=0)
    pairs = _upper_pairs(modes)[0].size  # one mode draws none
    diag = gen.normal(0.0, math.sqrt(1.0 / (4.0 * p)), size=(count, modes))
    comps = gen.normal(0.0, math.sqrt(1.0 / (8.0 * p)), size=(count, 4, pairs))
    return diag, comps


def _class_d_blocks(diag: np.ndarray, comps: np.ndarray):
    """The (h, delta) block stacks of the class-D draws with the normals of _class_d_normals."""
    # class_d_pair_values' M = 2 closed form reads this component order and layout
    count, modes = diag.shape
    iu, ju = _upper_pairs(modes)
    h = np.zeros((count, modes, modes), dtype=complex)
    delta = np.zeros((count, modes, modes), dtype=complex)
    h[:, np.arange(modes), np.arange(modes)] = diag
    hval = comps[:, 0] + 1j * comps[:, 1]
    dval = comps[:, 2] + 1j * comps[:, 3]
    h[:, iu, ju], h[:, ju, iu] = hval, hval.conj()
    delta[:, iu, ju], delta[:, ju, iu] = dval, -dval
    return h, delta


def sample_class_d(modes: int, p: float, rng) -> BdgMatrix:
    """One class-D coefficient matrix with density proportional to exp(-p Tr[H^2])."""
    h, delta = _class_d_blocks(*_class_d_normals(modes, p, _as_generator(rng), 1))
    return make_bdg(h[0], delta[0])


def sample_class_d_batch(modes: int, p: float, rng, count: int) -> np.ndarray:
    """Assembled stack of `count` class-D draws, shape (count, 2M, 2M)."""
    return assemble_blocks(*_class_d_blocks(*_class_d_normals(modes, p, _as_generator(rng), count)))


def class_d_pair_values(modes: int, p: float, rng, count: int) -> np.ndarray:
    """Ascending pair eigenvalues, (count, M), of the draws that
    sample_class_d_batch(modes, p, rng, count) makes, from the same normals.

    At M = 2 no matrix is built. The real Majorana form A of a draw
    (gaussian._scaled_real_form) has A_01 = d0, A_23 = d1, A_02 = c1 + c3,
    A_03 = c0 - c2, A_12 = -(c0 + c2) and A_13 = c1 - c3 in the normals
    diag = (d0, d1) and comps = (c0, c1, c2, c3). Its self-dual and
    anti-self-dual parts, the 3-vectors u = x + y = (d0 + d1, 2 c3, -2 c2)
    and v = x - y = (d0 - d1, 2 c1, 2 c0) of x = (A_01, A_02, A_03) and its
    Hodge dual y = (A_23, A_31, A_12), commute and square to -|u|^2 I / 4
    and -|v|^2 I / 4, so the singular values of A, the pair eigenvalues, are
    ||u| - |v|| / 2 and (|u| + |v|) / 2. Each draw is taken over its largest
    |normal| first, so no square overflows. Every other M takes
    eigvalsh(H)[:, M:] of the assembled draws H."""
    diag, comps = _class_d_normals(modes, p, _as_generator(rng), count)
    if modes != 2:
        return np.linalg.eigvalsh(assemble_blocks(*_class_d_blocks(diag, comps)))[:, modes:]
    # one row per normal, the draws along the rows: numpy reduces a (count, 6)
    # stack over its short last axis one row at a time, many times slower
    normals = np.empty((6, count))
    normals[:2], normals[2:] = diag.T, comps[:, :, 0].T
    top = np.abs(normals).max(axis=0)
    normals /= np.where(top > 0.0, top, 1.0)
    d0, d1, c0, c1, c2, c3 = normals
    u = np.sqrt((d0 + d1) ** 2 + 4.0 * (c2 * c2 + c3 * c3))
    v = np.sqrt((d0 - d1) ** 2 + 4.0 * (c0 * c0 + c1 * c1))
    half = 0.5 * top
    return np.stack([half * np.abs(u - v), half * (u + v)], axis=1)


def _normal_parts(gen: np.random.Generator, count: int, modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The real and imaginary parts, (count, M, M) each, of the complex
    normals behind ``count`` Haar unitaries, real parts drawn first."""
    return gen.normal(size=(count, modes, modes)), gen.normal(size=(count, modes, modes))


def _haar_unitaries(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """The Haar unitaries of the normals ``real`` + i ``imag`` (_normal_parts),
    by QR with the R-diagonal phase fix: column 0 is z_0 / |z_0|, z_0 the
    normals' column 0, as z_0 = Q_0 R_00 and the fix scales Q_0 by R_00 / |R_00|."""
    q, r = np.linalg.qr((real + 1j * imag) / math.sqrt(2.0))
    d = np.einsum("sii->si", r)
    return q * (d / np.abs(d))[:, None, :]


def sample_haar_unitary_batch(modes: int, rng, count: int) -> np.ndarray:
    """``count`` Haar-distributed M x M unitaries, _haar_unitaries of one draw of normals."""
    _count(modes, "modes", DomainError)
    _count(count, "count", ContractError, low=0)
    return _haar_unitaries(*_normal_parts(_as_generator(rng), count, modes))


def _polar_rotations(modes: int, gen: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair values (count, M) and canonical transformations (count, 2M, 2M) of
    the polar forms of ``count`` class-D draws at p = 1; each draw with a
    (probability-zero) degenerate spectrum is redrawn, up to 64 draws in all."""
    mats = sample_class_d_batch(modes, 1.0, gen, count)
    for _ in range(64):
        lam, u, degenerate = _polar_parts(mats)
        if not degenerate.any():
            return lam, u
        mats[degenerate] = sample_class_d_batch(modes, 1.0, gen, int(degenerate.sum()))
    raise DegenerateSpectrumError("failed to draw a non-degenerate spectrum in 64 tries")


def random_polar_rotation(modes: int, rng) -> PolarForm:
    """Polar form of a random class-D draw at p = 1, _polar_rotations of one
    draw; redraws on (probability-zero) degenerate spectra, up to 64 times.
    Used to produce reproducible rotations for the verification drivers."""
    lam, u = _polar_rotations(modes, _as_generator(rng), 1)
    return PolarForm(lambdas=lam[0], bogoliubov=u[0])


@dataclass(frozen=True)
class McmcSamples:
    """Retained radial samples plus the tuning diagnostics of the run."""

    samples: np.ndarray  # (n, M), chain-major: chain 0's draws first
    chains: int
    acceptance_rate: float
    step: float
    warning: str | None = None

    @property
    def per_chain(self) -> int:
        return self.samples.shape[0] // self.chains


def sample_radial_mcmc(
    law: RadialLaw, modes: int, steps: int, rng, burn_in: int = 10_000, thin: int = 10
) -> McmcSamples:
    """Random-walk Metropolis samples of the radial eigenvalue density of
    ``law``, its log_density. ``steps`` counts retained samples, drawn from
    MCMC_CHAINS independent walkers after per-chain burn-in with the step
    size tuned from 0.6 / sqrt(2p) toward 40% acceptance, then thinned.
    Log-density arithmetic throughout; proposals on a coincidence zero are
    rejected outright. Raises DomainError where law.validate(modes) does, for
    the stiffness outside 1.25e-293 <= p <= 1.11e284 (4.99e291 for a hermitian
    law), and when no start state of finite density comes in 64 redraws.
    """
    for name, value, low in (("modes", modes, 1), ("steps", steps, 1), ("thin", thin, 1), ("burn_in", burn_in, 0)):
        _count(value, name, ContractError, low)
    law.validate(modes)
    gen = _as_generator(rng)
    chains = min(MCMC_CHAINS, steps)
    per_chain = -(-steps // chains)  # ceil; total retained = chains * per_chain

    scale = 1.0 / math.sqrt(2.0 * law.weight.p)
    state = scale * (np.arange(1, modes + 1) - (modes + 1) / 2.0)
    state = state[None, :] + 0.35 * scale * gen.standard_normal((chains, modes))
    logp = law.log_density(state)
    for _ in range(64):  # a coincidence at the start has measure zero, but be safe
        bad = ~np.isfinite(logp)
        if not bad.any():
            break
        state[bad] += 0.1 * scale * gen.standard_normal((int(bad.sum()), modes))
        logp = law.log_density(state)
    else:
        raise DomainError(f"no start state of finite density after 64 redraws at p = {law.weight.p}")

    step = 0.6 * scale
    window = 200
    accepted = 0
    kept = np.empty((per_chain, chains, modes))
    total = per_chain * thin
    for k in range(burn_in + total):
        prop = state + step * gen.standard_normal((chains, modes))
        logq = law.log_density(prop)
        accept = np.log(gen.random(chains)) < (logq - logp)
        state = np.where(accept[:, None], prop, state)
        logp = np.where(accept, logq, logp)
        accepted += int(accept.sum())
        if k < burn_in and (k + 1) % window == 0:  # tune the step by windows within the burn-in
            step *= math.exp(0.5 * (accepted / (window * chains) - MCMC_TARGET_ACCEPTANCE))
            accepted = 0
        elif k >= burn_in and (k + 1 - burn_in) % thin == 0:
            kept[(k + 1 - burn_in) // thin - 1] = state
        if k + 1 == burn_in:  # the acceptance rate counts the sampling steps alone
            accepted = 0
    rate = accepted / (total * chains)
    low, high = MCMC_ACCEPTANCE_BAND
    warning = None
    if not low <= rate <= high:
        warning = (
            f"acceptance rate {rate:.3f} outside [{low}, {high}]; "
            f"consider tuning the proposal step (current {step:.3g})"
        )
    return McmcSamples(
        samples=np.swapaxes(kept, 0, 1).reshape(chains * per_chain, modes),
        chains=chains,
        acceptance_rate=rate,
        step=step,
        warning=warning,
    )
