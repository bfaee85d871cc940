"""Random-matrix sampling: Cartesian class-D draws, Haar unitaries, and a
random-walk Metropolis sampler for the radial eigenvalue densities of the four
particle-hole symmetry classes and of the number-conserving laws.

Every sampler is a pure function of its parameters and an RngSpec; identical
(seed, stream) pairs reproduce identical output bit for bit.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractError, DegenerateSpectrumError, DomainError
from .gaussian import BdgMatrix, PolarForm, make_bdg, polar_decompose

#: Proposals landing this close to a density zero are rejected outright.
COINCIDENCE_FLOOR = 1e-300


@dataclass(frozen=True)
class SymmetryClass:
    """Label plus the (beta, alpha) exponents of the radial eigenvalue measure
    Delta(lam^2)^beta * prod |lam_j|^alpha for one particle-hole class."""

    label: str
    beta: int
    alpha: int


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
        if self.p <= 0:
            raise DomainError(f"domain violation: p > 0 required, got p = {self.p}")

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

    @property
    def uses_hermitian_jacobian(self) -> bool:
        return self.kind.startswith("nc_")

    @property
    def is_even(self) -> bool:
        """Even as a function of each eigenvalue separately."""
        return self.kind in ("determinant", "gaussian", "nc_even")

    def validate_for(self, modes: int, sym_class: SymmetryClass | None = None) -> None:
        """Check integrability of this weight against the relevant Jacobian."""
        if self.kind == "determinant":
            if self.p <= modes - 0.75:
                raise DomainError(
                    f"determinant weight needs p > M - 3/4 (M = {modes}), got p = {self.p}"
                )
            if sym_class is not None:
                # tail exponent of one eigenvalue fiber must stay integrable
                needed = (2 * sym_class.beta * (modes - 1) + sym_class.alpha + 1) / 4.0
                if self.p <= needed:
                    raise DomainError(
                        f"determinant weight with class {sym_class.label} at M = {modes} "
                        f"needs p > {needed}, got p = {self.p}"
                    )

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
        out = -self.p * (lam**2).sum(axis=-1)
        m = lam.shape[-1]
        for i in range(m - 1):
            sums = np.abs(lam[..., i, None] + lam[..., i + 1 :])
            small = sums < COINCIDENCE_FLOOR
            with np.errstate(divide="ignore"):
                out = out + 2.0 * np.where(small, -np.inf, np.log(np.maximum(sums, 1e-320))).sum(axis=-1)
        return out


def _class_d_blocks(modes: int, p: float, gen: np.random.Generator, count: int):
    """Draw (h, delta) block stacks for `count` class-D matrices with density
    proportional to exp(-p Tr[H^2]): diagonal entries have variance 1/(4p), each
    independent off-diagonal real component 1/(8p)."""
    sd = math.sqrt(1.0 / (4.0 * p))
    so = math.sqrt(1.0 / (8.0 * p))
    diag = gen.normal(0.0, sd, size=(count, modes))
    iu, ju = np.triu_indices(modes, 1)
    npair = iu.size
    comps = gen.normal(0.0, so, size=(count, 4, npair)) if npair else np.zeros((count, 4, 0))
    h = np.zeros((count, modes, modes), dtype=complex)
    delta = np.zeros((count, modes, modes), dtype=complex)
    h[:, np.arange(modes), np.arange(modes)] = diag
    if npair:
        hval = comps[:, 0] + 1j * comps[:, 1]
        dval = comps[:, 2] + 1j * comps[:, 3]
        h[:, iu, ju] = hval
        h[:, ju, iu] = hval.conj()
        delta[:, iu, ju] = dval
        delta[:, ju, iu] = -dval
    return h, delta


def assemble_blocks(h: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Stack (..., M, M) blocks into assembled (..., 2M, 2M) matrices."""
    m = h.shape[-1]
    out = np.zeros(h.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    out[..., :m, :m] = h
    out[..., :m, m:] = delta
    out[..., m:, :m] = -delta.conj()
    out[..., m:, m:] = -np.swapaxes(h, -1, -2)
    return out


def sample_class_d(modes: int, p: float, rng) -> BdgMatrix:
    """One class-D coefficient matrix with density proportional to exp(-p Tr[H^2])."""
    if p <= 0:
        raise DomainError(f"domain violation: p > 0 required, got p = {p}")
    gen = _as_generator(rng)
    h, delta = _class_d_blocks(modes, p, gen, 1)
    return make_bdg(h[0], delta[0])


def sample_class_d_batch(modes: int, p: float, rng, count: int) -> np.ndarray:
    """Assembled stack of `count` class-D draws, shape (count, 2M, 2M)."""
    if p <= 0:
        raise DomainError(f"domain violation: p > 0 required, got p = {p}")
    gen = _as_generator(rng)
    h, delta = _class_d_blocks(modes, p, gen, count)
    return assemble_blocks(h, delta)


def sample_haar_unitary(modes: int, rng) -> np.ndarray:
    """Haar-distributed M x M unitary via QR with the R-diagonal phase fix."""
    return sample_haar_unitary_batch(modes, rng, 1)[0]


def sample_haar_unitary_batch(modes: int, rng, count: int) -> np.ndarray:
    if modes < 1:
        raise DomainError(f"need modes >= 1, got {modes}")
    gen = _as_generator(rng)
    z = gen.normal(size=(count, modes, modes)) + 1j * gen.normal(size=(count, modes, modes))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.einsum("sii->si", r)
    return q * (d / np.abs(d))[:, None, :]


def random_polar_rotation(modes: int, rng) -> PolarForm:
    """Polar form of a random class-D draw at p = 1; redraws on
    (probability-zero) degenerate spectra, up to 64 times. Used to produce
    reproducible rotations for the verification drivers."""
    gen = _as_generator(rng)
    for _ in range(64):
        try:
            return polar_decompose(sample_class_d(modes, 1.0, gen))
        except DegenerateSpectrumError:
            continue
    raise DegenerateSpectrumError("failed to draw a non-degenerate spectrum in 64 tries")


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


def _log_density(sym_class: SymmetryClass, weight: WeightSpec, lam: np.ndarray) -> np.ndarray:
    """Log of Jacobian times weight, -inf on (or within 1e-300 of) coincidence
    sets; vectorized over rows of (..., M)."""
    lam = np.asarray(lam, dtype=float)
    m = lam.shape[-1]
    out = weight.log_weight(lam)
    if weight.uses_hermitian_jacobian:
        factor, power = lambda i: lam[..., i, None] - lam[..., i + 1 :], 2.0
    else:
        factor, power = lambda i: lam[..., i, None] ** 2 - lam[..., i + 1 :] ** 2, float(sym_class.beta)
        if sym_class.alpha:
            mag = np.abs(lam)
            bad = (mag < COINCIDENCE_FLOOR).any(axis=-1)
            with np.errstate(divide="ignore"):
                out = out + sym_class.alpha * np.log(np.maximum(mag, 1e-320)).sum(axis=-1)
            out = np.where(bad, -np.inf, out)
    for i in range(m - 1):
        diffs = np.abs(factor(i))
        bad = (diffs < COINCIDENCE_FLOOR).any(axis=-1)
        with np.errstate(divide="ignore"):
            out = out + power * np.log(np.maximum(diffs, 1e-320)).sum(axis=-1)
        out = np.where(bad, -np.inf, out)
    return out


def sample_radial_mcmc(
    sym_class: SymmetryClass,
    weight: WeightSpec,
    modes: int,
    steps: int,
    rng,
    burn_in: int = 10_000,
    thin: int = 10,
    chains: int = 25,
    initial_step: float | None = None,
) -> McmcSamples:
    """Random-walk Metropolis samples of the radial eigenvalue density.

    The density is Delta(lam^2)^beta * prod |lam_j|^alpha * weight for the
    symmetry classes, or the hermitian-matrix Jacobian Delta(lam)^2 * weight
    for the number-conserving kinds. ``steps`` counts retained samples, drawn
    from ``chains`` independent walkers after per-chain burn-in with the step
    size tuned toward 40% acceptance, then thinned. Log-density arithmetic
    throughout; proposals on a coincidence zero are rejected outright.
    """
    if steps < 1:
        raise ContractError(f"need at least one retained sample, got steps = {steps}")
    weight.validate_for(modes, None if weight.uses_hermitian_jacobian else sym_class)
    gen = _as_generator(rng)
    chains = min(chains, steps)
    per_chain = -(-steps // chains)  # ceil; total retained = chains * per_chain

    scale = 1.0 / math.sqrt(2.0 * weight.p)
    state = scale * (np.arange(1, modes + 1) - (modes + 1) / 2.0)
    state = state[None, :] + 0.35 * scale * gen.standard_normal((chains, modes))
    logp = _log_density(sym_class, weight, state)
    while not np.all(np.isfinite(logp)):  # coincidence at start is measure zero, but be safe
        bad = ~np.isfinite(logp)
        state[bad] += 0.1 * scale * gen.standard_normal((int(bad.sum()), modes))
        logp = _log_density(sym_class, weight, state)

    step = initial_step if initial_step is not None else 0.6 * scale
    window = 200
    accepted = 0
    for k in range(burn_in):
        prop = state + step * gen.standard_normal((chains, modes))
        logq = _log_density(sym_class, weight, prop)
        accept = np.log(gen.random(chains)) < (logq - logp)
        state = np.where(accept[:, None], prop, state)
        logp = np.where(accept, logq, logp)
        accepted += int(accept.sum())
        if (k + 1) % window == 0:
            rate = accepted / (window * chains)
            step *= math.exp(0.5 * (rate - 0.4))
            accepted = 0

    kept = np.empty((per_chain, chains, modes))
    accepted = 0
    total = per_chain * thin
    for k in range(total):
        prop = state + step * gen.standard_normal((chains, modes))
        logq = _log_density(sym_class, weight, prop)
        accept = np.log(gen.random(chains)) < (logq - logp)
        state = np.where(accept[:, None], prop, state)
        logp = np.where(accept, logq, logp)
        accepted += int(accept.sum())
        if (k + 1) % thin == 0:
            kept[(k + 1) // thin - 1] = state
    rate = accepted / (total * chains)
    warning = None
    if not 0.1 <= rate <= 0.9:
        warning = (
            f"acceptance rate {rate:.3f} outside [0.1, 0.9]; "
            f"consider tuning the proposal step (current {step:.3g})"
        )
    samples = np.swapaxes(kept, 0, 1).reshape(chains * per_chain, modes)
    return McmcSamples(
        samples=samples[: chains * per_chain],
        chains=chains,
        acceptance_rate=rate,
        step=step,
        warning=warning,
    )
