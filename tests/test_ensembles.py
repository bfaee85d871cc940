import math
import re
import warnings

import numpy as np
import pytest

from fermigauss import (
    CLASS_C,
    CLASS_CI,
    CLASS_D,
    CLASS_DIII,
    ContractError,
    DomainError,
    RadialLaw,
    RngSpec,
    WeightSpec,
    polar_decompose,
    sample_class_d,
    sample_class_d_batch,
    sample_haar_unitary_batch,
    sample_radial_mcmc,
    symmetry_class,
)
from fermigauss.ensembles import _upper_pairs


def chain_moment_se(run, f):
    """Mean and batch-means SE of f(lam_row) over an MCMC run, one batch per chain."""
    vals = np.array([f(row) for row in run.samples])
    per = run.per_chain
    chains = vals.reshape(run.chains, per).mean(axis=1)
    return float(chains.mean()), float(chains.std(ddof=1) / math.sqrt(run.chains))


class TestSymmetryClasses:
    def test_index_table(self):
        assert (CLASS_D.beta, CLASS_D.alpha) == (2, 0)
        assert (CLASS_C.beta, CLASS_C.alpha) == (2, 2)
        assert (CLASS_DIII.beta, CLASS_DIII.alpha) == (4, 1)
        assert (CLASS_CI.beta, CLASS_CI.alpha) == (1, 1)

    def test_lookup(self):
        assert symmetry_class("DIII") is CLASS_DIII
        with pytest.raises(DomainError):
            symmetry_class("A")


class TestRngSpec:
    def test_same_pair_reproduces_bits(self):
        a = RngSpec(123, 4).generator().normal(size=16)
        b = RngSpec(123, 4).generator().normal(size=16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngSpec(123, 0).generator().normal(size=16)
        b = RngSpec(123, 1).generator().normal(size=16)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("seed, stream, named", [(1.5, 0, "seed = 1.5"), (0, "2", "stream = '2'")])
    def test_non_integer_is_contract_error(self, seed, stream, named):
        # negative values come in through the CLI (tests/test_cli.py)
        with pytest.raises(ContractError, match=named):
            RngSpec(seed, stream)


class TestClassDSampler:
    def test_pairing_block_antisymmetric_exactly(self):
        bdg = sample_class_d(3, 1.0, RngSpec(1))
        assert np.array_equal(bdg.delta, -bdg.delta.T)
        assert np.array_equal(np.diag(bdg.delta), np.zeros(3))

    def test_determinism(self):
        a = sample_class_d(3, 2.0, RngSpec(5, 7))
        b = sample_class_d(3, 2.0, RngSpec(5, 7))
        assert np.array_equal(a.assembled(), b.assembled())

    @pytest.mark.parametrize("modes", [1, 2, 6])
    def test_draws_follow_the_stream_layout(self, modes):
        # the diagonal of h, then the four real components (Re h, Im h, Re D,
        # Im D) of each upper pair in np.triu_indices order; one mode draws
        # no pair components
        p, count, gen = 0.7, 5, RngSpec(3).generator()
        diag = gen.normal(0.0, math.sqrt(1.0 / (4.0 * p)), size=(count, modes))
        comps = gen.normal(0.0, math.sqrt(1.0 / (8.0 * p)), size=(count, 4, modes * (modes - 1) // 2))
        mats = sample_class_d_batch(modes, p, RngSpec(3), count)
        iu, ju = np.triu_indices(modes, 1)
        assert np.array_equal(mats[:, range(modes), range(modes)], diag)
        assert np.array_equal(mats[:, iu, ju], comps[:, 0] + 1j * comps[:, 1])
        assert np.array_equal(mats[:, iu, ju + modes], comps[:, 2] + 1j * comps[:, 3])

    def test_pair_indices_are_cached_read_only(self):
        pairs = _upper_pairs(4)
        assert pairs is _upper_pairs(4)
        assert all(np.array_equal(a, b) for a, b in zip(pairs, np.triu_indices(4, 1), strict=True))
        assert not any(a.flags.writeable for a in pairs)

    def test_batch_matches_single(self):
        single = sample_class_d(2, 1.0, RngSpec(9)).assembled()
        batch = sample_class_d_batch(2, 1.0, RngSpec(9), 1)[0]
        assert np.array_equal(single, batch)

    def test_trace_square_moment(self):
        # E Tr[H^2] = M (2M - 1) / (2p) from the component variances
        n = 100_000
        for modes, p in [(1, 1.0), (2, 0.5)]:
            mats = sample_class_d_batch(modes, p, RngSpec(42), n)
            tr2 = np.einsum("sij,sij->s", mats, mats.conj()).real
            want = modes * (2 * modes - 1) / (2.0 * p)
            se = tr2.std(ddof=1) / math.sqrt(n)
            assert abs(tr2.mean() - want) < 5.0 * se
            assert se < 0.05 * want

    def test_invalid_p(self):
        with pytest.raises(DomainError):
            sample_class_d(2, 0.0, RngSpec(0))

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_p(self, p):
        with pytest.raises(DomainError, match=f"got p = {p}"):
            sample_class_d(2, p, RngSpec(0))
        with pytest.raises(DomainError, match=f"got p = {p}"):
            sample_class_d_batch(2, p, RngSpec(0), 4)


class TestBatchSizes:
    @pytest.mark.parametrize("count", [-1, 2.5, "3"])
    @pytest.mark.parametrize("sampler", ["class_d", "haar"])
    def test_negative_or_non_integer_count_is_contract_error(self, sampler, count):
        draw = {
            "class_d": lambda: sample_class_d_batch(2, 1.0, RngSpec(0), count),
            "haar": lambda: sample_haar_unitary_batch(2, RngSpec(0), count),
        }[sampler]
        with pytest.raises(ContractError, match=re.escape(f"count = {count!r}")):
            draw()

    def test_class_d_batch_needs_a_mode(self):
        with pytest.raises(DomainError, match="need modes >= 1, got modes = 0"):
            sample_class_d_batch(0, 1.0, RngSpec(0), 3)

    @pytest.mark.parametrize("count", [0, np.int64(2)])
    def test_zero_and_numpy_integer_counts_are_accepted(self, count):
        assert sample_class_d_batch(2, 1.0, RngSpec(0), count).shape == (count, 4, 4)
        assert sample_haar_unitary_batch(2, RngSpec(0), count).shape == (count, 2, 2)


class TestHaarSampler:
    def test_unitary_every_draw(self):
        us = sample_haar_unitary_batch(3, RngSpec(11), 100)
        res = np.abs(np.einsum("sij,skj->sik", us, us.conj()) - np.eye(3)).max()
        assert res < 1e-12

    def test_single_mode_phase_average(self):
        us = sample_haar_unitary_batch(1, RngSpec(12), 100_000)[:, 0, 0]
        se = us.real.std(ddof=1) / math.sqrt(us.size)
        assert abs(us.real.mean()) < 5 * se
        assert abs(us.imag.mean()) < 5 * se
        assert np.abs(np.abs(us) - 1.0).max() < 1e-12

    def test_first_moment_at_two_modes(self):
        us = sample_haar_unitary_batch(2, RngSpec(13), 100_000)
        x = np.abs(us[:, 0, 0]) ** 2
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 0.5) < 5 * se

    def test_determinism(self):
        assert np.array_equal(
            sample_haar_unitary_batch(3, RngSpec(2, 3), 1), sample_haar_unitary_batch(3, RngSpec(2, 3), 1)
        )


class TestRadialMcmc:
    def test_class_d_single_mode_second_moment(self):
        # density ~ exp(-2 p lam^2): E[lam^2] = 1 / (4p)
        p = 1.0
        run = sample_radial_mcmc(RadialLaw(CLASS_D, WeightSpec.gaussian(p)), 1, 40_000, RngSpec(21))
        mean, se = chain_moment_se(run, lambda row: row[0] ** 2)
        assert abs(mean - 1.0 / (4.0 * p)) < 5 * se
        assert se < 0.02
        assert 0.1 <= run.acceptance_rate <= 0.9
        assert run.warning is None

    def test_class_c_single_mode_against_quadrature(self):
        # density ~ lam^2 exp(-2 p lam^2); oracle pinned by 1-D quadrature
        from scipy.integrate import quad

        p = 1.0
        num, _ = quad(lambda t: t**4 * np.exp(-2 * p * t * t), -np.inf, np.inf)
        den, _ = quad(lambda t: t**2 * np.exp(-2 * p * t * t), -np.inf, np.inf)
        oracle = num / den  # equals 3 / (4p)
        assert abs(oracle - 3.0 / (4.0 * p)) < 1e-12
        run = sample_radial_mcmc(RadialLaw(CLASS_C, WeightSpec.gaussian(p)), 1, 40_000, RngSpec(22))
        mean, se = chain_moment_se(run, lambda row: row[0] ** 2)
        assert abs(mean - oracle) < 5 * se

    def test_class_d_two_modes_against_quadrature(self):
        p = 1.0
        order = 40
        x, w = np.polynomial.hermite.hermgauss(order)
        lam = x / math.sqrt(2.0 * p)
        l1, l2 = np.meshgrid(lam, lam, indexing="ij")
        ww = np.outer(w, w) * (l1**2 - l2**2) ** 2
        stats = {
            "sum_sq": l1**2 + l2**2,
            "repulsion": (l1**2 - l2**2) ** 2,
            "fourth": l1**4 + l2**4,
        }
        oracles = {k: float((ww * v).sum() / ww.sum()) for k, v in stats.items()}
        run = sample_radial_mcmc(RadialLaw(CLASS_D, WeightSpec.gaussian(p)), 2, 40_000, RngSpec(23))
        checks = {
            "sum_sq": lambda row: row[0] ** 2 + row[1] ** 2,
            "repulsion": lambda row: (row[0] ** 2 - row[1] ** 2) ** 2,
            "fourth": lambda row: row[0] ** 4 + row[1] ** 4,
        }
        for key, f in checks.items():
            mean, se = chain_moment_se(run, f)
            assert abs(mean - oracles[key]) < 5 * se, key

    def test_hermitian_jacobian_kinds(self):
        run = sample_radial_mcmc(RadialLaw(None, WeightSpec.nc_modified(1.0)), 2, 10_000, RngSpec(24))
        assert run.samples.shape == (10_000, 2)
        assert 0.1 <= run.acceptance_rate <= 0.9

    def test_determinism(self):
        a = sample_radial_mcmc(RadialLaw(CLASS_D, WeightSpec.gaussian(1.0)), 2, 500, RngSpec(3, 1), burn_in=500)
        b = sample_radial_mcmc(RadialLaw(CLASS_D, WeightSpec.gaussian(1.0)), 2, 500, RngSpec(3, 1), burn_in=500)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("burn_in, thin, steps, rows, total, first, last, rate", [
        (199, 1, 26, 50, 14.87955963438832, [-1.1639673505871933, 0.10884377510182908],
         [1.7702573094884233, 0.25249328413430827], 0.48),
        (450, 3, 60, 75, 12.410874029578306, [-0.3583797924957956, 1.2516494379198937],
         [0.07798781765918411, 0.697568664572694], 0.4711111111111111),
    ])
    def test_burn_in_off_the_tuning_window_is_pinned(self, burn_in, thin, steps, rows, total, first, last, rate):
        # exact values: the burn-in ends mid-window, and the acceptance count restarts where it ends
        law = RadialLaw(CLASS_D, WeightSpec.gaussian(1.0))
        run = sample_radial_mcmc(law, 2, steps, RngSpec(7), burn_in=burn_in, thin=thin)
        assert run.samples.shape == (rows, 2)  # 25 chains of ceil(steps / 25) draws
        assert float(run.samples.sum()) == total
        assert run.samples[0].tolist() == first and run.samples[-1].tolist() == last
        assert run.acceptance_rate == rate

    def test_determinant_weight_domain(self):
        with pytest.raises(DomainError, match="p > 1.25 required"):
            sample_radial_mcmc(RadialLaw(CLASS_D, WeightSpec.determinant(1.0)), 2, 100, RngSpec(0))
        run = sample_radial_mcmc(RadialLaw(CLASS_D, WeightSpec.determinant(2.0)), 2, 2_000, RngSpec(25))
        assert np.isfinite(run.samples).all()

    @pytest.mark.parametrize("p", [1e305, 1e300, 1e-308, 1e-320])
    @pytest.mark.parametrize("kind", ["gaussian", "nc_even"])
    def test_stiffness_outside_the_law_is_domain_error(self, kind, p):
        # class D redrew its start forever at 1e305 and 1e-320 (nc_even at 1e-320), and drew a biased law at
        # 1e300 and 1e-308
        with pytest.raises(DomainError, match=re.escape(f"got p = {p}")):
            sample_radial_mcmc(RadialLaw.of(CLASS_D, WeightSpec(kind, p)), 2, 50, RngSpec(0), burn_in=100)

    @staticmethod
    def _scale_free_mean(law: RadialLaw) -> float:
        """Mean of 4p sum lam^2 / (M (2M - 1)) over a two-mode walk: the same at every p of an exact walk."""
        run = sample_radial_mcmc(law, 2, 4000, RngSpec(1), burn_in=2000)
        return float(np.mean(4.0 * law.weight.p * (run.samples**2).sum(axis=1) / 6.0))

    @pytest.mark.parametrize("kind, floor", [("gaussian", 1e-300), ("nc_even", np.finfo(float).tiny)])
    def test_the_extreme_accepted_stiffness_draws_the_law_of_p_1(self, kind, floor):
        # squares near 1/(2p) sit a factor 1/eps inside the float range and above the pair floor;
        # the next float out on either side is refused
        info = np.finfo(float)
        low, high = 0.5 / (info.eps * info.max), 0.5 * info.eps / floor
        at_one = self._scale_free_mean(RadialLaw.of(CLASS_D, WeightSpec(kind, 1.0)))
        if kind == "gaussian":
            assert at_one == pytest.approx(0.99503891394881, abs=1e-14)
        for p, out in ((low, np.nextafter(low, 0.0)), (high, np.nextafter(high, np.inf))):
            with pytest.raises(DomainError, match=re.escape(f"got p = {out}")):
                RadialLaw.of(CLASS_D, WeightSpec(kind, out)).validate(2)
            extreme = self._scale_free_mean(RadialLaw.of(CLASS_D, WeightSpec(kind, p)))
            assert extreme == pytest.approx(at_one, rel=1e-12)

    def test_a_start_that_never_finds_a_finite_density_is_domain_error(self, monkeypatch):
        # the start is redrawn at most 64 times, as _polar_rotations redraws, where it once looped forever
        calls = []
        monkeypatch.setattr(RadialLaw, "log_density", lambda self, lam: calls.append(1) or np.full(len(lam), -np.inf))
        with pytest.raises(DomainError, match="no start state of finite density after 64 redraws at p = 1.0"):
            sample_radial_mcmc(RadialLaw(CLASS_D, WeightSpec.gaussian(1.0)), 2, 50, RngSpec(0), burn_in=0)
        assert len(calls) == 65

    def test_rejects_zero_steps(self):
        with pytest.raises(ContractError):
            sample_radial_mcmc(RadialLaw(CLASS_D, WeightSpec.gaussian(1.0)), 1, 0, RngSpec(0))


class TestWeightSpec:
    def test_kinds_and_validation(self):
        with pytest.raises(DomainError):
            WeightSpec("cauchy", 1.0)
        with pytest.raises(DomainError):
            WeightSpec.gaussian(-1.0)
        for p in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=f"got p = {p}"):
                WeightSpec.gaussian(p)

    def test_modified_weight_restores_parity(self):
        # Delta(lam)^2 * modified weight is even in each eigenvalue separately
        gen = RngSpec(26).generator()
        w = WeightSpec.nc_modified(1.0)
        for _ in range(20):
            lam = gen.normal(size=3)
            base = 2.0 * sum(
                math.log(abs(lam[i] - lam[j])) for i in range(3) for j in range(i + 1, 3)
            )
            total = base + w.log_weight(lam)
            flipped = lam * np.array([-1.0, 1.0, 1.0])
            base_f = 2.0 * sum(
                math.log(abs(flipped[i] - flipped[j])) for i in range(3) for j in range(i + 1, 3)
            )
            total_f = base_f + w.log_weight(flipped)
            assert abs(total - total_f) < 1e-10


#: One law of each Jacobian and weight kind; None is the hermitian Jacobian.
LAWS = [
    RadialLaw(CLASS_D, WeightSpec.gaussian(1.0)),
    RadialLaw(CLASS_C, WeightSpec.determinant(3.0)),
    RadialLaw(CLASS_DIII, WeightSpec.gaussian(0.7)),
    RadialLaw(CLASS_CI, WeightSpec.determinant(2.0)),
    RadialLaw(None, WeightSpec.nc_even(1.0)),
    RadialLaw(None, WeightSpec.nc_modified(1.3)),
]


def law_id(law: RadialLaw) -> str:
    return f"{law.jacobian.label if law.jacobian else 'hermitian'}-{law.weight.kind}"


class TestRadialLaw:
    """RadialLaw, the one radial law of the walk and the quadrature rule: its
    Jacobian against the products it stands for, pair by pair, its pairing of
    Jacobian and weight kind, its parity, and its bounds."""

    @pytest.mark.parametrize("modes", [1, 2, 3, 6])
    @pytest.mark.parametrize(
        "sym", [CLASS_D, CLASS_C, CLASS_DIII, CLASS_CI, None], ids=lambda s: s.label if s else "hermitian"
    )
    def test_matches_the_pairwise_product(self, sym, modes):
        lam = RngSpec(30).generator().normal(size=(50, modes))
        want = []
        for row in lam:
            pairs = [(row[i], row[j]) for i in range(modes) for j in range(i + 1, modes)]
            if sym is None:
                want.append(math.prod((a - b) ** 2 for a, b in pairs))
            else:
                repulsion = math.prod(abs(a * a - b * b) ** sym.beta for a, b in pairs)
                want.append(repulsion * math.prod(abs(row)) ** sym.alpha)
        law = RadialLaw.of(sym or CLASS_D, WeightSpec.nc_even(1.0) if sym is None else WeightSpec.gaussian(1.0))
        np.testing.assert_allclose(np.exp(law.log_jacobian(lam)), want, rtol=1e-12)

    def test_zeros_are_minus_infinity_without_warnings(self):
        rows = np.array([[0.3, 0.3, 1.0], [0.3, -0.3, 1.0], [0.0, 0.5, 1.0], [1e-301, 0.5, 1.0]])
        gauss = WeightSpec.gaussian(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            finite = {
                "D": np.isfinite(RadialLaw(CLASS_D, gauss).log_jacobian(rows)),
                "C": np.isfinite(RadialLaw(CLASS_C, gauss).log_jacobian(rows)),
                "hermitian": np.isfinite(RadialLaw(None, WeightSpec.nc_even(1.0)).log_jacobian(rows)),
                "nc_modified": np.isfinite(WeightSpec.nc_modified(1.0).log_weight(rows)),
            }
        assert {k: v.tolist() for k, v in finite.items()} == {
            "D": [False, False, True, True],
            "C": [False, False, False, False],
            "hermitian": [False, True, True, True],
            "nc_modified": [True, False, True, True],
        }

    @pytest.mark.parametrize(
        "sym, kind", [(CLASS_D, "nc_even"), (CLASS_C, "nc_modified"), (None, "gaussian"), (None, "determinant")]
    )
    def test_a_jacobian_of_the_other_kind_is_contract_error(self, sym, kind):
        # the nc_ kinds weigh the hermitian measure, the others a class measure
        with pytest.raises(ContractError, match="hermitian measure"):
            RadialLaw(sym, WeightSpec(kind, 3.0))

    def test_of_gives_the_nc_kinds_the_hermitian_jacobian(self):
        for kind in ("nc_even", "nc_modified"):
            assert RadialLaw.of(CLASS_D, WeightSpec(kind, 1.0)) == RadialLaw(None, WeightSpec(kind, 1.0))
        for sym in (CLASS_D, CLASS_C, CLASS_DIII, CLASS_CI):
            assert RadialLaw.of(sym, WeightSpec.gaussian(1.0)).jacobian is sym

    @pytest.mark.parametrize("law", LAWS, ids=law_id)
    def test_is_even_is_the_parity_of_the_density(self, law):
        # flipping the sign of one eigenvalue keeps an even density; nc_even's Delta(lam)^2 is the one it moves
        lam = RngSpec(32).generator().normal(size=(200, 3))
        kept = np.isclose(law.log_density(lam), law.log_density(lam * [-1.0, 1.0, 1.0]), rtol=1e-12, atol=1e-12)
        assert (kept.all(), kept.any()) == ((True, True) if law.is_even else (False, False))

    def test_validate_keeps_its_bounds_and_their_order(self):
        # the mode bound p > M - 0.75 first, then the fiber bound (2 beta (M - 1) + alpha + 1) / 4
        cases = [(CLASS_CI, 1.2, "p > 1.25"), (CLASS_DIII, 1.0, "p > 1.25"), (CLASS_DIII, 2.0, "p > 2.5")]
        for sym, p, bound in cases:
            with pytest.raises(DomainError, match=re.escape(f"finite {bound} required, got p = {p}")):
                RadialLaw(sym, WeightSpec.determinant(p)).validate(2)
        RadialLaw(CLASS_DIII, WeightSpec.determinant(2.6)).validate(2)
        RadialLaw(None, WeightSpec.nc_even(1e-3)).validate(6)  # no tail bound off the determinant weight

    @pytest.mark.parametrize("modes", [1, 2, 3, 4])
    def test_nc_modified_log_density_is_its_weight_plus_the_hermitian_pair_sum(self, modes):
        # bit for bit log_weight plus 2 sum_{i<j} log|lam_i - lam_j|, as the walk read it before the
        # law type: its accept decisions depend on this arithmetic, which class D at p/2 does not share
        lam = RngSpec(33).generator().normal(size=(400, modes))
        lam[0, :2] = 0.25  # a coincidence
        weight = WeightSpec.nc_modified(1.0)
        iu, ju = np.triu_indices(modes, 1)
        gap = np.abs(lam[:, iu] - lam[:, ju])
        with np.errstate(divide="ignore"):
            want = weight.log_weight(lam) + 2.0 * np.where(gap < 1e-300, -np.inf, np.log(gap)).sum(axis=-1)
        assert np.array_equal(RadialLaw(None, weight).log_density(lam), want)


class TestCartesianVersusRadial:
    @pytest.mark.parametrize("modes", [1, 2])
    def test_eigenvalue_moments_agree(self, modes):
        # polar eigenvalues of Cartesian draws vs the radial walker, first
        # three even moments of the pair representatives squared
        p = 1.0
        n_cart = 4_000
        gen = RngSpec(27).generator()
        lams = []
        for _ in range(n_cart):
            lams.append(polar_decompose(sample_class_d(modes, p, gen)).lambdas)
        lams = np.array(lams)

        run = sample_radial_mcmc(RadialLaw(CLASS_D, WeightSpec.gaussian(p)), modes, 40_000, RngSpec(28))

        for power in (2, 4, 6):
            cart_vals = (lams**power).mean(axis=1)
            blocks = cart_vals.reshape(20, -1).mean(axis=1)
            cart_mean = float(cart_vals.mean())
            cart_se = float(blocks.std(ddof=1) / math.sqrt(blocks.size))
            mc_mean, mc_se = chain_moment_se(run, lambda row: (np.abs(row) ** power).mean())
            comb = math.hypot(cart_se, mc_se)
            assert abs(cart_mean - mc_mean) < 5.0 * comb, power
