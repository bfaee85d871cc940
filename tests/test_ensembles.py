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
    RngSpec,
    WeightSpec,
    polar_decompose,
    sample_class_d,
    sample_class_d_batch,
    sample_haar_unitary_batch,
    sample_radial_mcmc,
    symmetry_class,
)
from fermigauss.ensembles import _log_jacobian, _upper_pairs


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
        run = sample_radial_mcmc(CLASS_D, WeightSpec.gaussian(p), 1, 40_000, RngSpec(21))
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
        run = sample_radial_mcmc(CLASS_C, WeightSpec.gaussian(p), 1, 40_000, RngSpec(22))
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
        run = sample_radial_mcmc(CLASS_D, WeightSpec.gaussian(p), 2, 40_000, RngSpec(23))
        checks = {
            "sum_sq": lambda row: row[0] ** 2 + row[1] ** 2,
            "repulsion": lambda row: (row[0] ** 2 - row[1] ** 2) ** 2,
            "fourth": lambda row: row[0] ** 4 + row[1] ** 4,
        }
        for key, f in checks.items():
            mean, se = chain_moment_se(run, f)
            assert abs(mean - oracles[key]) < 5 * se, key

    def test_hermitian_jacobian_kinds(self):
        run = sample_radial_mcmc(CLASS_D, WeightSpec.nc_modified(1.0), 2, 10_000, RngSpec(24))
        assert run.samples.shape == (10_000, 2)
        assert 0.1 <= run.acceptance_rate <= 0.9

    def test_determinism(self):
        a = sample_radial_mcmc(CLASS_D, WeightSpec.gaussian(1.0), 2, 500, RngSpec(3, 1), burn_in=500)
        b = sample_radial_mcmc(CLASS_D, WeightSpec.gaussian(1.0), 2, 500, RngSpec(3, 1), burn_in=500)
        assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("burn_in, thin, steps, rows, total, first, last, rate", [
        (199, 1, 26, 50, 14.87955963438832, [-1.1639673505871933, 0.10884377510182908],
         [1.7702573094884233, 0.25249328413430827], 0.48),
        (450, 3, 60, 75, 12.410874029578306, [-0.3583797924957956, 1.2516494379198937],
         [0.07798781765918411, 0.697568664572694], 0.4711111111111111),
    ])
    def test_burn_in_off_the_tuning_window_is_pinned(self, burn_in, thin, steps, rows, total, first, last, rate):
        # exact values: the burn-in ends mid-window, and the acceptance count restarts where it ends
        run = sample_radial_mcmc(CLASS_D, WeightSpec.gaussian(1.0), 2, steps, RngSpec(7), burn_in=burn_in, thin=thin)
        assert run.samples.shape == (rows, 2)  # 25 chains of ceil(steps / 25) draws
        assert float(run.samples.sum()) == total
        assert run.samples[0].tolist() == first and run.samples[-1].tolist() == last
        assert run.acceptance_rate == rate

    def test_determinant_weight_domain(self):
        with pytest.raises(DomainError, match="p > 1.25 required"):
            sample_radial_mcmc(CLASS_D, WeightSpec.determinant(1.0), 2, 100, RngSpec(0))
        run = sample_radial_mcmc(CLASS_D, WeightSpec.determinant(2.0), 2, 2_000, RngSpec(25))
        assert np.isfinite(run.samples).all()

    def test_rejects_zero_steps(self):
        with pytest.raises(ContractError):
            sample_radial_mcmc(CLASS_D, WeightSpec.gaussian(1.0), 1, 0, RngSpec(0))


class TestWeightSpec:
    def test_kinds_and_validation(self):
        with pytest.raises(DomainError):
            WeightSpec("cauchy", 1.0)
        with pytest.raises(DomainError):
            WeightSpec.gaussian(-1.0)
        for p in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=f"got p = {p}"):
                WeightSpec.gaussian(p)
        assert WeightSpec.determinant(2.0).is_even
        assert not WeightSpec.nc_modified(1.0).is_even
        assert WeightSpec.nc_even(1.0).uses_hermitian_jacobian

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


class TestRadialLaw:
    """ensembles._log_jacobian, the one radial law of the walk and the
    quadrature rule, against the products it stands for, pair by pair."""

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
        got = np.exp(_log_jacobian(sym or CLASS_D, sym is None, lam))
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_zeros_are_minus_infinity_without_warnings(self):
        rows = np.array([[0.3, 0.3, 1.0], [0.3, -0.3, 1.0], [0.0, 0.5, 1.0], [1e-301, 0.5, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            finite = {
                "D": np.isfinite(_log_jacobian(CLASS_D, False, rows)),
                "C": np.isfinite(_log_jacobian(CLASS_C, False, rows)),
                "hermitian": np.isfinite(_log_jacobian(CLASS_D, True, rows)),
                "nc_modified": np.isfinite(WeightSpec.nc_modified(1.0).log_weight(rows)),
            }
        assert {k: v.tolist() for k, v in finite.items()} == {
            "D": [False, False, True, True],
            "C": [False, False, False, False],
            "hermitian": [False, True, True, True],
            "nc_modified": [True, False, True, True],
        }


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

        run = sample_radial_mcmc(CLASS_D, WeightSpec.gaussian(p), modes, 40_000, RngSpec(28))

        for power in (2, 4, 6):
            cart_vals = (lams**power).mean(axis=1)
            blocks = cart_vals.reshape(20, -1).mean(axis=1)
            cart_mean = float(cart_vals.mean())
            cart_se = float(blocks.std(ddof=1) / math.sqrt(blocks.size))
            mc_mean, mc_se = chain_moment_se(run, lambda row: (np.abs(row) ** power).mean())
            comb = math.hypot(cart_se, mc_se)
            assert abs(cart_mean - mc_mean) < 5.0 * comb, power
