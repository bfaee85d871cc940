import numpy as np
import pytest

from fermigauss import (
    CLASS_C,
    CLASS_CI,
    CLASS_D,
    CLASS_DIII,
    ContractError,
    RngSpec,
    WeightSpec,
    nc_even_weight_quadrature,
    operator_identity_suite,
    random_polar_rotation,
    selberg_consistency_suite,
    shifted_weight_quadrature_deviation,
    verify_canonical_triviality,
    verify_nc_failure,
    verify_nc_modified,
    verify_resolution_mc,
    verify_resolution_quadrature,
)
from fermigauss.verify import _closest_identity_multiple, load_failure_floor


class TestResolutionQuadrature:
    def test_single_mode_no_rotation_tight(self):
        rep = verify_resolution_quadrature(1, CLASS_D, WeightSpec.gaussian(1.0))
        assert rep.max_abs_deviation < 1e-10
        assert rep.passed

    def test_two_modes_with_rotation(self):
        rotation = random_polar_rotation(2, RngSpec(77))
        rep = verify_resolution_quadrature(2, CLASS_D, WeightSpec.gaussian(1.0), rotation)
        assert rep.max_abs_deviation < 1e-8
        assert rep.details["rotation_delta"] < 1e-8
        assert rep.passed

    def test_class_c_single_mode(self):
        rep = verify_resolution_quadrature(1, CLASS_C, WeightSpec.gaussian(1.0))
        assert rep.max_abs_deviation < 1e-8
        assert rep.passed

    @pytest.mark.parametrize("sym", [CLASS_D, CLASS_C, CLASS_DIII, CLASS_CI])
    @pytest.mark.parametrize("modes", [1, 2])
    def test_every_class_both_mode_counts(self, sym, modes):
        rep = verify_resolution_quadrature(modes, sym, WeightSpec.gaussian(1.0))
        assert rep.max_abs_deviation < 1e-8, (sym.label, modes)
        assert rep.passed

    def test_determinant_weight(self):
        for modes in (1, 2):
            rep = verify_resolution_quadrature(modes, CLASS_D, WeightSpec.determinant(2.0))
            assert rep.max_abs_deviation < 1e-8
            assert rep.passed

    def test_odd_mode_coefficients_vanish(self):
        rep = verify_resolution_quadrature(2, CLASS_D, WeightSpec.gaussian(1.0))
        assert max(rep.details["odd_mode_coefficients"]) < 1e-10

    def test_non_even_weight_rejected(self):
        with pytest.raises(ContractError, match="even"):
            verify_resolution_quadrature(2, CLASS_D, WeightSpec.nc_modified(1.0))

    def test_mode_cap(self):
        with pytest.raises(ContractError):
            verify_resolution_quadrature(3, CLASS_D, WeightSpec.gaussian(1.0))

    def test_shifted_weight_breaks_resolution(self):
        dev = shifted_weight_quadrature_deviation(1, CLASS_D, 1.0, 0.5)
        assert dev > 10.0 * 1e-8
        dev2 = shifted_weight_quadrature_deviation(2, CLASS_D, 1.0, 0.5)
        assert dev2 > 10.0 * 1e-8
        # restoring evenness restores the resolution
        assert shifted_weight_quadrature_deviation(1, CLASS_D, 1.0, 0.0) < 1e-10


class TestResolutionMc:
    def test_small_run_passes(self):
        rep = verify_resolution_mc(1, 1.0, 30_000, RngSpec(101))
        assert rep.passed
        assert rep.samples >= 30_000
        assert rep.per_entry_se is not None

    def test_zero_samples_rejected(self):
        with pytest.raises(ContractError):
            verify_resolution_mc(1, 1.0, 0, RngSpec(0))

    def test_deterministic(self):
        a = verify_resolution_mc(2, 1.0, 8_000, RngSpec(7, 3))
        b = verify_resolution_mc(2, 1.0, 8_000, RngSpec(7, 3))
        assert np.array_equal(a.mean.matrix, b.mean.matrix)
        assert np.array_equal(a.per_entry_se, b.per_entry_se)

    def test_worker_count_invariance(self):
        a = verify_resolution_mc(2, 1.0, 20_000, RngSpec(8), workers=1)
        b = verify_resolution_mc(2, 1.0, 20_000, RngSpec(8), workers=3)
        assert np.array_equal(a.mean.matrix, b.mean.matrix)
        assert np.array_equal(a.per_entry_se, b.per_entry_se)

    def test_worker_count_invariance_at_six_modes(self):
        # the 64 x 64 eigenpair rebuilds are BLAS matrix products
        a = verify_resolution_mc(6, 1.0, 64, RngSpec(8), workers=1)
        b = verify_resolution_mc(6, 1.0, 64, RngSpec(8), workers=2)
        assert np.array_equal(a.mean.matrix, b.mean.matrix)
        assert np.array_equal(a.per_entry_se, b.per_entry_se)

    def test_agrees_with_quadrature_target(self):
        # joint check of the Cartesian measure and the radial-plus-angular one
        mc = verify_resolution_mc(2, 1.0, 40_000, RngSpec(9))
        quad = verify_resolution_quadrature(2, CLASS_D, WeightSpec.gaussian(1.0))
        dev = np.abs(mc.mean.matrix - quad.mean.matrix)
        gate = 5.0 * np.maximum(mc.per_entry_se, 1e-12)
        assert (dev <= gate).all()


class TestCanonicalTriviality:
    def test_beta_zero_exact_and_family_consistent(self):
        betas = [0.0, 0.4, 1.0]
        reps = verify_canonical_triviality(2, 1.0, betas, 30_000, RngSpec(55))
        assert all(r.passed for r in reps)
        assert reps[0].details["beta_zero_exact_deviation"] <= 1e-14
        for rep in reps:
            assert rep.details["pairwise_max_sigma"] < 5.0

    def test_empty_betas_rejected(self):
        with pytest.raises(ContractError):
            verify_canonical_triviality(2, 1.0, [], 1000, RngSpec(0))


class TestNcFailure:
    def test_residual_exceeds_golden_floor(self):
        rep = verify_nc_failure(2, 1.0)
        assert rep.passed
        golden = load_failure_floor(2, 1.0)
        assert rep.max_abs_deviation >= golden["failure_floor"]
        # quadrature residual reproduces the scalar-oracle value
        assert abs(rep.max_abs_deviation - golden["oracle_residual"]) < 1e-6

    def test_residual_sits_in_number_sector(self):
        rep = verify_nc_failure(2, 1.0)
        assert rep.details["sector_residual"] < 1e-9

    def test_single_mode_stays_proportional_to_identity(self):
        q, _ = nc_even_weight_quadrature(1, 1.0)
        _, residual = _closest_identity_multiple(q)
        assert residual < 1e-10

    def test_other_mode_counts_rejected(self):
        with pytest.raises(ContractError):
            verify_nc_failure(3, 1.0)


class TestNcModified:
    def test_two_modes_converges(self):
        rep = verify_nc_modified(2, 1.0, 30_000, RngSpec(66))
        assert rep.passed

    def test_single_mode_reduces_to_plain_even_weight(self):
        rep = verify_nc_modified(1, 1.0, 20_000, RngSpec(67))
        assert rep.passed
        assert np.abs(rep.mean.matrix - np.eye(2) / 2.0).max() < 0.02

    def test_rotation_stream_independence(self):
        a = verify_nc_modified(2, 1.0, 20_000, RngSpec(68))
        b = verify_nc_modified(2, 1.0, 20_000, RngSpec(69))
        dev = np.abs(a.mean.matrix - b.mean.matrix)
        comb = np.sqrt(a.per_entry_se**2 + b.per_entry_se**2)
        assert (dev <= 5.0 * np.maximum(comb, 1e-12)).all()

    def test_worker_count_invariance(self):
        a = verify_nc_modified(2, 1.0, 12_000, RngSpec(70), workers=1)
        b = verify_nc_modified(2, 1.0, 12_000, RngSpec(70), workers=4)
        assert np.array_equal(a.mean.matrix, b.mean.matrix)


def _modified_weight_moments(lam: np.ndarray) -> np.ndarray:
    """Per-sample sum lam^2, sum lam^4, (lam1^2 - lam2^2)^2, lam1 and lam1 lam2."""
    l1, l2 = lam[..., 0], lam[..., 1]
    return np.stack(
        [l1**2 + l2**2, l1**4 + l2**4, (l1**2 - l2**2) ** 2, l1, l1 * l2], axis=-1
    )


def _modified_weight_oracle(p: float, order: int = 20) -> np.ndarray:
    """The same moments under (lam1 - lam2)^2 (lam1 + lam2)^2 exp(-p sum lam^2),
    by a tensor Gauss-Hermite rule (exact for these polynomial integrands)."""
    x, w = np.polynomial.hermite.hermgauss(order)
    lam, wts = x / np.sqrt(p), w / np.sqrt(p)
    l1, l2 = np.meshgrid(lam, lam, indexing="ij")
    dens = np.outer(wts, wts) * (l1 - l2) ** 2 * (l1 + l2) ** 2
    moments = _modified_weight_moments(np.stack([l1, l2], axis=-1))
    return np.einsum("ij,ijk->k", dens, moments) / dens.sum()


class TestNcModifiedSampler:
    @staticmethod
    def _sigmas(lam: np.ndarray, p: float) -> np.ndarray:
        vals = _modified_weight_moments(lam)
        se = vals.std(axis=0, ddof=1) / np.sqrt(vals.shape[0])
        return np.abs(vals.mean(axis=0) - _modified_weight_oracle(p)) / se

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_moments_match_quadrature(self, p):
        rep = verify_nc_modified(2, p, 40_000, RngSpec(71), keep_samples=True)
        assert (self._sigmas(rep.details["lambda_samples"], p) <= 5.0).all()

    def test_unsigned_samples_fail_odd_moments(self):
        # without the random signs the draws sit in the positive quadrant
        rep = verify_nc_modified(2, 1.0, 40_000, RngSpec(71), keep_samples=True)
        sig = self._sigmas(np.abs(rep.details["lambda_samples"]), 1.0)
        assert (sig[3:] > 5.0).all()


class TestBatchedPaths:
    def test_ncons_batch_matches_public_op(self):
        from fermigauss import gaussian_number_conserving, sample_haar_unitary
        from fermigauss.verify import _rotated_ncons_ops

        gen = RngSpec(99).generator()
        for modes in (1, 2, 3):
            lam = gen.normal(size=(1, modes))
            u = sample_haar_unitary(modes, gen)
            batch = _rotated_ncons_ops(lam, u)[0]
            h = u @ np.diag(lam[0]) @ u.conj().T
            assert np.abs(batch - gaussian_number_conserving(h).matrix).max() < 1e-13

    def test_gaussian_batch_matches_public_op_with_rotation(self):
        from fermigauss import gaussian_normalized, make_bdg
        from fermigauss.verify import _rotated_gaussian_ops

        gen = RngSpec(98).generator()
        for modes in (1, 2):
            lam = np.abs(gen.normal(size=(1, modes))) + 0.3
            rot = random_polar_rotation(modes, gen)
            batch = _rotated_gaussian_ops(lam, rot.bogoliubov)[0]
            u = rot.bogoliubov
            mat = u.conj().T @ np.diag(np.concatenate([lam[0], -lam[0]])) @ u
            bdg = make_bdg(mat[:modes, :modes], mat[:modes, modes:])
            assert np.abs(batch - gaussian_normalized(bdg).matrix).max() < 1e-13


class TestSuites:
    def test_operator_identity_suite_is_green(self):
        results = operator_identity_suite(max_modes=3, seed=42, trials=20)
        for res in results:
            assert res.passed, f"{res.name}: {res.measured} > {res.tolerance}"

    @pytest.mark.parametrize("seed", [32, 51, 52, 57])
    def test_operator_identity_suite_green_at_large_draw_seeds(self, seed):
        # these seeds draw h1, h2 whose unscaled norms exceed compose_number_conserving's gate
        for res in operator_identity_suite(max_modes=3, seed=seed):
            assert res.passed, f"{res.name}: {res.measured} > {res.tolerance}"

    def test_selberg_consistency_suite_is_green(self):
        for res in selberg_consistency_suite(max_modes=6):
            assert res.passed, res.name
