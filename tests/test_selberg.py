import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import betaln, gammaln

from fermigauss import (
    DomainError,
    selberg,
    RngSpec,
    angular_volume_log,
    cartesian_gaussian_integral_log,
    laguerre_selberg_log,
    norm_const_det_log,
    norm_const_gauss_log,
    radial_gaussian_integral_log,
    sample_class_d_batch,
    selberg_integral_log,
    vandermonde,
)
from fermigauss.verify import selberg_consistency_suite

pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")


def selberg_oracle_n1(a, b):
    val, _ = quad(lambda x: x ** (a - 1) * (1 + x) ** (-a - b), 0, np.inf)
    return val


def selberg_oracle_n2(a, b, g):
    """Defining integral mapped to the unit square via x = u / (1 - u)."""
    power = -a - b - 2.0 * g

    def integrand(u1, u2):
        x1 = u1 / (1 - u1)
        x2 = u2 / (1 - u2)
        jac = 1.0 / ((1 - u1) ** 2 * (1 - u2) ** 2)
        return abs(x1 - x2) ** (2 * g) * (x1 * x2) ** (a - 1) * ((1 + x1) * (1 + x2)) ** power * jac

    val, _ = dblquad(integrand, 0, 1, 0, 1, epsabs=1e-11, epsrel=1e-11)
    return val


def laguerre_oracle_n2(at, g):
    def integrand(x1, x2):
        return (
            abs(x1**2 - x2**2) ** (2 * g)
            * (x1 * x2) ** (2 * at - 1)
            * np.exp(-(x1 * x1 + x2 * x2) / 2)
        )

    val, _ = dblquad(integrand, 0, 14, 0, 14, epsabs=1e-11, epsrel=1e-11)
    return 4.0 * val


def gauss_hermite_2d(f, c, order=80):
    """Tensor rule for integrals of f(l1, l2) * exp(-c * (l1^2 + l2^2)) over R^2."""
    x, w = np.polynomial.hermite.hermgauss(order)
    lam = x / math.sqrt(c)
    l1, l2 = np.meshgrid(lam, lam, indexing="ij")
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    return float((f(l1, l2) * w1 * w2).sum() / c)


class TestVandermonde:
    def test_hand_value(self):
        assert vandermonde([1.0, 2.0, 3.0]) == -2.0

    def test_trivial_sequences(self):
        assert vandermonde([]) == 1.0
        assert vandermonde([5.0]) == 1.0

    def test_repeated_value_vanishes(self):
        assert vandermonde([2.0, 7.0, 2.0]) == 0.0


class TestSelbergIntegral:
    def test_n1_is_beta_function(self):
        for a, b in [(1.0, 1.0), (0.5, 2.0), (2.0, 3.0), (1.5, 0.75), (3.0, 1.0)]:
            assert abs(selberg_integral_log(a, b, 1.0, 1) - betaln(a, b)) < 1e-12
            oracle = selberg_oracle_n1(a, b)
            assert abs(math.exp(selberg_integral_log(a, b, 1.0, 1)) - oracle) / oracle < 1e-6

    @pytest.mark.parametrize(
        "a,b,g",
        [(1.0, 1.0, 1.0), (1.5, 2.0, 1.0), (2.0, 1.5, 0.5), (1.0, 2.0, 2.0), (2.5, 2.5, 1.0)],
    )
    def test_n2_matches_quadrature(self, a, b, g):
        oracle = selberg_oracle_n2(a, b, g)
        closed = math.exp(selberg_integral_log(a, b, g, 2))
        assert abs(closed - oracle) / oracle < 1e-6

    def test_reference_case(self):
        # (a, b, g, n) = (1, 1, 1, 2): the two gamma factors give 1/2 * 1/3
        assert abs(math.exp(selberg_integral_log(1.0, 1.0, 1.0, 2)) - 1.0 / 6.0) < 1e-14

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="a > 0"):
            selberg_integral_log(-1.0, 1.0, 1.0, 2)
        with pytest.raises(DomainError, match="b > 0"):
            selberg_integral_log(1.0, 0.0, 1.0, 2)
        with pytest.raises(DomainError, match="g >"):
            selberg_integral_log(1.0, 1.0, -0.6, 2)


class TestLaguerreSelberg:
    def test_n1_half_integer_is_sqrt_2pi(self):
        closed = math.exp(laguerre_selberg_log(0.5, 1.0, 1))
        assert abs(closed - math.sqrt(2.0 * math.pi)) < 1e-12
        oracle, _ = quad(lambda x: np.exp(-x * x / 2), -np.inf, np.inf)
        assert abs(closed - oracle) < 1e-9

    @pytest.mark.parametrize(
        "at,g", [(0.5, 1.0), (1.0, 1.0), (1.5, 1.0), (0.5, 2.0), (1.0, 0.5)]
    )
    def test_n2_matches_quadrature(self, at, g):
        oracle = laguerre_oracle_n2(at, g)
        closed = math.exp(laguerre_selberg_log(at, g, 2))
        assert abs(closed - oracle) / oracle < 1e-6

    def test_monotone_in_shape_parameter(self):
        vals = [laguerre_selberg_log(at, 1.0, 2) for at in (0.5, 1.0, 1.5, 2.0)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            laguerre_selberg_log(0.0, 1.0, 2)
        with pytest.raises(DomainError):
            laguerre_selberg_log(1.0, -0.5, 2)


class TestRadialGaussianIntegral:
    def test_single_mode(self):
        closed = math.exp(radial_gaussian_integral_log(1, 1.0))
        assert abs(closed - math.sqrt(math.pi / 2.0)) < 1e-12
        oracle, _ = quad(lambda lam: np.exp(-2.0 * lam * lam), -np.inf, np.inf)
        assert abs(closed - oracle) < 1e-9

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_two_modes_matches_quadrature(self, p):
        oracle = gauss_hermite_2d(lambda l1, l2: (l1**2 - l2**2) ** 2, 2.0 * p)
        closed = math.exp(radial_gaussian_integral_log(2, p))
        assert abs(closed - oracle) / oracle < 1e-8

    def test_alternate_exponent_fails_quadrature(self):
        # the circulating exponent -M(M - 1) is off by exactly (2p)^(M/2)
        p = 2.0
        oracle = gauss_hermite_2d(lambda l1, l2: (l1**2 - l2**2) ** 2, 2.0 * p)
        alt = math.exp(radial_gaussian_integral_log(2, p) + math.log(2.0 * p))
        assert abs(alt - oracle) / oracle > 0.5
        assert abs(alt / oracle - 2.0 * p) < 1e-7

    def test_p_scaling_exact(self):
        for m in (1, 2, 3):
            for p in (0.5, 3.0):
                shift = radial_gaussian_integral_log(m, p) - radial_gaussian_integral_log(m, 1.0)
                assert abs(shift + m * (m - 0.5) * math.log(p)) < 1e-12


class TestCartesianGaussianIntegral:
    def test_single_mode(self):
        assert abs(math.exp(cartesian_gaussian_integral_log(1, 1.0)) - math.sqrt(math.pi / 2.0)) < 1e-12

    def test_p_scaling_exponent(self):
        for m in (1, 2, 3):
            shift = cartesian_gaussian_integral_log(m, 3.0) - cartesian_gaussian_integral_log(m, 1.0)
            assert abs(shift + m * (2 * m - 1) / 2.0 * math.log(3.0)) < 1e-12

    def test_two_modes_importance_sampling(self):
        # draw from the sampler at stiffness q, reweight to p, and compare the
        # normalization; Tr[H^2] is evaluated from the assembled matrices
        p, q, m = 1.0, 0.5, 2
        n = 200_000
        mats = sample_class_d_batch(m, q, RngSpec(314), n)
        tr2 = np.einsum("sij,sij->s", mats, mats.conj()).real
        log_ratio = (q - p) * tr2 + cartesian_gaussian_integral_log(m, q)
        w = np.exp(log_ratio)
        est, se = w.mean(), w.std(ddof=1) / math.sqrt(n)
        closed = math.exp(cartesian_gaussian_integral_log(m, p))
        assert abs(est - closed) < 5.0 * se
        assert se / closed < 0.05


class TestAngularVolume:
    def test_single_mode_is_one(self):
        assert abs(angular_volume_log(1)) < 1e-12

    @pytest.mark.parametrize("modes", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
    def test_triple_identity(self, modes, p):
        gap = (
            angular_volume_log(modes)
            + radial_gaussian_integral_log(modes, p)
            - cartesian_gaussian_integral_log(modes, p)
        )
        assert abs(gap) < 1e-10

    def test_p_independent(self):
        for m in range(1, 7):
            r1 = cartesian_gaussian_integral_log(m, 1.0) - radial_gaussian_integral_log(m, 1.0)
            r3 = cartesian_gaussian_integral_log(m, 3.0) - radial_gaussian_integral_log(m, 3.0)
            assert abs(r1 - r3) < 1e-10


class TestNormalizationConstants:
    def test_det_single_mode_closed_value(self):
        # (2 / sqrt(pi)) Gamma(2) / Gamma(3/2) = 4 / pi at p = 1
        assert abs(math.exp(norm_const_det_log(1, 1.0)) - 4.0 / math.pi) < 1e-12

    def test_det_single_mode_normalizes(self):
        for p in (1.0, 1.5):
            c = math.exp(norm_const_det_log(1, p))
            val, _ = quad(lambda lam: (1 + lam * lam) ** (-2.0 * p), -np.inf, np.inf)
            assert abs(0.5 * c * val - 1.0) < 1e-9

    def test_det_composed_normalization(self):
        for m, p in [(1, 1.0), (2, 2.0), (3, 3.0)]:
            total = (
                -m * math.log(2.0)
                + angular_volume_log(m)
                + norm_const_det_log(m, p)
                + selberg_integral_log(0.5, 2 * p - 2 * m + 1.5, 1.0, m)
            )
            assert abs(total) < 1e-8

    def test_det_domain_error(self):
        with pytest.raises(DomainError, match="p > 1.25 required"):
            norm_const_det_log(2, 2.0 - 0.75)

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_det_non_finite_p(self, p):
        with pytest.raises(DomainError, match=f"p > 1.25 required, got p = {p}"):
            norm_const_det_log(2, p)

    @pytest.mark.parametrize("p", [0.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "closed_form", [radial_gaussian_integral_log, cartesian_gaussian_integral_log, norm_const_gauss_log]
    )
    def test_gauss_domain_errors(self, closed_form, p):
        with pytest.raises(DomainError, match=f"got p = {p}"):
            closed_form(2, p)

    def test_gauss_single_mode_closed_value(self):
        assert abs(math.exp(norm_const_gauss_log(1, 1.0)) - 2.0 * math.sqrt(2.0 / math.pi)) < 1e-12

    def test_gauss_single_mode_normalizes(self):
        c = math.exp(norm_const_gauss_log(1, 1.0))
        val, _ = quad(lambda lam: np.exp(-2.0 * lam * lam), -np.inf, np.inf)
        assert abs(0.5 * c * val - 1.0) < 1e-10

    def test_gauss_composed_normalization(self):
        for m in (1, 2, 3, 4):
            for p in (0.5, 1.0, 2.0):
                total = (
                    -m * math.log(2.0)
                    + angular_volume_log(m)
                    + norm_const_gauss_log(m, p)
                    + radial_gaussian_integral_log(m, p)
                )
                assert abs(total) < 1e-10

    def test_gauss_p_scaling(self):
        for m in (1, 2, 3):
            shift = norm_const_gauss_log(m, 3.0) - norm_const_gauss_log(m, 1.0)
            assert abs(shift - m * (m - 0.5) * math.log(3.0)) < 1e-12


LGAMMA_CASES = (
    [(selberg_integral_log, (a, b, g, n)) for a, b in [(0.3, 0.5), (2.5, 3.0)] for g in (-0.02, 0.5, 1.0, 2.0)
     for n in (1, 2, 6, 12)]
    + [(selberg_integral_log, (0.5, 2 * p - 2 * m + 1.5, 1.0, m)) for m, p in [(1, 1.0), (3, 3.0), (6, 6.0)]]
    + [(laguerre_selberg_log, (at, g, n)) for at in (0.5, 2.5) for g in (0.0, 0.5, 2.0) for n in (1, 6, 12)]
    + [(radial_gaussian_integral_log, (m, p)) for m in (1, 3, 6, 12) for p in (0.1, 1.0, 7.0)]
    + [(angular_volume_log, (m,)) for m in (1, 2, 6, 12)]
    + [(norm_const_det_log, (m, p)) for m in (1, 2, 6, 12) for p in (m, 13.0, 50.0)]
)


class TestLgammaAgainstScipy:
    """The closed forms take log-gamma from math.lgamma; scipy's gammaln is the oracle."""

    @pytest.mark.parametrize("closed_form, args", LGAMMA_CASES, ids=lambda v: getattr(v, "__name__", str(v)))
    def test_matches_gammaln(self, closed_form, args, monkeypatch):
        value = closed_form(*args)
        monkeypatch.setattr(selberg, "_lgamma", gammaln)
        reference = closed_form(*args)
        # relative, with the scale floored at 1 for values near zero
        assert abs(value - reference) <= 1e-13 * max(abs(reference), 1.0)


class TestLgammaContract:
    """_lgamma takes arrays of any shape: scipy's gammaln stands in for it above."""

    @pytest.mark.parametrize("x", [2.5, [0.5, 1.0, 7.25], [[1, 2], [3.5, 40]], np.arange(1, 13) * 0.5 - 0.25, []])
    def test_float64_of_the_input_shape_equal_to_math_lgamma(self, x):
        out, arr = selberg._lgamma(x), np.asarray(x, dtype=float)
        assert out.dtype == np.float64 and out.shape == arr.shape
        assert out.ravel().tolist() == [math.lgamma(v) for v in arr.ravel().tolist()]

    def test_a_pole_raises_value_error_which_the_exit_names(self):
        with pytest.raises(ValueError):
            selberg._lgamma(np.array([1.5, -2.0]))
        pole = selberg._finite_exit(lambda x: float(selberg._lgamma(x).sum()))
        with pytest.raises(DomainError, match="not a finite float"):
            pole(np.array([0.0]))


class TestStiffnessAtTheFloatRange:
    """The forms that take log(2p), log(2p / pi) or log(pi / (2p)) split the log
    only where that product or quotient is not a finite normal float."""

    FORMS = (radial_gaussian_integral_log, cartesian_gaussian_integral_log, norm_const_gauss_log)
    #: their values at M = 2 before the split, which an ordinary p keeps bit for bit
    ORDINARY = {
        "radial_gaussian_integral_log": ("0x1.250d048e7a1bcp+0", "-0x1.de9286b1f6a54p-1", "-0x1.0ec14e965af93p+2"),
        "cartesian_gaussian_integral_log": ("0x1.06216edde55a4p+1", "-0x1.026d4575573e0p-5", "-0x1.a9e7b0960da60p+1"),
        "norm_const_gauss_log": ("-0x1.52bd5b984e2b4p-1", "0x1.6af79a1b4e58ep+0", "0x1.2dace446efbabp+2"),
    }

    @pytest.mark.parametrize("modes", [1, 6])
    @pytest.mark.parametrize("p", [5e-324, 1e-320, 5e-309, 9e307, 1e308, np.finfo(float).max])
    @pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
    def test_every_finite_p_gives_a_finite_float(self, form, p, modes):
        assert math.isfinite(form(modes, p))

    @pytest.mark.parametrize("form", FORMS, ids=lambda f: f.__name__)
    def test_an_ordinary_p_keeps_its_bits(self, form):
        assert tuple(form(2, p).hex() for p in (0.5, 1.0, 3.0)) == self.ORDINARY[form.__name__]

    def test_the_split_agrees_with_the_product_at_its_edge(self):
        # 2p just inside and just outside the float range: the two routes meet
        p = np.finfo(float).max / 2
        assert radial_gaussian_integral_log(1, p) == pytest.approx(radial_gaussian_integral_log(1, p * 1.0000001))


class TestConsistencySuite:
    FORMS = ("angular_volume_log", "radial_gaussian_integral_log", "cartesian_gaussian_integral_log",
             "norm_const_gauss_log", "norm_const_det_log", "selberg_integral_log")

    def test_each_closed_form_value_is_computed_once(self, monkeypatch):
        # the suite looks every form up at its selberg name, so these spies see each call
        calls = []
        for name in self.FORMS:
            def spy(*args, name=name, fn=getattr(selberg, name)):
                calls.append((name, args))
                return fn(*args)

            monkeypatch.setattr(selberg, name, spy)
        results = selberg_consistency_suite(6)
        assert len(calls) == len(set(calls)) == 70
        assert {name for name, _ in calls} == set(self.FORMS)
        assert all(result.passed for result in results)
