"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each. Run with `pytest -s tests/test_acceptance.py` to see the
lines as they complete."""

import math
import time

import numpy as np
import pytest

from fermigauss import (
    CLASS_D,
    RngSpec,
    WeightSpec,
    operator_identity_suite,
    radial_gaussian_integral_log,
    shifted_weight_quadrature_deviation,
    verify_canonical_triviality,
    verify_nc_failure,
    verify_nc_modified,
    verify_resolution_mc,
    verify_resolution_quadrature,
)
from fermigauss import (
    angular_volume_log,
    cartesian_gaussian_integral_log,
    laguerre_selberg_log,
    selberg_integral_log,
)
from fermigauss.verify import FAILURE_FLOOR_FRACTION, _identity_gap, nc_even_target

from test_selberg import (
    gauss_hermite_2d,
    laguerre_oracle_n2,
    selberg_oracle_n1,
    selberg_oracle_n2,
)

pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")


def report(num, name, passed, extra=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} [{status}] {name} {extra}".rstrip())
    assert passed, f"acceptance criterion {num} failed: {name} {extra}"


def test_acceptance_1_resolution_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for modes in (1, 2):
        for weight in (WeightSpec.determinant(2.0), WeightSpec.gaussian(1.0)):
            rep = verify_resolution_quadrature(modes, CLASS_D, weight)
            worst = max(worst, rep.max_abs_deviation, rep.details["rotation_delta"])
            assert rep.passed, (modes, weight.kind)
    elapsed = time.perf_counter() - start
    report(
        1,
        "resolution of unity by quadrature (class D, determinant p=2 and gaussian p=1, M=1,2)",
        worst <= 1e-8 and elapsed < 10.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_acceptance_2_resolution_monte_carlo():
    start = time.perf_counter()
    details = []
    ok = True
    for modes in (1, 2, 3):
        rep = verify_resolution_mc(modes, 1.0, 200_000, RngSpec(20260810 + modes))
        ok = ok and rep.passed
        details.append(f"M={modes}: dev={rep.max_abs_deviation:.1e} band={rep.details['band_entries']}")
    elapsed = time.perf_counter() - start
    report(
        2,
        "resolution of unity by Monte Carlo (gaussian p=1, 2e5 samples, M=1..3)",
        ok and elapsed < 120.0,
        "; ".join(details) + f", {elapsed:.1f}s",
    )


def test_acceptance_3_closed_form_consistency():
    start = time.perf_counter()
    worst = 0.0
    for modes in range(1, 7):
        for p in (0.5, 1.0, 3.0):
            gap = abs(
                angular_volume_log(modes)
                + radial_gaussian_integral_log(modes, p)
                - cartesian_gaussian_integral_log(modes, p)
            )
            worst = max(worst, gap)
    # exponent-variant documentation: the shipped exponent matches quadrature
    # at one and two modes; the alternate integer exponent does not
    verdict_ok = True
    for modes, p in ((1, 1.0), (2, 1.0), (2, 2.0)):
        if modes == 1:
            from scipy.integrate import quad

            oracle, _ = quad(lambda lam: np.exp(-2.0 * p * lam * lam), -np.inf, np.inf)
        else:
            oracle = gauss_hermite_2d(lambda l1, l2: (l1**2 - l2**2) ** 2, 2.0 * p)
        closed = math.exp(radial_gaussian_integral_log(modes, p))
        # the circulating exponent -M(M - 1) instead of -M(M - 1/2)
        alt = math.exp(radial_gaussian_integral_log(modes, p) + 0.5 * modes * math.log(2.0 * p))
        verdict_ok = verdict_ok and abs(closed - oracle) / oracle < 1e-8
        verdict_ok = verdict_ok and abs(alt - oracle) / oracle > 0.1
    elapsed = time.perf_counter() - start
    report(
        3,
        "triple closed-form consistency (M=1..6, p=0.5/1/3) and exponent-variant verdict",
        worst <= 1e-10 and verdict_ok and elapsed < 1.0,
        f"max log gap {worst:.1e}, {elapsed:.2f}s",
    )


def test_acceptance_4_selberg_vs_quadrature():
    start = time.perf_counter()
    worst = 0.0
    for a, b in [(1.0, 1.0), (0.5, 2.0), (2.0, 3.0), (1.5, 0.75), (3.0, 1.0)]:
        oracle = selberg_oracle_n1(a, b)
        worst = max(worst, abs(math.exp(selberg_integral_log(a, b, 1.0, 1)) - oracle) / oracle)
    for a, b, g in [(1.0, 1.0, 1.0), (1.5, 2.0, 1.0), (2.0, 1.5, 0.5), (1.0, 2.0, 2.0), (2.5, 2.5, 1.0)]:
        oracle = selberg_oracle_n2(a, b, g)
        worst = max(worst, abs(math.exp(selberg_integral_log(a, b, g, 2)) - oracle) / oracle)
    for at, g in [(0.5, 1.0), (1.5, 1.0)]:
        from scipy.integrate import quad

        oracle, _ = quad(lambda x: abs(x) ** (2 * at - 1) * np.exp(-x * x / 2), -np.inf, np.inf)
        worst = max(worst, abs(math.exp(laguerre_selberg_log(at, g, 1)) - oracle) / oracle)
    for at, g in [(0.5, 1.0), (1.0, 1.0), (1.5, 1.0), (0.5, 2.0), (1.0, 0.5)]:
        oracle = laguerre_oracle_n2(at, g)
        worst = max(worst, abs(math.exp(laguerre_selberg_log(at, g, 2)) - oracle) / oracle)
    elapsed = time.perf_counter() - start
    report(
        4,
        "Selberg-type evaluators against adaptive quadrature (n=1,2)",
        worst <= 1e-6 and elapsed < 30.0,
        f"worst relative gap {worst:.1e}, {elapsed:.1f}s",
    )


def test_acceptance_5_operator_identities():
    start = time.perf_counter()
    results = operator_identity_suite(max_modes=3, seed=42, trials=50)
    elapsed = time.perf_counter() - start
    failures = [r.name for r in results if not r.passed]
    report(
        5,
        "operator identity suite (anticommutation, ordering, traces, positivity, composition)",
        not failures and elapsed < 60.0,
        f"{len(results)} checks, {elapsed:.1f}s" + (f", failures: {failures}" if failures else ""),
    )


def test_acceptance_6_canonical_triviality():
    start = time.perf_counter()
    betas = [0.0, 0.3, 0.7, 1.5]
    reps = verify_canonical_triviality(2, 1.0, betas, 200_000, RngSpec(606))
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in reps) and reps[0].details["beta_zero_exact_deviation"] <= 1e-14
    worst = max(r.details["max_sigma"] for r in reps)
    report(
        6,
        "canonical-mixture triviality (M=2, beta=0/0.3/0.7/1.5, 2e5 samples)",
        ok and elapsed < 180.0,
        f"worst per-beta max_sigma {worst:.2f}, {elapsed:.1f}s",
    )


def test_acceptance_7_number_conserving_dichotomy():
    start = time.perf_counter()
    # the even weight's mean is its exact target, away from 2^-M I: by quadrature at M = 2, by draws at M = 6
    fail_reps = [verify_nc_failure(2, 1.0), verify_nc_failure(6, 1.0, n_samples=4_000, rng=RngSpec(707))]
    floors = [FAILURE_FLOOR_FRACTION * _identity_gap(nc_even_target(m, 1.0)) for m in (2, 6)]
    mod_rep = verify_nc_modified(2, 1.0, 100_000, RngSpec(707))
    elapsed = time.perf_counter() - start
    gaps = [rep.details["identity_gap"] for rep in fail_reps]
    ok = (
        all(rep.passed for rep in fail_reps)
        and all(gap >= floor > 0.0 for gap, floor in zip(gaps, floors))
        and mod_rep.passed
    )
    report(
        7,
        "number-conserving dichotomy (even weight reaches its exact target above the floor; modified weight converges)",
        ok and elapsed < 120.0,
        f"M = 2 / 6 gaps {gaps[0]:.4f} / {gaps[1]:.4f} >= floors {floors[0]:.4f} / {floors[1]:.4f}, "
        f"modified dev {mod_rep.max_abs_deviation:.1e}, {elapsed:.1f}s",
    )


def test_acceptance_8_parity_hypothesis_necessity():
    start = time.perf_counter()
    dev1 = shifted_weight_quadrature_deviation(1, CLASS_D, 1.0, 0.5)
    dev2 = shifted_weight_quadrature_deviation(2, CLASS_D, 1.0, 0.5)
    even_dev = shifted_weight_quadrature_deviation(1, CLASS_D, 1.0, 0.0)
    elapsed = time.perf_counter() - start
    ok = dev1 >= 10.0 * 1e-8 and dev2 >= 10.0 * 1e-8 and even_dev <= 1e-8
    report(
        8,
        "non-even weight breaks the quadrature resolution by at least ten times its tolerance",
        ok,
        f"shifted dev M=1 {dev1:.2e}, M=2 {dev2:.2e}, even {even_dev:.1e}, {elapsed:.1f}s",
    )
