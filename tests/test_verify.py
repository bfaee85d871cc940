import collections
import dataclasses
import inspect
import itertools
import json
import math
import re
import threading
import time
import warnings

import numpy as np
import pytest
from oracles import break_phase, quadratic_tensor, rotated_gaussian_blocks, rotated_ncons_blocks
from scipy.special import gammaln
from test_ensembles import chain_moment_se

from fermigauss import (
    CapacityError,
    NonConvergenceError,
    CLASS_C,
    CLASS_CI,
    CLASS_D,
    CLASS_DIII,
    ContractError,
    DomainError,
    PolarForm,
    RadialLaw,
    RngSpec,
    StructureError,
    SymmetryClass,
    WeightSpec,
    make_bdg,
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
from fermigauss import ensembles, gaussian, sample_class_d_batch, sample_radial_mcmc
from fermigauss import oracle
from fermigauss import verify as verify_module
from fermigauss.cli import run
from fermigauss.ensembles import (
    _haar_unitaries,
    _normal_parts,
    class_d_pair_values,
    sample_haar_unitary_batch,
)
from fermigauss.fock import (
    embed_parity_blocks,
    from_eigenpairs,
    quadratic_hamiltonian_batch,
)
from fermigauss.gaussian import assemble_blocks
from fermigauss.oracle import ORACLE_ORDER, _andreief_means
from fermigauss.selberg import laguerre_selberg_log, selberg_integral_log
from fermigauss.verify import (
    FAILURE_FLOOR_FRACTION,
    CriterionResult,
    EstimatorReport,
    FOCK_CHECK_DRAWS,
    FOCK_CHECK_TOL,
    QUAD_TOL,
    _chunk_estimate,
    _chunk_layout,
    _entry_gate,
    _fock_check,
    _ncons_eigenvectors,
    _run_chunks,
    _identity_gap,
    filling_moments,
    nc_even_target,
    radial_quadrature_nodes,
)


class TestResolutionQuadrature:
    def test_single_mode_no_rotation_tight(self):
        rep = verify_resolution_quadrature(1, CLASS_D, WeightSpec.gaussian(1.0))
        assert rep.max_abs_deviation < 1e-10
        assert rep.passed
        assert list(rep.details.items())[-1] == ("tolerance", QUAD_TOL)

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

    @pytest.mark.parametrize("seed, swaps", [(None, False), (0, False), (1, True)])
    def test_rotation_delta_alone_catches_a_skewed_rule(self, monkeypatch, seed, swaps):
        # nodes with lam_1 > 0 weigh 1 + 1e-7 too much; at M = 1 the second
        # rotation swaps particle and hole against the first, whether or not
        # the first swaps, and moves the mean the other way, so the two
        # rotations differ by twice the deviation, which alone stays within the bound
        rotation = None if seed is None else random_polar_rotation(1, RngSpec(seed))
        bogoliubov = np.eye(2) if rotation is None else rotation.bogoliubov
        assert abs(bogoliubov[0, 0]) == (0.0 if swaps else 1.0)
        real = verify_module.radial_quadrature_nodes

        def skewed(*args):
            pts, wts = real(*args)
            return pts, wts * np.where(pts[:, 0] > 0.0, 1.0 + 1e-7, 1.0)

        monkeypatch.setattr(verify_module, "radial_quadrature_nodes", skewed)
        rep = verify_resolution_quadrature(1, CLASS_C, WeightSpec.gaussian(1.0), rotation)
        assert [b.name for b in rep.bounds if not b.passed] == ["rotation_delta"]
        assert rep.details["rotation_delta"] == pytest.approx(2.0 * rep.max_abs_deviation, rel=1e-6)

    def test_odd_mode_coefficients_vanish(self):
        rep = verify_resolution_quadrature(2, CLASS_D, WeightSpec.gaussian(1.0))
        assert max(rep.details["odd_mode_coefficients"]) < 1e-10

    def test_non_even_weight_rejected(self):
        with pytest.raises(ContractError, match="even"):
            verify_resolution_quadrature(2, CLASS_D, WeightSpec.nc_modified(1.0))

    def test_mode_cap(self):
        with pytest.raises(ContractError):
            verify_resolution_quadrature(3, CLASS_D, WeightSpec.gaussian(1.0))

    def test_rotation_of_another_mode_count_is_contract_error(self):
        rotation = random_polar_rotation(1, RngSpec(1))
        with pytest.raises(ContractError, match="rotation acts on 1 modes, but the run has modes = 2"):
            verify_resolution_quadrature(2, CLASS_D, WeightSpec.gaussian(1.0), rotation)

    @pytest.mark.parametrize("modes, sym", [(2, CLASS_D), (1, CLASS_C)])
    @pytest.mark.parametrize("offset, named", [(math.nan, "nan"), (math.inf, "inf")])
    def test_extreme_offset_is_domain_error_without_warning(self, modes, sym, offset, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match=re.escape(f"offset = {named}")):
                shifted_weight_quadrature_deviation(modes, sym, 1.0, offset)
        assert caught == []

    @pytest.mark.parametrize("modes", range(1, 7))
    def test_shifted_weight_breaks_resolution(self, modes):
        assert shifted_weight_quadrature_deviation(modes, CLASS_D, 1.0, 0.5) > 10.0 * 1e-8
        # restoring evenness restores the resolution, to rounding in both beta = 2 classes
        for sym in (CLASS_D, CLASS_C):
            assert shifted_weight_quadrature_deviation(modes, sym, 1.0, 0.0) <= 1e-15

    # the 120-node rule's values at offset 0.5, M = 1..6
    SHIFTED_AT_HALF = {
        ("D", 1.0): [0.11597605106534453, 0.20050693862761992, 0.2267614875194245,
                     0.22251262591183218, 0.20544489650005907, 0.18450159566926835],
        ("D", 0.05): [0.07024286492211662, 0.14445039094918666, 0.1682583740359187,
                      0.16512823119068154, 0.15075838926871668, 0.13314279219539743],
        ("C", 1.0): [0.2220768656838008, 0.30555641875120176, 0.31972359124253624,
                     0.30332196864700756, 0.27571843741741003, 0.2459148893667481],
        ("C", 0.05): [0.1597953320833166, 0.22716879957015934, 0.23860492434695413,
                      0.22438405669805417, 0.20087684712632392, 0.17584127083293852],
    }

    @pytest.mark.parametrize("p", [1.0, 0.05])
    @pytest.mark.parametrize("sym", [CLASS_D, CLASS_C], ids=lambda s: s.label)
    def test_shifted_weight_keeps_its_values_under_the_doubling_check(self, sym, p):
        # the check reads the 240-node rule; the value stays the 120-node rule's, bit for bit
        devs = [shifted_weight_quadrature_deviation(m, sym, p, 0.5) for m in range(1, 7)]
        assert devs == self.SHIFTED_AT_HALF[sym.label, p]

    def test_shifted_weight_that_has_not_converged_raises(self):
        # at p = 1e-4 the 120-node rule gave 0.010062, and 240 nodes 0.010576
        with pytest.raises(NonConvergenceError, match="displaced-weight oracle moved"):
            shifted_weight_quadrature_deviation(3, CLASS_D, 1e-4, 1.0)

    @pytest.mark.parametrize("modes, sym", [(1, CLASS_DIII), (2, CLASS_CI)], ids=["DIII-1", "CI-2"])
    def test_shifted_weight_beyond_beta_two_is_contract_error(self, modes, sym):
        # the Andreief oracle squares one Vandermonde: beta = 4 and 1 need de Bruijn's Pfaffian form
        with pytest.raises(ContractError, match=re.escape(f"beta = 2 classes (D, C), not class {sym.label}")):
            shifted_weight_quadrature_deviation(modes, sym, 1.0, 0.5)


def _radial_total_log(sym, weight, modes):
    """Log of the integral of the radial density times the weight over R^modes,
    from the closed forms: Laguerre-Selberg for exp(-2p lam^2) (rescaled from
    exp(-x^2/2) by x = 2 sqrt(p) lam), Selberg in x = lam^2 for the determinant
    weight, and Mehta's integral for Delta(lam)^2 exp(-p lam^2)."""
    a, b, p = sym.alpha, sym.beta, weight.p
    if weight.kind == "gaussian":
        scale_power = modes * (1 + a) + b * modes * (modes - 1)
        return laguerre_selberg_log((a + 1) / 2, b / 2, modes) - scale_power * math.log(2.0 * math.sqrt(p))
    if weight.kind == "determinant":
        return selberg_integral_log((a + 1) / 2, 2 * p - (a + 1) / 2 - b * (modes - 1), b / 2, modes)
    mehta = 0.5 * modes * math.log(2.0 * math.pi) + gammaln(np.arange(2, modes + 2)).sum()
    return mehta - 0.5 * modes**2 * math.log(2.0 * p)


class TestRadialQuadratureNodes:
    """The one radial rule, ORACLE_ORDER nodes per one-mode rule, against
    closed forms, branch by branch: D and C take the plain tensor rule, DIII
    and one-mode CI the sign fold, two-mode CI the ordered sector, and nc_even
    the hermitian Jacobian."""

    @staticmethod
    def _relative_error(sym, weight, modes):
        _, wts = radial_quadrature_nodes(RadialLaw.of(sym, weight), modes)
        return abs(math.expm1(math.log(wts.sum()) - _radial_total_log(sym, weight, modes)))

    @pytest.mark.parametrize("sym", [CLASS_D, CLASS_C, CLASS_DIII, CLASS_CI], ids=lambda s: s.label)
    @pytest.mark.parametrize("modes", [1, 2])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_gaussian_weight_total(self, sym, modes, p):
        assert self._relative_error(sym, WeightSpec.gaussian(p), modes) < 1e-12

    @pytest.mark.parametrize("sym", [CLASS_D, CLASS_C, CLASS_DIII, CLASS_CI], ids=lambda s: s.label)
    @pytest.mark.parametrize("modes", [1, 2])
    @pytest.mark.parametrize("above", [2.0, 3.0])
    def test_determinant_weight_total(self, sym, modes, above):
        # p sits `above` the integrability edge: close to the edge the
        # tan-mapped rule converges slowly (two-mode CI at p = 2 was 1.6e-11 off
        # at 60 nodes)
        edge = max(modes - 0.75, (2 * sym.beta * (modes - 1) + sym.alpha + 1) / 4.0)
        assert self._relative_error(sym, WeightSpec.determinant(edge + above), modes) < 1e-12

    @pytest.mark.parametrize("modes", [1, 2])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_hermitian_measure_total(self, modes, p):
        assert self._relative_error(CLASS_D, WeightSpec.nc_even(p), modes) < 1e-12

    def test_node_counts(self):
        gauss = WeightSpec.gaussian(1.0)
        counts = {
            s.label: [radial_quadrature_nodes(RadialLaw(s, gauss), m)[0].shape for m in (1, 2)]
            for s in (CLASS_D, CLASS_C, CLASS_DIII, CLASS_CI)
        }
        n = ORACLE_ORDER
        assert counts == {
            "D": [(n, 1), (n**2, 2)],
            "C": [(n, 1), (n**2, 2)],
            "DIII": [(2 * n, 1), (4 * n**2, 2)],
            "CI": [(2 * n, 1), (8 * n**2, 2)],
        }

    def test_the_oracle_owns_the_one_rule(self):
        # the rule is a constant of its law: no order to pass, cap or double
        assert list(inspect.signature(oracle.radial_quadrature_nodes).parameters) == ["law", "modes"]
        assert [name for name in ("MAX_QUAD_ORDER", "_gauss_rule", "_doubled") if hasattr(oracle, name)] == []
        assert verify_module.radial_quadrature_nodes is oracle.radial_quadrature_nodes

    def test_rejects_three_modes_and_the_modified_weight(self):
        with pytest.raises(ContractError, match="one or two modes"):
            radial_quadrature_nodes(RadialLaw(CLASS_D, WeightSpec.gaussian(1.0)), 3)
        with pytest.raises(ContractError, match="nc_modified"):
            radial_quadrature_nodes(RadialLaw(None, WeightSpec.nc_modified(1.0)), 2)

    @pytest.mark.parametrize(
        "weight", [WeightSpec.gaussian(1e-300), WeightSpec.gaussian(1e300), WeightSpec.determinant(1e300)]
    )
    def test_rule_outside_float64_is_domain_error(self, weight):
        with pytest.raises(DomainError, match=re.escape(f"{weight.kind} weight at p = {weight.p}")):
            radial_quadrature_nodes(RadialLaw(CLASS_D, weight), 2)

    @pytest.mark.parametrize("modes", [1, 2])
    @pytest.mark.parametrize(
        "sym, kind",
        [(sym, kind) for sym in (CLASS_D, CLASS_C, CLASS_DIII, CLASS_CI) for kind in ("gaussian", "determinant")]
        + [(None, "nc_even"), (None, "nc_modified")],
        ids=lambda x: getattr(x, "label", x),
    )
    def test_every_rule_is_finite_or_a_named_error(self, sym, kind, modes):
        # 10 laws from p = 1e-300 to 1e300: no reachable rule has every node on
        # a zero of the density, so a total weight of 0 is an underflow, which
        # the DomainError names; nc_modified has no one-mode rule
        outcomes = collections.Counter()
        for p in np.logspace(-300, 300, 25):
            law = RadialLaw(sym, WeightSpec(kind, float(p)))
            try:
                points, weights = radial_quadrature_nodes(law, modes)
            except DomainError as err:
                assert "outside float64" in str(err), (law, modes)
                outcomes["domain"] += 1
                continue
            except ContractError as err:
                assert kind == "nc_modified" and "no per-mode quadrature rule" in str(err), (law, modes)
                outcomes["contract"] += 1
                continue
            assert np.isfinite(points).all() and np.isfinite(weights).all(), (law, modes)
            assert 0.0 < weights.sum() < math.inf, (law, modes)
            outcomes["rule"] += 1
        if kind == "nc_modified":
            assert outcomes == {"contract": 25}
        else:
            # every two-mode law leaves float64 somewhere in the sweep
            assert outcomes["rule"] > 0 and "contract" not in outcomes and (modes == 1 or outcomes["domain"] > 0)

def _same_report(a: EstimatorReport, b: EstimatorReport) -> bool:
    """Bit for bit the same mean, bounds, details and points."""
    return (
        np.array_equal(a.mean.matrix, b.mean.matrix)
        and [dataclasses.astuple(x) for x in a.bounds] == [dataclasses.astuple(x) for x in b.bounds]
        and json.dumps(a.details) == json.dumps(b.details)
        and all(np.array_equal(x, y) for x, y in zip(a.point_chunks, b.point_chunks, strict=True))
    )


class TestLawTables:
    """Each quadrature law's rule and moments, its Fock-check nodes and its
    guard verdict, and each fixed rotation, are built once per process
    (verify._law_tables, _second_rotation, _nc_rotation); what reads the
    caller's rotation and every bound run on every call."""

    CALLS = {
        "resolution": lambda rotation=None: verify_resolution_quadrature(2, CLASS_DIII, WeightSpec.determinant(3.0), rotation),
        "nc_failure": lambda rotation=None: verify_nc_failure(2, 1.0),
    }
    #: The law of each call, as _law_tables keys it.
    LAWS = {
        "resolution": (RadialLaw(CLASS_DIII, WeightSpec.determinant(3.0)), 2),
        "nc_failure": (RadialLaw(None, WeightSpec.nc_even(1.0)), 2),
    }

    @pytest.mark.parametrize("kind", CALLS)
    def test_a_second_call_builds_no_rule_and_draws_no_rotation(self, kind, monkeypatch):
        first = self.CALLS[kind]()
        calls, tanh_sizes = [], []
        for name in ("radial_quadrature_nodes", "filling_moments", "random_polar_rotation", "sample_haar_unitary_batch"):
            real = getattr(verify_module, name)
            monkeypatch.setattr(verify_module, name,
                                lambda *args, _name=name, _real=real: calls.append((_name, len(args[0]))) or _real(*args))
        tanh = np.tanh
        monkeypatch.setattr(np, "tanh", lambda x, *args, **kw: tanh_sizes.append(np.size(x)) or tanh(x, *args, **kw))
        second = self.CALLS[kind]()
        # not even the Fock check's own nodes are reduced to moments again
        assert calls == []
        # and no tanh runs over a rule: the guard's verdict is kept with it
        kept = (verify_module._law_tables(*self.LAWS[kind]).weights > 0.0).sum()
        assert [size for size in tanh_sizes if size >= kept] == []
        assert _same_report(first, second)

    def test_equal_laws_built_apart_share_one_entry(self, monkeypatch):
        # the law is the key: two equal laws, down to a class built anew, build one rule
        first = verify_module._law_tables(RadialLaw(CLASS_D, WeightSpec.gaussian(1.0)), 2)
        builds = []
        real = verify_module.radial_quadrature_nodes
        monkeypatch.setattr(verify_module, "radial_quadrature_nodes", lambda *args: builds.append(args) or real(*args))
        again = RadialLaw(SymmetryClass("D", 2, 0), WeightSpec("gaussian", 1.0))
        assert verify_module._law_tables(again, 2) is first
        assert builds == [] and verify_module._law_tables.cache_info().currsize == 1

    @pytest.mark.parametrize("kind", CALLS)
    def test_a_cold_call_computes_only_what_it_reads(self, kind):
        # each run builds its one rule; the Fock check reads its nodes, the guard (resolution only) its verdict
        self.CALLS[kind]()
        assert verify_module._law_tables.cache_info().currsize == 1
        table = vars(verify_module._law_tables(*self.LAWS[kind]))
        assert ("fock_nodes" in table, "resolvable" in table) == (True, kind == "resolution")

    def test_a_law_that_trips_the_guard_raises_on_every_call(self, monkeypatch):
        # every node has |tanh(lam / 2)| <= 5.2e-15: the rule is kept, its verdict raises each time
        weight = WeightSpec.gaussian(1e30)
        builds = []
        real = verify_module.radial_quadrature_nodes
        monkeypatch.setattr(verify_module, "radial_quadrature_nodes", lambda *args: builds.append(args) or real(*args))
        for _ in range(2):
            with pytest.raises(DomainError, match="no kept node has"):
                verify_resolution_quadrature(2, CLASS_D, weight)
            assert len(builds) == 1  # the one rule, on the first call only
        assert not verify_module._law_tables(RadialLaw(CLASS_D, weight), 2).resolvable

    def test_a_warm_call_at_another_rotation_is_the_cold_call(self):
        # the moment map at the caller's rotation is not cached, only the law's tables
        self.CALLS["resolution"](random_polar_rotation(2, RngSpec(1)))
        rotation = random_polar_rotation(2, RngSpec(2))
        warm = self.CALLS["resolution"](rotation)
        verify_module._law_tables.cache_clear()
        verify_module._second_rotation.cache_clear()
        assert _same_report(warm, self.CALLS["resolution"](rotation))

    @pytest.mark.parametrize("kind", CALLS)
    def test_cached_arrays_are_read_only_and_reports_still_give_points(self, kind):
        rep = self.CALLS[kind]()
        table = verify_module._law_tables(*self.LAWS[kind])
        # the rule, its moments, and the Fock check's eigenvalues, moments and log weights
        arrays = [table.points, table.weights, table.moments, *table.fock_nodes]
        for arr in [rep.point_chunks[0], *arrays, verify_module._second_rotation(2), verify_module._nc_rotation(2)]:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        points = rep.points  # a fresh copy
        points[0, 0] += 1.0
        assert points.flags.writeable and rep.points[0, 0] == rep.point_chunks[0][0, 0]

    def test_csv_dumps_of_a_warm_law_are_unchanged(self, tmp_path):
        argv = ["resolution", "--mode", "quad", "--modes", "2", "--symmetry-class", "CI", "--weight", "gaussian"]
        dumps = []
        for n in range(2):
            assert run(argv + ["--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / f"{n}.csv")]) == 0
            dumps.append((tmp_path / f"{n}.csv").read_bytes())
        assert dumps[0] == dumps[1] and len(dumps[0].splitlines()) == 1 + 8 * 120**2

    def test_a_rule_that_raises_raises_again(self, monkeypatch):
        weight = WeightSpec.gaussian(1e-300)
        builds = []
        real = verify_module.radial_quadrature_nodes
        monkeypatch.setattr(verify_module, "radial_quadrature_nodes", lambda *args: builds.append(args) or real(*args))
        for n in (1, 2):
            with pytest.raises(DomainError, match="outside float64"):
                verify_resolution_quadrature(2, CLASS_D, weight)
            assert len(builds) == n


class TestOneRadialLaw:
    """The quadrature rule and the Metropolis walk read one radial law
    (RadialLaw.log_jacobian), so one defect in its pair factor reaches both."""

    @pytest.mark.parametrize("halved", [False, True], ids=["law", "halved_pair_power"])
    def test_a_defect_in_the_pair_factor_reaches_rule_and_walk(self, halved, monkeypatch):
        if halved:
            real = ensembles._log_pairs
            monkeypatch.setattr(ensembles, "_log_pairs", lambda lam, pair, power: real(lam, pair, power / 2))
        gauss = WeightSpec.gaussian(1.0)
        _, wts = radial_quadrature_nodes(RadialLaw(CLASS_D, gauss), 2)
        rule_miss = abs(math.log(wts.sum()) - _radial_total_log(CLASS_D, gauss, 2))
        run = sample_radial_mcmc(RadialLaw(CLASS_D, gauss), 2, 40_000, RngSpec(23))
        mean, se = chain_moment_se(run, lambda row: row[0] ** 2 + row[1] ** 2)
        # the class-D two-mode law at p = 1 has E[lam_1^2 + lam_2^2] = 3/2
        if halved:
            assert rule_miss > 0.1
            assert abs(mean - 1.5) > 5 * se
        else:
            assert rule_miss < 1e-12
            assert abs(mean - 1.5) < 5 * se


class TestResolutionMc:
    def test_small_run_passes(self):
        rep = verify_resolution_mc(1, 1.0, 30_000, RngSpec(101))
        assert rep.passed
        assert rep.samples >= 30_000
        assert rep.per_entry_se is not None

    def test_zero_samples_rejected(self):
        with pytest.raises(ContractError):
            verify_resolution_mc(1, 1.0, 0, RngSpec(0))

    def test_no_standard_error_is_domain_error(self):
        # one sample is one chunk, which has no batch-means SE
        with pytest.raises(DomainError, match=r"p = 1.0 \(1 samples\)"):
            verify_resolution_mc(1, 1.0, 1, RngSpec(0))

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

    def test_six_mode_chunk_means_match_dense_formula(self):
        # the formula before parity blocks: dense tensor contraction, full-size
        # eigh, shift by the maximum, rebuild, divide by the trace
        spec = RngSpec(8)
        rep = verify_resolution_mc(6, 1.0, 64, spec)
        assert rep.details["chunks"] == 16
        tensor = quadratic_tensor(6)
        chunk_means = []
        for i in range(16):
            mats = sample_class_d_batch(6, 1.0, spec.with_stream(spec.stream + i).generator(), 4)
            w, v = np.linalg.eigh(0.5 * np.einsum("skl,klab->sab", mats, tensor))
            ops = np.einsum("sab,sb,scb->sac", v, np.exp(w - w.max(axis=1, keepdims=True)), v.conj())
            chunk_means.append((ops / np.einsum("saa->s", ops).real[:, None, None]).mean(axis=0))
        assert np.abs(rep.mean.matrix - np.mean(chunk_means, axis=0)).max() <= 1e-13

    def test_tiny_stiffness_gives_finite_means_and_passes(self):
        # draws near 1e153, where an unscaled A^T A of the real form is inf
        rep = verify_resolution_mc(2, 1e-308, 64, RngSpec(1))
        assert np.isfinite(rep.mean.matrix).all() and np.isfinite(rep.per_entry_se).all()
        assert rep.passed and rep.details["fock_check_deviation"] <= 1e-15
        assert rep.max_abs_deviation == pytest.approx(0.0569710163893102, rel=1e-12)
        assert rep.details["max_sigma"] == pytest.approx(1.48442721684614, rel=1e-12)

    def test_agrees_with_quadrature_target(self):
        # joint check of the Cartesian measure and the radial-plus-angular one
        mc = verify_resolution_mc(2, 1.0, 40_000, RngSpec(9))
        quad = verify_resolution_quadrature(2, CLASS_D, WeightSpec.gaussian(1.0))
        dev = np.abs(mc.mean.matrix - quad.mean.matrix)
        gate = 5.0 * np.maximum(mc.per_entry_se, 1e-12)
        assert (dev <= gate).all()


class TestEntryGate:
    def test_max_sigma_skips_entries_below_the_floor(self):
        # a rounding-level deviation over a rounding-level SE reads 10 sigma,
        # but the gate passes it through the absolute floor
        target = np.zeros((2, 2))
        mean = np.array([[1e-15, 0.0], [0.0, 0.02]])
        se = np.array([[1e-16, 0.0], [0.0, 0.01]])
        bounds, info = _entry_gate(mean, target, se)
        assert all(b.passed for b in bounds)
        assert info["max_sigma"] == 2.0
        assert _entry_gate(np.full((2, 2), 1e-15), target, se)[1]["max_sigma"] == 0.0

    @pytest.mark.parametrize("where", ["mean", "se"])
    def test_nan_entry_fails_the_gate(self, where):
        # every other entry sits 2 SE out, so only the NaN can fail the gate
        mean, se = np.full((2, 2), 0.02), np.full((2, 2), 0.01)
        {"mean": mean, "se": se}[where][0, 0] = np.nan
        bounds, info = _entry_gate(mean, np.zeros((2, 2)), se)
        assert math.isnan(info["max_sigma"]) and not bounds[0].passed

    def test_judged_entry_with_zero_se_fails_the_gate(self):
        bounds, info = _entry_gate(np.full((2, 2), 1e-9), np.zeros((2, 2)), np.zeros((2, 2)))
        assert info["max_sigma"] > 5.0 and not bounds[0].passed


MC_BOUNDS = ["max_sigma", "band_entries", "fock_check_deviation"]


class TestEstimatorVerdict:
    def test_report_stores_bounds_and_derives_verdict_rule_and_deviation(self):
        names = [f.name for f in dataclasses.fields(EstimatorReport)]
        assert names == ["target", "mean", "per_entry_se", "samples", "bounds", "details", "point_chunks"]
        rep = verify_resolution_mc(2, 1.0, 400, RngSpec(15), keep_points=True)
        for attr in ("points", "passed", "criterion", "max_abs_deviation"):
            with pytest.raises(AttributeError):
                setattr(rep, attr, getattr(rep, attr))

    @pytest.mark.parametrize(
        "driver",
        [
            lambda **kw: [verify_resolution_mc(3, 1.0, 500, RngSpec(15), **kw)],
            lambda **kw: [verify_nc_modified(3, 1.0, 500, RngSpec(15), **kw)],
            lambda **kw: verify_canonical_triviality(3, 1.0, [0.0, 0.5], 500, RngSpec(8), **kw),
        ],
    )
    def test_monte_carlo_points_are_kept_on_request_only(self, driver):
        # kept always, the pair values would grow with the sample count in every run
        plain, kept = driver(), driver(keep_points=True)
        for a, b in zip(plain, kept):
            assert a.point_chunks == () and a.samples == b.samples == 512
            with pytest.raises(ContractError, match="keep_points"):
                a.points
            assert b.points.shape == (512, 3) and len(b.point_chunks) == 16
            assert np.array_equal(a.mean.matrix, b.mean.matrix) and a.details == b.details
        assert all(c is d for c, d in zip(kept[0].point_chunks, kept[-1].point_chunks))

    @pytest.mark.parametrize(
        "driver, bounds",
        [
            (lambda: [verify_resolution_mc(2, 1.0, 400, RngSpec(15))], [MC_BOUNDS]),
            (lambda: [verify_nc_modified(2, 1.0, 400, RngSpec(15))], [MC_BOUNDS]),
            (
                lambda: verify_canonical_triviality(2, 1.0, [0.0, 5.0], 400, RngSpec(8)),
                [MC_BOUNDS + ["beta_zero_exact_deviation"], MC_BOUNDS],
            ),
            (
                lambda: [verify_resolution_quadrature(2, CLASS_D, WeightSpec.gaussian(1.0))],
                [["max_abs_deviation", "rotation_delta", "fock_check_deviation"]],
            ),
            (
                lambda: [verify_nc_failure(m, 1.0) for m in (1, 2)],
                [["max_abs_deviation", "fock_check_deviation"],
                 ["max_abs_deviation", "failure_floor - identity_gap", "fock_check_deviation"]],
            ),
            (
                lambda: [verify_nc_failure(3, 1.0, n_samples=400, rng=RngSpec(15))],
                [MC_BOUNDS[:2] + ["failure_floor - identity_gap", "fock_check_deviation"]],
            ),
        ],
        ids=["resolution_mc", "nc_modified", "canonical", "resolution_quadrature", "nc_failure", "nc_failure_mc"],
    )
    def test_verdict_and_rule_are_the_listed_bounds(self, driver, bounds):
        reps = driver()
        assert [[b.name for b in rep.bounds] for rep in reps] == bounds
        for rep in reps:
            assert rep.passed == all(b.passed for b in rep.bounds)
            assert rep.criterion == "; ".join(f"{b.name} <= {b.tolerance:g}" for b in rep.bounds)
            assert rep.max_abs_deviation == np.abs(rep.mean.matrix - rep.target.matrix).max()

    def test_a_nan_bound_fails_its_report(self):
        rep = verify_resolution_mc(2, 1.0, 400, RngSpec(15))
        assert rep.passed
        rep.bounds.append(CriterionResult("nan_check", math.nan, 1.0))
        assert not rep.passed and "nan_check <= 1" in rep.criterion


class TestRunChunks:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_only_chunk_zero_is_told_it_is_first(self, workers):
        def worker(gen, per, first):
            return gen.bit_generator.seed_seq.spawn_key, first

        results = _run_chunks(worker, 64, RngSpec(0), 1, workers=workers)
        assert results == [((i,), i == 0) for i in range(16)]

    def test_error_in_chunk_zero_stops_the_fan_out(self):
        calls, lock = [], threading.Lock()

        def worker(gen, per, first):
            with lock:
                calls.append(gen.bit_generator.seed_seq.spawn_key)
            if gen.bit_generator.seed_seq.spawn_key == (0,):
                raise DomainError("chunk 0 failed")
            time.sleep(0.02)
            return per

        with pytest.raises(DomainError, match="chunk 0 failed"):
            _run_chunks(worker, 64, RngSpec(0), 1, workers=2)
        assert (0,) in calls and len(calls) < 16

    def test_first_error_in_chunk_order_is_raised(self):
        def worker(gen, per, first):
            stream = gen.bit_generator.seed_seq.spawn_key[0]
            if stream in (3, 9):
                time.sleep(0.05 if stream == 3 else 0.0)
                raise DomainError(f"chunk {stream} failed")
            return per

        for workers in (1, 2):
            with pytest.raises(DomainError, match="chunk 3 failed"):
                _run_chunks(worker, 64, RngSpec(0), 1, workers=workers)


class TestFockCrossCheck:
    def test_every_monte_carlo_report_carries_it(self):
        reps = [
            verify_resolution_mc(2, 1.0, 400, RngSpec(15)),
            verify_nc_modified(2, 1.0, 400, RngSpec(15)),
            verify_nc_failure(3, 1.0, n_samples=400, rng=RngSpec(15)),
            *verify_canonical_triviality(2, 1.0, [0.0, 0.7, -1000.0], 400, RngSpec(15)),
        ]
        for rep in reps:
            assert 0.0 <= rep.details["fock_check_deviation"] <= FOCK_CHECK_TOL
            assert f"fock_check_deviation <= {FOCK_CHECK_TOL:g}" in rep.criterion

    # each driver's chunk 0 checks its own first FOCK_CHECK_DRAWS draws; the
    # tests redraw chunk 0 from spec.generator(), the stream _run_chunks gives it

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resolution_mc_checks_chunk_zero(self, workers):
        spec, modes, n, k = RngSpec(16), 2, 400, FOCK_CHECK_DRAWS
        rep = verify_resolution_mc(modes, 1.0, n, spec, workers=workers)
        mats = sample_class_d_batch(modes, 1.0, spec.generator(), _chunk_layout(n)[1])
        rows = gaussian.real_form_pair_rows(*gaussian.real_form(mats))
        assert rep.details["fock_check_deviation"] == _fock_check(mats[:k], gaussian.wick_coordinates(rows[:, :k]))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_canonical_checks_chunk_zero(self, workers):
        spec, modes, n, betas, k = RngSpec(16), 2, 400, [0.0, 0.7, -3.0], FOCK_CHECK_DRAWS
        reps = verify_canonical_triviality(modes, 1.0, betas, n, spec, workers=workers)
        mats = sample_class_d_batch(modes, 1.0, spec.generator(), _chunk_layout(n)[1])
        form = gaussian.real_form(mats)
        for beta, rep in zip(betas, reps):
            log_tr = gaussian.log_trace_of_pairs(beta * form[2][:, 1::2])[:k]
            rows = gaussian.real_form_pair_rows(*form, -beta)[:, :k]
            coords = gaussian.wick_coordinates(rows, log_tr)
            assert rep.details["fock_check_deviation"] == _fock_check(-beta * mats[:k], coords, log_tr)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(  # the pair-row route and the QR route
        "modes, pair_rows",
        [(2, lambda pts, real, imag: gaussian._rank_one_pair_rows(pts, real[:, :, 0].T, imag[:, :, 0].T)),
         (3, lambda pts, real, imag: gaussian.number_conserving_pair_rows(pts, _haar_unitaries(real, imag)))],
        ids=["2", "3"],
    )
    def test_nc_modified_checks_chunk_zero(self, modes, pair_rows, workers):
        spec, n, p, k = RngSpec(16), 400, 1.0, FOCK_CHECK_DRAWS
        rep = verify_nc_modified(modes, p, n, spec, workers=workers)
        gen, per = spec.generator(), _chunk_layout(n)[1]
        pts = class_d_pair_values(modes, 0.5 * p, gen, per)
        pts = pts * gen.choice((-1.0, 1.0), size=(per, modes))
        real, imag = _normal_parts(gen, per, modes)
        h = from_eigenpairs(pts[:k], _haar_unitaries(real[:k], imag[:k]))  # by QR at every M
        coords = gaussian.wick_coordinates(pair_rows(pts, real, imag)[:, :k])
        assert rep.details["fock_check_deviation"] == _fock_check(assemble_blocks(h, np.zeros_like(h)), coords)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nc_failure_mc_checks_chunk_zero(self, workers):
        # the raw GUE draws (h, 0) against the pair rows of their own eigh
        spec, modes, n, k = RngSpec(16), 3, 400, FOCK_CHECK_DRAWS
        rep = verify_nc_failure(modes, 1.0, n_samples=n, rng=spec, workers=workers)
        h = verify_module._hermitian_matrices(spec.generator(), modes, _chunk_layout(n)[1]) / math.sqrt(2.0)
        coords = gaussian.wick_coordinates(gaussian.number_conserving_pair_rows(*np.linalg.eigh(h))[:, :k])
        assert rep.details["fock_check_deviation"] == _fock_check(assemble_blocks(h[:k], np.zeros_like(h[:k])), coords)

    def test_nc_modified_builds_no_covariance_at_two_modes(self, monkeypatch):
        want = verify_nc_modified(2, 1.0, 400, RngSpec(15))

        def no_covariance(*args, **kwargs):
            raise AssertionError("the M = 2 worker built a unitary or a covariance")

        for name in ("sample_haar_unitary_batch", "number_conserving_pair_rows"):
            monkeypatch.setattr(verify_module, name, no_covariance)
        for name in ("_majorana_form", "_pair_rows"):
            monkeypatch.setattr(gaussian, name, no_covariance)
        drawn = []  # the draws of each QR call: the check's alone, as the chunk's rows need no unitary
        monkeypatch.setattr(verify_module, "_haar_unitaries",
                            lambda real, imag: drawn.append(len(real)) or _haar_unitaries(real, imag))
        got = verify_nc_modified(2, 1.0, 400, RngSpec(15))
        assert np.array_equal(got.mean.matrix, want.mean.matrix) and got.passed
        assert drawn == [FOCK_CHECK_DRAWS]

    @pytest.mark.parametrize("seed", [15, 16, 17])
    def test_nc_modified_check_alone_catches_a_column_fault(self, seed, monkeypatch):
        # power: the M = 2 rows from the conjugate of column 0 are still Haar,
        # so the entry gate passes, but the check builds its unitaries by QR
        # of the normals, not from the column the rows read, and sees them
        rows = verify_module._rank_one_pair_rows
        monkeypatch.setattr(verify_module, "_rank_one_pair_rows", lambda lam, real, imag: rows(lam, real, -imag))
        rep = verify_nc_modified(2, 1.0, 400, RngSpec(seed))
        assert [b.name for b in rep.bounds if not b.passed] == ["fock_check_deviation"]

    # power: i times one entry of the parity coordinate's scatter column moves
    # no entry far enough for the 5 SE gate, but the check of 4 draws sees it

    @pytest.mark.parametrize("modes", [1, 2, 3, 6])
    def test_resolution_mc_fails_on_a_wrong_phase(self, modes, monkeypatch):
        assert verify_resolution_mc(modes, 1.0, 64, RngSpec(17)).details["fock_check_deviation"] <= FOCK_CHECK_TOL
        break_phase(monkeypatch, modes)
        rep = verify_resolution_mc(modes, 1.0, 64, RngSpec(17))
        assert rep.details["fock_check_deviation"] > 1e-6 and not rep.passed

    @pytest.mark.parametrize("modes", [3, 6])
    def test_nc_failure_mc_fails_on_a_wrong_phase(self, modes, monkeypatch):
        def failure():
            return verify_nc_failure(modes, 1.0, n_samples=64, rng=RngSpec(17))

        assert failure().details["fock_check_deviation"] <= FOCK_CHECK_TOL
        break_phase(monkeypatch, modes)
        rep = failure()
        assert rep.details["fock_check_deviation"] > 1e-6 and not rep.passed

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_nc_modified_fails_on_a_wrong_phase(self, modes, monkeypatch):
        assert verify_nc_modified(modes, 1.0, 64, RngSpec(17)).details["fock_check_deviation"] <= FOCK_CHECK_TOL
        break_phase(monkeypatch, modes)
        rep = verify_nc_modified(modes, 1.0, 64, RngSpec(17))
        assert rep.details["fock_check_deviation"] > 1e-6 and not rep.passed

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_canonical_fails_on_a_wrong_phase(self, modes, monkeypatch):
        betas = [0.7, -1000.0]
        for rep in verify_canonical_triviality(modes, 1.0, betas, 400, RngSpec(17)):
            assert rep.details["fock_check_deviation"] <= FOCK_CHECK_TOL
        break_phase(monkeypatch, modes)
        for rep in verify_canonical_triviality(modes, 1.0, betas, 400, RngSpec(17)):
            assert rep.details["fock_check_deviation"] > 1e-6 and not rep.passed

    # power for the real form: g(s) without its factor 1/2, which doubles
    # every covariance, fails the Fock check of both drivers that use it

    @staticmethod
    def _break_real_form(monkeypatch):
        g = gaussian._tanh_ratio
        monkeypatch.setattr(gaussian, "_tanh_ratio", lambda s: 2.0 * g(s))

    @pytest.mark.parametrize("modes", [1, 2, 3, 6])
    def test_resolution_mc_fails_on_a_broken_real_form(self, modes, monkeypatch):
        self._break_real_form(monkeypatch)
        rep = verify_resolution_mc(modes, 1.0, 64, RngSpec(17))
        assert rep.details["fock_check_deviation"] > 1e-6 and not rep.passed

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_canonical_fails_on_a_broken_real_form(self, modes, monkeypatch):
        self._break_real_form(monkeypatch)
        for rep in verify_canonical_triviality(modes, 1.0, [0.7, -1000.0], 400, RngSpec(17)):
            assert rep.details["fock_check_deviation"] > 1e-6 and not rep.passed

    @pytest.mark.parametrize("modes", [1, 2])
    def test_every_quadrature_report_carries_it(self, modes):
        reps = [
            verify_resolution_quadrature(modes, CLASS_D, WeightSpec.gaussian(1.0)),
            verify_nc_failure(modes, 1.0),
        ]
        for rep in reps:
            assert 0.0 <= rep.details["fock_check_deviation"] <= FOCK_CHECK_TOL
            assert f"fock_check_deviation <= {FOCK_CHECK_TOL:g}" in rep.criterion
        assert list(reps[0].details)[-2:] == ["fock_check_deviation", "tolerance"]

    # each quadrature driver checks the last FOCK_CHECK_DRAWS kept nodes of its
    # ORACLE_ORDER rule, the outermost of the all-positive orthant, with the one
    # shared v, through the moment map of those nodes alone; the tests rebuild
    # them from radial_quadrature_nodes, and pin the gap with a broken parity
    # phase too, where it depends on every node

    @staticmethod
    def _last_nodes_gap(law, modes, v):
        pts, wts = radial_quadrature_nodes(law, modes)
        keep = wts > 0.0
        pts, w = pts[keep][-FOCK_CHECK_DRAWS:], wts[keep][-FOCK_CHECK_DRAWS:]
        assert (pts > 0.0).all()
        coords = gaussian.moment_wick_coordinates(gaussian.filling_moments(pts, w), v)
        return _fock_check(from_eigenpairs(np.concatenate([pts, -pts], axis=1), v), coords, np.log(w))

    @pytest.mark.parametrize("broken", [False, True], ids=["clean", "broken"])
    @pytest.mark.parametrize("weight", [WeightSpec.gaussian(1.0), WeightSpec.determinant(4.0)], ids=lambda w: w.kind)
    @pytest.mark.parametrize("sym", [CLASS_D, CLASS_DIII], ids=lambda s: s.label)
    @pytest.mark.parametrize("modes", [1, 2])
    def test_resolution_quadrature_checks_the_last_nodes(self, modes, sym, weight, broken, monkeypatch):
        if broken:
            break_phase(monkeypatch, modes)
        rotation = random_polar_rotation(modes, RngSpec(5))
        rep = verify_resolution_quadrature(modes, sym, weight, rotation)
        want = self._last_nodes_gap(RadialLaw(sym, weight), modes, rotation.bogoliubov.conj().T)
        assert rep.details["fock_check_deviation"] == want

    @pytest.mark.parametrize("broken", [False, True], ids=["clean", "broken"])
    def test_nc_failure_checks_the_last_nodes(self, broken, monkeypatch):
        if broken:
            break_phase(monkeypatch, 2)
        rep = verify_nc_failure(2, 1.0)
        law = RadialLaw(None, WeightSpec.nc_even(1.0))
        v = _ncons_eigenvectors(verify_module._nc_rotation(2))
        assert rep.details["fock_check_deviation"] == self._last_nodes_gap(law, 2, v)

    # power per Wick column: the whole rule's mean has every non-empty Wick
    # coordinate at 0 (the resolution of unity), so i times one entry of any
    # such column left a whole-rule check blind; the last nodes see each one

    @pytest.mark.parametrize("weight", [WeightSpec.gaussian(1.0), WeightSpec.determinant(4.0)], ids=lambda w: w.kind)
    @pytest.mark.parametrize("sym", [CLASS_D, CLASS_C, CLASS_DIII, CLASS_CI], ids=lambda s: s.label)
    @pytest.mark.parametrize("modes", [1, 2])
    def test_resolution_quadrature_fails_on_a_wrong_phase_in_every_column(self, modes, sym, weight, monkeypatch):
        rotation = random_polar_rotation(modes, RngSpec(5))
        for column in range(1, 1 << (2 * modes - 1)):
            with monkeypatch.context() as patch:
                break_phase(patch, modes, column)
                rep = verify_resolution_quadrature(modes, sym, weight, rotation)
            assert rep.details["fock_check_deviation"] > 1e-9 and not rep.passed, column

    def test_nc_failure_fails_on_a_wrong_phase_in_every_column(self, monkeypatch):
        for column in range(1, 8):
            with monkeypatch.context() as patch:
                break_phase(patch, 2, column)
                rep = verify_nc_failure(2, 1.0)
            assert rep.details["fock_check_deviation"] > 1e-9 and not rep.passed, column


def _fock_quadrature_mean(points, wts, op_batch_fn) -> np.ndarray:
    """The quadrature mean one Fock matrix per node, as the drivers took it
    before the Wick kernel: the weighted mean of the parity blocks, embedded."""
    return embed_parity_blocks(np.einsum("s,spab->pab", wts, op_batch_fn(points)) / wts.sum())


class TestWickQuadrature:
    """The quadrature drivers' Wick means against the per-node Fock path."""

    @pytest.mark.parametrize("weight", [WeightSpec.gaussian(1.0), WeightSpec.determinant(4.0)], ids=lambda w: w.kind)
    @pytest.mark.parametrize("sym", [CLASS_D, CLASS_C, CLASS_DIII, CLASS_CI], ids=lambda s: s.label)
    @pytest.mark.parametrize("modes", [1, 2])
    def test_resolution_matches_the_per_node_fock_path(self, modes, sym, weight):
        rotation = random_polar_rotation(modes, RngSpec(5))
        rep = verify_resolution_quadrature(modes, sym, weight, rotation)
        pts, wts = radial_quadrature_nodes(RadialLaw(sym, weight), modes)
        want = _fock_quadrature_mean(pts, wts, lambda p: rotated_gaussian_blocks(p, rotation.bogoliubov))
        assert np.abs(rep.mean.matrix - want).max() <= 1e-13

    @pytest.mark.parametrize("sym", [CLASS_D, CLASS_C], ids=lambda s: s.label)
    @pytest.mark.parametrize("offset", [0.1, 0.5])
    @pytest.mark.parametrize("modes", [1, 2])
    def test_shifted_weight_matches_the_per_node_fock_path(self, modes, offset, sym):
        # a 60-node Hermite tensor rule for exp(-2 (lam - offset)^2), built here, not by the oracle
        law = RadialLaw(sym, WeightSpec.gaussian(1.0))
        x, hw = np.polynomial.hermite.hermgauss(60)
        pts = np.array(list(itertools.product(x / math.sqrt(2.0) + offset, repeat=modes)))
        wts = np.prod(list(itertools.product(hw / math.sqrt(2.0), repeat=modes)), axis=1)
        wts = wts * np.exp(law.log_jacobian(pts))
        want = _fock_quadrature_mean(pts, wts, lambda p: rotated_gaussian_blocks(p, np.eye(2 * modes)))
        want_dev = np.abs(want - np.eye(1 << modes) / (1 << modes)).max()
        assert abs(shifted_weight_quadrature_deviation(modes, sym, 1.0, offset) - want_dev) <= 1e-13

    @pytest.mark.parametrize("p", [1.0, 2.5])
    @pytest.mark.parametrize("modes", [1, 2])
    def test_nc_even_weight_matches_the_per_node_fock_path(self, modes, p):
        law = RadialLaw(None, WeightSpec.nc_even(p))
        u = verify_module._nc_rotation(modes)
        q = verify_nc_failure(modes, p).mean.matrix
        pts, wts = radial_quadrature_nodes(law, modes)
        assert np.abs(q - _fock_quadrature_mean(pts, wts, lambda x: rotated_ncons_blocks(x, u))).max() <= 1e-13

    def test_a_rotation_without_the_particle_hole_pairing_is_rejected(self):
        # the moment map needs the pairing of a polar form's transformation,
        # which a Haar unitary of size 2M lacks; PolarForm itself rejects it
        u = sample_haar_unitary_batch(4, RngSpec(1).generator(), 1)[0]
        with pytest.raises(StructureError, match="particle-hole pairing"):
            verify_resolution_quadrature(2, CLASS_D, WeightSpec.gaussian(1.0), PolarForm(np.array([0.5, 1.0]), u))

    @pytest.mark.parametrize("offset", [1e8, 1e17, -1e17, 1e150, -1e150, 1e300])
    @pytest.mark.parametrize("sym", [CLASS_D, CLASS_C], ids=lambda s: s.label)
    def test_huge_offset_gives_the_limit_without_warning(self, sym, offset):
        # every tanh(lam / 2) rounds to sign(offset), so the mean is the
        # projector on the empty or the full state, 1 - 2^-M from 2^-M I
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            devs = [shifted_weight_quadrature_deviation(m, sym, 1.0, offset) for m in range(1, 7)]
        assert caught == []
        assert np.abs(np.array(devs) - (1.0 - 0.5 ** np.arange(1, 7))).max() <= 1e-15

    def test_zero_weight_nodes_raise_no_warning(self):
        # the class-D tensor rule puts 240 of its 14400 nodes on lam_1 = +-lam_2
        _, wts = radial_quadrature_nodes(RadialLaw(CLASS_D, WeightSpec.gaussian(1.0)), 2)
        assert (wts == 0.0).sum() == 240
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert verify_resolution_quadrature(2, CLASS_D, WeightSpec.gaussian(1.0)).passed
            assert verify_nc_failure(2, 1.0).passed
            shifted_weight_quadrature_deviation(2, CLASS_D, 1.0, 0.1)
        assert caught == []

    @pytest.mark.parametrize(
        "argv",
        [["resolution", "--mode", "quad", "--modes", "2"], ["number-conserving", "--variant", "failure"]],
        ids=["resolution", "failure"],
    )
    def test_perturbed_phase_fails_the_report_through_the_cross_check(self, argv, monkeypatch, tmp_path):
        # i times one entry of the empty set's column, which every node carries
        assert run(argv + ["--out", str(tmp_path / "good.json")]) == 0
        break_phase(monkeypatch, 2, 0)
        assert run(argv + ["--out", str(tmp_path / "bad.json")]) == 1
        good, bad = (json.loads((tmp_path / f"{n}.json").read_text())["criteria"][0] for n in ("good", "bad"))
        assert good["details"]["fock_check_deviation"] <= FOCK_CHECK_TOL
        assert bad["details"]["fock_check_deviation"] > 1e-4


def _elementary_symmetric(t: np.ndarray) -> np.ndarray:
    """e_0..e_M of each row of the (n, M) ``t``, as (n, M + 1)."""
    e = np.zeros((len(t), t.shape[1] + 1))
    e[:, 0] = 1.0
    for j in range(t.shape[1]):
        e[:, 1:] = e[:, 1:] + e[:, :-1] * t[:, j : j + 1]
    return e


class TestAndreiefOracle:
    @pytest.mark.parametrize("modes, draws", [(3, 40_000), (6, 20_000)])
    def test_tilted_class_d_means_match_weighted_draws(self, modes, draws):
        # exp(-2p (lam - c)^2) is the even weight times the tilt exp(4 p c sum lam),
        # so signed class-D pair values weighted by the tilt sample the oracle's law
        p, c = 1.0, 0.1
        gen = RngSpec(11).generator()
        lam = class_d_pair_values(modes, p, gen, draws) * gen.choice((-1.0, 1.0), size=(draws, modes))
        w = np.exp(4.0 * p * c * lam.sum(axis=1))
        w /= w.sum()
        e = _elementary_symmetric(-0.5 * np.tanh(0.5 * lam))
        mean = w @ e
        se = np.sqrt((w[:, None] ** 2 * (e - mean) ** 2).sum(axis=0))
        # the plain variable lam^2 as u, not shifted_weight_quadrature_deviation's offset-scaled one
        x, hw = np.polynomial.hermite.hermgauss(120)
        nodes = x / math.sqrt(2.0 * p) + c
        oracle = _andreief_means(nodes, hw, nodes**2, modes)[0]
        assert oracle[0] == 1.0
        assert np.abs((mean - oracle)[1:] / se[1:]).max() <= 5.0

    @pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("modes", range(1, 7))
    def test_log_normalization_matches_the_closed_forms(self, modes, p):
        # the rule's integral of Delta(u)^2 prod w is M! det G / 4^(M (M - 1) / 2):
        # Laguerre-Selberg for classes D and C in u = lam^2, Mehta's integral for
        # the hermitian law in u = lam
        x, hw = oracle._hermgauss(2 * oracle.ORACLE_ORDER)
        scale = math.lgamma(modes + 1) - math.log(4.0) * modes * (modes - 1) / 2
        for sym in (CLASS_D, CLASS_C):
            lam = x / math.sqrt(2.0 * p)
            log_det = _andreief_means(lam, hw / math.sqrt(2.0 * p) * np.abs(lam) ** sym.alpha, lam**2, modes)[1]
            assert abs(log_det + scale - _radial_total_log(sym, WeightSpec.gaussian(p), modes)) <= 1e-12
        lam = x / math.sqrt(p)
        log_det = _andreief_means(lam, hw / math.sqrt(p), lam, modes)[1]
        assert abs(log_det + scale - _radial_total_log(CLASS_D, WeightSpec.nc_even(p), modes)) <= 1e-12


class TestOrderDoubling:
    """Power of the one order-doubling rule: each oracle user raises on a
    rule with too few nodes. A wrong failure-run mean fails its bound."""

    def test_a_wrong_mean_fails_the_run_with_exit_1(self, monkeypatch, capsys):
        # a hermitian 1e-9 between the two one-particle states, ten times the bound
        real = verify_module._moment_mean

        def perturbed(*args):
            q = real(*args).copy()
            q[1, 2] += 1e-9
            q[2, 1] += 1e-9
            return q

        monkeypatch.setattr(verify_module, "_moment_mean", perturbed)
        rep = verify_nc_failure(2, 1.0)
        assert [b.name for b in rep.bounds if not b.passed] == ["max_abs_deviation"]
        assert run(["number-conserving", "--variant", "failure"]) == 1
        assert "[FAIL] even-weight mean reaches its exact target" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "call, moved",
        [(lambda: nc_even_target(2, 1.0), "even-weight"), (lambda: shifted_weight_quadrature_deviation(2, CLASS_D, 1.0, 0.5), "displaced-weight")],
        ids=["target", "shifted"],
    )
    def test_an_oracle_rule_of_too_few_nodes_raises(self, monkeypatch, call, moved):
        # 4 and 8 nodes in place of 120 and 240
        real = oracle._hermgauss
        monkeypatch.setattr(oracle, "_hermgauss", lambda order: real(order // 30))
        with pytest.raises(NonConvergenceError, match=f"{moved} oracle moved"):
            call()


class TestOneRule:
    """verify_resolution_quadrature reads one rule, the ORACLE_ORDER one: an
    even rule's mean is 2^-M I, so a skewed rule fails its bounds."""

    LAWS = [(c, w) for c in (CLASS_D, CLASS_C, CLASS_DIII, CLASS_CI) for w in (WeightSpec.gaussian(1.0), WeightSpec.determinant(3.0))]

    def test_a_skewed_rule_fails_its_bounds(self, monkeypatch, capsys):
        # the nodes with lam_1 > 0 weigh 1e-5 more: the law is no longer even
        real = verify_module.radial_quadrature_nodes

        def skewed(law, modes):
            points, weights = real(law, modes)
            return points, weights * (1.0 + 1e-5 * (points[:, 0] > 0.0))

        monkeypatch.setattr(verify_module, "radial_quadrature_nodes", skewed)
        rep = verify_resolution_quadrature(2, CLASS_D, WeightSpec.gaussian(1.0))
        failed = {c.name: c.measured for c in rep.bounds if not c.passed}
        assert sorted(failed) == ["max_abs_deviation", "rotation_delta"] and 1e-7 < failed["max_abs_deviation"] < 1e-6
        verify_module._law_tables.cache_clear()
        assert run(["resolution", "--mode", "quad", "--modes", "2"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_a_cold_call_builds_one_rule(self, monkeypatch):
        rules, nodes = [], []
        hermgauss, real = np.polynomial.hermite.hermgauss, verify_module.radial_quadrature_nodes
        monkeypatch.setattr(np.polynomial.hermite, "hermgauss", lambda n: rules.append(n) or hermgauss(n))
        monkeypatch.setattr(verify_module, "radial_quadrature_nodes", lambda *args: nodes.append(args) or real(*args))
        oracle._hermgauss.cache_clear()
        rep = verify_resolution_quadrature(2, CLASS_D, WeightSpec.gaussian(1.0))
        assert rules == [ORACLE_ORDER] and nodes == [(RadialLaw(CLASS_D, WeightSpec.gaussian(1.0)), 2)]
        assert rep.samples == ORACLE_ORDER**2
        assert "convergence_delta" not in rep.details

    @pytest.mark.parametrize("modes", [1, 2])
    @pytest.mark.parametrize("sym, weight", LAWS, ids=lambda x: getattr(x, "label", None) or getattr(x, "kind", None))
    def test_every_even_rule_gives_the_identity(self, sym, weight, modes):
        # the driver's mean of the rule's moments, at v = I and at a Haar rotation
        moments = filling_moments(*radial_quadrature_nodes(RadialLaw(sym, weight), modes))
        for v in (np.eye(2 * modes), random_polar_rotation(modes, RngSpec(5)).bogoliubov.conj().T):
            assert _identity_gap(verify_module._moment_mean(moments, v)) <= 1e-15, (sym, weight, modes)

class TestChunkEstimate:
    @pytest.mark.parametrize("shape", [(3, 2, 2), (16, 8, 8), (16, 64, 64)])
    def test_unweighted_is_mean_and_batch_se_bit_for_bit(self, shape):
        gen = RngSpec(12).generator()
        chunks = list(gen.normal(size=shape) + 1j * gen.normal(size=shape))
        mean, se = _chunk_estimate(chunks)
        stack = np.stack(chunks)
        assert np.array_equal(mean, stack.mean(axis=0))
        # the batch-means formula the drivers used before the estimator was shared
        k = len(chunks)
        dev = stack - mean
        var = ((dev.real**2).sum(axis=0) + (dev.imag**2).sum(axis=0)) / (k - 1)
        assert np.array_equal(se, np.sqrt(var / k))

    def test_log_weights_far_outside_float_range_stay_finite(self):
        gen = RngSpec(13).generator()
        chunks = list(gen.normal(size=(16, 4, 4)) + 1j * gen.normal(size=(16, 4, 4)))
        log_w = gen.uniform(-1e3, 1e3, size=16)
        mean, se = _chunk_estimate(chunks, log_w)
        assert np.isfinite(mean).all() and np.isfinite(se).all()
        num, den = 0.0, 0.0
        for lw, chunk in zip(log_w, chunks):
            num = num + math.exp(lw - log_w.max()) * chunk
            den += math.exp(lw - log_w.max())
        assert np.abs(mean - num / den).max() <= 1e-15
        spread = sum(np.abs(chunk - num / den) ** 2 for chunk in chunks)
        assert np.abs(se - np.sqrt(spread / (16 * 15))).max() <= 1e-14


class TestCanonicalTriviality:
    def test_beta_zero_exact_and_family_consistent(self):
        betas = [0.0, 0.4, 1.0]
        reps = verify_canonical_triviality(2, 1.0, betas, 30_000, RngSpec(55))
        assert all(r.passed for r in reps)
        assert reps[0].details["beta_zero_exact_deviation"] <= 1e-14

    @pytest.mark.parametrize("modes", [1, 4])
    def test_beta_zero_mean_is_exactly_the_maximally_mixed_state(self, modes):
        rep = verify_canonical_triviality(modes, 1.0, [0.0, 0.5], 400, RngSpec(16), workers=2)[0]
        assert np.array_equal(rep.mean.matrix, np.eye(1 << modes) / (1 << modes))
        assert rep.details["beta_zero_exact_deviation"] == 0.0
        assert not rep.per_entry_se.any()

    def test_beta_zero_reports_exact_deviation_not_noise_ratio(self):
        rep = verify_canonical_triviality(2, 1.0, [0.0, 0.5], 20_000, RngSpec(6))[0]
        assert rep.details["beta_zero_exact_deviation"] <= 1e-14
        assert rep.details["max_sigma"] == 0.0

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_beta_zero_exactness_alone_catches_a_rounding_level_bias(self, modes, monkeypatch):
        # the same 1e-13 in every draw's Gamma_01, pair row 0, at t = 0: below
        # the gate's floor and the Fock check's tolerance, and without any
        # spread for an SE
        import fermigauss.verify as verify

        exact = verify.real_form_pair_rows

        def biased(av, vecs, s, t=1.0):
            rows = exact(av, vecs, s, t)
            if t == 0:
                rows[0] += 1e-13
            return rows

        monkeypatch.setattr(verify, "real_form_pair_rows", biased)
        rep = verify_canonical_triviality(modes, 1.0, [0.0], 400, RngSpec(16))[0]
        assert not rep.passed and "beta_zero_exact_deviation <= 1e-14" in rep.criterion
        assert rep.details["beta_zero_exact_deviation"] > 1e-14
        assert rep.details["max_sigma"] == 0.0 and rep.details["band_entries"] == 0
        assert rep.details["fock_check_deviation"] <= FOCK_CHECK_TOL

    def test_a_low_ess_beta_fails_only_its_own_report(self, tmp_path):
        # the README's example: beta = 5 carries 112 of its 400 draws in
        # effective sample size and sits at 6.71 SE on its own max_sigma; the
        # beta = 0.3 report, at 2.83 SE, is judged alone and passes
        cold, hot = verify_canonical_triviality(2, 1.0, [0.3, 5.0], 400, RngSpec(8))
        assert cold.passed and cold.details["max_sigma"] == pytest.approx(2.83, abs=5e-3)
        assert [b.name for b in hot.bounds if not b.passed] == ["max_sigma"]
        assert hot.details["max_sigma"] == pytest.approx(6.71, abs=5e-3)
        assert hot.details["effective_sample_size"] == pytest.approx(112, abs=0.5)
        argv = ["canonical", "--modes", "2", "--betas", "0.3,5", "--samples", "400", "--seed", "8"]
        assert run([*argv, "--out", str(tmp_path / "r.json")]) == 1
        crit = json.loads((tmp_path / "r.json").read_text())["criteria"]
        assert [c["passed"] for c in crit] == [True, False]

    def test_beta_zero_passes_beside_a_failing_beta(self):
        # beta = 5 sits beyond 5 SE on its own bounds; the exact beta = 0
        # report must not fail on that
        zero, hot = verify_canonical_triviality(2, 1.0, [0.0, 5.0], 400, RngSpec(8))
        assert zero.passed and zero.details["max_sigma"] == 0.0
        assert not hot.passed and hot.details["max_sigma"] > 5.0

    # power: each defect leaves a trace-weighted mixture of an even law, whose
    # mean is still 2^-M I, so the entry gate cannot see it; the Fock check of
    # chunk 0 does, alone, at exactly the betas it touches, on every seed

    @pytest.mark.parametrize(
        "name, defect, hit",
        [
            ("real_form_pair_rows", lambda f: lambda av, v, s, t=1.0: f(av, v, s, 1.05 * t if abs(t) >= 1 else t), [1.5]),
            ("real_form_pair_rows", lambda f: lambda av, v, s, t=1.0: -f(av, v, s, t) if t == -0.7 else f(av, v, s, t), [0.7]),
            ("wick_coordinates", lambda f: lambda rows, log_w=None: f(rows), [0.3, 0.7, 1.5]),
            ("real_form_pair_rows", lambda f: lambda av, v, s, t=1.0: f(av, v, s, -t), [0.3, 0.7, 1.5]),
        ],
        ids=["rows_at_1.05t", "rows_negated_at_0.7", "log_weights_dropped", "rows_of_plus_beta"],
    )
    def test_each_defect_fails_the_fock_check_alone(self, monkeypatch, name, defect, hit):
        monkeypatch.setattr(verify_module, name, defect(getattr(verify_module, name)))
        betas = [0.0, 0.3, 0.7, 1.5]
        for seed in range(100, 106):
            reps = verify_canonical_triviality(2, 1.0, betas, 4000, RngSpec(seed))
            failed = {beta: [b.name for b in rep.bounds if not b.passed] for beta, rep in zip(betas, reps)}
            assert failed == {beta: ["fock_check_deviation"] if beta in hit else [] for beta in betas}, seed

    def test_empty_betas_rejected(self):
        with pytest.raises(ContractError):
            verify_canonical_triviality(2, 1.0, [], 1000, RngSpec(0))

    def test_means_are_ratios_of_chunk_sums(self):
        # the formula before log weights: unshifted exp(-beta w), summed over all draws
        spec = RngSpec(14)
        betas = [0.0, 0.7, 1.5]
        reps = verify_canonical_triviality(2, 1.0, betas, 2_000, spec)
        nums, dens = np.zeros((3, 4, 4), dtype=complex), np.zeros(3)
        for i in range(16):
            mats = sample_class_d_batch(2, 1.0, spec.with_stream(spec.stream + i).generator(), 125)
            w, v = np.linalg.eigh(embed_parity_blocks(quadratic_hamiltonian_batch(mats)))
            for bi, beta in enumerate(betas):
                ew = np.exp(-beta * w)
                nums[bi] += np.einsum("sab,sb,scb->ac", v, ew, v.conj())
                dens[bi] += ew.sum()
        for rep, num, den in zip(reps, nums, dens):
            assert np.abs(rep.mean.matrix - num / den).max() <= 1e-13

    @pytest.mark.parametrize("beta", [1000.0, -1000.0])
    def test_large_beta_gives_finite_means(self, beta):
        reps = verify_canonical_triviality(2, 1.0, [0.0, beta], 4000, RngSpec(3))
        for rep in reps:
            assert np.isfinite(rep.mean.matrix).all() and np.isfinite(rep.per_entry_se).all()
        assert reps[1].mean.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_tiny_stiffness_gives_finite_means(self):
        # draws near 1e153: beta = 0.7 is carried by one draw (effective
        # sample size 1), so its report fails the band rule, as it did with
        # the complex eigh of the draws
        reps = verify_canonical_triviality(2, 1e-308, [0.0, 0.7], 400, RngSpec(1))
        for rep in reps:
            assert np.isfinite(rep.mean.matrix).all() and np.isfinite(rep.per_entry_se).all()
            assert rep.details["fock_check_deviation"] <= 1e-15
        assert [rep.passed for rep in reps] == [True, False]
        assert reps[0].details["beta_zero_exact_deviation"] == 0.0
        assert reps[0].details["effective_sample_size"] == pytest.approx(400.0, rel=1e-12)
        assert reps[1].details["effective_sample_size"] == pytest.approx(1.0, rel=1e-12)
        assert reps[1].details["band_entries"] == 3
        assert reps[1].max_abs_deviation == pytest.approx(0.499306266364742, rel=1e-12)

    def test_beta_times_energy_past_float_range_is_domain_error(self):
        with pytest.raises(DomainError, match=r"beta = 1e\+308"):
            verify_canonical_triviality(2, 0.01, [0.0, 1e308], 64, RngSpec(0))

    def test_effective_sample_size_is_the_sample_count_at_beta_zero(self):
        rep = verify_canonical_triviality(3, 1.0, [0.0], 6_000, RngSpec(21))[0]
        assert rep.details["effective_sample_size"] == pytest.approx(rep.samples, rel=1e-9)

    def test_effective_sample_size_does_not_depend_on_workers(self):
        one, two = (verify_canonical_triviality(2, 1.0, [0.0, 0.7, 5.0], 9_000, RngSpec(22), workers=n) for n in (1, 2))
        assert [r.details["effective_sample_size"] for r in one] == [r.details["effective_sample_size"] for r in two]

    def test_effective_sample_size_is_about_one_at_beta_1000(self):
        rep = verify_canonical_triviality(2, 1.0, [1000.0], 4000, RngSpec(3))[0]
        assert rep.details["effective_sample_size"] == pytest.approx(1.0, abs=1e-3)

    def test_effective_sample_size_is_kish_over_the_draws(self):
        # (sum w)^2 / sum w^2 over all draws, with w = prod_j 2 cosh(beta lambda_j / 2)
        spec, beta = RngSpec(23), 1.5
        rep = verify_canonical_triviality(2, 1.0, [beta], 2_000, spec)[0]
        w = np.concatenate([
            np.prod(2.0 * np.cosh(beta * np.linalg.eigvalsh(
                sample_class_d_batch(2, 1.0, spec.with_stream(i).generator(), 125))[:, 2:] / 2.0), axis=1)
            for i in range(16)
        ])
        assert rep.details["effective_sample_size"] == pytest.approx(w.sum() ** 2 / (w**2).sum(), rel=1e-12)


class TestNcFailure:
    """The even-weight number-conserving mean against its exact target,
    nc_even_target: by quadrature at M <= 2, by GUE draws at M >= 3."""

    @staticmethod
    def _failed(rep):
        """The names of a report's failed bounds, in order."""
        return [b.name for b in rep.bounds if not b.passed]

    @pytest.mark.parametrize("modes", range(1, 7))
    def test_target_is_the_moment_map_mean_at_every_rotation(self, modes):
        # the oracle's moments m_J = E[e_|J|(t)] / C(M, |J|) through the Wick
        # moment map, at v = I and at 5 Haar rotations: a diagonal function of N alone
        x, w = oracle._hermgauss(ORACLE_ORDER)
        e = _andreief_means(x, w, x, modes)[0]  # p = 1
        sizes = np.bitwise_count(np.arange(1 << modes))
        moments = (e / [math.comb(modes, k) for k in range(modes + 1)])[sizes]
        target = nc_even_target(modes, 1.0)
        assert np.array_equal(target, np.diag(np.diagonal(target)))
        for n in range(modes + 1):
            assert np.ptp(np.diagonal(target)[sizes == n]) == 0.0
        us = sample_haar_unitary_batch(modes, RngSpec(3).generator(), 5)
        for v in [np.eye(2 * modes), *_ncons_eigenvectors(us)]:
            assert np.abs(verify_module._moment_mean(moments, v) - target).max() <= 1e-15

    def test_the_target_is_built_once_per_mode_count_and_stiffness(self, monkeypatch):
        target = nc_even_target(3, 1.0)
        monkeypatch.setattr(oracle, "_andreief_means", lambda *args: pytest.fail("the target was rebuilt"))
        assert nc_even_target(3, 1.0) is target and not target.flags.writeable

    def test_single_mode_target_is_half_the_identity(self):
        rep = verify_nc_failure(1, 1.0)
        assert np.array_equal(rep.target.matrix, np.eye(2) / 2.0)
        assert rep.passed and [b.name for b in rep.bounds] == ["max_abs_deviation", "fock_check_deviation"]
        assert rep.max_abs_deviation <= 1e-15 and "failure_floor" not in rep.details

    @pytest.mark.parametrize("p", [0.25, 1.0, 2.0])
    def test_residual_exceeds_golden_floor(self, p):
        # the quadrature mean is the exact target to rounding, and far from 2^-M I
        rep = verify_nc_failure(2, p)
        assert rep.passed and rep.max_abs_deviation <= 1e-15
        gap = _identity_gap(nc_even_target(2, p))
        assert rep.details["failure_floor"] == FAILURE_FLOOR_FRACTION * gap
        assert abs(rep.details["identity_gap"] - gap) <= 1e-15

    def test_other_mode_counts_rejected(self):
        for modes in (0, 7):
            with pytest.raises(CapacityError):
                verify_nc_failure(modes, 1.0)

    def test_modes_true_is_a_capacity_error_after_the_one_mode_target(self):
        # True hashes as 1, but is no mode count: the typed target cache keeps them apart
        for _ in range(2):
            with pytest.raises(CapacityError, match="modes must be an integer"):
                verify_nc_failure(True, 1.0)
            nc_even_target(1, 1.0)

    @pytest.mark.parametrize("p", [0.25, 0.5, 1.0, 2.0, 5.0, 20.0])
    def test_residual_matches_adaptive_quadrature(self, p):
        # the target's two-mode gap from 2^-M I is |E[t_1 t_2]| = |c| / 4,
        # from three adaptive 1-D integrals, none in closed form
        from scipy.integrate import quad

        kw = {"epsabs": 1e-13, "epsrel": 1e-13, "limit": 400}
        i1, _ = quad(lambda lam: 2.0 * lam * np.tanh(lam / 2.0) * np.exp(-p * lam * lam), 0, np.inf, **kw)
        i2, _ = quad(lambda lam: 2.0 * lam * lam * np.exp(-p * lam * lam), 0, np.inf, **kw)
        i0, _ = quad(lambda lam: 2.0 * np.exp(-p * lam * lam), 0, np.inf, **kw)
        expected = abs(-2.0 * i1 * i1 / (2.0 * i2 * i0)) / 4.0
        assert abs(_identity_gap(nc_even_target(2, p)) - expected) <= 1e-13

    def test_residual_at_unit_stiffness(self):
        assert abs(_identity_gap(nc_even_target(2, 1.0)) - 0.025227828724403045) <= 1e-15

    @pytest.mark.parametrize("p", [0.5, 2.0])
    def test_passes_away_from_unit_stiffness(self, p):
        rep = verify_nc_failure(2, p)
        assert rep.passed
        assert abs(rep.details["identity_gap"] - _identity_gap(nc_even_target(2, p))) <= 1e-12

    def test_nonpositive_stiffness_rejected(self):
        with pytest.raises(DomainError):
            verify_nc_failure(2, 0.0)

    @pytest.mark.parametrize("modes, p", [(2, 0.045), (3, 0.03), (6, 1e-8)])
    def test_a_target_whose_oracle_has_not_converged_raises(self, modes, p):
        # tanh(lam / 2) nears a step as p -> 0: the 120-node rule's moments were
        # 1.4e-2 off at M = 6, p = 1e-8, and at M = 3 the draws failed the gate
        with pytest.raises(NonConvergenceError, match="even-weight oracle moved"):
            verify_nc_failure(modes, p, n_samples=400)

    @pytest.mark.parametrize("p", [0.0474, 0.048, 0.05, 0.055, 0.059])
    def test_the_mean_meets_the_target_down_to_the_oracle_guard(self, p):
        # mean and target read one 120-node rule, so they agree to rounding down to the oracle's guard
        rep = verify_nc_failure(2, p)
        assert rep.passed and rep.max_abs_deviation <= 1e-15

    def test_just_below_the_band_the_oracle_guard_raises(self):
        with pytest.raises(NonConvergenceError, match="even-weight oracle moved"):
            verify_nc_failure(2, 0.047)

    def test_the_rule_meets_the_target_at_a_tenth_of_unit_stiffness(self):
        # tanh(lam / 2) is steep here, and the one 120-node rule's mean is the target to rounding
        rep = verify_nc_failure(2, 0.1)
        assert rep.passed and rep.max_abs_deviation <= 1e-15
        assert rep.samples == ORACLE_ORDER**2

    @pytest.mark.parametrize("modes, n", [(3, 16_000), (6, 4_000)])
    def test_monte_carlo_mean_is_within_the_gate_of_the_target(self, modes, n):
        rep = verify_nc_failure(modes, 1.0, n_samples=n, rng=RngSpec(5))
        assert rep.passed and rep.per_entry_se is not None
        assert np.array_equal(rep.target.matrix, nc_even_target(modes, 1.0))
        assert [b.name for b in rep.bounds] == MC_BOUNDS[:2] + ["failure_floor - identity_gap", "fock_check_deviation"]
        # against 2^-M I the same mean sits far outside the gate
        dev = np.abs(rep.mean.matrix - np.eye(1 << modes) / (1 << modes))
        assert (dev / np.maximum(rep.per_entry_se, 1e-300)).max() > 50.0

    def test_monte_carlo_route_does_not_depend_on_the_worker_count(self):
        one, two = (verify_nc_failure(3, 1.0, n_samples=1_600, rng=RngSpec(9), workers=w) for w in (1, 2))
        assert np.array_equal(one.mean.matrix, two.mean.matrix) and np.array_equal(one.per_entry_se, two.per_entry_se)
        assert [dataclasses.astuple(b) for b in one.bounds] == [dataclasses.astuple(b) for b in two.bounds]
        assert {**one.details, "workers": 2} == two.details and one.passed == two.passed

    def test_monte_carlo_keeps_the_eigenvalues_of_its_draws(self):
        rep = verify_nc_failure(3, 1.0, n_samples=400, rng=RngSpec(4), keep_points=True)
        gen, per = RngSpec(4).generator(), _chunk_layout(400)[1]
        h = verify_module._hermitian_matrices(gen, 3, per) / math.sqrt(2.0)
        assert rep.points.shape == (400, 3)
        assert np.array_equal(rep.point_chunks[0], np.linalg.eigh(h)[0])

    # power: each defect below fails the new bounds

    def test_modified_weight_draws_fail_the_even_weight_target(self, monkeypatch):
        # verify_nc_modified's draws, judged against the even-weight target and floor
        target = nc_even_target(3, 1.0)
        floor = FAILURE_FLOOR_FRACTION * _identity_gap(target)
        real = verify_module._mc_report
        monkeypatch.setattr(verify_module, "_mc_report",
                            lambda modes, chunks, details: real(modes, chunks, details, target=target, floor=floor))
        rep = verify_nc_modified(3, 1.0, 16_000, RngSpec(5))
        assert rep.details["max_sigma"] > 5.0
        assert {"max_sigma", "failure_floor - identity_gap"} <= set(self._failed(rep))
        assert rep.details["fock_check_deviation"] <= FOCK_CHECK_TOL

    @pytest.mark.parametrize("modes, failed", [(2, ["max_abs_deviation"]), (3, ["max_sigma"])])
    def test_a_target_at_twice_the_stiffness_fails(self, modes, failed, monkeypatch):
        real = verify_module.nc_even_target
        monkeypatch.setattr(verify_module, "nc_even_target", lambda m, p: real(m, 2.0 * p))
        rep = verify_nc_failure(modes, 1.0, n_samples=16_000, rng=RngSpec(5))
        assert self._failed(rep) == failed

    def test_an_off_diagonal_entry_in_the_mean_fails(self, monkeypatch):
        # a hermitian 1e-9 between the two one-particle states: it keeps the
        # particle number, and the mean stays 0.024 from 2^-M I
        real = verify_module._moment_mean

        def perturbed(*args):
            q = real(*args).copy()
            q[1, 2] += 1e-9
            q[2, 1] += 1e-9
            return q

        monkeypatch.setattr(verify_module, "_moment_mean", perturbed)
        rep = verify_nc_failure(2, 1.0)
        assert self._failed(rep) == ["max_abs_deviation"]
        assert rep.max_abs_deviation == pytest.approx(1e-9, rel=1e-6)


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

    def test_two_modes_take_qr_only_for_the_check(self, monkeypatch):
        # the M = 2 rows need no unitary: QR and the eigenpair rebuild run on
        # chunk 0's check draws alone, where at M = 3 QR runs on every chunk
        qr, rebuild, calls = np.linalg.qr, verify_module.from_eigenpairs, []
        monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(("qr", len(a))) or qr(a))
        monkeypatch.setattr(verify_module, "from_eigenpairs",
                            lambda w, u: calls.append(("rebuild", len(w))) or rebuild(w, u))
        check = [("qr", FOCK_CHECK_DRAWS), ("rebuild", FOCK_CHECK_DRAWS)]
        assert verify_nc_modified(2, 1.0, 400, RngSpec(3)).passed and sorted(calls) == check
        calls.clear()
        chunks, per = _chunk_layout(400)
        assert verify_nc_modified(3, 1.0, 400, RngSpec(3)).passed
        assert sorted(calls) == sorted(check + [("qr", per)] * chunks)


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
        rep = verify_nc_modified(2, p, 40_000, RngSpec(71), keep_points=True)
        assert (self._sigmas(rep.points, p) <= 5.0).all()

    def test_unsigned_samples_fail_odd_moments(self):
        # without the random signs the draws sit in the positive quadrant
        rep = verify_nc_modified(2, 1.0, 40_000, RngSpec(71), keep_points=True)
        sig = self._sigmas(np.abs(rep.points), 1.0)
        assert (sig[3:] > 5.0).all()


class TestBatchedPaths:
    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_lambda_samples_are_the_eigvalsh_pairs_of_the_mc_draws(self, modes):
        # the dump takes class_d_pair_values; eigvalsh of the same chunks is the oracle
        def worker(gen, per, first):
            return np.linalg.eigvalsh(sample_class_d_batch(modes, 1.0, gen, per))[:, modes:]

        want = np.concatenate(_run_chunks(worker, 5000, RngSpec(8), modes))
        got = verify_module.class_d_lambda_samples(modes, 1.0, RngSpec(8), 5000)
        if modes == 2:  # closed form: equal to rounding of each row's largest value
            assert (np.abs(got - want) <= 1e-14 * want.max(axis=1, keepdims=True)).all()
        else:
            assert np.array_equal(got, want)

    def test_ncons_batch_matches_public_op(self):
        from fermigauss import gaussian_number_conserving, sample_haar_unitary_batch

        gen = RngSpec(99).generator()
        for modes in (1, 2, 3):
            lam = gen.normal(size=(1, modes))
            u = sample_haar_unitary_batch(modes, gen, 1)[0]
            batch = embed_parity_blocks(rotated_ncons_blocks(lam, u))[0]
            h = u @ np.diag(lam[0]) @ u.conj().T
            assert np.abs(batch - gaussian_number_conserving(h).matrix).max() < 1e-13

    def test_gaussian_batch_matches_public_op_with_rotation(self):
        from fermigauss import gaussian_normalized, make_bdg

        gen = RngSpec(98).generator()
        for modes in (1, 2):
            lam = np.abs(gen.normal(size=(1, modes))) + 0.3
            rot = random_polar_rotation(modes, gen)
            batch = embed_parity_blocks(rotated_gaussian_blocks(lam, rot.bogoliubov))[0]
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

    def test_single_trial_runs_every_loop(self, monkeypatch):
        import fermigauss.verify as verify

        calls = {"exp_normalized_fock_batch": [], "_polar_rotations": []}
        sizes = {"exp_normalized_fock_batch": lambda hams: len(hams), "_polar_rotations": lambda m, gen, count: count}
        for name in calls:
            original = getattr(verify, name)

            def counted(*args, _name=name, _original=original):
                calls[_name].append(sizes[_name](*args))
                return _original(*args)

            monkeypatch.setattr(verify, name, counted)
        operator_identity_suite(max_modes=3, seed=42, trials=1)
        # normalized stacks of one draw: the positivity block's two mode counts, one
        # embedding and one diagonal form; then one stack of ten parameterization
        # rebuilds; one rotation
        assert calls == {"exp_normalized_fock_batch": [1, 1, 1, 1, 10], "_polar_rotations": [1]}

    def test_identity_suite_calls_no_single_matrix_constructor(self, monkeypatch):
        # every trial runs on stacks: no public one-matrix constructor is reached
        import fermigauss
        from fermigauss import fock

        called = []
        for module in (fermigauss, fock, gaussian, verify_module):
            for name in ("quadratic_hamiltonian", "op_exp", "normal_ordered_exp", "gaussian_normalized",
                         "gaussian_number_conserving", "greens_parameterization"):
                if hasattr(module, name):
                    def spy(*args, _name=name, _fn=getattr(module, name), **kwargs):
                        called.append(_name)
                        return _fn(*args, **kwargs)

                    monkeypatch.setattr(module, name, spy)
        operator_identity_suite(max_modes=3, seed=42, trials=50)
        assert called == []

    @pytest.mark.parametrize("modes", [1, 2, 3])
    def test_greens_trial_matches_the_public_constructors(self, modes):
        # the stacked trial against the per-draw route through the public
        # constructors, gap for gap, bit for bit
        from fermigauss import gaussian_number_conserving, greens_parameterization, normal_ordered_exp

        for seed in range(5):
            ((_, _, gaps),) = verify_module._greens_rebuild(RngSpec(seed).generator(), modes, 10)
            per_draw = []
            for h in verify_module._hermitian_matrices(RngSpec(seed).generator(), modes, 10):
                n_tilde = greens_parameterization(h).n_tilde
                coeff = (np.linalg.inv(n_tilde) - 2.0 * np.eye(modes)).T
                rebuilt = np.linalg.det(n_tilde).real * normal_ordered_exp(coeff).matrix
                per_draw.append(np.abs(rebuilt - gaussian_number_conserving(h).matrix).max())
            assert gaps.tolist() == per_draw

    def test_selberg_consistency_suite_is_green(self):
        for res in selberg_consistency_suite(max_modes=6):
            assert res.passed, res.name

    def test_identity_suite_draws_on_no_more_modes_than_its_flag(self, monkeypatch):
        # spies on every trial's mode count and on every mode count that
        # reaches a Fock or coefficient-matrix construction
        from fermigauss import fock

        trials, counts, seen = verify_module._IDENTITY_TRIALS, set(), {}

        def spied(trial):
            def spy(gen, m, count):
                seen.setdefault(trial.__name__, set()).add(m)
                return trial(gen, m, count)

            return spy

        def check_modes(modes, _real=fock._check_modes):
            counts.add(modes)
            _real(modes)

        monkeypatch.setattr(verify_module, "_IDENTITY_TRIALS", tuple((spied(t), schedule) for t, schedule in trials))
        for module in (fock, gaussian):
            monkeypatch.setattr(module, "_check_modes", check_modes)
        results = operator_identity_suite(max_modes=1, seed=42, trials=4)
        assert seen == {trial.__name__: {1} for trial, _ in trials} and counts == {1}
        assert len(results) == 14 and all(r.passed for r in results)

    def test_selberg_suite_evaluates_no_closed_form_above_its_flag(self, monkeypatch):
        from fermigauss import selberg

        seen = {}
        for name in ("angular_volume_log", "radial_gaussian_integral_log", "cartesian_gaussian_integral_log",
                     "norm_const_gauss_log", "norm_const_det_log", "selberg_integral_log"):
            def spy(*args, _name=name, _real=getattr(selberg, name)):
                modes = args[-1] if _name == "selberg_integral_log" else args[0]  # its n, the others' modes
                seen.setdefault(_name, set()).add(modes)
                return _real(*args)

            monkeypatch.setattr(selberg, name, spy)
        results = selberg_consistency_suite(max_modes=1)
        assert len(seen) == 6 and all(modes == {1} for modes in seen.values()), seen
        assert len(results) == 5 and all(r.passed for r in results)

    def test_criterion_is_three_fields_and_passes_at_most_its_tolerance(self):
        assert [f.name for f in dataclasses.fields(CriterionResult)] == ["name", "measured", "tolerance"]
        assert CriterionResult("c", 1e-9, 1e-9).passed is True
        assert CriterionResult("c", 2e-9, 1e-9).passed is False
        assert CriterionResult("c", float("nan"), 1e-9).passed is False

    def test_positivity_measures_minus_the_smallest_eigenvalue(self, monkeypatch):
        import fermigauss.verify as verify

        trials, seen = 6, []
        real = verify.exp_normalized_fock_batch

        def spy(hams):
            lam = real(hams)
            seen.extend(np.linalg.eigvalsh(lam).min(axis=-1))
            return lam

        monkeypatch.setattr(verify, "exp_normalized_fock_batch", spy)
        results = {r.name: r for r in operator_identity_suite(max_modes=3, seed=42, trials=trials)}
        res = results["normalized operators positive definite"]
        # the positivity block's stacks hold the first 2 * trials normalized draws
        assert res.passed and res.measured < 0.0
        assert res.measured == -min(seen[: 2 * trials])

    def test_nan_trace_fails(self, monkeypatch):
        import fermigauss.verify as verify

        # every pair value NaN, as the trace trial reads them from its draws' eigenvalues
        monkeypatch.setattr(verify, "_pair_values", lambda w: np.full(w.shape[:-1] + (w.shape[-1] // 2,), np.nan))
        results = {r.name: r for r in operator_identity_suite(max_modes=3, seed=42, trials=4)}
        res = results["trace = product of 2cosh(lam/2) = sqrt(det 2cosh(H/2))"]
        assert math.isnan(res.measured) and not res.passed
        assert all(r.passed for name, r in results.items() if r is not res)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_the_trace_trial_takes_one_eigh_of_its_draws(self, m, monkeypatch):
        # the closed form's pair values and the rebuilt 2cosh(H/2) read the same eigenpairs
        draws, eighs = [], []
        sample, eigh = verify_module.sample_class_d_batch, np.linalg.eigh
        monkeypatch.setattr(verify_module, "sample_class_d_batch", lambda *args: draws.append(sample(*args)) or draws[-1])
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: eighs.append(np.array(a)) or eigh(a, *args, **kw))
        [(_, _, gaps)] = verify_module._trace_formula(np.random.default_rng(3), m, 6)
        assert len(draws) == 1 and gaps.shape == (6,) and (gaps < 1e-9).all()
        assert sum(a.shape == draws[0].shape and np.array_equal(a, draws[0]) for a in eighs) == 1

    @pytest.mark.parametrize("context, name", [
        ("compose_general", "general composition law at operator level"),
        ("compose_number_conserving", "number-conserving composition law at operator level"),
    ])
    def test_each_composition_law_fails_on_the_plain_sum(self, monkeypatch, context, name):
        # exp(H1 + H2) is not exp(H1) exp(H2) for non-commuting draws
        real = verify_module._principal_log
        monkeypatch.setattr(verify_module, "_principal_log", lambda a, b, ctx: a + b if ctx == context else real(a, b, ctx))
        results = {r.name: r for r in operator_identity_suite(max_modes=3, seed=42, trials=4)}
        assert not results[name].passed and results[name].measured > 1e-3
        assert all(r.passed for r in results.values() if r.name != name)

    @pytest.mark.parametrize("row", range(len(verify_module._IDENTITY_TRIALS)),
                             ids=[trial.__name__ for trial, _ in verify_module._IDENTITY_TRIALS])
    def test_each_identity_criterion_reads_only_its_own_trials(self, monkeypatch, row):
        parent = operator_identity_suite(max_modes=3, seed=42, trials=4)
        trial, schedule = verify_module._IDENTITY_TRIALS[row]
        own = set()

        def nan_gaps(gen, m, count):  # the row's usual draws, with every gap NaN
            criteria = trial(gen, m, count)
            own.update(name for name, _, _ in criteria)
            return [(name, tolerance, np.full_like(gaps, math.nan)) for name, tolerance, gaps in criteria]

        rows = list(verify_module._IDENTITY_TRIALS)
        rows[row] = (nan_gaps, schedule)
        monkeypatch.setattr(verify_module, "_IDENTITY_TRIALS", tuple(rows))
        results = operator_identity_suite(max_modes=3, seed=42, trials=4)
        assert own and [r.name for r in results] == [r.name for r in parent]
        for res, before in zip(results, parent):
            if res.name in own:
                assert math.isnan(res.measured) and not res.passed, res.name
            else:
                assert res.measured.hex() == before.measured.hex() and res.passed, res.name

    def test_nan_radial_integral_fails_the_criteria_that_read_it(self, monkeypatch):
        from fermigauss import selberg

        monkeypatch.setattr(selberg, "radial_gaussian_integral_log", lambda modes, p: math.nan)
        verdicts = {r.name.split(" (")[0]: r.passed for r in selberg_consistency_suite(max_modes=6)}
        assert verdicts == {
            "angular + radial = Cartesian in log space": False,
            "angular volume is independent of p": False,
            "angular volume is 1 for a single mode": True,
            "Gaussian weight constant normalizes to one": False,
            "determinant weight constant normalizes to one": True,
        }


def _scalar_bdg(mat: np.ndarray):
    m = mat.shape[-1] // 2
    return make_bdg(mat[:m, :m], mat[:m, m:])


def _scalar_expm_fock(coefficients) -> np.ndarray:
    from fermigauss import quadratic_hamiltonian

    return verify_module._expm(quadratic_hamiltonian(coefficients).matrix)


def _scalar_normal_ordering(gen, m, count):
    from fermigauss import normal_ordered_exp, op_exp, quadratic_hamiltonian
    from fermigauss.fock import _exp_hermitian

    gaps = []
    for h in verify_module._hermitian_matrices(gen, m, count):
        direct = op_exp(quadratic_hamiltonian(make_bdg(h, np.zeros_like(h)))).matrix
        direct = np.exp(0.5 * np.trace(h).real) * direct
        gaps.append(np.abs(direct - normal_ordered_exp(_exp_hermitian(h) - np.eye(m)).matrix).max())
    return [gaps]


def _scalar_trace_formula(gen, m, count):
    from fermigauss import op_exp, paired_eigenvalues, quadratic_hamiltonian

    gaps = []
    for mat in sample_class_d_batch(m, 1.0, gen, count):
        bdg = _scalar_bdg(mat)
        closed = np.prod(2.0 * np.cosh(paired_eigenvalues(bdg) / 2.0))
        exact = op_exp(quadratic_hamiltonian(bdg)).trace().real
        w, v = np.linalg.eigh(bdg.assembled())
        root_det = math.sqrt(abs(np.linalg.det(from_eigenpairs(2.0 * np.cosh(w / 2.0), v))))
        gaps.append(max(abs(exact - closed) / closed, abs(root_det - closed) / closed))
    return [gaps]


def _scalar_normalization(gen, m, count):
    from fermigauss import gaussian_normalized

    ops = [gaussian_normalized(_scalar_bdg(mat)) for mat in sample_class_d_batch(m, 1.0, gen, count)]
    return [[-np.linalg.eigvalsh(op.matrix).min() for op in ops], [abs(op.trace().real - 1.0) for op in ops]]


def _scalar_composition(gen, m, count):
    from fermigauss import compose_general, compose_number_conserving, op_exp, quadratic_hamiltonian

    def factor(coefficients):  # a hermitian factor's exponential, by op_exp
        return op_exp(quadratic_hamiltonian(coefficients)).matrix

    b = [_scalar_bdg(mat) for mat in sample_class_d_batch(m, 1.0, gen, 2 * count)]
    h = verify_module._hermitian_matrices(gen, m, 2 * count)
    general, conserving = [], []
    for b1, b2 in zip(b[:count], b[count:]):
        scale = 1.2 / sum(np.abs(np.linalg.eigvalsh(x.assembled())).max() for x in (b1, b2))
        b1, b2 = (make_bdg(scale * x.h, scale * x.delta) for x in (b1, b2))
        x = compose_general(b1, b2)
        general.append(np.abs(_scalar_expm_fock(x) - factor(b1) @ factor(b2)).max())
    for h1, h2 in zip(h[:count], h[count:]):
        scale = 1.2 / sum(np.abs(np.linalg.eigvalsh(x)).max() for x in (h1, h2))
        h1, h2 = scale * h1, scale * h2
        hc, h1, h2 = (assemble_blocks(x, np.zeros_like(x)) for x in (compose_number_conserving(h1, h2), h1, h2))
        conserving.append(np.abs(_scalar_expm_fock(hc) - factor(h1) @ factor(h2)).max())
    return [general, conserving]


def _scalar_nc_embedding(gen, m, count):
    from fermigauss import FockOperator, gaussian_number_conserving, op_exp
    from fermigauss.fock import _annihilators, _string_sum

    gaps = []
    for h in verify_module._hermitian_matrices(gen, m, count):
        direct = op_exp(FockOperator(m, _string_sum(_annihilators(m), h), hermitian=True))
        gaps.append(np.abs(gaussian_number_conserving(h).matrix - direct.matrix / direct.trace().real).max())
    return [gaps]


def _scalar_diagonal_form(gen, m, count):
    from fermigauss import gaussian_normalized, polar_decompose
    from fermigauss.fock import _annihilators

    product, diagonal = [], []
    dim, ann = 1 << m, _annihilators(m)
    modes = np.concatenate([ann, np.swapaxes(ann, -1, -2)]).reshape(2 * m, -1)
    for mat in sample_class_d_batch(m, 1.0, gen, count):  # no draw of these seeds is degenerate
        polar = polar_decompose(_scalar_bdg(mat))
        bdg_mat = polar.bogoliubov.conj().T @ polar.diagonal_coefficient() @ polar.bogoliubov
        lam_op = gaussian_normalized(make_bdg(bdg_mat[:m, :m], bdg_mat[:m, m:])).matrix
        bops = (polar.bogoliubov[:m] @ modes).reshape(m, dim, dim)
        tanh = np.tanh(polar.lambdas / 2.0)
        prod, combo = np.eye(dim, dtype=complex), np.zeros((dim, dim), dtype=complex)
        for j in range(m):
            nj = bops[j].conj().T @ bops[j]
            prod = prod @ (0.5 * (1.0 - tanh[j]) * np.eye(dim) + tanh[j] * nj)
            combo += 3.0**j * nj
        vv = np.linalg.eigh(combo)[1]
        rotated = vv.conj().T @ lam_op @ vv
        product.append(np.abs(lam_op - prod).max())
        diagonal.append(np.abs(rotated - np.diag(np.diagonal(rotated))).max())
    return [product, diagonal]


def _scalar_spectral_exp(gen, m, count):
    from fermigauss import FockOperator, op_exp

    gaps = []
    for hmat in verify_module._hermitian_matrices(gen, 1 << m, count):
        a = FockOperator(m, hmat, hermitian=True)
        e_plus, e_minus = op_exp(a), op_exp(a, -1.0)
        inverse = np.abs(e_plus.matrix @ e_minus.matrix - np.eye(1 << m)).max()
        spectrum = np.abs(np.linalg.eigvalsh(e_plus.matrix) - np.exp(np.linalg.eigvalsh(hmat))).max()
        gaps.append(max(inverse, spectrum))
    return [gaps]


class TestStackedTrials:
    """Each stacked trial checks the same identities as the scalar public
    constructors, one draw at a time, on the same draws."""

    @pytest.mark.parametrize("trial, scalar", [
        (verify_module._normal_ordering, _scalar_normal_ordering),
        (verify_module._trace_formula, _scalar_trace_formula),
        (verify_module._normalization, _scalar_normalization),
        (verify_module._composition, _scalar_composition),
        (verify_module._nc_embedding, _scalar_nc_embedding),
        (verify_module._diagonal_form, _scalar_diagonal_form),
        (verify_module._spectral_exp, _scalar_spectral_exp),
    ], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_per_draw_gaps_match_the_scalar_constructors(self, trial, scalar, m):
        count = 12
        stacked = trial(RngSpec(71, stream=m).generator(), m, count)
        want = scalar(RngSpec(71, stream=m).generator(), m, count)
        assert len(stacked) == len(want)
        for (name, _, gaps), expected in zip(stacked, want):
            assert gaps.shape == (count,), name
            np.testing.assert_allclose(gaps, expected, rtol=1e-12, atol=0.0, err_msg=name)


class TestStackPower:
    """A defect in one draw of a 50-draw stack is caught as it would be alone."""

    @staticmethod
    def _one_draw(stack: np.ndarray, k: int = 17) -> np.ndarray:
        assert len(stack) == 50
        return stack[k]

    def test_particle_hole_violation_in_one_composed_matrix_raises(self, monkeypatch):
        from fermigauss import StructureError

        real = verify_module._principal_log

        def broken(a, b, context):
            x = real(a, b, context)
            if context == "compose_general":
                self._one_draw(x)[0, 1] += 1e-6  # the h block alone: -h^T no longer matches
            return x

        monkeypatch.setattr(verify_module, "_principal_log", broken)
        with pytest.raises(StructureError, match="particle-hole"):
            operator_identity_suite(max_modes=3, seed=42, trials=50)

    @pytest.mark.parametrize("context", ["compose_general", "compose_number_conserving"])
    def test_one_pair_at_the_norm_gate_raises(self, monkeypatch, context):
        real = verify_module._principal_log

        def scaled(a, b, ctx):
            if ctx == context:
                a, b = a.copy(), b.copy()
                self._one_draw(a)[...] *= 3.0  # the pair's combined norm, 1.2, becomes 3.6 > pi
                self._one_draw(b)[...] *= 3.0
            return real(a, b, ctx)

        monkeypatch.setattr(verify_module, "_principal_log", scaled)
        with pytest.raises(ContractError, match=">= pi"):
            operator_identity_suite(max_modes=3, seed=42, trials=50)

    def test_one_failed_round_trip_raises(self, monkeypatch):
        from fermigauss import BranchCutError

        real = gaussian._expm

        def perturbed(a):
            out = real(a)
            if len(out) == 50:
                self._one_draw(out)[0, 0] += 1e-6
            return out

        monkeypatch.setattr(gaussian, "_expm", perturbed)  # the round trip of _principal_log alone
        with pytest.raises(BranchCutError, match="round trip"):
            operator_identity_suite(max_modes=3, seed=42, trials=50)

    def test_one_nan_gap_fails_its_criterion(self, monkeypatch):
        real, calls = verify_module._expm, []

        def nan_draw(a):
            out = real(a)
            if len(out) == 50 and not calls:  # the first 50-draw stack: the composed general X
                calls.append(a)
                self._one_draw(out)[...] = np.nan
            return out

        monkeypatch.setattr(verify_module, "_expm", nan_draw)
        results = {r.name: r for r in operator_identity_suite(max_modes=3, seed=42, trials=50)}
        res = results["general composition law at operator level"]
        assert calls and math.isnan(res.measured) and not res.passed
        assert all(r.passed for r in results.values() if r is not res)
