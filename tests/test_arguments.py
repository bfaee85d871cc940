"""Every public entry point rejects a malformed argument with a named error.

One table maps a probe of each exported callable to the FermigaussError
subclass it must raise: a fractional, boolean or NaN count, a non-finite real
parameter, a malformed or empty matrix, or a closed form whose value leaves
the float range. A new export without a row (or an exemption) fails the table.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fermigauss
from fermigauss import (
    CLASS_D,
    BdgMatrix,
    CapacityError,
    ContractError,
    DomainError,
    FermigaussError,
    FockOperator,
    GreensPair,
    PolarForm,
    RadialLaw,
    RngSpec,
    StructureError,
    SymmetryClass,
    WeightSpec,
    angular_volume_log,
    build_mode_operators,
    cartesian_gaussian_integral_log,
    compose_general,
    compose_number_conserving,
    gaussian_normalized,
    gaussian_number_conserving,
    greens_parameterization,
    laguerre_selberg_log,
    make_bdg,
    norm_const_det_log,
    norm_const_gauss_log,
    normal_ordered_exp,
    op_exp,
    operator_identity_suite,
    paired_eigenvalues,
    polar_decompose,
    quadratic_hamiltonian,
    radial_gaussian_integral_log,
    random_polar_rotation,
    sample_class_d,
    sample_class_d_batch,
    sample_haar_unitary_batch,
    sample_radial_mcmc,
    selberg_consistency_suite,
    selberg_integral_log,
    shifted_weight_quadrature_deviation,
    vandermonde,
    verify_canonical_triviality,
    verify_nc_failure,
    verify_nc_modified,
    verify_resolution_mc,
    verify_resolution_quadrature,
)

#: Exported callables with no row, each with the reason.
EXEMPT = {
    "symmetry_class": "takes a class label, not a count, real parameter or array",
    "CriterionResult": "a result record: a NaN measurement in it is a failed verdict",
    "EstimatorReport": "a result record that the drivers build from checked arguments",
    "McmcSamples": "a result record that sample_radial_mcmc builds",
}

#: Counts that no count argument accepts.
BAD_COUNTS = (2.5, True, math.nan)

GAUSS = WeightSpec.gaussian(1.0)
GAUSS_D = RadialLaw(CLASS_D, GAUSS)
EMPTY = np.zeros((0, 0))


#: (exported name, probe, the error class it raises)
PROBES = [
    ("RngSpec", lambda: RngSpec(1.5), ContractError),
    ("RngSpec", lambda: RngSpec(0, -1), ContractError),
    ("SymmetryClass", lambda: SymmetryClass("X", 2.5, 0), DomainError),
    ("SymmetryClass", lambda: SymmetryClass("X", 2, math.nan), DomainError),
    ("WeightSpec", lambda: WeightSpec.gaussian(math.nan), DomainError),
    ("WeightSpec", lambda: WeightSpec("gaussian", "1"), DomainError),
    ("RadialLaw", lambda: RadialLaw(CLASS_D, WeightSpec.nc_even(1.0)), ContractError),
    ("RadialLaw", lambda: RadialLaw(None, GAUSS), ContractError),
    ("random_polar_rotation", lambda: random_polar_rotation(2.5, RngSpec(0)), DomainError),
    *(("sample_class_d", lambda n=n: sample_class_d(n, 1.0, RngSpec(0)), DomainError) for n in BAD_COUNTS),
    ("sample_class_d", lambda: sample_class_d(2, math.inf, RngSpec(0)), DomainError),
    ("sample_class_d_batch", lambda: sample_class_d_batch(2, 1.0, RngSpec(0), 2.5), ContractError),
    *(
        ("sample_haar_unitary_batch", lambda n=n: sample_haar_unitary_batch(n, RngSpec(0), 1), DomainError)
        for n in BAD_COUNTS
    ),
    ("sample_haar_unitary_batch", lambda: sample_haar_unitary_batch(2, RngSpec(0), True), ContractError),
    *(
        ("sample_radial_mcmc", lambda n=n: sample_radial_mcmc(GAUSS_D, 2, n, RngSpec(0)), ContractError)
        for n in BAD_COUNTS
    ),
    ("FockOperator", lambda: FockOperator(2, np.ones((3, 3))), StructureError),
    ("FockOperator", lambda: FockOperator(2.5, np.eye(4)), CapacityError),
    ("build_mode_operators", lambda: build_mode_operators(2.5), CapacityError),
    ("normal_ordered_exp", lambda: normal_ordered_exp(np.ones(3)), StructureError),
    ("normal_ordered_exp", lambda: normal_ordered_exp(EMPTY), StructureError),
    ("op_exp", lambda: op_exp(FockOperator(1, np.eye(2)), math.nan), DomainError),
    ("quadratic_hamiltonian", lambda: quadratic_hamiltonian(EMPTY), StructureError),
    ("BdgMatrix", lambda: BdgMatrix(EMPTY, EMPTY), StructureError),
    ("GreensPair", lambda: GreensPair(0.5, 0.5), StructureError),
    ("GreensPair", lambda: GreensPair(0.5 * np.eye(2), 0.5 * np.eye(3)), StructureError),
    ("GreensPair", lambda: GreensPair(EMPTY, EMPTY), StructureError),
    ("PolarForm", lambda: PolarForm(np.ones((1, 1)), np.eye(2)), StructureError),
    ("PolarForm", lambda: PolarForm(np.zeros(0), EMPTY), StructureError),
    ("compose_general", lambda: compose_general(np.eye(2), np.eye(2)), ContractError),
    ("compose_number_conserving", lambda: compose_number_conserving(EMPTY, EMPTY), ContractError),
    ("gaussian_normalized", lambda: gaussian_normalized(EMPTY), StructureError),
    ("gaussian_number_conserving", lambda: gaussian_number_conserving(np.ones(3)), StructureError),
    ("greens_parameterization", lambda: greens_parameterization(np.ones(3)), StructureError),
    ("greens_parameterization", lambda: greens_parameterization(np.ones((2, 3))), StructureError),
    ("greens_parameterization", lambda: greens_parameterization(EMPTY), StructureError),
    ("make_bdg", lambda: make_bdg(np.ones(3), np.ones(3)), StructureError),
    ("paired_eigenvalues", lambda: paired_eigenvalues(np.eye(2)), ContractError),
    ("polar_decompose", lambda: polar_decompose(np.eye(2)), ContractError),
    ("selberg_integral_log", lambda: selberg_integral_log(math.nan, 1, 1, 2), DomainError),
    ("selberg_integral_log", lambda: selberg_integral_log(1e308, 1, 1, 2), DomainError),
    ("laguerre_selberg_log", lambda: laguerre_selberg_log(1, 1e308, 2), DomainError),
    *(("radial_gaussian_integral_log", lambda n=n: radial_gaussian_integral_log(n, 1.0), DomainError) for n in BAD_COUNTS),
    ("cartesian_gaussian_integral_log", lambda: cartesian_gaussian_integral_log(2, math.nan), DomainError),
    ("angular_volume_log", lambda: angular_volume_log(2.5), DomainError),
    ("norm_const_det_log", lambda: norm_const_det_log(2, 1e308), DomainError),
    ("norm_const_gauss_log", lambda: norm_const_gauss_log(2, math.nan), DomainError),
    ("vandermonde", lambda: vandermonde([math.nan, 1.0]), DomainError),
    ("verify_resolution_mc", lambda: verify_resolution_mc(1, 1.0, 32, 0, workers=2.5), ContractError),
    *(("verify_resolution_mc", lambda n=n: verify_resolution_mc(1, 1.0, n, 0), ContractError) for n in BAD_COUNTS),
    *(("verify_resolution_mc", lambda n=n: verify_resolution_mc(n, 1.0, 32, 0), CapacityError) for n in BAD_COUNTS),
    *(("verify_nc_modified", lambda n=n: verify_nc_modified(2, 1.0, n, 0), ContractError) for n in BAD_COUNTS),
    *(("operator_identity_suite", lambda n=n: operator_identity_suite(max_modes=n), CapacityError) for n in BAD_COUNTS),
    *(("operator_identity_suite", lambda n=n: operator_identity_suite(trials=n), ContractError) for n in BAD_COUNTS),
    *(("selberg_consistency_suite", lambda n=n: selberg_consistency_suite(n), ContractError) for n in BAD_COUNTS),
    *(
        ("verify_resolution_quadrature", lambda n=n: verify_resolution_quadrature(1, CLASS_D, GAUSS, quad_order=n), ContractError)
        for n in BAD_COUNTS
    ),
    ("verify_canonical_triviality", lambda: verify_canonical_triviality(1, 1.0, [0.0], 2.5, 0), ContractError),
    ("verify_canonical_triviality", lambda: verify_canonical_triviality(1, 1.0, [math.nan], 32, 0), DomainError),
    ("verify_nc_failure", lambda: verify_nc_failure(2, 1.0, quad_order=2.5), ContractError),
    *(("verify_nc_failure", lambda n=n: verify_nc_failure(3, 1.0, n_samples=n), ContractError) for n in BAD_COUNTS),
    *(("verify_nc_failure", lambda n=n: verify_nc_failure(n, 1.0), CapacityError) for n in BAD_COUNTS),
    ("verify_nc_failure", lambda: verify_nc_failure(3, 1.0, n_samples=32, workers=0), ContractError),
    ("verify_nc_failure", lambda: verify_nc_failure(2, np.array(1.0)), DomainError),
    ("shifted_weight_quadrature_deviation", lambda: shifted_weight_quadrature_deviation(1, CLASS_D, 1.0, math.nan), DomainError),
    ("shifted_weight_quadrature_deviation", lambda: shifted_weight_quadrature_deviation(2.5, CLASS_D, 1.0, 0.5), CapacityError),
    ("verify_resolution_quadrature", lambda: verify_resolution_quadrature(1, CLASS_D, GAUSS, "identity"), ContractError),
    ("verify_resolution_quadrature", lambda: verify_resolution_quadrature(2, CLASS_D, WeightSpec.nc_even(1.0)), ContractError),
    ("verify_canonical_triviality", lambda: verify_canonical_triviality(1, 1.0, "0.5", 32, 0), ContractError),
    ("verify_canonical_triviality", lambda: verify_canonical_triviality(1, 1.0, None, 32, 0), ContractError),
]


def _probe_ids(rows) -> list[str]:
    """``name-k`` for the k-th row of each name, so deleting a row renames
    only the later rows of its own name."""
    seen = {}
    ids = []
    for name, *_ in rows:
        seen[name] = seen.get(name, -1) + 1
        ids.append(f"{name}-{seen[name]}")
    return ids


@pytest.mark.parametrize("name, probe, error", PROBES, ids=_probe_ids(PROBES))
def test_probe_raises_its_named_error(name, probe, error):
    with pytest.raises(FermigaussError) as caught:
        probe()
    assert type(caught.value) is error, caught.value


def test_every_exported_callable_has_a_row_or_an_exemption():
    exported = {
        name
        for name, obj in vars(fermigauss).items()
        if callable(obj) and not name.startswith("_") and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    rows = {row[0] for row in PROBES}
    assert sorted(exported - rows - EXEMPT.keys()) == [], "exported callables with no probe row"
    assert sorted((rows | EXEMPT.keys()) - exported) == [], "rows or exemptions for names not exported"
    assert sorted(rows & EXEMPT.keys()) == [], "exempt names with a probe row"


FLOATS = st.floats() | st.sampled_from([1e308, -1e308, 1e-320, 5e-324, math.nan, math.inf, -math.inf])
COUNTS = st.integers(1, 8)

#: Each closed form and the strategies of its arguments.
CLOSED_FORMS = {
    "selberg_integral_log": (selberg_integral_log, (FLOATS, FLOATS, FLOATS, COUNTS)),
    "laguerre_selberg_log": (laguerre_selberg_log, (FLOATS, FLOATS, COUNTS)),
    "radial_gaussian_integral_log": (radial_gaussian_integral_log, (COUNTS, FLOATS)),
    "cartesian_gaussian_integral_log": (cartesian_gaussian_integral_log, (COUNTS, FLOATS)),
    "angular_volume_log": (angular_volume_log, (COUNTS,)),
    "norm_const_det_log": (norm_const_det_log, (COUNTS, FLOATS)),
    "norm_const_gauss_log": (norm_const_gauss_log, (COUNTS, FLOATS)),
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_closed_form_is_a_finite_float_or_a_domain_error(name, data):
    func, strategies = CLOSED_FORMS[name]
    args = [data.draw(s) for s in strategies]
    try:
        out = func(*args)
    except DomainError:
        return
    assert type(out) is float and math.isfinite(out), (args, out)
