"""Fermionic Gaussian operators on small Fock spaces, with random-matrix
sampling and resolution-of-unity verification tools."""

from .ensembles import (
    CLASS_C,
    CLASS_CI,
    CLASS_D,
    CLASS_DIII,
    SYMMETRY_CLASSES,
    McmcSamples,
    RadialLaw,
    RngSpec,
    SymmetryClass,
    WeightSpec,
    random_polar_rotation,
    sample_class_d,
    sample_class_d_batch,
    sample_haar_unitary_batch,
    sample_radial_mcmc,
    symmetry_class,
)
from .errors import (
    BranchCutError,
    CapacityError,
    ContractError,
    DegenerateSpectrumError,
    DomainError,
    FermigaussError,
    NonConvergenceError,
    StructureError,
)
from .fock import (
    DEFAULT_MODE_CAP,
    FockOperator,
    build_mode_operators,
    normal_ordered_exp,
    op_exp,
    quadratic_hamiltonian,
)
from .gaussian import (
    BdgMatrix,
    GreensPair,
    PolarForm,
    compose_general,
    compose_number_conserving,
    gaussian_normalized,
    gaussian_number_conserving,
    greens_parameterization,
    make_bdg,
    paired_eigenvalues,
    polar_decompose,
)
from .selberg import (
    angular_volume_log,
    cartesian_gaussian_integral_log,
    laguerre_selberg_log,
    norm_const_det_log,
    norm_const_gauss_log,
    radial_gaussian_integral_log,
    selberg_integral_log,
    vandermonde,
)
from .verify import (
    CriterionResult,
    EstimatorReport,
    operator_identity_suite,
    selberg_consistency_suite,
    shifted_weight_quadrature_deviation,
    verify_canonical_triviality,
    verify_nc_failure,
    verify_nc_modified,
    verify_resolution_mc,
    verify_resolution_quadrature,
)

__version__ = "0.1.0"
