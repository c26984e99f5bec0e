"""Parameter-shift rule synthesis for arbitrary eigenvalue spectra.

The paper's alternative closed forms (Cramer, Jacobi, determinant
stationarity, ...) live in ``shiftrules.checks``, which is not imported here.
"""

from .equidistant import (
    EquidistantStructure,
    closed_form_rule,
    cluster_rule_estimates,
    dirichlet_kernel,
    optimal_phases,
    orthogonality_residual,
)
from .fourier import (
    FourierModel,
    HamiltonianModel,
    NoiseSpec,
    analytic_derivative,
    evaluate,
    from_hamiltonian,
    sample_noisy,
)
from .perturbation import (
    PerturbationData,
    error_bound,
    linearized_solution,
    perturbation_matrices,
)
from .regularization import (
    RegularizationConfig,
    RegularizedSolution,
    regularized_rule,
    select_gamma_discrepancy,
    tikhonov_solve,
)
from .spectrum import (
    ClusterSet,
    FrequencySet,
    Spectrum,
    StructureClass,
    StructureKind,
    classify_structure,
    cluster_realizations,
    frequency_differences,
)
from .synthesis import (
    IllPosedError,
    LinearSystem,
    ShiftRule,
    apply_rule,
    build_system,
    compatibility_residual,
    condition_number,
    derivative_rhs,
    solve_direct,
    synthesize_rule,
)
from .variance import (
    OptimizationConfig,
    VarianceReport,
    confidence_interval,
    optimize_shifts,
    stationarity_residual,
    variance_of_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterSet",
    "EquidistantStructure",
    "FourierModel",
    "FrequencySet",
    "HamiltonianModel",
    "IllPosedError",
    "LinearSystem",
    "NoiseSpec",
    "OptimizationConfig",
    "PerturbationData",
    "RegularizationConfig",
    "RegularizedSolution",
    "ShiftRule",
    "Spectrum",
    "StructureClass",
    "StructureKind",
    "VarianceReport",
    "analytic_derivative",
    "apply_rule",
    "build_system",
    "classify_structure",
    "closed_form_rule",
    "cluster_realizations",
    "cluster_rule_estimates",
    "compatibility_residual",
    "condition_number",
    "confidence_interval",
    "derivative_rhs",
    "dirichlet_kernel",
    "error_bound",
    "evaluate",
    "from_hamiltonian",
    "frequency_differences",
    "linearized_solution",
    "optimal_phases",
    "optimize_shifts",
    "orthogonality_residual",
    "perturbation_matrices",
    "regularized_rule",
    "sample_noisy",
    "select_gamma_discrepancy",
    "solve_direct",
    "stationarity_residual",
    "synthesize_rule",
    "tikhonov_solve",
    "variance_of_estimate",
]
