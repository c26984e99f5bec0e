"""Parameter-shift rule synthesis for arbitrary eigenvalue spectra.

The paper's alternative closed forms (Cramer, Jacobi, determinant
stationarity, ...) live in ``shiftrules.checks``, which is not imported here.
"""

from .equidistant import (
    EquidistantStructure,
    closed_form_rule,
    optimal_phases,
)
from .fourier import (
    FourierModel,
    HamiltonianModel,
    NoiseSpec,
    analytic_derivative,
    evaluate,
    from_hamiltonian,
)
from .perturbation import (
    error_bound,
    perturbation_matrices,
)
from .regularization import (
    RegularizationConfig,
    regularized_rule,
    tikhonov_solve,
)
from .spectrum import (
    FrequencySet,
    Spectrum,
    StructureKind,
    classify_structure,
    frequency_differences,
)
from .synthesis import (
    IllPosedError,
    ShiftRule,
    apply_rule,
    build_system,
    compatibility_residual,
    condition_number,
    solve_direct,
    synthesize_rule,
)
from .variance import (
    OptimizationConfig,
    confidence_interval,
    optimize_shifts,
    variance_of_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "EquidistantStructure",
    "FourierModel",
    "FrequencySet",
    "HamiltonianModel",
    "IllPosedError",
    "NoiseSpec",
    "OptimizationConfig",
    "RegularizationConfig",
    "ShiftRule",
    "Spectrum",
    "StructureKind",
    "analytic_derivative",
    "apply_rule",
    "build_system",
    "classify_structure",
    "closed_form_rule",
    "compatibility_residual",
    "condition_number",
    "confidence_interval",
    "error_bound",
    "evaluate",
    "from_hamiltonian",
    "frequency_differences",
    "optimal_phases",
    "optimize_shifts",
    "perturbation_matrices",
    "regularized_rule",
    "solve_direct",
    "synthesize_rule",
    "tikhonov_solve",
    "variance_of_estimate",
]
