"""Spectral toolkit for Hermite/Fock bases, Gaussian-kernel transforms and
Fourier-multiplier probes on fractional smoothness spaces."""

from .errors import (
    AccuracyWarning,
    CalibrationError,
    ConfigError,
    ConvergenceWarning,
    DivergenceError,
    EvaluationRangeError,
    FockLabError,
    GridMismatchError,
)
from .hermite import (
    Convention,
    QuadratureGrid,
    SpectralVector,
    convert_convention,
    eval_hermite,
    gauss_hermite,
    index_count,
    ladder,
    project,
    random_vector,
    synthesize,
)
from .multipliers import (
    MultiplierSpec,
    bump,
    chirp43,
    constant,
    modulation,
    parse_multiplier,
    signum,
)
from .operators import (
    GrowthReport,
    GrowthThresholds,
    SymbolSpec,
    apply_integral_operator,
    boundedness_probe,
    classical_sobolev_probe,
    conjugated_multiplier_matrix,
    integral_operator_matrix,
    multiplier_from_symbol,
    multiplier_matrix,
    operator_norm,
    symbol_from_multiplier,
)
from .spaces import (
    PartitionBump,
    fractional_H,
    heat_semigroup,
    kappa_constant,
    localization_norm,
    potential_bound_probe,
    smoothing_constant,
    sobolev_norm,
    square_function_norm,
    weighted_fock_norm,
)
from .transforms import (
    OperatorMatrix,
    bargmann_quadrature,
    conjugation_check,
    fourier,
    fourier_quadrature,
    leibniz_check,
    translation_ladder_check,
    translation_matrix,
    weyl_matrix,
)

__version__ = "0.1.0"
