"""Optimal and minimax-robust extrapolation of periodically correlated
isotropic random fields on the sphere."""

from .blocking import (
    BlockingConfig,
    BlockingError,
    ChannelFunctional,
    ChannelVectorSequence,
    basis_frequency,
    block_coefficients,
    functional_to_spec,
    reconstruct_segment,
)
from .extrapolate import (
    EstimateSolution,
    FactorizationError,
    FactorizationResult,
    functional_variance,
    oracle_solve,
    solve_by_factorization,
    solve_channel,
    spectral_factorize,
)
from .harmonics import (
    GridResolutionError,
    HarmonicIndex,
    SphereGrid,
    decompose_field,
    evaluate_harmonic,
    gauss_legendre_grid,
    harmonic_count,
    synthesize_field,
)
from .minimax import (
    DensityClassSpec,
    InfeasibleClassError,
    LeastFavorableResult,
    SaddleReport,
    build_anchor,
    evaluate_robust_objective,
    factorized_saddle_residual,
    feasibility_gap,
    find_least_favorable,
    project_onto_class,
    saddle_point_residual,
    sample_feasible,
)
from .simulate import (
    PastWindowError,
    SimulationConfig,
    TrialSummary,
    empirical_lag_covariance,
    empirical_mse,
    simulate_channel,
)
from .simulate import synthesize_field as synthesize_sphere_field
from .spectral import (
    CovarianceSequence,
    MinimalityViolation,
    OperatorSet,
    RationalDensity,
    SpectralDensityGrid,
    as_grid,
    assemble_operators,
    check_minimality,
    covariance_from_density,
)

__version__ = "0.1.0"
