"""Thresholding estimators for Gaussian linear regression: exact
finite-sample and limiting error distributions, and confidence intervals
with guaranteed minimal coverage."""

from .coverage import (
    IntervalSpec,
    infimal_known_coverage,
    known_coverage,
    lower_bound_unknown,
    min_coverage_search,
    simple_interval_infimal,
    solve_known_half_length,
    solve_unknown_half_length,
    unknown_coverage,
    upper_bound_unknown,
)
from .estimators import EstimatorKind, ThresholdRule, estimate, kernel
from .finite_sample import (
    ScalingFactor,
    atom_mass,
    density_grid,
    mirror_check,
    tilde_cdf,
    tilde_density,
)
from .limits import (
    ConservativeRegime,
    ConsistentRegime,
    conservative_limit_cdf,
    consistent_limit_cdf,
    hard_weight,
    limit_atoms,
    weak_convergence_gaps,
)
from .model import (
    ProblemSetup,
    VarianceMode,
    compute_xi_all,
    ls_fit,
    reference_setup,
    standard_ls_interval,
)
from .simulate import (
    EcdfResult,
    SimulationPlan,
    component_draws,
    simulate_coverage,
    simulate_coverage_full,
    simulate_scaled_error_ecdf,
    synthetic_design,
    uniform_field,
)
from .special import (
    BracketError,
    DEFAULT_QUADRATURE,
    DomainError,
    NumericsError,
    QuadratureConfig,
    chi_sq_cdf,
    chi_sq_quantile,
    find_root,
    integrate_halfline,
    rho_density,
    rho_upper_limit,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    t_cdf,
    t_pdf,
    t_quantile,
)

__version__ = "0.1.0"
