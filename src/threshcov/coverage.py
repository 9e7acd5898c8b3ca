"""Coverage probabilities and shortest intervals centered at thresholding estimators.

The interval is [estimate - c a, estimate + c b] with c = sigma (known
variance) or c = sigma_hat.  Known-variance coverage has a closed form:
conditionally on nothing, the event that the thresholded estimate lands in
[theta - c b, theta + c a] splits into the kill branch (estimate exactly
zero) plus one active branch per sign, each a Gaussian interval probability
after inverting the thresholding map.  Estimated-variance coverage averages
the same expression over the law of sigma_hat / sigma.

Worst-case coverage over the unknown parameter is available exactly for
known variance, and via guaranteed lower/upper bounds plus a numerical
search for estimated variance.
"""

from __future__ import annotations

import dataclasses
import logging
import math

import numpy as np

from .estimators import EstimatorKind
from .model import ProblemSetup, VarianceMode
from .special import (
    DEFAULT_QUADRATURE,
    BracketError,
    DomainError,
    QuadratureConfig,
    _clamp_unit,
    _per_node,
    find_root,
    integrate_halfline,
    rho_density,
    rho_upper_limit,
    std_normal_cdf,
    t_cdf,
)

__all__ = [
    "IntervalSpec",
    "SearchConfig",
    "CoverageReport",
    "known_coverage",
    "infimal_known_coverage",
    "solve_known_half_length",
    "unknown_coverage",
    "lower_bound_unknown",
    "lower_bound_is_exact",
    "upper_bound_unknown",
    "solve_unknown_half_length",
    "min_coverage_search",
    "simple_interval_infimal",
    "coverage_report",
]

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class IntervalSpec:
    """Interval [estimate - c a, estimate + c b]; a, b in units of c.

    Estimated-variance intervals are supported in symmetric form only
    (a == b); asymmetric shapes are a known-variance feature.
    """

    a: float
    b: float
    mode: VarianceMode = VarianceMode.KNOWN

    def __post_init__(self):
        object.__setattr__(self, "mode", VarianceMode(self.mode))
        for name, value in (("a", self.a), ("b", self.b)):
            if not (value >= 0.0 and math.isfinite(value)):
                raise DomainError(f"interval arm {name} must be finite and nonnegative")
        if self.mode is VarianceMode.ESTIMATED and self.a != self.b:
            raise DomainError("estimated-variance intervals must be symmetric")

    @classmethod
    def symmetric(cls, a: float, mode: VarianceMode = VarianceMode.KNOWN) -> "IntervalSpec":
        return cls(a, a, mode)


@dataclasses.dataclass(frozen=True)
class SearchConfig:
    """Grid density and refinement tolerance of the worst-case search."""

    grid_points: int = 201
    refine_tol: float = 1e-6

    def __post_init__(self):
        if self.grid_points < 2:
            raise DomainError("grid_points must be at least 2")
        if not self.refine_tol > 0.0:
            raise DomainError("refine_tol must be positive")


@dataclasses.dataclass(frozen=True)
class CoverageReport:
    """Coverage at one parameter value together with its worst-case context."""

    analytic: float
    lower_bound: float | None = None
    upper_bound: float | None = None
    minimizer_theta: float | None = None
    mc_estimate: float | None = None
    mc_stderr: float | None = None


def _interval_probability(mu, lo, hi, rn):
    """P(N(mu, 1/n) in (lo, hi)), empty intervals contributing zero."""
    p = std_normal_cdf(rn * (hi - mu)) - std_normal_cdf(rn * (lo - mu))
    return np.where(hi > lo, p, 0.0)


def _coverage_core(kind: EstimatorKind, mu, reach_a, reach_b, eta, rn):
    """Coverage with everything on the scale W = LS estimate / (sigma xi).

    mu is the true component on that scale; the interval covers iff the
    thresholded value of W lands in [mu - reach_b, mu + reach_a].  The kill
    branch covers iff that window contains 0 and |W| is at or below eta;
    each active branch is the thresholding map's preimage of the window
    intersected with the keep region, a W-interval whose endpoints invert
    the map: identity (hard), shift by eta (soft), or the root
    r_{+-}(c) = (c +- sqrt(c^2 + 4 eta^2)) / 2 (adaptive soft).
    """
    mu, reach_a, reach_b, eta = np.broadcast_arrays(
        np.asarray(mu, dtype=float), np.asarray(reach_a, dtype=float),
        np.asarray(reach_b, dtype=float), np.asarray(eta, dtype=float))
    lo = mu - reach_b
    hi = mu + reach_a
    kill = (lo <= 0.0) & (0.0 <= hi)
    total = np.where(kill, _interval_probability(mu, -eta, eta, rn), 0.0)
    if kind is EstimatorKind.HARD:
        total = total + _interval_probability(mu, np.maximum(lo, eta), hi, rn)
        total = total + _interval_probability(mu, lo, np.minimum(hi, -eta), rn)
    elif kind is EstimatorKind.SOFT:
        total = total + _interval_probability(mu, np.maximum(lo + eta, eta), hi + eta, rn)
        total = total + _interval_probability(mu, lo - eta, np.minimum(hi - eta, -eta), rn)
    else:
        four_eta_sq = 4.0 * eta * eta

        def root_plus(c):
            return 0.5 * (c + np.sqrt(c * c + four_eta_sq))

        def root_minus(c):
            return 0.5 * (c - np.sqrt(c * c + four_eta_sq))

        total = total + _interval_probability(
            mu, np.maximum(root_plus(lo), eta), root_plus(hi), rn)
        total = total + _interval_probability(
            mu, root_minus(lo), np.minimum(root_minus(hi), -eta), rn)
    return np.clip(total, 0.0, 1.0)


def known_coverage(kind, theta_i: float, sigma: float, spec: IntervalSpec,
                   setup: ProblemSetup) -> float:
    """Exact coverage at theta_i with known sigma.

    Depends on (theta_i, sigma) only through theta_i / sigma, so rescaling
    both leaves the value unchanged.
    """
    kind = EstimatorKind(kind)
    if spec.mode is not VarianceMode.KNOWN:
        raise DomainError("known_coverage needs a known-variance interval")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise DomainError("sigma must be positive and finite")
    if np.isnan(theta_i).any():
        raise DomainError("theta must not be NaN")
    mu = theta_i / (sigma * setup.xi)
    value = _coverage_core(kind, mu, spec.a / setup.xi, spec.b / setup.xi,
                           setup.eta, setup.root_n)
    return float(value)


def infimal_known_coverage(kind, spec: IntervalSpec, setup: ProblemSetup) -> float:
    """Exact infimum over the parameter of the known-variance coverage."""
    kind = EstimatorKind(kind)
    if spec.mode is not VarianceMode.KNOWN:
        raise DomainError("infimal_known_coverage needs a known-variance interval")
    a, b = spec.a, spec.b
    xi, eta, rn = setup.xi, setup.eta, setup.root_n
    small = min(a, b)
    large = max(a, b)
    if kind is EstimatorKind.HARD:
        if xi * eta > a + b:
            return 0.0
        value = (std_normal_cdf(rn * (small / xi - eta))
                 - std_normal_cdf(-rn * large / xi))
    elif kind is EstimatorKind.SOFT:
        value = (std_normal_cdf(rn * (small / xi - eta))
                 - std_normal_cdf(rn * (-large / xi - eta)))
    else:
        value = (std_normal_cdf(rn * (small / xi - eta))
                 - std_normal_cdf(rn * ((small - large) / (2.0 * xi)
                                        - math.hypot((a + b) / (2.0 * xi), eta))))
    value = float(value)
    if value < 0.0:
        logger.debug("infimal known coverage %g clamped to 0", value)
        return 0.0
    return value


def _solve_half_length(objective, kind: EstimatorKind, setup: ProblemSetup,
                       tol: float) -> float:
    lo = 0.5 * setup.xi * setup.eta if kind is EstimatorKind.HARD else 0.0
    hi = max(setup.xi * setup.eta, setup.xi / setup.root_n)
    for _ in range(200):
        if objective(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise BracketError("could not bracket the half-length equation")
    return find_root(objective, lo, hi, tol)


def solve_known_half_length(kind, alpha: float, setup: ProblemSetup,
                            tol: float = 1e-10) -> float:
    """Shortest symmetric known-variance half-length a (in units of sigma)
    with infimal coverage 1 - alpha."""
    kind = EstimatorKind(kind)
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    target = 1.0 - alpha

    def objective(a):
        return infimal_known_coverage(
            kind, IntervalSpec(a, a, VarianceMode.KNOWN), setup) - target

    root = _solve_half_length(objective, kind, setup, tol)
    if kind is EstimatorKind.HARD:
        # below xi eta / 2 the hard infimum is identically zero
        assert root > 0.5 * setup.xi * setup.eta
    return root


def _unknown_switch_points(kind: EstimatorKind, q_abs: np.ndarray, a: float,
                           xi: float, eta: float) -> np.ndarray:
    """s-values where the interval ends cross the threshold, one row per
    |theta| / sigma; candidates that are not positive and finite are left
    for the quadrature to drop."""
    dens = [a]
    if kind is EstimatorKind.HARD:
        dens += [a + xi * eta, abs(a - xi * eta)]
    with np.errstate(divide="ignore", invalid="ignore"):
        return q_abs[:, None] / np.array(dens)


def unknown_coverage(kind, theta_i: float, sigma: float, spec: IntervalSpec,
                     setup: ProblemSetup,
                     cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Exact coverage at theta_i with estimated variance.

    Averages the known-variance coverage over s = sigma_hat / sigma, with
    both the interval arms and the threshold scaled by s.  theta_i may be an
    array, integrated as one batch; a scalar theta_i gives a float.
    """
    kind = EstimatorKind(kind)
    if spec.mode is not VarianceMode.ESTIMATED:
        raise DomainError("unknown_coverage needs an estimated-variance interval")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise DomainError("sigma must be positive and finite")
    m = setup.require_estimated_variance()
    theta = np.asarray(theta_i, dtype=float)
    thetas = theta.ravel()
    if np.isnan(thetas).any():
        raise DomainError("theta must not be NaN")
    mus = thetas / (sigma * setup.xi)
    a = spec.a
    reach = a / setup.xi

    def f(nodes):
        s, mu = _per_node(nodes, mus)
        return (_coverage_core(kind, mu, reach * s, reach * s, setup.eta * s,
                               setup.root_n)
                * rho_density(s, m))

    upper = rho_upper_limit(m, cfg.tail_mass_tol)
    pts = _unknown_switch_points(kind, np.abs(thetas / sigma), a, setup.xi, setup.eta)
    value, bound = integrate_halfline(f, pts, upper=upper, cfg=cfg, with_bound=True)
    return _clamp_unit(value.reshape(theta.shape), bound.reshape(theta.shape),
                       "unknown_coverage")


def lower_bound_unknown(kind, spec: IntervalSpec, setup: ProblemSetup) -> float:
    """Guaranteed lower bound on the estimated-variance coverage, any theta.

    For soft thresholding the bound is attained (it equals the infimum);
    for hard and adaptive soft it is a bound, clamped at zero.
    """
    kind = EstimatorKind(kind)
    if spec.mode is not VarianceMode.ESTIMATED:
        raise DomainError("lower_bound_unknown needs an estimated-variance interval")
    m = setup.require_estimated_variance()
    a = spec.a
    xi, eta, rn = setup.xi, setup.eta, setup.root_n
    leading = t_cdf(rn * (a / xi - eta), m)
    if kind is EstimatorKind.SOFT:
        return float(leading - t_cdf(rn * (-a / xi - eta), m))
    if kind is EstimatorKind.HARD:
        value = float(leading - t_cdf(-rn * a / xi, m))
    else:
        value = float(leading - t_cdf(-rn * math.hypot(a / xi, eta), m))
    if value < 0.0:
        logger.debug("lower bound %g clamped to 0", value)
        return 0.0
    return value


def lower_bound_is_exact(kind) -> bool:
    """True when lower_bound_unknown returns the exact infimal coverage."""
    return EstimatorKind(kind) is EstimatorKind.SOFT


def upper_bound_unknown(spec: IntervalSpec, setup: ProblemSetup) -> float:
    """Upper bound on the infimal estimated-variance coverage, kind-independent.

    This is the coverage in the limit of a distant parameter, where
    thresholding never binds and the interval behaves like the t-interval.
    """
    if spec.mode is not VarianceMode.ESTIMATED:
        raise DomainError("upper_bound_unknown needs an estimated-variance interval")
    m = setup.require_estimated_variance()
    arg = setup.root_n * spec.a / setup.xi
    return float(t_cdf(arg, m) - t_cdf(-arg, m))


def solve_unknown_half_length(kind, alpha: float, setup: ProblemSetup,
                              tol: float = 1e-10) -> float:
    """Shortest symmetric estimated-variance half-length a (in units of
    sigma_hat) whose guaranteed lower bound equals 1 - alpha."""
    kind = EstimatorKind(kind)
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    target = 1.0 - alpha

    def objective(a):
        return lower_bound_unknown(
            kind, IntervalSpec(a, a, VarianceMode.ESTIMATED), setup) - target

    return _solve_half_length(objective, kind, setup, tol)


def _golden_section_min(f, lo: float, hi: float, tol: float):
    """Deterministic golden-section minimization; ties resolve leftward."""
    inv_phi = 0.5 * (math.sqrt(5.0) - 1.0)
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = f(x2)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def min_coverage_search(kind, spec: IntervalSpec, setup: ProblemSetup,
                        search: SearchConfig = SearchConfig(),
                        cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Numerical minimum over the parameter of the estimated-variance coverage.

    Coverage depends on (theta, sigma) only through theta / sigma and is
    symmetric under sign flips, so the search runs over theta >= 0 at
    sigma = 1: a coarse grid on [0, theta_max] followed by golden-section
    refinement around the best cell, compared against the distant-parameter
    limit.  Returns (coverage, minimizer); the minimizer is math.inf when
    the limit undercuts every finite candidate.  Ties prefer the smaller
    theta.
    """
    kind = EstimatorKind(kind)
    if spec.mode is not VarianceMode.ESTIMATED:
        raise DomainError("min_coverage_search needs an estimated-variance interval")

    def cov(theta):
        return unknown_coverage(kind, float(theta), 1.0, spec, setup, cfg)

    if search is None:
        search = SearchConfig()
    theta_max = spec.a + setup.xi * setup.eta + 10.0 * setup.xi / setup.root_n
    grid = np.linspace(0.0, theta_max, search.grid_points)
    values = unknown_coverage(kind, grid, 1.0, spec, setup, cfg)
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    refined_theta, refined_value = _golden_section_min(cov, float(lo), float(hi),
                                                       search.refine_tol)
    if values[best] < refined_value:
        refined_theta, refined_value = float(grid[best]), float(values[best])
    tail = upper_bound_unknown(spec, setup)
    if tail < refined_value:
        return float(tail), math.inf
    return float(refined_value), float(refined_theta)


def simple_interval_infimal(kind, d: float, setup: ProblemSetup,
                            mode: VarianceMode) -> float:
    """Infimal coverage of the threshold-proportional interval with
    half-length d * c * xi * eta (c = sigma or sigma_hat by mode)."""
    kind = EstimatorKind(kind)
    mode = VarianceMode(mode)
    if not (d >= 0.0 and math.isfinite(d)):
        raise DomainError("d must be finite and nonnegative")
    a = d * setup.xi * setup.eta
    if mode is VarianceMode.KNOWN:
        return infimal_known_coverage(kind, IntervalSpec(a, a, mode), setup)
    return lower_bound_unknown(kind, IntervalSpec(a, a, mode), setup)


def coverage_report(kind, theta_i: float, spec: IntervalSpec, setup: ProblemSetup,
                    mc_plan=None, search: SearchConfig = SearchConfig(),
                    cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> CoverageReport:
    """Coverage at theta_i with bounds, the worst case, and an optional
    Monte Carlo cross-check (mc_plan: a SimulationPlan)."""
    kind = EstimatorKind(kind)
    if spec.mode is VarianceMode.ESTIMATED:
        analytic = unknown_coverage(kind, theta_i, setup.sigma, spec, setup, cfg)
        lower = lower_bound_unknown(kind, spec, setup)
        upper = upper_bound_unknown(spec, setup)
        _, minimizer = min_coverage_search(kind, spec, setup, search, cfg)
    else:
        analytic = known_coverage(kind, theta_i, setup.sigma, spec, setup)
        lower = infimal_known_coverage(kind, spec, setup)
        upper = float(std_normal_cdf(setup.root_n * spec.a / setup.xi)
                      - std_normal_cdf(-setup.root_n * spec.b / setup.xi))
        minimizer = None
    mc_estimate = mc_stderr = None
    if mc_plan is not None:
        from .simulate import simulate_coverage  # local import avoids a cycle
        mc_estimate, mc_stderr = simulate_coverage(mc_plan, kind, spec)
    return CoverageReport(analytic=analytic, lower_bound=lower, upper_bound=upper,
                          minimizer_theta=minimizer, mc_estimate=mc_estimate,
                          mc_stderr=mc_stderr)
