"""Coverage probabilities and shortest intervals centered at thresholding estimators.

The interval is [estimate - c a, estimate + c b] with c = sigma (known
variance) or c = sigma_hat.  Known-variance coverage has a closed form:
conditionally on nothing, the event that the thresholded estimate lands in
[theta - c b, theta + c a] splits into the kill branch (estimate exactly
zero) plus one active branch per sign, each a Gaussian interval probability
after inverting the thresholding map.  Estimated-variance coverage averages
the same expression over the law of sigma_hat / sigma: at theta = 0, where
every offset scales with s, it is the same closed form under T_m (m = n -
k) in place of Phi (``_coverage_core`` takes either), else a ``_mixture``.

Worst-case coverage has one closed form, ``coverage_lower_bound``: the
known-variance infimum under Phi and, under the Student-t CDF T_m
(m = n - k), a lower bound for estimated variance that a numerical search
complements and that tends to it as m grows.  ``coverage_upper_bound`` is
the z- or t-interval's coverage.  Both read the variance mode from the
``IntervalSpec``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys

import numpy as np

from .estimators import EstimatorKind, _inverse
from .finite_sample import _mixture
from .model import ProblemSetup, VarianceMode, _scaled
from .special import (_ROOT_RTOL, BracketError, DomainError, _clamp_unit, _each, _saturating,
                      _std_normal_cdf, _t_cdf, find_root)
# unused here, but perfbench/tracing.py wraps this module's binding
from .special import integrate_halfline  # noqa: F401

__all__ = [
    "IntervalSpec",
    "known_coverage",
    "solve_known_half_length",
    "unknown_coverage",
    "solve_unknown_half_length",
    "coverage_lower_bound",
    "coverage_upper_bound",
    "min_coverage_search",
    "simple_interval_infimal",
]

# The worst-case search scans this many equally spaced theta, then refines
# around the best one to this width times xi.
_SEARCH_GRID_POINTS = 201
_SEARCH_REFINE_TOL = 1e-6


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


def _coverage_core(kind: EstimatorKind, mu, reach_a, reach_b, eta, rn, cdf=_std_normal_cdf):
    """Coverage with everything on the scale W = LS estimate / (sigma xi).

    W ~ N(mu, 1/rn^2), and the interval covers iff the thresholded value of
    W lands in [mu - reach_b, mu + reach_a], that is iff W - mu lies between
    the inverse map's open offset at the lower end and its closed offset at
    the upper end.  cdf is Phi, or T_m for estimated variance at mu = 0,
    where both offsets scale with s.  Arms, thresholds and offsets that
    overflowed are +-inf, where cdf is 0 or 1.  Where mu is infinite too
    (theta / sigma / xi overflowed), an infinite arm is taken at the largest
    double, so that mu - arm is +-inf rather than NaN.  Python floats give a
    float, clipped to [0, 1] as np.maximum and np.minimum clip (-0.0 to
    0.0, NaN kept).
    """
    if math.isinf(mu) if isinstance(mu, float) else np.isinf(mu).any():
        reach_a, reach_b = (np.where(np.isinf(mu), np.minimum(reach, sys.float_info.max), reach)
                            for reach in (reach_a, reach_b))
    hi = _inverse(kind, mu, reach_a, eta)
    lo = _inverse(kind, mu, -reach_b, eta, closed=False)
    covered = cdf(rn * hi) - cdf(rn * lo)
    if isinstance(covered, np.ndarray):
        return np.minimum(np.maximum(covered, 0.0), 1.0)
    return 0.0 if covered <= 0.0 else min(float(covered), 1.0)


@_saturating
def known_coverage(kind, theta_i: float, sigma: float, spec: IntervalSpec,
                   setup: ProblemSetup) -> float:
    """Exact coverage at theta_i with known sigma.

    Depends on (theta_i, sigma) only through theta_i / sigma, so rescaling
    both leaves the value unchanged.  theta_i may be an array, evaluated
    elementwise; a scalar theta_i gives a float.
    """
    kind = EstimatorKind(kind)
    if spec.mode is not VarianceMode.KNOWN:
        raise DomainError("known_coverage needs a known-variance interval")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise DomainError("sigma must be positive and finite")

    rn, reach_a, reach_b = setup.root_n, spec.a / setup.xi, spec.b / setup.xi

    def law(theta):
        mu = theta / sigma / setup.xi
        return _coverage_core(kind, mu, reach_a, reach_b, setup.eta, rn), 0.0

    return _each(theta_i, law, "theta")[0]


def _variance_cdf(mode: VarianceMode, setup: ProblemSetup):
    """Law of the studentized LS error: Phi, or T_m (m = n - k) if estimated."""
    if mode is VarianceMode.KNOWN:
        return _std_normal_cdf
    return functools.partial(_t_cdf, setup.require_estimated_variance())


def _infimum(kind: EstimatorKind, a: float, b: float, setup: ProblemSetup, cdf) -> float:
    """Infimum over the parameter of the coverage of [estimate - c a,
    estimate + c b]: exact under cdf = Phi, a bound under T_m (a == b),
    attained for soft.  Finite arms give cdf no NaN.  Hard coverage is 0 once
    the dead zone outgrows the interval, where the formula turns negative."""
    xi, eta, rn = setup.xi, setup.eta, setup.root_n
    small, large = (a, b) if a <= b else (b, a)
    if kind is EstimatorKind.HARD:
        if xi * eta > a + b:
            return 0.0
        far = -_scaled(rn, large, xi)  # the arm in LS standard errors
    elif kind is EstimatorKind.SOFT:
        far = rn * (-large / xi - eta)
    else:  # halved after dividing, as 2 xi and a + b = 2 a may overflow
        half_sum = a / xi if a == b else 0.5 * ((a + b) / xi)
        far = rn * (0.5 * ((small - large) / xi) - math.hypot(half_sum, eta))
    return _clamp_unit(float(cdf(rn * (small / xi - eta)) - cdf(far)), 0.0, "infimal coverage")


def coverage_lower_bound(kind, spec: IntervalSpec, setup: ProblemSetup) -> float:
    """Worst-case coverage over the parameter, as spec.mode picks: with known
    variance the exact infimum; with estimated variance the guaranteed lower
    bound, the same closed form under T_m, attained for soft thresholding and
    for hard and adaptive soft a bound, clamped at zero."""
    return _infimum(EstimatorKind(kind), spec.a, spec.b, setup,
                    _variance_cdf(spec.mode, setup))


def coverage_upper_bound(spec: IntervalSpec, setup: ProblemSetup) -> float:
    """Coverage of [LS - c a, LS + c b], kind-independent: the z-interval's
    with known variance, the t-interval's with estimated variance.

    It bounds the worst-case coverage from above, as the distant-parameter
    limit of hard and adaptive-soft coverage, where thresholding stops
    binding.  Soft thresholding keeps its eta shift at any distance, so its
    distant limit is lower: the infimum given by :func:`coverage_lower_bound`.
    """
    cdf = _variance_cdf(spec.mode, setup)
    rn, xi = setup.root_n, setup.xi
    return float(cdf(_scaled(rn, spec.a, xi)) - cdf(-_scaled(rn, spec.b, xi)))


def _solve_half_length(kind, alpha: float, setup: ProblemSetup, mode: VarianceMode) -> float:
    """Shortest symmetric half-length a (units of c) with _infimum 1 - alpha."""
    kind = EstimatorKind(kind)
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    target = 1.0 - alpha
    cdf = _variance_cdf(mode, setup)

    def objective(a):
        # the bracket's upper end was already evaluated while bracketing
        return f_hi if a == hi else _infimum(kind, a, a, setup, cdf) - target

    # below xi eta / 2 the hard infimum is identically zero
    lo = 0.5 * setup.xi * setup.eta if kind is EstimatorKind.HARD else 0.0
    # the upper end starts and doubles up to the largest double at most, a
    # bracket unless the infimum there still falls short
    hi = min(max(setup.xi * setup.eta, setup.xi / setup.root_n), sys.float_info.max)
    while not (f_hi := _infimum(kind, hi, hi, setup, cdf) - target) > 0.0:
        if hi == sys.float_info.max:
            raise BracketError("could not bracket the half-length equation")
        hi = min(2.0 * hi, sys.float_info.max)
    # 1e-10, or 1e-8 of the bracket where that is finer: a half-length on a
    # tiny scale xi max(eta, 1 / sqrt(n)) is resolved like any other
    tol = min(1e-10, 1e-8 * hi)
    root = find_root(objective, lo, hi, tol)
    if root - lo > tol + _ROOT_RTOL * root:
        return root
    # Brent's last bracket reaches lo, where the infimum is 0 (alpha near 1),
    # so the root may lie on either side: bisect to adjacent doubles, to the
    # shortest length whose infimum reaches 1 - alpha
    below, above = lo, hi
    while below < (mid := below + 0.5 * (above - below)) < above:
        below, above = (mid, above) if objective(mid) < 0.0 else (below, mid)
    return above


def solve_known_half_length(kind, alpha: float, setup: ProblemSetup) -> float:
    """Shortest symmetric known-variance half-length a (in units of sigma)
    with infimal coverage 1 - alpha."""
    return _solve_half_length(kind, alpha, setup, VarianceMode.KNOWN)


@_saturating
def unknown_coverage(kind, theta_i: float, sigma: float, spec: IntervalSpec,
                     setup: ProblemSetup) -> float:
    """Exact coverage at theta_i with estimated variance.

    Averages the known-variance coverage over s = sigma_hat / sigma, with
    both the interval arms and the threshold scaled by s.  theta_i may be an
    array, integrated as one batch; a scalar theta_i gives a float.  Rows
    with theta_i = 0 skip the quadrature: both offsets then scale with s, so
    the average is the known-variance closed form under T_m.
    """
    kind = EstimatorKind(kind)
    if spec.mode is not VarianceMode.ESTIMATED:
        raise DomainError("unknown_coverage needs an estimated-variance interval")
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise DomainError("sigma must be positive and finite")
    m = setup.require_estimated_variance()
    rn, eta, reach = setup.root_n, setup.eta, spec.a / setup.xi

    def covered(s, mu):
        arm = reach * s
        return _coverage_core(kind, mu, arm, arm, eta * s, rn)

    def law(theta):
        lone = isinstance(theta, float)
        if lone and theta != 0.0:
            return _mixture(kind, theta / sigma / setup.xi, (reach, -reach), eta, m, covered)
        at_zero = _coverage_core(kind, 0.0, reach, reach, eta, rn,
                                 _variance_cdf(spec.mode, setup))
        if lone:
            return at_zero, 0.0
        rest = theta != 0.0
        value, bound = np.full(theta.shape, at_zero), np.zeros(theta.shape)
        if rest.any():
            value[rest], bound[rest] = _mixture(kind, theta[rest] / sigma / setup.xi,
                                                np.array([reach, -reach]), eta, m, covered)
        return value, bound

    return _clamp_unit(*_each(theta_i, law, "theta"), "unknown_coverage")


def solve_unknown_half_length(kind, alpha: float, setup: ProblemSetup) -> float:
    """Shortest symmetric estimated-variance half-length a (in units of
    sigma_hat) whose guaranteed lower bound equals 1 - alpha."""
    return _solve_half_length(kind, alpha, setup, VarianceMode.ESTIMATED)


def _golden_section_min(f, lo: float, hi: float, tol: float):
    """Deterministic golden-section minimization; ties resolve leftward.
    The bracket shrinks to tol, or to 4 ulps of its ends where that is wider."""
    tol = max(tol, 4.0 * math.ulp(max(abs(lo), abs(hi))))
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
    mid = 0.5 * lo + 0.5 * hi  # lo + hi may overflow
    return mid, f(mid)


@_saturating
def min_coverage_search(kind, spec: IntervalSpec, setup: ProblemSetup):
    """Numerical minimum over the parameter of the estimated-variance coverage.

    Coverage depends on (theta, sigma) only through theta / sigma and is
    symmetric under sign flips, so the search runs over theta >= 0 at
    sigma = 1: a coarse grid on [0, theta_max] followed by golden-section
    refinement around the best cell to 1e-6 xi, compared against the
    distant-parameter limit.  Returns (coverage, minimizer); the minimizer
    is math.inf when the limit undercuts every finite candidate.  Ties
    prefer the smaller theta.

    Every candidate is a quadrature value, so the result can sit below
    :func:`coverage_lower_bound`, the proven floor, by up to the quadrature
    error: 1.0e-12 for soft at n = 40, k = 35, xi = 1, eta = 0.05 and a =
    0.41662737975458514.  It is returned unclamped; a caller that needs the
    certified worst case takes the larger of the two.
    """
    kind = EstimatorKind(kind)
    if spec.mode is not VarianceMode.ESTIMATED:
        raise DomainError("min_coverage_search needs an estimated-variance interval")

    def cov(theta):
        return unknown_coverage(kind, float(theta), 1.0, spec, setup)

    theta_max = min(spec.a + setup.xi * setup.eta + 10.0 * setup.xi / setup.root_n,
                    sys.float_info.max)
    grid = np.linspace(0.0, theta_max, _SEARCH_GRID_POINTS)
    values = unknown_coverage(kind, grid, 1.0, spec, setup)
    best = int(np.argmin(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    refined_theta, refined_value = _golden_section_min(cov, float(lo), float(hi),
                                                       _SEARCH_REFINE_TOL * setup.xi)
    if values[best] < refined_value:
        refined_theta, refined_value = float(grid[best]), float(values[best])
    tail = coverage_upper_bound(spec, setup)
    if tail < refined_value:
        return float(tail), math.inf
    return float(refined_value), float(refined_theta)


def simple_interval_infimal(kind, d: float, setup: ProblemSetup,
                            mode: VarianceMode) -> float:
    """Infimal coverage of the threshold-proportional interval with
    half-length d * c * xi * eta (c = sigma or sigma_hat by mode)."""
    if not (d >= 0.0 and math.isfinite(d)):
        raise DomainError("d must be finite and nonnegative")
    a = d * setup.xi * setup.eta
    spec = IntervalSpec(a, a, mode)  # rejects an arm that overflowed
    return coverage_lower_bound(kind, spec, setup)
