"""Seeded Monte Carlo oracle for the analytic distributions and coverages.

Draws come from a counter-based generator (Philox) addressed by absolute
uniform index, so any partition of the replication range across calls or
workers pools to bit-identical results.  Each uniform is mapped through an
inverse CDF; inverse transforms consume a fixed number of uniforms per
replication, which is what makes the addressing scheme stable.

Fast path: for one watched component the LS estimate is
N(theta_i, sigma^2 xi^2 / n) and (n - k) sigma_hat^2 / sigma^2 is an
independent chi-square, so replications never materialize X or y.  Its
substream layout: uniform 2j is the Gaussian draw of replication j,
uniform 2j+1 its chi-square draw.  Uniform 2j+1 stays reserved in
known-variance runs, so layouts never depend on options, but it is not
transformed there: the interval [est - sigma a, est + sigma b] never uses
sigma_hat, so known-variance cells skip the chi-square inverse.  The
full-design path materializes y and runs the entire estimator; replication
j consumes uniforms [j n, (j+1) n), and known-variance cells skip the
residual pass that estimates sigma.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.linalg import solve_triangular

from .estimators import EstimatorKind, kernel
from .finite_sample import ScalingFactor
from .model import ProblemSetup, VarianceMode, _full_rank_qr, compute_xi_all
from .special import DomainError, chi_sq_quantile, std_normal_quantile

__all__ = [
    "SimulationPlan",
    "EcdfResult",
    "uniform_field",
    "component_draws",
    "synthetic_design",
    "simulate_coverage",
    "simulate_coverage_full",
    "simulate_scaled_error_ecdf",
]

_UNIFORMS_PER_REP = 2
_RAW_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter step
_CHUNK_REPS = 1 << 19


def uniform_field(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms at absolute indexes [start, start + count), strictly in (0, 1).

    Indexing is independent of any previous draws: the generator's counter
    is advanced to the containing block and the in-block offset discarded.
    The (raw >> 11 + 0.5) * 2^-53 mapping keeps values away from 0 and 1 so
    inverse CDFs stay finite.
    """
    if start < 0 or count < 0:
        raise DomainError("uniform field needs start >= 0 and count >= 0")
    gen = np.random.Philox(key=int(seed))
    block, offset = divmod(int(start), _RAW_PER_BLOCK)
    gen.advance(block)
    raw = gen.random_raw(offset + int(count))
    if offset:
        raw = raw[offset:]
    return ((raw >> np.uint64(11)) + 0.5) * 2.0 ** -53


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclasses.dataclass(frozen=True, eq=False)
class SimulationPlan:
    """What to simulate: scenario, true parameter, replication count, seed.

    theta may be a scalar (value of the watched component, every other
    component zero) or a length-k vector for the full-design path.  design
    optionally replaces the synthetic orthogonal design; its watched-column
    xi must match setup.xi.
    """

    setup: ProblemSetup
    theta: float | np.ndarray
    reps: int
    seed: int
    design: np.ndarray | None = None

    def __post_init__(self):
        if not _is_integer(self.reps) or self.reps < 1:
            raise DomainError("reps must be an integer of at least 1")
        if not _is_integer(self.seed) or not 1 <= self.seed < 2 ** 64:
            raise DomainError("seed must be a positive 64-bit integer")
        if not np.isfinite(np.asarray(self.theta, dtype=float)).all():
            raise DomainError("theta must be finite")

    @property
    def component_theta(self) -> float:
        arr = np.asarray(self.theta, dtype=float)
        if arr.ndim == 0:
            return float(arr)
        if arr.shape != (self.setup.k,):
            raise DomainError("theta vector must have length k")
        return float(arr[self.setup.component_index - 1])

    def theta_vector(self) -> np.ndarray:
        arr = np.asarray(self.theta, dtype=float)
        if arr.ndim == 0:
            vec = np.zeros(self.setup.k)
            vec[self.setup.component_index - 1] = float(arr)
            return vec
        if arr.shape != (self.setup.k,):
            raise DomainError("theta vector must have length k")
        return arr.copy()


def component_draws(plan: SimulationPlan, start: int = 0, stop: int | None = None):
    """Fast-path draws for replications [start, stop).

    Returns (ls_estimates, sigma_hats); sigma_hats is None when n == k.
    Both halves come from one uniform chunk: uniform 2j for the estimate,
    2j+1 for the chi-square draw behind the variance estimate.
    """
    setup = plan.setup
    u = _replication_uniforms(plan, start, plan.reps if stop is None else stop)
    sigma_hat = _sigma_hat_draws(setup, u) if setup.n > setup.k else None
    return _ls_draws(plan, u), sigma_hat


def _replication_uniforms(plan: SimulationPlan, start: int, stop: int) -> np.ndarray:
    """The 2 (stop - start) uniforms of replications [start, stop)."""
    if not 0 <= start <= stop <= plan.reps:
        raise DomainError("replication range out of bounds")
    return uniform_field(plan.seed, _UNIFORMS_PER_REP * start,
                         _UNIFORMS_PER_REP * (stop - start))


def _ls_draws(plan: SimulationPlan, u: np.ndarray) -> np.ndarray:
    """LS estimates from the Gaussian uniforms (even indexes) of a chunk."""
    setup = plan.setup
    z = std_normal_quantile(u[0::2])
    return plan.component_theta + setup.sigma * setup.xi / setup.root_n * z


def _sigma_hat_draws(setup: ProblemSetup, u: np.ndarray) -> np.ndarray:
    """Variance estimates from the chi-square uniforms (odd indexes) of a
    chunk; needs n > k."""
    m = setup.residual_dof
    chi = chi_sq_quantile(u[1::2], m)
    return setup.sigma * np.sqrt(chi / m)


def synthetic_design(n: int, k: int, xi: float = 1.0) -> np.ndarray:
    """Orthogonal-column design whose every component has the given xi."""
    if not 1 <= k <= n:
        raise DomainError("need n >= k >= 1")
    if not (xi > 0.0 and math.isfinite(xi)):
        raise DomainError("xi must be positive and finite")
    X = np.zeros((n, k))
    np.fill_diagonal(X, math.sqrt(n) / xi)
    return X


def _interval_scale(spec, setup: ProblemSetup, estimate_sigma):
    """sigma for a known-variance interval, else estimate_sigma().  The
    estimate is computed only when the interval uses it."""
    if spec.mode is VarianceMode.ESTIMATED:
        setup.require_estimated_variance()
        return estimate_sigma()
    return setup.sigma


def _residual_scale(X: np.ndarray, Y: np.ndarray, coefs: np.ndarray,
                    dof: int) -> np.ndarray:
    """Per-replication sigma_hat from the residuals of the LS fits."""
    resid = Y.T - X @ coefs
    return np.sqrt((resid * resid).sum(axis=0) / dof)


def simulate_coverage(plan: SimulationPlan, kind, spec):
    """Empirical coverage of [estimate - c a, estimate + c b] and its
    binomial standard error, via the fast path."""
    kind = EstimatorKind(kind)
    setup = plan.setup
    theta = plan.component_theta
    hits = 0
    for start in range(0, plan.reps, _CHUNK_REPS):
        stop = min(start + _CHUNK_REPS, plan.reps)
        u = _replication_uniforms(plan, start, stop)
        ls = _ls_draws(plan, u)
        scale = _interval_scale(spec, setup, lambda: _sigma_hat_draws(setup, u))
        est = kernel(kind, ls, scale * setup.xi * setup.eta)
        inside = (est - scale * spec.a <= theta) & (theta <= est + scale * spec.b)
        hits += int(np.count_nonzero(inside))
    p = hits / plan.reps
    se = math.sqrt(p * (1.0 - p) / plan.reps)
    return p, se


def simulate_coverage_full(plan: SimulationPlan, kind, spec):
    """Empirical coverage via the full-design path: materialize y, run least
    squares and the thresholding estimator end to end.

    Slower than the fast path and on a different substream, so results agree
    statistically, not bitwise.
    """
    kind = EstimatorKind(kind)
    setup = plan.setup
    X = plan.design if plan.design is not None else synthetic_design(
        setup.n, setup.k, setup.xi)
    X = np.asarray(X, dtype=float)
    if X.shape != (setup.n, setup.k):
        raise DomainError("design shape must be (n, k)")
    xi_all = compute_xi_all(X)
    watched = setup.component_index - 1
    if abs(xi_all[watched] - setup.xi) > 1e-8 * max(1.0, setup.xi):
        raise DomainError("design xi of the watched component does not match setup.xi")
    Q, R = _full_rank_qr(X)
    theta_vec = plan.theta_vector()
    mean_y = X @ theta_vec
    theta = theta_vec[watched]
    n, k = setup.n, setup.k
    hits = 0
    chunk = max(1, _CHUNK_REPS // max(1, n))
    for start in range(0, plan.reps, chunk):
        stop = min(start + chunk, plan.reps)
        u = uniform_field(plan.seed, start * n, (stop - start) * n)
        noise = std_normal_quantile(u).reshape(stop - start, n)
        Y = mean_y + setup.sigma * noise  # rows are replications
        coefs = solve_triangular(R, Q.T @ Y.T, lower=False)
        scale = _interval_scale(
            spec, setup, lambda: _residual_scale(X, Y, coefs, n - k))
        est = kernel(kind, coefs[watched], scale * xi_all[watched] * setup.eta)
        inside = (est - scale * spec.a <= theta) & (theta <= est + scale * spec.b)
        hits += int(np.count_nonzero(inside))
    p = hits / plan.reps
    se = math.sqrt(p * (1.0 - p) / plan.reps)
    return p, se


@dataclasses.dataclass(frozen=True, eq=False)
class EcdfResult:
    """Empirical CDF of the scaled error on a grid, plus the exact-zero mass."""

    grid: np.ndarray
    values: np.ndarray
    zero_mass: float
    reps: int


def simulate_scaled_error_ecdf(plan: SimulationPlan, kind, alpha, grid) -> EcdfResult:
    """Empirical CDF of alpha (estimate - theta) / sigma_hat over the grid.

    Also reports the fraction of replications thresholded exactly to zero,
    the empirical counterpart of the atom.
    """
    kind = EstimatorKind(kind)
    a = float(ScalingFactor(alpha))
    setup = plan.setup
    setup.require_estimated_variance()
    grid_arr = np.asarray(grid, dtype=float)
    if grid_arr.ndim != 1 or grid_arr.size == 0:
        raise DomainError("grid must be a nonempty 1-D array")
    if np.any(np.diff(grid_arr) < 0.0):
        raise DomainError("grid must be nondecreasing")
    theta = plan.component_theta
    counts = np.zeros(grid_arr.size, dtype=np.int64)
    zeros = 0
    for start in range(0, plan.reps, _CHUNK_REPS):
        stop = min(start + _CHUNK_REPS, plan.reps)
        ls, sigma_hat = component_draws(plan, start, stop)
        est = kernel(kind, ls, sigma_hat * setup.xi * setup.eta)
        zeros += int(np.count_nonzero(est == 0.0))
        err = np.sort(a * (est - theta) / sigma_hat)
        counts += np.searchsorted(err, grid_arr, side="right")
    return EcdfResult(grid=grid_arr, values=counts / plan.reps,
                      zero_mass=zeros / plan.reps, reps=plan.reps)
