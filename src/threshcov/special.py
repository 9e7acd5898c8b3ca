"""Special functions and the numerical engines shared by the whole package.

Normal, Student-t and chi-square functions are thin wrappers around
``scipy.special`` so that every module draws them from one place and the
backend can be swapped without touching callers.  ``rho_density`` is the
density of ``sqrt(chisq_m / m)``, the law of ``sigma_hat / sigma`` in the
Gaussian linear model; it is evaluated in log space so large degrees of
freedom neither overflow nor underflow prematurely.

``integrate_halfline`` and ``find_root`` are the numerical workhorses: a
vectorized adaptive Gauss-Legendre panel integrator for piecewise-smooth
integrands on a truncated half-line, and a bracketed deterministic root
finder.  Integrands declare their non-smooth points (indicator switches,
kinks) as breakpoints; these seed the initial panel boundaries so the
adaptive refinement never has to discover a discontinuity on its own.

The integrator is batched: a 2-D array of breakpoints, one row per problem,
integrates a whole grid (densities over x, coverages over theta) in one
call, refining the panels of every unconverged problem together in each
vectorized round.  Every problem keeps its own breakpoints and tolerance
target and leaves the batch once converged, so an array result agrees with
the per-element calls within the reported error bound, not bitwise.  A
scalar call is a batch of one and runs exactly the rounds it always did.

The package's accuracy targets are fixed: every law and coverage integrates
to ``DEFAULT_QUADRATURE``, and half-length roots are found to 1e-10.  Only
``integrate_halfline`` takes a :class:`QuadratureConfig`, for integrands of
the caller's own.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from typing import Callable, Iterable

import numpy as np
from scipy import special as _sp
from scipy.optimize import brentq

__all__ = [
    "NumericsError",
    "BracketError",
    "DomainError",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "rho_density",
    "rho_upper_limit",
    "t_cdf",
    "t_pdf",
    "t_quantile",
    "chi_sq_cdf",
    "chi_sq_quantile",
    "integrate_halfline",
    "find_root",
]


class NumericsError(RuntimeError):
    """A numerical routine failed to reach its accuracy target.

    Carries the best available estimate and an error bound so callers can
    decide whether a degraded result is still usable; a batched quadrature
    also names the failing problem's row.
    """

    def __init__(self, message: str, estimate: float | None = None,
                 error_bound: float | None = None, problem: int | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound
        self.problem = problem


class BracketError(ValueError):
    """A root bracket [lo, hi] does not have a sign change."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


@dataclasses.dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits for the half-line quadrature.

    ``tail_mass_tol`` is the probability mass of ``sqrt(chisq_m / m)`` that
    may be discarded beyond the truncation point of a weighted integral;
    callers convert it into a truncation point via :func:`rho_upper_limit`.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 4096
    tail_mass_tol: float = 1e-12

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be positive")
        if not 0.0 < self.tail_mass_tol < 1.0:
            raise DomainError("tail_mass_tol must lie in (0, 1)")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureConfig()

logger = logging.getLogger(__name__)

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _check_dof(m) -> int:
    if isinstance(m, float) and not m.is_integer():
        raise DomainError("degrees of freedom must be a positive integer")
    m = int(m)
    if m < 1:
        raise DomainError("degrees of freedom must be a positive integer")
    return m


def std_normal_cdf(x):
    """Standard normal CDF; broadcasts, and accepts +-inf."""
    return _sp.ndtr(x)


def std_normal_pdf(x):
    """Standard normal density; underflows to 0 silently for huge |x|."""
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        out = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return out if out.ndim else float(out)


def std_normal_quantile(p):
    """Inverse standard normal CDF; p in [0, 1], with 0 and 1 mapping to -+inf."""
    p_arr = np.asarray(p, dtype=float)
    if np.any((p_arr < 0.0) | (p_arr > 1.0)):
        raise DomainError("quantile level must lie in [0, 1]")
    out = _sp.ndtri(p_arr)
    return out if out.ndim else float(out)


def rho_density(s, m):
    """Density of sqrt(chisq_m / m) at s; zero for s <= 0.

    Computed in log space: the normalizing constant uses gammaln so that
    large m stays finite.
    """
    m = _check_dof(m)
    s_arr = np.asarray(s, dtype=float)
    out = np.zeros(s_arr.shape)
    pos = s_arr > 0.0
    if np.any(pos):
        sp_ = s_arr[pos]
        log_norm = math.log(2.0) + 0.5 * m * math.log(0.5 * m) - _sp.gammaln(0.5 * m)
        with np.errstate(under="ignore"):
            out[pos] = np.exp(log_norm + (m - 1.0) * np.log(sp_) - 0.5 * m * sp_ * sp_)
    return out if out.ndim else float(out)


def rho_upper_limit(m, tail_mass_tol: float) -> float:
    """Truncation point s_max with P(sqrt(chisq_m / m) > s_max) = tail_mass_tol."""
    m = _check_dof(m)
    if not 0.0 < tail_mass_tol < 1.0:
        raise DomainError("tail_mass_tol must lie in (0, 1)")
    return math.sqrt(_sp.chdtri(m, tail_mass_tol) / m)


def t_cdf(x, m):
    """CDF of Student's t with m degrees of freedom; accepts +-inf."""
    m = _check_dof(m)
    x_arr = np.asarray(x, dtype=float)
    out = np.where(np.isneginf(x_arr), 0.0,
                   np.where(np.isposinf(x_arr), 1.0,
                            _sp.stdtr(m, np.where(np.isfinite(x_arr), x_arr, 0.0))))
    return out if out.ndim else float(out)


def t_pdf(x, m):
    """Density of Student's t with m degrees of freedom."""
    m = _check_dof(m)
    x_arr = np.asarray(x, dtype=float)
    log_norm = (_sp.gammaln(0.5 * (m + 1)) - _sp.gammaln(0.5 * m)
                - 0.5 * math.log(m * math.pi))
    with np.errstate(under="ignore"):
        out = np.exp(log_norm - 0.5 * (m + 1) * np.log1p(x_arr * x_arr / m))
    return out if out.ndim else float(out)


def t_quantile(p, m):
    """Inverse Student-t CDF; p in [0, 1], with 0 and 1 mapping to -+inf."""
    m = _check_dof(m)
    p_arr = np.asarray(p, dtype=float)
    if np.any((p_arr < 0.0) | (p_arr > 1.0)):
        raise DomainError("quantile level must lie in [0, 1]")
    interior = (p_arr > 0.0) & (p_arr < 1.0)
    with np.errstate(divide="ignore"):
        out = np.where(interior, _sp.stdtrit(m, np.where(interior, p_arr, 0.5)),
                       np.where(p_arr <= 0.0, -np.inf, np.inf))
    return out if out.ndim else float(out)


def chi_sq_cdf(x, m):
    """Chi-square CDF with m degrees of freedom; +inf maps to 1."""
    m = _check_dof(m)
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise DomainError("chi-square CDF argument must be nonnegative")
    out = np.where(np.isposinf(x_arr), 1.0,
                   _sp.gammainc(0.5 * m, 0.5 * np.where(np.isfinite(x_arr), x_arr, 0.0)))
    return out if out.ndim else float(out)


def chi_sq_quantile(p, m):
    """Inverse chi-square CDF via the regularized incomplete gamma inverse."""
    m = _check_dof(m)
    p_arr = np.asarray(p, dtype=float)
    if np.any((p_arr < 0.0) | (p_arr >= 1.0)):
        raise DomainError("quantile level must lie in [0, 1)")
    out = 2.0 * _sp.gammaincinv(0.5 * m, p_arr)
    return out if out.ndim else float(out)


# Embedded 7- and 15-point Gauss-Legendre rules on [-1, 1].  Node sets are
# disjoint and never include panel endpoints, so integrands are only ever
# evaluated strictly inside a panel.
_GL7_X, _GL7_W = np.polynomial.legendre.leggauss(7)
_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)
_GL_X = np.concatenate([_GL7_X, _GL15_X])

# What a batch of several problems hands its integrand: each node together
# with the row of the problem it belongs to.
_NODE_DTYPE = np.dtype([("s", float), ("problem", np.intp)])


def _per_node(nodes, *params):
    """Split an integrand argument into nodes and per-node parameter values.

    Each parameter holds one value per problem.  A single problem hands its
    integrand the plain node array, and gets its parameters back as floats,
    so its arithmetic is scalar as in a lone call.  A batch hands it a
    record array with fields ``s`` and ``problem``, and each parameter is
    gathered onto the nodes.
    """
    if nodes.dtype.names is None:
        return (nodes, *[float(p[0]) for p in params])
    rows = nodes["problem"]
    return (nodes["s"], *[p[rows] for p in params])


def _panel_rule(f, lo: np.ndarray, hi: np.ndarray, problem=None):
    """GL15 value and |GL15 - GL7| error estimate per panel, one call to f.

    ``problem`` holds the batch row of each panel; without it the panels
    belong to one problem and f receives the plain node array.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # one row per panel: its 7 GL7 nodes, then its 15 GL15 nodes
    xs = (mid[:, None] + half[:, None] * _GL_X).ravel()
    if problem is None:
        arg = xs
    else:
        arg = np.empty(xs.size, dtype=_NODE_DTYPE)
        arg["s"] = xs
        arg["problem"] = np.repeat(problem, _GL_X.size)
    vals = np.asarray(f(arg), dtype=float)
    if vals.shape != xs.shape:
        raise DomainError("integrand must map an array to an array of the same shape")
    vals = vals.reshape(len(lo), _GL_X.size)
    i15 = half * (vals[:, _GL7_X.size:] @ _GL15_W)
    i7 = half * (vals[:, :_GL7_X.size] @ _GL7_W)
    return i15, np.abs(i15 - i7)


def _initial_panels(breakpoints: np.ndarray, upper: float):
    """Panel edges of a batch: (lo, hi, row of each panel).

    Row r of ``breakpoints`` holds problem r's points; values outside
    (0, upper), NaN included, are dropped and duplicates merged.
    """
    cuts = np.where((breakpoints > 0.0) & (breakpoints < upper), breakpoints, np.nan)
    cuts.sort(axis=1)
    cuts[:, 1:][cuts[:, 1:] == cuts[:, :-1]] = np.nan
    rows = len(cuts)
    edges = np.concatenate([np.zeros((rows, 1)), cuts, np.full((rows, 1), upper)], axis=1)
    keep = ~np.isnan(edges)
    flat = edges[keep]
    row = np.nonzero(keep)[0]
    inner = row[:-1] == row[1:]
    return flat[:-1][inner], flat[1:][inner], row[:-1][inner]


def _integrate_with_bound(f: Callable, breakpoints: Iterable, upper: float,
                          cfg: QuadratureConfig):
    """Adaptive panel integration of f over (0, upper); returns (value, bound).

    The returned bound is the summed |GL15 - GL7| panel deviation, a
    conservative estimate of the remaining quadrature error.

    A 2-D array of breakpoints, one row per problem (NaN-padded), makes a
    batch: the panels of all problems are refined together, one call to f
    per round, and value and bound come back as arrays over the rows.  Each
    problem keeps its own breakpoints and tolerance target, is split by the
    same rule as a lone problem and leaves the batch once it has converged.
    """
    upper = float(upper)
    if not math.isfinite(upper):
        raise DomainError("truncation point must be finite")
    batch = isinstance(breakpoints, np.ndarray) and breakpoints.ndim == 2
    count = len(breakpoints) if batch else 1
    value = np.zeros(count)
    bound = np.zeros(count)
    if upper > 0.0 and count == 1:
        points = np.ravel(breakpoints).tolist() if batch else breakpoints
        cuts = sorted({float(b) for b in points if 0.0 < float(b) < upper})
        edges = np.array([0.0] + cuts + [upper])
        _refine(f, edges[:-1], edges[1:], None, cfg, value, bound)
    elif upper > 0.0 and count:
        _refine(f, *_initial_panels(breakpoints.astype(float), upper),
                cfg, value, bound)
    if batch:
        return value, bound
    return float(value[0]), float(bound[0])


def _refine(f, lo, hi, row, cfg, value, bound):
    """The adaptive rounds behind :func:`_integrate_with_bound`; fills value
    and bound per problem.

    ``row`` is None for a lone problem, whose bookkeeping runs on plain
    floats.  In a batch of several problems ``live`` lists the rows still
    refining and ``row`` maps each panel to its position in ``live``; f is
    told each node's row.
    """
    live = np.arange(len(value))
    vals, errs = _panel_rule(f, lo, hi, row)
    while True:
        # a NaN panel makes its problem's total NaN, so totals screen for it
        if row is None:
            total = float(vals.sum())
            if math.isnan(total) and np.isnan(vals).any():
                raise NumericsError("integrand produced NaN",
                                    estimate=float(np.nansum(vals)), error_bound=math.inf)
            err = float(errs.sum())
            target = max(cfg.abs_tol, cfg.rel_tol * abs(total))
            if err <= target:
                value[0] = total
                bound[0] = err
                return
            if len(lo) >= cfg.max_subdivisions:
                _overrun(total, err, target, len(lo), None)
            split = errs > target / (2.0 * len(errs))
            if not split.any():
                split[int(np.argmax(errs))] = True
        else:
            total = np.bincount(row, vals, len(live))
            if np.isnan(total).any() and np.isnan(vals).any():
                p = int(row[np.isnan(vals)][0])
                raise NumericsError(f"integrand produced NaN in problem {live[p]}",
                                    estimate=float(np.nansum(vals[row == p])),
                                    error_bound=math.inf, problem=int(live[p]))
            err = np.bincount(row, errs, len(live))
            panels = np.bincount(row, minlength=len(live))
            target = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
            done = err <= target
            if done.any():
                value[live[done]] = total[done]
                bound[live[done]] = err[done]
                if done.all():
                    return
                stay = ~done
                kept = stay[row]
                lo, hi, vals, errs = lo[kept], hi[kept], vals[kept], errs[kept]
                row = (np.cumsum(stay) - 1)[row[kept]]
                live, total, err, target, panels = (
                    live[stay], total[stay], err[stay], target[stay], panels[stay])
            over = panels >= cfg.max_subdivisions
            if over.any():
                p = int(np.argmax(over))
                _overrun(total[p], err[p], target[p], panels[p], live[p])
            # Split every panel whose share of its problem's error budget is
            # exceeded (at least the single worst one), so refinement stays a
            # bounded number of vectorized rounds.
            split = errs > (target / (2.0 * panels))[row]
            for p in np.flatnonzero(np.bincount(row, split, len(live)) == 0):
                mine = np.flatnonzero(row == p)
                split[mine[np.argmax(errs[mine])]] = True
        mid = 0.5 * (lo[split] + hi[split])
        child_row = None if row is None else np.concatenate([row[split], row[split]])
        child_vals, child_errs = _panel_rule(
            f, np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]]),
            None if row is None else live[child_row])
        lo = np.concatenate([lo[~split], lo[split], mid])
        hi = np.concatenate([hi[~split], mid, hi[split]])
        if row is not None:
            row = np.concatenate([row[~split], child_row])
        vals = np.concatenate([vals[~split], child_vals])
        errs = np.concatenate([errs[~split], child_errs])


def _overrun(total, err, target, panels, problem):
    where = "" if problem is None else f" in problem {problem}"
    raise NumericsError(
        f"quadrature error {err:.3e} above target {target:.3e} after "
        f"{panels} panels{where}", estimate=float(total), error_bound=float(err),
        problem=None if problem is None else int(problem))


def integrate_halfline(f: Callable, breakpoints: Iterable = (), *, upper: float,
                       cfg: QuadratureConfig = DEFAULT_QUADRATURE,
                       with_bound: bool = False):
    """Integrate a vectorized integrand over (0, upper) to cfg tolerances.

    ``breakpoints`` mark non-smooth points of f; values outside (0, upper)
    are ignored.  Weighted integrands pick ``upper`` from
    :func:`rho_upper_limit` so that the discarded tail mass is below
    ``cfg.tail_mass_tol``.  Raises :class:`NumericsError` (carrying the best
    estimate and its error bound) if the tolerance cannot be met within
    ``cfg.max_subdivisions`` panels.

    Batches: a 2-D array of breakpoints, one NaN-padded row per problem,
    integrates one problem per row in the same adaptive rounds and returns
    an array of values.  With several problems f receives a record array
    with fields ``s`` (the nodes) and ``problem`` (each node's row), and
    must return one value per node; a batch of one, like a lone problem,
    passes the plain node array and runs exactly the lone problem's rounds.
    Each problem meets its own tolerance target, so a batched value agrees
    with the lone call of the same problem within the error bound, though
    not necessarily bitwise.  A NumericsError raised from a batch of several
    problems names the failing row in ``problem``.  ``with_bound=True`` returns
    (value, error bound), the summed |GL15 - GL7| panel deviation.
    """
    value, bound = _integrate_with_bound(f, breakpoints, upper, cfg)
    return (value, bound) if with_bound else value


def _clamp_unit(value, bound, name: str):
    """Clip probabilities to [0, 1], logging every element (by flat index)
    whose clip removes more than its quadrature error bound.

    Scalars come back as floats, arrays as arrays.
    """
    value = np.asarray(value, dtype=float)
    clipped = np.minimum(1.0, np.maximum(0.0, value))
    if logger.isEnabledFor(logging.DEBUG):
        removed = np.abs(value - clipped).ravel()
        bound = np.broadcast_to(bound, value.shape).ravel()
        for i in np.flatnonzero(removed > bound):
            logger.debug("%s: element %d clamped by %.3e, above its error bound "
                         "%.3e", name, i, removed[i], bound[i])
    return float(clipped) if clipped.ndim == 0 else clipped


def find_root(f: Callable[[float], float], lo: float, hi: float,
              tol: float = 1e-10) -> float:
    """Deterministic bracketed root of a scalar function via Brent's method."""
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise DomainError("root bracket needs lo < hi")
    if not tol > 0.0:
        raise DomainError("root tolerance must be positive")
    flo = float(f(lo))
    fhi = float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(
            f"no sign change on [{lo:g}, {hi:g}]: f(lo)={flo:g}, f(hi)={fhi:g}")
    try:
        root = brentq(f, lo, hi, xtol=tol, maxiter=300)
    except RuntimeError as exc:  # scipy reports non-convergence this way
        raise NumericsError(f"root refinement failed: {exc}") from exc
    return float(root)
