"""Special functions and the numerical engines shared by the whole package.

Normal, Student-t and chi-square functions are thin wrappers around
``scipy.special`` so that every module draws them from one place and the
backend can be swapped without touching callers.  ``rho_density`` is the
density of ``sqrt(chisq_m / m)``, the law of ``sigma_hat / sigma`` in the
Gaussian linear model; it is evaluated in log space so large degrees of
freedom neither overflow nor underflow prematurely.  Its log normalizing
constant is cached per m, and ``rho_upper_limit`` per (m, tail mass); so
are the private helpers beside it that the rho_m mixtures use: its
quantiles at fixed probabilities and the truncation point of its
s-weighted tail.

``integrate_halfline`` and ``find_root`` are the numerical workhorses: a
vectorized adaptive panel integrator for piecewise-smooth integrands on a
truncated half-line, and a bracketed deterministic root finder.  The root
finder is Brent's method, transcribed from the loop that scipy's ``brentq``
runs, so it finds brentq's roots with brentq's evaluations while the
package never imports ``scipy.optimize``, a slow import.  Each panel
takes QUADPACK's 21-point Gauss-Kronrod rule: its value is K21, and
|K21 - G10|, against the Gauss rule on 10 of the same 21 nodes, is its
error estimate; the integrator returns every value together with the sum
of these estimates, its error bound.  Integrands declare their non-smooth
points (indicator switches, kinks) and the points where they are known to
be hard (the rho_m mixtures: rho_m's quantiles) as breakpoints; these seed
the initial panel boundaries, so the adaptive refinement never has to
discover a discontinuity, or find a narrow bump that both rules would
miss, on its own.

The integrator is batched.  1-D breakpoints are one problem, run on floats,
whose integrand takes the nodes s; a 2-D array, one row per problem, is a
batch of any length, whose integrand takes the pair (s, rows).  A batch
integrates a whole grid (densities over x, coverages over theta) in one
call, refining every unconverged problem's panels in each vectorized
round.  All problems share one panel table; every problem keeps its own
breakpoints and tolerance target, and once converged its panels stay in
the table but are split no further, so an array result agrees with the
per-element calls within the reported error bound, not bitwise.  A round
evaluates its integrand in blocks of consecutive nodes, so that large rounds
keep their temporaries in cache; the blocks give one call's values bit for bit.
Public analytic calls flush underflow to 0, whatever the caller's errstate.
The exact laws and coverages, whose overflowing values all feed Phi, T_m
or their densities, also let overflow saturate to +-inf, where those are 0
or 1; invalid operations and division by zero still follow the caller.

The package's accuracy targets are fixed: every law and coverage integrates
to ``DEFAULT_QUADRATURE``, and half-length roots are found to 1e-10 (or to
1e-8 of their bracket, where that is finer).  Only
``integrate_halfline`` takes a :class:`QuadratureConfig`, for integrands of
the caller's own.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import math
import sys
from typing import Callable, Iterable

import numpy as np
from scipy import special as _sp

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
    """Tolerances and limits for the half-line quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 4096

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


DEFAULT_QUADRATURE = QuadratureConfig()

logger = logging.getLogger(__name__)

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Decorators of public calls: _saturating where every value that can
# overflow feeds Phi, T_m or their densities, 0 or 1 at +-inf (the exact
# laws, the coverages and t_pdf); _underflow_to_zero on the other calls
# that can underflow.
_underflow_to_zero = np.errstate(under="ignore")
_saturating = np.errstate(under="ignore", over="ignore")


def _check_dof(m) -> int:
    if isinstance(m, float) and not m.is_integer():
        raise DomainError("degrees of freedom must be a positive integer")
    m = int(m)
    if m < 1:
        raise DomainError("degrees of freedom must be a positive integer")
    return m


def _nan_checked(out, what: str):
    if math.isnan(out) if isinstance(out, float) else np.isnan(out).any():
        raise DomainError(f"{what} argument must not be NaN")
    return out


def _each(x, law, what: str, cdf: bool = False):
    """(values, bounds) of law at x, the argument contract of every public
    law.  A float, an int or a 0-d array is a lone argument: law gets it as
    a float, and its value comes back as a float.  An array gives arrays of
    its shape, law getting its finite elements as a flat array.  law
    returns (values, bounds).  NaN raises DomainError, and so does +-inf
    unless cdf, where it gives the CDF's 0 and 1."""
    lone = isinstance(x, (float, int)) or np.ndim(x) == 0
    x = float(x) if lone else np.asarray(x, dtype=float)
    finite = math.isfinite(x) if lone else np.isfinite(x)
    if not (finite if lone else finite.all()) and (not cdf or np.isnan(x).any()):
        raise DomainError(f"{what} must not be NaN" if cdf else f"{what} must be finite")
    if lone:
        value, bound = law(x) if finite else (x > 0.0, 0.0)
        return float(value), bound
    values, bounds = np.array(x > 0.0, dtype=float), np.zeros(x.shape)
    if finite.any():
        values[finite], bounds[finite] = law(x[finite])
    return values, bounds


# Unchecked forms for integrands and the coverage infimum, evaluated on every
# round: the integrator reports a NaN, and the infimum's arguments form none.
_std_normal_cdf = _sp.ndtr
_t_cdf = _sp.stdtr  # (m, x), m already checked


def _std_normal_pdf(x):
    # the density is 0 past |x| = 38.7, so capping |x| at 40 keeps every
    # value (|x| |x| = x x) and x * x from overflowing
    x = np.minimum(np.abs(x), 40.0)
    out = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return out if out.ndim else float(out)


def std_normal_cdf(x):
    """Standard normal CDF; broadcasts, accepts +-inf and rejects NaN."""
    return _nan_checked(_sp.ndtr(x), "normal CDF")


@_underflow_to_zero
def std_normal_pdf(x):
    """Standard normal density, rejecting NaN; underflows to 0 silently."""
    return _nan_checked(_std_normal_pdf(x), "normal density")


def std_normal_quantile(p):
    """Inverse standard normal CDF; p in [0, 1], with 0 and 1 mapping to -+inf."""
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr >= 0.0) & (p_arr <= 1.0)):
        raise DomainError("quantile level must lie in [0, 1]")
    out = _sp.ndtri(p_arr)
    return out if out.ndim else float(out)


@_underflow_to_zero
def rho_density(s, m):
    """Density of sqrt(chisq_m / m) at s; zero for s <= 0.

    Computed in log space: the normalizing constant uses gammaln so that
    large m stays finite, and it is cached per m.  Underflows to 0 silently.
    """
    m = _check_dof(m)
    s = _nan_checked(np.asarray(s, dtype=float), "rho density")
    pos = s > 0.0
    out = np.zeros(s.shape)
    # rho_m is 0 past s = 40 for every m, and s * s must not overflow
    out[pos] = _rho_pdf(np.minimum(s[pos], 40.0), m)
    return out if out.ndim else float(out)


def _rho_pdf(s, m: int):
    """rho_density unchecked: every s > 0, m a checked degree of freedom."""
    return np.exp(_rho_log_norm(m) + (m - 1.0) * np.log(s) - 0.5 * m * s * s)


@functools.lru_cache(maxsize=1024)
def _rho_log_norm(m: int) -> float:
    """log of rho_m's normalizing constant, 2 (m / 2)^(m / 2) / Gamma(m / 2)."""
    return math.log(2.0) + 0.5 * m * math.log(0.5 * m) - _sp.gammaln(0.5 * m)


def rho_upper_limit(m, tail_mass_tol: float) -> float:
    """Truncation point s_max with P(sqrt(chisq_m / m) > s_max) = tail_mass_tol."""
    m = _check_dof(m)
    if not 0.0 < tail_mass_tol < 1.0:
        raise DomainError("tail_mass_tol must lie in (0, 1)")
    return _rho_upper(m, float(tail_mass_tol))


@functools.lru_cache(maxsize=1024)
def _rho_upper(m: int, tail_mass_tol: float) -> float:
    return math.sqrt(_sp.chdtri(m, tail_mass_tol) / m)


@functools.lru_cache(maxsize=1024)
def _rho_upper_weighted(m: int, tail_mass_tol: float) -> float:
    """Truncation point s_max with E[s; s > s_max] = tail_mass_tol, s ~ rho_m.

    That tail is E[s] Q((m + 1) / 2, m s_max^2 / 2), with E[s] =
    sqrt(2 / m) Gamma((m + 1) / 2) / Gamma(m / 2) and Q the regularized
    upper incomplete gamma function.
    """
    mean = math.exp(0.5 * math.log(2.0 / m) + _sp.gammaln(0.5 * (m + 1))
                    - _sp.gammaln(0.5 * m))
    return math.sqrt(2.0 * _sp.gammainccinv(0.5 * (m + 1), tail_mass_tol / mean) / m)


# Probabilities at which rho_m's quantiles cut every mixture's first panels:
# its far lower tail, its bulk and its upper shoulder.
_RHO_SEED_PROBS = (1e-9, 1e-3, 0.5, 0.999)
# Mass of rho_m (of s rho_m for densities) every mixture discards past s_max.
_RHO_TAIL_MASS = 1e-12


@functools.lru_cache(maxsize=1024)
def _rho_quantiles(m: int) -> np.ndarray:
    """Quantiles of s = sqrt(chisq_m / m) at _RHO_SEED_PROBS (read-only)."""
    out = np.sqrt(2.0 * _sp.gammaincinv(0.5 * m, _RHO_SEED_PROBS) / m)
    out.setflags(write=False)
    return out


def t_cdf(x, m):
    """CDF of Student's t with m degrees of freedom; accepts +-inf."""
    out = _nan_checked(_sp.stdtr(_check_dof(m), x), "t CDF")
    return out if out.ndim else float(out)


@_saturating
def t_pdf(x, m):
    """Density of Student's t with m degrees of freedom; rejects NaN.  Past
    |x| = 1.3e154, where x^2 overflows, it is below the smallest normal
    double and, like an underflow, 0 silently."""
    m = _check_dof(m)
    out = _nan_checked(_t_pdf(np.asarray(x, dtype=float), m), "t density")
    return out if out.ndim else float(out)


def _t_pdf(x, m: int):
    """t_pdf unchecked: x not NaN, m a checked degree of freedom.  Past
    |x| = 1.3e154, x * x overflows to inf (density 0), where every caller
    saturates."""
    return np.exp(_t_log_norm(m) - 0.5 * (m + 1) * np.log1p(x * x / m))


@functools.lru_cache(maxsize=1024)
def _t_log_norm(m: int) -> float:
    return _sp.gammaln(0.5 * (m + 1)) - _sp.gammaln(0.5 * m) - 0.5 * math.log(m * math.pi)


def t_quantile(p, m):
    """Inverse Student-t CDF; p in [0, 1], with 0 and 1 mapping to -+inf."""
    m = _check_dof(m)
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr >= 0.0) & (p_arr <= 1.0)):
        raise DomainError("quantile level must lie in [0, 1]")
    # stdtrit maps p = 1 to +inf itself, but p = 0 to +inf as well
    out = np.where(p_arr > 0.0, _sp.stdtrit(m, p_arr), -np.inf)
    return out if out.ndim else float(out)


def chi_sq_cdf(x, m):
    """Chi-square CDF with m degrees of freedom; +inf maps to 1."""
    m = _check_dof(m)
    x_arr = np.asarray(x, dtype=float)
    if not np.all(x_arr >= 0.0):
        raise DomainError("chi-square CDF argument must be nonnegative")
    out = _sp.gammainc(0.5 * m, 0.5 * x_arr)
    return out if out.ndim else float(out)


def chi_sq_quantile(p, m):
    """Inverse chi-square CDF via the regularized incomplete gamma inverse."""
    m = _check_dof(m)
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr >= 0.0) & (p_arr < 1.0)):
        raise DomainError("quantile level must lie in [0, 1)")
    out = 2.0 * _sp.gammaincinv(0.5 * m, p_arr)
    return out if out.ndim else float(out)


# QUADPACK's 21-point Gauss-Kronrod rule qk21 on [-1, 1] (Piessens, de
# Doncker-Kapenga, Ueberhuber and Kahaner, QUADPACK, Springer 1983), its
# table as published: the nonnegative nodes xgk, descending, the Gauss-10
# ones at odd positions and the centre 0 last; their Kronrod weights wgk;
# and the Gauss-10 weights wg of xgk[1::2].
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980877781, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
# A panel's 21 nodes: the 10 Gauss nodes ascending, then the 11 Kronrod
# nodes ascending.  None is a panel endpoint, so integrands are only ever
# evaluated strictly inside a panel.
_QK_X = np.concatenate([-_XGK[1::2], _XGK[-2::-2], -_XGK[:-1:2], _XGK[::-2]])
_QK_W = np.concatenate([_WGK[1::2], _WGK[-2::-2], _WGK[:-1:2], _WGK[::-2]])
_G10_W = np.concatenate([_WG, _WG[::-1]])

# Panels per integrand call: a round's nodes go to f in blocks of at most
# 390 panels (8190 nodes), so an integrand's temporaries stay in cache.
_BLOCK_PANELS = 390


def _panel_rule(f, panels: np.ndarray, problem=None):
    """Fill rows 2 and 3 of a panel table (rows: lo, hi, K21 value,
    |K21 - G10| error estimate, one column per panel).

    f is called on consecutive blocks of at most _BLOCK_PANELS panels' nodes;
    a round of one block uses f's values as they come, and a longer one
    copies them into one table.  The rule is one matmul over the whole
    table, which it only reads.  ``problem`` holds the batch row of each
    panel; f receives the node array without it, the pair (nodes, row of
    each node) with it: one argument, as perfbench/tracing.py wraps
    integrands in a one-argument span.
    """
    lo, hi = panels[0], panels[1]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # one row per panel: its 10 Gauss nodes, then its 11 Kronrod nodes
    xs = (mid[:, None] + half[:, None] * _QK_X).ravel()
    rows = None if problem is None else np.repeat(problem, _QK_X.size)
    step = _BLOCK_PANELS * _QK_X.size
    vals = np.empty(xs.shape) if xs.size > step else None
    for start in range(0, xs.size, step):
        nodes = xs[start:start + step]
        block = np.asarray(f(nodes if rows is None else (nodes, rows[start:start + step])),
                           dtype=float)
        if block.shape != nodes.shape:
            raise DomainError("integrand must map an array to an array of the same shape")
        if vals is None:
            vals = block
        else:
            vals[start:start + step] = block
    vals = vals.reshape(len(lo), _QK_X.size)
    k21 = np.multiply(half, vals @ _QK_W, out=panels[2])
    err = np.subtract(k21, half * (vals[:, :_G10_W.size] @ _G10_W), out=panels[3])
    np.abs(err, out=err)


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


def _refine(f, lo, hi, row, cfg):
    """The adaptive rounds behind :func:`integrate_halfline`; returns
    (value, bound), floats for a lone problem and arrays over the rows of
    a batch.

    ``row`` is None for a lone problem, whose bookkeeping runs on plain
    floats.  In a batch ``row`` holds each panel's problem, and the initial
    table lists every problem in ascending order; f is told each node's
    row.  The panels sit in one table (see _panel_rule).  A converged
    problem keeps its panels, in their order, masked out of splitting and
    of the overrun check, so its sums come back bit for bit each round.
    """
    panels = np.empty((4, len(lo)))
    panels[:2] = lo, hi
    _panel_rule(f, panels, row)
    problems = None if row is None else int(row[-1]) + 1
    while True:
        vals, errs = panels[2], panels[3]
        # a NaN panel makes its problem's total NaN, so totals screen for it
        if row is None:
            total, err = panels[2:].sum(axis=1).tolist()
            if math.isnan(total) and np.isnan(vals).any():
                raise NumericsError("integrand produced NaN",
                                    estimate=float(np.nansum(vals)), error_bound=math.inf)
            target = max(cfg.abs_tol, cfg.rel_tol * abs(total))
            if err <= target:
                return total, err
            if len(errs) >= cfg.max_subdivisions:
                _overrun(total, err, target, len(errs), None)
            split = errs > target / (2.0 * len(errs))
            if not split.any():
                split[int(np.argmax(errs))] = True
        else:
            total = np.bincount(row, vals, problems)
            if np.isnan(total).any() and np.isnan(vals).any():
                p = int(row[np.isnan(vals)][0])
                raise NumericsError(f"integrand produced NaN in problem {p}",
                                    estimate=float(np.nansum(vals[row == p])),
                                    error_bound=math.inf, problem=p)
            err = np.bincount(row, errs, problems)
            target = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
            # a NaN error estimate (an inf integrand's) never converges
            done = err <= target
            if done.all():
                return total, err
            counts = np.bincount(row, minlength=problems)
            over = ~done & (counts >= cfg.max_subdivisions)
            if over.any():
                p = int(np.argmax(over))
                _overrun(total[p], err[p], target[p], counts[p], p)
            # Split every open problem's panels whose share of its error
            # budget is exceeded (at least the single worst one), so
            # refinement stays a bounded number of vectorized rounds.
            split = ~done[row] & (errs > (target / (2.0 * counts))[row])
            for p in np.flatnonzero(~done & (np.bincount(row, split, problems) == 0)):
                mine = np.flatnonzero(row == p)
                split[mine[np.argmax(errs[mine])]] = True
        # unsplit panels, then the split ones' halves: quarter rows lo, mid | mid, hi
        parents = panels[:2, split]
        children = np.empty((4, 2 * parents.shape[1]))
        quarters = children[:2].reshape(4, -1)
        quarters[1:3] = 0.5 * (parents[0] + parents[1])
        quarters[::3] = parents
        row = None if row is None else np.concatenate([row[~split], row[split], row[split]])
        _panel_rule(f, children, None if row is None else row[-children.shape[1]:])
        panels = np.concatenate([panels[:, ~split], children], axis=1)


def _overrun(total, err, target, panels, problem):
    where = "" if problem is None else f" in problem {problem}"
    raise NumericsError(
        f"quadrature error {err:.3e} above target {target:.3e} after "
        f"{panels} panels{where}", estimate=float(total), error_bound=float(err),
        problem=None if problem is None else int(problem))


def integrate_halfline(f: Callable, breakpoints: Iterable = (), *, upper: float,
                       cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Integrate a vectorized integrand over (0, upper) to cfg tolerances;
    returns (value, error bound), the bound being the summed |K21 - G10|
    panel deviation, an estimate of the remaining quadrature error.

    ``breakpoints`` mark non-smooth points of f; values outside (0, upper)
    are ignored.  Weighted integrands pick ``upper`` from
    :func:`rho_upper_limit` so that the discarded tail mass is below a
    tolerance of their own.  Raises :class:`NumericsError` (carrying the best
    estimate and its error bound) if the tolerance cannot be met within
    ``cfg.max_subdivisions`` panels.

    f must be elementwise: it maps an array of nodes to one value per node,
    each depending on its own node only.  It may be called more than once
    per round, on consecutive slices of that round's nodes.

    Breakpoints as a 1-D sequence describe one problem: f receives the node
    array and the result is a pair of floats.  A 2-D array of breakpoints,
    one NaN-padded row per problem, is a batch of any length, one row
    included: f receives the pair ``(s, rows)``, the nodes and each node's
    row, two contiguous arrays of equal length, and value and bound come
    back as arrays over the rows.  Each problem keeps its own breakpoints
    and tolerance target and is split by the same rule as a lone problem
    until it converges, so a batched value agrees with the lone call of the
    same problem within the error bound, though not necessarily bitwise.  A
    NumericsError raised from a batch names the failing row in ``problem``.
    """
    upper = float(upper)
    if not math.isfinite(upper):
        raise DomainError("truncation point must be finite")
    if isinstance(breakpoints, np.ndarray) and breakpoints.ndim > 1:
        if breakpoints.ndim > 2:
            raise DomainError("breakpoints must be a sequence of numbers or a 2-D array")
        if upper > 0.0 and len(breakpoints):
            return _refine(f, *_initial_panels(breakpoints.astype(float), upper), cfg)
        return np.zeros(len(breakpoints)), np.zeros(len(breakpoints))
    try:
        cuts = sorted({float(b) for b in breakpoints if 0.0 < float(b) < upper})
    except (TypeError, ValueError) as exc:  # a scalar, a 0-d array, nested or text
        raise DomainError("breakpoints must be a sequence of numbers or a 2-D array") from exc
    if upper > 0.0:
        return _refine(f, [0.0] + cuts, cuts + [upper], None, cfg)
    return 0.0, 0.0


def _clamp_unit(value, bound, name: str):
    """Clip probabilities to [0, 1], logging every element (by flat index)
    whose clip removes more than its quadrature error bound.

    Scalars come back as floats, arrays as arrays.
    """
    if isinstance(value, float) and 0.0 <= value <= 1.0:
        return float(value)  # nothing to clip or log
    if isinstance(value, float) and not logger.isEnabledFor(logging.DEBUG):
        return float(min(max(value, 0.0), 1.0))  # numpy's NaN and -0.0 alike
    value = np.asarray(value, dtype=float)
    clipped = np.minimum(1.0, np.maximum(0.0, value))
    if logger.isEnabledFor(logging.DEBUG):
        removed = np.abs(value - clipped).ravel()
        bound = np.broadcast_to(bound, value.shape).ravel()
        for i in np.flatnonzero(removed > bound):
            logger.debug("%s: element %d clamped by %.3e, above its error bound "
                         "%.3e", name, i, removed[i], bound[i])
    return float(clipped) if clipped.ndim == 0 else clipped


# Brent's relative step tolerance and iteration cap, as in scipy's brentq.
_ROOT_RTOL = 4.0 * sys.float_info.epsilon
_ROOT_MAXITER = 300


def _root_value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise NumericsError(f"root function is NaN at x={x!r}", estimate=x,
                            error_bound=math.inf)
    return fx


def find_root(f: Callable[[float], float], lo: float, hi: float,
              tol: float = 1e-10) -> float:
    """Deterministic bracketed root of a scalar function via Brent's method.

    The loop is Brent's (Algorithms for Minimization without Derivatives,
    1973, ch. 4) as scipy's ``brentq`` runs it, transcribed step for step,
    with absolute tolerance ``tol``, relative tolerance 4 eps and at most
    300 iterations: it returns brentq's root after brentq's evaluations,
    each end evaluated once.  A finite bracket [lo, hi] with lo < hi is
    required (DomainError), and a sign change on it (BracketError).  A NaN
    value of f, or no convergence within 300 iterations, raises
    NumericsError; the latter carries the last iterate as ``estimate`` and
    the half-width of the last bracket as ``error_bound``.
    """
    lo = float(lo)
    hi = float(hi)
    if not (lo < hi and math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("root bracket needs finite lo < hi")
    if not tol > 0.0:
        raise DomainError("root tolerance must be positive")
    fpre = _root_value(f, lo)
    fcur = _root_value(f, hi)
    if fpre == 0.0:
        return lo
    if fcur == 0.0:
        return hi
    if (fpre > 0.0) == (fcur > 0.0):
        raise BracketError(
            f"no sign change on [{lo:g}, {hi:g}]: f(lo)={fpre:g}, f(hi)={fcur:g}")
    # xcur is the best iterate, xblk the opposite end of the bracket and xpre
    # the previous iterate; scur and spre are the last two steps.
    xpre, xcur = lo, hi
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # an inf or NaN step in C, which bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _root_value(f, xcur)
    if (fpre < 0.0) != (fcur < 0.0):
        xblk = xpre
    raise NumericsError(f"root not resolved to {tol:g} in {_ROOT_MAXITER} iterations",
                        estimate=xcur, error_bound=abs(xblk - xcur) / 2)
