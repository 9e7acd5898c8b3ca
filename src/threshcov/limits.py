"""Limiting laws of the scaled thresholding error along parameter sequences.

Two regimes, distinguished by how the threshold scales.  In the
conservative regime sqrt(n) eta_n converges to a finite e >= 0 and the
error is scaled by sqrt(n)/xi: the limit is a Student-t law deformed around
the origin, indexed by e and the local parameter nu = lim sqrt(n) theta_n /
(sigma xi).  In the consistent regime sqrt(n) eta_n diverges and the error
is scaled by 1/(xi eta): the limit lives on [-1, 1] and is indexed by
zeta = lim theta_n / (sigma xi eta_n); for finite residual degrees of
freedom it is a chi-square functional, for infinite degrees of freedom it
degenerates to point masses (with a two-point mixture in one hard-threshold
boundary case governed by an auxiliary weight).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence, Tuple

import numpy as np

from .estimators import EstimatorKind, _switch_points
from .finite_sample import ScalingFactor, _cdf_integrand, _scale_free, tilde_cdf
from .model import ProblemSetup
from .special import (
    DEFAULT_QUADRATURE,
    DomainError,
    _check_dof,
    _clamp_unit,
    chi_sq_cdf,
    integrate_halfline,
    rho_upper_limit,
    std_normal_cdf,
    t_cdf,
)

__all__ = [
    "ConservativeRegime",
    "ConsistentRegime",
    "conservative_limit_cdf",
    "consistent_limit_cdf",
    "hard_weight",
    "limit_atoms",
    "weak_convergence_gaps",
]

_EXCLUSION_RADIUS = 0.05


def _check_limit_dof(m):
    return math.inf if m == math.inf else _check_dof(m)


@dataclasses.dataclass(frozen=True)
class ConservativeRegime:
    """Limit data when sqrt(n) eta_n -> e finite.

    nu: limit of sqrt(n) theta_n / (sigma xi), any extended real;
    e: limit of sqrt(n) eta_n, finite and nonnegative;
    m: residual degrees of freedom held fixed along the sequence.
    """

    nu: float
    e: float
    m: int | float

    def __post_init__(self):
        if math.isnan(self.nu):
            raise DomainError("nu must not be NaN")
        if not (self.e >= 0.0 and math.isfinite(self.e)):
            raise DomainError("e must be finite and nonnegative")
        object.__setattr__(self, "m", _check_limit_dof(self.m))


@dataclasses.dataclass(frozen=True)
class ConsistentRegime:
    """Limit data when sqrt(n) eta_n -> inf and eta_n -> 0.

    zeta: limit of theta_n / (sigma xi eta_n), any extended real;
    m: residual degrees of freedom, a positive integer or math.inf;
    hard_aux: auxiliary limits (f, r, s) needed only by the hard estimator
    when m is infinite and |zeta| = 1 -- see :func:`hard_weight`.
    """

    zeta: float
    m: int | float
    hard_aux: Tuple[float, float, float] | None = None

    def __post_init__(self):
        if math.isnan(self.zeta):
            raise DomainError("zeta must not be NaN")
        object.__setattr__(self, "m", _check_limit_dof(self.m))
        if self.hard_aux is not None:
            aux = tuple(float(v) for v in self.hard_aux)
            if len(aux) != 3:
                raise DomainError("hard_aux must be a triple (f, r, s)")
            object.__setattr__(self, "hard_aux", aux)


def _step(x: np.ndarray, location: float) -> np.ndarray:
    return np.where(x >= location, 1.0, 0.0)


def conservative_limit_cdf(kind, x, regime: ConservativeRegime) -> float:
    """CDF of the conservative-regime limit law at x.

    Only finite residual degrees of freedom are supported: with m = inf the
    estimated-variance limits coincide with the known-variance family and
    are deliberately not duplicated here.  x may be an array, integrated as
    one batch; a scalar x gives a float.
    """
    kind = EstimatorKind(kind)
    if math.isinf(regime.m):
        raise DomainError("conservative limits are provided for finite m only")
    m = regime.m
    nu = regime.nu
    e = regime.e
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise DomainError("CDF argument must not be NaN")
    out = np.array(x > 0.0, dtype=float)
    bound = np.zeros(x.shape)
    finite = np.isfinite(x)
    xs = x[finite]
    if e == 0.0:
        out[finite] = t_cdf(xs, m)
    elif math.isinf(nu):
        out[finite] = t_cdf(xs + math.copysign(e, nu) if kind is EstimatorKind.SOFT
                            else xs, m)
    elif nu == 0.0:
        out[finite] = _scale_free(kind, xs, 1.0, e, 1.0, m)
    elif xs.size:
        upper = rho_upper_limit(m, DEFAULT_QUADRATURE.tail_mass_tol)
        out[finite], bound[finite] = integrate_halfline(
            _cdf_integrand(kind, nu, xs, e, 1.0, m),
            _switch_points(kind, nu, xs, e),
            upper=upper, with_bound=True)
    return _clamp_unit(out, bound, "conservative_limit_cdf")


def hard_weight(f: float, r: float, s: float | None = None) -> float:
    """Mixing weight for the hard estimator at the boundary |zeta| = 1, m = inf.

    f >= 0 and r are the curvature and offset limits of the boundary
    sequence; s is their joint limit, required only when f is infinite.
    w(0, r, .) = Phi(r); w(inf, ., s) = Phi(sqrt(2) s); in between the
    weight is a Gaussian average of Phi(f t / sqrt(2) + r), which
    collapses to the single normal CDF below.
    """
    f = float(f)
    if math.isnan(f) or f < 0.0:
        raise DomainError("f must be nonnegative")
    if f == 0.0:
        return float(std_normal_cdf(r))
    if math.isinf(f):
        if s is None or math.isnan(s):
            raise DomainError("the s limit is required when f is infinite")
        return float(std_normal_cdf(math.sqrt(2.0) * float(s)))
    r = float(r)
    if math.isinf(r):
        return 1.0 if r > 0.0 else 0.0
    return float(std_normal_cdf(r / math.sqrt(1.0 + 0.5 * f * f)))


def _consistent_cdf_infinite_dof(kind: EstimatorKind, x: np.ndarray,
                                 regime: ConsistentRegime) -> np.ndarray:
    zeta = regime.zeta
    az = abs(zeta)
    if kind is EstimatorKind.HARD:
        if az < 1.0:
            return _step(x, -zeta)
        if az > 1.0:
            return _step(x, 0.0)
        if regime.hard_aux is None:
            raise DomainError(
                "hard thresholding with |zeta| = 1 and infinite degrees of "
                "freedom needs the (f, r, s) auxiliary limits")
        w = hard_weight(*regime.hard_aux)
        return w * _step(x, -zeta) + (1.0 - w) * _step(x, 0.0)
    if kind is EstimatorKind.SOFT:
        if az <= 1.0:
            return _step(x, -zeta)
        return _step(x, -math.copysign(1.0, zeta))
    if az <= 1.0:
        return _step(x, -zeta)
    if math.isinf(zeta):
        return _step(x, 0.0)
    return _step(x, -1.0 / zeta)


def consistent_limit_cdf(kind, x, regime: ConsistentRegime):
    """CDF of the consistent-regime limit law at x; support is [-1, 1].

    x may be an array; a scalar x gives a float.
    """
    kind = EstimatorKind(kind)
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise DomainError("CDF argument must not be NaN")
    out = _consistent_cdf(kind, x, regime)
    out = np.where(np.isinf(x), np.where(x > 0.0, 1.0, 0.0), out)
    return float(out) if out.ndim == 0 else out


def _consistent_cdf(kind: EstimatorKind, x: np.ndarray,
                    regime: ConsistentRegime) -> np.ndarray:
    if math.isinf(regime.m):
        return _consistent_cdf_infinite_dof(kind, x, regime)
    m = regime.m
    zeta = regime.zeta
    if zeta == 0.0:
        return _step(x, 0.0)
    if math.isinf(zeta):
        if kind is EstimatorKind.SOFT:
            return _step(x, -math.copysign(1.0, zeta))
        return _step(x, 0.0)
    mz2 = m * zeta * zeta
    if zeta > 0.0:
        # the law sits on [-1, 0): 0 left of it, 1 from 0 on
        inside = (x >= -1.0) & (x < 0.0)
        xc = np.where(inside, x, -1.0)
        with np.errstate(divide="ignore", over="ignore"):
            upper_arg = chi_sq_cdf(mz2 / (xc * xc), m)
        if kind is EstimatorKind.HARD:
            value = upper_arg - chi_sq_cdf(mz2, m)
        elif kind is EstimatorKind.SOFT:
            value = upper_arg
        else:
            value = upper_arg - chi_sq_cdf(mz2 * xc * xc, m)
        return np.where(inside, value, _step(x, 0.0))
    # the law sits on [0, 1]: 0 left of it, 1 from 1 on
    inside = (x >= 0.0) & (x < 1.0)
    xc = np.where(inside, x, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        inv_tail = 1.0 - chi_sq_cdf(mz2 / (xc * xc), m)
    if kind is EstimatorKind.HARD:
        value = chi_sq_cdf(mz2, m) + inv_tail
    elif kind is EstimatorKind.SOFT:
        value = inv_tail
    else:
        value = chi_sq_cdf(mz2 * xc * xc, m) + inv_tail
    return np.where(inside, value, _step(x, 1.0))


def limit_atoms(kind, regime) -> tuple:
    """Locations where the limit law can carry point mass.

    Used to restrict convergence checks to continuity points.
    """
    kind = EstimatorKind(kind)
    if isinstance(regime, ConservativeRegime):
        return (0.0,)
    pts = {0.0, 1.0, -1.0}
    zeta = regime.zeta
    if math.isfinite(zeta):
        pts.add(-zeta)
        if zeta != 0.0:
            pts.add(-1.0 / zeta)
    return tuple(sorted(pts))


def weak_convergence_gaps(kind, setup_sequence: Iterable[Tuple[ProblemSetup, float]],
                          regime, grid: Sequence[float]) -> list:
    """Sup-norm gap between finite-sample and limit CDFs, one per setup.

    setup_sequence yields (setup, theta_i) pairs; the scaling matching the
    regime (conservative: sqrt(n)/xi, consistent: 1/(xi eta)) is applied
    automatically.  Grid points within 0.05 of a potential limit atom are
    dropped: weak convergence holds at continuity points only.
    """
    kind = EstimatorKind(kind)
    atoms = np.array(limit_atoms(kind, regime))
    grid = np.asarray(grid, dtype=float).ravel()
    xs = grid[np.all(np.abs(grid[:, None] - atoms) > _EXCLUSION_RADIUS, axis=1)]
    if not xs.size:
        raise DomainError("no continuity points remain in the grid")
    if isinstance(regime, ConservativeRegime):
        limit_vals = conservative_limit_cdf(kind, xs, regime)
        scaling = ScalingFactor.conservative
    elif isinstance(regime, ConsistentRegime):
        limit_vals = consistent_limit_cdf(kind, xs, regime)
        scaling = ScalingFactor.consistent
    else:
        raise DomainError("regime must be ConservativeRegime or ConsistentRegime")
    gaps = []
    for setup, theta_i in setup_sequence:
        finite = tilde_cdf(kind, xs, setup, theta_i, scaling(setup))
        gaps.append(float(np.max(np.abs(finite - limit_vals))))
    return gaps
