"""Limiting laws of the scaled thresholding error along parameter sequences.

Two regimes, distinguished by how the threshold scales.  In the conservative
regime sqrt(n) eta_n converges to a finite e >= 0 and the error is scaled by
sqrt(n)/xi.  On that scale the finite-sample law depends on (n, theta, eta)
only through sqrt(n) theta / (sigma xi), sqrt(n) eta and m, so the limit,
indexed by e and nu = lim sqrt(n) theta_n / (sigma xi), is the finite
mixture over s ~ rho_m at rn = 1: a Student-t law deformed around the
origin.  In the consistent regime sqrt(n) eta_n diverges and the error is
scaled by 1/(xi eta): the limit lives on [-1, 1] and is indexed by zeta =
lim theta_n / (sigma xi eta_n).  The noise vanishes against the threshold
there, so the CDF at x is P_s[offset >= 0], offset = the inverse map
``_inverse(kind, zeta, x s, s)`` with s ~ rho_m: a chi-square functional for
finite residual degrees of freedom, a point mass for infinite ones (split in
two by an auxiliary weight in one hard-threshold boundary case).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence, Tuple

import numpy as np

from .estimators import EstimatorKind, _inverse
from .finite_sample import ScalingFactor, _error_law, tilde_cdf
from .model import ProblemSetup
from .special import (DomainError, _check_dof, _clamp_unit, _each, _saturating,
                      _underflow_to_zero, chi_sq_cdf, std_normal_cdf)
# unused here, but perfbench/tracing.py wraps this module's binding
from .special import integrate_halfline  # noqa: F401

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
    when m is infinite and |zeta| = 1 -- see :func:`hard_weight`; s may be
    None, as it is needed only when f is infinite.
    """

    zeta: float
    m: int | float
    hard_aux: Tuple[float, float, float | None] | None = None

    def __post_init__(self):
        if math.isnan(self.zeta):
            raise DomainError("zeta must not be NaN")
        object.__setattr__(self, "m", _check_limit_dof(self.m))
        if self.hard_aux is not None:
            try:
                f, r, s = self.hard_aux
                aux = (float(f), float(r), None if s is None else float(s))
            except (TypeError, ValueError) as exc:
                raise DomainError("hard_aux must be a triple (f, r, s) of numbers; "
                                  "s may be None") from exc
            object.__setattr__(self, "hard_aux", aux)


@_saturating
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
    return _clamp_unit(*_each(x, lambda xs: _error_law(kind, xs, regime.nu, 1.0, 1.0, regime.e,
                                                       1.0, regime.m),
                              "CDF argument", cdf=True), "conservative_limit_cdf")


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
    return float(std_normal_cdf(float(r) / math.sqrt(1.0 + 0.5 * f * f)))


def _point_mass_cdf(kind: EstimatorKind, x, regime: ConsistentRegime) -> np.ndarray:
    """m = inf (s = 1) or zeta = +-inf: the point mass at kernel(zeta, 1) -
    zeta, placed exactly rather than through a rounded offset; hard at
    |zeta| = 1 splits it between -zeta and 0 by :func:`hard_weight`."""
    zeta = regime.zeta
    if abs(zeta) <= 1.0:
        location = -zeta
    elif kind is EstimatorKind.SOFT:
        location = -math.copysign(1.0, zeta)
    else:  # adaptive soft's -1 / zeta is -0.0 at zeta = +-inf, the same step as 0
        location = 0.0 if kind is EstimatorKind.HARD else -1.0 / zeta
    step = np.where(x >= location, 1.0, 0.0)
    if kind is not EstimatorKind.HARD or abs(zeta) != 1.0:
        return step
    if regime.hard_aux is None:
        raise DomainError("hard thresholding with |zeta| = 1 and infinite degrees of "
                          "freedom needs the (f, r, s) auxiliary limits")
    w = hard_weight(*regime.hard_aux)
    return w * step + (1.0 - w) * np.where(x >= 0.0, 1.0, 0.0)


@_underflow_to_zero
def consistent_limit_cdf(kind, x, regime: ConsistentRegime):
    """CDF of the consistent-regime limit law at x, supported on [-1, 1];
    x may be an array, and a scalar x gives a float."""
    kind = EstimatorKind(kind)
    return _clamp_unit(*_each(x, lambda xs: (_consistent_cdf(kind, xs, regime), 0.0),
                              "CDF argument", cdf=True), "consistent_limit_cdf")


def _consistent_cdf(kind: EstimatorKind, x, regime: ConsistentRegime) -> np.ndarray:
    """P_s[offset(s) >= 0] with offset = _inverse(kind, zeta, x s, s) and
    s ~ rho_m: the limit of the mixed Phi(rn offset) as rn -> inf.  The
    offset changes sign only where s crosses |zeta|, -zeta / x or -x zeta,
    so the law sums the chi-square masses of the pieces between those cuts
    whose offset is >= 0 at an interior point, one difference per run of
    such pieces, in the shape of x, a finite array or float."""
    zeta, m = regime.zeta, regime.m
    if math.isinf(m) or math.isinf(zeta):
        return _point_mass_cdf(kind, x, regime)
    col = np.reshape(x, (-1, 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        edges = np.hstack(np.broadcast_arrays(0.0, abs(zeta), -zeta / col,
                                              -col * zeta, math.inf))
        edges = np.sort(np.where(edges >= 0.0, edges, math.inf), axis=1)
        lo = edges[:, :-1]
        s = np.minimum(0.5 * lo + 0.5 * edges[:, 1:], lo + lo + 1.0)  # inside each piece
        d = col * s
        # x s keeps x's sign where it underflows, as in _scale_free
        d = np.where((d == 0.0) & (col != 0.0), np.copysign(math.ulp(0.0), col), d)
        keep = np.pad(_inverse(kind, zeta, d, s) >= 0.0, ((0, 0), (1, 1)))
        below = chi_sq_cdf(m * edges * edges, m)  # P(s <= edge)
    value, opened = np.zeros(len(col)), np.zeros(len(col))
    for j in range(s.shape[1]):
        opened = np.where(keep[:, j + 1] & ~keep[:, j], below[:, j], opened)
        value = np.where(keep[:, j + 1] & ~keep[:, j + 2],
                         value + (below[:, j + 1] - opened), value)
    return value.reshape(np.shape(x))


def limit_atoms(kind, regime) -> tuple:
    """Locations where the limit law can carry point mass.

    Used to restrict convergence checks to continuity points.
    """
    kind = EstimatorKind(kind)
    if isinstance(regime, ConservativeRegime):
        return (0.0,)
    if not isinstance(regime, ConsistentRegime):
        raise DomainError("regime must be ConservativeRegime or ConsistentRegime")
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
    else:
        limit_vals = consistent_limit_cdf(kind, xs, regime)
        scaling = ScalingFactor.consistent
    gaps = []
    for setup, theta_i in setup_sequence:
        finite = tilde_cdf(kind, xs, setup, theta_i, scaling(setup))
        gaps.append(float(np.max(np.abs(finite - limit_vals))))
    return gaps
