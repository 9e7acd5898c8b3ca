"""Componentwise thresholding estimators: hard, soft, and adaptive soft.

All three replace the least-squares estimate of a component by zero when it
falls at or below a data-scaled cutoff, and otherwise keep it (hard), shrink
it by the cutoff (soft), or shrink it by cutoff^2 / estimate (adaptive soft,
a nonnegative-garrote type rule).  The cutoff for component i is
``c * xi_i * eta_i`` where c is the rule's sigma when it carries one (known
variance), else sigma_hat.

The inverse of each map (``_inverse``) is defined here once; the exact
error laws, their conservative limits and the coverages all derive from it.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .model import compute_xi_all, ls_fit
from .special import DomainError

__all__ = ["EstimatorKind", "ThresholdRule", "kernel", "estimate"]

_SMALLEST_NORMAL = float(np.finfo(float).tiny)


class EstimatorKind(enum.Enum):
    HARD = "hard"
    SOFT = "soft"
    ADAPTIVE_SOFT = "asoft"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown estimator kind {value!r}")


def kernel(kind, z, t):
    """Apply the scalar thresholding map elementwise; t >= 0 is the cutoff.

    |z| <= t maps to 0 for every kind (ties at the cutoff resolve to zero).
    Beyond the cutoff: hard keeps z, soft moves it toward zero by t, and
    adaptive soft moves it by t^2 / z.  Every kind is non-decreasing in z
    and, at fixed z, moves toward zero as t grows, also in floating point:
    the Monte Carlo brackets rely on it.
    """
    kind = EstimatorKind(kind)
    z_arr = np.asarray(z, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if not np.all(t_arr >= 0.0):
        raise DomainError("threshold cutoff must be nonnegative, not NaN")
    if np.isnan(z_arr).any():
        raise DomainError("coefficient must not be NaN")
    keep = np.abs(z_arr) > t_arr
    if kind is EstimatorKind.HARD:
        out = np.where(keep, z_arr, 0.0)
    elif kind is EstimatorKind.SOFT:
        out = np.sign(z_arr) * np.maximum(np.abs(z_arr) - t_arr, 0.0)
    else:
        # t (t / z), not t^2 / z: where kept, t / z lies in (-1, 1), so the
        # shift never overflows, never exceeds t in size, and each rounding
        # is monotone; only the discarded lanes can overflow
        safe = np.where(keep, z_arr, 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.where(keep, z_arr - t_arr * (t_arr / safe), 0.0)
    return out if out.ndim else float(out)


def _sum(a, b):
    """a + b, silent at a = -b = +-inf (mu = +-inf: no branch of _inverse or
    _inverse_slope takes that NaN); a finite float term rules it out cheaply."""
    if type(a) is float and math.isfinite(a) or type(b) is float and math.isfinite(b):
        return a + b
    with np.errstate(invalid="ignore"):
        return a + b


def _cutoff(scale, xi, eta):
    """The kernel's cutoff scale xi eta; inf where it overflows, which kills every estimate."""
    with np.errstate(over="ignore"):
        return scale * xi * eta


def _inverse(kind: EstimatorKind, mu, d, t, closed: bool = True):
    """Inverse of the thresholding map at c = mu + d, measured from mu.

    g(c) = sup{w : kernel(kind, w, t) <= c}, or with closed=False
    g(c) = inf{w : kernel(kind, w, t) >= c}; the two differ only at c = 0,
    the kill atom, where they are t and -t.  For a continuous W,
    P(kernel(W) <= mu + d) = P(W <= mu + offset) and
    P(kernel(W) < mu + d) = P(W < mu + open offset).

    Returns the offset g(mu + d) - mu for t > 0, formed from d, never as a
    difference with mu, so it keeps d's digits when |mu| is huge: hard keeps d
    (or goes to the dead-zone edge +-t - mu), soft shifts d by t, and adaptive
    soft takes the root A +- B of w^2 - c w - t^2 = 0 shifted by mu, through
    the product (A - B)(A + B) = -(mu d + t^2) where A and +-B would cancel.
    Where mu d or t^2 overflows, that quotient is taken term by term; at
    mu = +-inf the offset is d for every d, the limit where the shrinkage
    t^2 / c vanishes, and at t = inf, where every estimate is killed, the
    edge +-inf.

    Python floats mu, d and t (a lone problem) run the same expressions in
    Python arithmetic, np.hypot included, and return a float; where adaptive
    soft's quotient needs the edge handling (mu d + t^2 not finite, a zero
    denominator) they take the array body, which returns a 0-d array.
    """
    lone = type(mu) is type(d) is type(t) is float
    c = mu + d if lone else _sum(mu, d)
    up = c >= 0.0 if closed else c > 0.0
    if kind is EstimatorKind.HARD:
        if lone:
            return d if abs(c) > t else (t if up else -t) - mu
        return np.where(np.abs(c) > t, d, np.where(up, t, -t) - mu)
    if kind is EstimatorKind.SOFT:
        if lone:
            return d + t if up else d - t
        return np.where(up, d + t, d - t)
    big_a = 0.5 * (d - mu if lone else _sum(d, -mu))
    big_b = np.hypot(0.5 * c, t)
    # A + signed_b does not cancel where both terms share a sign
    added = (big_a >= 0.0) == up
    if lone:
        signed_b = float(big_b) if up else -float(big_b)
        if added and not math.isinf(mu):
            return big_a + signed_b
        num, den = mu * d + t * t, signed_b - big_a
        if den and math.isfinite(num):
            return num / den
    signed_b = np.where(up, big_b, -big_b)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        num, den = mu * d + t * t, signed_b - big_a
        cancel = num / den
        if not (math.isfinite(num) if isinstance(num, float) else np.isfinite(num).all()):
            # at t = inf every estimate is killed: t (t / den) is the edge signed_b
            shift = np.where(np.isinf(t), signed_b, t * (t / den))
            cancel = np.where(np.isfinite(num), cancel,
                              np.where(np.isinf(mu), d, d * (mu / den) + shift))
            # num is never finite at mu = +-inf, whose offset is d, also
            # where d = -inf leaves A + B NaN
            added = added & ~np.isinf(mu)
        return np.where(added, big_a + signed_b, cancel)


def _inverse_slope(kind: EstimatorKind, mu, d, t):
    """g'(mu + d), the slope of either :func:`_inverse`; soft's is 1.0, and
    adaptive soft's tends to 1 as |c| grows, its value at c = +-inf and at
    mu = -d = +-inf, where the offset is d.  Python floats run on floats as
    in :func:`_inverse`, but for c not finite and a zero denominator."""
    c = _sum(mu, d)
    lone = type(c) is type(t) is float
    if kind is EstimatorKind.HARD:
        return (1.0 if abs(c) > t else 0.0) if lone else np.where(np.abs(c) > t, 1.0, 0.0)
    if kind is EstimatorKind.SOFT:
        return 1.0
    if lone and math.isfinite(c):
        hyp = float(np.hypot(0.5 * c, t))
        if hyp:
            return 0.5 + 0.25 * abs(c) / hyp
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isfinite(c), 0.5 + 0.25 * np.abs(c) / np.hypot(0.5 * c, t), 1.0)


def _switch_points(kind: EstimatorKind, mu, slope, t):
    """s-values where _inverse(kind, mu, slope * s, t * s) changes branch:
    mu + slope s crosses 0 and, for hard, +-t s.  Arrays of mu or slope give
    one row per element; a float mu and slope (a lone problem) give a list
    of floats.  Candidates that are not positive and finite are left for
    the quadrature to drop.  Subnormal ones are dropped here (NaN in a
    row): their panel [0, s] would put Gauss nodes at s = 0, where t s = 0
    and the adaptive-soft inverse is 0/0."""
    dens = (slope, slope - t, slope + t) if kind is EstimatorKind.HARD else (slope,)
    if isinstance(mu, float) and isinstance(slope, float):
        # numpy's -mu / 0 is +-inf or NaN, which the quadrature drops
        return [p for p in (-mu / d for d in dens if d) if p >= _SMALLEST_NORMAL]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        pts = -np.asarray(mu, dtype=float)[..., None] / np.stack(dens, axis=-1)
    return np.where(pts >= _SMALLEST_NORMAL, pts, np.nan)


@dataclasses.dataclass(frozen=True, eq=False)
class ThresholdRule:
    """A thresholding estimator: kind, per-component eta, and variance handling.

    eta may be a scalar (shared by all components) or a length-k vector.
    A rule with sigma thresholds with that known sigma; one without uses
    sigma_hat from the fit.
    """

    kind: EstimatorKind
    eta: float | np.ndarray
    sigma: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", EstimatorKind(self.kind))
        eta_arr = np.asarray(self.eta, dtype=float)
        if eta_arr.ndim > 1:
            raise DomainError("eta must be a scalar or a vector")
        if np.any(eta_arr <= 0.0) or not np.all(np.isfinite(eta_arr)):
            raise DomainError("eta must be positive and finite")
        if self.sigma is not None and not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainError("sigma must be positive and finite")


def estimate(X, y, rule: ThresholdRule) -> np.ndarray:
    """Thresholded least-squares estimate of every component."""
    coef, sigma_hat_sq = ls_fit(X, y)
    xi = compute_xi_all(X)
    eta = np.asarray(rule.eta, dtype=float)
    if eta.ndim and eta.shape != xi.shape:
        raise DomainError(f"eta needs one value per component ({xi.size}), not {eta.size}")
    if rule.sigma is None:
        if sigma_hat_sq is None:
            raise DomainError("estimated-variance rules need n > k")
        scale = math.sqrt(sigma_hat_sq)
    else:
        scale = rule.sigma
    return kernel(rule.kind, coef, _cutoff(scale, xi, eta))
