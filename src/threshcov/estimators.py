"""Componentwise thresholding estimators: hard, soft, and adaptive soft.

All three replace the least-squares estimate of a component by zero when it
falls at or below a data-scaled cutoff, and otherwise keep it (hard), shrink
it by the cutoff (soft), or shrink it by cutoff^2 / estimate (adaptive soft,
a nonnegative-garrote type rule).  The cutoff for component i is
``c * xi_i * eta_i`` where c is sigma (known-variance rules) or sigma_hat.

The inverse of each map (``_inverse``) is defined here once; the exact
error laws, their conservative limits and the coverages all derive from it.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .model import VarianceMode, compute_xi_all, ls_fit
from .special import DomainError

__all__ = ["EstimatorKind", "ThresholdRule", "kernel", "estimate"]


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
    adaptive soft moves it by t^2 / z.
    """
    kind = EstimatorKind(kind)
    z_arr = np.asarray(z, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError("threshold cutoff must be nonnegative")
    keep = np.abs(z_arr) > t_arr
    if kind is EstimatorKind.HARD:
        out = np.where(keep, z_arr, 0.0)
    elif kind is EstimatorKind.SOFT:
        out = np.sign(z_arr) * np.maximum(np.abs(z_arr) - t_arr, 0.0)
    else:
        safe = np.where(keep, z_arr, 1.0)
        out = np.where(keep, z_arr - t_arr * t_arr / safe, 0.0)
    return out if out.ndim else float(out)


def _inverse(kind: EstimatorKind, mu, d, t, closed: bool = True):
    """Inverse of the thresholding map at c = mu + d, measured from mu.

    g(c) = sup{w : kernel(kind, w, t) <= c}, or with closed=False
    g(c) = inf{w : kernel(kind, w, t) >= c}; the two differ only at c = 0,
    the kill atom, where they are t and -t.  For a continuous W,
    P(kernel(W) <= mu + d) = P(W <= mu + offset) and
    P(kernel(W) < mu + d) = P(W < mu + open offset).

    Returns (offset, slope) = (g(mu + d) - mu, g'(mu + d)) for t > 0.  The
    offset is formed from d, never as a difference with mu, so it keeps d's
    digits when |mu| is huge: hard keeps d (or goes to the dead-zone edge
    +-t - mu), soft shifts d by t, and adaptive soft takes the root A +- B
    of w^2 - c w - t^2 = 0 shifted by mu, through the product
    (A - B)(A + B) = -(mu d + t^2) where A and +-B would cancel.
    """
    c = mu + d
    up = c >= 0.0 if closed else c > 0.0
    if kind is EstimatorKind.HARD:
        keep = np.abs(c) > t
        return (np.where(keep, d, np.where(up, t - mu, -t - mu)),
                np.where(keep, 1.0, 0.0))
    if kind is EstimatorKind.SOFT:
        return np.where(up, d + t, d - t), np.ones_like(c)
    big_a = 0.5 * (d - mu)
    big_b = np.hypot(0.5 * c, t)
    signed_b = np.where(up, big_b, -big_b)
    # A + signed_b does not cancel where both terms share a sign
    with np.errstate(divide="ignore", invalid="ignore"):
        offset = np.where((big_a >= 0.0) == up, big_a + signed_b,
                          (mu * d + t * t) / (signed_b - big_a))
        slope = 0.5 + 0.25 * np.abs(c) / big_b
    return offset, slope


def _switch_points(kind: EstimatorKind, mu, slope, t) -> np.ndarray:
    """s-values where _inverse(kind, mu, slope * s, t * s) changes branch,
    one row per element of mu or slope: mu + slope s crosses 0 and, for
    hard, +-t s.  Candidates that are not positive and finite are left for
    the quadrature to drop."""
    mu = np.asarray(mu, dtype=float)
    slope = np.asarray(slope, dtype=float)
    dens = [slope, slope - t, slope + t] if kind is EstimatorKind.HARD else [slope]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.stack([-mu / den for den in dens], axis=-1)


@dataclasses.dataclass(frozen=True, eq=False)
class ThresholdRule:
    """A thresholding estimator: kind, per-component eta, and variance handling.

    eta may be a scalar (shared by all components) or a length-k vector.
    Known-variance rules carry sigma; estimated rules use sigma_hat from the
    fit and must not carry one.
    """

    kind: EstimatorKind
    eta: float | np.ndarray
    mode: VarianceMode = VarianceMode.ESTIMATED
    sigma: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", EstimatorKind(self.kind))
        object.__setattr__(self, "mode", VarianceMode(self.mode))
        eta_arr = np.asarray(self.eta, dtype=float)
        if np.any(eta_arr <= 0.0) or not np.all(np.isfinite(eta_arr)):
            raise DomainError("eta must be positive and finite")
        if self.mode is VarianceMode.KNOWN:
            if self.sigma is None or not (self.sigma > 0.0 and math.isfinite(self.sigma)):
                raise DomainError("a known-variance rule needs sigma > 0")
        elif self.sigma is not None:
            raise DomainError("sigma is only meaningful for known-variance rules")


def estimate(X, y, rule: ThresholdRule) -> np.ndarray:
    """Thresholded least-squares estimate of every component."""
    fit = ls_fit(X, y)
    xi = compute_xi_all(X)
    eta = np.broadcast_to(np.asarray(rule.eta, dtype=float), xi.shape)
    if rule.mode is VarianceMode.ESTIMATED:
        if fit.sigma_hat_sq is None:
            raise DomainError("estimated-variance rules need n > k")
        scale = math.sqrt(fit.sigma_hat_sq)
    else:
        scale = rule.sigma
    return kernel(rule.kind, fit.ls_estimate, scale * xi * eta)
