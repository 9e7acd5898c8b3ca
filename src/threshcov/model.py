"""Gaussian linear regression scaffolding: y = X theta + u, u ~ N(0, sigma^2 I).

``compute_xi_all`` gives every component's standard-error scale
``xi_i = sqrt(((X'X / n)^{-1})_{ii})`` from the triangular factor R of
X = QR, never from X'X.  ``ls_fit`` runs least squares with the unbiased
residual variance estimate, and ``standard_ls_interval`` gives the classical
z- and t-based half-lengths that the thresholded intervals are measured
against.  Component indexes are 1-based throughout, matching the usual
numbering of regression coefficients.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np

from .special import (
    DomainError,
    std_normal_quantile,
    t_quantile,
)

__all__ = [
    "VarianceMode",
    "ProblemSetup",
    "reference_setup",
    "compute_xi_all",
    "ls_fit",
    "standard_ls_interval",
]


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class VarianceMode(enum.Enum):
    """Whether sigma is treated as known or replaced by sigma_hat."""

    KNOWN = "known"
    ESTIMATED = "estimated"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown variance mode {value!r}")


@dataclasses.dataclass(frozen=True)
class ProblemSetup:
    """Scalar summary of one watched component of a regression problem.

    n: sample size; k: number of regressors (rank of the design);
    xi: standard-error scale of the watched component; sigma: noise scale;
    eta: threshold tuning parameter; component_index: 1-based index of the
    watched component.
    """

    n: int
    k: int
    xi: float = 1.0
    sigma: float = 1.0
    eta: float = 0.05
    component_index: int = 1

    def __post_init__(self):
        if not all(map(_is_integer, (self.n, self.k, self.component_index))):
            raise DomainError("n, k and component_index must be integers")
        if self.k < 1 or self.n < self.k:
            raise DomainError("need n >= k >= 1")
        if not (self.xi > 0.0 and math.isfinite(self.xi)):
            raise DomainError("xi must be positive and finite")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise DomainError("sigma must be positive and finite")
        if not (self.eta > 0.0 and math.isfinite(self.eta)):
            raise DomainError("eta must be positive and finite")
        if not 1 <= self.component_index <= self.k:
            raise DomainError("component_index must lie in 1..k")

    @property
    def residual_dof(self) -> int:
        return self.n - self.k

    @property
    def root_n(self) -> float:
        return math.sqrt(self.n)

    def require_estimated_variance(self) -> int:
        """Residual degrees of freedom, failing fast when sigma_hat does not exist."""
        if self.n <= self.k:
            raise DomainError("estimated-variance operations need n > k")
        return self.n - self.k


def reference_setup(eta: float = 0.05, **overrides) -> ProblemSetup:
    """Default scenario n=40, k=35, xi=1, sigma=1 used by the tables and figures."""
    params = dict(n=40, k=35, xi=1.0, sigma=1.0, eta=eta)
    params.update(overrides)
    return ProblemSetup(**params)


def _full_rank_qr(X: np.ndarray):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DomainError("design matrix must be two-dimensional")
    n, k = X.shape
    if k < 1 or n < k:
        raise DomainError("design matrix needs n >= k >= 1")
    if not np.isfinite(X).all():
        raise DomainError("design matrix must be finite")
    Q, R = np.linalg.qr(X, mode="reduced")
    diag = np.abs(np.diag(R))
    if diag.min() <= max(n, k) * np.finfo(float).eps * max(diag.max(), np.finfo(float).tiny):
        raise DomainError("design matrix is rank-deficient")
    return Q, R


def compute_xi_all(X) -> np.ndarray:
    """xi_i for every component: row norms of R^{-1} scaled by sqrt(n)."""
    X = np.asarray(X, dtype=float)
    _, R = _full_rank_qr(X)
    # R is triangular, so its LU factorization exchanges no rows
    return np.sqrt(X.shape[0] * (np.linalg.inv(R) ** 2).sum(axis=1))


def ls_fit(X, y) -> tuple[np.ndarray, float | None]:
    """Least squares via QR: (coefficients, unbiased sigma_hat^2), the latter
    None when n == k (no residual degrees of freedom)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    Q, R = _full_rank_qr(X)
    n, k = X.shape
    if y.shape != (n,):
        raise DomainError("response length must match the number of rows of X")
    if not np.isfinite(y).all():
        raise DomainError("response must be finite")
    coef = np.linalg.solve(R, Q.T @ y)
    if n > k:
        resid = y - X @ coef
        sigma_hat_sq = float(resid @ resid) / (n - k)
    else:
        sigma_hat_sq = None
    return coef, sigma_hat_sq


def standard_ls_interval(setup: ProblemSetup, mode: VarianceMode, alpha: float) -> float:
    """Half-length of the classical two-sided LS interval at level 1 - alpha,
    in units of c (sigma or sigma_hat), as every interval arm is.

    Known sigma: xi z_{1-alpha/2} / sqrt(n).  Estimated: the multiplier of
    sigma_hat solving the analogous Student-t equation, which reduces to the
    t quantile: xi t_{m,1-alpha/2} / sqrt(n).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if VarianceMode(mode) is VarianceMode.KNOWN:
        quantile = std_normal_quantile(1.0 - 0.5 * alpha)
    else:
        quantile = t_quantile(1.0 - 0.5 * alpha, setup.require_estimated_variance())
    return _scaled(setup.xi, quantile, setup.root_n)


def _scaled(p: float, q: float, r: float) -> float:
    """p q / r; dividing first only where p q overflows keeps ordinary bits."""
    wide = p * q
    return wide / r if wide < math.inf else p * (q / r)
