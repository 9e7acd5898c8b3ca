"""Exact finite-sample law of the scaled thresholding error.

The object of study is ``alpha * (estimate_i - theta_i) / sigma_hat`` for one
watched component.  Conditionally on ``s = sigma_hat / sigma`` the error is a
deterministic transform of a Gaussian, so CDF and density are mixtures over
the density ``rho_m`` of s.  The mixture integrals are piecewise smooth in s
with analytically known switch points; those are declared to the adaptive
quadrature as panel breakpoints.

The law is mixed: when the true component is zero it has an atom at zero
(the probability of thresholding to zero) plus an absolutely continuous
part; when it is nonzero the atom moves onto the continuous scale through
sigma_hat and becomes a density term carried by the rho_m kernel, supported
on the half-line opposite in sign to the true component.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .estimators import EstimatorKind
from .model import ProblemSetup
from .special import (
    DEFAULT_QUADRATURE,
    DomainError,
    QuadratureConfig,
    _clamp_unit,
    _per_node,
    integrate_halfline,
    rho_density,
    rho_upper_limit,
    std_normal_cdf,
    std_normal_pdf,
    t_cdf,
)

__all__ = [
    "ScalingFactor",
    "MixedDistribution",
    "atom_mass",
    "tilde_cdf",
    "tilde_density",
    "tilde_distribution",
    "mirror_check",
    "density_grid",
]


class ScalingFactor(float):
    """Positive scaling applied to the estimation error.

    Two canonical choices: ``conservative(setup) = sqrt(n) / xi`` keeps the
    error on the sampling scale of the LS estimator, ``consistent(setup) =
    1 / (xi eta)`` tracks the threshold scale instead.
    """

    def __new__(cls, value):
        value = float(value)
        if not (value > 0.0 and math.isfinite(value)):
            raise DomainError("scaling factor must be positive and finite")
        return super().__new__(cls, value)

    @classmethod
    def conservative(cls, setup: ProblemSetup) -> "ScalingFactor":
        return cls(setup.root_n / setup.xi)

    @classmethod
    def consistent(cls, setup: ProblemSetup) -> "ScalingFactor":
        return cls(1.0 / (setup.xi * setup.eta))


def _as_scaling(alpha) -> float:
    a = float(alpha)
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError("scaling factor must be positive and finite")
    return a


def _stable_z_pair(u, v, q, a, xi, rn):
    """Roots z1 <= z2 of the adaptive-soft inversion, cancellation-safe.

    z = A -+ B with A = 0.5 rn (u/a - q) / xi and
    B = rn hypot(0.5 (u/a + q) / xi, v).  Where A and B nearly cancel, the
    product identity z1 z2 = -rn^2 ((u/a) q / xi^2 + v^2) supplies the
    small-magnitude root without subtractive loss.
    """
    diff = 0.5 * (u / a - q) / xi
    mean = 0.5 * (u / a + q) / xi
    big_a = rn * diff
    big_b = rn * np.hypot(mean, v)
    prod = rn * rn * ((u / a) * q / (xi * xi) + v * v)
    with np.errstate(divide="ignore", invalid="ignore"):
        z2 = np.where(big_a >= 0.0, big_a + big_b, prod / (big_b - big_a))
        z1 = np.where(big_a <= 0.0, big_a - big_b, -prod / (big_a + big_b))
    return z1, z2


def _shrink_fraction(u, v, q, a, xi):
    """The ratio 0.5 (u/a + q) / xi over hypot of itself with v; in [-1, 1]."""
    mean = 0.5 * (u / a + q) / xi
    denom = np.hypot(mean, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(denom > 0.0, mean / np.where(denom > 0.0, denom, 1.0), 0.0)
    return frac


def _switch_points(kind: EstimatorKind, x: np.ndarray, q: float, a: float,
                   xi: float, eta: float) -> np.ndarray:
    """s-values where the conditional-branch indicators switch, one row per
    x; candidates that are not positive and finite are left for the
    quadrature to drop."""
    nums, dens = [-q * a], [x]
    if kind is EstimatorKind.HARD:
        xa = x / a
        nums += [-q, -q]
        dens += [xa - xi * eta, xa + xi * eta]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (np.array(nums)[:, None] / np.array(dens)).T


def atom_mass(setup: ProblemSetup) -> float:
    """Mass at zero when the true component is zero.

    Equals T_m(sqrt(n) eta) - T_m(-sqrt(n) eta) for every estimator kind:
    the event is |LS estimate| <= sigma_hat xi eta regardless of how the
    survivors are shrunk.
    """
    m = setup.require_estimated_variance()
    arg = setup.root_n * setup.eta
    return float(t_cdf(arg, m) - t_cdf(-arg, m))


def _cdf_integrand(kind: EstimatorKind, xs: np.ndarray, q: float,
                   setup: ProblemSetup, a: float) -> Callable:
    xi = setup.xi
    eta = setup.eta
    rn = setup.root_n
    m = setup.residual_dof

    def f(nodes):
        s, x = _per_node(nodes, xs)
        rho = rho_density(s, m)
        c = x * s / a + q
        if kind is EstimatorKind.HARD:
            lim = xi * eta * s
            first = np.abs(c) > lim
            second = (~first) & (c >= 0.0)
            vals = np.where(first, std_normal_cdf(rn * x / (a * xi) * s), 0.0)
            vals = np.where(second, std_normal_cdf(rn * (-q / xi + eta * s)), vals)
            third = ~(first | second)
            vals = np.where(third, std_normal_cdf(rn * (-q / xi - eta * s)), vals)
        elif kind is EstimatorKind.SOFT:
            vals = np.where(c >= 0.0,
                            std_normal_cdf(rn * s * (x / (a * xi) + eta)),
                            std_normal_cdf(rn * s * (x / (a * xi) - eta)))
        else:
            z1, z2 = _stable_z_pair(x * s, eta * s, q, a, xi, rn)
            vals = np.where(c >= 0.0, std_normal_cdf(z2), std_normal_cdf(z1))
        return vals * rho

    return f


def tilde_cdf(kind, x, setup: ProblemSetup, theta_i: float, alpha,
              cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """CDF of alpha (estimate_i - theta_i) / sigma_hat at x.

    x may be an array: every finite element is one problem of a single
    batched quadrature, and the result has x's shape.  A scalar x gives a
    float.
    """
    kind = EstimatorKind(kind)
    a = _as_scaling(alpha)
    setup.require_estimated_variance()
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise DomainError("CDF argument must not be NaN")
    out = np.array(x > 0.0, dtype=float)
    bound = np.zeros(x.shape)
    finite = np.isfinite(x)
    xs = x[finite]
    if xs.size:
        q = theta_i / setup.sigma
        upper = rho_upper_limit(setup.residual_dof, cfg.tail_mass_tol)
        out[finite], bound[finite] = integrate_halfline(
            _cdf_integrand(kind, xs, q, setup, a),
            _switch_points(kind, xs, q, a, setup.xi, setup.eta),
            upper=upper, cfg=cfg, with_bound=True)
    return _clamp_unit(out, bound, "tilde_cdf")


def _density_integrand(kind: EstimatorKind, xs: np.ndarray, q: float,
                       setup: ProblemSetup, a: float) -> Callable:
    xi = setup.xi
    eta = setup.eta
    rn = setup.root_n
    m = setup.residual_dof

    def f(nodes):
        s, x = _per_node(nodes, xs)
        rho = rho_density(s, m)
        scale = rn * s / (a * xi)
        c = x * s / a + q
        if kind is EstimatorKind.HARD:
            keep = np.abs(c) > xi * eta * s
            vals = np.where(keep, scale * std_normal_pdf(rn * x / (a * xi) * s), 0.0)
        elif kind is EstimatorKind.SOFT:
            vals = scale * np.where(
                c >= 0.0,
                std_normal_pdf(rn * s * (x / (a * xi) + eta)),
                std_normal_pdf(rn * s * (x / (a * xi) - eta)))
        else:
            z1, z2 = _stable_z_pair(x * s, eta * s, q, a, xi, rn)
            frac = _shrink_fraction(x * s, eta * s, q, a, xi)
            vals = 0.5 * scale * np.where(
                c >= 0.0,
                std_normal_pdf(z2) * (1.0 + frac),
                std_normal_pdf(z1) * (1.0 - frac))
        return vals * rho

    return f


def _kill_kernel_term(x: np.ndarray, q: float, setup: ProblemSetup,
                      a: float) -> np.ndarray:
    """Density contribution of the thresholded-to-zero event when theta != 0.

    The zero estimate maps to error -a q / s, a smooth function of s, so the
    event's mass spreads into a density carried by rho_m on the half-line
    opposite in sign to the true component.  Identical for all kinds.
    """
    term = np.zeros(x.shape)
    side = -math.copysign(1.0, q) * x > 0.0
    if not side.any():
        return term
    x = x[side]
    # as x -> 0 the Jacobian a |q| / x^2 overflows where rho has underflowed
    # to 0; the product tends to 0 there.  Where x * x itself underflows
    # (theta tiny enough that rho is still positive), the same Jacobian is
    # written s^2 / (a |q|), which stays finite.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s_at_x = -a * q / x
        gamma = setup.root_n * q / setup.xi
        shift = a * setup.xi * setup.eta / x
        band = (std_normal_cdf(-gamma * (1.0 + shift))
                - std_normal_cdf(-gamma * (1.0 - shift)))
        rho = rho_density(s_at_x, setup.residual_dof)
        x_sq = x * x
        jacobian = np.where(x_sq >= np.finfo(float).tiny, a * abs(q) / x_sq,
                            s_at_x * s_at_x / (a * abs(q)))
        term[side] = np.where(rho > 0.0, jacobian * rho * band, 0.0)
    return term


def tilde_density(kind, x, setup: ProblemSetup, theta_i: float, alpha,
                  cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Density of the absolutely continuous part at x (atom reported separately).

    x may be an array, integrated as one batch; a scalar x gives a float.
    """
    kind = EstimatorKind(kind)
    a = _as_scaling(alpha)
    setup.require_estimated_variance()
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise DomainError("density argument must be finite")
    q = theta_i / setup.sigma
    out = np.zeros(x.shape)
    live = np.ones(x.shape, dtype=bool)
    if q == 0.0:
        # at the atom, and inside the hard dead zone, there is no density
        live = x != 0.0
        if kind is EstimatorKind.HARD:
            live &= np.abs(x) > a * setup.xi * setup.eta
    xs = x[live]
    if xs.size:
        upper = rho_upper_limit(setup.residual_dof, cfg.tail_mass_tol)
        value = integrate_halfline(
            _density_integrand(kind, xs, q, setup, a),
            _switch_points(kind, xs, q, a, setup.xi, setup.eta),
            upper=upper, cfg=cfg)
        if q != 0.0:
            value += _kill_kernel_term(xs, q, setup, a)
        out[live] = np.maximum(0.0, value)
    return float(out) if out.ndim == 0 else out


@dataclasses.dataclass(frozen=True)
class MixedDistribution:
    """A distribution with a single possible atom at zero plus a density.

    atom_mass is zero when the law is absolutely continuous.  cdf is the
    full CDF (atom included); density describes only the continuous part.
    """

    atom_mass: float
    cdf: Callable[[float], float]
    density: Callable[[float], float]

    def __post_init__(self):
        if not -1e-12 <= self.atom_mass <= 1.0 + 1e-12:
            raise DomainError("atom mass must lie in [0, 1]")


def tilde_distribution(kind, setup: ProblemSetup, theta_i: float, alpha,
                       cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> MixedDistribution:
    """Bundle atom, CDF, and density of the scaled error law."""
    kind = EstimatorKind(kind)
    a = _as_scaling(alpha)
    mass = atom_mass(setup) if theta_i == 0.0 else 0.0
    return MixedDistribution(
        atom_mass=mass,
        cdf=lambda x: tilde_cdf(kind, x, setup, theta_i, a, cfg),
        density=lambda x: tilde_density(kind, x, setup, theta_i, a, cfg))


def mirror_check(kind, setup: ProblemSetup, theta_i: float, alpha, grid,
                 cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Maximal deviation from the sign-flip relation over the grid.

    Flipping the sign of the true component mirrors the error law:
    F_{theta}(x) = 1 - F_{-theta}((-x)^-).  At continuity points of the
    mirrored law this is 1 - F_{-theta}(-x); grid points should avoid the
    atom when theta is zero.
    """
    kind = EstimatorKind(kind)
    a = _as_scaling(alpha)
    grid = np.asarray(grid, dtype=float)
    direct = tilde_cdf(kind, grid, setup, theta_i, a, cfg)
    mirrored = 1.0 - tilde_cdf(kind, -grid, setup, -theta_i, a, cfg)
    return float(np.max(np.abs(direct - mirrored), initial=0.0))


def density_grid(kind, setup: ProblemSetup, theta_i: float, alpha,
                 lo: float = -4.0, hi: float = 4.0, count: int = 801,
                 cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Equally spaced density evaluations plus the atom mass.

    Returns (x values, density values, atom mass); the default 801-point
    grid on [-4, 4] is the resolution used by the plotting commands.
    """
    kind = EstimatorKind(kind)
    a = _as_scaling(alpha)
    if not lo < hi:
        raise DomainError("grid needs lo < hi")
    if count < 2:
        raise DomainError("grid needs at least 2 points")
    xs = np.linspace(lo, hi, count)
    dens = tilde_density(kind, xs, setup, theta_i, a, cfg)
    mass = atom_mass(setup) if theta_i == 0.0 else 0.0
    return xs, dens, mass
