"""Exact finite-sample law of the scaled thresholding error.

The object of study is ``alpha * (estimate_i - theta_i) / sigma_hat`` for one
watched component.  Conditionally on ``s = sigma_hat / sigma`` the error is a
deterministic transform of a Gaussian, so CDF and density are mixtures over
the density ``rho_m`` of s.  The mixture integrals are piecewise smooth in s
with analytically known switch points; those are declared to the adaptive
quadrature as panel breakpoints.  At theta = 0 every offset of the inverse
map is s times its value g1 at s = 1, so the mixture is the Student-t law
T_m(sqrt(n) g1) and needs no quadrature (``_scale_free``, the CDF and its
density); the same holds where no threshold binds and where mu = theta /
(sigma xi) is infinite.  One routine, ``_mixture``, integrates every other
such law, the estimated-variance coverage at theta != 0 (at theta = 0 it
is ``coverage._coverage_core`` under T_m) and the conservative limit law,
which is this mixture at rn = 1.  ``_error_law`` gives every CDF and
density by one of these two routes, and ``special._each`` states the
argument contract of every public law.

The law is mixed: when the true component is zero it has an atom at zero
(the probability of thresholding to zero) plus an absolutely continuous
part; when it is nonzero the atom moves onto the continuous scale through
sigma_hat and becomes a density term carried by the rho_m kernel, supported
on the half-line opposite in sign to the true component.
"""

from __future__ import annotations

import math

import numpy as np

from .estimators import _SMALLEST_NORMAL, EstimatorKind, _inverse, _inverse_slope, _switch_points
from .model import ProblemSetup
from .special import (
    _RHO_TAIL_MASS,
    DomainError,
    _clamp_unit,
    _each,
    _nan_checked,
    _rho_pdf,
    _rho_quantiles,
    _rho_upper,
    _rho_upper_weighted,
    _saturating,
    _std_normal_cdf,
    _std_normal_pdf,
    _t_cdf,
    _t_pdf,
    integrate_halfline,
    t_cdf,
)

__all__ = [
    "ScalingFactor",
    "atom_mass",
    "tilde_cdf",
    "tilde_density",
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


def atom_mass(setup: ProblemSetup) -> float:
    """Mass at zero when the true component is zero.

    Equals T_m(sqrt(n) eta) - T_m(-sqrt(n) eta) for every estimator kind:
    the event is |LS estimate| <= sigma_hat xi eta regardless of how the
    survivors are shrunk.
    """
    m = setup.require_estimated_variance()
    arg = setup.root_n * setup.eta
    return float(t_cdf(arg, m) - t_cdf(-arg, m))


def _mixture(kind, mu, slopes, eta, m, term, weighted=False):
    """(value, bound) of the integral of term(s, v) rho_m(s) over s =
    sigma_hat / sigma, one per problem: a law given s, mixed over s.

    mu is a float with one slope per problem (laws in x), or one value per
    problem with slope columns all problems share (coverage arms); v is the
    one that varies, gathered onto a batch's nodes by their rows.  A lone
    problem runs on floats, given as floats (a tuple of slope columns) or as
    one-element arrays, and gets its result in the same form.  Each problem
    declares the switch points of _inverse at every slope column, and rho_m's
    quantiles (_rho_quantiles) as panel breakpoints, so the first round
    already resolves rho_m's bulk and lower tail.  The quadrature stops at
    the s_max beyond which rho_m's mass is _RHO_TAIL_MASS; weighted=True
    (for densities, whose term grows like s) stops where E[s; s > s_max] is.
    """
    upper = (_rho_upper_weighted if weighted else _rho_upper)(m, _RHO_TAIL_MASS)
    if isinstance(slopes, np.ndarray):
        mu = np.asarray(mu, dtype=float)
        varying = mu if mu.ndim else slopes
        if varying.size == 1:
            lone = (mu[0], tuple(slopes)) if mu.ndim else (mu, slopes[0])
            return tuple(np.array([r]) for r in _mixture(kind, *lone, eta, m, term, weighted))
        switches = _switch_points(kind, mu[..., None], slopes, eta).reshape(len(varying), -1)
        quantiles = _rho_quantiles(m)
        seeds = np.broadcast_to(quantiles, (len(varying), quantiles.size))

        def f(nodes):
            s, rows = nodes
            return term(s, varying[rows]) * _rho_pdf(s, m)

        return integrate_halfline(f, np.concatenate([switches, seeds], axis=1), upper=upper)
    mu, eta, shared = float(mu), float(eta), isinstance(slopes, tuple)
    columns = tuple(map(float, slopes)) if shared else (float(slopes),)
    v = mu if shared else columns[0]  # nodes lie in (0, upper): rho_m unchecked
    points = [p for slope in columns for p in _switch_points(kind, mu, slope, eta)]
    return integrate_halfline(lambda s: term(s, v) * _rho_pdf(s, m),
                              points + _rho_quantiles(m).tolist(), upper=upper)


def _scale_free(kind, x, scale, t, rn, m, closed=True, density=False, mu=0.0):
    """T_m(rn g1), g1 = _inverse(kind, mu, x / scale, t): the mixture over s
    where every offset is s g1, as at mu = 0 and mu = +-inf.  density=True
    gives its x-derivative rn g' t_m(rn g1) / scale, 0 where t_m underflows
    (g' is finite).  A NaN rn g1 raises DomainError, as t_cdf does."""
    d = x / scale
    if not (d.all() if isinstance(d, np.ndarray) else d):  # keep x != 0 off the atom
        d = np.where((d == 0.0) & (x != 0.0), np.copysign(math.ulp(0.0), x), d)
    arg = _nan_checked(rn * _inverse(kind, mu, d, t, closed), "t CDF")
    if not density:
        return _t_cdf(m, arg)
    return rn * _inverse_slope(kind, mu, d, t) * _t_pdf(arg, m) / scale


def _error_law(kind, x, theta, xi, scale, eta, rn, m, density=False):
    """(values, bounds) at the finite x (array or float) of the law of scale
    (kernel(W, eta s) - mu) / s, W ~ N(mu, 1 / rn^2), mu = theta / xi with
    theta in units of sigma, s ~ rho_m: its CDF, or with density=True the
    density of its continuous part without the kill term.  Two routes,
    taken on theta rather than on a mu that may underflow.  Where every
    offset scales with s, the law is the closed form _scale_free: at mu =
    +-inf (theta infinite, or overflowing against xi); at eta = 0, where
    the law does not depend on mu and is taken at mu = +-inf, where every
    kind's offset is d (at mu = 0, adaptive soft's offset is 0/0 for d =
    -5e-324); and at any other theta = 0.  Anything else is one rho_m
    mixture.  Where scale = alpha xi underflows to 0, the law is its limit
    as the scale vanishes: x / scale is +-inf off x = 0, and at x = 0 the
    CDF does not depend on the scale while a positive density grows past
    every bound (inf).  A lone x gives a float or a 0-d array."""
    if scale == 0.0:
        far = np.where(x == 0.0, x, np.copysign(math.inf, x))[()]
        values, bounds = _error_law(kind, far, theta, xi, 1.0, eta, rn, m, density)
        return np.where(density & (x == 0.0) & (values > 0.0), math.inf, values), bounds
    mu = float(theta) / xi  # inf where it overflows, silently on floats
    if theta == 0.0 or eta == 0.0 or math.isinf(mu):
        mu = 0.0 if theta == 0.0 and eta != 0.0 else math.copysign(math.inf, mu)
        return _scale_free(kind, x, scale, eta, rn, m, density=density, mu=mu), 0.0
    # where 1 / scale overflows, the term's inf * 0 is NaN: divide the mixture by scale
    tiny = density and math.isinf(1.0 / scale)
    if density:
        dslope = 1.0 if tiny else 1.0 / scale
        floor = abs(mu) * 2.0 ** -1000  # keeps mu / s finite

        def term(s, slope):
            d, t = slope * s, eta * s
            # hard's |mu + d| > t flips with rounding along s where slope and
            # eta are one value to the last bits; divided by s it is monotone
            gain = (_inverse_slope(kind, mu / np.maximum(s, floor), slope, eta)
                    if kind is EstimatorKind.HARD else _inverse_slope(kind, mu, d, t))
            return rn * s * dslope * gain * _std_normal_pdf(rn * _inverse(kind, mu, d, t))
    else:
        def term(s, slope):
            return _std_normal_cdf(rn * _inverse(kind, mu, slope * s, eta * s))

    values, bounds = _mixture(kind, mu, x / scale, eta, m, term, weighted=density)
    return (values / scale, bounds / scale) if tiny else (values, bounds)


@_saturating
def tilde_cdf(kind, x, setup: ProblemSetup, theta_i: float, alpha):
    """CDF of alpha (estimate_i - theta_i) / sigma_hat at x.

    x may be an array: every finite element is one problem of a single
    batched quadrature, and the result has x's shape.  A scalar x gives a
    float.  theta_i must be finite.
    """
    kind = EstimatorKind(kind)
    a = ScalingFactor(alpha)
    if not math.isfinite(theta_i):
        raise DomainError("theta must be finite")
    m = setup.require_estimated_variance()
    q = float(theta_i) / setup.sigma  # inf where it overflows, silently
    return _clamp_unit(*_each(x, lambda xs: _error_law(kind, xs, q, setup.xi, a * setup.xi,
                                                       setup.eta, setup.root_n, m),
                              "CDF argument", cdf=True), "tilde_cdf")


def _kill_kernel_term(x, q: float, setup: ProblemSetup, a: float):
    """Density contribution of the thresholded-to-zero event when theta != 0.

    The zero estimate maps to error -a q / s, a smooth function of s, so the
    event's mass spreads into a density carried by rho_m on the half-line
    opposite in sign to the true component.  Identical for all kinds.
    """
    x = np.float64(x)  # a lone x runs as a numpy scalar, an array as itself
    side = -math.copysign(1.0, q) * x > 0.0
    if not np.count_nonzero(side):
        return 0.0
    # as x -> 0 the Jacobian a |q| / x^2 overflows where rho has underflowed
    # to 0; the product tends to 0 there.  Where x * x itself underflows
    # (theta tiny enough that rho is still positive), the same Jacobian is
    # written s^2 / (a |q|), which stays finite.  Off the side rho is NaN,
    # and where a |q| underflows to 0, so does s, and rho is 0 or NaN there
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s_at_x = -a * q / x
        gamma = setup.root_n * q / setup.xi
        shift = a * setup.xi * setup.eta / x
        band = (_std_normal_cdf(-gamma * (1.0 + shift))
                - _std_normal_cdf(-gamma * (1.0 - shift)))
        rho = _rho_pdf(s_at_x, setup.residual_dof)
        x_sq = x * x
        jacobian = np.where(x_sq >= _SMALLEST_NORMAL, a * abs(q) / x_sq,
                            s_at_x * s_at_x / (a * abs(q)))
        out = np.where(side & (rho > 0.0), jacobian * rho * band, 0.0)
    return out if out.ndim else float(out)


@_saturating
def tilde_density(kind, x, setup: ProblemSetup, theta_i: float, alpha):
    """Density of the absolutely continuous part at x (atom reported separately).

    x may be an array, integrated as one batch; a scalar x gives a float.
    theta_i must be finite.
    """
    kind = EstimatorKind(kind)
    a = ScalingFactor(alpha)
    if not math.isfinite(theta_i):
        raise DomainError("theta must be finite")
    m = setup.require_estimated_variance()
    q = float(theta_i) / setup.sigma  # inf where it overflows, silently

    def law(xs):
        out, _ = _error_law(kind, xs, q, setup.xi, a * setup.xi, setup.eta, setup.root_n, m,
                            density=True)
        if q == 0.0:  # the atom at x = 0 carries no density
            return np.where(xs != 0.0, out, 0.0), 0.0
        return np.maximum(0.0, out + _kill_kernel_term(xs, q, setup, a)), 0.0

    return _each(x, law, "density argument")[0]


def density_grid(kind, setup: ProblemSetup, theta_i: float, alpha):
    """Equally spaced density evaluations plus the atom mass.

    Returns (x values, density values, atom mass) on the 801-point grid on
    [-4, 4], the resolution used by the plotting commands.
    """
    kind = EstimatorKind(kind)
    a = ScalingFactor(alpha)
    xs = np.linspace(-4.0, 4.0, 801)
    dens = tilde_density(kind, xs, setup, theta_i, a)
    mass = atom_mass(setup) if theta_i == 0.0 else 0.0
    return xs, dens, mass
