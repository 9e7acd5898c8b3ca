"""Shared test helpers: the sign-flip check, analytic-CDF interpolation and
exact KS distance."""

from __future__ import annotations

import numpy as np
from scipy.interpolate import PchipInterpolator

from threshcov import atom_mass, tilde_cdf


def mirror_check(kind, setup, theta_i, alpha, grid) -> float:
    """Maximal deviation of tilde_cdf from the sign-flip relation over grid.

    Flipping the sign of the true component mirrors the error law:
    F_{theta}(x) = 1 - F_{-theta}((-x)^-).  At continuity points of the
    mirrored law this is 1 - F_{-theta}(-x); grid points should avoid the
    atom when theta is zero.
    """
    grid = np.asarray(grid, dtype=float)
    direct = tilde_cdf(kind, grid, setup, theta_i, alpha)
    mirrored = 1.0 - tilde_cdf(kind, -grid, setup, -theta_i, alpha)
    return float(np.max(np.abs(direct - mirrored), initial=0.0))


def analytic_cdf_interpolator(kind, setup, theta_i, alpha, core=(-5.0, 5.0),
                              core_points=1601, tail=60.0):
    """Fast approximation of tilde_cdf built on a kink-aware grid.

    Dense equispaced core plus log-spaced tails, with extra points placed a
    hair on each side of the structural kinks (0 and +-alpha xi eta) so the
    monotone interpolant never smears a corner or the atom.
    """
    a = float(alpha)
    kinks = np.array([0.0, a * setup.xi * setup.eta, -a * setup.xi * setup.eta])
    eps = 1e-9
    pieces = [np.linspace(core[0], core[1], core_points),
              np.geomspace(core[1], tail, 120),
              -np.geomspace(core[1], tail, 120),
              kinks - eps, kinks, kinks + eps]
    xs = np.unique(np.concatenate(pieces))
    values = tilde_cdf(kind, xs, setup, theta_i, a)
    values = np.maximum.accumulate(values)
    interp = PchipInterpolator(xs, values, extrapolate=False)
    lo, hi = xs[0], xs[-1]

    def cdf(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        below = x < lo
        above = x > hi
        mid = ~(below | above)
        out[below] = 0.0
        out[above] = 1.0
        out[mid] = interp(x[mid])
        return out

    return cdf


def ks_distance(draws, cdf, zero_atom: float = 0.0) -> float:
    """Exact Kolmogorov-Smirnov distance between draws and a CDF callable.

    zero_atom is the point mass the CDF carries at 0 (0 for continuous
    laws); left limits at the atom are compared against the empirical CDF's
    left limits, which the textbook formula would otherwise misstate.
    """
    x = np.sort(np.asarray(draws, dtype=float))
    n = x.size
    fx = cdf(x)
    fx_left = fx - zero_atom * (x == 0.0)
    upper = np.arange(1, n + 1) / n - fx
    lower = fx_left - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def direct_known_minimum(kind, spec, setup, known_coverage_fn, golden_fn,
                         grid_points=1001, tol=1e-9):
    """Grid plus golden-section minimum of the known-variance coverage.

    Sweeps both signs of the parameter: for asymmetric intervals the
    infimum can sit on the negative side.
    """
    theta_max = max(spec.a, spec.b) + setup.xi * setup.eta + 10.0 * setup.xi / setup.root_n
    grid = np.linspace(-theta_max, theta_max, 2 * grid_points - 1)
    vals = [known_coverage_fn(kind, float(t), 1.0, spec, setup) for t in grid]
    j = int(np.argmin(vals))
    lo = grid[max(j - 1, 0)]
    hi = grid[min(j + 1, len(grid) - 1)]
    _, refined = golden_fn(lambda t: known_coverage_fn(kind, float(t), 1.0, spec, setup),
                           float(lo), float(hi), tol)
    distant = min(known_coverage_fn(kind, 1e9, 1.0, spec, setup),
                  known_coverage_fn(kind, -1e9, 1.0, spec, setup))
    return min(refined, vals[j], distant)
