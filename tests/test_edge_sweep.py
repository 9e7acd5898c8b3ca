"""Extreme parameters end in a value in range or a typed error, silently.

A seeded sweep of every estimator kind over xi in {1e-10, 1, 1e10}, theta in
{0, +-1e-300, +-1e300} and two O(1) values, and m in {1, 5, 995}.  Each
CDF, density and coverage is called with a scalar and with an array
argument, under np.errstate(all="raise") and with every warning an error.
A call must return finite values in range (a probability in [0, 1], a
density >= 0) or raise DomainError or NumericsError: no overflow, no
invalid operation and no NaN on the way.
"""

import math
import warnings

import numpy as np
import pytest

from threshcov import (
    ConservativeRegime,
    DomainError,
    EstimatorKind,
    IntervalSpec,
    NumericsError,
    ProblemSetup,
    ScalingFactor,
    VarianceMode,
    conservative_limit_cdf,
    known_coverage,
    tilde_cdf,
    tilde_density,
    unknown_coverage,
)

XIS = (1e-10, 1.0, 1e10)
DOFS = (1, 5, 995)


def cells(seed):
    """(kind, setup, thetas, xs, halves): xs in units of the conservative
    scale a xi = sqrt(n), the hard dead-zone edges among them, and interval
    half-lengths in units of xi, one of them on the dead-zone edge."""
    rng = np.random.default_rng(seed)
    for xi in XIS:
        for m in DOFS:
            eta = float(10.0 ** rng.uniform(-2.0, 1.0))
            setup = ProblemSetup(n=35 + m, k=35, xi=xi, eta=eta)
            thetas = [0.0, 1e-300, -1e-300, 1e300, -1e300, *rng.uniform(-2.0, 2.0, 2)]
            scale = setup.root_n
            xs = [0.0, eta * scale, -eta * scale, 1e200, -1e200,
                  *(scale * rng.uniform(-4.0, 4.0, 2))]
            halves = [eta * xi, float(rng.uniform(0.05, 3.0)) * xi]
            for kind in EstimatorKind:
                yield kind, setup, thetas, xs, halves


def check(call, lo, hi):
    """call()'s values lie in [lo, hi], or it raises a typed error."""
    try:
        got = np.asarray(call(), dtype=float)
    except (DomainError, NumericsError):
        return
    assert np.isfinite(got).all() and (got >= lo).all() and (got <= hi).all(), got


@pytest.mark.parametrize("seed", [1, 2])
def test_extremes_give_values_in_range_or_typed_errors(seed):
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for kind, setup, thetas, xs, halves in cells(seed):
            a = ScalingFactor.conservative(setup)
            for theta in thetas:
                nu = theta / setup.xi * setup.root_n  # on floats, inf where it overflows
                regime = ConservativeRegime(nu=nu, e=setup.eta * setup.root_n,
                                            m=setup.residual_dof)
                for x in (*xs, np.array(xs)):
                    check(lambda: tilde_cdf(kind, x, setup, theta, a), 0.0, 1.0)
                    check(lambda: tilde_density(kind, x, setup, theta, a), 0.0, math.inf)
                    check(lambda: conservative_limit_cdf(kind, x, regime), 0.0, 1.0)
            for half in halves:
                known = IntervalSpec(half, half)
                estimated = IntervalSpec(half, half, VarianceMode.ESTIMATED)
                for theta in (*thetas, np.array(thetas)):
                    check(lambda: known_coverage(kind, theta, 1.0, known, setup), 0.0, 1.0)
                    check(lambda: unknown_coverage(kind, theta, 1.0, estimated, setup),
                          0.0, 1.0)
