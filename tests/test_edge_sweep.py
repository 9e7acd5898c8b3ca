"""Extreme parameters end in a value in range or a typed error, silently.

A seeded sweep of every estimator kind over xi in {1e-10, 1, 1e10}, theta in
{0, +-1e-300, +-1e300} and two O(1) values, and m in {1, 5, 995}.  Each
CDF, density and coverage is called with a scalar and with an array
argument, under np.errstate(all="raise") and with every warning an error;
so is the consistent limit law at zeta = theta / (xi eta), for m = n - k
and m = inf.  A call must return finite values in range (a probability in
[0, 1], a density >= 0) or raise DomainError or NumericsError: no overflow,
no invalid operation and no NaN on the way.  The typed errors are listed:
a change that turns a value into an error, or an error into a value,
fails the sweep.
"""

import math
import warnings

import numpy as np
import pytest

from threshcov import (
    ConservativeRegime,
    ConsistentRegime,
    DomainError,
    EstimatorKind,
    IntervalSpec,
    NumericsError,
    ProblemSetup,
    ScalingFactor,
    VarianceMode,
    conservative_limit_cdf,
    consistent_limit_cdf,
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


def check(call, lo, hi, errors, where):
    """call()'s values lie in [lo, hi], or it raises a typed error, which is
    appended to errors with where."""
    try:
        got = np.asarray(call(), dtype=float)
    except (DomainError, NumericsError) as exc:
        errors.append((*where, type(exc).__name__))
        return
    assert np.isfinite(got).all() and (got >= lo).all() and (got <= hi).all(), got


# (law, kind, xi, m, theta, x: its index in xs or "array", error) of every
# typed error.  Hard tilde_density exactly at the dead-zone edges x =
# +-eta sqrt(n) (indices 1 and 2) with theta = +-1e-300 runs out of panels,
# at xi = 1e-10 (eta = 0.060931) and xi = 1e10 (eta = 0.354597), m = 1.
TYPED_ERRORS = {
    1: [],
    2: [("tilde_density", "hard", xi, 1, theta, x, "NumericsError")
        for xi in (1e-10, 1e10) for theta in (1e-300, -1e-300) for x in (1, 2, "array")],
}


@pytest.mark.parametrize("seed", [1, 2])
def test_extremes_give_values_in_range_or_typed_errors(seed):
    errors = []
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for kind, setup, thetas, xs, halves in cells(seed):
            a = ScalingFactor.conservative(setup)
            m = setup.residual_dof
            # the consistent scale 1 / (xi eta): the dead-zone edges at +-1
            unit = setup.root_n * setup.eta
            aux = (1.0, 0.5, None) if kind is EstimatorKind.HARD else None
            for theta in thetas:
                nu = theta / setup.xi * setup.root_n  # on floats, inf where it overflows
                regime = ConservativeRegime(nu=nu, e=setup.eta * setup.root_n, m=m)
                consistent = [ConsistentRegime(zeta=theta / (setup.xi * setup.eta), m=dof,
                                               hard_aux=aux) for dof in (m, math.inf)]
                for i, x in (*enumerate(xs), ("array", np.array(xs))):
                    where = (setup.xi, m, theta, i)
                    check(lambda: tilde_cdf(kind, x, setup, theta, a), 0.0, 1.0, errors,
                          ("tilde_cdf", kind.value, *where))
                    check(lambda: tilde_density(kind, x, setup, theta, a), 0.0, math.inf,
                          errors, ("tilde_density", kind.value, *where))
                    check(lambda: conservative_limit_cdf(kind, x, regime), 0.0, 1.0, errors,
                          ("conservative_limit_cdf", kind.value, *where))
                    for limit in consistent:
                        check(lambda: consistent_limit_cdf(kind, x / unit, limit), 0.0, 1.0,
                              errors, ("consistent_limit_cdf", kind.value, *where))
            for half in halves:
                known = IntervalSpec(half, half)
                estimated = IntervalSpec(half, half, VarianceMode.ESTIMATED)
                for i, theta in (*enumerate(thetas), ("array", np.array(thetas))):
                    where = (setup.xi, m, half, i)
                    check(lambda: known_coverage(kind, theta, 1.0, known, setup), 0.0, 1.0,
                          errors, ("known_coverage", kind.value, *where))
                    check(lambda: unknown_coverage(kind, theta, 1.0, estimated, setup),
                          0.0, 1.0, errors, ("unknown_coverage", kind.value, *where))
    assert errors == TYPED_ERRORS[seed]
