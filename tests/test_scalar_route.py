"""Closed forms on Python floats against their array bodies, bit for bit.

Python floats mu, d and t send ``estimators._inverse`` and
``_inverse_slope`` down their float route, and a scalar argument of a
closed-form law (``known_coverage``; ``tilde_cdf``, ``tilde_density`` and
``unknown_coverage`` at theta = 0; the kill term of ``tilde_density``)
takes that route through ``coverage._coverage_core``, on floats, and
through ``finite_sample._scale_free`` and ``_kill_kernel_term``, on numpy
scalars.  A one-element array takes the array bodies.  Both must give the
same float64 bits, compared as ``float.hex``, and neither may warn where
the other does not.
"""

import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from scipy import stats

from threshcov import (
    DomainError,
    EstimatorKind,
    IntervalSpec,
    ProblemSetup,
    ScalingFactor,
    VarianceMode,
    known_coverage,
    tilde_cdf,
    tilde_density,
    unknown_coverage,
)
from threshcov.estimators import _inverse, _inverse_slope

KINDS = list(EstimatorKind)
BIG = sys.float_info.max
# magnitudes at and past the edges of the float route: zero, the smallest
# subnormal, tiny, huge, the largest double and 1.8e308, which is inf
EDGES = (0.0, 5e-324, 1e-300, 0.3, 1.0, 1e300, BIG, 1.8e308)
SIGNED_EDGES = tuple(sorted({sign * v for v in EDGES for sign in (1.0, -1.0)}))


def bits(value) -> str:
    return float(value).hex()


def seeded_triples(seed, count=400):
    """(mu, d, t): log-uniform magnitudes over the whole double range with
    random signs, every fourth with c = mu + d = 0 exactly."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        mu, d = (float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320.0, 308.0))
                 for _ in range(2))
        t = float(10.0 ** rng.uniform(-320.0, 308.0))
        yield mu, (-mu if i % 4 == 0 else d), t


def edge_triples():
    """Every edge for mu and d, the c = 0 tie, mu = +-inf and t = inf."""
    ts = EDGES + (float("inf"),)
    mus = SIGNED_EDGES + (float("-inf"),)
    for mu, d, t in itertools.product(mus, SIGNED_EDGES, ts):
        yield mu, d, t
    for mu, t in itertools.product(mus, ts):
        yield mu, -mu, t


def array_body(func, kind, mu, d, t, *extra):
    # soft's slope is the float 1.0 on either route
    return np.ravel(func(kind, np.array([mu]), np.array([d]), np.array([t]), *extra))[0]


@pytest.mark.parametrize("kind", KINDS)
def test_inverse_float_route_matches_array_body(kind):
    with np.errstate(all="ignore"):  # the array body's own overflow is not checked here
        for mu, d, t in itertools.chain(seeded_triples(1), edge_triples()):
            for closed in (True, False):
                got = _inverse(kind, mu, d, t, closed)
                want = array_body(_inverse, kind, mu, d, t, closed)
                assert bits(got) == bits(want), (kind, mu, d, t, closed)
            got = _inverse_slope(kind, mu, d, t)
            want = array_body(_inverse_slope, kind, mu, d, t)
            assert bits(got) == bits(want), (kind, mu, d, t)


@pytest.mark.parametrize("kind", KINDS)
def test_ordinary_floats_stay_floats(kind):
    """Off the edges the float route never builds an array."""
    for mu, d, t in seeded_triples(2, count=100):
        if max(abs(mu), abs(d), t) < 1e150:  # mu d + t^2 stays finite
            assert type(_inverse(kind, mu, d, t)) is float
            assert type(_inverse(kind, mu, d, t, closed=False)) is float
            assert type(_inverse_slope(kind, mu, d, t)) is float


def public_cases(seed, count=12):
    """(kind, setup, a, xs, theta): xi at 1 or at the scales where arms and
    offsets overflow or underflow, a on either side of xi eta."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kind = KINDS[rng.integers(3)]
        m = int(rng.choice([1, 5, 995]))
        eta = float(10.0 ** rng.uniform(-3.0, 1.0))
        xi = float(rng.choice([1.0, 1.0, 1e-300, 1e300]))
        setup = ProblemSetup(n=35 + m, k=35, xi=xi, eta=eta)
        a = float(xi * eta * rng.uniform(0.2, 3.0))
        kink = xi * eta
        xs = [0.0, kink, -kink, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
              float(rng.uniform(-4.0, 4.0)) * xi]
        theta = float(rng.uniform(-3.0, 3.0)) * xi
        yield kind, setup, a, xs, theta


def same_as_one_element_array(call, arg):
    """call(arg) is a float with the bits of call([arg])[0], or both raise
    the same DomainError."""
    try:
        got = call(arg)
        assert type(got) is float
        got = bits(got)
    except DomainError as exc:
        got = repr(exc)
    try:
        want = bits(call(np.array([arg]))[0])
    except DomainError as exc:
        want = repr(exc)
    assert got == want, arg


@pytest.mark.parametrize("seed", [1, 2])
def test_known_coverage(seed):
    for kind, setup, a, _, theta in public_cases(seed):
        for b in (a, 0.5 * a, 0.0):
            spec = IntervalSpec(a, b)
            for th in (theta, 0.0, 5e-324, -1e-300, 1e300, -BIG):
                same_as_one_element_array(
                    lambda t: known_coverage(kind, t, 1.0, spec, setup), th)


@pytest.mark.parametrize("seed", [1, 2])
def test_theta_zero_laws(seed):
    for kind, setup, a, xs, _ in public_cases(seed):
        alpha = ScalingFactor.conservative(setup)
        for x in xs:
            same_as_one_element_array(lambda x: tilde_cdf(kind, x, setup, 0.0, alpha), x)
            same_as_one_element_array(lambda x: tilde_density(kind, x, setup, 0.0, alpha), x)
        spec = IntervalSpec(a, a, VarianceMode.ESTIMATED)
        same_as_one_element_array(
            lambda t: unknown_coverage(kind, t, 1.0, spec, setup), 0.0)


@pytest.mark.parametrize("seed", [1, 2])
def test_kill_term_side(seed):
    """theta != 0, x on the side opposite to theta, where the kill term
    carries density: tiny x (x * x underflows to 0 or to a subnormal; at
    theta = 1e-160 and 1e-170 the kill term is not 0 there), ordinary and
    huge x."""
    for kind, setup, _, _, theta in public_cases(seed, count=6):
        alpha = ScalingFactor.conservative(setup)
        for th in (theta, 1e-160, 1e-170, -5e-324):
            side = -1.0 if th > 0.0 else 1.0
            for size in (1e-200, 1e-170, 1e-160, 1e-10, 0.05, 0.7, 3.0, 1e300):
                x = side * min(size * setup.xi, BIG)
                same_as_one_element_array(
                    lambda x: tilde_density(kind, x, setup, th, alpha), x)


@pytest.mark.parametrize("kind", KINDS)
def test_infinite_mu_laws(kind):
    """theta / xi overflows, so the laws in x take the closed form at mu =
    +-inf, T_m(rn g1) with g1 = d for hard and adaptive soft and d +- eta
    for soft.  At x = +-1e300, x / (alpha xi) = d overflows too (against
    theta's sign, c = mu + d is NaN): every kind's CDF is 0 or 1 there and
    its density 0."""
    setup = ProblemSetup(n=40, k=35, xi=1e-300)
    m, rn = setup.residual_dof, setup.root_n
    for theta in (1e300, -1e300):
        shift = math.copysign(setup.eta, theta) if kind is EstimatorKind.SOFT else 0.0
        cdf = lambda x: tilde_cdf(kind, x, setup, theta, 1.0)
        density = lambda x: tilde_density(kind, x, setup, theta, 1.0)
        for x in (0.0, 5e-324, 1e-300, -0.7e-300, 1e300, -1e300):
            same_as_one_element_array(cdf, x)
            same_as_one_element_array(density, x)
            arg = rn * (x / setup.xi + shift)
            assert cdf(x) == pytest.approx(stats.t.cdf(arg, m), rel=1e-12, abs=0.0)
            want = rn * stats.t.pdf(arg, m) / setup.xi
            assert density(x) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_underflowing_scale_laws(kind):
    """alpha xi underflows to 0: both routes give the law's limit as the
    scale vanishes, with no exception and no warning.  Off x = 0 that is
    the law at x / (alpha xi) = +-inf, the same bits as at the smallest
    scale 5e-324, where the quotient overflows; at x = 0 the CDF is the
    same as there, and the density is inf where it is positive at scale 1
    (0 at theta = 0, the atom).  At x = -1, 0 and 1 the density at scale
    5e-324, where 1 / scale overflows, has the same bits too."""
    setup = ProblemSetup(n=40, k=35, xi=1e-200)
    for theta in (0.0, 0.3, -0.3, 1e-300):
        for x in (1.0, -1.0, 0.0, -0.0, 1e-300, -5e-324):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for law in (tilde_cdf, tilde_density):
                    lone = law(kind, x, setup, theta, 1e-200)
                    assert type(lone) is float
                    assert bits(lone) == bits(law(kind, np.array([x]), setup, theta,
                                                  1e-200)[0])
                    if x == 0.0 or abs(x) >= 1.0:
                        smallest = lambda x: law(kind, x, setup, theta, 5e-124)
                        same_as_one_element_array(smallest, x)
                        assert bits(lone) == bits(smallest(x))
                    if law is tilde_density:
                        # f(0) / scale, with f(0) the density at scale 1
                        grows = x == 0.0 and law(kind, x, setup, theta, 1e200) > 0.0
                        assert lone == (math.inf if grows else 0.0)
                    elif x:
                        assert abs(lone - (x > 0.0)) <= 1e-11
