"""The closed-form laws at theta = 0 against the quadrature they replace.

At theta = 0 every offset of the inverse thresholding map scales with
s = sigma_hat / sigma, so the CDF, the density and the estimated-variance
coverage are Student-t expressions.  Each is checked against the adaptive
quadrature of the integrand it replaces, written out here as a reference
independent of the library's mixture routine, within the returned error bound
plus twice the rho_m tail mass the quadrature discards.  The density
integrand is rn s dslope g' phi rho_m(s) <= s rho_m(s) under the
conservative scaling, so its discarded tail is at most about s_max times
that mass.

The reference quadrature runs to tighter tolerances than the default ones,
so its small bound makes the stricter check.  ``TestHonestBound`` checks the
library's own mixture at the default targets: every error within the bound
it returns.  Before rho_m's quantiles seeded the first panels, a narrow peak
in s could slip past both rules of the default rounds (soft, m = 5, eta = 7
at the dead-zone edge: a bound of 1.1e-11 against an error of 8.2e-11, with
the closed form matching scipy's quad to 14 digits).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshcov import (
    ConservativeRegime,
    EstimatorKind,
    IntervalSpec,
    ProblemSetup,
    QuadratureConfig,
    ScalingFactor,
    VarianceMode,
    conservative_limit_cdf,
    rho_density,
    std_normal_cdf,
    std_normal_pdf,
    t_cdf,
    tilde_cdf,
    tilde_density,
    unknown_coverage,
)
from threshcov.coverage import _coverage_core
from threshcov.estimators import _inverse, _inverse_slope, _switch_points
from threshcov.finite_sample import _mixture, _scale_free
from threshcov.special import _RHO_TAIL_MASS, integrate_halfline, rho_upper_limit

KINDS = list(EstimatorKind)
TAIL = _RHO_TAIL_MASS
REFERENCE = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12)

# x as a label resolved against the cell's dead-zone edge a xi eta, or a float
positions = st.one_of(
    st.sampled_from(["0", "+edge", "-edge", 4.0, -4.0, 3.999999, -4.000001]),
    st.floats(-4.5, 4.5, allow_nan=False))


def cell(m: int, eta: float) -> ProblemSetup:
    return ProblemSetup(n=35 + m, k=35, eta=eta)


def resolve(x, edge: float) -> float:
    return {"0": 0.0, "+edge": edge, "-edge": -edge}.get(x, x)


def cdf_integrand(kind, mu, slope, eta, rn, m):
    """Phi(rn offset) rho_m(s): P(kernel(W, eta s) <= mu + slope s) for
    W ~ N(mu, 1/rn^2), weighted by the density of s."""
    return lambda s: (std_normal_cdf(rn * _inverse(kind, mu, slope * s, eta * s))
                      * rho_density(s, m))


def density_integrand(kind, mu, slope, eta, rn, m, dslope):
    """x-derivative of cdf_integrand, where slope = x dslope:
    rn s dslope g' phi(rn offset) rho_m(s)."""

    def f(s):
        d, t = slope * s, eta * s
        return (rn * s * dslope * _inverse_slope(kind, mu, d, t)
                * std_normal_pdf(rn * _inverse(kind, mu, d, t)) * rho_density(s, m))

    return f


def quadrature(integrand, kind, mu, slope, eta, m):
    """(value, bound) of the integrand over s for one slope, with the
    breakpoints the quadrature path declares, at the reference tolerances."""
    return integrate_halfline(
        integrand, _switch_points(kind, mu, np.array([slope]), eta).ravel(),
        upper=rho_upper_limit(m, TAIL), cfg=REFERENCE)


def agree(got: float, want: float, bound: float, tail_weight: float = 1.0) -> bool:
    return abs(got - want) <= bound + 2.0 * TAIL * tail_weight


class TestAgainstQuadrature:
    @given(kind=st.sampled_from(KINDS), m=st.sampled_from([1, 5, 995]),
           eta=st.floats(1e-3, 10.0), x=positions, theta=st.sampled_from([0.0, -0.0]))
    @settings(deadline=None, max_examples=150, derandomize=True)
    def test_cdf(self, kind, m, eta, x, theta):
        setup = cell(m, eta)
        a = ScalingFactor.conservative(setup)
        x = resolve(x, a * setup.xi * eta)
        mu = theta / (setup.sigma * setup.xi)
        slope = x / (a * setup.xi)
        want, bound = quadrature(
            cdf_integrand(kind, mu, slope, eta, setup.root_n, m),
            kind, mu, slope, eta, m)
        got = tilde_cdf(kind, x, setup, theta, a)
        assert agree(got, want, bound), (got, want, bound)

    @given(kind=st.sampled_from(KINDS), m=st.sampled_from([1, 5, 995]),
           eta=st.floats(1e-3, 10.0), x=positions, theta=st.sampled_from([0.0, -0.0]))
    @settings(deadline=None, max_examples=150, derandomize=True)
    def test_density(self, kind, m, eta, x, theta):
        setup = cell(m, eta)
        a = ScalingFactor.conservative(setup)
        edge = a * setup.xi * eta
        x = resolve(x, edge)
        got = tilde_density(kind, x, setup, theta, a)
        if x == 0.0 or (kind is EstimatorKind.HARD and abs(x) <= edge):
            # the atom and the hard dead zone carry no density
            assert got == 0.0
            return
        mu = theta / (setup.sigma * setup.xi)
        slope = x / (a * setup.xi)
        want, bound = quadrature(
            density_integrand(kind, mu, slope, eta, setup.root_n, m,
                              1.0 / (a * setup.xi)),
            kind, mu, slope, eta, m)
        assert agree(got, want, bound, rho_upper_limit(m, TAIL)), (got, want, bound)

    @given(kind=st.sampled_from(KINDS), m=st.sampled_from([1, 5, 995]),
           eta=st.floats(1e-3, 10.0), half=st.floats(0.0, 3.0),
           theta=st.sampled_from([0.0, -0.0]))
    @settings(deadline=None, max_examples=150, derandomize=True)
    def test_coverage(self, kind, m, eta, half, theta):
        setup = cell(m, eta)
        spec = IntervalSpec(half, half, VarianceMode.ESTIMATED)
        mu = theta / (setup.sigma * setup.xi)
        reach = half / setup.xi

        def integrand(s):
            return (_coverage_core(kind, mu, reach * s, reach * s, eta * s, setup.root_n)
                    * rho_density(s, m))

        want, bound = integrate_halfline(
            integrand,
            _switch_points(kind, np.array([[mu]]), np.array([reach, -reach]), eta).ravel(),
            upper=rho_upper_limit(m, TAIL), cfg=REFERENCE)
        got = unknown_coverage(kind, theta, 1.0, spec, setup)
        assert agree(got, want, bound), (got, want, bound)

    @pytest.mark.parametrize("kind", KINDS)
    def test_limit_law_is_reached_at_every_n(self, kind):
        # at mu = 0, rn g1(x / rn; eta) = g1(x; rn eta): the finite law with
        # sqrt(n) eta = e is already the nu = 0 limit law
        m, e = 5, 0.7
        setup = ProblemSetup(n=36, k=31, eta=e / 6.0)
        xs = np.linspace(-4.0, 4.0, 33)
        finite = tilde_cdf(kind, xs, setup, 0.0, ScalingFactor.conservative(setup))
        limit = conservative_limit_cdf(kind, xs, ConservativeRegime(nu=0.0, e=e, m=m))
        np.testing.assert_allclose(finite, limit, rtol=0.0, atol=1e-14)


class TestHonestBound:
    """The mixture quadrature at the default targets, run at theta = 0,
    against the closed forms: every error is within the returned bound plus
    the tail allowance.  A fixed numpy-seeded sweep (seeds 1-3, 2000 problems
    each): kind, m in {1, 5, 995}, eta = 10^U(-3, 1), n = 35 + m, k = 35,
    xi = 1, the conservative or the consistent alpha, and x near 0, near the
    dead-zone edge +-a xi eta, or across a xi [-4, 4].  The density skips
    x = 0 and the hard dead zone, and its allowance is s_max times the CDF's.
    """

    @staticmethod
    def problems(seed, count=2000):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            kind = KINDS[rng.integers(3)]
            m = int(rng.choice([1, 5, 995]))
            eta = float(10.0 ** rng.uniform(-3.0, 1.0))
            setup = cell(m, eta)
            scaling = (ScalingFactor.conservative if rng.random() < 0.5
                       else ScalingFactor.consistent)
            scale = scaling(setup) * setup.xi
            where = rng.integers(3)
            if where == 0:
                x = rng.uniform(-0.01, 0.01)
            elif where == 1:
                x = eta * (1.0 + rng.uniform(-0.01, 0.01)) * (1.0 if rng.random() < 0.5
                                                               else -1.0)
            else:
                x = rng.uniform(-4.0, 4.0)
            yield kind, m, eta, setup.root_n, scale, float(scale * x)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cdf(self, seed):
        misses = []
        for kind, m, eta, rn, scale, x in self.problems(seed):
            def below(s, slope):
                return std_normal_cdf(rn * _inverse(kind, 0.0, slope * s, eta * s))

            got, bound = _mixture(kind, 0.0, np.array([x / scale]), eta, m, below)
            want = _scale_free(kind, x, scale, eta, rn, m)
            if not agree(got[0], want, bound[0]):
                misses.append((kind, m, eta, x, got[0], want, bound[0]))
        assert not misses

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_density(self, seed):
        misses = []
        for kind, m, eta, rn, scale, x in self.problems(seed):
            if x == 0.0 or (kind is EstimatorKind.HARD and abs(x) <= scale * eta):
                continue

            def density(s, slope):
                d, t = slope * s, eta * s
                return (rn * s / scale * _inverse_slope(kind, 0.0, d, t)
                        * std_normal_pdf(rn * _inverse(kind, 0.0, d, t)))

            got, bound = _mixture(kind, 0.0, np.array([x / scale]), eta, m, density,
                                  weighted=True)
            want = _scale_free(kind, x, scale, eta, rn, m, density=True)
            if not agree(got[0], want, bound[0], rho_upper_limit(m, TAIL)):
                misses.append((kind, m, eta, x, got[0], want, bound[0]))
        assert not misses


class TestBatchedGrid:
    @pytest.mark.parametrize("kind", KINDS)
    def test_nonzero_rows_keep_their_bits(self, kind):
        setup = cell(5, 0.3)
        spec = IntervalSpec(0.4, 0.4, VarianceMode.ESTIMATED)
        others = np.linspace(0.05, 1.2, 12)
        with_zero = np.concatenate([[0.0], others[:6], [-0.0], others[6:]])
        got = unknown_coverage(kind, with_zero, 1.0, spec, setup)
        want = unknown_coverage(kind, others, 1.0, spec, setup)
        nonzero = with_zero != 0.0
        assert [v.hex() for v in got[nonzero]] == [v.hex() for v in want]
        assert got[0] == got[7] == unknown_coverage(kind, 0.0, 1.0, spec, setup)

    @pytest.mark.parametrize("kind", KINDS)
    def test_all_zero_grid(self, kind):
        setup = cell(5, 0.3)
        spec = IntervalSpec(0.4, 0.4, VarianceMode.ESTIMATED)
        got = unknown_coverage(kind, np.zeros((2, 2)), 1.0, spec, setup)
        assert got.shape == (2, 2)
        assert np.all(got == unknown_coverage(kind, 0.0, 1.0, spec, setup))


class TestExtremeSlopes:
    """At theta = 0 the slope x / (a xi) can overflow or a xi be subnormal;
    every value is then its limit, never NaN and never a warning."""

    setup = ProblemSetup(n=40, k=35, eta=0.5)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("x", [1e300, -1e300])
    def test_overflowing_slope(self, kind, x):
        # the slope overflows to inf, where g' was inf / inf
        assert tilde_density(kind, x, self.setup, 0.0, 1e-10) == 0.0
        assert tilde_cdf(kind, x, self.setup, 0.0, 1e-10) == (1.0 if x > 0 else 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_subnormal_scaling(self, kind):
        # the density is a t density over a xi, so f_a(x) = f_1(x / a) / a;
        # 1 / a overflows but x / a = 2^70 does not
        a, x = 2.0 ** -1070, 2.0 ** -1000
        got = tilde_density(kind, x, self.setup, 0.0, a)
        want = tilde_density(kind, x / a, self.setup, 0.0, 1.0) / a
        assert math.isfinite(got) and got > 0.0
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_underflowing_slope_keeps_its_side(self, kind):
        # x / (a xi) underflows to -+0.0 for x = -+5e-324, which is not the
        # atom: F(x) is T_m(-+sqrt(n) eta) on either side of it, F(+-0) holds
        # the atom, and at theta = 1e-300 the kill error -a theta / s ~ -1 / s
        # lies below x, so F(x) holds the killed mass there
        below = t_cdf(-self.setup.root_n * self.setup.eta, 5)
        xs = np.array([-5e-324, -0.0, 0.0, 5e-324])
        np.testing.assert_allclose(tilde_cdf(kind, xs, self.setup, 0.0, 1e300),
                                   [below, 1.0 - below, 1.0 - below, 1.0 - below],
                                   rtol=1e-15)
        assert tilde_cdf(kind, -5e-324, self.setup, 0.0, 1e300) == below
        assert tilde_cdf(kind, -5e-324, self.setup, 1e-300, 1e300) == pytest.approx(
            1.0 - below, abs=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("a", [5e-324, 1e-10, 1.0, 1e300])
    @pytest.mark.parametrize("theta", [0.0, -0.0])
    def test_never_nan(self, kind, a, theta):
        xs = np.array([-1.7e308, -4.0, -5e-324, 0.0, 5e-324, 4.0, 1.7e308])
        cdf = tilde_cdf(kind, xs, self.setup, theta, a)
        dens = tilde_density(kind, xs, self.setup, theta, a)
        assert not np.isnan(cdf).any() and not np.isnan(dens).any()
        assert np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all(dens >= 0.0)
        assert np.all(np.diff(cdf) >= 0.0)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("half", [0.0, 1e-300, 1e300])
    def test_coverage_extremes(self, kind, half):
        spec = IntervalSpec(half, half, VarianceMode.ESTIMATED)
        got = unknown_coverage(kind, 0.0, 1.0, spec, self.setup)
        if half == 1e300:
            assert got == 1.0
        else:
            # an empty interval covers 0 exactly when the estimate is killed
            killed = 2.0 * t_cdf(self.setup.root_n * self.setup.eta, 5) - 1.0
            assert got == pytest.approx(killed, abs=1e-15)
