"""Array-valued CDFs, densities and coverages against their scalar calls.

An array call integrates all its elements in one batched quadrature; each
element must agree with the scalar call at the same point within that
element's error bound, which the default tolerances keep below
max(abs_tol, rel_tol |value|).
"""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshcov import (
    DEFAULT_QUADRATURE,
    ConservativeRegime,
    ConsistentRegime,
    DomainError,
    EstimatorKind,
    IntervalSpec,
    ProblemSetup,
    ScalingFactor,
    VarianceMode,
    conservative_limit_cdf,
    consistent_limit_cdf,
    rho_density,
    std_normal_cdf,
    tilde_cdf,
    tilde_density,
    unknown_coverage,
)
from threshcov import finite_sample, special
from threshcov.coverage import min_coverage_search
from threshcov.special import _clamp_unit

KINDS = list(EstimatorKind)
DOFS = (1, 5, 995)


def setup_for(m: int, eta: float = 0.3) -> ProblemSetup:
    return ProblemSetup(n=35 + m, k=35, eta=eta)


def within_bound(batched, scalar):
    """Both values meet the default target, so they differ by at most twice it."""
    target = max(DEFAULT_QUADRATURE.abs_tol, DEFAULT_QUADRATURE.rel_tol * abs(scalar))
    return abs(batched - scalar) <= 2.0 * target + 1e-15


def assert_elementwise(batched, scalar_call, points):
    assert batched.shape == np.shape(points)
    for got, point in zip(np.ravel(batched), np.ravel(points)):
        want = scalar_call(float(point))
        assert type(want) is float
        assert within_bound(got, want), (point, got, want)


thetas = st.one_of(st.just(0.0), st.floats(-1.5, 1.5, allow_nan=False))
finite_x = st.floats(-6.0, 6.0, allow_nan=False)


@st.composite
def x_grids(draw, with_infinity=True):
    """Random points plus the structural ones: 0 and the kinks +-a xi eta."""
    kind = draw(st.sampled_from(KINDS))
    m = draw(st.sampled_from(DOFS))
    setup = setup_for(m)
    a = float(ScalingFactor.conservative(setup))
    band = a * setup.xi * setup.eta
    points = [0.0, band, -band] + draw(st.lists(finite_x, min_size=1, max_size=5))
    if with_infinity:
        points += [math.inf, -math.inf]
    order = draw(st.permutations(points))
    return kind, setup, a, np.array(order)


class TestTildeCdf:
    @given(case=x_grids(), theta=thetas)
    @settings(deadline=None, max_examples=20)
    def test_array_matches_scalar_calls(self, case, theta):
        kind, setup, a, xs = case
        batched = tilde_cdf(kind, xs, setup, theta, a)
        assert_elementwise(batched, lambda x: tilde_cdf(kind, x, setup, theta, a), xs)
        assert batched[xs == math.inf].tolist() == [1.0]
        assert batched[xs == -math.inf].tolist() == [0.0]

    def test_shape_is_kept(self):
        setup = setup_for(5)
        xs = np.linspace(-2.0, 2.0, 6).reshape(2, 3)
        assert tilde_cdf("soft", xs, setup, 0.1, 2.0).shape == (2, 3)

    def test_nan_element_rejected(self):
        with pytest.raises(DomainError):
            tilde_cdf("hard", np.array([0.1, math.nan]), setup_for(5), 0.0, 2.0)

    def test_empty_and_all_infinite(self):
        setup = setup_for(5)
        assert tilde_cdf("hard", np.array([]), setup, 0.0, 2.0).shape == (0,)
        values = tilde_cdf("hard", np.array([math.inf, -math.inf]), setup, 0.0, 2.0)
        assert values.tolist() == [1.0, 0.0]


class TestTildeDensity:
    @given(case=x_grids(with_infinity=False), theta=thetas)
    @settings(deadline=None, max_examples=20)
    def test_array_matches_scalar_calls(self, case, theta):
        kind, setup, a, xs = case
        batched = tilde_density(kind, xs, setup, theta, a)
        assert_elementwise(batched,
                           lambda x: tilde_density(kind, x, setup, theta, a), xs)
        if theta == 0.0:
            assert not batched[xs == 0.0].any()

    def test_hard_dead_zone(self):
        setup = setup_for(5)
        band = 2.0 * setup.xi * setup.eta
        xs = np.array([-band, -0.5 * band, 0.5 * band, band, 1.5 * band])
        values = tilde_density("hard", xs, setup, 0.0, 2.0)
        assert values[:4].tolist() == [0.0] * 4
        assert values[4] > 0.0

    def test_near_zero_x_opposite_the_component(self):
        # the kill-kernel Jacobian overflows there while rho underflows
        setup = setup_for(1)
        tiny = tilde_density("hard", np.array([-1e-212, -1e-9]), setup, 1.0, 6.0)
        assert np.isfinite(tiny).all()
        assert tiny[0] == pytest.approx(tiny[1], rel=1e-6)

    def test_kill_kernel_where_x_squared_underflows(self):
        # theta so small that rho at s = -a q / x is still positive; the
        # Jacobian a |q| / x^2 would divide by an underflowed x * x
        setup = ProblemSetup(n=36, k=35, eta=0.3)
        x, q, a = -1e-200, 1e-200, 6.0
        got = tilde_density("hard", np.array([x]), setup, q, a)[0]
        s = -a * q / x
        gamma = setup.root_n * q / setup.xi
        shift = a * setup.xi * setup.eta / x
        band = std_normal_cdf(-gamma * (1.0 + shift)) - std_normal_cdf(-gamma * (1.0 - shift))
        s_form = s * s / (a * abs(q)) * rho_density(s, setup.residual_dof) * band
        assert math.isfinite(got)
        assert got == pytest.approx(s_form, rel=1e-12)

    def test_infinite_element_rejected(self):
        with pytest.raises(DomainError):
            tilde_density("soft", np.array([0.3, math.inf]), setup_for(5), 0.0, 2.0)


class TestUnknownCoverage:
    @given(kind=st.sampled_from(KINDS), m=st.sampled_from(DOFS),
           half=st.floats(0.05, 1.5),
           theta_list=st.lists(thetas, min_size=1, max_size=6))
    @settings(deadline=None, max_examples=20)
    def test_array_matches_scalar_calls(self, kind, m, half, theta_list):
        setup = setup_for(m)
        spec = IntervalSpec(half, half, VarianceMode.ESTIMATED)
        grid = np.array([0.0] + theta_list)
        batched = unknown_coverage(kind, grid, 1.0, spec, setup)
        assert_elementwise(
            batched, lambda t: unknown_coverage(kind, t, 1.0, spec, setup), grid)


    def test_nan_element_rejected(self):
        # the NaN window would otherwise read as coverage 0
        spec = IntervalSpec(0.5, 0.5, VarianceMode.ESTIMATED)
        with pytest.raises(DomainError):
            unknown_coverage("hard", np.array([0.2, math.nan]), 1.0, spec, setup_for(5))
        with pytest.raises(DomainError):
            unknown_coverage("hard", math.nan, 1.0, spec, setup_for(5))


class TestLimitCdfs:
    @given(kind=st.sampled_from(KINDS),
           nu=st.sampled_from([0.0, 0.7, -1.3, math.inf]),
           e=st.sampled_from([0.0, 1.0]), m=st.sampled_from((1, 5, 30)),
           xs=st.lists(finite_x, min_size=1, max_size=6))
    @settings(deadline=None, max_examples=20)
    def test_conservative_array_matches_scalar_calls(self, kind, nu, e, m, xs):
        regime = ConservativeRegime(nu=nu, e=e, m=m)
        grid = np.array([0.0, math.inf, -math.inf] + xs)
        batched = conservative_limit_cdf(kind, grid, regime)
        assert_elementwise(
            batched, lambda x: conservative_limit_cdf(kind, x, regime), grid)

    @given(kind=st.sampled_from(KINDS),
           zeta=st.sampled_from([0.0, 0.4, -0.4, 1.0, 2.5, -2.5, math.inf]),
           m=st.sampled_from((5, math.inf)),
           xs=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=20)
    def test_consistent_array_matches_scalar_calls(self, kind, zeta, m, xs):
        aux = (0.5, 0.3, 0.0) if m == math.inf and abs(zeta) == 1.0 else None
        regime = ConsistentRegime(zeta=zeta, m=m, hard_aux=aux)
        grid = np.array([0.0, -1.0, 1.0, math.inf, -math.inf] + xs)
        batched = consistent_limit_cdf(kind, grid, regime)
        for got, x in zip(batched, grid):
            assert got == consistent_limit_cdf(kind, float(x), regime)


def bits(values) -> bytes:
    """The float64 bits of a value or an array, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).tobytes()


class TestLoneRoute:
    """A scalar x (a scalar theta for coverage) is a lone problem that runs on
    floats, apart from the batch route; it must give the bits of the same
    call on a batch of one, and never build batch panels or record nodes."""

    @staticmethod
    def cases(seed, count=30):
        """(kind, setup, theta, xs): xi = sigma = alpha = 1, so x is the slope
        itself; x = 0, the hard dead-zone edges +-eta (slope -+ eta = 0),
        +-1e-10 (-mu / slope overflows at |theta| = 1e300), +-1e10 where
        |theta| <= 2 (-mu / slope is subnormal at |theta| <= 1e-300), and
        one x across +-4.  At |theta| = 1e300 and |x| = 1e10 both routes
        warn that mu d overflows in the adaptive-soft inverse, a fault of
        its own (CHANGES.md)."""
        rng = np.random.default_rng(seed)
        for _ in range(count):
            kind = KINDS[rng.integers(3)]
            m = int(rng.choice(DOFS))
            eta = float(10.0 ** rng.uniform(-3.0, 1.0))
            theta = (float(rng.choice([1e-300, -1e-300, 1e300, -1e300, 5e-324]))
                     if rng.random() < 0.4 else float(rng.uniform(-2.0, 2.0)))
            xs = [0.0, eta, -eta, 1e-10, -1e-10, float(rng.uniform(-4.0, 4.0))]
            if abs(theta) <= 2.0:
                xs += [1e10, -1e10]
            yield kind, ProblemSetup(n=35 + m, k=35, eta=eta), theta, xs

    @staticmethod
    def lone(monkeypatch, call, quadratures):
        """call() with the quadrature watched: breakpoints as a list of
        floats, no batch panels, plain nodes."""
        engine = finite_sample.integrate_halfline

        def watched(f, breakpoints, **kwargs):
            assert type(breakpoints) is list
            assert all(type(b) is float for b in breakpoints)

            def integrand(nodes):
                assert nodes.dtype.names is None, "a record array reached the integrand"
                return f(nodes)

            quadratures.append(call)
            return engine(integrand, breakpoints, **kwargs)

        def no_batch(*args):
            raise AssertionError("a lone problem built batch panels")

        with monkeypatch.context() as patch:
            patch.setattr(finite_sample, "integrate_halfline", watched)
            patch.setattr(special, "_initial_panels", no_batch)
            got = call()
        assert type(got) is float
        return got

    @pytest.mark.parametrize("seed", [1, 2])
    def test_laws_in_x(self, monkeypatch, seed):
        quadratures = []
        for kind, setup, theta, xs in self.cases(seed):
            regime = ConservativeRegime(nu=theta * setup.root_n, e=setup.eta * setup.root_n,
                                        m=setup.residual_dof)
            for x in xs:
                for law in (lambda x: tilde_cdf(kind, x, setup, theta, 1.0),
                            lambda x: tilde_density(kind, x, setup, theta, 1.0),
                            lambda x: conservative_limit_cdf(kind, x, regime)):
                    batch = law(np.array([x]))
                    got = self.lone(monkeypatch, lambda: law(x), quadratures)
                    assert bits(got) == bits(batch), (kind, setup, theta, x)
        assert len(quadratures) > 500

    @pytest.mark.parametrize("seed", [1, 2])
    def test_coverage_in_theta(self, monkeypatch, seed):
        quadratures = []
        rng = np.random.default_rng(seed)
        for kind, setup, theta, _ in self.cases(seed):
            # half = xi eta puts an arm on hard's dead-zone edge
            for half in (setup.eta, float(rng.uniform(0.05, 3.0))):
                spec = IntervalSpec(half, half, VarianceMode.ESTIMATED)
                batch = unknown_coverage(kind, np.array([theta]), 1.0, spec, setup)
                got = self.lone(monkeypatch,
                                lambda: unknown_coverage(kind, theta, 1.0, spec, setup),
                                quadratures)
                assert bits(got) == bits(batch), (kind, setup, theta, half)
        assert len(quadratures) == 60


class TestUnderflowNeverRaises:
    """Flushing an underflow to 0 is intended: under a caller's
    np.errstate(all="raise") or (under="raise") every public analytic call
    still returns, with the bits it has under numpy's defaults.  xi = 2, so
    theta / (sigma xi) underflows at theta = 5e-324."""

    REGIMES = ({"all": "raise"}, {"under": "raise"})
    THETAS = (0.0, 5e-324, 1e-300, 0.3, -1.7, 1e300)
    CELLS = ((1, 1e-3), (5, 0.5), (995, 10.0))

    def agree(self, calls):
        for call in calls:
            want = call()
            for regime in self.REGIMES:
                with np.errstate(**regime):
                    assert bits(call()) == bits(want)

    def grid(self):
        for m, eta in self.CELLS:
            setup = ProblemSetup(n=35 + m, k=35, xi=2.0, eta=eta)
            for kind in KINDS:
                yield kind, m, setup

    def test_laws_and_coverage(self):
        def calls():
            for kind, _, setup in self.grid():
                a = ScalingFactor.conservative(setup)
                spec = IntervalSpec(1.0, 1.0, VarianceMode.ESTIMATED)
                for theta in self.THETAS:
                    for x in (0.7, np.linspace(-3.0, 3.0, 9)):
                        yield lambda: tilde_cdf(kind, x, setup, theta, a)
                        yield lambda: tilde_density(kind, x, setup, theta, a)
                    for t in (theta, theta * np.linspace(-1.0, 1.0, 9)):
                        yield lambda: unknown_coverage(kind, t, 1.0, spec, setup)

        self.agree(calls())

    def test_limit_laws(self):
        def calls():
            for kind, m, _ in self.grid():
                for theta in self.THETAS:
                    for e in (0.0, 0.5, 10.0):
                        regime = ConservativeRegime(nu=theta, e=e, m=m)
                        for x in (0.7, np.linspace(-3.0, 3.0, 9)):
                            yield lambda: conservative_limit_cdf(kind, x, regime)
                    consistent = ConsistentRegime(zeta=theta, m=m)
                    yield lambda: consistent_limit_cdf(kind, np.linspace(-1.5, 1.5, 9),
                                                       consistent)

        self.agree(calls())

    def test_worst_case_search(self):
        spec = IntervalSpec(1.0, 1.0, VarianceMode.ESTIMATED)
        self.agree(lambda: min_coverage_search(kind, spec, setup)
                   for kind, _, setup in self.grid())


class TestClampLogging:
    def test_logs_only_clamps_beyond_the_bound(self, caplog):
        values = np.array([1.0 + 1e-3, 0.5, -1e-14, 1.0 + 1e-14])
        bounds = np.array([1e-6, 0.0, 1e-13, 1e-16])
        with caplog.at_level(logging.DEBUG, logger="threshcov.special"):
            clipped = _clamp_unit(values, bounds, "tilde_cdf")
        assert clipped.tolist() == [1.0, 0.5, 0.0, 1.0]
        messages = [r.getMessage() for r in caplog.records]
        assert len(messages) == 2
        assert "tilde_cdf: element 0 " in messages[0]
        assert "tilde_cdf: element 3 " in messages[1]

    def test_silent_without_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="threshcov.special"):
            assert _clamp_unit(1.5, 0.0, "unknown_coverage") == 1.0
        assert not caplog.records
