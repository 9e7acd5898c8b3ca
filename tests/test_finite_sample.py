"""Exact finite-sample law of the scaled thresholding error.

Structural checks (mass, monotonicity, symmetry, density consistency) plus
frozen numeric oracles computed from independent routes.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from threshcov import (
    DomainError,
    EstimatorKind,
    IntervalSpec,
    ProblemSetup,
    ScalingFactor,
    SimulationPlan,
    VarianceMode,
    atom_mass,
    density_grid,
    mirror_check,
    reference_setup,
    simulate_scaled_error_ecdf,
    t_cdf,
    t_pdf,
    tilde_cdf,
    tilde_density,
    unknown_coverage,
)
from threshcov import special

SETUP = reference_setup()
ALPHA = ScalingFactor.conservative(SETUP)
KINDS = list(EstimatorKind)


class TestScalingFactor:
    def test_canonical_values(self):
        assert ScalingFactor.conservative(SETUP) == pytest.approx(math.sqrt(40.0))
        assert ScalingFactor.consistent(SETUP) == pytest.approx(20.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(DomainError):
            ScalingFactor(bad)

    def test_is_a_float(self):
        assert isinstance(ScalingFactor(2.0), float)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_every_entry_point_rejects_alike(self, bad):
        plan = SimulationPlan(setup=SETUP, theta=0.1, reps=10, seed=1)
        calls = [lambda: tilde_cdf("hard", 0.2, SETUP, 0.1, bad),
                 lambda: tilde_density("hard", 0.2, SETUP, 0.1, bad),
                 lambda: mirror_check("hard", SETUP, 0.1, bad, [0.2]),
                 lambda: density_grid("hard", SETUP, 0.1, bad),
                 lambda: simulate_scaled_error_ecdf(plan, "hard", bad, [0.0])]
        for call in calls:
            with pytest.raises(DomainError, match="scaling factor must be positive"):
                call()


class TestThetaDomain:
    @pytest.mark.parametrize("law", [tilde_cdf, tilde_density])
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_theta_rejected(self, kind, theta, law):
        with pytest.raises(DomainError, match="theta must be finite"):
            law(kind, 0.2, SETUP, theta, ALPHA)


class TestOverflowingMu:
    """theta / (sigma xi) overflows at a finite theta: every kind gives the
    distant-parameter law, in which no threshold binds."""

    setup = ProblemSetup(n=40, k=35, xi=1e-10, sigma=1e-10, eta=0.5)
    xs = np.array([-0.7, -1e-10, 0.0, 1e-10, 0.3])

    @pytest.mark.parametrize("theta", [1e300, -1e300])
    @pytest.mark.parametrize("law", [tilde_cdf, tilde_density])
    def test_adaptive_soft_equals_hard(self, law, theta):
        hard = law("hard", self.xs, self.setup, theta, 1.0)
        assert np.array_equal(law("asoft", self.xs, self.setup, theta, 1.0), hard)
        assert law("asoft", 0.3, self.setup, theta, 1.0) == hard[-1]

    def test_t_law(self):
        rn = self.setup.root_n
        cdf = tilde_cdf("hard", self.xs, self.setup, 1e300, 1.0)
        assert cdf == pytest.approx(t_cdf(rn * self.xs / 1e-10, 5), abs=1e-15)
        soft = tilde_cdf("soft", self.xs, self.setup, 1e300, 1.0)
        assert soft == pytest.approx(t_cdf(rn * (self.xs / 1e-10 + 0.5), 5), abs=1e-15)
        density = tilde_density("hard", 0.0, self.setup, -1e300, 1.0)
        assert density == pytest.approx(rn * t_pdf(0.0, 5) / 1e-10, rel=1e-14)
        for theta in (1e300, -1e300):
            soft = tilde_density("soft", self.xs, self.setup, theta, 1.0)
            shift = math.copysign(0.5, theta)
            assert soft == pytest.approx(rn * t_pdf(rn * (self.xs / 1e-10 + shift), 5)
                                         / 1e-10, rel=1e-14)
            for kind in ("hard", "asoft"):
                # x = 0 is no atom here: the t density, finite
                at_zero = tilde_density(kind, 0.0, self.setup, theta, 1.0)
                assert math.isfinite(at_zero)
                assert at_zero == pytest.approx(rn * t_pdf(0.0, 5) / 1e-10, rel=1e-14)


class TestAtom:
    def test_matches_student_t_band(self):
        m = SETUP.residual_dof
        expected = 2.0 * t_cdf(SETUP.root_n * SETUP.eta, m) - 1.0
        assert atom_mass(SETUP) == pytest.approx(expected, abs=1e-12)

    def test_frozen_value(self):
        assert atom_mass(SETUP) == pytest.approx(0.23539522321120737, abs=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_cdf_jump_equals_atom(self, kind):
        jump = (tilde_cdf(kind, 0.0, SETUP, 0.0, ALPHA)
                - tilde_cdf(kind, -1e-10, SETUP, 0.0, ALPHA))
        assert jump == pytest.approx(atom_mass(SETUP), abs=1e-8)

    def test_saturated_design_rejected(self):
        with pytest.raises(DomainError):
            atom_mass(ProblemSetup(n=5, k=5))


class TestCdfShape:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("theta", [0.0, 0.16])
    def test_monotone(self, kind, theta):
        xs = np.linspace(-6.0, 6.0, 121)
        vals = [tilde_cdf(kind, x, SETUP, theta, ALPHA) for x in xs]
        assert np.all(np.diff(vals) >= -1e-10)
        assert vals[0] < 0.01 and vals[-1] > 0.99

    @pytest.mark.parametrize("kind", KINDS)
    def test_limits(self, kind):
        assert tilde_cdf(kind, math.inf, SETUP, 0.16, ALPHA) == 1.0
        assert tilde_cdf(kind, -math.inf, SETUP, 0.16, ALPHA) == 0.0
        with pytest.raises(DomainError):
            tilde_cdf(kind, math.nan, SETUP, 0.16, ALPHA)

    @pytest.mark.parametrize("kind", KINDS)
    def test_continuous_when_component_nonzero(self, kind):
        # no atom once the true component is away from zero; check across the
        # candidate kink locations
        theta = 0.16
        band = float(ALPHA) * SETUP.xi * SETUP.eta
        kill = -float(ALPHA) * theta / SETUP.sigma
        for x0 in (0.0, band, -band, kill):
            lo = tilde_cdf(kind, x0 - 1e-9, SETUP, theta, ALPHA)
            hi = tilde_cdf(kind, x0 + 1e-9, SETUP, theta, ALPHA)
            assert hi - lo == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("kind", KINDS)
    def test_scale_invariance(self, kind):
        base = reference_setup()
        doubled = reference_setup(sigma=2.0)
        for x in (-1.0, 0.2, 1.7):
            a = tilde_cdf(kind, x, base, 0.16, ALPHA)
            b = tilde_cdf(kind, x, doubled, 0.32, ALPHA)
            assert a == pytest.approx(b, abs=1e-12)

    def test_hard_zero_band_is_flat(self):
        band = float(ALPHA) * SETUP.xi * SETUP.eta
        lo = tilde_cdf("hard", -0.999 * band, SETUP, 0.0, ALPHA)
        hi = tilde_cdf("hard", 0.999 * band, SETUP, 0.0, ALPHA)
        assert hi - lo == pytest.approx(atom_mass(SETUP), abs=1e-10)


class TestDensity:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("theta", [0.0, 0.16])
    def test_total_mass(self, kind, theta):
        band = float(ALPHA) * SETUP.xi * SETUP.eta
        pts = sorted({-band, 0.0, band, -float(ALPHA) * theta})

        def dens(x):
            return tilde_density(kind, x, SETUP, theta, ALPHA)

        total, err = quad(dens, -60.0, 60.0, points=pts, limit=400)
        atom = atom_mass(SETUP) if theta == 0.0 else 0.0
        assert err < 5e-7
        assert total + atom == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("theta", [0.0, 0.16])
    def test_matches_cdf_derivative(self, kind, theta):
        h = 1e-4
        for x in (-1.5, -0.5, 0.5, 1.5):
            fd = (tilde_cdf(kind, x + h, SETUP, theta, ALPHA)
                  - tilde_cdf(kind, x - h, SETUP, theta, ALPHA)) / (2.0 * h)
            assert fd == pytest.approx(
                tilde_density(kind, x, SETUP, theta, ALPHA), abs=1e-5)

    def test_hard_band_density_zero(self):
        band = float(ALPHA) * SETUP.xi * SETUP.eta
        for x in (-0.9 * band, -0.3 * band, 0.3 * band, 0.9 * band):
            assert tilde_density("hard", x, SETUP, 0.0, ALPHA) == 0.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_nonnegative(self, kind):
        for x in np.linspace(-3.0, 3.0, 41):
            assert tilde_density(kind, x, SETUP, 0.16, ALPHA) >= 0.0

    def test_rejects_nonfinite_argument(self):
        with pytest.raises(DomainError):
            tilde_density("soft", math.inf, SETUP, 0.0, ALPHA)


class TestContinuityAtZero:
    """theta = 1e-300 runs the mixture quadrature, theta = 0 the Student-t
    closed form; the two must meet.  Each case is a narrow bump in s near
    s = 0 that unseeded first panels missed by 8e-11 to 5.7e-9."""

    CONTINUITY = {
        "soft-cdf": ("soft", tilde_cdf, -19.39, 9.358, "sqrt40"),
        "hard-cdf": ("hard", tilde_cdf, -10.2884, 7.3617, "sqrt40"),
        "soft-density": ("soft", tilde_density, 0.99511, 7.6355, "consistent"),
        "edge-7": ("soft", tilde_density, "edge", 7.0, "conservative"),
        "edge-6.5": ("soft", tilde_density, "edge", 6.5, "conservative"),
    }

    @staticmethod
    def case(name):
        kind, law, x, eta, scaling = TestContinuityAtZero.CONTINUITY[name]
        setup = ProblemSetup(n=40, k=35, eta=eta)
        alpha = (math.sqrt(40.0) if scaling == "sqrt40"
                 else getattr(ScalingFactor, scaling)(setup))
        if x == "edge":
            x = alpha * setup.xi * eta
        return lambda theta: law(kind, x, setup, theta, alpha)

    @pytest.mark.parametrize("name", sorted(CONTINUITY))
    def test_tiny_theta_meets_closed_form(self, name):
        law = self.case(name)
        assert law(1e-300) == pytest.approx(law(0.0), rel=0.0, abs=1e-12)

    def test_soft_cdf_at_small_theta(self):
        law = self.case("soft-cdf")
        assert law(1e-3) == pytest.approx(law(0.0), rel=0.0, abs=1e-12)

    def test_density_tail_is_s_weighted(self):
        # at m = 1 the density's discarded tail is E[s; s > s_max], not the
        # rho_1 mass beyond s_max
        setup = ProblemSetup(n=36, k=35, eta=0.015625)
        alpha = ScalingFactor.conservative(setup)
        near = tilde_density("soft", 0.015625, setup, 1e-300, alpha)
        assert near == pytest.approx(tilde_density("soft", 0.015625, setup, 0.0, alpha),
                                     rel=0.0, abs=5e-13)


class TestSeededPanels:
    """rho_m's quantiles cut the first panels, so a lone query at theta != 0
    rarely needs a second round (the switch points alone took 2.8 rounds at
    m = 5 and 3.7 at m = 995)."""

    @pytest.mark.parametrize("m, n, k, most", [(5, 40, 35, 1.2), (995, 1000, 5, 2.0)])
    def test_lone_queries_take_few_rounds(self, monkeypatch, m, n, k, most):
        rounds = []
        rule = special._panel_rule

        def counted(*args):
            rounds[-1] += 1
            return rule(*args)

        monkeypatch.setattr(special, "_panel_rule", counted)
        rng = np.random.default_rng(7)
        for _ in range(150):
            kind = KINDS[rng.integers(3)]
            setup = ProblemSetup(n=n, k=k, eta=float(10.0 ** rng.uniform(-2.0, 0.0)))
            theta = rng.uniform(-5.0, 5.0) / setup.root_n
            alpha = ScalingFactor.conservative(setup)
            half = rng.uniform(0.5, 6.0) / setup.root_n
            spec = IntervalSpec(half, half, VarianceMode.ESTIMATED)
            for query in (lambda: tilde_cdf(kind, rng.uniform(-4.0, 4.0), setup, theta, alpha),
                          lambda: tilde_density(kind, rng.uniform(-4.0, 4.0), setup, theta,
                                                alpha),
                          lambda: unknown_coverage(kind, theta, 1.0, spec, setup)):
                rounds.append(0)
                query()
        assert np.mean(rounds) <= most


class TestMirrorSymmetry:
    @pytest.mark.parametrize("kind", KINDS)
    def test_nonzero_component(self, kind):
        grid = np.linspace(-3.0, 3.0, 41)
        assert mirror_check(kind, SETUP, 0.16, ALPHA, grid) <= 1e-8

    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_component_off_atom(self, kind):
        grid = np.linspace(-3.0, 3.0, 40) + 0.013
        assert mirror_check(kind, SETUP, 0.0, ALPHA, grid) <= 1e-8


class TestBundles:
    def test_density_grid(self):
        xs, dens, mass = density_grid("hard", SETUP, 0.0, ALPHA, count=41)
        assert xs.shape == dens.shape == (41,)
        assert xs[0] == -4.0 and xs[-1] == 4.0
        assert mass == pytest.approx(atom_mass(SETUP))
        assert np.all(dens >= 0.0)
        with pytest.raises(DomainError):
            density_grid("hard", SETUP, 0.0, ALPHA, lo=2.0, hi=-2.0)
        with pytest.raises(DomainError):
            density_grid("hard", SETUP, 0.0, ALPHA, count=1)
        with pytest.raises(DomainError):
            density_grid("hard", SETUP, 0.0, ALPHA, count=800.0)


class TestMonteCarloAnchor:
    def test_hard_cdf_spot_values(self):
        # independent check of the quadrature route against simulation
        plan = SimulationPlan(setup=SETUP, theta=0.16, reps=200_000, seed=77)
        grid = np.array([-1.5, -0.5, 0.5, 1.5])
        res = simulate_scaled_error_ecdf(plan, "hard", ALPHA, grid)
        for x, emp in zip(grid, res.values):
            exact = tilde_cdf("hard", x, SETUP, 0.16, ALPHA)
            se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / plan.reps)
            assert abs(emp - exact) <= 4.0 * se + 1e-9
