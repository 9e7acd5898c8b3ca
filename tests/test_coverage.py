"""Coverage probabilities of fixed-width intervals around thresholded estimates.

The known-variance side has closed forms throughout; the estimated-variance
side averages them over the variance ratio.  Infima, bounds, and solved
half-lengths are pinned against independent grid searches and frozen roots.
"""

import math

import numpy as np
import pytest

from threshcov import (
    BracketError,
    DomainError,
    EstimatorKind,
    IntervalSpec,
    ProblemSetup,
    VarianceMode,
    coverage_lower_bound,
    coverage_upper_bound,
    known_coverage,
    min_coverage_search,
    reference_setup,
    simple_interval_infimal,
    solve_known_half_length,
    solve_unknown_half_length,
    std_normal_cdf,
    std_normal_quantile,
    tilde_cdf,
    unknown_coverage,
)
from threshcov import coverage
from threshcov.coverage import _golden_section_min

from conftest import direct_known_minimum

KINDS = list(EstimatorKind)
SETUP = reference_setup()

# solved 95% half-lengths, frozen from high-precision root finding
ROOTS_ESTIMATED = {
    ("hard", 0.05): 0.43404986963978825,
    ("soft", 0.05): 0.416627379754585,
    ("asoft", 0.05): 0.4329167520652192,
    ("hard", 0.5): 0.8229652483480663,
    ("soft", 0.5): 0.8191096714872987,
    ("asoft", 0.5): 0.8207853917670102,
}
ROOTS_KNOWN = {
    "hard": 0.3387333470608705,
    "soft": 0.32478571063937384,
    "asoft": 0.3374707594324147,
}


def est_spec(a):
    return IntervalSpec(a, a, VarianceMode.ESTIMATED)


class TestIntervalSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            IntervalSpec(-0.1, 0.2)
        with pytest.raises(DomainError):
            IntervalSpec(0.1, math.inf)
        with pytest.raises(DomainError):
            IntervalSpec(0.1, 0.2, VarianceMode.ESTIMATED)
        spec = IntervalSpec(0.3, 0.3)
        assert spec.a == spec.b == 0.3 and spec.mode is VarianceMode.KNOWN

    def test_mode_cross_checks(self):
        known = IntervalSpec(0.3, 0.3)
        est = est_spec(0.3)
        with pytest.raises(DomainError):
            unknown_coverage("hard", 0.0, 1.0, known, SETUP)
        with pytest.raises(DomainError):
            known_coverage("hard", 0.0, 1.0, est, SETUP)
        with pytest.raises(DomainError):
            min_coverage_search("hard", known, SETUP)


class TestKnownCoverage:
    @pytest.mark.parametrize("kind", KINDS)
    def test_scale_equivariance(self, kind):
        spec = IntervalSpec(0.3, 0.3)
        a = known_coverage(kind, 0.3, 2.0, spec, SETUP)
        b = known_coverage(kind, 0.15, 1.0, spec, SETUP)
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_sign_flip_swaps_arms(self, kind):
        spec = IntervalSpec(0.2, 0.4)
        flipped = IntervalSpec(0.4, 0.2)
        for theta in (0.0, 0.11, 0.7):
            assert known_coverage(kind, theta, 1.0, spec, SETUP) == pytest.approx(
                known_coverage(kind, -theta, 1.0, flipped, SETUP), abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_distant_parameter_limit(self, kind):
        # thresholding stops binding far from zero (soft keeps its shift);
        # the adaptive shrinkage decays only polynomially, so it is checked
        # further out at a looser tolerance
        spec = IntervalSpec(0.25, 0.4)
        theta = 1e9 if kind is EstimatorKind.ADAPTIVE_SOFT else 1e3
        got = known_coverage(kind, theta, 1.0, spec, SETUP)
        rn, xi, eta = SETUP.root_n, SETUP.xi, SETUP.eta
        from threshcov import std_normal_cdf
        if kind is EstimatorKind.SOFT:
            expected = (std_normal_cdf(rn * (0.25 / xi + eta))
                        - std_normal_cdf(rn * (-0.4 / xi + eta)))
        else:
            expected = (std_normal_cdf(rn * 0.25 / xi)
                        - std_normal_cdf(-rn * 0.4 / xi))
        tol = 1e-6 if kind is EstimatorKind.ADAPTIVE_SOFT else 1e-10
        assert got == pytest.approx(float(expected), abs=tol)

    @pytest.mark.parametrize("kind", KINDS)
    def test_in_unit_range(self, kind):
        spec = IntervalSpec(0.33, 0.33)
        for theta in np.linspace(-1.5, 1.5, 31):
            v = known_coverage(kind, float(theta), 1.0, spec, SETUP)
            assert 0.0 <= v <= 1.0

    def test_sigma_validation(self):
        spec = IntervalSpec(0.3, 0.3)
        with pytest.raises(DomainError):
            known_coverage("hard", 0.0, 0.0, spec, SETUP)
        with pytest.raises(DomainError):
            known_coverage("hard", 0.0, math.inf, spec, SETUP)
        estimated = IntervalSpec(0.3, 0.3, VarianceMode.ESTIMATED)
        for sigma in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="sigma"):
                unknown_coverage("hard", 0.0, sigma, estimated, SETUP)

    def test_nan_theta_rejected(self):
        # the NaN window would otherwise read as coverage 0
        setup = ProblemSetup(n=36, k=35, eta=0.3)
        with pytest.raises(DomainError):
            known_coverage("hard", math.nan, 1.0, IntervalSpec(0.3, 0.3), setup)

    @pytest.mark.parametrize("kind", KINDS)
    def test_array_theta_is_elementwise(self, kind):
        spec = IntervalSpec(0.2, 0.4)
        thetas = np.array([[0.0, 0.11, -0.7], [1e-300, 3.0, -1e300]])
        got = known_coverage(kind, thetas, 2.0, spec, SETUP)
        assert got.shape == thetas.shape
        for value, theta in zip(got.ravel(), thetas.ravel()):
            assert value == known_coverage(kind, float(theta), 2.0, spec, SETUP)
        lone = known_coverage(kind, np.float64(0.11), 2.0, spec, SETUP)
        assert type(lone) is float and lone == got[0, 1]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_array_with_a_nonfinite_element_rejected(self, bad):
        with pytest.raises(DomainError):
            known_coverage("soft", np.array([0.2, bad]), 1.0, IntervalSpec(0.3, 0.3), SETUP)


class TestInfimalKnown:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("arms", [(0.33, 0.33), (0.25, 0.45), (0.6, 0.6)])
    def test_matches_direct_search(self, kind, arms):
        spec = IntervalSpec(*arms)
        closed = coverage_lower_bound(kind, spec, SETUP)
        direct = direct_known_minimum(kind, spec, SETUP, known_coverage,
                                      _golden_section_min)
        assert closed == pytest.approx(direct, abs=1e-6)

    def test_hard_degenerate_band(self):
        setup = reference_setup(eta=0.5)
        spec = IntervalSpec(0.2, 0.25)
        assert setup.xi * setup.eta > spec.a + spec.b
        assert coverage_lower_bound("hard", spec, setup) == 0.0

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("arms", [(0.1, 0.1), (0.08, 0.2), (0.25, 0.45)])
    def test_huge_xi(self, kind, arms):
        # the infimum depends on the arms through a / xi and b / xi only;
        # at xi = 1e308 the adaptive-soft terms must not form 2 xi (inf).
        # (0.25, 0.45) puts the long arm above 1.8e308 / sqrt(n), where
        # hard's rn b overflows unless it is divided by xi first.
        a, b = arms
        huge = ProblemSetup(n=40, k=35, xi=1e308, eta=0.05)
        unit = ProblemSetup(n=40, k=35, eta=0.05)
        got = coverage_lower_bound(kind, IntervalSpec(a * 1e308, b * 1e308), huge)
        want = coverage_lower_bound(kind, IntervalSpec(a, b), unit)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_never_above_pointwise(self, kind):
        a = ROOTS_KNOWN[kind.value]
        spec = IntervalSpec(a, a)
        inf_val = coverage_lower_bound(kind, spec, SETUP)
        for theta in np.linspace(0.0, 1.0, 26):
            assert inf_val <= known_coverage(kind, float(theta), 1.0, spec,
                                             SETUP) + 1e-12


class TestKnownSolver:
    @pytest.mark.parametrize("kind", KINDS)
    def test_frozen_roots(self, kind):
        root = solve_known_half_length(kind, 0.05, SETUP)
        assert root == pytest.approx(ROOTS_KNOWN[kind.value], abs=1e-9)
        spec = IntervalSpec(root, root)
        assert coverage_lower_bound(kind, spec, SETUP) == pytest.approx(
            0.95, abs=1e-9)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
    def test_ordering_against_plain_interval(self, alpha):
        z_len = std_normal_quantile(1.0 - alpha / 2.0) * SETUP.xi / SETUP.root_n
        soft = solve_known_half_length("soft", alpha, SETUP)
        asoft = solve_known_half_length("asoft", alpha, SETUP)
        hard = solve_known_half_length("hard", alpha, SETUP)
        assert z_len < soft < asoft < hard

    def test_vanishing_threshold_recovers_plain_interval(self):
        setup = reference_setup(eta=1e-9)
        z_len = std_normal_quantile(0.975) * setup.xi / setup.root_n
        for kind in KINDS:
            root = solve_known_half_length(kind, 0.05, setup)
            assert root == pytest.approx(z_len, abs=1e-6)

    def test_hard_root_clears_half_band(self):
        setup = reference_setup(eta=0.5)
        root = solve_known_half_length("hard", 0.05, setup)
        assert root > 0.5 * setup.xi * setup.eta

    @pytest.mark.parametrize("solve", [solve_known_half_length, solve_unknown_half_length])
    @pytest.mark.parametrize("alpha", [0.05, 0.999])
    @pytest.mark.parametrize("kind", KINDS)
    def test_root_scales_with_xi(self, kind, alpha, solve):
        # the equation is xi-equivariant, so root / xi must not depend on xi,
        # also where the root is far below an absolute 1e-10
        def ratio(xi):
            return solve(kind, alpha, ProblemSetup(n=36, k=35, xi=xi, eta=1.0)) / xi

        unit = ratio(1.0)
        for xi in (1e-6, 1e-8, 1e-10):
            assert ratio(xi) == pytest.approx(unit, rel=1e-6)

    def test_no_abscissa_evaluated_twice(self, monkeypatch):
        # the bracket search's last upper end is the root finder's hi
        evaluated = []

        def counting(kind, a, b, setup, cdf):
            evaluated[-1].append(a)
            return infimum(kind, a, b, setup, cdf)

        infimum = coverage._infimum
        monkeypatch.setattr(coverage, "_infimum", counting)
        for kind in KINDS:
            for n, k in ((40, 35), (1000, 5)):  # m = 5 and m = 995
                for eta in (0.5, 0.05):
                    for solve in (solve_known_half_length, solve_unknown_half_length):
                        evaluated.append([])
                        solve(kind, 0.05, ProblemSetup(n=n, k=k, eta=eta))
                        assert len(set(evaluated[-1])) == len(evaluated[-1])
        assert len(evaluated) == 24

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            solve_known_half_length("hard", 0.0, SETUP)
        with pytest.raises(DomainError):
            solve_known_half_length("hard", 1.0, SETUP)


class TestUnknownCoverage:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("eta", [0.05, 0.5])
    def test_route_equality_with_error_law(self, kind, eta):
        # coverage of [estimate - a sigma_hat, estimate + a sigma_hat] is a
        # two-point difference of the scaled-error CDF; the two quadratures
        # share only the inverse thresholding map
        setup = reference_setup(eta=eta)
        a = ROOTS_ESTIMATED[(kind.value, eta)]
        spec = est_spec(a)
        for theta in (0.0, 0.16, 0.5):
            direct = unknown_coverage(kind, theta, 1.0, spec, setup)
            via_cdf = (tilde_cdf(kind, a, setup, theta, 1.0)
                       - tilde_cdf(kind, -a, setup, theta, 1.0))
            assert direct == pytest.approx(via_cdf, abs=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mirror(self, kind):
        spec = est_spec(0.43)
        for theta in (0.1, 0.37, 0.9):
            assert unknown_coverage(kind, theta, 1.0, spec, SETUP) == pytest.approx(
                unknown_coverage(kind, -theta, 1.0, spec, SETUP), abs=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_scale_equivariance(self, kind):
        spec = est_spec(0.43)
        assert unknown_coverage(kind, 0.4, 2.0, spec, SETUP) == pytest.approx(
            unknown_coverage(kind, 0.2, 1.0, spec, SETUP), abs=1e-12)

    def test_saturated_design_rejected(self):
        with pytest.raises(DomainError):
            unknown_coverage("hard", 0.0, 1.0, est_spec(0.4), ProblemSetup(n=5, k=5))


class TestDistantParameter:
    """Coverage far from zero, where the window must not be formed on the
    absolute theta scale (cancellation once |theta| / (sigma xi) swamps the
    arms)."""

    SETUP = ProblemSetup(n=36, k=35, eta=0.3)
    FAR = (1e9, 1e16, 1e300, -1e300)

    @pytest.mark.parametrize("arms", [(0.3, 0.3), (0.2, 0.45)])
    def test_hard_known_equals_ls_interval(self, arms):
        a, b = arms
        rn, xi = self.SETUP.root_n, self.SETUP.xi
        expected = float(std_normal_cdf(rn * a / xi) - std_normal_cdf(-rn * b / xi))
        assert coverage_upper_bound(IntervalSpec(a, b), self.SETUP) == expected
        for theta in self.FAR:
            got = known_coverage("hard", theta, 1.0, IntervalSpec(a, b), self.SETUP)
            assert got == pytest.approx(expected, abs=1e-12), theta

    def test_hard_unknown_equals_upper_bound(self):
        spec = est_spec(0.3)
        expected = coverage_upper_bound(spec, self.SETUP)
        got = unknown_coverage("hard", np.array(self.FAR), 1.0, spec, self.SETUP)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-11)
        assert unknown_coverage("hard", 1e16, 1.0, spec, self.SETUP) == pytest.approx(
            expected, abs=1e-11)

    @pytest.mark.parametrize("kind", ["soft", "asoft"])
    def test_shrinking_kinds_settle(self, kind):
        known_spec = IntervalSpec(0.3, 0.3)
        spec = est_spec(0.3)
        known_ref = known_coverage(kind, 1e9, 1.0, known_spec, self.SETUP)
        unknown_ref = unknown_coverage(kind, 1e9, 1.0, spec, self.SETUP)
        for theta in (1e16, 1e300, -1e16, -1e300):
            assert known_coverage(kind, theta, 1.0, known_spec, self.SETUP) == \
                pytest.approx(known_ref, abs=1e-9), theta
            assert unknown_coverage(kind, theta, 1.0, spec, self.SETUP) == \
                pytest.approx(unknown_ref, abs=1e-9), theta

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("theta", [math.inf, -math.inf])
    def test_infinite_theta_rejected(self, kind, theta):
        with pytest.raises(DomainError):
            known_coverage(kind, theta, 1.0, IntervalSpec(0.3, 0.3), self.SETUP)
        with pytest.raises(DomainError):
            unknown_coverage(kind, theta, 1.0, est_spec(0.3), self.SETUP)
        with pytest.raises(DomainError):
            unknown_coverage(kind, np.array([0.1, theta]), 1.0, est_spec(0.3),
                             self.SETUP)


class TestTinyParameter:
    """Coverage at subnormal and smallest-normal theta.  A subnormal switch
    point once made a panel whose Gauss nodes round to s = 0, where the
    adaptive-soft inverse was 0/0 ("integrand produced NaN")."""

    SETUP = ProblemSetup(n=36, k=35, eta=0.3)
    TINY = (-5e-324, 5e-324, -2.2e-308, 2.2e-308)

    @pytest.mark.parametrize("kind", KINDS)
    def test_scalar_and_batch_match_zero(self, kind):
        spec = est_spec(1.0)
        at_zero = unknown_coverage(kind, 0.0, 1.0, spec, self.SETUP)
        for theta in self.TINY:
            got = unknown_coverage(kind, theta, 1.0, spec, self.SETUP)
            assert type(got) is float
            assert got == pytest.approx(at_zero, abs=1e-10), theta
        batch = unknown_coverage(kind, np.array(self.TINY), 1.0, spec, self.SETUP)
        np.testing.assert_allclose(batch, at_zero, rtol=0.0, atol=1e-10)


class TestBounds:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("eta", [0.05, 0.5])
    def test_solved_length_hits_target(self, kind, eta):
        setup = reference_setup(eta=eta)
        a = solve_unknown_half_length(kind, 0.05, setup)
        assert a == pytest.approx(ROOTS_ESTIMATED[(kind.value, eta)], abs=1e-9)
        assert coverage_lower_bound(kind, est_spec(a), setup) == pytest.approx(
            0.95, abs=1e-9)

    @pytest.mark.parametrize("eta", [0.05, 0.5])
    @pytest.mark.parametrize("kind", KINDS)
    def test_sandwich_on_grid(self, kind, eta):
        setup = reference_setup(eta=eta)
        a = ROOTS_ESTIMATED[(kind.value, eta)]
        spec = est_spec(a)
        lb = coverage_lower_bound(kind, spec, setup)
        ub = coverage_upper_bound(spec, setup)
        grid_top = a + setup.xi * setup.eta + 10.0 * setup.xi / setup.root_n
        vals = [unknown_coverage(kind, float(t), 1.0, spec, setup)
                for t in np.linspace(0.0, grid_top, 41)]
        assert min(vals) >= lb - 1e-8
        assert min(vals) <= ub + 1e-8

    def test_upper_bound_frozen_values(self):
        cells = {
            ("hard", 0.05): 0.9594579560345138,
            ("soft", 0.05): 0.9537452428921065,
            ("asoft", 0.05): 0.9591110982301927,
            ("hard", 0.5): 0.9965470308396741,
            ("soft", 0.5): 0.9964761681914542,
            ("asoft", 0.5): 0.9965071737468242,
        }
        for (kind, eta), expected in cells.items():
            setup = reference_setup(eta=eta)
            spec = est_spec(ROOTS_ESTIMATED[(kind, eta)])
            assert coverage_upper_bound(spec, setup) == pytest.approx(
                expected, abs=1e-10)

    def test_upper_bound_degenerate(self):
        assert coverage_upper_bound(est_spec(0.0), SETUP) == 0.0

    def test_hard_lower_bound_clamps(self):
        setup = reference_setup(eta=0.5)
        assert coverage_lower_bound("hard", est_spec(0.01), setup) == 0.0

    def test_soft_bound_attained(self):
        # the soft bound is the actual infimum: the search should land on it
        a = ROOTS_ESTIMATED[("soft", 0.05)]
        spec = est_spec(a)
        value, _ = min_coverage_search("soft", spec, SETUP)
        assert value == pytest.approx(coverage_lower_bound("soft", spec, SETUP),
                                      abs=1e-9)


class TestManyResidualDof:
    """As m = n - k grows, T_m tends to Phi at rate 1/m, so the
    estimated-variance bound and its half-length carry over to the
    known-variance ones with gaps below 1/m (at most about 0.18/m and
    0.52/m at k = 35)."""

    @pytest.mark.parametrize("m", [10 ** 3, 10 ** 6])
    @pytest.mark.parametrize("eta", [0.05, 0.5])
    @pytest.mark.parametrize("kind", KINDS)
    def test_bound_and_half_length_carry_over(self, kind, eta, m):
        setup = ProblemSetup(n=35 + m, k=35, eta=eta)
        a = solve_known_half_length(kind, 0.05, setup)
        known = coverage_lower_bound(kind, IntervalSpec(a, a), setup)
        assert m * abs(coverage_lower_bound(kind, est_spec(a), setup) - known) < 1.0
        a_est = solve_unknown_half_length(kind, 0.05, setup)
        assert m * abs(a_est - a) / a < 1.0


class TestMinSearch:
    def test_hard_reference_cell(self):
        spec = est_spec(ROOTS_ESTIMATED[("hard", 0.05)])
        value, minimizer = min_coverage_search("hard", spec, SETUP)
        assert value == pytest.approx(0.959188, abs=5e-5)
        assert 0.37 <= minimizer <= 0.39

    def test_never_above_grid(self):
        spec = est_spec(ROOTS_ESTIMATED[("asoft", 0.05)])
        value, _ = min_coverage_search("asoft", spec, SETUP)
        for theta in np.linspace(0.0, 1.2, 25):
            assert value <= unknown_coverage("asoft", float(theta), 1.0, spec,
                                             SETUP) + 1e-9

    def test_refinement_ends_where_ulps_exceed_the_tolerance(self):
        # above theta ~ 8.6e9 an ulp exceeds 1e-6, so the bracket can never
        # be narrower than an absolute 1e-6; the objective stops a search
        # that would not end
        calls = []

        def f(theta):
            calls.append(theta)
            if len(calls) > 500:
                raise RuntimeError("golden-section search does not end")
            return (theta - 1.2e10) ** 2

        theta, _ = _golden_section_min(f, 1e10, 1.4e10, 1e-6)
        assert theta == pytest.approx(1.2e10, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("eta", [0.05, 0.5])
    def test_scales_with_xi(self, kind, eta):
        # coverage reads theta and a only through theta / xi and a / xi, so
        # at power-of-two xi every grid and golden-section point scales
        # exactly, the refinement tolerance with them
        a = solve_unknown_half_length(kind, 0.05, reference_setup(eta=eta))
        want = min_coverage_search(kind, est_spec(a), reference_setup(eta=eta))
        for xi in (2.0 ** -34, 2.0 ** 34):
            got = min_coverage_search(kind, est_spec(a * xi), reference_setup(eta=eta, xi=xi))
            assert got == (want[0], want[1] * xi)


class TestSimpleInterval:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("mode", list(VarianceMode))
    def test_monotone_in_width(self, kind, mode):
        setup = reference_setup(eta=0.3)
        vals = [simple_interval_infimal(kind, d, setup, mode)
                for d in (0.0, 0.5, 1.0, 1.5, 2.5)]
        assert vals[0] == 0.0
        assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))
        assert vals[-1] > 0.5

    def test_soft_known_unit_width_is_half(self):
        # at d = 1 the lower edge sits exactly at the soft shift
        n = 10 ** 6
        setup = ProblemSetup(n=n, k=n - 5, eta=n ** -0.25)
        got = simple_interval_infimal("soft", 1.0, setup, VarianceMode.KNOWN)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_width_validation(self):
        with pytest.raises(DomainError):
            simple_interval_infimal("soft", -0.1, SETUP, VarianceMode.KNOWN)
        with pytest.raises(DomainError):
            simple_interval_infimal("soft", math.inf, SETUP, VarianceMode.KNOWN)
