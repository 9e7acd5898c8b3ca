"""Extreme parameters end in a value in range or a typed error, silently.

A seeded sweep of every estimator kind over xi in {1e-10, 1, 1e10}, sigma
in {1, 1e-315} (sigma xi subnormal at xi = 1, and 0 at xi = 1e-10), theta
in {0, +-1e-300, +-1e300} and two O(1) values, m in {1, 5, 995}, and
interval arms up to 1.7e308.  Each CDF, density and coverage is called
with a scalar and with an array argument, under np.errstate(all="raise")
and with every warning an error; so is the consistent limit law at zeta =
theta / (xi eta), for m = n - k and m = inf.  A call must return finite
values in range (a probability in [0, 1], a density >= 0) or raise
DomainError or NumericsError: no invalid operation and no NaN on the way,
and no overflow outside the exact laws and coverages.  Inside those
(known_coverage, unknown_coverage, min_coverage_search, tilde_cdf,
tilde_density and conservative_limit_cdf) overflow saturates to +-inf, as
every overflowing value there feeds Phi, T_m or their densities, so the
sweep's raise-on-overflow does not see into them; value assertions do.  The
typed errors are listed: a change that turns a value into an error, or an
error into a value, fails the sweep.

The Monte Carlo entry points get a grid of their own, n <= 200 since the
full-design path builds an n x k design: (n, k) in {(36, 35), (40, 35),
(200, 5)}, eta in {1e-8, 0.05, 1e3}, xi in {1e-10, 1, 1e10}, theta from
0 and 5e-324 to +-1e300, and 257 replications, with both variance modes.

Arms on the scale of a threshold of 1e306, where sqrt(n) arm nears the
overflow, keep the coverage values that were computed without one.  At
thresholds of 1e306, 1e308 and 1.7e308 with O(1) theta and arms, where eta
s nears or passes the overflow along the rho_m mixture, every estimate is 0,
and each law, coverage, solved length and searched worst case has a closed
form that the calls must give.  The Monte Carlo paths and `estimate` kill
every estimate there too, also where the cutoff c xi eta overflows.  At
scales xi of 1e307 and 1e308, every half-length is xi times its value at
xi = 1 and every bound and searched worst case keeps its value; where xi
eta passes the largest double, the solvers raise BracketError.

So do the half-length solvers, at alpha 0.05, 1 - 1e-12 and 1 - 2^-53, and
the worst-case search, at the solved estimated-variance half-length and at
an arm of 1.7e308: (n, k) in {(36, 35), (40, 35), (10^6, 35)}, xi in
{1e-10, 1, 1e10} and eta in {1e-8, 0.3, 1e3}.  A length must be finite and
positive, above xi eta / 2 for hard, a coverage in [0, 1].  A solved length
must be a root of its infimal coverage less 1 - alpha to within Brent's
tolerance, and where that tolerance reaches the lower end of the bracket,
the shortest double whose infimal coverage reaches 1 - alpha.
"""

import dataclasses
import functools
import itertools
import math
import sys
import warnings

import numpy as np
import pytest
from scipy import stats

from threshcov import (
    BracketError,
    ConservativeRegime,
    ConsistentRegime,
    DomainError,
    EstimatorKind,
    IntervalSpec,
    NumericsError,
    ProblemSetup,
    ScalingFactor,
    SimulationPlan,
    ThresholdRule,
    VarianceMode,
    component_draws,
    conservative_limit_cdf,
    consistent_limit_cdf,
    coverage_lower_bound,
    coverage_upper_bound,
    estimate,
    known_coverage,
    min_coverage_search,
    simulate_coverage,
    simulate_coverage_full,
    simulate_scaled_error_ecdf,
    solve_known_half_length,
    solve_unknown_half_length,
    standard_ls_interval,
    std_normal_quantile,
    synthetic_design,
    tilde_cdf,
    tilde_density,
    uniform_field,
    unknown_coverage,
)

XIS = (1e-10, 1.0, 1e10)
DOFS = (1, 5, 995)
TINY_SIGMA = 1e-315
WIDE_ARMS = (1e308, 1.7e308)
# find_root's relative tolerance
ROOT_RTOL = 4.0 * np.finfo(float).eps


def cells(seed):
    """(kind, setup, thetas, xs, halves): xs in units of the conservative
    scale a xi = sqrt(n), the hard dead-zone edges among them, and interval
    half-lengths, two in units of xi (one on the dead-zone edge) and the
    wide arms.  Each setup comes at sigma = 1 and at TINY_SIGMA."""
    rng = np.random.default_rng(seed)
    for xi in XIS:
        for m in DOFS:
            eta = float(10.0 ** rng.uniform(-2.0, 1.0))
            setup = ProblemSetup(n=35 + m, k=35, xi=xi, eta=eta)
            thetas = [0.0, 1e-300, -1e-300, 1e300, -1e300, *rng.uniform(-2.0, 2.0, 2)]
            scale = setup.root_n
            xs = [0.0, eta * scale, -eta * scale, 1e200, -1e200,
                  *(scale * rng.uniform(-4.0, 4.0, 2))]
            halves = [eta * xi, float(rng.uniform(0.05, 3.0)) * xi, *WIDE_ARMS]
            for kind in EstimatorKind:
                for sigma in (1.0, TINY_SIGMA):
                    yield kind, dataclasses.replace(setup, sigma=sigma), thetas, xs, halves


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
# typed error; none is expected, also for hard tilde_density exactly at
# the dead-zone edges x = +-eta sqrt(n) (indices 1 and 2), at TINY_SIGMA
# and at the wide arms.
TYPED_ERRORS = {1: [], 2: []}


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
                    check(lambda: known_coverage(kind, theta, setup.sigma, known, setup), 0.0,
                          1.0, errors, ("known_coverage", kind.value, *where))
                    check(lambda: unknown_coverage(kind, theta, setup.sigma, estimated, setup),
                          0.0, 1.0, errors, ("unknown_coverage", kind.value, *where))
    assert errors == TYPED_ERRORS[seed]


# (kind, half-length): known coverage, estimated coverage at each lone theta
# and as one array, at NEAR_WIDE_THETAS with n = 40, k = 35, xi = 1 and eta =
# 1e306.  sqrt(n) times the arm 1e306 nears the overflow; these are the
# values computed before coverage let an overflow saturate, none of which
# overflowed.
NEAR_WIDE_THETAS = (3e305, 7e305, 1.5e306, -3e306)
NEAR_WIDE = {
    ("hard", 5e305): ([1.0, 0.0, 1.0, 1.0],
                      [0.8822284910791535, 0.2968689232921321, 0.9533575709992781,
                       0.9999999854879345],
                      [0.8822284910791536, 0.2968689232921321, 0.9533575709992779,
                       0.9999999854879342]),
    ("hard", 1e306): ([1.0, 1.0, 1.0, 1.0],
                      [0.9999999999990001, 0.9999999999989999, 0.9999999999990001,
                       0.999999999999],
                      [0.9999999999990001, 0.9999999999989999, 0.9999999999990001,
                       0.999999999999]),
    ("soft", 5e305): ([1.0, 0.0, 0.0, 0.0],
                      [0.8760684003236601, 0.08110460591209484, 1.450777169658271e-08, 0.0],
                      [0.8760684003236601, 0.08110460591209484, 1.450777169658271e-08, 0.0]),
    ("soft", 1e306): ([1.0, 1.0, 0.5, 0.5],
                      [0.9969199546015339, 0.8920028095943875, 0.5233212217803839,
                       0.5000000072533859],
                      [0.9969199546015339, 0.8920028095943875, 0.5233212217803839,
                       0.5000000072533859]),
    ("asoft", 5e305): ([1.0, 0.0, 0.0, 1.0],
                       [0.8762853265784942, 0.09368083442769513, 0.27113448818503383,
                        0.9533575564117258],
                       [0.8762853265784942, 0.09368083442769515, 0.27113448818503383,
                        0.953357556411726]),
    ("asoft", 1e306): ([1.0, 1.0, 1.0, 1.0],
                       [0.9999999999990001, 0.999999999999, 0.9999999999990001,
                        0.999999999999],
                       [0.9999999999990001, 0.999999999999, 0.9999999999990001,
                        0.999999999999]),
}


def test_arms_near_the_overflow_keep_their_values():
    setup = ProblemSetup(n=40, k=35, xi=1.0, eta=1e306)
    thetas = np.array(NEAR_WIDE_THETAS)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for (kind, half), (known, lone, batch) in NEAR_WIDE.items():
            spec = IntervalSpec(half, half)
            estimated = IntervalSpec(half, half, VarianceMode.ESTIMATED)
            assert known_coverage(kind, thetas, 1.0, spec, setup).tolist() == known
            assert [known_coverage(kind, t, 1.0, spec, setup) for t in thetas] == known
            assert [unknown_coverage(kind, t, 1.0, estimated, setup)
                    for t in NEAR_WIDE_THETAS] == lone
            assert unknown_coverage(kind, thetas, 1.0, estimated, setup).tolist() == batch


# Thresholds near the largest double, at n = 40, k = 35, xi = 1 and O(1)
# theta, x and arms: the threshold kills every estimate, so known coverage is
# 1{|theta| <= a}, estimated coverage P(s >= |theta| / a) = 1 - F(m (theta /
# a)^2), F the chi-square CDF with m = 5, and the error alpha (0 - theta) /
# s has CDF F(m (alpha theta / x)^2) at x < 0 (theta > 0) or its complement
# at x > 0 (theta < 0).  A solved length is the double after eta, within
# Brent's tolerance: at eta itself the infimal coverage is 1/2.
HUGE_ETAS = (1e306, 1e308, 1.7e308)
HUGE_THETAS = (0.0, 0.4, -1.3, 2.5)
HUGE_XS = (-2.0, -0.3, 0.7, 3.0)
HUGE_HALF = 1.1


def killed_error_law(theta, x, alpha, m):
    """CDF and density at x != 0 of -alpha theta / s, s ~ rho_m."""
    if theta == 0.0 or x * theta > 0.0:
        return float(x > 0.0), 0.0
    u = m * (alpha * theta / x) ** 2
    cdf = stats.chi2.cdf(u, m)
    return (cdf if x < 0.0 else 1.0 - cdf), 2.0 * u / abs(x) * stats.chi2.pdf(u, m)


@pytest.mark.parametrize("kind", list(EstimatorKind))
@pytest.mark.parametrize("eta", HUGE_ETAS)
def test_huge_thresholds_give_the_killed_values(eta, kind):
    setup = ProblemSetup(n=40, k=35, xi=1.0, eta=eta)
    m, alpha = setup.residual_dof, ScalingFactor.conservative(setup)
    known = IntervalSpec(HUGE_HALF, HUGE_HALF)
    estimated = IntervalSpec(HUGE_HALF, HUGE_HALF, VarianceMode.ESTIMATED)
    thetas, xs = np.array(HUGE_THETAS), np.array(HUGE_XS)
    covered = (np.abs(thetas) <= HUGE_HALF).astype(float)
    estimated_want = stats.chi2.sf(m * (thetas / HUGE_HALF) ** 2, m)
    laws = [np.array([killed_error_law(theta, x, alpha, m) for x in HUGE_XS]).T
            for theta in HUGE_THETAS]
    near = functools.partial(pytest.approx, rel=1e-9, abs=1e-9)
    shortest = math.nextafter(eta, math.inf)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert known_coverage(kind, thetas, 1.0, known, setup).tolist() == covered.tolist()
        assert unknown_coverage(kind, thetas, 1.0, estimated, setup) == near(estimated_want)
        for theta, cover, want, (cdf, density) in zip(HUGE_THETAS, covered, estimated_want,
                                                      laws):
            assert known_coverage(kind, theta, 1.0, known, setup) == cover
            assert unknown_coverage(kind, theta, 1.0, estimated, setup) == near(want)
            assert tilde_cdf(kind, xs, setup, theta, alpha) == near(cdf)
            assert tilde_density(kind, xs, setup, theta, alpha) == near(density)
            for x, c, d in zip(HUGE_XS, cdf, density):
                assert tilde_cdf(kind, x, setup, theta, alpha) == near(c)
                assert tilde_density(kind, x, setup, theta, alpha) == near(d)
        for mode, solve in ((VarianceMode.KNOWN, solve_known_half_length),
                            (VarianceMode.ESTIMATED, solve_unknown_half_length)):
            a = solve(kind, 0.05, setup)
            assert shortest <= a <= shortest + ROOT_RTOL * a, (mode, a)
            assert coverage_lower_bound(kind, IntervalSpec(eta, eta, mode), setup) == 0.5
            assert coverage_lower_bound(kind, IntervalSpec(a, a, mode), setup) == 1.0
        value, theta = min_coverage_search(kind, estimated, setup)
    # the infimum, approached as theta grows: 0 in double precision at theta
    ratio = theta / HUGE_HALF  # its square overflows, silently on floats
    assert value == 0.0 == stats.chi2.sf(m * ratio * ratio, m), theta


# Scales near the largest double, at n = 40, k = 35 and O(1) eta: every
# half-length is xi times its value at xi = 1, and every coverage its value
# there, to within the 1e-10 tolerance of the xi = 1 root.  Where xi eta
# passes the largest double, so does every length the infimum would accept.
HUGE_XIS = (1e307, 1e308)
HUGE_XI_ETAS = (0.05, 0.5)
SOLVERS = {VarianceMode.KNOWN: solve_known_half_length,
           VarianceMode.ESTIMATED: solve_unknown_half_length}


def unit_scale_values(kind, eta, xi, mode):
    """Half-length / xi, both bounds at it, the LS half-length / xi and,
    with estimated variance, the searched minimum coverage."""
    setup = ProblemSetup(n=40, k=35, xi=xi, eta=eta)
    a = SOLVERS[mode](kind, 0.05, setup)
    spec = IntervalSpec(a, a, mode)
    values = [a / xi, coverage_lower_bound(kind, spec, setup), coverage_upper_bound(spec, setup),
              standard_ls_interval(setup, mode, 0.05) / xi]
    if mode is VarianceMode.ESTIMATED:
        values.append(min_coverage_search(kind, spec, setup)[0])
    return values


def test_huge_scales_give_the_unit_scale_values():
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for kind, eta, mode in itertools.product(EstimatorKind, HUGE_XI_ETAS, VarianceMode):
            want = unit_scale_values(kind, eta, 1.0, mode)
            for xi in HUGE_XIS:
                got = unit_scale_values(kind, eta, xi, mode)
                assert got == pytest.approx(want, rel=0.0, abs=1e-8), (kind, eta, mode, xi)


@pytest.mark.parametrize("xi, eta", [(1e308, 2.0), (1e300, 1e10), (sys.float_info.max, 1.5)])
def test_overflowing_thresholds_raise_bracket_errors(xi, eta):
    setup = ProblemSetup(n=40, k=35, xi=xi, eta=eta)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for kind, solve in itertools.product(EstimatorKind, SOLVERS.values()):
            with pytest.raises(BracketError, match="could not bracket"):
                solve(kind, 0.05, setup)


def test_largest_scale_search_lies_between_the_bounds():
    """At xi = the largest double, soft's minimizer (2.38 xi at eta 0.5)
    is not a double, so only the bounds are asserted: soft's search nears
    its infimum, the lower bound, to the quadrature's 1e-10."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for kind, eta in itertools.product(EstimatorKind, HUGE_XI_ETAS):
            setup = ProblemSetup(n=40, k=35, xi=sys.float_info.max, eta=eta)
            a = solve_unknown_half_length(kind, 0.05, setup)
            spec = IntervalSpec(a, a, VarianceMode.ESTIMATED)
            value, _ = min_coverage_search(kind, spec, setup)
            lower, upper = coverage_lower_bound(kind, spec, setup), coverage_upper_bound(spec, setup)
            assert lower - 1e-10 <= value <= upper, (kind, eta, lower, value, upper)


SIM_SHAPES = ((36, 35), (40, 35), (200, 5))
SIM_ETAS = (1e-8, 0.05, 1e3)
SIM_THETAS = (0.0, 5e-324, -1e-300, 0.3, -1e6, 1e200, 1e300, -1e300)


def ecdf_and_zero_mass(plan, kind, alpha, grid):
    res = simulate_scaled_error_ecdf(plan, kind, alpha, grid)
    return [*res.values, res.zero_mass]


def test_simulate_entry_points_give_values_in_range_or_typed_errors():
    errors = []
    grid = np.array([-math.inf, -4.0, -0.5, 0.0, 0.5, 4.0, math.inf])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for (n, k), eta, xi, theta in itertools.product(SIM_SHAPES, SIM_ETAS, XIS,
                                                        SIM_THETAS):
            setup = ProblemSetup(n=n, k=k, xi=xi, eta=eta)
            plan = SimulationPlan(setup=setup, theta=theta, reps=257, seed=7)
            half = xi * (eta + 1.5 / setup.root_n)
            alpha = ScalingFactor.conservative(setup)
            for kind in EstimatorKind:
                where = (kind.value, n, eta, xi, theta)
                for mode in VarianceMode:
                    spec = IntervalSpec(half, half, mode)
                    check(lambda: simulate_coverage(plan, kind, spec), 0.0, 1.0, errors,
                          ("simulate_coverage", mode.value, *where))
                    check(lambda: simulate_coverage_full(plan, kind, spec), 0.0, 1.0,
                          errors, ("simulate_coverage_full", mode.value, *where))
                check(lambda: ecdf_and_zero_mass(plan, kind, alpha, grid), 0.0, 1.0,
                      errors, ("simulate_scaled_error_ecdf", *where))
    # X theta = sqrt(n) theta / xi overflows at xi = 1e-10, theta = +-1e300
    assert errors == [("simulate_coverage_full", mode.value, kind.value, n, eta, 1e-10, theta,
                       "DomainError")
                      for (n, _), eta, theta, kind, mode in itertools.product(
                          SIM_SHAPES, SIM_ETAS, (1e300, -1e300), EstimatorKind, VarianceMode)]


# Thresholds near the largest double in the Monte Carlo paths, at n = 40,
# k = 35 and xi = 1: the cutoff c xi eta kills every estimate, or overflows
# to inf, which kills it too.  So every estimate is exactly 0, [0 - c a,
# 0 + c a] covers iff |theta| <= c a, and the error is alpha (0 - theta) / c.
# The fast paths read c from component_draws; the full path draws n
# normals per replication from the same stream and fits them.
SIM_HUGE_THETAS = (0.4, -1.3)


def full_path_sigma_hats(plan):
    """sigma_hat of each replication of simulate_coverage_full on the
    default synthetic design, whose residuals do not depend on theta."""
    setup = plan.setup
    n = setup.n
    X = synthetic_design(n, setup.k, setup.xi)
    Z = std_normal_quantile(uniform_field(plan.seed, 0, plan.reps * n)).reshape(plan.reps, n)
    Q = np.linalg.qr(X)[0]
    resid = Z - (Z @ Q) @ Q.T
    return np.sqrt((resid * resid).sum(axis=1) / setup.residual_dof)


@pytest.mark.parametrize("eta", HUGE_ETAS)
def test_huge_thresholds_kill_every_simulated_estimate(eta):
    setup = ProblemSetup(n=40, k=35, xi=1.0, eta=eta)
    alpha = ScalingFactor.conservative(setup)
    grid = np.array([-math.inf, -4.0, -0.5, 0.0, 0.5, 4.0, math.inf])
    rng = np.random.default_rng(3)
    X = synthetic_design(setup.n, setup.k)
    # sigma_hat near 3: sigma_hat xi eta overflows at eta = 1e308
    y = X @ rng.uniform(-2.0, 2.0, setup.k) + 3.0 * rng.standard_normal(setup.n)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for theta, kind in itertools.product(SIM_HUGE_THETAS, EstimatorKind):
            plan = SimulationPlan(setup=setup, theta=theta, reps=257, seed=7)
            s_fast, s_full = component_draws(plan)[1], full_path_sigma_hats(plan)
            for mode in VarianceMode:
                spec = IntervalSpec(HUGE_HALF, HUGE_HALF, mode)
                known = mode is VarianceMode.KNOWN
                for run, s in ((simulate_coverage, s_fast), (simulate_coverage_full, s_full)):
                    c = 1.0 if known else s
                    want = np.mean(abs(theta) <= c * HUGE_HALF)
                    assert run(plan, kind, spec)[0] == want, (run.__name__, mode, theta, kind)
            res = simulate_scaled_error_ecdf(plan, kind, alpha, grid)
            errors = alpha * (0.0 - theta) / s_fast
            assert res.values.tolist() == [np.mean(errors <= g) for g in grid], (theta, kind)
            assert res.zero_mass == 1.0
            for sigma in (None, 1.0):
                rule = ThresholdRule(kind, eta, sigma=sigma)
                assert not estimate(X, y, rule).any(), (kind, sigma)


SOLVER_SHAPES = ((36, 35), (40, 35), (10 ** 6, 35))
SOLVER_ETAS = (1e-8, 0.3, 1e3)
# 1 - alpha of 1e-12 and 2^-53 puts the root within the solver's tolerance
# of its lower end, where the infimum is 0
SOLVER_ALPHAS = (0.05, 1.0 - 1e-12, 1.0 - 2.0 ** -53)


def test_solvers_and_search_give_values_in_range_or_typed_errors():
    errors = []
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for (n, k), xi, eta, kind in itertools.product(SOLVER_SHAPES, XIS, SOLVER_ETAS,
                                                       EstimatorKind):
            setup = ProblemSetup(n=n, k=k, xi=xi, eta=eta)
            where = (kind.value, n, xi, eta)
            # a length of 0, or for hard one at xi eta / 2 (infimum 0), fails
            least = math.nextafter(0.5 * xi * eta if kind is EstimatorKind.HARD else 0.0,
                                   math.inf)
            for alpha, solve in itertools.product(SOLVER_ALPHAS, (solve_known_half_length,
                                                                  solve_unknown_half_length)):
                check(lambda: solve(kind, alpha, setup), least, math.inf, errors,
                      (solve.__name__, alpha, *where))
            wide = IntervalSpec(WIDE_ARMS[-1], WIDE_ARMS[-1], VarianceMode.ESTIMATED)
            check(lambda: min_coverage_search(kind, wide, setup)[0], 0.0, 1.0, errors,
                  ("min_coverage_search", "wide", *where))
            try:
                a = solve_unknown_half_length(kind, 0.05, setup)
            except (DomainError, NumericsError) as exc:
                errors.append(("solve_unknown_half_length", *where, type(exc).__name__))
                continue
            assert 0.0 < a < math.inf, a
            spec = IntervalSpec(a, a, VarianceMode.ESTIMATED)
            check(lambda: min_coverage_search(kind, spec, setup)[0], 0.0, 1.0, errors,
                  ("min_coverage_search", *where))
    assert errors == []


@pytest.mark.parametrize("mode", list(VarianceMode))
def test_half_lengths_reach_one_minus_alpha(mode):
    """The solver's bracket starts at [lo, start] and doubles its upper end,
    and Brent's tolerance is min(1e-10, 1e-8 of that end) plus ROOT_RTOL of
    the root: at least floor, at most ceiling below."""
    solve = solve_known_half_length if mode is VarianceMode.KNOWN else solve_unknown_half_length
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        for (n, k), xi, eta, kind, alpha in itertools.product(
                SOLVER_SHAPES, XIS, SOLVER_ETAS, EstimatorKind, SOLVER_ALPHAS):
            setup = ProblemSetup(n=n, k=k, xi=xi, eta=eta)
            target = 1.0 - alpha
            lo = 0.5 * xi * eta if kind is EstimatorKind.HARD else 0.0
            start = max(xi * eta, xi / setup.root_n)

            def reach(a):
                return coverage_lower_bound(kind, IntervalSpec(a, a, mode), setup)

            a = solve(kind, alpha, setup)
            floor = min(1e-10, 1e-8 * start) + ROOT_RTOL * a
            ceiling = min(1e-10, 1e-8 * max(start, 2.0 * a)) + ROOT_RTOL * a
            where = (kind.value, n, xi, eta, alpha, a)
            if a - lo <= floor:
                assert reach(a) >= target > reach(math.nextafter(a, 0.0)), where
            else:
                assert reach(max(a - ceiling, lo)) <= target <= reach(a + ceiling), where
