"""Counter-based simulation: reproducibility, partition invariance, and
agreement with the analytic laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshcov import (
    DomainError,
    EcdfResult,
    IntervalSpec,
    ProblemSetup,
    ScalingFactor,
    SimulationPlan,
    VarianceMode,
    atom_mass,
    chi_sq_quantile,
    component_draws,
    compute_xi_all,
    coverage_lower_bound,
    kernel,
    known_coverage,
    ls_fit,
    reference_setup,
    simulate_coverage,
    simulate_coverage_full,
    simulate_scaled_error_ecdf,
    solve_unknown_half_length,
    std_normal_quantile,
    synthetic_design,
    t_quantile,
    uniform_field,
    unknown_coverage,
)

from threshcov import simulate

from conftest import analytic_cdf_interpolator, ks_distance

SETUP = reference_setup()


def est_spec(a):
    return IntervalSpec(a, a, VarianceMode.ESTIMATED)


class TestUniformField:
    def test_partition_invariance(self):
        whole = uniform_field(42, 0, 100)
        split = np.concatenate([uniform_field(42, 0, 37),
                                uniform_field(42, 37, 63)])
        assert np.array_equal(whole, split)

    def test_mid_block_start(self):
        # starts that do not align with the 4-word counter blocks
        whole = uniform_field(7, 0, 23)
        for start in (1, 2, 3, 5, 9, 22):
            tail = uniform_field(7, start, 23 - start)
            assert np.array_equal(whole[start:], tail)

    def test_open_interval(self):
        u = uniform_field(1, 0, 10_000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_deterministic(self):
        assert np.array_equal(uniform_field(9, 100, 50), uniform_field(9, 100, 50))

    def test_distinct_seeds(self):
        assert not np.array_equal(uniform_field(1, 0, 50), uniform_field(2, 0, 50))

    def test_validation(self):
        with pytest.raises(DomainError):
            uniform_field(1, -1, 10)
        with pytest.raises(DomainError):
            uniform_field(1, 0, -5)
        with pytest.raises(DomainError):
            uniform_field(1, 0, 2.5)
        with pytest.raises(DomainError):
            uniform_field(-1, 0, 2)
        assert uniform_field(1, 0, 0).size == 0

    @pytest.mark.parametrize("top_bits, expected", [
        (0, 0.5 * 2.0 ** -53),
        (2 ** 52, 0.5),
        (2 ** 53 - 2, 1.0 - 2.0 ** -52),
        # (2^53 - 1/2) 2^-53 rounds to 1.0: clamped to the double below it
        (2 ** 53 - 1, 1.0 - 2.0 ** -53),
    ])
    def test_extreme_words(self, top_bits, expected, monkeypatch):
        class OneWord(np.random.Philox):
            def random_raw(self, size=None, output=True):
                return np.full(size, (top_bits << 11) | (2 ** 11 - 1), dtype=np.uint64)

        monkeypatch.setattr(simulate.np.random, "Philox", OneWord)
        u = uniform_field(1, 3, 5)
        assert np.all(u == expected)
        assert np.all(np.isfinite(std_normal_quantile(u)))
        assert np.all(np.isfinite(chi_sq_quantile(u, 5)))

    def test_mean_and_spread(self):
        u = uniform_field(3, 0, 200_000)
        assert abs(u.mean() - 0.5) < 4.0 * math.sqrt(1.0 / 12.0 / u.size)
        assert abs(u.var() - 1.0 / 12.0) < 1e-3


class TestPlanValidation:
    def test_seed_range(self):
        with pytest.raises(DomainError):
            SimulationPlan(setup=SETUP, theta=0.0, reps=10, seed=0)
        with pytest.raises(DomainError):
            SimulationPlan(setup=SETUP, theta=0.0, reps=10, seed=2 ** 64)
        SimulationPlan(setup=SETUP, theta=0.0, reps=10, seed=2 ** 64 - 1)

    def test_reps_positive(self):
        with pytest.raises(DomainError):
            SimulationPlan(setup=SETUP, theta=0.0, reps=0, seed=1)

    @pytest.mark.parametrize("reps", [10.0, True, 1e5])
    def test_reps_integer(self, reps):
        with pytest.raises(DomainError):
            SimulationPlan(setup=SETUP, theta=0.0, reps=reps, seed=1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, math.nan, True])
    def test_seed_integer(self, seed):
        # a float seed used to be truncated to another seed's key
        with pytest.raises(DomainError):
            SimulationPlan(setup=SETUP, theta=0.0, reps=10, seed=seed)

    def test_numpy_integers_accepted(self):
        plan = SimulationPlan(setup=SETUP, theta=0.0, reps=np.int64(10),
                              seed=np.uint64(2 ** 64 - 1))
        assert simulate_coverage(plan, "hard", IntervalSpec(0.3, 0.3))[0] in (
            np.arange(11) / 10)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_theta_finite(self, theta):
        with pytest.raises(DomainError):
            SimulationPlan(setup=SETUP, theta=theta, reps=10, seed=1)
        vec = np.zeros(SETUP.k)
        vec[-1] = theta
        with pytest.raises(DomainError):
            SimulationPlan(setup=SETUP, theta=vec, reps=10, seed=1)

    def test_theta_vector_shape(self):
        plan = SimulationPlan(setup=SETUP, theta=np.zeros(3), reps=10, seed=1)
        with pytest.raises(DomainError):
            plan.component_theta
        with pytest.raises(DomainError):
            plan.theta_vector()

    def test_theta_vector_expansion(self):
        plan = SimulationPlan(setup=SETUP, theta=0.7, reps=10, seed=1)
        vec = plan.theta_vector()
        assert vec.shape == (SETUP.k,)
        assert vec[SETUP.component_index - 1] == 0.7
        assert np.count_nonzero(vec) == 1
        assert plan.component_theta == 0.7


class TestComponentDraws:
    def test_partition_invariance(self):
        plan = SimulationPlan(setup=SETUP, theta=0.3, reps=1000, seed=5)
        ls_all, sh_all = component_draws(plan)
        ls_a, sh_a = component_draws(plan, 0, 400)
        ls_b, sh_b = component_draws(plan, 400, 1000)
        assert np.array_equal(ls_all, np.concatenate([ls_a, ls_b]))
        assert np.array_equal(sh_all, np.concatenate([sh_a, sh_b]))

    def test_range_validation(self):
        plan = SimulationPlan(setup=SETUP, theta=0.0, reps=100, seed=5)
        with pytest.raises(DomainError):
            component_draws(plan, -1, 10)
        with pytest.raises(DomainError):
            component_draws(plan, 0, 101)
        with pytest.raises(DomainError):
            component_draws(plan, 50, 40)
        with pytest.raises(DomainError):
            component_draws(plan, 0.5, 2)

    def test_ls_moments(self):
        plan = SimulationPlan(setup=SETUP, theta=0.25, reps=100_000, seed=11)
        ls, _ = component_draws(plan)
        sd = SETUP.sigma * SETUP.xi / SETUP.root_n
        assert abs(ls.mean() - 0.25) < 4.0 * sd / math.sqrt(plan.reps)
        assert abs(ls.std() - sd) < 4.0 * sd / math.sqrt(2.0 * plan.reps)

    def test_variance_estimate_moments(self):
        plan = SimulationPlan(setup=SETUP, theta=0.0, reps=100_000, seed=13)
        _, sigma_hat = component_draws(plan)
        s2 = sigma_hat ** 2
        m = SETUP.residual_dof
        n_reps = plan.reps
        # sigma_hat^2 is a scaled chi-square with mean 1 and variance 2/m
        se_mean = math.sqrt(2.0 / m / n_reps)
        assert abs(s2.mean() - 1.0) < 4.0 * se_mean
        var = 2.0 / m
        se_var = math.sqrt((8.0 * m * m + 48.0 * m) / m ** 4 / n_reps)
        assert abs(s2.var() - var) < 4.0 * se_var

    def test_saturated_design_has_no_scale(self):
        setup = ProblemSetup(n=5, k=5)
        plan = SimulationPlan(setup=setup, theta=0.0, reps=10, seed=5)
        _, sigma_hat = component_draws(plan)
        assert sigma_hat is None


def known_hits(plan, kind, spec, ranges):
    """Known-variance hits recomputed from component_draws over the ranges."""
    setup, theta = plan.setup, plan.component_theta
    hits = 0
    for start, stop in ranges:
        ls, _ = component_draws(plan, start, stop)
        est = kernel(kind, ls, setup.sigma * setup.xi * setup.eta)
        inside = ((est - setup.sigma * spec.a <= theta)
                  & (theta <= est + setup.sigma * spec.b))
        hits += int(np.count_nonzero(inside))
    return hits


class TestKnownVarianceDraws:
    """Known-variance cells transform only the Gaussian uniforms; the hits
    must equal those of the full (estimate, sigma_hat) draws."""

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("m", [5, 995])
    def test_hits_match_component_draws(self, kind, m, monkeypatch):
        setup = ProblemSetup(n=35 + m, k=35, eta=0.3)
        plan = SimulationPlan(setup=setup, theta=0.4 / setup.root_n, reps=3001,
                              seed=80 + m)
        spec = IntervalSpec(0.9 / setup.root_n, 0.7 / setup.root_n)
        # several blocks of simulate_coverage, recomputed over ranges that
        # start elsewhere (nonzero starts, odd sizes)
        monkeypatch.setattr(simulate, "_BRACKET_REPS", 700)
        p, _ = simulate_coverage(plan, kind, spec)
        ranges = [(0, 333), (333, 1500), (1500, 3001)]
        assert round(p * plan.reps) == known_hits(plan, kind, spec, ranges)

    @pytest.mark.parametrize("path, kind, setup, theta, reps, seed, a, b, hits", [
        ("fast", "hard", SETUP, 0.2, 50_000, 61, 0.3, 0.35, 47816),
        ("fast", "soft", ProblemSetup(n=1030, k=35, eta=0.05), 0.01, 50_000, 62,
         0.03, 0.02, 49155),
        ("fast", "asoft", ProblemSetup(n=5, k=5, eta=0.4), -0.3, 50_000, 63,
         0.5, 0.4, 43495),
        ("full", "hard", SETUP, 0.2, 4_000, 64, 0.3, 0.35, 3827),
        ("full", "asoft", ProblemSetup(n=40, k=35, eta=0.5), 0.4, 4_000, 65,
         0.15, 0.12, 177),
    ])
    def test_pinned_counts(self, path, kind, setup, theta, reps, seed, a, b, hits):
        # counts of the code that still inverted the chi-square draw for these
        # cells: skipping it must not change a single draw
        plan = SimulationPlan(setup=setup, theta=theta, reps=reps, seed=seed)
        run = simulate_coverage if path == "fast" else simulate_coverage_full
        p, _ = run(plan, kind, IntervalSpec(a, b))
        assert round(p * reps) == hits

    def test_known_variance_never_inverts_the_chi_square(self, monkeypatch):
        def refuse(p, m):
            raise RuntimeError("chi-square inverse called")

        monkeypatch.setattr(simulate, "chi_sq_quantile", refuse)
        plan = SimulationPlan(setup=SETUP, theta=0.1, reps=2000, seed=90)
        simulate_coverage(plan, "soft", IntervalSpec(0.3, 0.3))
        simulate_coverage_full(plan, "soft", IntervalSpec(0.3, 0.3))
        with pytest.raises(RuntimeError):
            simulate_coverage(plan, "soft", est_spec(0.3))

    def test_full_path_known_variance_skips_residuals(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("residual pass run")

        monkeypatch.setattr(simulate, "_residual_scale", refuse)
        plan = SimulationPlan(setup=SETUP, theta=0.1, reps=200, seed=91)
        simulate_coverage_full(plan, "hard", IntervalSpec(0.3, 0.3))
        with pytest.raises(RuntimeError):
            simulate_coverage_full(plan, "hard", est_spec(0.3))


def invert_every_draw(plan):
    """LS estimates and sigma_hats of every replication, each chi-square
    uniform inverted: the expression the bracketed path must reproduce."""
    setup = plan.setup
    m = setup.residual_dof
    u = uniform_field(plan.seed, 0, 2 * plan.reps)
    ls = (plan.component_theta
          + setup.sigma * setup.xi / setup.root_n * std_normal_quantile(u[0::2]))
    chi = chi_sq_quantile(u[1::2], m)
    return ls, setup.sigma * np.sqrt(chi / m)


def reference_hits(plan, kind, spec):
    setup, theta = plan.setup, plan.component_theta
    ls, sigma_hat = invert_every_draw(plan)
    est = kernel(kind, ls, sigma_hat * setup.xi * setup.eta)
    inside = ((est - sigma_hat * spec.a <= theta)
              & (theta <= est + sigma_hat * spec.b))
    return int(np.count_nonzero(inside))


def reference_ecdf(plan, kind, alpha, grid):
    """ECDF counts at the grid and the exact-zero count, from sorted errors."""
    setup, theta = plan.setup, plan.component_theta
    ls, sigma_hat = invert_every_draw(plan)
    est = kernel(kind, ls, sigma_hat * setup.xi * setup.eta)
    err = np.sort(alpha * (est - theta) / sigma_hat)
    return np.searchsorted(err, grid, side="right"), int(np.count_nonzero(est == 0.0))


BRACKET_DOFS = (1, 5, 995, 999995)
N_CELLS = simulate._BRACKET_CELLS
# the lowest and the highest uniform of uniform_field
EXTREME_UNIFORMS = np.array([2.0 ** -54, 1.0 - 2.0 ** -53])


def widened_extremes(inverse):
    """The outer ends of a bracket table: the inverse at the extreme
    uniforms, widened outward by the relative margin 1e-12."""
    low, high = inverse(EXTREME_UNIFORMS)
    return low - 1e-12 * abs(low), high + 1e-12 * abs(high)


class TestBracketedDraws:
    """Estimated-variance cells decide most replications from the grid cell
    of their chi-square uniform; counts must equal inverting every draw."""

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("m", BRACKET_DOFS)
    @pytest.mark.parametrize("eta", [0.05, 0.5])
    def test_matches_inverting_every_draw(self, kind, m, eta, monkeypatch):
        # odd-sized blocks, so a cell spans several of them
        monkeypatch.setattr(simulate, "_BRACKET_REPS", 7001)
        setup = ProblemSetup(n=5 + m, k=5, eta=eta)
        a = setup.xi * (eta + 1.5 / setup.root_n)
        spec = est_spec(a)
        alpha = float(ScalingFactor.conservative(setup))
        band = alpha * setup.xi * eta
        # 0 twice: a duplicated grid point, and the killed errors at theta = 0
        grid = np.sort(np.concatenate([np.linspace(-4.0, 4.0, 41), [0.0],
                                       band * np.array([-1.0, -0.5, 0.5, 1.0])]))
        for theta in (0.0, setup.xi * eta):
            for seed in (1, 2):
                plan = SimulationPlan(setup=setup, theta=theta, reps=20_000, seed=seed)
                p, _ = simulate_coverage(plan, kind, spec)
                assert round(p * plan.reps) == reference_hits(plan, kind, spec)
                res = simulate_scaled_error_ecdf(plan, kind, alpha, grid)
                counts, zeros = reference_ecdf(plan, kind, alpha, grid)
                np.testing.assert_array_equal(res.values, counts / plan.reps)
                assert res.zero_mass == zeros / plan.reps

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("m", BRACKET_DOFS)
    def test_ecdf_edges_match_inverting_every_draw(self, kind, m, monkeypatch):
        # odd-sized blocks, so the per-cell counts add up across blocks
        monkeypatch.setattr(simulate, "_BRACKET_REPS", 7001)
        for eta in (0.05, 0.5):
            setup = ProblemSetup(n=5 + m, k=5, eta=eta)
            alpha = float(ScalingFactor.conservative(setup))
            # nu = +-40 puts theta, and the killed errors, far outside the grid
            for nu in (-40.0, 0.0, 1.0, 40.0):
                plan = SimulationPlan(setup=setup, theta=nu / setup.root_n,
                                      reps=20_000, seed=3)
                for grid in (np.linspace(-4.0, 4.0, 41), np.array([0.5])):
                    res = simulate_scaled_error_ecdf(plan, kind, alpha, grid)
                    counts, zeros = reference_ecdf(plan, kind, alpha, grid)
                    np.testing.assert_array_equal(res.values, counts / plan.reps)
                    assert res.zero_mass == zeros / plan.reps

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("m", [1, 5])
    def test_extreme_scales_match_inverting_every_draw(self, kind, m):
        # the lowest sigma_hat cell reaches down to about 1e-16 sigma at
        # m = 1, and the ECDF bounds divide by that end
        reps, seed = 4000, 9
        u_chi = uniform_field(seed, 0, 2 * reps)[1::2]
        cell = (u_chi * N_CELLS).astype(np.intp)
        assert np.any(cell == 0) and np.any(cell == N_CELLS - 1)
        grid = np.linspace(-4.0, 4.0, 41)
        for sigma in (1e-300, 1.0, 1e300):
            setup = ProblemSetup(n=5 + m, k=5, sigma=sigma, eta=0.3)
            spec = est_spec(setup.xi * (0.3 + 1.5 / setup.root_n))
            alpha = float(ScalingFactor.conservative(setup))
            for theta in (0.0, 1e-300, -1e-300, 1e200, -1e200, 1e300, -1e300):
                plan = SimulationPlan(setup=setup, theta=theta, reps=reps, seed=seed)
                p, _ = simulate_coverage(plan, kind, spec)
                assert round(p * plan.reps) == reference_hits(plan, kind, spec)
                res = simulate_scaled_error_ecdf(plan, kind, alpha, grid)
                counts, zeros = reference_ecdf(plan, kind, alpha, grid)
                np.testing.assert_array_equal(res.values, counts / plan.reps)
                assert res.zero_mass == zeros / plan.reps

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    def test_overflowing_errors_at_an_infinite_grid_point(self, kind):
        # a (est - theta) / s overflows: an error enclosure at +inf with an
        # overflowing slack gave inf - inf = NaN, which sorted past the +inf
        # grid point, with "invalid value" warnings
        setup = ProblemSetup(n=6, k=5, sigma=1e300, eta=0.3)
        plan = SimulationPlan(setup=setup, theta=0.0, reps=20_000, seed=9)
        grid = np.array([0.0, math.inf])
        res = simulate_scaled_error_ecdf(plan, kind, 1e100, grid)
        with np.errstate(over="ignore"):
            counts, zeros = reference_ecdf(plan, kind, 1e100, grid)
        assert counts[1] == plan.reps
        np.testing.assert_array_equal(res.values, counts / plan.reps)
        assert res.zero_mass == zeros / plan.reps

    @pytest.mark.parametrize("m", BRACKET_DOFS)
    def test_bracket_encloses_exact_quantiles(self, m):
        lo, hi = simulate._sigma_hat_bracket(m)

        def sigma_hat(u):
            return np.sqrt(chi_sq_quantile(u, m) / m)

        assert (lo[0], hi[-1]) == widened_extremes(sigma_hat)
        assert 0.0 < lo[0] and np.isfinite(hi[-1])
        assert np.all(lo[1:] < hi[:-1]) and np.all(np.diff(lo) > 0.0)

        def check(u):
            q = sigma_hat(u)
            cell = (u * N_CELLS).astype(np.intp)
            assert np.all(lo[cell] <= q) and np.all(q <= hi[cell])

        # the uniform_field values nearest each interior cell end: k + 1/2
        # steps of 2^-53 to either side, and the two extreme uniforms
        steps = (np.arange(64) + 0.5) * 2.0 ** -53
        ends = np.arange(1, N_CELLS) / N_CELLS
        check(np.concatenate([(ends[:, None] - steps).ravel(),
                              (ends[:, None] + steps).ravel(), EXTREME_UNIFORMS]))
        # plus 1e6 Philox uniforms, in chunks
        total, chunk = 1_000_000, 1 << 18
        for start in range(0, total, chunk):
            check(uniform_field(500 + m, start, min(chunk, total - start)))

    def test_inverts_under_one_percent(self, monkeypatch):
        setup = ProblemSetup(n=40, k=35, eta=0.5)
        simulate._sigma_hat_bracket(setup.residual_dof)  # build the table first
        inverted = []

        def counting(p, m):
            inverted.append(np.size(p))
            return chi_sq_quantile(p, m)

        monkeypatch.setattr(simulate, "chi_sq_quantile", counting)
        plan = SimulationPlan(setup=setup, theta=1.0 / setup.root_n, reps=100_000,
                              seed=5)
        simulate_coverage(plan, "asoft", est_spec(0.82))
        assert 0 < sum(inverted) < 0.01 * plan.reps
        inverted.clear()
        simulate_scaled_error_ecdf(plan, "hard", ScalingFactor.conservative(setup),
                                   np.linspace(-4.0, 4.0, 41))
        assert 0 < sum(inverted) < 0.01 * plan.reps


class TestGridDecisions:
    """Coverage and ECDF cells decide whole cells of a grid on (z, sigma_hat)
    first: counts must equal inverting every draw, and the z table must
    enclose every exact quantile of its cell."""

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("m", BRACKET_DOFS)
    @pytest.mark.parametrize("eta", [0.05, 0.5])
    def test_known_variance_matches_inverting_every_draw(self, kind, m, eta,
                                                         monkeypatch):
        monkeypatch.setattr(simulate, "_BRACKET_REPS", 7001)
        setup = ProblemSetup(n=5 + m, k=5, eta=eta)
        a = setup.xi * (eta + 1.5 / setup.root_n)
        spec = IntervalSpec(a, a)
        for theta in (0.0, setup.xi * eta):
            for seed in (1, 2):
                plan = SimulationPlan(setup=setup, theta=theta, reps=20_000, seed=seed)
                ls, _ = invert_every_draw(plan)
                est = kernel(kind, ls, setup.sigma * setup.xi * eta)
                inside = ((est - setup.sigma * a <= theta)
                          & (theta <= est + setup.sigma * a))
                p, _ = simulate_coverage(plan, kind, spec)
                assert round(p * plan.reps) == int(np.count_nonzero(inside))

    def test_z_bracket_encloses_exact_quantiles(self):
        lo, hi = simulate._z_bracket()
        assert (lo[0], hi[-1]) == widened_extremes(std_normal_quantile)
        assert np.all(lo[1:] <= hi[:-1]) and np.all(np.diff(lo) > 0.0)

        def check(u):
            z = std_normal_quantile(u)
            cell = (u * N_CELLS).astype(np.intp)
            assert np.all(lo[cell] <= z) and np.all(z <= hi[cell])

        steps = (np.arange(64) + 0.5) * 2.0 ** -53
        ends = np.arange(1, N_CELLS) / N_CELLS
        check(np.concatenate([(ends[:, None] - steps).ravel(),
                              (ends[:, None] + steps).ravel(), EXTREME_UNIFORMS]))
        total, chunk = 1_000_000, 1 << 18
        for start in range(0, total, chunk):
            check(uniform_field(700, start, min(chunk, total - start)))

    @staticmethod
    def inverted_share(run, setup, monkeypatch):
        """Share of a 1e5-replication cell's Gaussian uniforms that reach
        std_normal_quantile, theta = 1 / sqrt(n)."""
        simulate._z_bracket()  # build the table first
        inverted = []

        def counting(p):
            inverted.append(np.size(p))
            return std_normal_quantile(p)

        monkeypatch.setattr(simulate, "std_normal_quantile", counting)
        plan = SimulationPlan(setup=setup, theta=1.0 / setup.root_n, reps=100_000,
                              seed=5)
        run(plan)
        return sum(inverted) / plan.reps

    @pytest.mark.parametrize("mode, share", [(VarianceMode.KNOWN, 0.01),
                                             (VarianceMode.ESTIMATED, 0.1)])
    def test_grid_inverts_few_gaussian_draws(self, mode, share, monkeypatch):
        spec = IntervalSpec(0.82, 0.82, mode)
        got = self.inverted_share(lambda plan: simulate_coverage(plan, "asoft", spec),
                                  ProblemSetup(n=40, k=35, eta=0.5), monkeypatch)
        assert 0 < got < share

    @pytest.mark.parametrize("mode, share", [(VarianceMode.KNOWN, 0.005),
                                             (VarianceMode.ESTIMATED, 0.05)])
    def test_full_path_inverts_few_gaussian_draws(self, mode, share, monkeypatch):
        setup = ProblemSetup(n=40, k=35, eta=0.5)
        spec = IntervalSpec(0.3, 0.3, mode)
        got = self.inverted_share(lambda plan: simulate_coverage_full(plan, "asoft", spec),
                                  setup, monkeypatch)
        assert 0 < got / setup.n < share

    @pytest.mark.parametrize("dense, mode, width", [
        # the default design: y'c reads y_w, and y N the n - k = 5 residual
        # coordinates; a dense design's y'c reads all n = 40
        (False, VarianceMode.KNOWN, 1), (False, VarianceMode.ESTIMATED, 6),
        (True, VarianceMode.KNOWN, 40), (True, VarianceMode.ESTIMATED, 40)])
    def test_full_path_inverts_only_the_support(self, dense, mode, width, monkeypatch):
        if dense:
            X, setup, theta = dense_case(40, 35, seed=9)
        else:
            X, setup = None, ProblemSetup(n=40, k=35, eta=0.5)
            theta = setup.xi * setup.eta
        plan = SimulationPlan(setup=setup, theta=theta, reps=20_000, seed=5, design=X)
        _, widths, undecided = inverted_widths(plan, "asoft", dense_spec(setup, mode),
                                               monkeypatch)
        assert widths == {width} and undecided > 0

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("n, k, share", [(40, 35, 0.5), (1000, 5, 0.15)])
    def test_ecdf_grid_inverts_few_gaussian_draws(self, kind, n, k, share,
                                                  monkeypatch):
        setup = ProblemSetup(n=n, k=k, eta=0.5)
        alpha = ScalingFactor.conservative(setup)
        grid = np.linspace(-4.0, 4.0, 41)
        got = self.inverted_share(
            lambda plan: simulate_scaled_error_ecdf(plan, kind, alpha, grid),
            setup, monkeypatch)
        assert 0 < got < share


class TestSyntheticDesign:
    def test_xi_is_uniform(self):
        X = synthetic_design(12, 7, xi=2.5)
        assert X.shape == (12, 7)
        assert np.allclose(compute_xi_all(X), 2.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            synthetic_design(5, 6)
        with pytest.raises(DomainError):
            synthetic_design(5, 2, xi=0.0)
        with pytest.raises(DomainError):
            synthetic_design(5, 0)
        with pytest.raises(DomainError):
            synthetic_design(4.0, 2)


class TestCoverageSimulation:
    def test_deterministic(self):
        plan = SimulationPlan(setup=SETUP, theta=0.2, reps=20_000, seed=21)
        spec = est_spec(0.43)
        assert simulate_coverage(plan, "hard", spec) == simulate_coverage(
            plan, "hard", spec)

    def test_single_rep(self):
        plan = SimulationPlan(setup=SETUP, theta=0.0, reps=1, seed=2)
        p, se = simulate_coverage(plan, "soft", est_spec(0.42))
        assert p in (0.0, 1.0) and se == 0.0

    def test_plain_interval_known_variance(self):
        # vanishing threshold turns every kind into the usual z-interval
        setup = reference_setup(eta=1e-12)
        a = float(std_normal_quantile(0.975)) * setup.xi / setup.root_n
        plan = SimulationPlan(setup=setup, theta=0.3, reps=100_000, seed=31)
        p, se = simulate_coverage(plan, "hard", IntervalSpec(a, a))
        assert abs(p - 0.95) <= 3.0 * se

    def test_plain_interval_estimated_variance(self):
        setup = reference_setup(eta=1e-12)
        m = setup.residual_dof
        a = float(t_quantile(0.975, m)) * setup.xi / setup.root_n
        plan = SimulationPlan(setup=setup, theta=-0.1, reps=100_000, seed=37)
        p, se = simulate_coverage(plan, "asoft", est_spec(a))
        assert abs(p - 0.95) <= 3.0 * se

    def test_soft_guarantee_across_parameters(self):
        a = solve_unknown_half_length("soft", 0.05, SETUP)
        spec = est_spec(a)
        target = coverage_lower_bound("soft", spec, SETUP)
        for i, theta in enumerate((0.0, 0.2, 0.42, 1.0, 3.0)):
            plan = SimulationPlan(setup=SETUP, theta=theta, reps=100_000,
                                  seed=100 + i)
            p, se = simulate_coverage(plan, "soft", spec)
            assert p >= target - 3.0 * se

    def test_matches_analytic_known(self):
        spec = IntervalSpec(0.3, 0.35)
        plan = SimulationPlan(setup=SETUP, theta=0.3, reps=200_000, seed=43)
        p, se = simulate_coverage(plan, "hard", spec)
        exact = known_coverage("hard", 0.3, SETUP.sigma, spec, SETUP)
        assert abs(p - exact) <= 4.0 * se

    def test_matches_analytic_estimated(self):
        spec = est_spec(0.82)
        setup = reference_setup(eta=0.5)
        plan = SimulationPlan(setup=setup, theta=0.55, reps=200_000, seed=47)
        p, se = simulate_coverage(plan, "asoft", spec)
        exact = unknown_coverage("asoft", 0.55, setup.sigma, spec, setup)
        assert abs(p - exact) <= 4.0 * se

    def test_estimated_needs_slack(self):
        setup = ProblemSetup(n=5, k=5)
        plan = SimulationPlan(setup=setup, theta=0.0, reps=100, seed=3)
        with pytest.raises(DomainError):
            simulate_coverage(plan, "hard", est_spec(0.4))
        p, _ = simulate_coverage(plan, "hard", IntervalSpec(0.9, 0.9))
        assert 0.0 <= p <= 1.0


def correlated_design(n=60, k=3):
    """A non-orthogonal design: column 2 leans on column 1."""
    rng = np.random.default_rng(8)
    X = rng.standard_normal((n, k))
    X[:, 1] += 0.6 * X[:, 0]
    return X


class TestFullDesignPath:
    def test_agrees_with_fast_path(self):
        spec = est_spec(0.434)
        fast = SimulationPlan(setup=SETUP, theta=0.38, reps=100_000, seed=51)
        full = SimulationPlan(setup=SETUP, theta=0.38, reps=100_000, seed=52)
        p1, se1 = simulate_coverage(fast, "hard", spec)
        p2, se2 = simulate_coverage_full(full, "hard", spec)
        assert abs(p1 - p2) <= 4.0 * math.hypot(se1, se2)

    def test_correlated_design_matches_analytic(self):
        # end to end: a non-orthogonal design, a dense parameter vector, and
        # the analytic coverage at the design's own xi
        n, k = 60, 3
        X = correlated_design(n, k)
        xi = compute_xi_all(X)[0]
        setup = ProblemSetup(n=n, k=k, xi=xi, eta=0.2)
        theta_vec = np.array([0.25, -0.4, 0.1])
        spec = est_spec(0.45)
        plan = SimulationPlan(setup=setup, theta=theta_vec, reps=200_000,
                              seed=57, design=X)
        p, se = simulate_coverage_full(plan, "asoft", spec)
        exact = unknown_coverage("asoft", theta_vec[0], setup.sigma, spec, setup)
        assert abs(p - exact) <= 4.0 * se

    def test_design_validation(self):
        plan = SimulationPlan(setup=SETUP, theta=0.0, reps=10, seed=5,
                              design=np.ones((3, 2)))
        with pytest.raises(DomainError):
            simulate_coverage_full(plan, "hard", est_spec(0.4))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_design_rejected(self, bad):
        X = correlated_design()
        X[7, 2] = bad
        setup = ProblemSetup(n=60, k=3, eta=0.2)
        plan = SimulationPlan(setup=setup, theta=0.0, reps=10, seed=5, design=X)
        with pytest.raises(DomainError):
            simulate_coverage_full(plan, "hard", est_spec(0.4))

    def test_xi_mismatch_rejected(self):
        X = synthetic_design(40, 35, xi=2.0)
        plan = SimulationPlan(setup=SETUP, theta=0.0, reps=10, seed=5, design=X)
        with pytest.raises(DomainError):
            simulate_coverage_full(plan, "hard", est_spec(0.4))


def full_design_reference_hits(plan, kind, spec):
    """Full-design hits the long way, every replication in one block: all k
    LS coefficients through a triangular solve; when n - k < k the residual
    norms through the orthonormal complement N of the design, as the path
    forms them (a huge X theta on rows where N is zero never enters them),
    else through X."""
    from scipy.linalg import solve_triangular

    setup = plan.setup
    n, k = setup.n, setup.k
    X = plan.design if plan.design is not None else synthetic_design(n, k, setup.xi)
    Q, R = np.linalg.qr(X)
    watched = setup.component_index - 1
    theta_vec = plan.theta_vector()
    theta = theta_vec[watched]
    u = uniform_field(plan.seed, 0, plan.reps * n)
    Y = X @ theta_vec + setup.sigma * std_normal_quantile(u).reshape(plan.reps, n)
    coefs = solve_triangular(R, Q.T @ Y.T, lower=False)
    if spec.mode is VarianceMode.ESTIMATED:
        if n - k < k:
            resid = Y @ np.linalg.qr(X, mode="complete")[0][:, k:]
        else:
            resid = Y - (X @ coefs).T
        scale = np.sqrt((resid * resid).sum(axis=1) / (n - k))
    else:
        scale = setup.sigma
    est = kernel(kind, coefs[watched], scale * compute_xi_all(X)[watched] * setup.eta)
    inside = (est - scale * spec.a <= theta) & (theta <= est + scale * spec.b)
    return int(np.count_nonzero(inside))


def dense_case(n, k, seed, sigma=1.0, col_scales=None):
    """A dense random design (columns optionally rescaled), its setup for
    component 1 and a dense theta whose watched entry sits near the
    threshold."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k))
    if col_scales is not None:
        X *= col_scales
    xi = compute_xi_all(X)
    setup = ProblemSetup(n=n, k=k, xi=xi[0], sigma=sigma, eta=0.3)
    theta = rng.standard_normal(k) * sigma * xi / math.sqrt(n)
    theta[0] = 0.4 * sigma * xi[0]
    return X, setup, theta


def dense_spec(setup, mode):
    a = 1.5 * setup.xi / setup.root_n
    return IntervalSpec(a, a, mode)


def block_case(blocks, component, seed):
    """A design of column blocks on disjoint rows, dense within each (one
    (rows, columns) pair per block), its setup for the component and a
    dense theta whose watched entry sits near the threshold."""
    rng = np.random.default_rng(seed)
    n, k = (sum(sizes) for sizes in zip(*blocks))
    X = np.zeros((n, k))
    row = col = 0
    for rows, cols in blocks:
        X[row:row + rows, col:col + cols] = rng.standard_normal((rows, cols))
        row, col = row + rows, col + cols
    xi = compute_xi_all(X)[component - 1]
    setup = ProblemSetup(n=n, k=k, xi=xi, eta=0.3, component_index=component)
    theta = rng.standard_normal(k) / math.sqrt(n)
    theta[component - 1] = 0.4 * xi
    return X, setup, theta


def inverted_widths(plan, kind, spec, monkeypatch):
    """Hits of the full path, and the set of widths of the arrays it passes
    to std_normal_quantile (one row per undecided replication, one column
    per coordinate of y it reads) with their total row count."""
    simulate._z_midpoints()  # build the tables first
    shapes = []

    def counting(p):
        shapes.append(np.shape(p))
        return std_normal_quantile(p)

    with monkeypatch.context() as patch:
        patch.setattr(simulate, "std_normal_quantile", counting)
        p, _ = simulate_coverage_full(plan, kind, spec)
    return round(p * plan.reps), {cols for _, cols in shapes}, sum(r for r, _ in shapes)


def recorded_chunks(monkeypatch):
    """A list that collects the replication count of every chunk the full
    path decides (one `_word_cells` call per chunk)."""
    rows, word_cells = [], simulate._word_cells

    def recording(raw, cells):
        rows.append(len(raw))
        return word_cells(raw, cells)

    monkeypatch.setattr(simulate, "_word_cells", recording)
    return rows


def solve_designs():
    """The dense, correlated, square and block designs of the full-path tests."""
    for n, k, seed in ((60, 55, 115), (60, 3, 63), (36, 35, 71), (40, 35, 9), (40, 35, 8)):
        yield dense_case(n, k, seed=seed)[0]
    yield dense_case(60, 10, seed=7, col_scales=np.logspace(-6, 6, 10))[0]
    yield correlated_design()
    yield np.random.default_rng(9).standard_normal((5, 5))
    yield block_case(((10, 10), (30, 25)), 12, seed=12)[0]
    yield block_case(((30, 3), (30, 3)), 1, seed=1)[0]


def scipy_solves(X, y):
    """ls_fit's coefficients, every watched row R^-T e_w and compute_xi_all
    through scipy's triangular solve, the route numpy's solves replaced."""
    from scipy.linalg import solve_triangular

    Q, R = np.linalg.qr(X)
    n, k = X.shape
    rows = solve_triangular(R, np.eye(k), trans="T", lower=False).T
    return (solve_triangular(R, Q.T @ y, lower=False), rows[watched(k)],
            np.sqrt(n * (rows ** 2).sum(axis=1)))


def numpy_solves(X, y):
    Q, R = np.linalg.qr(X)
    k = X.shape[1]
    # the watched row as simulate_coverage_full solves it
    rows = np.array([np.linalg.solve(R.T, np.eye(k)[w]) for w in watched(k)])
    return ls_fit(X, y)[0], rows, compute_xi_all(X)


def watched(k):
    """Every component, or for a large k its ends and middle."""
    return range(k) if k <= 100 else [0, 1, k // 2, k - 1]


class TestNumpySolves:
    """numpy.linalg.solve (ls_fit's coefficients, the full path's watched
    row) and compute_xi_all's inverse of R agree with scipy's triangular
    solve: to 1e-12 relative on dense designs, bit for bit on the synthetic
    design, whose R is diagonal, so every Monte Carlo count keeps its bits."""

    def test_dense_designs(self):
        for i, X in enumerate(solve_designs()):
            y = np.random.default_rng(i).standard_normal(len(X))
            for got, want in zip(numpy_solves(X, y), scipy_solves(X, y)):
                scale = np.abs(want).max(axis=-1, keepdims=True)
                assert np.all(np.abs(got - want) <= 1e-12 * scale), i

    @pytest.mark.parametrize("n, k", [(40, 35), (1000, 995), (60, 3), (5, 5)])
    @pytest.mark.parametrize("xi", [1.0, 0.37, 2.0])
    def test_synthetic_design_bit_for_bit(self, n, k, xi):
        X = synthetic_design(n, k, xi)
        y = np.random.default_rng(n + k).standard_normal(n)
        for got, want in zip(numpy_solves(X, y), scipy_solves(X, y)):
            assert np.array_equal(got, want)


class TestFullDesignReference:
    """The full-design path decides most replications from enclosures over
    their z cells, solves only the watched coefficient and maps residuals
    through Q or its complement, in chunks; its hits must equal the long
    way's."""

    MODES = (VarianceMode.KNOWN, VarianceMode.ESTIMATED)

    @staticmethod
    def assert_matches(plan, kind, spec, monkeypatch):
        """Hits equal the long way's; returns the widths the path inverts."""
        # slabs of floor(1234 / n) replications, chunks of floor(1234 / |S|)
        monkeypatch.setattr(simulate, "_FULL_CHUNK_UNIFORMS", 1234)
        rows = recorded_chunks(monkeypatch)
        hits, widths, _ = inverted_widths(plan, kind, spec, monkeypatch)
        slab, first, last = 1234 // plan.setup.n, rows[0], rows[-1]
        # the last chunk is ragged, and unless a slab is one replication
        # (n > 617) so is its last slab; a chunk that is not one slab also
        # ends in a ragged slab, with words still to read after it
        assert len(rows) > 1 and 0 < last < first
        assert slab == 1 or (last % slab != 0 and (first == slab or first % slab != 0))
        assert hits == full_design_reference_hits(plan, kind, spec)
        return widths

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("design, width", [("known", 1), ("estimated", 6),
                                               ("dense", 40)])
    def test_counts_do_not_depend_on_chunking(self, kind, design, width, monkeypatch):
        if design == "dense":
            X, setup, theta = dense_case(40, 35, seed=9)
            mode = VarianceMode.ESTIMATED
        else:
            X, setup, theta = None, SETUP, 0.3 * SETUP.xi * SETUP.eta
            mode = VarianceMode(design)
        spec = dense_spec(setup, mode)
        plan = SimulationPlan(setup=setup, theta=theta, reps=3001, seed=110, design=X)
        want = full_design_reference_hits(plan, kind, spec)
        # one replication per slab, ragged slabs and chunks, the default
        for budget in (setup.n, 1234, simulate._FULL_CHUNK_UNIFORMS):
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "_FULL_CHUNK_UNIFORMS", budget)
                rows = recorded_chunks(patch)
                p, _ = simulate_coverage_full(plan, kind, spec)
            chunk = budget // width  # replications per chunk: floor(budget / |S|)
            whole, rest = divmod(plan.reps, chunk)
            assert rows == [chunk] * whole + [rest] * (rest > 0)
            assert round(p * plan.reps) == want

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("theta", [0.0, SETUP.xi * SETUP.eta])
    def test_reference_setup(self, kind, mode, theta, monkeypatch):
        plan = SimulationPlan(setup=SETUP, theta=theta, reps=3001, seed=101)
        self.assert_matches(plan, kind, IntervalSpec(0.3, 0.3, mode), monkeypatch)

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("component", [1, 2])
    def test_correlated_design(self, kind, mode, component, monkeypatch):
        X = correlated_design()
        setup = ProblemSetup(n=60, k=3, xi=compute_xi_all(X)[component - 1],
                             eta=0.2, component_index=component)
        plan = SimulationPlan(setup=setup, theta=np.array([0.25, -0.4, 0.1]),
                              reps=3001, seed=102, design=X)
        self.assert_matches(plan, kind, IntervalSpec(0.25, 0.25, mode), monkeypatch)

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    def test_square_design(self, kind, monkeypatch):
        X = np.random.default_rng(9).standard_normal((5, 5))
        setup = ProblemSetup(n=5, k=5, xi=compute_xi_all(X)[2], eta=0.3,
                             component_index=3)
        plan = SimulationPlan(setup=setup, theta=np.array([0.5, 0.0, -0.3, 1.0, 0.2]),
                              reps=3001, seed=103, design=X)
        self.assert_matches(plan, kind, IntervalSpec(0.6, 0.5), monkeypatch)

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n, k, residual_cols", [
        (60, 55, 5),  # n - k < k: residuals through the complement of Q
        (60, 3, 3),   # through Q
        (36, 35, 1),  # n = k + 1
    ])
    def test_dense_design(self, kind, mode, n, k, residual_cols, monkeypatch):
        X, setup, theta = dense_case(n, k, seed=n + k)
        Q, _ = np.linalg.qr(X)
        assert simulate._residual_basis(X, Q).shape == (n, residual_cols)
        plan = SimulationPlan(setup=setup, theta=theta, reps=3001, seed=104, design=X)
        self.assert_matches(plan, kind, dense_spec(setup, mode), monkeypatch)

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("mode", MODES)
    def test_columns_scaled_over_twelve_decades(self, kind, mode, monkeypatch):
        X, setup, theta = dense_case(60, 10, seed=7, col_scales=np.logspace(-6, 6, 10))
        plan = SimulationPlan(setup=setup, theta=theta, reps=3001, seed=105, design=X)
        self.assert_matches(plan, kind, dense_spec(setup, mode), monkeypatch)

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("mode", MODES)
    def test_large_theta_tiny_sigma(self, kind, mode, monkeypatch):
        # y is about 1e6 and its noise about 1e-5: the rounding terms of the
        # enclosures outweigh the z radii
        X, setup, theta = dense_case(40, 35, seed=8, sigma=1e-5)
        theta[0] = 1e6
        plan = SimulationPlan(setup=setup, theta=theta, reps=3001, seed=106, design=X)
        self.assert_matches(plan, kind, dense_spec(setup, mode), monkeypatch)

    @pytest.mark.parametrize("dense", [False, True])
    def test_xi_from_the_solved_row(self, dense, monkeypatch):
        # the watched xi is sqrt(n r'r) of the row the cell solves anyway,
        # so the path never factors X a second time through compute_xi_all
        def refactor(X):
            raise AssertionError("simulate_coverage_full factored X twice")

        if dense:
            X, setup, theta = dense_case(60, 10, seed=7)
        else:
            X, setup, theta = None, SETUP, SETUP.xi * SETUP.eta
        spec = IntervalSpec(0.3, 0.3, VarianceMode.ESTIMATED)
        plan = SimulationPlan(setup=setup, theta=theta, reps=3001, seed=107, design=X)
        monkeypatch.setattr(simulate, "compute_xi_all", refactor)
        self.assert_matches(plan, "asoft", spec, monkeypatch)
        X = synthetic_design(setup.n, setup.k, 2.0 * setup.xi) if X is None else 2.0 * X
        mismatch = SimulationPlan(setup=setup, theta=theta, reps=10, seed=107, design=X)
        with pytest.raises(DomainError, match="does not match setup.xi"):
            simulate_coverage_full(mismatch, "asoft", spec)

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("blocks, component, widths", [
        # n - k < k: y'c and y N read only the second block's 30 rows
        (((10, 10), (30, 25)), 12, (30, 30)),
        # through Q: y'c reads the first block's 30 rows, Y - (Y Q) Q' all 60
        (((30, 3), (30, 3)), 1, (30, 60)),
    ])
    def test_block_orthogonal_design(self, kind, mode, blocks, component, widths,
                                     monkeypatch):
        X, setup, theta = block_case(blocks, component, seed=component)
        plan = SimulationPlan(setup=setup, theta=theta, reps=3001, seed=108, design=X)
        width = widths[mode is VarianceMode.ESTIMATED]
        assert self.assert_matches(plan, kind, dense_spec(setup, mode), monkeypatch) == {width}

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    def test_many_residual_dof(self, kind, monkeypatch):
        # the default design through Q with known variance: y'c reads y_w only
        setup = ProblemSetup(n=1000, k=5, eta=0.5)
        plan = SimulationPlan(setup=setup, theta=setup.xi * setup.eta, reps=3001, seed=109)
        assert self.assert_matches(plan, kind, dense_spec(setup, VarianceMode.KNOWN),
                                   monkeypatch) == {1}

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("mode", MODES)
    def test_extreme_scales(self, kind, mode, monkeypatch):
        # RuntimeWarnings are errors here (pyproject.toml).  Past |X theta| of
        # about 1e154 the norm in the sigma_hat rounding term overflowed, and
        # past the largest double X theta itself is not finite
        spec = IntervalSpec(0.3, 0.3, mode)
        big = (1e200, -1e200, 1e300, -1e300)
        for sigma, xi in ((1.0, 1.0), (1e-5, 1.0), (1.0, 1e10), (1.0, 1e-10)):
            setup = ProblemSetup(n=40, k=35, sigma=sigma, xi=xi, eta=0.5)
            for theta in big:
                plan = SimulationPlan(setup=setup, theta=theta, reps=3001, seed=3)
                if math.isfinite(setup.root_n / xi * theta):
                    self.assert_matches(plan, kind, spec, monkeypatch)
                else:
                    with pytest.raises(DomainError, match="X theta overflows"):
                        simulate_coverage_full(plan, kind, spec)


def cell_end_words():
    """Philox words whose uniforms lie at or next to every end of the 4096
    z and sigma_hat cells (the 64-cell grid's ends among them), plus the
    lowest, the all-ones and the next-to-top word, shuffled once.  Their
    count is odd, so each word serves as both halves of a replication."""
    ends = np.arange(1, N_CELLS, dtype=np.uint64) << np.uint64(52)
    extremes = np.array([0, 2 ** 64 - 1, 2 ** 64 - 2 ** 11], dtype=np.uint64)
    words = np.concatenate([ends - np.uint64(1), ends, extremes])
    return np.random.default_rng(12).permutation(words)


CELL_END_WORDS = cell_end_words()


class CellEndPhilox(np.random.Philox):
    """Philox whose word stream is CELL_END_WORDS repeated, addressed by its
    counter like the real generator."""

    def __init__(self, key=None):
        super().__init__(key=key)
        self.position = 0

    def advance(self, delta):
        self.position += 4 * delta
        return self

    def random_raw(self, size=None, output=True):
        idx = (self.position + np.arange(size)) % CELL_END_WORDS.size
        self.position += size
        return CELL_END_WORDS[idx]


class TestCellEndWords:
    """Draws at the cell ends of both grids and at the extreme words: the
    grid cells read from the words must count exactly as inverting every
    draw does, on every path."""

    @pytest.fixture(autouse=True)
    def cell_end_philox(self, monkeypatch):
        monkeypatch.setattr(simulate.np.random, "Philox", CellEndPhilox)
        monkeypatch.setattr(simulate, "_BRACKET_REPS", 7001)

    def test_stream_hits_the_cell_ends(self):
        assert CELL_END_WORDS.size % 2 == 1
        u = uniform_field(1, 0, CELL_END_WORDS.size)
        assert u.max() == 1.0 - 2.0 ** -53
        # uniforms that round onto a cell end, where the float cell is one
        # above the word's
        on_end = np.isin(u, np.arange(1, N_CELLS) / N_CELLS)
        assert np.count_nonzero(on_end) >= N_CELLS // 2 - 1
        assert np.array_equal(uniform_field(1, 5, 20), u[5:25])

    @pytest.mark.parametrize("cells", [N_CELLS, simulate._GRID_CELLS])
    def test_word_cells_match_float_cells(self, cells):
        # the float cell floor(u cells) is the word's cell, or one higher
        # where u rounds onto a cell end exactly
        u = simulate._uniforms(CELL_END_WORDS.copy())
        word_cell = simulate._word_cells(CELL_END_WORDS, cells)
        float_cell = (u * cells).astype(np.intp)
        one_up = float_cell == word_cell + 1
        assert np.all(one_up | (float_cell == word_cell))
        assert np.any(one_up) and np.all(u[one_up] * cells == float_cell[one_up])
        assert word_cell[CELL_END_WORDS == 2 ** 64 - 1] == cells - 1

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("m", [1, 5, 995])
    def test_fast_path(self, kind, m):
        setup = ProblemSetup(n=5 + m, k=5, eta=0.3)
        a = setup.xi * (0.3 + 1.5 / setup.root_n)
        alpha = float(ScalingFactor.conservative(setup))
        grid = np.linspace(-4.0, 4.0, 41)
        for theta in (0.0, 0.3 * setup.xi, 2.0 / setup.root_n):
            plan = SimulationPlan(setup=setup, theta=theta,
                                  reps=CELL_END_WORDS.size + 7, seed=1)
            ls, _ = invert_every_draw(plan)
            est = kernel(kind, ls, setup.sigma * setup.xi * setup.eta)
            inside = (est - setup.sigma * a <= theta) & (theta <= est + setup.sigma * a)
            p, _ = simulate_coverage(plan, kind, IntervalSpec(a, a))
            assert round(p * plan.reps) == int(np.count_nonzero(inside))
            p, _ = simulate_coverage(plan, kind, est_spec(a))
            assert round(p * plan.reps) == reference_hits(plan, kind, est_spec(a))
            res = simulate_scaled_error_ecdf(plan, kind, alpha, grid)
            counts, zeros = reference_ecdf(plan, kind, alpha, grid)
            np.testing.assert_array_equal(res.values, counts / plan.reps)
            assert res.zero_mass == zeros / plan.reps

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    @pytest.mark.parametrize("mode", [VarianceMode.KNOWN, VarianceMode.ESTIMATED])
    @pytest.mark.parametrize("dense", [False, True])
    def test_full_path(self, kind, mode, dense, monkeypatch):
        monkeypatch.setattr(simulate, "_FULL_CHUNK_UNIFORMS", 1234)
        if dense:
            X, setup, theta = dense_case(40, 35, seed=9)
        else:
            X, setup, theta = None, SETUP, 0.3 * SETUP.xi * SETUP.eta
        a = 1.5 * setup.xi / setup.root_n
        plan = SimulationPlan(setup=setup, theta=theta, reps=2001, seed=1, design=X)
        spec = IntervalSpec(a, a, mode)
        p, _ = simulate_coverage_full(plan, kind, spec)
        assert round(p * plan.reps) == full_design_reference_hits(plan, kind, spec)


class TestTwoCorners:
    """_corners evaluates kernel at the two corners that monotonicity
    selects; its (slot, certain) must equal the four-corner min and max,
    for every kind and event, signed zeros, subnormals and +-1e300
    included."""

    coefs = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022,
                                       -(2.0 ** -1022), 1e300, -1e300]),
                      st.floats(-1e300, 1e300))
    scales = st.one_of(st.sampled_from([5e-324, 2.0 ** -1022, 1.0, 1e300]),
                       st.floats(5e-324, 1e300))

    @given(kind=st.sampled_from(["hard", "soft", "asoft"]), ecdf=st.booleans(),
           lanes=st.lists(st.tuples(coefs, coefs, scales, scales), min_size=1,
                          max_size=16),
           exact_coef=st.booleans(), exact_scale=st.booleans(),
           a=st.floats(0.0, 10.0), b=st.floats(0.0, 10.0), theta=coefs)
    @settings(deadline=None, max_examples=400)
    def test_match_four_corners(self, kind, ecdf, lanes, exact_coef, exact_scale,
                                a, b, theta):
        setup = ProblemSetup(n=40, k=35, eta=0.5)
        c1, c2, s1, s2 = (np.array(v) for v in zip(*lanes))
        coef_lo = np.minimum(c1, c2)
        coef_hi = coef_lo if exact_coef else np.maximum(c1, c2)
        s_lo = np.minimum(s1, s2)
        s_hi = s_lo if exact_scale else np.maximum(s1, s2)
        event = (simulate._Ecdf(a + 0.1, theta, np.linspace(-4.0, 4.0, 41)) if ecdf
                 else simulate._Coverage(a, b, theta))
        corners = [simulate._estimate(kind, setup, coef, s)
                   for coef in (coef_lo, coef_hi) for s in (s_lo, s_hi)]
        want = event.bounds(np.minimum.reduce(corners), np.maximum.reduce(corners),
                            s_lo, s_hi)
        got = simulate._corners(event, kind, setup, coef_lo, coef_hi, s_lo, s_hi)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


class TestEcdf:
    def test_zero_mass_matches_atom(self):
        plan = SimulationPlan(setup=SETUP, theta=0.0, reps=200_000, seed=61)
        alpha = ScalingFactor.conservative(SETUP)
        res = simulate_scaled_error_ecdf(plan, "hard", alpha, [0.0])
        expected = atom_mass(SETUP)
        se = math.sqrt(expected * (1.0 - expected) / plan.reps)
        assert abs(res.zero_mass - expected) <= 4.0 * se

    def test_zero_mass_sits_in_the_jump(self):
        plan = SimulationPlan(setup=SETUP, theta=0.0, reps=50_000, seed=63)
        alpha = ScalingFactor.conservative(SETUP)
        res = simulate_scaled_error_ecdf(plan, "soft", alpha,
                                         [-1e-12, 0.0, 1e-12])
        jump = res.values[1] - res.values[0]
        assert jump == pytest.approx(res.zero_mass, abs=1e-12)

    def test_values_are_a_cdf(self):
        plan = SimulationPlan(setup=SETUP, theta=0.16, reps=50_000, seed=67)
        grid = np.linspace(-5.0, 5.0, 41)
        res = simulate_scaled_error_ecdf(plan, "asoft", 2.0, grid)
        assert isinstance(res, EcdfResult)
        assert np.all(np.diff(res.values) >= 0.0)
        assert 0.0 <= res.values[0] and res.values[-1] <= 1.0
        assert res.reps == plan.reps

    @pytest.mark.parametrize("kind", ["hard", "soft", "asoft"])
    def test_kolmogorov_distance(self, kind):
        theta = 0.16
        reps = 100_000
        alpha = ScalingFactor.conservative(SETUP)
        plan = SimulationPlan(setup=SETUP, theta=theta, reps=reps, seed=71)
        ls, sigma_hat = component_draws(plan)
        est = kernel(kind, ls, sigma_hat * SETUP.xi * SETUP.eta)
        draws = np.sort(float(alpha) * (est - theta) / sigma_hat)
        cdf = analytic_cdf_interpolator(kind, SETUP, theta, float(alpha))
        dist = ks_distance(draws, cdf)
        assert dist <= 1.63 / math.sqrt(reps) + 1e-4

    def test_grid_validation(self):
        plan = SimulationPlan(setup=SETUP, theta=0.0, reps=10, seed=5)
        with pytest.raises(DomainError):
            simulate_scaled_error_ecdf(plan, "hard", 2.0, [1.0, 0.0])
        with pytest.raises(DomainError):
            simulate_scaled_error_ecdf(plan, "hard", 2.0, [])
        with pytest.raises(DomainError):
            simulate_scaled_error_ecdf(plan, "hard", 0.0, [0.0])
        for grid in ([-1.0, math.nan, 1.0], [math.nan]):
            with pytest.raises(DomainError):
                simulate_scaled_error_ecdf(plan, "hard", 2.0, grid)

    def test_needs_variance_estimate(self):
        setup = ProblemSetup(n=5, k=5)
        plan = SimulationPlan(setup=setup, theta=0.0, reps=10, seed=5)
        with pytest.raises(DomainError):
            simulate_scaled_error_ecdf(plan, "hard", 2.0, [0.0])
