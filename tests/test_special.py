"""Special functions and numerical engines.

Reference values come from independent routes computed inside the tests:
a power-series normal CDF, mpmath's incomplete beta for the t quantile,
and scipy.stats distributions where an external cross-check is wanted.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy.integrate import quad
from scipy.stats import chi2 as chi2_dist

from threshcov import (
    BracketError,
    DEFAULT_QUADRATURE,
    DomainError,
    NumericsError,
    QuadratureConfig,
    chi_sq_cdf,
    chi_sq_quantile,
    find_root,
    integrate_halfline,
    rho_density,
    rho_upper_limit,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    t_cdf,
    t_pdf,
    t_quantile,
)
from threshcov import special
from threshcov.special import _integrate_with_bound, _rho_log_norm


def series_normal_cdf(x: float) -> float:
    """Power-series normal CDF: 1/2 + pdf(x) * sum x^(2k+1) / (2k+1)!!."""
    term = x
    total = 0.0
    k = 0
    while True:
        total += term
        k += 1
        term *= x * x / (2 * k + 1)
        if abs(term) < 1e-18 * max(1.0, abs(total)):
            break
    return 0.5 + math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * total


def bisect(f, lo, hi, tol=1e-12):
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if hi - lo < tol:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestNormal:
    def test_cdf_matches_series_oracle(self):
        for x in (-3.0, -1.0, -0.31, 0.0, 0.5, 1.959964, 4.0):
            assert std_normal_cdf(x) == pytest.approx(series_normal_cdf(x), abs=1e-14)

    def test_quantile_0975(self):
        root = bisect(lambda x: series_normal_cdf(x) - 0.975, 1.0, 3.0)
        assert std_normal_quantile(0.975) == pytest.approx(root, abs=1e-9)
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)

    def test_cdf_extremes(self):
        assert std_normal_cdf(math.inf) == 1.0
        assert std_normal_cdf(-math.inf) == 0.0
        assert std_normal_quantile(0.0) == -math.inf
        assert std_normal_quantile(1.0) == math.inf
        with pytest.raises(DomainError):
            std_normal_quantile(1.5)

    def test_pdf_values(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-12)
        big = std_normal_pdf(40.0)
        assert big < 1e-300

    @given(st.floats(-8, 8))
    @settings(deadline=None)
    def test_cdf_symmetry(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_cdf_monotone(self):
        xs = np.linspace(-8, 8, 401)
        assert np.all(np.diff(std_normal_cdf(xs)) >= 0.0)


class TestRho:
    @pytest.mark.parametrize("m", [1, 2, 5, 30, 200])
    def test_normalization(self, m):
        upper = rho_upper_limit(m, 1e-14)
        val = integrate_halfline(lambda s: rho_density(s, m), upper=upper)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_half_normal_mean(self):
        # E[S] with one degree of freedom is sqrt(2/pi)
        upper = rho_upper_limit(1, 1e-15)
        val = integrate_halfline(lambda s: s * rho_density(s, 1), upper=upper)
        assert val == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-8)

    def test_density_vs_chi2_finite_difference(self):
        # S = sqrt(chi2_5 / 5): density at s equals d/ds chi2.cdf(5 s^2, 5)
        h = 1e-5
        fd = (chi2_dist.cdf(5 * (1 + h) ** 2, 5) - chi2_dist.cdf(5 * (1 - h) ** 2, 5)) / (2 * h)
        assert rho_density(1.0, 5) == pytest.approx(fd, abs=1e-8)

    def test_zero_below_origin(self):
        assert rho_density(-1.0, 5) == 0.0
        assert rho_density(0.0, 5) == 0.0

    def test_upper_limit_is_quantile(self):
        s_max = rho_upper_limit(5, 1e-12)
        assert 1.0 - chi2_dist.cdf(5 * s_max ** 2, 5) == pytest.approx(1e-12, rel=1e-6)

    def test_dof_validation(self):
        with pytest.raises(DomainError):
            rho_density(1.0, 0)
        with pytest.raises(DomainError):
            rho_density(1.0, 2.5)


class TestStudentT:
    def test_center(self):
        assert t_cdf(0.0, 5) == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("m", [1, 5, 30])
    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 1.0, 3.0])
    def test_scale_mixture_identity(self, m, x):
        # T_m(x) = integral of Phi(x s) against the rho_m density
        upper = rho_upper_limit(m, 1e-14)
        val = integrate_halfline(lambda s: std_normal_cdf(x * s) * rho_density(s, m),
                                 upper=upper)
        assert val == pytest.approx(t_cdf(x, m), abs=1e-8)

    def test_quantile_0975_vs_mpmath(self):
        mpmath = pytest.importorskip("mpmath")

        def t5_cdf(x):
            # one-sided tail via the regularized incomplete beta
            z = 5.0 / (5.0 + x * x)
            tail = 0.5 * float(mpmath.betainc(2.5, 0.5, 0, z, regularized=True))
            return 1.0 - tail if x >= 0 else tail

        root = bisect(lambda x: t5_cdf(x) - 0.975, 1.0, 4.0)
        assert root == pytest.approx(2.570582, abs=1e-6)
        assert t_quantile(0.975, 5) == pytest.approx(root, abs=1e-9)
        assert t_cdf(2.570582, 5) == pytest.approx(0.975, abs=1e-6)

    def test_extremes(self):
        assert t_cdf(math.inf, 5) == 1.0
        assert t_cdf(-math.inf, 5) == 0.0
        assert t_quantile(0.0, 5) == -math.inf
        assert t_quantile(1.0, 5) == math.inf

    def test_pdf_symmetric_and_normalized(self):
        xs = np.linspace(0.0, 6.0, 25)
        assert np.allclose(t_pdf(xs, 7), t_pdf(-xs, 7), atol=1e-15)
        upper = 1e6
        val = integrate_halfline(lambda x: t_pdf(x, 3), breakpoints=(1.0, 10.0, 100.0, 1e4),
                                 upper=upper)
        assert 2 * val == pytest.approx(1.0, abs=1e-6)

    def test_pdf_is_cdf_derivative(self):
        h = 1e-5
        for x in (-1.3, 0.4, 2.0):
            fd = (t_cdf(x + h, 5) - t_cdf(x - h, 5)) / (2 * h)
            assert t_pdf(x, 5) == pytest.approx(fd, abs=1e-6)


class TestChiSquare:
    def test_values(self):
        assert chi_sq_cdf(0.0, 5) == 0.0
        assert chi_sq_cdf(math.inf, 5) == 1.0
        with pytest.raises(DomainError):
            chi_sq_cdf(-0.5, 5)

    def test_median(self):
        # chi-square with 5 dof has median about 4.351
        assert chi_sq_quantile(0.5, 5) == pytest.approx(4.351, abs=1e-3)
        assert chi_sq_cdf(4.351, 5) == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_consistency_with_rho(self, s):
        # P(S <= s) = chi2_cdf(m s^2, m)
        val = integrate_halfline(lambda u: rho_density(u, 5), upper=s)
        assert val == pytest.approx(chi_sq_cdf(5 * s * s, 5), abs=1e-9)

    def test_quantile_roundtrip(self):
        for p in (0.01, 0.3, 0.9, 0.999):
            assert chi_sq_cdf(chi_sq_quantile(p, 7), 7) == pytest.approx(p, abs=1e-10)


class TestIntegrator:
    def test_indicator_with_breakpoint(self):
        # mass of S above 1 equals the chi-square upper tail at m s^2
        upper = rho_upper_limit(5, 1e-14)
        val = integrate_halfline(lambda s: np.where(s > 1.0, 1.0, 0.0) * rho_density(s, 5),
                                 breakpoints=(1.0,), upper=upper)
        assert val == pytest.approx(1.0 - chi2_dist.cdf(5.0, 5), abs=1e-10)

    def test_breakpoints_outside_domain_ignored(self):
        val = integrate_halfline(lambda s: np.ones_like(s), breakpoints=(-1.0, 5.0, 99.0),
                                 upper=2.0)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_error_bound_honest(self):
        cases = [
            (lambda s: rho_density(s, 5), rho_upper_limit(5, 1e-15), 1.0),
            (lambda s: s * rho_density(s, 1), rho_upper_limit(1, 1e-16),
             math.sqrt(2.0 / math.pi)),
            (lambda s: np.sin(s), math.pi, 2.0),
        ]
        for f, upper, truth in cases:
            value, bound = _integrate_with_bound(f, (), upper, DEFAULT_QUADRATURE)
            assert abs(value - truth) <= max(bound, 1e-12) + 1e-13

    def test_nonconvergence_carries_estimate(self):
        cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=2)
        with pytest.raises(NumericsError) as info:
            integrate_halfline(lambda s: np.sin(40.0 * s * s), upper=6.0, cfg=cfg)
        assert info.value.estimate is not None
        assert info.value.error_bound is not None and info.value.error_bound > 0

    def test_nan_integrand_rejected(self):
        with pytest.raises(NumericsError):
            integrate_halfline(lambda s: np.full_like(s, math.nan), upper=1.0)

    def test_zero_width(self):
        assert integrate_halfline(lambda s: np.ones_like(s), upper=0.0) == 0.0

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(tail_mass_tol=2.0)
        with pytest.raises(DomainError):
            QuadratureConfig(max_subdivisions=0)
        assert DEFAULT_QUADRATURE.abs_tol <= 1e-8



class TestNanArguments:
    """A NaN argument is a DomainError, never a finite value."""

    @pytest.mark.parametrize("call", [
        lambda x: t_cdf(x, 5),
        lambda x: chi_sq_cdf(x, 5),
        lambda x: t_quantile(x, 5),
        lambda x: rho_density(x, 5),
        lambda x: std_normal_quantile(x),
        lambda x: chi_sq_quantile(x, 5),
        lambda x: std_normal_cdf(x),
        lambda x: std_normal_pdf(x),
        lambda x: t_pdf(x, 5),
    ], ids=["t_cdf", "chi_sq_cdf", "t_quantile", "rho_density",
            "std_normal_quantile", "chi_sq_quantile", "std_normal_cdf",
            "std_normal_pdf", "t_pdf"])
    @pytest.mark.parametrize("arg", [math.nan, np.array([0.5, math.nan])],
                             ids=["scalar", "array"])
    def test_nan_raises(self, call, arg):
        with pytest.raises(DomainError):
            call(arg)


def _t_cdf_wrapper(x, m):
    """Student-t CDF through the explicit +-inf handling it once had."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.isneginf(x), 0.0,
                   np.where(np.isposinf(x), 1.0,
                            sp.stdtr(m, np.where(np.isfinite(x), x, 0.0))))
    return out if out.ndim else float(out)


class TestLoneCallBits:
    """The lone-call paths return the bits of the plain expressions."""

    DOFS = [1, 5, 995, 10 ** 6]

    @pytest.mark.parametrize("m", DOFS)
    @pytest.mark.parametrize("x", [-math.inf, -1e300, -3.7, 0.0, 3.7, 1e300, math.inf])
    def test_t_cdf_same_bits_for_every_argument_type(self, m, x):
        want = _t_cdf_wrapper(x, m)
        forms = [x, np.float64(x), np.array(x)]
        if math.isfinite(x) and x == int(x):
            forms.append(int(x))
        for form in forms:
            got = t_cdf(form, m)
            assert type(got) is float and got.hex() == want.hex()
        got = t_cdf(np.array([x]), m)
        assert got.shape == (1,) and got[0].hex() == want.hex()

    def test_t_cdf_array_matches_wrapper(self):
        xs = np.array([-math.inf, -1e300, -3.7, -1e-300, 0.0, 0.3, 3.7, 1e300, math.inf])
        for m in self.DOFS:
            assert t_cdf(xs, m).tobytes() == _t_cdf_wrapper(xs, m).tobytes()

    @pytest.mark.parametrize("m", DOFS)
    def test_cached_normaliser_is_the_expression(self, m):
        uncached = math.log(2.0) + 0.5 * m * math.log(0.5 * m) - sp.gammaln(0.5 * m)
        assert float(_rho_log_norm(m)).hex() == float(uncached).hex()
        s = np.array([1e-3, 0.2, 0.9, 1.0, 1.1, 3.0])
        with np.errstate(under="ignore"):
            want = np.exp(uncached + (m - 1.0) * np.log(s) - 0.5 * m * s * s)
        assert rho_density(s, m).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", DOFS)
    def test_cached_upper_limit_is_the_expression(self, m):
        for tol in (1e-12, 1e-14, 0.5):
            want = math.sqrt(sp.chdtri(m, tol) / m)
            assert rho_upper_limit(m, tol).hex() == want.hex()
            assert rho_upper_limit(m, np.float64(tol)).hex() == want.hex()

    @pytest.mark.parametrize("tol", [0.0, 1.0, -1e-12, 1.5, math.nan])
    def test_upper_limit_rejects_tolerance_outside_unit_interval(self, tol):
        with pytest.raises(DomainError):
            rho_upper_limit(5, tol)

    @pytest.mark.parametrize("m", [1, 5])
    def test_rho_zero_at_and_below_origin_in_mixed_arrays(self, m):
        s = np.array([-2.0, 0.0, 0.5, -0.0, 1.5, -math.inf])
        got = rho_density(s, m)
        assert got.shape == s.shape
        assert got[[0, 1, 3, 5]].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert got[2] == rho_density(0.5, m) and got[4] == rho_density(1.5, m)
        assert rho_density(np.array([[0.0, 1.0], [-1.0, 2.0]]), m).shape == (2, 2)


class TestGaussKronrodRule:
    """The panel rule: K21 on all 21 nodes, G10 on the first 10."""

    def test_exact_polynomial_degrees(self):
        for degree in range(32):
            p = np.polynomial.Legendre.basis(degree)(special._QK_X)
            exact = 2.0 if degree == 0 else 0.0
            assert abs(p @ special._QK_W - exact) <= 1e-15
            if degree < 20:
                assert abs(p[:10] @ special._G10_W - exact) <= 1e-15
        # neither rule reaches the next even degree
        assert abs(np.polynomial.Legendre.basis(20)(special._QK_X[:10]) @ special._G10_W) > 1e-3
        assert abs(np.polynomial.Legendre.basis(32)(special._QK_X) @ special._QK_W) > 1e-4

    def test_gauss_nodes_are_legendre_10(self):
        x10, _ = np.polynomial.legendre.leggauss(10)
        assert np.all(np.abs(special._QK_X[:10] - x10) <= np.spacing(np.abs(x10)))


# QUADPACK's qk21 table, written out apart from the library's: (node,
# Kronrod weight, Gauss-10 weight) for each nonnegative node, descending;
# a Gauss weight of 0.0 marks a node that only the Kronrod rule uses.
_QK21_TABLE = [
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192, 0.0),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390,
     0.066671344308688137593568809893332),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580, 0.0),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190,
     0.149451349150580593145776339657697),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366, 0.0),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805,
     0.219086362515982043995534934228163),
    (0.562757134668604683339000099272694, 0.123491976262065851077208980877781, 0.0),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707,
     0.269266719309996355091226921569469),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717, 0.0),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068,
     0.295524224714752870173892994651338),
    (0.0, 0.149445554002916905664936468389821, 0.0),
]


def _qk21():
    """(nodes, Kronrod weights, Gauss weights): the 10 Gauss nodes
    ascending, then the 11 Kronrod nodes ascending."""
    gauss = [row for row in _QK21_TABLE if row[2]]
    kronrod = [row for row in _QK21_TABLE if not row[2]]
    order = ([(-x, wk, wg) for x, wk, wg in gauss] + gauss[::-1]
             + [(-x, wk, wg) for x, wk, wg in kronrod[:-1]] + kronrod[::-1])
    nodes, wk, wg = (np.array(col) for col in zip(*order))
    return nodes, wk, wg[:10]


def _lone_reference(f, breakpoints, upper, cfg=DEFAULT_QUADRATURE):
    """The lone adaptive G10/K21 rule, written out plainly: split panels go
    after the unsplit ones as left halves, then right halves."""
    nodes, wk, wg = _qk21()

    def rule(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = f((mid[:, None] + half[:, None] * nodes).ravel()).reshape(len(lo), -1)
        k21 = half * (vals @ wk)
        return k21, np.abs(k21 - half * (vals[:, :10] @ wg))

    edges = np.array([0.0] + sorted({b for b in breakpoints if 0.0 < b < upper}) + [upper])
    lo, hi = edges[:-1], edges[1:]
    vals, errs = rule(lo, hi)
    while True:
        total, err = float(vals.sum()), float(errs.sum())
        target = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if err <= target:
            return total, err
        split = errs > target / (2.0 * len(errs))
        if not split.any():
            split[int(np.argmax(errs))] = True
        mid = 0.5 * (lo[split] + hi[split])
        child_lo = np.concatenate([lo[split], mid])
        child_hi = np.concatenate([mid, hi[split]])
        child_vals, child_errs = rule(child_lo, child_hi)
        lo = np.concatenate([lo[~split], child_lo])
        hi = np.concatenate([hi[~split], child_hi])
        vals = np.concatenate([vals[~split], child_vals])
        errs = np.concatenate([errs[~split], child_errs])


class TestLoneQuadratureBits:
    @pytest.mark.parametrize("case", [
        (lambda s: np.where(s > 1.0, 1.0, 0.0) * rho_density(s, 5), (1.0,), 5),
        (lambda s: std_normal_cdf(0.7 * s - 0.2) * rho_density(s, 995), (0.2 / 0.7,), 995),
        (lambda s: np.sin(40.0 * s * s), (), None),
        (lambda s: s * rho_density(s, 1), (0.3, 2.0, 2.0), 1),
    ], ids=["indicator", "normal-mixture", "oscillating", "first-moment"])
    def test_value_and_bound_bits_match_plain_rule(self, case):
        f, points, m = case
        upper = 3.0 if m is None else rho_upper_limit(m, 1e-12)
        value, bound = _integrate_with_bound(f, points, upper, DEFAULT_QUADRATURE)
        want_value, want_bound = _lone_reference(f, points, upper)
        assert value.hex() == want_value.hex() and bound.hex() == want_bound.hex()


class TestBatchedIntegrator:
    """A 2-D breakpoint array integrates one problem per row in shared rounds."""

    @staticmethod
    def indicator_tails(cuts, m=5):
        """Mass of S above each cut: one discontinuity per problem."""
        cuts = np.asarray(cuts, dtype=float)

        def f(nodes):
            if nodes.dtype.names is None:
                return np.where(nodes > cuts[0], 1.0, 0.0) * rho_density(nodes, m)
            s, cut = nodes["s"], cuts[nodes["problem"]]
            return np.where(s > cut, 1.0, 0.0) * rho_density(s, m)

        return f

    def test_problems_keep_their_own_breakpoints(self):
        cuts = np.array([0.5, 1.0, 1.7, 2.9])
        upper = rho_upper_limit(5, 1e-14)
        # NaN pads the rows; the last row also repeats its point
        points = np.array([[0.5, np.nan], [1.0, np.nan], [1.7, -3.0], [2.9, 2.9]])
        values, bounds = integrate_halfline(self.indicator_tails(cuts), points,
                                            upper=upper, with_bound=True)
        assert values.shape == bounds.shape == (4,)
        exact = 1.0 - chi2_dist.cdf(5.0 * cuts ** 2, 5)
        assert values == pytest.approx(exact, abs=1e-10)
        for i, cut in enumerate(cuts):
            lone, lone_bound = _integrate_with_bound(
                self.indicator_tails([cut]), (cut,), upper, DEFAULT_QUADRATURE)
            assert abs(values[i] - lone) <= bounds[i] + lone_bound + 1e-15

    def test_converged_problems_leave_the_batch(self):
        # a constant converges in the first round, the peaked rows do not
        seen = []
        widths = np.array([np.inf, 0.05, 0.2])

        def f(nodes):
            seen.append(np.unique(nodes["problem"]).tolist())
            s, w = nodes["s"], widths[nodes["problem"]]
            return np.exp(-0.5 * ((s - 1.0) / w) ** 2)

        values = integrate_halfline(f, np.full((3, 1), np.nan), upper=2.0)
        assert values[0] == pytest.approx(2.0, abs=1e-12)
        exact = (widths[1:] * math.sqrt(2.0 * math.pi)
                 * (2.0 * std_normal_cdf(1.0 / widths[1:]) - 1.0))
        assert values[1:] == pytest.approx(exact, rel=1e-9)
        assert seen[0] == [0, 1, 2]
        assert all(0 not in rows for rows in seen[1:])
        assert len(seen) > 2

    def test_nan_in_one_problem(self):
        def f(nodes):
            return np.where(nodes["problem"] == 2, math.nan, 1.0)

        with pytest.raises(NumericsError) as info:
            integrate_halfline(f, np.zeros((4, 0)), upper=1.0)
        assert info.value.problem == 2
        assert info.value.error_bound == math.inf
        assert "problem 2" in str(info.value)

    def test_overrun_in_one_problem(self):
        cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=8)
        rate = np.array([0.0, 40.0])

        def f(nodes):
            s, r = nodes["s"], rate[nodes["problem"]]
            return np.cos(r * s * s)

        with pytest.raises(NumericsError) as batch:
            integrate_halfline(f, np.zeros((2, 0)), upper=6.0, cfg=cfg)
        with pytest.raises(NumericsError) as lone:
            integrate_halfline(lambda s: np.cos(40.0 * s * s), upper=6.0, cfg=cfg)
        assert batch.value.problem == 1
        assert lone.value.problem is None
        assert batch.value.estimate == pytest.approx(lone.value.estimate, abs=1e-14)
        assert batch.value.error_bound == pytest.approx(lone.value.error_bound,
                                                        rel=1e-12)

    def test_empty_batch(self):
        def f(nodes):
            raise AssertionError("an empty batch must not evaluate the integrand")

        values, bounds = integrate_halfline(f, np.empty((0, 3)), upper=1.0,
                                            with_bound=True)
        assert values.shape == bounds.shape == (0,)

    def test_zero_width_batch(self):
        values = integrate_halfline(lambda s: np.ones_like(s), np.zeros((3, 0)),
                                    upper=0.0)
        assert values.tolist() == [0.0, 0.0, 0.0]

    def test_batch_of_one_passes_plain_nodes(self):
        kinds = []

        def f(nodes):
            kinds.append(nodes.dtype)
            return np.ones_like(nodes)

        values = integrate_halfline(f, np.array([[0.5]]), upper=2.0)
        assert values.shape == (1,) and values[0] == pytest.approx(2.0)
        assert all(dtype == np.float64 for dtype in kinds)

    def test_scalar_call_returns_float(self):
        value = integrate_halfline(lambda s: np.ones_like(s), (0.5,), upper=2.0)
        assert type(value) is float
        value, bound = integrate_halfline(lambda s: np.ones_like(s), upper=2.0,
                                          with_bound=True)
        assert type(value) is float and type(bound) is float


class TestBlockedRounds:
    """A round's nodes reach the integrand in blocks of _BLOCK_PANELS panels."""

    @staticmethod
    def normal_mixtures(count):
        """Phi(c s - d) rho_5(s), one (c, d) per problem."""
        rng = np.random.default_rng(3)
        c, d = rng.uniform(0.5, 8.0, count), rng.uniform(-2.0, 6.0, count)

        def f(nodes):
            s, rows = nodes["s"], nodes["problem"]
            return std_normal_cdf(c[rows] * s - d[rows]) * rho_density(s, 5)

        return f, (d / c)[:, None]

    def run(self, monkeypatch, rule):
        f, points = self.normal_mixtures(900)
        calls = []

        def counted(g, panels, problem=None):
            calls.append(0)

            def h(nodes):
                calls[-1] += 1
                return g(nodes)

            return rule(h, panels, problem)

        monkeypatch.setattr(special, "_panel_rule", counted)
        values, bounds = integrate_halfline(f, points, upper=rho_upper_limit(5, 1e-12),
                                            with_bound=True)
        return values, bounds, calls

    def test_same_bits_as_one_block(self, monkeypatch):
        rule = special._panel_rule
        values, bounds, calls = self.run(monkeypatch, rule)
        assert max(calls) > 1
        monkeypatch.setattr(special, "_BLOCK_PANELS", 10**9)
        whole_values, whole_bounds, whole_calls = self.run(monkeypatch, rule)
        assert set(whole_calls) == {1} and len(whole_calls) == len(calls)
        assert values.tobytes() == whole_values.tobytes()
        assert bounds.tobytes() == whole_bounds.tobytes()


class TestRhoCuts:
    """Where the estimated-variance mixtures cut and truncate rho_m."""

    @pytest.mark.parametrize("m", [1, 5, 995])
    def test_seed_quantiles(self, m):
        got = special._rho_quantiles(m)
        want = np.sqrt(chi2_dist.ppf(special._RHO_SEED_PROBS, m) / m)
        assert got == pytest.approx(want, rel=1e-12)
        assert not got.flags.writeable

    @pytest.mark.parametrize("m", [1, 5, 995])
    def test_weighted_tail(self, m):
        s_max = special._rho_upper_weighted(m, 1e-12)
        tail, _ = quad(lambda s: s * rho_density(s, m), s_max, s_max + 2.0,
                       epsabs=0.0, epsrel=1e-12)
        assert tail == pytest.approx(1e-12, rel=1e-8)
        assert s_max > rho_upper_limit(m, 1e-12)


class TestRootFinding:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_normal_quantile_by_rootfinding(self):
        root = find_root(lambda x: std_normal_cdf(x) - 0.975, 0.0, 4.0, tol=1e-12)
        assert root == pytest.approx(1.959963985, abs=1e-8)

    def test_endpoint_root(self):
        assert find_root(lambda x: x, 0.0, 1.0) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_deterministic(self):
        f = lambda x: math.tanh(x) - 0.3
        assert find_root(f, 0.0, 2.0) == find_root(f, 0.0, 2.0)

    def test_bad_bracket(self):
        with pytest.raises(DomainError):
            find_root(lambda x: x, 2.0, 1.0)
