"""Special functions and numerical engines.

Reference values come from independent routes computed inside the tests:
a power-series normal CDF, mpmath's incomplete beta for the t quantile,
and scipy.stats distributions where an external cross-check is wanted.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy.integrate import quad
from scipy.optimize import brentq
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
from threshcov.special import _rho_log_norm


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
        val, _ = integrate_halfline(lambda s: rho_density(s, m), upper=upper)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_half_normal_mean(self):
        # E[S] with one degree of freedom is sqrt(2/pi)
        upper = rho_upper_limit(1, 1e-15)
        val, _ = integrate_halfline(lambda s: s * rho_density(s, 1), upper=upper)
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
        val, _ = integrate_halfline(lambda s: std_normal_cdf(x * s) * rho_density(s, m),
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
        val, _ = integrate_halfline(lambda x: t_pdf(x, 3),
                                    breakpoints=(1.0, 10.0, 100.0, 1e4), upper=upper)
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
        val, _ = integrate_halfline(lambda u: rho_density(u, 5), upper=s)
        assert val == pytest.approx(chi_sq_cdf(5 * s * s, 5), abs=1e-9)

    def test_quantile_roundtrip(self):
        for p in (0.01, 0.3, 0.9, 0.999):
            assert chi_sq_cdf(chi_sq_quantile(p, 7), 7) == pytest.approx(p, abs=1e-10)


class TestIntegrator:
    def test_indicator_with_breakpoint(self):
        # mass of S above 1 equals the chi-square upper tail at m s^2
        upper = rho_upper_limit(5, 1e-14)
        val, _ = integrate_halfline(lambda s: np.where(s > 1.0, 1.0, 0.0) * rho_density(s, 5),
                                    breakpoints=(1.0,), upper=upper)
        assert val == pytest.approx(1.0 - chi2_dist.cdf(5.0, 5), abs=1e-10)

    def test_breakpoints_outside_domain_ignored(self):
        val, _ = integrate_halfline(lambda s: np.ones_like(s), breakpoints=(-1.0, 5.0, 99.0),
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
            value, bound = integrate_halfline(f, upper=upper)
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

    def test_integrand_of_the_wrong_shape_rejected(self):
        with pytest.raises(DomainError, match="same shape"):
            integrate_halfline(lambda s: np.ones(3), upper=1.0)

    def test_infinite_truncation_point_rejected(self):
        with pytest.raises(DomainError, match="truncation point"):
            integrate_halfline(lambda s: np.ones_like(s), upper=math.inf)

    def test_zero_width(self):
        value, _ = integrate_halfline(lambda s: np.ones_like(s), upper=0.0)
        assert value == 0.0

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(max_subdivisions=0)
        assert DEFAULT_QUADRATURE.abs_tol <= 1e-8

    def test_breakpoints_of_three_dimensions_rejected(self):
        # and the malformed sequences: a scalar, a 0-d array, nested, text
        for breakpoints in (np.zeros((1, 1, 1)), 0.5, np.array(0.5), [[0.5]], ["a"]):
            with pytest.raises(DomainError):
                integrate_halfline(lambda s: np.ones_like(s), breakpoints, upper=1.0)



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


class TestHugeArguments:
    """Past |x| = 1.3e154, x * x overflows.  The densities are 0 there (t_1's
    is below the smallest normal double), and they say so silently, even
    under np.errstate(all="raise"); below, they keep the plain expression's
    bits."""

    @pytest.mark.parametrize("call", [
        std_normal_pdf,
        lambda x: t_pdf(x, 1),
        lambda x: t_pdf(x, 5),
        lambda x: rho_density(x, 1),
        lambda x: rho_density(x, 995),
    ], ids=["std_normal_pdf", "t_pdf_1", "t_pdf_5", "rho_density_1", "rho_density_995"])
    def test_zero_without_overflow(self, call):
        xs = [1e200, -1e200, 1.7e308, math.inf, -math.inf]
        with np.errstate(all="raise"):
            assert [call(x) for x in xs] == [0.0] * len(xs)
            assert call(np.array(xs)).tolist() == [0.0] * len(xs)

    def test_normal_pdf_is_the_plain_expression(self):
        xs = np.linspace(-45.0, 45.0, 90001)
        with np.errstate(under="ignore"):
            want = (1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * xs * xs)
        assert std_normal_pdf(xs).tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 5, 995])
    def test_rho_density_is_the_plain_expression(self, m):
        s = np.linspace(0.0, 45.0, 90001)[1:]
        with np.errstate(under="ignore"):
            want = np.exp(_rho_log_norm(m) + (m - 1.0) * np.log(s) - 0.5 * m * s * s)
        assert rho_density(s, m).tobytes() == want.tobytes()


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
        value, bound = integrate_halfline(f, points, upper=upper)
        want_value, want_bound = _lone_reference(f, points, upper)
        assert value.hex() == want_value.hex() and bound.hex() == want_bound.hex()


class TestBatchedIntegrator:
    """A 2-D breakpoint array integrates one problem per row in shared rounds."""

    @staticmethod
    def indicator_tails(cuts, m=5):
        """Mass of S above each cut: one discontinuity per problem."""
        cuts = np.asarray(cuts, dtype=float)

        def f(nodes):
            s, rows = nodes if isinstance(nodes, tuple) else (nodes, 0)
            return np.where(s > cuts[rows], 1.0, 0.0) * rho_density(s, m)

        return f

    def test_problems_keep_their_own_breakpoints(self):
        cuts = np.array([0.5, 1.0, 1.7, 2.9])
        upper = rho_upper_limit(5, 1e-14)
        # NaN pads the rows; the last row also repeats its point
        points = np.array([[0.5, np.nan], [1.0, np.nan], [1.7, -3.0], [2.9, 2.9]])
        values, bounds = integrate_halfline(self.indicator_tails(cuts), points, upper=upper)
        assert values.shape == bounds.shape == (4,)
        exact = 1.0 - chi2_dist.cdf(5.0 * cuts ** 2, 5)
        assert values == pytest.approx(exact, abs=1e-10)
        for i, cut in enumerate(cuts):
            lone, lone_bound = integrate_halfline(self.indicator_tails([cut]), (cut,),
                                                  upper=upper)
            assert abs(values[i] - lone) <= bounds[i] + lone_bound + 1e-15

    def test_converged_problems_leave_the_batch(self):
        # a constant converges in the first round, the peaked rows do not
        seen = []
        widths = np.array([np.inf, 0.05, 0.2])

        def f(nodes):
            s, rows = nodes
            seen.append(np.unique(rows).tolist())
            return np.exp(-0.5 * ((s - 1.0) / widths[rows]) ** 2)

        values, _ = integrate_halfline(f, np.full((3, 1), np.nan), upper=2.0)
        assert values[0] == pytest.approx(2.0, abs=1e-12)
        exact = (widths[1:] * math.sqrt(2.0 * math.pi)
                 * (2.0 * std_normal_cdf(1.0 / widths[1:]) - 1.0))
        assert values[1:] == pytest.approx(exact, rel=1e-9)
        assert seen[0] == [0, 1, 2]
        assert all(0 not in rows for rows in seen[1:])
        assert len(seen) > 2

    def test_nan_in_one_problem(self):
        def f(nodes):
            s, rows = nodes
            return np.where(rows == 2, math.nan, 1.0)

        with pytest.raises(NumericsError) as info:
            integrate_halfline(f, np.zeros((4, 0)), upper=1.0)
        assert info.value.problem == 2
        assert info.value.error_bound == math.inf
        assert "problem 2" in str(info.value)

    def test_nan_error_estimate_never_converges(self):
        # +inf on (0, 0.5) makes K21 - G10 inf - inf: the error estimate of
        # row 1 is NaN, its target inf, and it must overrun, not converge
        cfg = QuadratureConfig(max_subdivisions=64)

        def f(nodes):
            s, rows = nodes
            return np.where((rows == 1) & (s < 0.5), math.inf, 1.0)

        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericsError) as batch:
                integrate_halfline(f, np.zeros((3, 0)), upper=1.0, cfg=cfg)
            with pytest.raises(NumericsError) as lone:
                integrate_halfline(lambda s: np.where(s < 0.5, math.inf, 1.0), upper=1.0,
                                   cfg=cfg)
        assert batch.value.problem == 1
        assert "problem 1" in str(batch.value)
        assert lone.value.problem is None

    def test_overrun_in_one_problem(self):
        cfg = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=8)
        rate = np.array([0.0, 40.0])

        def f(nodes):
            s, rows = nodes
            return np.cos(rate[rows] * s * s)

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

        values, bounds = integrate_halfline(f, np.empty((0, 3)), upper=1.0)
        assert values.shape == bounds.shape == (0,)

    def test_zero_width_batch(self):
        values, _ = integrate_halfline(lambda s: np.ones_like(s), np.zeros((3, 0)),
                                       upper=0.0)
        assert values.tolist() == [0.0, 0.0, 0.0]

    def test_batch_of_one_passes_rows(self):
        seen = []

        def f(nodes):
            s, rows = nodes
            assert s.flags.c_contiguous and rows.flags.c_contiguous
            seen.append((s.dtype, rows.dtype, rows.shape == s.shape, set(rows.tolist())))
            return np.ones_like(s)

        values, _ = integrate_halfline(f, np.array([[0.5]]), upper=2.0)
        assert values.shape == (1,) and values[0] == pytest.approx(2.0)
        assert seen and all(entry == (np.float64, np.intp, True, {0}) for entry in seen)

    def test_scalar_call_returns_float(self):
        value, _ = integrate_halfline(lambda s: np.ones_like(s), (0.5,), upper=2.0)
        assert type(value) is float
        value, bound = integrate_halfline(lambda s: np.ones_like(s), upper=2.0)
        assert type(value) is float and type(bound) is float


class TestBlockedRounds:
    """A round's nodes reach the integrand in blocks of _BLOCK_PANELS panels."""

    @staticmethod
    def normal_mixtures(count):
        """Phi(c s - d) rho_5(s), one (c, d) per problem."""
        rng = np.random.default_rng(3)
        c, d = rng.uniform(0.5, 8.0, count), rng.uniform(-2.0, 6.0, count)

        def f(nodes):
            s, rows = nodes
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
        values, bounds = integrate_halfline(f, points, upper=rho_upper_limit(5, 1e-12))
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


# One call of every public entry point and CLI command, then a check of the
# scipy modules loaded (see TestRootFinding.test_no_scipy_optimize_import).
RUNTIME_CALLS = """
import runpy
import sys
import numpy as np
import threshcov as tc
from threshcov import cli

setup = tc.reference_setup(eta=0.5)
alpha = tc.ScalingFactor.conservative(setup)
known = tc.IntervalSpec(0.5, 0.5)
est = tc.IntervalSpec(0.5, 0.5, tc.VarianceMode.ESTIMATED)
tc.tilde_cdf("hard", 0.3, setup, 0.1, alpha)
tc.tilde_density("asoft", np.array([-0.3, 0.3]), setup, 0.1, alpha)
tc.density_grid("soft", setup, 0.0, alpha)
tc.atom_mass(setup)
tc.known_coverage("soft", 0.1, 1.0, known, setup)
tc.unknown_coverage("hard", 0.1, 1.0, est, setup)
tc.solve_known_half_length("asoft", 0.05, setup)
tc.solve_unknown_half_length("asoft", 0.05, setup)
tc.coverage_lower_bound("hard", est, setup)
tc.coverage_upper_bound(est, setup)
tc.min_coverage_search("hard", est, setup)
tc.conservative_limit_cdf("hard", 0.3, tc.ConservativeRegime(nu=1.0, e=2.0, m=5))
tc.consistent_limit_cdf("soft", 0.3, tc.ConsistentRegime(zeta=0.5, m=5))
rng = np.random.default_rng(3)
X = rng.standard_normal((60, 3))
y = X @ np.array([0.2, -0.4, 0.1]) + rng.standard_normal(60)
tc.ls_fit(X, y)
xi = tc.compute_xi_all(X)
tc.estimate(X, y, tc.ThresholdRule("soft", 0.3))
plan = tc.SimulationPlan(setup=setup, theta=0.1, reps=1000, seed=3)
tc.simulate_coverage(plan, "hard", est)
tc.simulate_scaled_error_ecdf(plan, "hard", alpha, [-1.0, 0.0, 1.0])
tc.simulate_coverage_full(plan, "hard", est)
dense = tc.ProblemSetup(n=60, k=3, xi=float(xi[0]), eta=0.2)
tc.simulate_coverage_full(tc.SimulationPlan(setup=dense, theta=0.1, reps=1000, seed=4,
                                            design=X), "asoft", est)
for argv in (["table1", "--fast"], ["figure", "--which", "pdfH"],
             ["figure", "--which", "covAS"], ["interval"], ["coverage_curve"],
             ["limit_check", "--fast"]):
    assert cli.main(argv) == 0, argv
# python -m threshcov: the package's __main__ and its exit code
sys.argv = ["threshcov", "interval", "--kind", "hard", "--eta", "0.5", "--mode", "estimated"]
try:
    runpy.run_module("threshcov", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
else:
    raise AssertionError("python -m threshcov did not exit")
loaded = sorted(m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules)
assert not loaded, loaded
"""


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

    # one family of seeded root problems per entry: (name, f for a shift c)
    BRENT_FAMILIES = (
        ("tanh", lambda c: lambda x: math.tanh(x) - c),
        ("cubic", lambda c: lambda x: x ** 3 - 2.0 * x - c),
        ("normal", lambda c: lambda x: sp.ndtr(x) - (0.5 + 0.49 * math.tanh(c))),
        ("t3", lambda c: lambda x: sp.stdtr(3, x) - (0.5 + 0.49 * math.tanh(c))),
        # slopes whose products underflow: the step's division by zero bisects
        ("tiny", lambda c: lambda x: 1e-200 * (x ** 3 + x - c)),
    )

    @pytest.mark.parametrize("name, family", BRENT_FAMILIES, ids=[n for n, _ in BRENT_FAMILIES])
    def test_matches_brentq(self, name, family):
        # the transcribed loop returns brentq's root after brentq's evaluations
        rng = np.random.default_rng(sum(map(ord, name)))
        compared = 0
        for _ in range(150):
            f = family(float(rng.uniform(-0.9, 0.9)))
            lo, hi = float(rng.uniform(-8.0, -0.01)), float(rng.uniform(0.01, 8.0))
            tol = float(10.0 ** rng.uniform(-14.0, -4.0))
            if (f(lo) > 0.0) == (f(hi) > 0.0):
                continue
            ours, theirs = [], []
            root = find_root(lambda x: ours.append(x) or f(x), lo, hi, tol)
            want = brentq(lambda x: theirs.append(x) or f(x), lo, hi, xtol=tol, maxiter=300)
            assert root == want and type(root) is float
            assert ours == theirs
            compared += 1
        assert compared > 100

    def test_nan_mid_solve(self):
        with pytest.raises(NumericsError):
            find_root(lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0)

    def test_nan_end_other_positive(self):
        with pytest.raises(NumericsError):
            find_root(lambda x: math.nan if x < 0.1 else x - 0.5, 0.0, 1.0)

    def test_nan_end_other_negative(self):
        # not a misleading "no sign change" BracketError
        with pytest.raises(NumericsError):
            find_root(lambda x: math.nan if x < 0.1 else 0.5 - x, 0.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf),
                                        (-math.inf, math.inf), (math.nan, 1.0)])
    def test_non_finite_bracket(self, lo, hi):
        seen = []
        with pytest.raises(DomainError):
            find_root(lambda x: seen.append(x) or x, lo, hi)
        assert seen == []

    def test_exhausted_iterations_report_estimate(self):
        # a step bracketed 600 orders of magnitude above tol needs more than
        # 300 bisections; the error carries brentq's last iterate and a bracket
        step = lambda x: -1.0 if x < 0.3 else 1.0
        with pytest.raises(NumericsError) as info:
            find_root(step, -1e300, 1e300, tol=1e-300)
        last, _ = brentq(step, -1e300, 1e300, xtol=1e-300, maxiter=300,
                         full_output=True, disp=False)
        assert info.value.estimate == last
        assert 0.0 < info.value.error_bound < math.inf
        assert abs(info.value.estimate - 0.3) <= 2.0 * info.value.error_bound

    def test_exhausted_iterations_ending_on_a_sign_change(self):
        # here the last step crosses the root, so the previous iterate, not
        # the older bracket end, bounds it from the other side
        step = lambda x: -1.0 if x < 0.3 else 1.0
        with pytest.raises(NumericsError) as info:
            find_root(step, -1e300, 1e299, tol=1e-300)
        last, _ = brentq(step, -1e300, 1e299, xtol=1e-300, maxiter=300,
                         full_output=True, disp=False)
        estimate, bound = info.value.estimate, info.value.error_bound
        assert estimate == last
        assert estimate - 2.0 * bound < 0.3 < estimate

    def test_nonpositive_tolerance_rejected(self):
        seen = []
        for tol in (0.0, -1e-10, math.nan):
            with pytest.raises(DomainError, match="tolerance"):
                find_root(lambda x: seen.append(x) or x, -1.0, 1.0, tol)
        assert seen == []

    def test_root_at_the_upper_end(self):
        seen = []
        assert find_root(lambda x: seen.append(x) or x - 2.0, -1.0, 2.0) == 2.0
        assert seen == [-1.0, 2.0]

    def test_no_scipy_optimize_import(self):
        """The runtime loads numpy and scipy.special only: after one call of
        every public entry point and every CLI command, in a fresh
        interpreter (this module itself imports scipy.optimize), neither
        scipy.optimize nor scipy.linalg is loaded."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-c", RUNTIME_CALLS], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
