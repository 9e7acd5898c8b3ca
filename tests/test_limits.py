"""Limit laws of the scaled error along threshold sequences.

Two regimes: a conservative one where the rescaled threshold settles at a
finite value, and a consistent one where it diverges while the raw
threshold vanishes.  Closed forms are pinned against frozen oracle values;
the quadrature branch is pinned against the finite-sample CDF, which
depends on the sequence only through the regime parameters.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshcov import (
    ConservativeRegime,
    ConsistentRegime,
    DomainError,
    EstimatorKind,
    ProblemSetup,
    conservative_limit_cdf,
    consistent_limit_cdf,
    hard_weight,
    chi_sq_cdf,
    limit_atoms,
    t_cdf,
    tilde_cdf,
    weak_convergence_gaps,
)
from threshcov.cli import _limit_suites

KINDS = list(EstimatorKind)


class TestRegimeValidation:
    def test_conservative(self):
        ConservativeRegime(nu=0.0, e=0.0, m=5)
        with pytest.raises(DomainError):
            ConservativeRegime(nu=math.nan, e=1.0, m=5)
        with pytest.raises(DomainError):
            ConservativeRegime(nu=0.0, e=-0.1, m=5)
        with pytest.raises(DomainError):
            ConservativeRegime(nu=0.0, e=math.inf, m=5)
        with pytest.raises(DomainError):
            ConservativeRegime(nu=0.0, e=1.0, m=0)
        with pytest.raises(DomainError):
            ConservativeRegime(nu=0.0, e=1.0, m=2.5)

    def test_consistent(self):
        ConsistentRegime(zeta=0.4, m=math.inf)
        with pytest.raises(DomainError):
            ConsistentRegime(zeta=math.nan, m=5)
        with pytest.raises(DomainError):
            ConsistentRegime(zeta=1.0, m=-3)
        with pytest.raises(DomainError):
            ConsistentRegime(zeta=1.0, m=math.inf, hard_aux=(1.0, 2.0))

    def test_hard_aux_s_may_be_none(self):
        # s enters hard_weight only when f is infinite
        regime = ConsistentRegime(zeta=1.0, m=math.inf, hard_aux=(1.0, 0.5, None))
        assert regime.hard_aux == (1.0, 0.5, None)
        assert consistent_limit_cdf("hard", -0.5, regime) == hard_weight(1.0, 0.5)
        steep = ConsistentRegime(zeta=1.0, m=math.inf, hard_aux=(math.inf, 0.5, None))
        with pytest.raises(DomainError):
            consistent_limit_cdf("hard", -0.5, steep)

    @pytest.mark.parametrize("aux", [("one", 0.5, 0.0), (1.0, None, 0.0),
                                     (1.0, 0.5, "s"), (None, 0.5, 0.0), 3.0])
    def test_hard_aux_rejects_non_numbers(self, aux):
        with pytest.raises(DomainError):
            ConsistentRegime(zeta=1.0, m=math.inf, hard_aux=aux)

    def test_conservative_infinite_dof_refused(self):
        regime = ConservativeRegime(nu=0.0, e=1.0, m=math.inf)
        with pytest.raises(DomainError):
            conservative_limit_cdf("hard", 0.3, regime)


class TestConservativeClosedForms:
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_limit_threshold_is_student_t(self, kind):
        regime = ConservativeRegime(nu=0.3, e=0.0, m=5)
        for x in (-2.0, 0.0, 1.4):
            assert conservative_limit_cdf(kind, x, regime) == pytest.approx(
                t_cdf(x, 5), abs=1e-14)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [1, 40])
    def test_centered_zero_threshold_at_subnormal_x(self, kind, m):
        # at nu = 0 and e = 0 a negative subnormal x once made adaptive
        # soft's offset 0/0 and raised DomainError
        regime = ConservativeRegime(nu=0.0, e=0.0, m=m)
        xs = [5e-324, -5e-324, -1e-320, 0.0, 1.0, -1.0]
        batch = conservative_limit_cdf(kind, np.array(xs), regime)
        for x, got in zip(xs, batch):
            assert conservative_limit_cdf(kind, x, regime) == pytest.approx(
                t_cdf(x, m), abs=1e-14)
            assert got == pytest.approx(t_cdf(x, m), abs=1e-14)

    def test_divergent_component(self):
        e = 0.5
        for nu in (math.inf, -math.inf):
            shift = math.copysign(e, nu)
            for x in (-1.2, 0.0, 0.8):
                soft = conservative_limit_cdf(
                    "soft", x, ConservativeRegime(nu=nu, e=e, m=5))
                assert soft == pytest.approx(t_cdf(x + shift, 5), abs=1e-14)
                for kind in ("hard", "asoft"):
                    got = conservative_limit_cdf(
                        kind, x, ConservativeRegime(nu=nu, e=e, m=5))
                    assert got == pytest.approx(t_cdf(x, 5), abs=1e-14)

    def test_centered_component_hard_band(self):
        regime = ConservativeRegime(nu=0.0, e=1.0, m=7)
        f = lambda x: conservative_limit_cdf("hard", x, regime)
        assert f(0.5) == pytest.approx(t_cdf(1.0, 7), abs=1e-14)
        assert f(0.0) == pytest.approx(t_cdf(1.0, 7), abs=1e-14)
        assert f(-0.5) == pytest.approx(t_cdf(-1.0, 7), abs=1e-14)
        assert f(1.5) == pytest.approx(t_cdf(1.5, 7), abs=1e-14)
        assert f(-1.5) == pytest.approx(t_cdf(-1.5, 7), abs=1e-14)

    def test_centered_component_soft_shift(self):
        regime = ConservativeRegime(nu=0.0, e=0.8, m=5)
        f = lambda x: conservative_limit_cdf("soft", x, regime)
        assert f(0.7) == pytest.approx(t_cdf(1.5, 5), abs=1e-14)
        assert f(-0.7) == pytest.approx(t_cdf(-1.5, 5), abs=1e-14)

    def test_centered_component_adaptive_soft(self):
        e, m = 0.8, 5
        regime = ConservativeRegime(nu=0.0, e=e, m=m)
        for x in (0.9, -0.9, 2.4):
            half = math.sqrt(0.25 * x * x + e * e)
            arg = 0.5 * x + math.copysign(half, x) if x != 0.0 else half
            assert conservative_limit_cdf("asoft", x, regime) == pytest.approx(
                t_cdf(arg, m), abs=1e-14)


class TestConservativeQuadratureRoute:
    """The limit law along a constant-parameter sequence is the law itself.

    The finite-sample CDF on the sqrt(n)/xi scale depends only on
    (nu, e, m), so the limit law, the same rho_m mixture at rn = 1, must
    agree with it at n = 40, where mu, the slopes, eta and rn all differ.
    """

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("nu", [0.7, -1.2])
    def test_matches_finite_sample_route(self, kind, nu):
        e, m = 1.0, 5
        n, k = 40, 35
        setup = ProblemSetup(n=n, k=k, eta=e / math.sqrt(n))
        theta = nu / math.sqrt(n)
        regime = ConservativeRegime(nu=nu, e=e, m=m)
        for x in (-2.0, -0.5, 0.3, 1.7):
            lhs = conservative_limit_cdf(kind, x, regime)
            rhs = tilde_cdf(kind, x, setup, theta, math.sqrt(n))
            assert lhs == pytest.approx(rhs, abs=5e-10)

    @pytest.mark.parametrize("kind", KINDS)
    def test_valid_cdf_shape(self, kind):
        regime = ConservativeRegime(nu=1.3, e=0.7, m=5)
        xs = np.linspace(-8.0, 8.0, 81)
        vals = [conservative_limit_cdf(kind, x, regime) for x in xs]
        assert np.all(np.diff(vals) >= -1e-10)
        assert vals[0] < 1e-3 and vals[-1] > 0.999
        assert conservative_limit_cdf(kind, math.inf, regime) == 1.0
        assert conservative_limit_cdf(kind, -math.inf, regime) == 0.0
        with pytest.raises(DomainError):
            conservative_limit_cdf(kind, math.nan, regime)


class TestConsistentFiniteDof:
    def test_hard_boundary_example(self):
        regime = ConsistentRegime(zeta=1.0, m=5)
        got = consistent_limit_cdf("hard", -0.5, regime)
        assert got == pytest.approx(0.41463045643247665, abs=1e-10)

    def test_soft_example(self):
        regime = ConsistentRegime(zeta=0.4, m=5)
        got = consistent_limit_cdf("soft", -0.5, regime)
        assert got == pytest.approx(0.3308170979667568, abs=1e-10)

    def test_adaptive_soft_example(self):
        regime = ConsistentRegime(zeta=0.4, m=5)
        got = consistent_limit_cdf("asoft", -0.5, regime)
        assert got == pytest.approx(0.32993095917794435, abs=1e-10)

    def test_hard_negative_component_atom_at_zero(self):
        regime = ConsistentRegime(zeta=-0.8, m=5)
        atom = (consistent_limit_cdf("hard", 0.0, regime)
                - consistent_limit_cdf("hard", -1e-12, regime))
        assert atom == pytest.approx(0.3308170979667568, abs=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("zeta", [0.4, -0.8, 1.0])
    def test_support_and_shape(self, kind, zeta):
        regime = ConsistentRegime(zeta=zeta, m=5)
        assert consistent_limit_cdf(kind, -1.0 - 1e-9, regime) == 0.0
        assert consistent_limit_cdf(kind, 1.0, regime) == 1.0
        xs = np.linspace(-1.2, 1.2, 97)
        vals = [consistent_limit_cdf(kind, x, regime) for x in xs]
        assert np.all(np.diff(vals) >= -1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_x_handled_like_every_cdf(self, kind):
        regime = ConsistentRegime(zeta=0.4, m=5)
        got = consistent_limit_cdf(kind, np.array([-np.inf, 0.3, np.inf]), regime)
        assert got[0] == 0.0 and got[2] == 1.0
        assert got[1] == consistent_limit_cdf(kind, 0.3, regime)
        assert isinstance(consistent_limit_cdf(kind, np.float64(0.3), regime), float)
        with pytest.raises(DomainError, match="CDF argument must not be NaN"):
            consistent_limit_cdf(kind, np.array([0.3, math.nan]), regime)

    @pytest.mark.parametrize("kind", KINDS)
    def test_mirror_against_sign_flip(self, kind):
        plus = ConsistentRegime(zeta=0.4, m=5)
        minus = ConsistentRegime(zeta=-0.4, m=5)
        for x in (-0.9, -0.15, 0.3, 0.7):
            direct = consistent_limit_cdf(kind, x, plus)
            mirrored = 1.0 - consistent_limit_cdf(kind, -x - 1e-13, minus)
            assert direct == pytest.approx(mirrored, abs=1e-10)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("zeta", [0.4, -0.4])
    @pytest.mark.parametrize("x", [1e-160, -1e-160])
    def test_subnormal_square_is_silent(self, kind, zeta, x):
        # x * x is subnormal, so m zeta^2 / x^2 overflows to inf, which is
        # the right chi-square argument there
        regime = ConsistentRegime(zeta=zeta, m=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = consistent_limit_cdf(kind, x, regime)
        near = consistent_limit_cdf(kind, math.copysign(1e-100, x), regime)
        assert got == pytest.approx(near, abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_degenerate_component_limits(self, kind):
        zero = ConsistentRegime(zeta=0.0, m=5)
        assert consistent_limit_cdf(kind, -1e-9, zero) == 0.0
        assert consistent_limit_cdf(kind, 0.0, zero) == 1.0
        diverging = ConsistentRegime(zeta=math.inf, m=5)
        if kind is EstimatorKind.SOFT:
            assert consistent_limit_cdf(kind, -1.0, diverging) == 1.0
            assert consistent_limit_cdf(kind, -1.0 - 1e-9, diverging) == 0.0
        else:
            assert consistent_limit_cdf(kind, -1e-9, diverging) == 0.0
            assert consistent_limit_cdf(kind, 0.0, diverging) == 1.0


def reference_consistent_cdf(kind, x, regime):
    """The consistent limit CDF written out per kind and sign of zeta: the
    chi-square closed forms that the offset-sign law replaced."""
    kind = EstimatorKind(kind)
    x = np.asarray(x, dtype=float)
    zeta, m = regime.zeta, regime.m

    def step(location):
        return np.where(x >= location, 1.0, 0.0)

    if math.isinf(m):
        az = abs(zeta)
        if kind is EstimatorKind.HARD:
            if az < 1.0:
                return step(-zeta)
            if az > 1.0:
                return step(0.0)
            w = hard_weight(*regime.hard_aux)
            return w * step(-zeta) + (1.0 - w) * step(0.0)
        if az <= 1.0:
            return step(-zeta)
        if kind is EstimatorKind.SOFT:
            return step(-math.copysign(1.0, zeta))
        return step(0.0) if math.isinf(zeta) else step(-1.0 / zeta)
    if zeta == 0.0:
        return step(0.0)
    if math.isinf(zeta):
        return step(-math.copysign(1.0, zeta) if kind is EstimatorKind.SOFT else 0.0)
    mz2 = m * zeta * zeta
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        if zeta > 0.0:
            # the law sits on [-1, 0): 0 left of it, 1 from 0 on
            inside = (x >= -1.0) & (x < 0.0)
            xc = np.where(inside, x, -1.0)
            upper_arg = chi_sq_cdf(mz2 / (xc * xc), m)
            if kind is EstimatorKind.HARD:
                value = upper_arg - chi_sq_cdf(mz2, m)
            elif kind is EstimatorKind.SOFT:
                value = upper_arg
            else:
                value = upper_arg - chi_sq_cdf(mz2 * xc * xc, m)
            return np.where(inside, value, step(0.0))
        # the law sits on [0, 1]: 0 left of it, 1 from 1 on
        inside = (x >= 0.0) & (x < 1.0)
        xc = np.where(inside, x, 1.0)
        inv_tail = 1.0 - chi_sq_cdf(mz2 / (xc * xc), m)
        if kind is EstimatorKind.HARD:
            value = chi_sq_cdf(mz2, m) + inv_tail
        elif kind is EstimatorKind.SOFT:
            value = inv_tail
        else:
            value = chi_sq_cdf(mz2 * xc * xc, m) + inv_tail
        return np.where(inside, value, step(1.0))


TINY = math.ulp(0.0)
zetas = st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3),
                  st.sampled_from([0.0, 1.0, -1.0, math.inf, -math.inf]))


class TestConsistentAgainstClosedForms:
    """The offset-sign law against the per-kind closed forms."""

    @given(kind=st.sampled_from(KINDS), m=st.sampled_from([1, 5, 995, 10**6, math.inf]),
           zeta=zetas, x=st.floats(-1.5, 1.5))
    @settings(deadline=None, max_examples=400, derandomize=True)
    def test_sweep(self, kind, m, zeta, x):
        regime = ConsistentRegime(zeta=zeta, m=m, hard_aux=(1.0, 0.5, None))
        xs = [x, 0.0, 1.0, -1.0, TINY, -TINY]
        if math.isfinite(zeta):
            xs.append(-zeta)
            if zeta != 0.0:
                xs.append(-1.0 / zeta)
        xs = np.array(xs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = consistent_limit_cdf(kind, xs, regime)
        want = reference_consistent_cdf(kind, xs, regime)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        # step laws, their 0 and 1 plateaus and the finite-m atoms (hard's
        # at 0, soft's at -sign zeta) are exact
        atom = 0.0 if kind is EstimatorKind.HARD else -math.copysign(1.0, zeta)
        point_mass = math.isinf(m) or math.isinf(zeta) or zeta == 0.0
        exact = ((want == 0.0) | (want == 1.0) | point_mass
                 | ((xs == atom) & (kind is not EstimatorKind.ADAPTIVE_SOFT)))
        np.testing.assert_array_equal(got[exact], want[exact])
        for xi, gi in zip(xs, got):
            assert consistent_limit_cdf(kind, xi, regime) == gi

    @pytest.mark.parametrize("x, zeta, want", [
        (-1e-300, 1e-300, 0.6826894921370859),  # m zeta^2 / x^2 is 0 / 0
        (-1e-160, 1e-170, 7.97884560802864e-11),  # m zeta^2 underflows
        (-5e-324, 0.3, 0.7641771556220947),  # x s underflows to -0.0
    ])
    def test_tiny_arguments(self, x, zeta, want):
        regime = ConsistentRegime(zeta=zeta, m=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert consistent_limit_cdf("hard", x, regime) == want


class TestConsistentInfiniteDof:
    def test_soft_point_mass(self):
        regime = ConsistentRegime(zeta=0.4, m=math.inf)
        assert consistent_limit_cdf("soft", -0.41, regime) == 0.0
        assert consistent_limit_cdf("soft", -0.39, regime) == 1.0

    def test_soft_saturates_beyond_one(self):
        regime = ConsistentRegime(zeta=3.0, m=math.inf)
        assert consistent_limit_cdf("soft", -1.0, regime) == 1.0
        assert consistent_limit_cdf("soft", -1.001, regime) == 0.0

    def test_adaptive_soft_reciprocal(self):
        regime = ConsistentRegime(zeta=2.0, m=math.inf)
        assert consistent_limit_cdf("asoft", -0.51, regime) == 0.0
        assert consistent_limit_cdf("asoft", -0.49, regime) == 1.0

    def test_hard_interior_and_exterior(self):
        inner = ConsistentRegime(zeta=0.6, m=math.inf)
        assert consistent_limit_cdf("hard", -0.61, inner) == 0.0
        assert consistent_limit_cdf("hard", -0.59, inner) == 1.0
        outer = ConsistentRegime(zeta=1.4, m=math.inf)
        assert consistent_limit_cdf("hard", -1e-9, outer) == 0.0
        assert consistent_limit_cdf("hard", 0.0, outer) == 1.0

    def test_hard_boundary_needs_aux(self):
        bare = ConsistentRegime(zeta=1.0, m=math.inf)
        with pytest.raises(DomainError):
            consistent_limit_cdf("hard", -0.5, bare)
        # two-point mixture: mass w on the kill location -zeta, rest at 0
        regime = ConsistentRegime(zeta=1.0, m=math.inf, hard_aux=(1.0, 0.5, 0.0))
        w = hard_weight(1.0, 0.5)
        assert consistent_limit_cdf("hard", -0.5, regime) == pytest.approx(w)
        assert consistent_limit_cdf("hard", 0.5, regime) == 1.0
        assert consistent_limit_cdf("hard", -1.01, regime) == 0.0


class TestHardWeight:
    def test_flat_boundary(self):
        assert hard_weight(0.0, 1.3) == pytest.approx(0.9031995154143897, abs=1e-12)
        assert hard_weight(0.0, math.inf) == 1.0
        assert hard_weight(0.0, -math.inf) == 0.0

    def test_steep_boundary(self):
        assert hard_weight(math.inf, 0.0, 0.7) == pytest.approx(
            0.8389005969187092, abs=1e-12)
        with pytest.raises(DomainError):
            hard_weight(math.inf, 0.0)

    @pytest.mark.parametrize("f", [0.1, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("r", [-2.0, 0.5, 1.0])
    def test_matches_gaussian_average(self, f, r):
        # the defining integral E Phi(f T / sqrt(2) + r), T ~ N(0,1),
        # evaluated by brute force
        from scipy.integrate import quad
        from scipy.stats import norm
        oracle, err = quad(
            lambda t: norm.cdf(f / math.sqrt(2.0) * t + r) * norm.pdf(t),
            -12.0, 12.0, limit=400, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-9
        assert hard_weight(f, r) == pytest.approx(oracle, abs=1e-9)

    def test_range_and_validation(self):
        for f in (0.0, 0.5, 2.0, 50.0):
            for r in (-3.0, 0.0, 3.0):
                assert 0.0 <= hard_weight(f, r) <= 1.0
        with pytest.raises(DomainError):
            hard_weight(-0.5, 0.0)
        with pytest.raises(DomainError):
            hard_weight(math.nan, 0.0)
        for f in (0.0, 0.5):
            with pytest.raises(DomainError):
                hard_weight(f, math.nan)
        assert hard_weight(2.0, math.inf) == 1.0
        assert hard_weight(2.0, -math.inf) == 0.0


class TestAtoms:
    def test_conservative(self):
        regime = ConservativeRegime(nu=0.5, e=1.0, m=5)
        assert limit_atoms("hard", regime) == (0.0,)

    def test_consistent(self):
        regime = ConsistentRegime(zeta=0.4, m=5)
        assert limit_atoms("soft", regime) == (-2.5, -1.0, -0.4, 0.0, 1.0)
        degenerate = ConsistentRegime(zeta=0.0, m=5)
        assert limit_atoms("soft", degenerate) == (-1.0, 0.0, 1.0)
        diverging = ConsistentRegime(zeta=math.inf, m=5)
        assert limit_atoms("hard", diverging) == (-1.0, 0.0, 1.0)

    @pytest.mark.parametrize("regime", [None, "bad", (0.4, 5)])
    def test_other_regimes_rejected(self, regime):
        # these used to raise AttributeError on regime.zeta
        with pytest.raises(DomainError):
            limit_atoms("soft", regime)
        with pytest.raises(DomainError):
            weak_convergence_gaps("soft", consistent_path((50,), 0.4), regime,
                                  np.linspace(-1.5, 1.5, 7))


def conservative_path(ns, m=5, e=1.0):
    out = []
    for n in ns:
        setup = ProblemSetup(n=n, k=n - m, eta=e / math.sqrt(n))
        out.append((setup, setup.sigma * setup.xi / n))
    return out


def consistent_path(ns, zeta, m=5, exponent=-0.25):
    out = []
    for n in ns:
        eta = float(n) ** exponent
        setup = ProblemSetup(n=n, k=n - m, eta=eta)
        out.append((setup, zeta * setup.sigma * setup.xi * eta))
    return out


class TestWeakConvergence:
    def test_conservative_hard_gap_shrinks(self):
        regime = ConservativeRegime(nu=0.0, e=1.0, m=5)
        grid = np.linspace(-3.0, 3.0, 61)
        gaps = weak_convergence_gaps(
            "hard", conservative_path((50, 500, 5000)), regime, grid)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.02

    def test_consistent_soft_gap(self):
        regime = ConsistentRegime(zeta=0.4, m=5)
        grid = np.linspace(-1.5, 1.5, 61)
        gap = weak_convergence_gaps(
            "soft", consistent_path((5000,), 0.4), regime, grid)[0]
        assert gap <= 0.02

    def test_vanishing_threshold_path(self):
        regime = ConservativeRegime(nu=0.0, e=0.0, m=5)
        grid = np.linspace(-3.0, 3.0, 61)
        seq = []
        for n in (500, 5000):
            setup = ProblemSetup(n=n, k=n - 5, eta=float(n) ** -0.75)
            seq.append((setup, 0.0))
        gaps = weak_convergence_gaps("hard", seq, regime, grid)
        assert gaps[-1] <= 0.02 and gaps[-1] < gaps[0]

    @pytest.mark.parametrize("fast", [True, False])
    def test_limit_check_paths_are_scale_free(self, fast):
        # limit_check builds its paths at xi = sigma = 1; at other scales,
        # with theta scaled by sigma xi, every gap is the same
        grid = np.linspace(-3.0, 3.0, 41)
        xi, sigma = 0.3, 2.0
        for _, kind, regime, path in _limit_suites(fast):
            scaled = [(dataclasses.replace(setup, xi=xi, sigma=sigma), sigma * xi * theta)
                      for setup, theta in path]
            np.testing.assert_allclose(weak_convergence_gaps(kind, scaled, regime, grid),
                                       weak_convergence_gaps(kind, path, regime, grid),
                                       rtol=0.0, atol=1e-12)

    def test_grid_must_keep_continuity_points(self):
        regime = ConsistentRegime(zeta=0.4, m=5)
        with pytest.raises(DomainError):
            weak_convergence_gaps("soft", consistent_path((50,), 0.4), regime,
                                  [0.0, -0.4, 1.0])
