"""Thresholding kernels and the end-to-end estimator."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshcov import (
    DomainError,
    EstimatorKind,
    ThresholdRule,
    VarianceMode,
    estimate,
    kernel,
)
from threshcov.estimators import _inverse, _inverse_slope, _switch_points

finite = st.floats(-1e6, 1e6, allow_nan=False)
cutoffs = st.floats(0.0, 1e6, allow_nan=False)


class TestKernel:
    def test_hard_examples(self):
        assert kernel("hard", 3.0, 2.0) == 3.0
        assert kernel("hard", 1.0, 2.0) == 0.0
        assert kernel("hard", -3.0, 2.0) == -3.0

    def test_soft_examples(self):
        assert kernel("soft", 3.0, 2.0) == 1.0
        assert kernel("soft", -3.0, 2.0) == -1.0
        assert kernel("soft", 0.5, 2.0) == 0.0

    def test_adaptive_soft_examples(self):
        assert kernel("asoft", 2.0, 1.0) == pytest.approx(1.5)
        assert kernel("asoft", -2.0, 1.0) == pytest.approx(-1.5)
        assert kernel("asoft", 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_boundary_maps_to_zero(self, kind):
        # ties at |z| = t resolve to zero for every kind
        assert kernel(kind, 2.0, 2.0) == 0.0
        assert kernel(kind, -2.0, 2.0) == 0.0

    def test_vectorized(self):
        z = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        got = kernel(EstimatorKind.SOFT, z, 2.0)
        assert np.allclose(got, [-1.0, 0.0, 0.0, 0.0, 1.0])

    def test_negative_cutoff_rejected(self):
        with pytest.raises(DomainError):
            kernel("hard", 1.0, -0.5)

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("z, t", [(math.nan, 0.1), (1.0, math.nan),
                                      ([0.5, math.nan], 0.1), (0.5, [0.1, math.nan])])
    def test_nan_rejected(self, kind, z, t):
        # NaN used to map to 0.0 (hard, adaptive soft) or NaN (soft)
        with pytest.raises(DomainError):
            kernel(kind, z, t)

    @given(z=finite, t=cutoffs)
    @settings(deadline=None)
    def test_never_expands(self, z, t):
        for kind in EstimatorKind:
            v = kernel(kind, z, t)
            assert abs(v) <= abs(z) + 1e-12
            assert v == 0.0 or math.copysign(1.0, v) == math.copysign(1.0, z)

    @given(z=finite, t=cutoffs)
    @settings(deadline=None)
    def test_odd_symmetry(self, z, t):
        for kind in EstimatorKind:
            assert kernel(kind, -z, t) == -kernel(kind, z, t)

    @given(z=st.floats(1e-6, 1e6), t=st.floats(1e-9, 1e6))
    @settings(deadline=None)
    def test_shrinkage_ordering(self, z, t):
        if z <= t:
            return
        soft = kernel("soft", z, t)
        asoft = kernel("asoft", z, t)
        hard = kernel("hard", z, t)
        assert soft <= asoft + 1e-12
        assert asoft <= hard + 1e-12

    @given(z=finite, t=cutoffs)
    @settings(deadline=None)
    def test_kinds_agree_below_cutoff(self, z, t):
        if abs(z) > t:
            return
        for kind in EstimatorKind:
            assert kernel(kind, z, t) == 0.0


def nudged(x: float, steps: int) -> float:
    """x moved by |steps| representable doubles, up for steps > 0, without
    leaving the finite range."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, math.copysign(sys.float_info.max, steps))
    return float(x)


class TestKernelMonotone:
    """kernel is non-decreasing in z at a fixed cutoff and moves toward zero
    as the cutoff grows at a fixed z, in floating point, for every kind: the
    Monte Carlo grid and brackets enclose estimates on this alone.  Pairs
    are adjacent doubles or far apart, around |z| = t or anywhere in the
    finite range, subnormals and values whose square overflows included."""

    kinds = st.sampled_from(list(EstimatorKind))
    any_z = st.floats(allow_nan=False, allow_infinity=False)
    any_t = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    steps = st.integers(-3, 3)
    gaps = st.integers(1, 4)

    @given(kind=kinds, t=any_t, z=any_z, near=st.booleans(), negative=st.booleans(),
           k=steps, gap=gaps, far=any_z)
    @settings(deadline=None, max_examples=500)
    def test_non_decreasing_in_z(self, kind, t, z, near, negative, k, gap, far):
        lo = nudged(-t if negative else t, k) if near else z
        for hi in (nudged(lo, gap), max(lo, far)):
            assert kernel(kind, lo, t) <= kernel(kind, hi, t)

    @given(kind=kinds, z=any_z, t=any_t, near=st.booleans(), k=steps, gap=gaps,
           far=any_t)
    @settings(deadline=None, max_examples=500)
    def test_toward_zero_in_cutoff(self, kind, z, t, near, k, gap, far):
        lo = max(nudged(abs(z), k), 0.0) if near else t
        before = kernel(kind, z, lo)
        assert math.isfinite(before)
        for hi in (nudged(lo, gap), max(lo, far)):
            after = kernel(kind, z, hi)
            if z > 0.0:
                assert 0.0 <= after <= before
            elif z < 0.0:
                assert before <= after <= 0.0
            else:
                assert after == before == 0.0

    def test_adaptive_soft_at_extremes(self):
        # t^2 overflowed to inf (a -inf estimate) and underflowed into the
        # subnormals (a negative one just above the cutoff)
        assert kernel("asoft", 1e200, 1e170) == pytest.approx(1e200)
        t = 3e-162
        assert 0.0 <= kernel("asoft", nudged(t, 1), t) <= kernel("asoft", nudged(t, 2), t)


class TestInverse:
    """_inverse against the forward map: it undoes kernel off the dead zone,
    straddles the kill atom, and _inverse_slope is the derivative of its
    offset."""

    kinds = st.sampled_from(list(EstimatorKind))
    moderate = st.floats(-1e6, 1e6, allow_nan=False)
    positive = st.floats(1e-6, 1e6)

    @given(kind=kinds, mu=moderate, d=moderate, t=positive)
    @settings(deadline=None)
    def test_undoes_kernel(self, kind, mu, d, t):
        c = mu + d
        reachable = abs(c) > t if kind is EstimatorKind.HARD else c != 0.0
        if not reachable:
            return
        for closed in (True, False):
            offset = _inverse(kind, mu, d, t, closed)
            assert kernel(kind, mu + offset, t) == pytest.approx(
                c, rel=1e-12, abs=1e-12 * (abs(mu) + abs(d) + t))

    @given(kind=kinds, mu=moderate, t=positive)
    @settings(deadline=None)
    def test_straddles_the_atom(self, kind, mu, t):
        scale = 1e-12 * (abs(mu) + t)
        closed = _inverse(kind, mu, -mu, t)
        open_ = _inverse(kind, mu, -mu, t, closed=False)
        assert closed == pytest.approx(t - mu, rel=1e-12, abs=scale)
        assert open_ == pytest.approx(-t - mu, rel=1e-12, abs=scale)

    @given(kind=kinds, mu=st.floats(-100.0, 100.0), d=st.floats(-100.0, 100.0),
           t=st.floats(1e-3, 100.0))
    @settings(deadline=None)
    def test_slope_is_derivative(self, kind, mu, d, t):
        c = mu + d
        h = 1e-6 * (1.0 + abs(mu) + abs(d) + t)
        kinks = (0.0, t, -t) if kind is EstimatorKind.HARD else (0.0,)
        if min(abs(c - k) for k in kinks) < 10.0 * h:
            return
        slope = _inverse_slope(kind, mu, d, t)
        up = _inverse(kind, mu, d + h, t)
        down = _inverse(kind, mu, d - h, t)
        assert slope == pytest.approx((up - down) / (2.0 * h), abs=1e-6)

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("mu", [1e16, -1e16])
    def test_huge_mu_keeps_digits_of_d(self, kind, mu):
        t = 0.7
        d = np.array([0.3, -0.123456789, 2.5e-3])
        offset = _inverse(kind, mu, d, t)
        slope = _inverse_slope(kind, mu, d, t)
        shift = {EstimatorKind.HARD: 0.0,
                 EstimatorKind.SOFT: math.copysign(t, mu),
                 EstimatorKind.ADAPTIVE_SOFT: t * t / mu}[kind]
        np.testing.assert_allclose(offset, d + shift, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(slope, 1.0, rtol=1e-14)


class TestSwitchPoints:
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_subnormal_switch_points_dropped(self, kind):
        # a panel [0, 5e-324] would put Gauss nodes at s = 0, where the
        # adaptive-soft inverse is 0/0
        mu = np.array([-5e-324, -1e-310, -2.2e-308, -0.3])
        pts = _switch_points(kind, mu, 1.0, 0.3)
        kept = pts[np.isfinite(pts) & (pts > 0.0)]
        assert kept.size and np.all(kept >= np.finfo(float).tiny)
        np.testing.assert_array_equal(np.isnan(pts[:2]), True)
        assert pts[3, 0] == 0.3


class TestThresholdRule:
    def test_known_needs_sigma(self):
        with pytest.raises(DomainError):
            ThresholdRule(EstimatorKind.HARD, 0.05, VarianceMode.KNOWN)
        rule = ThresholdRule(EstimatorKind.HARD, 0.05, VarianceMode.KNOWN, sigma=2.0)
        assert rule.sigma == 2.0

    def test_estimated_forbids_sigma(self):
        with pytest.raises(DomainError):
            ThresholdRule(EstimatorKind.HARD, 0.05, VarianceMode.ESTIMATED, sigma=1.0)

    def test_eta_positive(self):
        with pytest.raises(DomainError):
            ThresholdRule(EstimatorKind.SOFT, 0.0)
        with pytest.raises(DomainError):
            ThresholdRule(EstimatorKind.SOFT, np.array([0.1, -0.1, 0.2]))

    def test_eta_at_most_a_vector(self):
        with pytest.raises(DomainError):
            ThresholdRule(EstimatorKind.SOFT, np.full((2, 3), 0.1))

    def test_accepts_labels(self):
        rule = ThresholdRule("asoft", 0.1, "estimated")
        assert rule.kind is EstimatorKind.ADAPTIVE_SOFT
        assert rule.mode is VarianceMode.ESTIMATED

    def test_unknown_labels_raise_domain_error(self):
        with pytest.raises(DomainError, match="unknown estimator kind 'bogus'"):
            kernel("bogus", 1.0, 0.5)
        with pytest.raises(DomainError, match="unknown variance mode 'bogus'"):
            ThresholdRule("hard", 0.1, "bogus")


def seeded_problem(seed=11, n=40, k=35):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, k)) + 0.1
    theta = np.zeros(k)
    theta[:4] = (2.0, -1.5, 0.3, 0.02)[: min(k, 4)]
    y = X @ theta + rng.standard_normal(n)
    return X, y


class TestEstimate:
    def test_vanishing_eta_recovers_least_squares(self):
        X, y = seeded_problem()
        rule = ThresholdRule(EstimatorKind.SOFT, 1e-12)
        from threshcov import ls_fit
        assert np.allclose(estimate(X, y, rule), ls_fit(X, y)[0],
                           atol=1e-9)

    def test_column_scaling_equivariance(self):
        X, y = seeded_problem(seed=3)
        rule = ThresholdRule(EstimatorKind.ADAPTIVE_SOFT, 0.25)
        base = estimate(X, y, rule)
        scales = np.linspace(0.5, 2.0, X.shape[1])
        scales[2] *= -1.0
        c = 2.5
        scaled = estimate(X * scales, c * y, rule)
        assert np.allclose(scaled, c * base / scales, rtol=1e-9, atol=1e-12)

    def test_per_component_eta(self):
        X, y = seeded_problem(seed=4, n=30, k=3)
        eta = np.array([1e-12, 5.0, 5.0])
        got = estimate(X, y, ThresholdRule(EstimatorKind.HARD, eta))
        assert got[1] == 0.0 and got[2] == 0.0
        assert got[0] != 0.0

    @pytest.mark.parametrize("eta", [[0.1, 0.2], [0.1], [0.1, 0.2, 0.3, 0.4]])
    def test_eta_length_must_match_components(self, eta):
        X, y = seeded_problem(seed=4, n=30, k=3)
        with pytest.raises(DomainError):
            estimate(X, y, ThresholdRule(EstimatorKind.HARD, np.array(eta)))

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("mode", list(VarianceMode))
    def test_against_plain_reimplementation(self, kind, mode):
        # independent straight-line reimplementation via normal equations;
        # agreement expected to floating-point roundoff
        X, y = seeded_problem(seed=12)
        n, k = X.shape
        sigma = 1.3 if mode is VarianceMode.KNOWN else None
        rule = ThresholdRule(kind, 0.05, mode, sigma=sigma)
        got = estimate(X, y, rule)

        gram = X.T @ X
        theta_hat = np.linalg.solve(gram, X.T @ y)
        resid = y - X @ theta_hat
        scale = sigma if sigma is not None else math.sqrt(resid @ resid / (n - k))
        inv_diag = np.diag(np.linalg.inv(gram / n))
        expected = np.empty(k)
        for i in range(k):
            xi = math.sqrt(inv_diag[i])
            cut = scale * xi * 0.05
            z = theta_hat[i]
            if abs(z) <= cut:
                expected[i] = 0.0
            elif kind is EstimatorKind.HARD:
                expected[i] = z
            elif kind is EstimatorKind.SOFT:
                expected[i] = math.copysign(abs(z) - cut, z)
            else:
                expected[i] = z * (1.0 - (cut / z) ** 2)
        assert np.array_equal(got == 0.0, expected == 0.0)
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_rejected(self, bad):
        X, y = seeded_problem(seed=5)
        rule = ThresholdRule(EstimatorKind.SOFT, 0.1)
        y_bad = y.copy()
        y_bad[0] = bad
        with pytest.raises(DomainError):
            estimate(X, y_bad, rule)
        X_bad = X.copy()
        X_bad[1, 0] = bad
        with pytest.raises(DomainError):
            estimate(X_bad, y, rule)

    def test_estimated_mode_needs_slack(self):
        X = np.eye(5)
        y = np.ones(5)
        with pytest.raises(DomainError):
            estimate(X, y, ThresholdRule(EstimatorKind.HARD, 0.1))
        got = estimate(X, y, ThresholdRule(EstimatorKind.HARD, 0.1,
                                           VarianceMode.KNOWN, sigma=1.0))
        assert got.shape == (5,)
