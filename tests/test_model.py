"""Regression scaffolding: xi computation, least squares, classical intervals."""

import math

import numpy as np
import pytest

from threshcov import (
    DomainError,
    IntervalSpec,
    ProblemSetup,
    VarianceMode,
    compute_xi_all,
    coverage_upper_bound,
    ls_fit,
    standard_ls_interval,
    synthetic_design,
)
from threshcov.model import reference_setup


class TestProblemSetup:
    def test_validation(self):
        with pytest.raises(DomainError):
            ProblemSetup(n=3, k=5)
        with pytest.raises(DomainError):
            ProblemSetup(n=5, k=0)
        with pytest.raises(DomainError):
            ProblemSetup(n=5, k=2, xi=-1.0)
        with pytest.raises(DomainError):
            ProblemSetup(n=5, k=2, eta=0.0)
        with pytest.raises(DomainError):
            ProblemSetup(n=5, k=2, component_index=3)

    @pytest.mark.parametrize("bad", [dict(n=40.5, k=35), dict(n=40, k=35.0),
                                     dict(n=40, k=35, component_index=1.5),
                                     dict(n=40, k=True), dict(n=np.float64(40), k=35)])
    def test_counts_must_be_integers(self, bad):
        with pytest.raises(DomainError):
            ProblemSetup(**bad)

    def test_numpy_integers_accepted(self):
        s = ProblemSetup(n=np.int64(40), k=np.int32(35), component_index=np.uint8(2))
        assert s.residual_dof == 5

    def test_reference(self):
        s = reference_setup(0.5)
        assert (s.n, s.k, s.xi, s.sigma, s.eta) == (40, 35, 1.0, 1.0, 0.5)
        assert s.residual_dof == 5
        assert s.root_n == pytest.approx(math.sqrt(40))

    def test_estimated_variance_needs_slack(self):
        s = ProblemSetup(n=5, k=5)
        with pytest.raises(DomainError):
            s.require_estimated_variance()
        assert reference_setup().require_estimated_variance() == 5


def gram_design(n, gram):
    """Any X with X'X = n * gram: scaled Cholesky factor over zero padding."""
    k = gram.shape[0]
    chol = np.linalg.cholesky(n * np.asarray(gram, dtype=float))
    X = np.zeros((n, k))
    X[:k, :k] = chol.T
    return X


class TestComputeXi:
    def test_correlated_two_column_design(self):
        # X'X/n = [[1, .5], [.5, 1]] gives xi_1 = sqrt(1/(1-0.25)) = 1.1547...
        X = gram_design(12, np.array([[1.0, 0.5], [0.5, 1.0]]))
        want = math.sqrt(1.0 / 0.75)
        assert compute_xi_all(X)[0] == pytest.approx(want, abs=1e-10)
        assert compute_xi_all(X)[1] == pytest.approx(want, abs=1e-10)

    def test_orthogonal_design(self):
        X = synthetic_design(11, 4, xi=2.5)
        assert np.allclose(compute_xi_all(X), 2.5, atol=1e-12)

    def test_column_scaling(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((17, 3))
        base = compute_xi_all(X)
        scaled = X.copy()
        scaled[:, 1] *= -4.0
        got = compute_xi_all(scaled)
        assert got[1] == pytest.approx(base[1] / 4.0, rel=1e-12)
        assert got[0] == pytest.approx(base[0], rel=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((15, 4))
        perm = rng.permutation(15)
        assert np.allclose(compute_xi_all(X), compute_xi_all(X[perm]), atol=1e-12)

    def test_rank_deficient_rejected(self):
        X = np.ones((6, 2))
        with pytest.raises(DomainError):
            compute_xi_all(X)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_design_rejected(self, bad):
        X = np.random.default_rng(3).standard_normal((8, 3))
        X[4, 1] = bad
        with pytest.raises(DomainError):
            compute_xi_all(X)


class TestLsFit:
    def test_exact_fit(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 6))
        theta = rng.standard_normal(6)
        coef, sigma_hat_sq = ls_fit(X, X @ theta)
        assert np.allclose(coef, theta, atol=1e-10)
        assert sigma_hat_sq == pytest.approx(0.0, abs=1e-18)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 35))
        y = rng.standard_normal(40)
        coef, _ = ls_fit(X, y)
        resid = y - X @ coef
        assert np.max(np.abs(X.T @ resid)) <= 1e-8 * np.linalg.norm(y)

    def test_orthonormal_closed_form(self):
        n = 9
        X = np.zeros((n, 3))
        X[:3, :3] = np.eye(3)
        y = np.arange(n, dtype=float)
        coef, _ = ls_fit(X, y)
        assert np.allclose(coef, y[:3], atol=1e-12)

    def test_saturated_fit_has_no_variance(self):
        X = np.eye(4)
        _, sigma_hat_sq = ls_fit(X, np.ones(4))
        assert sigma_hat_sq is None

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            ls_fit(np.eye(4), np.ones(5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_rejected(self, bad):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((8, 3))
        y = rng.standard_normal(8)
        y_bad = y.copy()
        y_bad[2] = bad
        with pytest.raises(DomainError):
            ls_fit(X, y_bad)
        X[0, 2] = bad
        with pytest.raises(DomainError):
            ls_fit(X, y)

    def test_residual_variance_is_chi_square(self):
        # (n - k) sigma_hat^2 / sigma^2 across many fits matches chi-square
        # mean m within 3 standard errors (vectorized via projection)
        rng = np.random.default_rng(9)
        n, k, reps = 12, 7, 100000
        X = rng.standard_normal((n, k))
        Q, _ = np.linalg.qr(X)
        U = rng.standard_normal((reps, n))
        resid = U - (U @ Q) @ Q.T
        rss = (resid * resid).sum(axis=1)
        m = n - k
        se_mean = math.sqrt(2.0 * m / reps)
        assert abs(rss.mean() - m) <= 3 * se_mean


class TestStandardInterval:
    def test_known_value(self):
        s = reference_setup()
        assert standard_ls_interval(s, VarianceMode.KNOWN, 0.05) == pytest.approx(
            0.30992, abs=1e-4)
        # closed form: xi z_{0.975} / sqrt(n), in units of sigma
        want = 1.959963984540054 / math.sqrt(40)
        assert standard_ls_interval(s, VarianceMode.KNOWN, 0.05) == pytest.approx(
            want, abs=1e-6)

    @pytest.mark.parametrize("mode", list(VarianceMode))
    @pytest.mark.parametrize("sigma", [1.0, 2.0])
    @pytest.mark.parametrize("xi", [0.3, 1.0])
    def test_half_length_in_units_of_c(self, mode, sigma, xi):
        # every interval arm is in units of c (sigma or sigma_hat): the LS
        # half-length gives the z- or t-interval exactly 1 - alpha coverage
        s = ProblemSetup(n=40, k=35, xi=xi, sigma=sigma)
        a = standard_ls_interval(s, mode, 0.05)
        assert coverage_upper_bound(IntervalSpec(a, a, mode), s) == pytest.approx(
            0.95, abs=1e-12)

    def test_estimated_value(self):
        s = reference_setup()
        assert standard_ls_interval(s, VarianceMode.ESTIMATED, 0.05) == pytest.approx(
            0.406, abs=5e-4)

    def test_alpha_to_one_shrinks_to_zero(self):
        s = reference_setup()
        assert standard_ls_interval(s, VarianceMode.KNOWN, 1 - 1e-12) < 1e-11
        assert standard_ls_interval(s, VarianceMode.ESTIMATED, 1 - 1e-9) < 1e-6

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
    def test_estimated_exceeds_known(self, alpha):
        s = reference_setup()
        assert (standard_ls_interval(s, VarianceMode.ESTIMATED, alpha)
                > standard_ls_interval(s, VarianceMode.KNOWN, alpha))

    def test_estimated_needs_slack(self):
        s = ProblemSetup(n=5, k=5)
        with pytest.raises(DomainError):
            standard_ls_interval(s, VarianceMode.ESTIMATED, 0.05)

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            standard_ls_interval(reference_setup(), VarianceMode.KNOWN, 0.0)
        with pytest.raises(DomainError):
            standard_ls_interval(reference_setup(), VarianceMode.KNOWN, 1.0)
