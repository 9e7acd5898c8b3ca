"""Seeded Monte Carlo oracle for the analytic distributions and coverages.

Draws come from a counter-based generator (Philox) addressed by absolute
uniform index, so any partition of the replication range across calls or
workers pools to bit-identical results; `uniform_field` seeks to an index,
and a simulated cell reads its words from one stream in order, the words
of `uniform_field` from uniform 0 on.  Each uniform is mapped through an
inverse CDF; inverse transforms consume a fixed number of uniforms per
replication, which is what makes the addressing scheme stable.

Fast path: for one watched component the LS estimate is
N(theta_i, sigma^2 xi^2 / n) and (n - k) sigma_hat^2 / sigma^2 is an
independent chi-square, so replications never materialize X or y.  Its
substream layout: uniform 2j is the Gaussian draw of replication j,
uniform 2j+1 its chi-square draw.  Uniform 2j+1 stays reserved in
known-variance runs, so layouts never depend on options, but it is not
transformed there: the interval [est - sigma a, est + sigma b] never uses
sigma_hat, so known-variance cells skip the chi-square inverse.

Coverage and ECDF cells decide most replications without inverting their
uniforms; every count is bit-identical to inverting every draw, and the
uniform layout is unchanged.  Both inverse transforms are tabulated once at
the ends of the 2^12 equal cells (i/N, (i+1)/N) of the uniform, the outer
ends at the extreme uniforms 2^-54 and 1 - 2^-53, and widened by a
relative margin against non-monotone rounding in the inverses, so a draw's
cell brackets its exact z or sigma_hat with finite ends.  A draw's cell is
read from the top bits of its Philox word (`_word_cells`), and only the
words that reach an inverse become floats.  The thresholded estimate is
monotone in z and in the cutoff, and every step after it is a correctly
rounded, monotone operation, so the same expressions evaluated at the ends
of a bracket enclose the exact values.

A cell's event (`_Coverage`, `_Ecdf`) maps an interval or error to a slot
(miss or hit; ECDF bin and zero flag) and says from an enclosure of the
estimate and the interval scale whether the slot is certain.  `_tally`
settles every replication in three levels with estimated variance, two
with known variance:

1. Grid cell.  The corners of a grid decide whole cells: 4096 z cells at
   s = sigma with known variance, 64 x 64 (z cell, sigma_hat cell) with
   estimated variance.  A replication in a certain grid cell is counted
   from its cell index alone.
2. Per-replication bracket (estimated variance only: a known scale is
   exact).  The rest get their exact z and decide from their own sigma_hat
   cell, with the same test as the grid.
3. Exact inversion.  What is still undecided is inverted exactly as in
   `component_draws`.

The full-design path materializes y and runs the estimator on it;
replication j consumes uniforms [j n, (j+1) n).  Per cell it factors
X = Q R and solves R' r = e_w once, so the watched LS coefficient of every
replication is y' c with c = Q r; the other k - 1 coefficients are never
formed.  sigma_hat comes from the residuals Y - (Y Q) Q', or when
n - k < k from Y N, with N an orthonormal basis of the complement of Q's
columns (`_residual_scale`).  y' c and y N read y only on the support S,
the coordinates where c != 0 or a row of N is nonzero; Y - (Y Q) Q' reads
every coordinate, so there S is all of them.  On the synthetic orthogonal
design S is the watched coordinate, plus with N the n - k residual ones.
Every replication still draws its n words, since the layout fixes them,
read in slabs of 2^16 words (floor(2^16 / n) replications, at least one)
of which only the words in S are kept.  Per chunk of
floor(2^16 / |S|) replications (at least one, so a chunk's arrays stay
cache-sized; a dense design keeps the slab's floor(2^16 / n)) it settles
replications through the coverage event in two levels:

1. Enclosure.  Each z in S lies in its cell's bracket, held as a midpoint
   and a radius r.  A few matrix-vector passes over the midpoints y_mid give
   y_mid' c +- (sigma |c|'r + rounding term) for the watched coefficient
   and, for estimated variance, sigma_hat(y_mid) +-
   (|P| sigma |r|_2 + rounding term) / sqrt(n - k), P the residual map and
   r taken over S; the rounding terms (`_full_radii`) follow the gamma_n
   bound of a dot product, scaled with n and k.
2. Exact computation.  The undecided replications convert their words in
   S, invert those z, build y on S and compute y' c and sigma_hat as
   written.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

from .estimators import EstimatorKind, kernel
from .finite_sample import ScalingFactor
from .model import ProblemSetup, VarianceMode, _full_rank_qr, _is_integer
# unused here, but perfbench/tracing.py wraps this module's binding
from .model import compute_xi_all  # noqa: F401
from .special import DomainError, _underflow_to_zero, chi_sq_quantile, std_normal_quantile

__all__ = [
    "SimulationPlan",
    "EcdfResult",
    "uniform_field",
    "component_draws",
    "synthetic_design",
    "simulate_coverage",
    "simulate_coverage_full",
    "simulate_scaled_error_ecdf",
]

_UNIFORMS_PER_REP = 2
_RAW_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter step
_FULL_CHUNK_UNIFORMS = 1 << 16  # words per slab, and per chunk's support, of the full path
_BRACKET_CELLS = 1 << 12  # cells of each uniform's grid
_GRID_CELLS = 1 << 6  # cells per axis of the estimated-variance grid
_BRACKET_REPS = 1 << 16  # replications per block of a coverage or ECDF cell
_MARGIN = 1e-12  # relative widening of brackets and decisions
_BELOW_ONE = 1.0 - 2.0 ** -53


def uniform_field(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms at absolute indexes [start, start + count), strictly in (0, 1).

    Indexing is independent of any previous draws: the generator's counter
    is advanced to the containing block and the in-block offset discarded.
    The (raw >> 11 + 0.5) * 2^-53 mapping keeps values away from 0 and 1 so
    inverse CDFs stay finite; the one word it would round up to 1 is
    clamped to the largest double below 1.
    """
    if not (all(map(_is_integer, (seed, start, count))) and 0 <= seed < 2 ** 128
            and start >= 0 and count >= 0):
        raise DomainError("uniform field needs integers 0 <= seed < 2^128, "
                          "start >= 0 and count >= 0")
    gen = np.random.Philox(key=int(seed))
    block, offset = divmod(int(start), _RAW_PER_BLOCK)
    gen.advance(block)
    return _uniforms(gen.random_raw(offset + int(count))[offset:])


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """The uniforms of Philox words, as in `uniform_field`; shifts raw in
    place, so callers pass words they no longer need."""
    raw >>= np.uint64(11)
    # below 2^53, so the signed view converts exactly, and faster
    u = raw.view(np.int64).astype(float)
    u += 0.5
    u *= 2.0 ** -53
    return np.minimum(u, _BELOW_ONE, out=u)


def _word_cells(raw: np.ndarray, cells: int) -> np.ndarray:
    """Index i of the grid cell (i / cells, (i + 1) / cells) of each word's
    uniform, from the word's top log2(cells) bits; cells is a power of two.

    The uniform (raw >> 11 + 0.5) 2^-53 rounds to nearest, so the float cell
    floor(u cells) equals this one, or is one higher only where u rounds up
    to a cell end exactly.  A bracket is tabulated at the cell ends
    themselves, so both neighbouring brackets enclose the quantile of a
    uniform at a cell end.  The all-ones word, whose uniform is clamped
    below 1, lands in the top cell either way.
    """
    shift = 64 - (cells.bit_length() - 1)  # 64 - log2(cells)
    return (raw >> np.uint64(shift)).view(np.intp)


@dataclasses.dataclass(frozen=True, eq=False)
class SimulationPlan:
    """What to simulate: scenario, true parameter, replication count, seed.

    theta may be a scalar (value of the watched component, every other
    component zero) or a length-k vector for the full-design path.  design
    optionally replaces the synthetic orthogonal design; its watched-column
    xi must match setup.xi.
    """

    setup: ProblemSetup
    theta: float | np.ndarray
    reps: int
    seed: int
    design: np.ndarray | None = None

    def __post_init__(self):
        if not _is_integer(self.reps) or self.reps < 1:
            raise DomainError("reps must be an integer of at least 1")
        if not _is_integer(self.seed) or not 1 <= self.seed < 2 ** 64:
            raise DomainError("seed must be a positive 64-bit integer")
        if not np.isfinite(np.asarray(self.theta, dtype=float)).all():
            raise DomainError("theta must be finite")

    @property
    def component_theta(self) -> float:
        arr = np.asarray(self.theta, dtype=float)
        return float(arr if arr.ndim == 0 else self.theta_vector()[self.setup.component_index - 1])

    def theta_vector(self) -> np.ndarray:
        arr = np.asarray(self.theta, dtype=float)
        if arr.ndim == 0:
            vec = np.zeros(self.setup.k)
            vec[self.setup.component_index - 1] = float(arr)
            return vec
        if arr.shape != (self.setup.k,):
            raise DomainError("theta vector must have length k")
        return arr.copy()


def component_draws(plan: SimulationPlan, start: int = 0, stop: int | None = None):
    """Fast-path draws for replications [start, stop).

    Returns (ls_estimates, sigma_hats); sigma_hats is None when n == k.
    Both halves come from one uniform chunk: uniform 2j for the estimate,
    2j+1 for the chi-square draw behind the variance estimate.
    """
    setup = plan.setup
    u = _replication_uniforms(plan, start, plan.reps if stop is None else stop)
    sigma_hat = _sigma_hat_draws(setup, u[1::2]) if setup.n > setup.k else None
    return _ls_values(plan, std_normal_quantile(u[0::2])), sigma_hat


def _replication_uniforms(plan: SimulationPlan, start: int, stop: int) -> np.ndarray:
    """The 2 (stop - start) uniforms of replications [start, stop)."""
    if not (_is_integer(start) and _is_integer(stop) and 0 <= start <= stop <= plan.reps):
        raise DomainError("replication range must be integers in 0..reps")
    return uniform_field(plan.seed, _UNIFORMS_PER_REP * start,
                         _UNIFORMS_PER_REP * (stop - start))


def _ls_values(plan: SimulationPlan, z: np.ndarray) -> np.ndarray:
    """LS estimates at standard normal values z; monotone in z."""
    setup = plan.setup
    return plan.component_theta + setup.sigma * setup.xi / setup.root_n * z


def _sigma_hat_draws(setup: ProblemSetup, u_chi: np.ndarray) -> np.ndarray:
    """Variance estimates from chi-square uniforms (the odd indexes of a
    chunk); needs n > k."""
    m = setup.residual_dof
    chi = chi_sq_quantile(u_chi, m)
    return setup.sigma * np.sqrt(chi / m)


def _widened(inverse):
    """Per grid cell i, ends (lo[i], hi[i]) that enclose inverse(u) for every
    uniform u in (i / N, (i + 1) / N): the increasing inverse at the cell
    ends, the outer ones at the extreme uniforms 2^-54 and 1 - 2^-53,
    widened by the relative margin against non-monotone rounding in the
    inverse."""
    p = np.concatenate([[2.0 ** -54], np.arange(1, _BRACKET_CELLS) / _BRACKET_CELLS,
                        [_BELOW_ONE]])
    ends = inverse(p)
    widen = _MARGIN * np.abs(ends)
    lo = ends[:-1] - widen[:-1]
    hi = ends[1:] + widen[1:]
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


@functools.lru_cache(maxsize=None)
def _z_bracket() -> tuple[np.ndarray, np.ndarray]:
    """Per grid cell i, ends (lo[i], hi[i]) that enclose the standard normal
    quantile of every uniform in (i / N, (i + 1) / N)."""
    return _widened(std_normal_quantile)


@functools.lru_cache(maxsize=None)
def _sigma_hat_bracket(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per grid cell i, ends (lo[i], hi[i]) that enclose sigma_hat / sigma
    for every chi-square uniform in (i / N, (i + 1) / N), through the
    expression of `_sigma_hat_draws`."""
    return _widened(lambda p: np.sqrt(chi_sq_quantile(p, m) / m))


def _estimate(kind, setup: ProblemSetup, coef, scale):
    """The thresholded estimate of LS coefficients coef at interval scale
    scale (sigma or sigma_hat)."""
    return kernel(kind, coef, scale * setup.xi * setup.eta)


@dataclasses.dataclass(frozen=True, eq=False)
class _Coverage:
    """Coverage event: slot 1 when [est - s a, est + s b] holds theta, else 0."""

    a: float
    b: float
    theta: float
    slots = 2

    def bounds(self, est_lo, est_hi, s_lo, s_hi):
        """Slot of the intervals with est in [est_lo, est_hi] and s in
        [s_lo, s_hi], and whether it is certain: every such interval holds
        theta, or none does, each with a relative slack."""
        a, b, theta = self.a, self.b, self.theta
        # the arms s a and s b grow with s (a, b >= 0)
        lower_lo = est_lo - s_hi * a
        lower_hi = est_hi - s_lo * a
        upper_lo = est_lo + s_lo * b
        upper_hi = est_hi + s_hi * b
        slack = _MARGIN * (np.maximum(np.abs(est_lo), np.abs(est_hi))
                           + s_hi * max(a, b) + abs(theta))
        hit = (lower_hi + slack <= theta) & (theta <= upper_lo - slack)
        miss = (lower_lo - slack > theta) | (theta > upper_hi + slack)
        return hit.astype(np.intp), hit | miss

    def exact(self, est, s):
        inside = (est - s * self.a <= self.theta) & (self.theta <= est + s * self.b)
        return inside.astype(np.intp)


class _Ecdf:
    """ECDF event: slot j + width zero for the error a (est - theta) / s, j
    the number of grid points below it and zero whether est is exactly 0."""

    def __init__(self, a: float, theta: float, grid: np.ndarray):
        self.a, self.theta, self.grid = a, theta, grid
        self.width = grid.size + 1
        self.slots = 2 * self.width

    def bounds(self, est_lo, est_hi, s_lo, s_hi):
        """Slot of the errors with est in [est_lo, est_hi] and s in
        [s_lo, s_hi], and whether it is certain: the error enclosure falls in
        one grid gap, with a relative slack, and the estimate is surely zero
        or surely nonzero."""
        a, theta, grid = self.a, self.theta, self.grid
        # a sum or quotient that overflows to +-inf is still a bound, as is
        # the exact error, which rounds the same way
        with np.errstate(over="ignore", invalid="ignore"):
            # x / s is monotone in s
            num_lo = a * (est_lo - theta)
            num_hi = a * (est_hi - theta)
            err_lo = np.minimum(num_lo / s_lo, num_lo / s_hi)
            err_hi = np.maximum(num_hi / s_lo, num_hi / s_hi)
            # a killed estimate is exactly 0, so its slack scales with theta only
            slack = _MARGIN * a * (np.maximum(np.abs(est_lo), np.abs(est_hi))
                                   + abs(theta)) / s_lo
            # fmin: err_lo - slack is inf - inf = NaN for an error at +inf
            j = np.searchsorted(grid, np.fmin(err_lo - slack, err_lo), "left")
            # the first grid point at or above every error of bin j
            ceiling = np.append(grid, math.inf)[j]
            zero = (est_lo == 0.0) & (est_hi == 0.0)
            certain = (err_hi + slack <= ceiling) & (zero | (est_lo > 0.0) | (est_hi < 0.0))
        return j + self.width * zero, certain

    @np.errstate(over="ignore")
    def exact(self, est, s):
        j = np.searchsorted(self.grid, self.a * (est - self.theta) / s, "left")
        return j + self.width * (est == 0.0)


def _corners(event, kind, setup: ProblemSetup, coef_lo, coef_hi, s_lo, s_hi):
    """event.bounds over the estimates with LS coefficient in [coef_lo,
    coef_hi] and interval scale in [s_lo, s_hi].  kernel is non-decreasing
    in the coefficient and moves toward 0 as the cutoff grows, so the
    lowest corner is coef_lo's at the larger scale where coef_lo >= 0 and at
    the smaller one otherwise, and the highest mirrors it: two corners
    enclose all four.  An exact coefficient or scale passes equal ends,
    where the two corners are the one estimate."""
    est_lo = _estimate(kind, setup, coef_lo, np.where(coef_lo >= 0.0, s_hi, s_lo))
    est_hi = _estimate(kind, setup, coef_hi, np.where(coef_hi >= 0.0, s_lo, s_hi))
    return event.bounds(est_lo, est_hi, s_lo, s_hi)


def synthetic_design(n: int, k: int, xi: float = 1.0) -> np.ndarray:
    """Orthogonal-column design whose every component has the given xi."""
    if not (_is_integer(n) and _is_integer(k) and 1 <= k <= n):
        raise DomainError("need integers n >= k >= 1")
    if not (xi > 0.0 and math.isfinite(xi)):
        raise DomainError("xi must be positive and finite")
    X = np.zeros((n, k))
    np.fill_diagonal(X, math.sqrt(n) / xi)
    return X


def _coverage_estimate(hits: int, reps: int):
    """Empirical coverage and its binomial standard error."""
    p = hits / reps
    return p, math.sqrt(p * (1.0 - p) / reps)


def _tally(plan: SimulationPlan, kind, event, estimated: bool) -> np.ndarray:
    """Replications per slot of the event, settled in levels (see the module
    docstring): grid cell, per-replication sigma_hat cell (estimated
    variance only), exact inversion."""
    setup = plan.setup
    z_lo, z_hi = _z_bracket()
    if estimated:
        # each coarse cell spans step x step cells of the two brackets
        step = _BRACKET_CELLS // _GRID_CELLS
        lo, hi = _sigma_hat_bracket(setup.require_estimated_variance())
        z_lo, z_hi = z_lo[::step], z_hi[step - 1::step]
        s_lo = (setup.sigma * lo[::step])[None, :]
        s_hi = (setup.sigma * hi[step - 1::step])[None, :]
    else:
        s_lo = s_hi = setup.sigma
    slot, certain = _corners(event, kind, setup, _ls_values(plan, z_lo)[:, None],
                             _ls_values(plan, z_hi)[:, None], s_lo, s_hi)
    slot, certain = slot.ravel(), certain.ravel()
    undecided = ~certain
    counts = np.zeros(certain.size, dtype=np.int64)
    tally = np.zeros(event.slots, dtype=np.int64)
    # the words of uniform_field from uniform 0 on, read in order
    gen = np.random.Philox(key=int(plan.seed))
    for start in range(0, plan.reps, _BRACKET_REPS):
        raw = gen.random_raw(_UNIFORMS_PER_REP * min(_BRACKET_REPS, plan.reps - start))
        if estimated:
            cell = _word_cells(raw, _GRID_CELLS)  # both halves in one pass
            cell = cell[0::2] * _GRID_CELLS + cell[1::2]
        else:
            cell = _word_cells(raw[0::2], _BRACKET_CELLS)
        counts += np.bincount(cell, minlength=counts.size)
        idx = np.flatnonzero(undecided[cell])
        ls = _ls_values(plan, std_normal_quantile(_uniforms(raw[0::2][idx])))
        if estimated:
            w_chi = raw[1::2][idx]
            s_cell = _word_cells(w_chi, _BRACKET_CELLS)
            rep_slot, rep_certain = _corners(event, kind, setup, ls, ls,
                                             setup.sigma * lo[s_cell], setup.sigma * hi[s_cell])
            idx = np.flatnonzero(~rep_certain)
            s = _sigma_hat_draws(setup, _uniforms(w_chi[idx]))
            rep_slot[idx] = event.exact(_estimate(kind, setup, ls[idx], s), s)
        else:
            rep_slot = event.exact(_estimate(kind, setup, ls, setup.sigma), setup.sigma)
        tally += np.bincount(rep_slot, minlength=event.slots)
    np.add.at(tally, slot[certain], counts[certain])
    return tally


@_underflow_to_zero
def simulate_coverage(plan: SimulationPlan, kind, spec):
    """Empirical coverage of [estimate - c a, estimate + c b] and its
    binomial standard error, via the fast path."""
    kind = EstimatorKind(kind)
    event = _Coverage(spec.a, spec.b, plan.component_theta)
    hits = _tally(plan, kind, event, spec.mode is VarianceMode.ESTIMATED)[1]
    return _coverage_estimate(int(hits), plan.reps)


def _residual_basis(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The basis `_residual_scale` maps residuals through: Q (n x k), or when
    n - k < k the orthonormal complement N of its columns (n x (n - k)),
    which costs O(n (n - k)) per replication instead of O(n k)."""
    n, k = Q.shape
    if n - k < k:
        return np.linalg.qr(X, mode="complete")[0][:, k:].copy()
    return Q


def _residual_scale(basis: np.ndarray, Y: np.ndarray, dof: int,
                    complement: bool) -> np.ndarray:
    """Per-replication sigma_hat of the LS fits of the rows of Y, from the
    `_residual_basis`: the residual norm is |Y N| for the complement N, else
    that of the residuals Y - (Y Q) Q'.  With N, both may leave out the
    coordinates where a row of N is zero.  The squares are summed
    directly, never as |y|^2 - |Q' y|^2, which cancels."""
    if complement:
        resid = Y @ basis
    else:
        resid = (Y @ basis) @ basis.T
        resid -= Y  # the negated residual, in place: the squares are the same
    resid *= resid
    return np.sqrt(resid.sum(axis=1) / dof)


@functools.lru_cache(maxsize=None)
def _z_midpoints() -> tuple[np.ndarray, np.ndarray, float]:
    """Per cell i of the z grid, a midpoint and radius whose interval
    [mid - rad, mid + rad] holds the cell's `_z_bracket`, and z_max, the
    largest |z| of any uniform."""
    lo, hi = _z_bracket()
    mid = 0.5 * (lo + hi)
    # each difference rounds by at most half an ulp: the factor covers it
    rad = np.maximum(hi - mid, mid - lo) * (1.0 + 2.0 ** -50)
    mid.flags.writeable = rad.flags.writeable = False
    return mid, rad, float(max(-lo[0], hi[-1]))


class _FullRadii(NamedTuple):
    """Terms of the full path's radii, for a replication with z radii r:
    sigma |c|'r + coef_round for the watched coefficient, and
    s_per_r |r|_2 + s_rel s(y_mid) + s_round for sigma_hat."""

    coef_round: float
    s_per_r: float = 0.0
    s_rel: float = 0.0
    s_round: float = 0.0


def _full_radii(setup: ProblemSetup, c, mean_y, basis) -> _FullRadii:
    """The rounding terms of the full path's enclosures (basis None for known
    variance).

    u = 2^-53 is the unit roundoff and gamma_m = m u / (1 - m u) the bound
    of an m-term dot product, |fl(x'c) - x'c| <= gamma_m |x|'|c| in any
    summation order, with or without FMA.  Each z_i lies in
    [mid_i - r_i, mid_i + r_i] and |z_i|, |mid_i| <= z_max.  Per entry,
    y_i = fl(fl(sigma z_i) + mu_i) and its midpoint value ym_i differ by at
    most sigma r_i + 2 gamma_2 a_i, with a_i = sigma z_max + |mu_i|, and both
    are at most (1 + gamma_2) a_i in size.

    Watched coefficient: |fl(y'c) - fl(ym'c)| <= sigma |c|'r
    + (2 gamma_2 + 2 gamma_n (1 + gamma_2)) |c|'a, and evaluating
    sigma |c|'r in floating point loses at most gamma_{n+1} |c|'a more;
    (4 n + 16) u |c|'a covers both, with room for the radius's own
    roundings.

    sigma_hat is |t| / sqrt(m) (1 + e), |e| <= rho = gamma_{n+3} (squares,
    sum, division, root), where t is the computed residual map of y: y N,
    or y Q Q' - y.  Its rounding is at most kappa |y|, with
    kappa = gamma_{n+k+2} (F + 1)^2 and F the Frobenius norm of the basis
    (the Q map rounds as gamma_n F^2 + gamma_k F^2, plus u |P| at the
    subtraction).  The exact map P has norm at most pi = 1 + |B'B - I|_F,
    for B = Q or N.  Hence
        |t(y) - t(ym)| <= D = pi sigma |r| + (2 gamma_2 pi + 2 kappa (1 + gamma_2)) |a|
    and |s(y) - s(ym)| <= 3 rho s(ym) + (1 + rho) D / sqrt(m).  Below, rho,
    kappa and pi are taken at twice these sizes (and the rounding terms
    doubled), which covers gamma_m <= 1.01 m u, the rounding of |r|_2 and
    that of the radius itself.

    Gradual underflow adds at most 2^-1075 per operation, which the
    absolute terms cover: (4 n + 8)(1 + |c|_1) 2^-1074 for the coefficient,
    and 2 sqrt((n + 2) 2^-1074 / m) for sigma_hat, whose sum of squares may
    be subnormal.

    The path computes on the support S only, the coordinates where c != 0
    or (with N) a row of N is nonzero.  c and those rows of N are exactly
    zero outside S, so no z outside S reaches y'c or y N: the same bounds
    hold with r, |r| and the dot products taken over S.  The rounding
    terms here keep the full-length c, mean_y and basis, and with them n
    and k; they bound an |S|-term computation too.
    """
    u = 2.0 ** -53
    n, k = setup.n, setup.k
    sigma = setup.sigma
    z_max = _z_midpoints()[2]
    abs_c = np.abs(c)
    tiny = 2.0 ** -1074
    coef_round = ((4 * n + 16) * u * (sigma * z_max * abs_c.sum() + abs_c @ np.abs(mean_y))
                  + (4 * n + 8) * (1.0 + abs_c.sum()) * tiny)
    if basis is None:
        return _FullRadii(coef_round)
    m = setup.residual_dof
    gram = basis.T @ basis
    gram -= np.eye(basis.shape[1])
    frob = float(np.linalg.norm(basis))
    pi = 1.0 + 2.0 * (float(np.linalg.norm(gram)) + (n + 2) * u * frob ** 2)
    rho = 2.0 * (n + 3) * u
    kappa = 2.0 * (n + k + 2) * u * (frob + 1.0) ** 2
    with np.errstate(over="ignore"):
        y_norm = float(np.linalg.norm(mean_y))
    if not math.isfinite(y_norm):
        # the squares overflow past |X theta| ~ 1e154: scale them first
        top = float(np.abs(mean_y).max())
        y_norm = top * float(np.linalg.norm(mean_y / top))
    a_norm = sigma * z_max * math.sqrt(n) + y_norm
    root_m = math.sqrt(m)
    return _FullRadii(coef_round,
                      s_per_r=(1.0 + 2.0 * rho) * pi * sigma / root_m,
                      s_rel=2.0 * rho,
                      s_round=(2.0 * (4.0 * u * pi + 3.0 * kappa) * a_norm / root_m
                               + 2.0 * math.sqrt((n + 2) * tiny / m)))


@_underflow_to_zero
def simulate_coverage_full(plan: SimulationPlan, kind, spec):
    """Empirical coverage via the full-design path: materialize y, run least
    squares and the thresholding estimator end to end.

    Each chunk of floor(2^16 / |S|) replications computes only what the
    interval reads: the watched LS coefficient y' c (c = Q r, R' r = e_w,
    from one triangular solve per cell) and, for estimated variance,
    sigma_hat through `_residual_scale`, both on the support S, the
    coordinates of y they read (all of them for a dense design or the
    residuals through Q).  Its words come from one Philox stream read in
    order, in slabs of floor(2^16 / n) replications of which only the
    columns in S are kept.  A replication is first decided from its words'
    z cells (see the module docstring); only the undecided ones are
    inverted and computed exactly.  Slower than the fast path and on a
    different substream, so results agree statistically, not bitwise.
    Raises `DomainError` when X theta overflows.
    """
    from scipy.linalg import solve_triangular  # loaded on first use: slow to import

    kind = EstimatorKind(kind)
    setup = plan.setup
    X = plan.design if plan.design is not None else synthetic_design(
        setup.n, setup.k, setup.xi)
    X = np.asarray(X, dtype=float)
    if X.shape != (setup.n, setup.k):
        raise DomainError("design shape must be (n, k)")
    Q, R = _full_rank_qr(X)
    watched = setup.component_index - 1
    # the watched LS coefficient is e_w' R^-1 Q' y = c' y with R' r = e_w,
    # and the watched xi is sqrt(n r'r)
    row = solve_triangular(R, np.eye(setup.k)[watched], trans="T", lower=False)
    xi = math.sqrt(setup.n * float(row @ row))
    if abs(xi - setup.xi) > 1e-8 * max(1.0, setup.xi):
        raise DomainError("design xi of the watched component does not match setup.xi")
    # the interval's cutoff uses the design's own xi
    setup = dataclasses.replace(setup, xi=xi)
    c = Q @ row
    theta_vec = plan.theta_vector()
    with np.errstate(over="ignore", invalid="ignore"):
        mean_y = X @ theta_vec
    if not np.isfinite(mean_y).all():
        raise DomainError("X theta overflows: the mean of y is not finite")
    theta = theta_vec[watched]
    n, m = setup.n, setup.residual_dof
    estimated = spec.mode is VarianceMode.ESTIMATED
    if estimated:
        setup.require_estimated_variance()
    basis = _residual_basis(X, Q) if estimated else None
    complement = estimated and m < setup.k  # basis is N
    radii = _full_radii(setup, c, mean_y, basis)
    # the support: y'c and y N read only these coordinates of y, while
    # y Q Q' - y reads every one
    read = c != 0.0
    if complement:
        read |= np.any(basis != 0.0, axis=1)
    elif estimated:
        read[:] = True
    cols = slice(None) if read.all() else np.flatnonzero(read)
    c, mean_y = c[cols], mean_y[cols]
    if complement:
        basis = basis[cols]
    abs_c = np.abs(c)
    z_mid, z_rad, _ = _z_midpoints()
    event = _Coverage(spec.a, spec.b, theta)
    hits = 0
    # every replication draws its n words, read in order from one stream in
    # slabs of floor(2^16 / n) replications, and keeps only the support's;
    # a chunk decides floor(2^16 / |S|) replications at once
    gen = np.random.Philox(key=int(plan.seed))
    slab = max(1, _FULL_CHUNK_UNIFORMS // n)
    chunk = max(1, _FULL_CHUNK_UNIFORMS // c.size)
    for start in range(0, plan.reps, chunk):
        raw = np.empty((min(chunk, plan.reps - start), c.size), dtype=np.uint64)
        for row in range(0, len(raw), slab):
            rows = raw[row:row + slab]
            rows[:] = gen.random_raw(len(rows) * n).reshape(-1, n)[:, cols]
        cell = _word_cells(raw, _BRACKET_CELLS)  # rows are replications
        y_mid = z_mid[cell]
        y_mid *= setup.sigma
        y_mid += mean_y
        r = z_rad[cell]
        coef = y_mid @ c
        coef_rad = r @ abs_c
        coef_rad *= setup.sigma
        coef_rad += radii.coef_round
        if estimated:
            s = _residual_scale(basis, y_mid, m, complement)
            s_rad = np.sqrt(np.einsum("ij,ij->i", r, r))
            s_rad *= radii.s_per_r
            s_rad += radii.s_rel * s + radii.s_round
            s_lo, s_hi = np.maximum(s - s_rad, 0.0), s + s_rad
        else:
            s_lo = s_hi = setup.sigma
        slot, certain = _corners(event, kind, setup, coef - coef_rad, coef + coef_rad,
                                 s_lo, s_hi)
        idx = np.flatnonzero(~certain)
        Y = std_normal_quantile(_uniforms(raw[idx]))
        Y *= setup.sigma
        Y += mean_y
        s = _residual_scale(basis, Y, m, complement) if estimated else setup.sigma
        slot[idx] = event.exact(_estimate(kind, setup, Y @ c, s), s)
        hits += int(np.count_nonzero(slot))
    return _coverage_estimate(hits, plan.reps)


@dataclasses.dataclass(frozen=True, eq=False)
class EcdfResult:
    """Empirical CDF of the scaled error on a grid, plus the exact-zero mass."""

    grid: np.ndarray
    values: np.ndarray
    zero_mass: float
    reps: int


@_underflow_to_zero
def simulate_scaled_error_ecdf(plan: SimulationPlan, kind, alpha, grid) -> EcdfResult:
    """Empirical CDF of alpha (estimate - theta) / sigma_hat over the grid.

    Also reports the fraction of replications thresholded exactly to zero,
    the empirical counterpart of the atom.
    """
    kind = EstimatorKind(kind)
    a = float(ScalingFactor(alpha))
    setup = plan.setup
    setup.require_estimated_variance()
    grid_arr = np.asarray(grid, dtype=float)
    if grid_arr.ndim != 1 or grid_arr.size == 0:
        raise DomainError("grid must be a nonempty 1-D array")
    if np.isnan(grid_arr).any():
        raise DomainError("grid must not contain NaN")
    if np.any(np.diff(grid_arr) < 0.0):
        raise DomainError("grid must be nondecreasing")
    event = _Ecdf(a, plan.component_theta, grid_arr)
    tally = _tally(plan, kind, event, estimated=True)
    bins = tally[:event.width] + tally[event.width:]
    return EcdfResult(grid=grid_arr, values=np.cumsum(bins)[:-1] / plan.reps,
                      zero_mass=int(tally[event.width:].sum()) / plan.reps,
                      reps=plan.reps)
