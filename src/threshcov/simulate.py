"""Seeded Monte Carlo oracle for the analytic distributions and coverages.

Draws come from a counter-based generator (Philox) addressed by absolute
uniform index, so any partition of the replication range across calls or
workers pools to bit-identical results.  Each uniform is mapped through an
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
uniforms, in up to three levels; every count is bit-identical to inverting
every draw, and the uniform layout is unchanged.  Both inverse transforms
are tabulated once at the ends of the 2^12 equal cells (i/N, (i+1)/N) of
the uniform, widened by a relative margin against non-monotone rounding in
the inverses, so a draw's cell brackets its exact z or sigma_hat.  A
draw's cell is read from the top bits of its Philox word (`_word_cells`),
and only the words that reach an inverse become floats.  The
thresholded estimate is monotone in z and in the cutoff, and every step
after it is a correctly rounded, monotone operation, so the same
expressions evaluated at the ends of a bracket enclose the exact values.

1. Grid cell.  A cell first decides whole cells of a grid from their
   corners: a known-variance coverage cell uses the 4096 z cells at
   s = sigma, an estimated-variance coverage cell and an ECDF cell a
   64 x 64 grid over (z cell, sigma_hat cell).  A replication in a grid
   cell whose every interval holds theta, or none does (for the ECDF,
   whose every error falls in one grid bin and is surely zero or surely
   nonzero), is counted from its cell index alone.
2. Per-replication bracket.  The rest of an estimated-variance or ECDF
   cell get their exact z and decide from their own sigma_hat bracket,
   with the same test as the grid.
3. Exact inversion.  What is still undecided, and every replication in an
   edge cell of the grid or the bracket, whose ends reach +-inf (z) or 0
   and inf (sigma_hat), is inverted exactly as in `component_draws`.

The full-design path materializes y and runs the estimator on it;
replication j consumes uniforms [j n, (j+1) n).  Per cell it factors
X = Q R and solves R' r = e_w once, so the watched LS coefficient of every
replication is y' c with c = Q r; the other k - 1 coefficients are never
formed.  sigma_hat comes from the residuals Y - (Y Q) Q', or when
n - k < k from Y N, with N an orthonormal basis of the complement of Q's
columns (`_residual_scale`).  Per chunk of 2^16 uniforms (floor(2^16 / n)
replications, at least one, so a chunk's arrays stay cache-sized) it
decides replications in two levels, with counts equal to inverting every
draw:

1. Enclosure.  Each z lies in its cell's bracket, held as a midpoint and a
   radius r; the edge cells are bounded too, since every uniform lies in
   [2^-54, 1 - 2^-53].  A few matrix-vector passes over the midpoints
   y_mid give y_mid' c +- (sigma |c|'r + rounding term) for the watched
   coefficient and, for estimated variance, sigma_hat(y_mid) +-
   (|P| sigma |r|_2 + rounding term) / sqrt(n - k), P the residual map;
   the rounding terms (`_full_radii`) follow the gamma_n bound of a dot
   product, scaled with n and k.  The thresholded estimate at the corners
   of the enclosure decides each replication as in the fast path.
2. Exact computation.  The undecided replications convert their words,
   invert every z, build y and compute y' c and sigma_hat as written.

At n = 40, k = 35 (the reference setup) level 2 takes under 0.1% of the
known-variance replications and about 2% of the estimated-variance ones,
mostly rows with an edge cell, and a cell of 2e4 replications takes about
15 ms with known variance and 20 ms with estimated variance, against 31
and 37 ms when every draw is inverted (2-core Xeon VM).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

from .estimators import EstimatorKind, kernel
from .finite_sample import ScalingFactor
from .model import ProblemSetup, VarianceMode, _full_rank_qr, compute_xi_all
from .special import DomainError, chi_sq_quantile, std_normal_quantile

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
_FULL_CHUNK_UNIFORMS = 1 << 16  # noise uniforms per chunk of the full-design path
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
    return _uniforms(_raw_words(seed, start, count))


def _raw_words(seed: int, start: int, count: int) -> np.ndarray:
    """The Philox words behind the uniforms [start, start + count)."""
    if start < 0 or count < 0:
        raise DomainError("uniform field needs start >= 0 and count >= 0")
    gen = np.random.Philox(key=int(seed))
    block, offset = divmod(int(start), _RAW_PER_BLOCK)
    gen.advance(block)
    return gen.random_raw(offset + int(count))[offset:]


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
    below 1, lands in the top (edge) cell either way.
    """
    shift = 64 - (cells.bit_length() - 1)  # 64 - log2(cells)
    return (raw >> np.uint64(shift)).view(np.intp)


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        if arr.ndim == 0:
            return float(arr)
        if arr.shape != (self.setup.k,):
            raise DomainError("theta vector must have length k")
        return float(arr[self.setup.component_index - 1])

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
    if not 0 <= start <= stop <= plan.reps:
        raise DomainError("replication range out of bounds")
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


def _widened(ends: np.ndarray, below: float, above: float):
    """Per grid cell i, ends (lo[i], hi[i]) from the increasing values at the
    interior cell ends, widened by the relative margin against
    non-monotone rounding in the inverse; the edge cells reach below and
    above."""
    widen = _MARGIN * np.abs(ends)
    lo = np.concatenate([[below], ends - widen])
    hi = np.concatenate([ends + widen, [above]])
    lo.flags.writeable = hi.flags.writeable = False
    return lo, hi


@functools.lru_cache(maxsize=None)
def _z_bracket() -> tuple[np.ndarray, np.ndarray]:
    """Per grid cell i, ends (lo[i], hi[i]) that enclose the standard normal
    quantile of every uniform in (i / N, (i + 1) / N)."""
    p = np.arange(1, _BRACKET_CELLS) / _BRACKET_CELLS
    return _widened(std_normal_quantile(p), -math.inf, math.inf)


@functools.lru_cache(maxsize=None)
def _sigma_hat_bracket(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Per grid cell i, ends (lo[i], hi[i]) that enclose sigma_hat / sigma
    for every chi-square uniform in (i / N, (i + 1) / N), through the
    expression of `_sigma_hat_draws`."""
    p = np.arange(1, _BRACKET_CELLS) / _BRACKET_CELLS
    return _widened(np.sqrt(chi_sq_quantile(p, m) / m), 0.0, math.inf)


def _decide(est_lo, est_hi, s_lo, s_hi, spec, theta: float):
    """(hit, miss) flags for the intervals [est - s a, est + s b] with est in
    [est_lo, est_hi] and s in [s_lo, s_hi]: a hit when every such interval
    holds theta, a miss when none does, each with a relative slack.  A
    replication that is neither is undecided."""
    # the arms s a and s b grow with s (a, b >= 0)
    lower_lo = est_lo - s_hi * spec.a
    lower_hi = est_hi - s_lo * spec.a
    upper_lo = est_lo + s_lo * spec.b
    upper_hi = est_hi + s_hi * spec.b
    slack = _MARGIN * (np.maximum(np.abs(est_lo), np.abs(est_hi))
                       + s_hi * max(spec.a, spec.b) + abs(theta))
    hit = (lower_hi + slack <= theta) & (theta <= upper_lo - slack)
    miss = (lower_lo - slack > theta) | (theta > upper_hi + slack)
    return hit, miss


class _Bracketed(NamedTuple):
    """Estimated-variance replications with sigma_hat bracketed: sigma_hat
    lies in [s_lo, s_hi], so the estimate lies in [est_lo, est_hi].
    Brackets of edge-cell replications are placeholders that stay finite;
    those replications always take the exact path."""

    ls: np.ndarray
    w_chi: np.ndarray
    edge: np.ndarray
    s_lo: np.ndarray
    s_hi: np.ndarray
    est_lo: np.ndarray
    est_hi: np.ndarray

    def exact(self, setup: ProblemSetup, undecided: np.ndarray):
        """Indexes and exact sigma_hats of the undecided and edge-cell
        replications."""
        idx = np.flatnonzero(undecided | self.edge)
        return idx, _sigma_hat_draws(setup, _uniforms(self.w_chi[idx]))


def _bracketed(plan: SimulationPlan, kind, ls: np.ndarray,
               w_chi: np.ndarray) -> _Bracketed:
    """Replications with LS estimates ls, bracketed from the grid cells of
    their chi-square words w_chi; needs n > k."""
    setup = plan.setup
    lo, hi = _sigma_hat_bracket(setup.residual_dof)
    cell = _word_cells(w_chi, _BRACKET_CELLS)
    edge = (cell == 0) | (cell == _BRACKET_CELLS - 1)
    inner = np.clip(cell, 1, _BRACKET_CELLS - 2)
    s_lo = setup.sigma * lo[inner]
    s_hi = setup.sigma * hi[inner]
    # kernel is monotone in the cutoff for fixed z: the ends enclose it
    est_a = kernel(kind, ls, s_lo * setup.xi * setup.eta)
    est_b = kernel(kind, ls, s_hi * setup.xi * setup.eta)
    return _Bracketed(ls, w_chi, edge, s_lo, s_hi,
                      np.minimum(est_a, est_b), np.maximum(est_a, est_b))


def _word_blocks(plan: SimulationPlan):
    """The Philox words of every replication, in blocks of _BRACKET_REPS."""
    for start in range(0, plan.reps, _BRACKET_REPS):
        stop = min(start + _BRACKET_REPS, plan.reps)
        yield _raw_words(plan.seed, _UNIFORMS_PER_REP * start,
                         _UNIFORMS_PER_REP * (stop - start))


def synthetic_design(n: int, k: int, xi: float = 1.0) -> np.ndarray:
    """Orthogonal-column design whose every component has the given xi."""
    if not 1 <= k <= n:
        raise DomainError("need n >= k >= 1")
    if not (xi > 0.0 and math.isfinite(xi)):
        raise DomainError("xi must be positive and finite")
    X = np.zeros((n, k))
    np.fill_diagonal(X, math.sqrt(n) / xi)
    return X


def _coverage_estimate(hits: int, reps: int):
    """Empirical coverage and its binomial standard error."""
    p = hits / reps
    return p, math.sqrt(p * (1.0 - p) / reps)


def _covers(kind, ls, scale, spec, setup: ProblemSetup, theta: float) -> np.ndarray:
    """Whether [est - scale a, est + scale b] holds theta, per replication."""
    est = kernel(kind, ls, scale * setup.xi * setup.eta)
    return (est - scale * spec.a <= theta) & (theta <= est + scale * spec.b)


def _corner_estimates(plan: SimulationPlan, kind, z_lo, z_hi, s_lo, s_hi):
    """Enclosures (est_lo, est_hi) of the thresholded estimate over the cells
    of a grid, rows over z in [z_lo, z_hi] and columns over the interval
    scale s in [s_lo, s_hi] (finite ends).  The estimate over a cell lies
    between its values at the four corners, as kernel is monotone in z and
    in the cutoff."""
    setup = plan.setup
    corners = [kernel(kind, _ls_values(plan, z)[:, None],
                      (s * setup.xi * setup.eta)[None, :])
               for z in (z_lo, z_hi) for s in (s_lo, s_hi)]
    return np.minimum.reduce(corners), np.maximum.reduce(corners)


def _estimated_grid(plan: SimulationPlan, kind):
    """The interior 62 x 62 cells of the 64 x 64 grid over (z cell, sigma_hat
    cell), each coarse cell spanning 64 x 64 cells of the two brackets:
    estimate enclosures (est_lo, est_hi) and sigma_hat ends (s_lo, s_hi),
    the latter as one row."""
    setup = plan.setup
    step = _BRACKET_CELLS // _GRID_CELLS
    z_lo, z_hi = _z_bracket()
    s_lo, s_hi = _sigma_hat_bracket(setup.require_estimated_variance())
    s_lo = setup.sigma * s_lo[::step][1:-1]
    s_hi = setup.sigma * s_hi[step - 1::step][1:-1]
    est_lo, est_hi = _corner_estimates(plan, kind, z_lo[::step][1:-1],
                                       z_hi[step - 1::step][1:-1], s_lo, s_hi)
    return est_lo, est_hi, s_lo[None, :], s_hi[None, :]


def _estimated_cell(raw: np.ndarray) -> np.ndarray:
    """Index of each replication's cell in the flattened 64 x 64 grid."""
    cell = _word_cells(raw, _GRID_CELLS)  # both halves in one pass
    return cell[0::2] * _GRID_CELLS + cell[1::2]


def _z_estimates(plan: SimulationPlan, w_z: np.ndarray) -> np.ndarray:
    """LS estimates of the Gaussian words w_z, inverted exactly."""
    return _ls_values(plan, std_normal_quantile(_uniforms(w_z)))


def _grid_counts(plan: SimulationPlan, undecided, cell_of, resolve):
    """Replications per grid cell, counted from their cell index
    cell_of(words), and the sum of resolve(w_z, w_chi) over the blocks'
    replications in undecided cells (copies of their words)."""
    undecided = undecided.ravel()
    counts = np.zeros(undecided.size, dtype=np.int64)
    resolved = 0
    for raw in _word_blocks(plan):
        cell = cell_of(raw)
        counts += np.bincount(cell, minlength=undecided.size)
        idx = np.flatnonzero(undecided[cell])
        resolved += resolve(raw[0::2][idx], raw[1::2][idx])
    return counts, resolved


def _known_hits(plan: SimulationPlan, kind, spec, theta: float) -> int:
    """Known-variance hits: a 4096 x 1 grid of z cells at s = sigma; the edge
    and undecided cells are inverted exactly."""
    setup = plan.setup
    z_lo, z_hi = _z_bracket()
    sigma = np.array([setup.sigma])
    est_lo, est_hi = _corner_estimates(plan, kind, z_lo[1:-1], z_hi[1:-1], sigma, sigma)
    hit, miss = _decide(est_lo, est_hi, sigma, sigma, spec, theta)
    edge_rows = ((1, 1), (0, 0))

    def resolve(w_z, w_chi):
        ls = _z_estimates(plan, w_z)
        return int(np.count_nonzero(_covers(kind, ls, setup.sigma, spec, setup, theta)))

    undecided = np.pad(~(hit | miss), edge_rows, constant_values=True)
    counts, hits = _grid_counts(plan, undecided,
                                lambda raw: _word_cells(raw[0::2], _BRACKET_CELLS),
                                resolve)
    return int(counts @ np.pad(hit, edge_rows).ravel()) + hits


def _estimated_hits(plan: SimulationPlan, kind, spec, theta: float) -> int:
    """Estimated-variance hits: the 64 x 64 (z, sigma_hat) grid decides whole
    cells; the edge rows and columns and the undecided cells go through the
    per-replication sigma_hat bracket, whose undecided and edge cells are
    inverted exactly."""
    setup = plan.setup
    hit, miss = _decide(*_estimated_grid(plan, kind), spec, theta)

    def resolve(w_z, w_chi):
        blk = _bracketed(plan, kind, _z_estimates(plan, w_z), w_chi)
        hit, miss = _decide(blk.est_lo, blk.est_hi, blk.s_lo, blk.s_hi, spec, theta)
        idx, sigma_hat = blk.exact(setup, ~(hit | miss))
        inside = _covers(kind, blk.ls[idx], sigma_hat, spec, setup, theta)
        return (int(np.count_nonzero(hit & ~blk.edge))
                + int(np.count_nonzero(inside)))

    counts, hits = _grid_counts(plan, np.pad(~(hit | miss), 1, constant_values=True),
                                _estimated_cell, resolve)
    return int(counts @ np.pad(hit, 1).ravel()) + hits


def simulate_coverage(plan: SimulationPlan, kind, spec):
    """Empirical coverage of [estimate - c a, estimate + c b] and its
    binomial standard error, via the fast path."""
    kind = EstimatorKind(kind)
    theta = plan.component_theta
    count = _estimated_hits if spec.mode is VarianceMode.ESTIMATED else _known_hits
    return _coverage_estimate(count(plan, kind, spec, theta), plan.reps)


def _residual_basis(X: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The basis `_residual_scale` maps residuals through: Q (n x k), or when
    n - k < k the orthonormal complement N of its columns (n x (n - k)),
    which costs O(n (n - k)) per replication instead of O(n k)."""
    n, k = Q.shape
    if n - k < k:
        return np.linalg.qr(X, mode="complete")[0][:, k:].copy()
    return Q


def _residual_scale(basis: np.ndarray, Y: np.ndarray, dof: int) -> np.ndarray:
    """Per-replication sigma_hat of the LS fits of the rows of Y, from the
    `_residual_basis`: the residual norm is |Y N| for the complement N, else
    that of the residuals Y - (Y Q) Q'.  The squares are summed directly,
    never as |y|^2 - |Q' y|^2, which cancels."""
    if basis.shape[1] < Y.shape[1] - dof:  # N: n - k < k columns
        resid = Y @ basis
    else:
        resid = (Y @ basis) @ basis.T
        resid -= Y  # the negated residual, in place: the squares are the same
    resid *= resid
    return np.sqrt(resid.sum(axis=1) / dof)


@functools.lru_cache(maxsize=None)
def _z_midpoints() -> tuple[np.ndarray, np.ndarray, float]:
    """Per cell i of the z grid, a midpoint and radius whose interval
    [mid - rad, mid + rad] holds the z of every uniform in the cell, and
    z_max, the largest |z| of any uniform.  Uniforms lie in
    [2^-54, 1 - 2^-53], so the edge cells are bounded too: their outer ends
    are the widened quantiles of those extremes."""
    lo, hi = _z_bracket()
    outer = std_normal_quantile(np.array([2.0 ** -54, _BELOW_ONE])) * (1.0 + _MARGIN)
    lo = np.concatenate([outer[:1], lo[1:]])
    hi = np.concatenate([hi[:-1], outer[1:]])
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
    a_norm = sigma * z_max * math.sqrt(n) + float(np.linalg.norm(mean_y))
    root_m = math.sqrt(m)
    return _FullRadii(coef_round,
                      s_per_r=(1.0 + 2.0 * rho) * pi * sigma / root_m,
                      s_rel=2.0 * rho,
                      s_round=(2.0 * (4.0 * u * pi + 3.0 * kappa) * a_norm / root_m
                               + 2.0 * math.sqrt((n + 2) * tiny / m)))


def simulate_coverage_full(plan: SimulationPlan, kind, spec):
    """Empirical coverage via the full-design path: materialize y, run least
    squares and the thresholding estimator end to end.

    Each chunk of floor(2^16 / n) replications computes only what the
    interval reads: the watched LS coefficient y' c (c = Q r, R' r = e_w,
    from one triangular solve per cell) and, for estimated variance,
    sigma_hat through `_residual_scale`.  A replication is first decided
    from its words' z cells (see the module docstring); only the undecided
    ones are inverted and computed exactly.  Slower than the fast path and
    on a different substream, so results agree statistically, not bitwise.
    """
    from scipy.linalg import solve_triangular  # loaded on first use: slow to import

    kind = EstimatorKind(kind)
    setup = plan.setup
    X = plan.design if plan.design is not None else synthetic_design(
        setup.n, setup.k, setup.xi)
    X = np.asarray(X, dtype=float)
    if X.shape != (setup.n, setup.k):
        raise DomainError("design shape must be (n, k)")
    xi_all = compute_xi_all(X)
    watched = setup.component_index - 1
    if abs(xi_all[watched] - setup.xi) > 1e-8 * max(1.0, setup.xi):
        raise DomainError("design xi of the watched component does not match setup.xi")
    # the interval's cutoff uses the design's own xi
    setup = dataclasses.replace(setup, xi=float(xi_all[watched]))
    Q, R = _full_rank_qr(X)
    # the watched LS coefficient is e_w' R^-1 Q' y = c' y with R' r = e_w
    row = solve_triangular(R, np.eye(setup.k)[watched], trans="T", lower=False)
    c = Q @ row
    abs_c = np.abs(c)
    theta_vec = plan.theta_vector()
    mean_y = X @ theta_vec
    theta = theta_vec[watched]
    n, m = setup.n, setup.residual_dof
    estimated = spec.mode is VarianceMode.ESTIMATED
    if estimated:
        setup.require_estimated_variance()
    basis = _residual_basis(X, Q) if estimated else None
    radii = _full_radii(setup, c, mean_y, basis)
    z_mid, z_rad, _ = _z_midpoints()

    def exact(words):
        """Hits of the replications with these words, every z inverted."""
        Y = std_normal_quantile(_uniforms(words))
        Y *= setup.sigma
        Y += mean_y
        scale = _residual_scale(basis, Y, m) if estimated else setup.sigma
        return int(np.count_nonzero(_covers(kind, Y @ c, scale, spec, setup, theta)))

    hits = 0
    chunk = max(1, _FULL_CHUNK_UNIFORMS // n)
    for start in range(0, plan.reps, chunk):
        stop = min(start + chunk, plan.reps)
        raw = _raw_words(plan.seed, start * n, (stop - start) * n).reshape(-1, n)
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
            s = _residual_scale(basis, y_mid, m)
            s_rad = np.sqrt(np.einsum("ij,ij->i", r, r))
            s_rad *= radii.s_per_r
            s_rad += radii.s_rel * s + radii.s_round
            s_lo, s_hi = np.maximum(s - s_rad, 0.0), s + s_rad
        else:
            s_lo = s_hi = setup.sigma
        # kernel is monotone in the coefficient and in the cutoff
        corners = [kernel(kind, b, s * setup.xi * setup.eta)
                   for b in (coef - coef_rad, coef + coef_rad)
                   for s in ((s_lo, s_hi) if estimated else (s_lo,))]
        hit, miss = _decide(np.minimum.reduce(corners), np.maximum.reduce(corners),
                            s_lo, s_hi, spec, theta)
        hits += int(np.count_nonzero(hit)) + exact(raw[~(hit | miss)])
    return _coverage_estimate(hits, plan.reps)


@dataclasses.dataclass(frozen=True, eq=False)
class EcdfResult:
    """Empirical CDF of the scaled error on a grid, plus the exact-zero mass."""

    grid: np.ndarray
    values: np.ndarray
    zero_mass: float
    reps: int


def _ecdf_bins(est_lo, est_hi, s_lo, s_hi, a: float, theta: float, grid):
    """Bin j (the number of grid points below the error) and zero flag of the
    errors a (est - theta) / s with est in [est_lo, est_hi] and s in
    [s_lo, s_hi], and whether both are certain: the error enclosure falls
    in one grid gap, with a relative slack, and the estimate is surely zero
    or surely nonzero."""
    # x / s is monotone in s
    num_lo = a * (est_lo - theta)
    num_hi = a * (est_hi - theta)
    err_lo = np.minimum(num_lo / s_lo, num_lo / s_hi)
    err_hi = np.maximum(num_hi / s_lo, num_hi / s_hi)
    # a killed estimate is exactly 0, so its slack scales with theta only
    slack = _MARGIN * a * (np.maximum(np.abs(est_lo), np.abs(est_hi))
                           + abs(theta)) / s_lo
    j = np.searchsorted(grid, err_lo - slack, "left")
    # the first grid point at or above every error of bin j
    ceiling = np.append(grid, math.inf)[j]
    zero = (est_lo == 0.0) & (est_hi == 0.0)
    decided = (err_hi + slack <= ceiling) & (zero | (est_lo > 0.0) | (est_hi < 0.0))
    return j, zero, decided


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
    theta = plan.component_theta
    # slot j counts the replications with exactly j grid points below their
    # error, slot width + j those of them thresholded exactly to zero
    width = grid_arr.size + 1
    j, zero, decided = _ecdf_bins(*_estimated_grid(plan, kind), a, theta, grid_arr)
    undecided = np.pad(~decided, 1, constant_values=True).ravel()
    slot = np.pad(j + width * zero, 1).ravel()

    def resolve(w_z, w_chi):
        blk = _bracketed(plan, kind, _z_estimates(plan, w_z), w_chi)
        j, zero, decided = _ecdf_bins(blk.est_lo, blk.est_hi, blk.s_lo, blk.s_hi,
                                      a, theta, grid_arr)
        idx, sigma_hat = blk.exact(setup, ~decided)
        est = kernel(kind, blk.ls[idx], sigma_hat * setup.xi * setup.eta)
        j[idx] = np.searchsorted(grid_arr, a * (est - theta) / sigma_hat, "left")
        zero[idx] = est == 0.0
        return np.bincount(j + width * zero, minlength=2 * width)

    counts, tally = _grid_counts(plan, undecided, _estimated_cell, resolve)
    np.add.at(tally, slot[~undecided], counts[~undecided])
    bins = tally[:width] + tally[width:]
    return EcdfResult(grid=grid_arr, values=np.cumsum(bins)[:-1] / plan.reps,
                      zero_mass=int(tally[width:].sum()) / plan.reps, reps=plan.reps)
