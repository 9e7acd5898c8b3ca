"""The estimated-variance laws keep their float64 bits.

A seeded grid of ``tilde_cdf``, ``tilde_density``, ``unknown_coverage`` and
``conservative_limit_cdf`` values, scalar and batched, is hashed per law and
compared with digests recorded with numpy 2.4.6 and scipy 1.17.1, the
versions CI pins.  The grid spans all three kinds, m in {1, 2, 5, 40, 995},
eta in [1e-3, 10], xi in {0.3, 1, 2}, theta at zero, subnormal (its
theta / (sigma xi) underflows at xi = 2), tiny, small and O(1) of either
sign, both scalings, and every branch of the conservative limit law (m in
{1, 40}): nu zero, finite and +-inf, e zero and positive, x finite, zero and
+-inf.  A refactor that moves any of these values moves a digest; a
deliberate change re-records it and says so.
"""

import hashlib

import numpy as np
import pytest

from threshcov import (
    ConservativeRegime,
    EstimatorKind,
    IntervalSpec,
    ProblemSetup,
    ScalingFactor,
    VarianceMode,
    conservative_limit_cdf,
    tilde_cdf,
    tilde_density,
    unknown_coverage,
)

KINDS = list(EstimatorKind)
SEED = 17
DIGESTS = {
    "tilde_cdf": "166d0dd143ebd3ca0705a4443b4fa531eead57c88c3d3e1d28a90a366206ef89",
    "tilde_density": "8fe84ae1fc51630dfe9ada68e0121e62d4859e2c398c655aa8512386e4691428",
    "unknown_coverage": "4c436e05614990f75f7c848b33869fdf0c3ee239dec33fe69f6fbb0da564ba3f",
    "conservative_limit_cdf":
        "a676cb59bd66a8b88d789e97ef151f2f34c4af6c0e5ccede14b9bb3e5a2f0142",
}


def _setups(rng, count):
    """Random cells: (kind, setup, theta, alpha)."""
    for _ in range(count):
        kind = KINDS[rng.integers(3)]
        m = int(rng.choice([1, 2, 5, 40, 995]))
        eta = float(10.0 ** rng.uniform(-3.0, 1.0))
        xi = float(rng.choice([0.3, 1.0, 2.0]))
        setup = ProblemSetup(n=35 + m, k=35, xi=xi, eta=eta)
        theta = float(rng.choice([0.0, 5e-324, 1e-300, 1e-3, -1e-3])
                      if rng.random() < 0.4 else rng.uniform(-2.0, 2.0))
        scaling = (ScalingFactor.conservative if rng.random() < 0.5
                   else ScalingFactor.consistent)
        yield kind, setup, theta, scaling(setup)


def _xs(rng, setup, alpha, count):
    """x values near 0, at and around the dead-zone edge, and across +-4."""
    edge = alpha * setup.xi * setup.eta
    pool = np.concatenate([[0.0, edge, -edge, 1.001 * edge, -0.999 * edge],
                           rng.uniform(-4.0, 4.0, count)])
    return pool[rng.permutation(pool.size)[:count]]


def _law_grid(law, rng):
    values = []
    for kind, setup, theta, alpha in _setups(rng, 60):
        xs = _xs(rng, setup, alpha, 9)
        values.append([law(kind, float(xs[0]), setup, theta, alpha)])
        values.append(law(kind, xs[1:], setup, theta, alpha))
    return values


def _coverage_grid(rng):
    values = []
    for kind, setup, _, _ in _setups(rng, 60):
        half = float(rng.uniform(0.0, 3.0) * setup.xi)
        spec = IntervalSpec(half, half, VarianceMode.ESTIMATED)
        thetas = np.concatenate([[0.0, 5e-324, 1e-300], rng.uniform(-3.0, 3.0, 4)])
        values.append([unknown_coverage(kind, float(thetas[-1]), 1.0, spec, setup)])
        values.append(unknown_coverage(kind, thetas, 1.0, spec, setup))
    return values


def _limit_grid(rng):
    values = []
    xs = np.concatenate([[-np.inf, 0.0, np.inf], rng.uniform(-5.0, 5.0, 3)])
    for kind in KINDS:
        for m in (1, 40):
            for e in (0.0, 0.4, 2.5):
                for nu in (0.0, 0.7, -1.2, 3e-4, np.inf, -np.inf):
                    regime = ConservativeRegime(nu=nu, e=e, m=m)
                    values.append([conservative_limit_cdf(kind, float(xs[-1]), regime)])
                    values.append(conservative_limit_cdf(kind, xs, regime))
    return values


GRIDS = {
    "tilde_cdf": lambda rng: _law_grid(tilde_cdf, rng),
    "tilde_density": lambda rng: _law_grid(tilde_density, rng),
    "unknown_coverage": _coverage_grid,
    "conservative_limit_cdf": _limit_grid,
}


def digest(name: str) -> tuple[str, int]:
    values = np.concatenate([np.ravel(v) for v in GRIDS[name](np.random.default_rng(SEED))])
    return hashlib.sha256(values.astype("<f8").tobytes()).hexdigest(), values.size


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_values_keep_their_bits(name):
    got, _ = digest(name)
    assert got == DIGESTS[name]


if __name__ == "__main__":
    for law in sorted(DIGESTS):
        print(law, *digest(law))
