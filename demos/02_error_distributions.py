"""The exact finite-sample law of the scaled estimation error.

The object of study is P(sqrt(n)/xi * (estimate - theta)/sigma_hat <= x) for
one component.  It is a mixture: an atom at zero when theta = 0 (the estimator
kills the component with positive probability) plus a continuous part.

Run:  python demos/02_error_distributions.py
"""

import numpy as np

from threshcov import (EstimatorKind, ScalingFactor, atom_mass, reference_setup,
                       tilde_cdf, tilde_density)


def sketch(kind, setup, theta, alpha, lo=-3.5, hi=3.5, width=58):
    xs = np.linspace(lo, hi, width)
    dens = tilde_density(kind, xs, setup, theta, alpha)   # one batched call
    top = dens.max()
    print(f"  density of the scaled error, {kind.value}, theta = {theta}:")
    for level in (0.9, 0.6, 0.3, 0.08):
        line = "".join("#" if d >= level * top else " " for d in dens)
        print("   |" + line)
    print("   +" + "-" * width)
    print(f"    x from {lo} to {hi}, peak height {top:.3f}")


def main():
    setup = reference_setup()
    alpha = ScalingFactor.conservative(setup)
    print(f"Reference problem: n = {setup.n}, k = {setup.k}, eta = {setup.eta},")
    print(f"xi = {setup.xi}.  Scaling factor sqrt(n)/xi = {float(alpha):.4f}.")
    print()

    mass = atom_mass(setup)
    print(f"At theta = 0 every kind kills the component with probability")
    print(f"{mass:.6f}; that mass sits at the origin as an atom.  The jump of")
    print("the distribution function at x = 0 reproduces it exactly:")
    for kind in EstimatorKind:
        jump = (tilde_cdf(kind, 0.0, setup, 0.0, alpha)
                - tilde_cdf(kind, -1e-12, setup, 0.0, alpha))
        print(f"  {kind.value:>7s}: jump = {jump:.6f}")
    print()

    print("Away from zero the law is continuous but far from normal.  The")
    print("hard kind tears a band out of the middle and piles it onto a")
    print("spike at the kill location:")
    print()
    sketch(EstimatorKind.HARD, setup, 0.16, alpha)
    print()
    sketch(EstimatorKind.SOFT, setup, 0.16, alpha)
    print()
    print("Mirror property: flipping the sign of theta reflects the law,")
    print("F(x; -theta) = 1 - F(-x; theta) at continuity points, e.g.")
    x = 0.73
    left = tilde_cdf(EstimatorKind.ADAPTIVE_SOFT, x, setup, -0.16, alpha)
    right = 1.0 - tilde_cdf(EstimatorKind.ADAPTIVE_SOFT, -x, setup, 0.16, alpha)
    print(f"  asoft at x = {x}: {left:.10f} vs {right:.10f}")


if __name__ == "__main__":
    main()
