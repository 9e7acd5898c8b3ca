"""Walk through the three thresholding kernels and the estimation entry point.

Run:  python demos/01_thresholding_kernels.py
"""

import math

import numpy as np

from threshcov import (EstimatorKind, ThresholdRule, compute_xi_all, estimate,
                       kernel, ls_fit)


def show_kernels():
    print("Three ways to shrink a least-squares coordinate z at cutoff t = 1:")
    print()
    zs = np.array([-3.0, -1.5, -1.0, -0.4, 0.0, 0.4, 1.0, 1.5, 3.0])
    rows = {kind: kernel(kind, zs, 1.0) for kind in EstimatorKind}
    print("      z " + "".join(f"{z:8.1f}" for z in zs))
    for kind, vals in rows.items():
        print(f"{kind.value:>7s} " + "".join(f"{v:8.2f}" for v in vals))
    print()
    print("Hard keeps or kills.  Soft kills the same region but also pulls")
    print("every survivor toward zero by the full cutoff.  Adaptive soft")
    print("pulls survivors by t^2/z, so the shrinkage fades for large z.")
    print()


def show_estimation():
    rng = np.random.default_rng(5)
    n, k = 120, 6
    design = rng.normal(size=(n, k))
    truth = np.array([4.0, -2.5, 0.9, 0.0, 0.0, 0.05])
    y = design @ truth + rng.normal(size=n)

    print(f"A design with n = {n} rows, k = {k} columns; three of the six")
    print("true coefficients are zero or nearly so:")
    print("  truth:         ", truth)
    rule = ThresholdRule(EstimatorKind.HARD, eta=0.3)
    est = estimate(design, y, rule)
    coef, sigma_hat_sq = ls_fit(design, y)
    with np.printoptions(precision=3, suppress=True):
        print("  least squares: ", coef)
        print("  hard threshold:", est)
    killed = [i + 1 for i, v in enumerate(est) if v == 0.0]
    print(f"  components set exactly to zero: {killed}")
    print()
    print("The cutoff for component i is sigma_hat * xi_i * eta, so columns")
    print("with poorly determined coefficients get wider kill regions.")
    with np.printoptions(precision=3, suppress=True):
        print("  per-component xi:", compute_xi_all(design))
        print(f"  sigma_hat: {math.sqrt(sigma_hat_sq):.3f}")


if __name__ == "__main__":
    show_kernels()
    show_estimation()
