"""Command-line interface: tables, figure data, intervals, and limit checks.

Outputs are deterministic: CSV cells use 10 significant digits with '.' as
the decimal separator, JSON keys are sorted, and rerunning a command with
identical arguments produces byte-identical artifacts.

Exit codes: 0 success; 1 a --check comparison or limit-gap threshold
failed; 2 usage error (bad flags or argument domains); 3 a numerical
routine could not reach its accuracy target.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .coverage import (
    IntervalSpec,
    infimal_known_coverage,
    lower_bound_unknown,
    min_coverage_search,
    solve_known_half_length,
    solve_unknown_half_length,
    unknown_coverage,
    upper_bound_unknown,
)
from .estimators import EstimatorKind
from .finite_sample import ScalingFactor, density_grid
from .limits import (
    ConservativeRegime,
    ConsistentRegime,
    weak_convergence_gaps,
)
from .model import ProblemSetup, VarianceMode, standard_ls_interval
from .special import BracketError, DomainError, NumericsError, std_normal_cdf

__all__ = ["main", "EXIT_OK", "EXIT_CHECK_FAILED", "EXIT_USAGE", "EXIT_NUMERICS"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICS = 3

_TABLE_ETAS = (0.05, 0.5)
_TABLE_KINDS = (EstimatorKind.HARD, EstimatorKind.ADAPTIVE_SOFT)

# Reference values for --check, at the default scenario (n=40, k=35, xi=1,
# sigma=1, alpha=0.05).  Keys: (estimator label, eta).
_CHECK_LENGTHS = {
    ("ls", None): (0.406, 5e-4),
    ("hard", 0.05): (0.434, 5e-4),
    ("hard", 0.5): (0.823, 5e-4),
    ("asoft", 0.05): (0.432, 5e-4),
    ("asoft", 0.5): (0.820, 5e-4),
}
_CHECK_UPPER = {
    ("hard", 0.05): (0.9595, 1e-3),
    ("hard", 0.5): (0.9965, 1e-3),
    ("asoft", 0.05): (0.9591, 1e-3),
    ("asoft", 0.5): (0.9965, 1e-3),
}
_CHECK_MIN = {
    ("hard", 0.05): (0.9592, 2e-3),
    ("hard", 0.5): (0.9893, 2e-3),
    ("asoft", 0.05): (0.9574, 2e-3),
    ("asoft", 0.5): (0.9844, 2e-3),
}

_FIGURE_DENSITY = {"pdfH": EstimatorKind.HARD, "pdfS": EstimatorKind.SOFT,
                   "pdfAS": EstimatorKind.ADAPTIVE_SOFT}
_FIGURE_COVERAGE = {"covH": EstimatorKind.HARD, "covAS": EstimatorKind.ADAPTIVE_SOFT}

_LIMIT_GAP_THRESHOLD = 0.02


def _setup(args: argparse.Namespace, eta: float | None = None) -> ProblemSetup:
    return ProblemSetup(n=args.n, k=args.k, xi=args.xi, sigma=args.sigma,
                        eta=args.eta if eta is None else eta)


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return f"{v:.10g}"


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _round10(obj):
    if isinstance(obj, dict):
        return {key: _round10(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round10(val) for val in obj]
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return str(obj)
        return float(f"{obj:.10g}")
    return obj


def _json_text(payload) -> str:
    return json.dumps(_round10(payload), indent=2, sort_keys=True) + "\n"


def _emit(args: argparse.Namespace, text: str):
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def _check_cell(label, got, expected, tol, failures):
    ok = abs(got - expected) <= tol
    if not ok:
        failures.append(f"{label}: got {got:.6f}, expected {expected} +- {tol}")
    return ok


def cmd_table1(args: argparse.Namespace) -> int:
    """Interval table: length, guaranteed lower bound, actual minimal
    coverage, and upper bound per estimator and eta, plus the classical
    LS row.  --fast leaves the (slow) minimal-coverage cells empty."""
    alpha = args.alpha
    rows = []
    ls_len = standard_ls_interval(_setup(args, _TABLE_ETAS[0]),
                                  VarianceMode.ESTIMATED, alpha)
    rows.append(("ls", "", ls_len, "", 1.0 - alpha, ""))
    results = {}
    for kind in _TABLE_KINDS:
        for eta in _TABLE_ETAS:
            setup = _setup(args, eta)
            length = solve_unknown_half_length(kind, alpha, setup)
            spec = IntervalSpec(length, length, VarianceMode.ESTIMATED)
            lower = lower_bound_unknown(kind, spec, setup)
            upper = upper_bound_unknown(spec, setup)
            min_cov = "" if args.fast else min_coverage_search(kind, spec, setup)[0]
            rows.append((kind.value, eta, length, lower, min_cov, upper))
            results[(kind.value, eta)] = (length, lower, min_cov, upper)
    text = _csv_text(
        ("estimator", "eta", "length", "lower_bound", "min_coverage", "upper_bound"),
        rows)
    _emit(args, text)
    if not args.check:
        return EXIT_OK
    failures = []
    _check_cell("length ls", ls_len, *_CHECK_LENGTHS[("ls", None)], failures)
    for key, (expected, tol) in _CHECK_LENGTHS.items():
        if key[1] is None:
            continue
        _check_cell(f"length {key[0]} eta={key[1]}", results[key][0],
                    expected, tol, failures)
    for key, (expected, tol) in _CHECK_UPPER.items():
        _check_cell(f"upper bound {key[0]} eta={key[1]}", results[key][3],
                    expected, tol, failures)
    if not args.fast:
        for key, (expected, tol) in _CHECK_MIN.items():
            _check_cell(f"min coverage {key[0]} eta={key[1]}", results[key][2],
                        expected, tol, failures)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _coverage_curve_rows(kind: EstimatorKind, args: argparse.Namespace):
    setup = _setup(args)
    if args.a is not None:
        length = float(args.a)
    else:
        length = solve_unknown_half_length(kind, args.alpha, setup)
    spec = IntervalSpec(length, length, VarianceMode.ESTIMATED)
    thetas = np.linspace(0.0, 3.0, 301)
    rows = list(zip(thetas, unknown_coverage(kind, thetas, 1.0, spec, setup)))
    return rows, length


def cmd_figure(args: argparse.Namespace) -> int:
    """Figure data as CSV.  which selects the panel: pdfH/pdfS/pdfAS are
    densities of the scaled error at the configured theta under the
    sampling-scale scaling; covH/covAS are coverage-versus-theta curves at
    the solved (or --a supplied) half-length."""
    which = args.which
    if which in _FIGURE_DENSITY:
        kind = _FIGURE_DENSITY[which]
        setup = _setup(args)
        xs, dens, atom = density_grid(kind, setup, args.theta,
                                      ScalingFactor.conservative(setup))
        rows = [(x, d, atom) for x, d in zip(xs, dens)]
        _emit(args, _csv_text(("x", "density", "atom_mass"), rows))
        return EXIT_OK
    if which in _FIGURE_COVERAGE:
        rows, _ = _coverage_curve_rows(_FIGURE_COVERAGE[which], args)
        _emit(args, _csv_text(("theta", "coverage"), rows))
        return EXIT_OK
    raise DomainError(f"unknown figure id {which!r}; use one of "
                      f"{sorted(_FIGURE_DENSITY) + sorted(_FIGURE_COVERAGE)}")


def cmd_coverage_curve(args: argparse.Namespace) -> int:
    """Coverage as a function of theta for any estimator kind."""
    kind = EstimatorKind(args.kind)
    rows, _ = _coverage_curve_rows(kind, args)
    _emit(args, _csv_text(("theta", "coverage"), rows))
    return EXIT_OK


def cmd_interval(args: argparse.Namespace) -> int:
    """Shortest guaranteed interval as JSON: half-length plus its
    guaranteed lower and upper coverage bounds."""
    kind = EstimatorKind(args.kind)
    mode = VarianceMode(args.mode)
    setup = _setup(args)
    if mode is VarianceMode.KNOWN:
        half = solve_known_half_length(kind, args.alpha, setup)
        spec = IntervalSpec(half, half, VarianceMode.KNOWN)
        lower = infimal_known_coverage(kind, spec, setup)
        arg = setup.root_n * half / setup.xi
        upper = float(std_normal_cdf(arg) - std_normal_cdf(-arg))
    else:
        half = solve_unknown_half_length(kind, args.alpha, setup)
        spec = IntervalSpec(half, half, VarianceMode.ESTIMATED)
        lower = lower_bound_unknown(kind, spec, setup)
        upper = upper_bound_unknown(spec, setup)
    payload = {
        "kind": kind.value,
        "mode": mode.value,
        "alpha": args.alpha,
        "half_length": half,
        "lower_bound": lower,
        "upper_bound": upper,
    }
    _emit(args, _json_text(payload))
    return EXIT_OK


def _limit_suites(args: argparse.Namespace):
    """Convergence-check suites: (name, kind, regime, path).

    Paths hold (setup, theta) pairs with residual degrees of freedom fixed
    at 5.  Conservative: eta = 1/sqrt(n) (e = 1) with theta = sigma xi / n
    (nu = 0); consistent: eta = n^(-0.15), theta tracking zeta = 0.4; plus
    a vanishing-threshold path eta = n^(-3/4) (e = 0).  --fast keeps only
    the endpoint of each path, which is the value the exit code tests.
    """
    ns = (5000,) if args.fast else (50, 500, 5000)
    suites = []
    for kind in EstimatorKind:
        path = []
        for n in ns:
            setup = ProblemSetup(n=n, k=n - 5, xi=args.xi, sigma=args.sigma,
                                 eta=1.0 / math.sqrt(n))
            path.append((setup, args.sigma * args.xi / n))
        suites.append((f"conservative-{kind.value}", kind,
                       ConservativeRegime(nu=0.0, e=1.0, m=5), path))
    for kind in EstimatorKind:
        path = []
        for n in ns:
            eta = n ** -0.15
            setup = ProblemSetup(n=n, k=n - 5, xi=args.xi, sigma=args.sigma,
                                 eta=eta)
            path.append((setup, 0.4 * args.sigma * args.xi * eta))
        suites.append((f"consistent-{kind.value}", kind,
                       ConsistentRegime(zeta=0.4, m=5), path))
    path = []
    for n in ns:
        setup = ProblemSetup(n=n, k=n - 5, xi=args.xi, sigma=args.sigma,
                             eta=n ** -0.75)
        path.append((setup, 0.0))
    suites.append(("conservative-hard-vanishing", EstimatorKind.HARD,
                   ConservativeRegime(nu=0.0, e=0.0, m=5), path))
    return suites


def cmd_limit_check(args: argparse.Namespace) -> int:
    """Weak-convergence report: sup-norm gaps between finite-sample and
    limit CDFs along moving-parameter paths; exit 0 iff every final gap is
    below the threshold."""
    grid = np.linspace(-3.0, 3.0, 41)
    report = []
    all_pass = True
    for name, kind, regime, path in _limit_suites(args):
        gaps = weak_convergence_gaps(kind, path, regime, grid)
        final = gaps[-1]
        ok = final <= _LIMIT_GAP_THRESHOLD
        all_pass = all_pass and ok
        report.append({
            "suite": name,
            "kind": kind.value,
            "sample_sizes": [s.n for s, _ in path],
            "gaps": gaps,
            "final_gap": final,
            "threshold": _LIMIT_GAP_THRESHOLD,
            "pass": ok,
        })
    payload = {"suites": report, "all_pass": all_pass}
    _emit(args, _json_text(payload))
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


_COMMANDS = {
    "table1": cmd_table1,
    "figure": cmd_figure,
    "interval": cmd_interval,
    "coverage_curve": cmd_coverage_curve,
    "limit_check": cmd_limit_check,
}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--n", type=int, default=40, help="sample size")
    parser.add_argument("--k", type=int, default=35, help="number of regressors")
    parser.add_argument("--xi", type=float, default=1.0,
                        help="standard-error scale of the watched component")
    parser.add_argument("--sigma", type=float, default=1.0, help="noise scale")
    parser.add_argument("--eta", type=float, default=0.05,
                        help="threshold tuning parameter")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="nominal non-coverage level")
    parser.add_argument("--out", type=str, default=None,
                        help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshcov",
        description="Thresholding estimators: exact error distributions and "
                    "confidence intervals with guaranteed minimal coverage.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="interval length and coverage table")
    _add_common(p)
    p.add_argument("--check", action="store_true",
                   help="compare cells against reference values; exit 1 on mismatch")
    p.add_argument("--fast", action="store_true",
                   help="skip the slow minimal-coverage cells")

    p = sub.add_parser("figure", help="figure data (densities or coverage curves)")
    _add_common(p)
    p.add_argument("--which", required=True,
                   choices=sorted(_FIGURE_DENSITY) + sorted(_FIGURE_COVERAGE),
                   help="panel id")
    p.add_argument("--theta", type=float, default=0.0,
                   help="true component value (density panels)")
    p.add_argument("--a", type=float, default=None,
                   help="half-length override (coverage panels)")

    p = sub.add_parser("interval", help="shortest guaranteed interval as JSON")
    _add_common(p)
    p.add_argument("--kind", default="hard",
                   choices=[k.value for k in EstimatorKind])
    p.add_argument("--mode", default="estimated",
                   choices=[m.value for m in VarianceMode])

    p = sub.add_parser("coverage_curve", help="coverage versus theta as CSV")
    _add_common(p)
    p.add_argument("--kind", default="hard",
                   choices=[k.value for k in EstimatorKind])
    p.add_argument("--a", type=float, default=None,
                   help="half-length override (default: solved at alpha)")

    p = sub.add_parser("limit_check", help="weak-convergence gap report as JSON")
    _add_common(p)
    p.add_argument("--fast", action="store_true",
                   help="evaluate only the endpoint n=5000 of each sample-size path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
