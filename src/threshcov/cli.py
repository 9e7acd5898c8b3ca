"""Command-line interface: tables, figure data, intervals, and limit checks.

A command takes only the model flags it reads (_SUBCOMMANDS).  Every value
depends on theta only through theta / sigma: theta is in units of sigma.

Outputs are deterministic: a numeric CSV cell is printf ``%.10g`` of its
value ('.' as the decimal separator; ``inf``, ``-inf`` and ``nan`` as Python
spells them), a text cell is written as it is, JSON keys are sorted, and
rerunning a command with identical arguments gives byte-identical artifacts.

Exit codes: 0 success; 1 a --check comparison or limit-gap threshold
failed; 2 usage error (bad flags or argument domains); 3 a numerical
routine could not reach its accuracy target.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .coverage import (
    IntervalSpec,
    coverage_lower_bound,
    coverage_upper_bound,
    min_coverage_search,
    solve_known_half_length,
    solve_unknown_half_length,
    unknown_coverage,
)
from .estimators import EstimatorKind
from .finite_sample import ScalingFactor, density_grid
from .limits import (
    ConservativeRegime,
    ConsistentRegime,
    weak_convergence_gaps,
)
from .model import ProblemSetup, VarianceMode, standard_ls_interval
from .special import BracketError, DomainError, NumericsError

__all__ = ["main", "EXIT_OK", "EXIT_CHECK_FAILED", "EXIT_USAGE", "EXIT_NUMERICS"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICS = 3

_TABLE_ETAS = (0.05, 0.5)
_TABLE_KINDS = (EstimatorKind.HARD, EstimatorKind.ADAPTIVE_SOFT)

_TABLE_HEADER = ("estimator", "eta", "length", "lower_bound", "min_coverage",
                 "upper_bound")
# Reference values for --check, at the default scenario (n=40, k=35, xi=1,
# alpha=0.05), checked in this order: per column, (estimator label, eta) ->
# (value, tolerance); the LS row's eta is "".
_TABLE_CHECKS = {
    "length": {("ls", ""): (0.406, 5e-4),
               ("hard", 0.05): (0.434, 5e-4), ("hard", 0.5): (0.823, 5e-4),
               ("asoft", 0.05): (0.432, 5e-4), ("asoft", 0.5): (0.820, 5e-4)},
    "upper_bound": {("hard", 0.05): (0.9595, 1e-3), ("hard", 0.5): (0.9965, 1e-3),
                    ("asoft", 0.05): (0.9591, 1e-3), ("asoft", 0.5): (0.9965, 1e-3)},
    "min_coverage": {("hard", 0.05): (0.9592, 2e-3), ("hard", 0.5): (0.9893, 2e-3),
                     ("asoft", 0.05): (0.9574, 2e-3), ("asoft", 0.5): (0.9844, 2e-3)},
}

_FIGURE_DENSITY = {"pdfH": EstimatorKind.HARD, "pdfS": EstimatorKind.SOFT,
                   "pdfAS": EstimatorKind.ADAPTIVE_SOFT}
_FIGURE_COVERAGE = {"covH": EstimatorKind.HARD, "covAS": EstimatorKind.ADAPTIVE_SOFT}

_LIMIT_GAP_THRESHOLD = 0.02


def _setup(args: argparse.Namespace, eta: float | None = None) -> ProblemSetup:
    return ProblemSetup(n=args.n, k=args.k, xi=args.xi,
                        eta=args.eta if eta is None else eta)


def _csv_text(header, rows) -> str:
    """CSV text.  rows is a 2-D float array, written with one printf call,
    or a sequence of mixed rows, one printf call each, whose str cells
    (including "") are written as they are."""
    if isinstance(rows, np.ndarray):
        line = ",".join(["%.10g"] * rows.shape[1]) + "\n"
        body = (line * rows.shape[0]) % tuple(rows.ravel().tolist())
    else:
        body = "".join(
            ",".join("%s" if isinstance(cell, str) else "%.10g" for cell in row)
            % tuple(row) + "\n" for row in rows)
    return ",".join(header) + "\n" + body


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


def cmd_table1(args: argparse.Namespace) -> int:
    """Interval table: length, guaranteed lower bound, actual minimal
    coverage, and upper bound per estimator and eta, plus the classical
    LS row.  --fast leaves the (slow) minimal-coverage cells empty."""
    alpha = args.alpha
    rows = []
    ls_len = standard_ls_interval(_setup(args, _TABLE_ETAS[0]),
                                  VarianceMode.ESTIMATED, alpha)
    rows.append(("ls", "", ls_len, "", 1.0 - alpha, ""))
    for kind in _TABLE_KINDS:
        for eta in _TABLE_ETAS:
            setup = _setup(args, eta)
            length = solve_unknown_half_length(kind, alpha, setup)
            spec = IntervalSpec(length, length, VarianceMode.ESTIMATED)
            lower = coverage_lower_bound(kind, spec, setup)
            upper = coverage_upper_bound(spec, setup)
            min_cov = "" if args.fast else min_coverage_search(kind, spec, setup)[0]
            rows.append((kind.value, eta, length, lower, min_cov, upper))
    _emit(args, _csv_text(_TABLE_HEADER, rows))
    if not args.check:
        return EXIT_OK
    cells = {row[:2]: row for row in rows}
    failed = False
    for column, references in _TABLE_CHECKS.items():
        if args.fast and column == "min_coverage":
            continue
        at = _TABLE_HEADER.index(column)
        for (label, eta), (expected, tol) in references.items():
            got = cells[label, eta][at]
            if not abs(got - expected) <= tol:  # NaN fails
                failed = True
                where = f"{label} eta={eta}" if eta != "" else label
                print(f"check failed: {column.replace('_', ' ')} {where}: got "
                      f"{got:.6f}, expected {expected} +- {tol}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _coverage_csv(kind: EstimatorKind, args: argparse.Namespace) -> str:
    setup = _setup(args)
    if args.a is not None:
        length = float(args.a)
    else:
        length = solve_unknown_half_length(kind, args.alpha, setup)
    spec = IntervalSpec(length, length, VarianceMode.ESTIMATED)
    thetas = np.linspace(0.0, 3.0, 301)
    rows = np.column_stack((thetas, unknown_coverage(kind, thetas, 1.0, spec, setup)))
    return _csv_text(("theta", "coverage"), rows)


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
        rows = np.column_stack((xs, dens, np.full(xs.shape, atom)))
        _emit(args, _csv_text(("x", "density", "atom_mass"), rows))
        return EXIT_OK
    _emit(args, _coverage_csv(_FIGURE_COVERAGE[which], args))  # --which has no other choice
    return EXIT_OK


def cmd_coverage_curve(args: argparse.Namespace) -> int:
    """Coverage as a function of theta for any estimator kind."""
    _emit(args, _coverage_csv(EstimatorKind(args.kind), args))
    return EXIT_OK


def cmd_interval(args: argparse.Namespace) -> int:
    """Shortest guaranteed interval as JSON: half-length plus its
    guaranteed lower and upper coverage bounds."""
    kind = EstimatorKind(args.kind)
    mode = VarianceMode(args.mode)
    setup = _setup(args)
    solve = solve_known_half_length if mode is VarianceMode.KNOWN else solve_unknown_half_length
    half = solve(kind, args.alpha, setup)
    spec = IntervalSpec(half, half, mode)
    payload = {
        "kind": kind.value,
        "mode": mode.value,
        "alpha": args.alpha,
        "half_length": half,
        "lower_bound": coverage_lower_bound(kind, spec, setup),
        "upper_bound": coverage_upper_bound(spec, setup),
    }
    _emit(args, _json_text(payload))
    return EXIT_OK


def _limit_suites(fast: bool):
    """Convergence-check suites: (name, kind, regime, path).

    Paths hold (setup, theta) pairs at xi = sigma = 1, with residual degrees
    of freedom fixed at 5.  Conservative: eta = 1/sqrt(n) (e = 1) with theta
    = 1 / n (nu = 0); consistent: eta = n^(-0.15), theta = 0.4 eta (zeta =
    0.4); plus a vanishing-threshold path eta = n^(-3/4) (e = 0).  fast keeps
    only the endpoint of each path, which is the value the exit code tests.
    """
    ns = (5000,) if fast else (50, 500, 5000)
    families = [(f"conservative-{kind.value}", kind, ConservativeRegime(nu=0.0, e=1.0, m=5),
                 lambda n: 1.0 / math.sqrt(n), lambda n, eta: 1.0 / n)
                for kind in EstimatorKind]
    families += [(f"consistent-{kind.value}", kind, ConsistentRegime(zeta=0.4, m=5),
                  lambda n: n ** -0.15, lambda n, eta: 0.4 * eta)
                 for kind in EstimatorKind]
    families.append(("conservative-hard-vanishing", EstimatorKind.HARD,
                     ConservativeRegime(nu=0.0, e=0.0, m=5),
                     lambda n: n ** -0.75, lambda n, eta: 0.0))
    suites = []
    for name, kind, regime, eta_of, theta_of in families:
        setups = [ProblemSetup(n=n, k=n - 5, eta=eta_of(n)) for n in ns]
        suites.append((name, kind, regime, [(s, theta_of(s.n, s.eta)) for s in setups]))
    return suites


def cmd_limit_check(args: argparse.Namespace) -> int:
    """Weak-convergence report: sup-norm gaps between finite-sample and
    limit CDFs along moving-parameter paths; exit 0 iff every final gap is
    below the threshold."""
    grid = np.linspace(-3.0, 3.0, 41)
    report = []
    all_pass = True
    for name, kind, regime, path in _limit_suites(args.fast):
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


_MODEL_FLAGS = {
    "n": dict(type=int, default=40, help="sample size"),
    "k": dict(type=int, default=35, help="number of regressors"),
    "xi": dict(type=float, default=1.0, help="standard-error scale of the watched component"),
    "eta": dict(type=float, default=0.05, help="threshold tuning parameter"),
    "alpha": dict(type=float, default=0.05, help="nominal non-coverage level"),
}
# Per command, in help order: its handler, its help line and the model flags it reads.
_SUBCOMMANDS = {
    "table1": (cmd_table1, "interval length and coverage table", ("n", "k", "xi", "alpha")),
    "figure": (cmd_figure, "figure data (densities or coverage curves)", tuple(_MODEL_FLAGS)),
    "interval": (cmd_interval, "shortest guaranteed interval as JSON", tuple(_MODEL_FLAGS)),
    "coverage_curve": (cmd_coverage_curve, "coverage versus theta as CSV", tuple(_MODEL_FLAGS)),
    "limit_check": (cmd_limit_check, "weak-convergence gap report as JSON", ()),
}
_COMMANDS = {name: handler for name, (handler, _, _) in _SUBCOMMANDS.items()}


@functools.cache  # parse_args leaves the parser as it was: main() calls share it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threshcov",
        description="Thresholding estimators: exact error distributions and "
                    "confidence intervals with guaranteed minimal coverage.")
    sub = parser.add_subparsers(dest="command", required=True)
    p = {}
    for name, (_, summary, model) in _SUBCOMMANDS.items():
        p[name] = sub.add_parser(name, help=summary)
        for flag in model:
            p[name].add_argument(f"--{flag}", **_MODEL_FLAGS[flag])
        p[name].add_argument("--out", type=str, default=None,
                             help="write output to this file instead of stdout")

    p["table1"].add_argument("--check", action="store_true",
                             help="compare cells against reference values; exit 1 on mismatch")
    p["table1"].add_argument("--fast", action="store_true",
                             help="skip the slow minimal-coverage cells")

    p["figure"].add_argument("--which", required=True,
                             choices=sorted(_FIGURE_DENSITY) + sorted(_FIGURE_COVERAGE),
                             help="panel id; covH and covAS read --alpha unless --a is given")
    p["figure"].add_argument("--theta", type=float, default=0.0,
                             help="true component value in units of sigma (pdfH, pdfS, pdfAS)")
    p["figure"].add_argument("--a", type=float, default=None,
                             help="half-length override (covH, covAS)")

    for name in ("interval", "coverage_curve"):
        p[name].add_argument("--kind", default="hard",
                             choices=[k.value for k in EstimatorKind])
    p["interval"].add_argument("--mode", default="estimated",
                               choices=[m.value for m in VarianceMode])
    p["coverage_curve"].add_argument("--a", type=float, default=None,
                                     help="half-length override (default: solved at alpha)")

    p["limit_check"].add_argument(
        "--fast", action="store_true",
        help="evaluate only the endpoint n=5000 of each sample-size path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # fail before the computation, not after it
        if args.out and not Path(args.out).parent.is_dir():
            raise FileNotFoundError(f"--out directory {Path(args.out).parent} does not exist")
        return _COMMANDS[args.command](args)
    except (DomainError, BracketError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
