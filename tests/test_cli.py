"""Command-line interface: output schemas, exit codes, reproducibility."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from threshcov import NumericsError, unknown_coverage, IntervalSpec, VarianceMode, reference_setup
from threshcov import cli
from threshcov.cli import (
    EXIT_CHECK_FAILED,
    EXIT_NUMERICS,
    EXIT_OK,
    EXIT_USAGE,
    _csv_text,
    build_parser,
    main,
)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestTable:
    def test_fast_table_layout(self, capsys):
        rc, out, err = run_cli(capsys, "table1", "--fast")
        assert rc == EXIT_OK and err == ""
        header, rows = parse_csv(out)
        assert header == ["estimator", "eta", "length", "lower_bound",
                          "min_coverage", "upper_bound"]
        assert [r[0] for r in rows] == ["ls", "hard", "hard", "asoft", "asoft"]
        by_key = {(r[0], r[1]): r for r in rows}
        assert float(by_key[("ls", "")][2]) == pytest.approx(
            0.406444675623367, abs=1e-9)
        assert float(by_key[("hard", "0.05")][2]) == pytest.approx(
            0.43404986963978825, abs=1e-9)
        assert float(by_key[("asoft", "0.5")][2]) == pytest.approx(
            0.8207853917670102, abs=1e-9)
        # fast mode leaves the slow cells blank
        assert all(r[4] == "" for r in rows if r[0] != "ls")

    def test_check_reports_reference_mismatches(self, capsys):
        rc, out, err = run_cli(capsys, "table1", "--fast", "--check")
        assert rc == EXIT_CHECK_FAILED
        failures = [line for line in err.strip().splitlines() if line]
        assert len(failures) == 2
        assert all("length asoft" in line for line in failures)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        rc1, _, _ = run_cli(capsys, "table1", "--fast", "--out", str(out_a))
        rc2, _, _ = run_cli(capsys, "table1", "--fast", "--out", str(out_b))
        assert rc1 == rc2 == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()


class TestFigure:
    def test_density_panel(self, capsys):
        rc, out, err = run_cli(capsys, "figure", "--which", "pdfH")
        assert rc == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["x", "density", "atom_mass"]
        assert len(rows) == 801
        assert float(rows[0][0]) == -4.0 and float(rows[-1][0]) == 4.0
        atoms = {r[2] for r in rows}
        assert len(atoms) == 1
        assert float(atoms.pop()) == pytest.approx(0.23539522321120737, abs=1e-9)
        mid = rows[400]
        assert float(mid[0]) == 0.0 and float(mid[1]) == 0.0

    def test_density_panel_nonzero_component(self, capsys):
        rc, out, _ = run_cli(capsys, "figure", "--which", "pdfS",
                             "--theta", "0.16")
        assert rc == EXIT_OK
        _, rows = parse_csv(out)
        assert all(float(r[2]) == 0.0 for r in rows)
        assert max(float(r[1]) for r in rows) > 0.1

    def test_coverage_panel(self, capsys):
        rc, out, _ = run_cli(capsys, "figure", "--which", "covH")
        assert rc == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["theta", "coverage"]
        assert len(rows) == 301
        values = [float(r[1]) for r in rows]
        assert min(values) == pytest.approx(0.9592, abs=2e-3)
        rc, out, _ = run_cli(capsys, "figure", "--which", "covAS")
        _, rows = parse_csv(out)
        assert min(float(r[1]) for r in rows) == pytest.approx(0.9574, abs=2e-3)

    def test_unknown_panel(self):
        # rejected by argument parsing, same exit status as other usage errors
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--which", "pdfX"])
        assert exc.value.code == EXIT_USAGE

    def test_reruns_identical(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run_cli(capsys, "figure", "--which", "pdfAS", "--theta", "0.16",
                "--out", str(out_a))
        run_cli(capsys, "figure", "--which", "pdfAS", "--theta", "0.16",
                "--out", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()


class TestInterval:
    def test_default_request(self, capsys):
        rc, out, _ = run_cli(capsys, "interval")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == {"kind", "mode", "alpha", "half_length",
                                "lower_bound", "upper_bound"}
        assert payload["kind"] == "hard" and payload["mode"] == "estimated"
        assert payload["half_length"] == pytest.approx(0.43404986963978825,
                                                       abs=1e-9)
        assert payload["lower_bound"] == pytest.approx(0.95, abs=1e-9)
        assert payload["upper_bound"] > payload["lower_bound"]

    def test_wide_threshold_request(self, capsys):
        rc, out, _ = run_cli(capsys, "interval", "--kind", "hard",
                             "--eta", "0.5")
        payload = json.loads(out)
        assert rc == EXIT_OK
        assert payload["half_length"] == pytest.approx(0.8229652483480663,
                                                       abs=1e-9)

    def test_known_variance_request(self, capsys):
        rc, out, _ = run_cli(capsys, "interval", "--kind", "soft",
                             "--mode", "known")
        payload = json.loads(out)
        assert rc == EXIT_OK
        assert payload["half_length"] == pytest.approx(0.32478571063937384,
                                                       abs=1e-9)

    def test_bad_alpha(self, capsys):
        rc, _, err = run_cli(capsys, "interval", "--alpha", "1.5")
        assert rc == EXIT_USAGE
        assert "error:" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "interval.json"
        rc, out, _ = run_cli(capsys, "interval", "--out", str(target))
        assert rc == EXIT_OK and out == ""
        payload = json.loads(target.read_text())
        assert payload["mode"] == "estimated"

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setitem(cli._COMMANDS, "interval", ran.append)
        missing = tmp_path / "missing" / "x.json"
        rc, out, err = run_cli(capsys, "interval", "--kind", "soft", "--mode", "known",
                               "--out", str(missing))
        # refused before the command runs
        assert rc == EXIT_USAGE and out == "" and err.startswith("error:")
        assert not ran and not missing.parent.exists()

    def test_failed_write_is_a_usage_error(self, capsys, tmp_path):
        # the target is a directory: the write itself fails
        rc, out, err = run_cli(capsys, "interval", "--kind", "soft", "--mode", "known",
                               "--out", str(tmp_path))
        assert rc == EXIT_USAGE and out == "" and err.startswith("error:")

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        def fails(args):
            raise NumericsError("quadrature did not converge")

        monkeypatch.setitem(cli._COMMANDS, "interval", fails)
        rc, out, err = run_cli(capsys, "interval")
        assert rc == EXIT_NUMERICS and out == ""
        assert err == "numerical failure: quadrature did not converge\n"


class TestCoverageCurve:
    def test_fixed_half_length(self, capsys):
        rc, out, _ = run_cli(capsys, "coverage_curve", "--kind", "soft",
                             "--a", "0.42")
        assert rc == EXIT_OK
        header, rows = parse_csv(out)
        assert header == ["theta", "coverage"]
        assert len(rows) == 301
        setup = reference_setup()
        spec = IntervalSpec(0.42, 0.42, VarianceMode.ESTIMATED)
        expected = unknown_coverage("soft", 0.0, 1.0, spec, setup)
        assert float(rows[0][1]) == pytest.approx(expected, abs=1e-8)
        assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 3.0


class TestLimitCheck:
    def test_fast_report(self, capsys):
        rc, out, _ = run_cli(capsys, "limit_check", "--fast")
        assert rc == EXIT_OK
        payload = json.loads(out)
        assert payload["all_pass"] is True
        suites = payload["suites"]
        assert len(suites) == 7
        names = {s["suite"] for s in suites}
        assert "conservative-hard" in names
        assert "consistent-soft" in names
        assert "conservative-hard-vanishing" in names
        for suite in suites:
            assert suite["sample_sizes"] == [5000]
            assert len(suite["gaps"]) == 1
            assert suite["final_gap"] <= suite["threshold"]
            assert suite["pass"] is True


# One value per model flag that moves every command reading it off its default.
MODEL_VALUES = {"--n": "60", "--k": "30", "--xi": "2", "--eta": "0.3", "--alpha": "0.1"}

# (fixed argv, flag, value or None for a switch): every flag a command keeps
# changes that argv's output.
KEPT_FLAGS = [
    *((("table1", "--fast"), flag, MODEL_VALUES[flag])
      for flag in ("--n", "--k", "--xi", "--alpha")),
    *((argv, flag, value)
      for argv in (("figure", "--which", "covH"), ("interval",), ("coverage_curve",))
      for flag, value in MODEL_VALUES.items()),
    (("figure", "--which", "pdfS"), "--theta", "0.16"),
    (("figure", "--which", "covH"), "--a", "0.5"),
    (("limit_check",), "--fast", None),
]

# 11 of the 30 model-flag slots the five commands had: 19 remain
REMOVED_FLAGS = [
    *((argv, "--sigma") for argv in (("table1",), ("figure", "--which", "pdfH"), ("interval",),
                                     ("coverage_curve",), ("limit_check",))),
    (("table1",), "--eta"),
    *((("limit_check",), flag) for flag in ("--n", "--k", "--xi", "--eta", "--alpha")),
]


class TestModelFlags:
    """Each command takes only the model flags it reads."""

    @pytest.mark.parametrize("argv, flag, value", KEPT_FLAGS)
    def test_kept_flag_changes_output(self, capsys, argv, flag, value):
        rc, base, _ = run_cli(capsys, *argv)
        changed = run_cli(capsys, *argv, flag, *(() if value is None else (value,)))
        assert rc == changed[0] == EXIT_OK
        assert changed[1] != base

    @pytest.mark.parametrize("argv, flag", REMOVED_FLAGS)
    def test_removed_flag_is_a_usage_error(self, capsys, argv, flag):
        rc, out, err = run_any(capsys, (*argv, flag, "1"))
        assert rc == EXIT_USAGE and out == ""
        assert f"unrecognized arguments: {flag} 1" in err


class TestArgHandling:
    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["nonsense"])
        assert exc.value.code == 2

    def test_bad_kind_label(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["interval", "--kind", "ridge"])
        assert exc.value.code == 2


def reference_csv_text(header, rows):
    """The per-cell CSV writer the row writer replaced, kept as its contract."""
    def fmt(value):
        if value is None or value == "":
            return ""
        if isinstance(value, str):
            return value
        v = float(value)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.10g}"

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324,
                  1.7976931348623157e308, -1.7976931348623157e308, 1e16,
                  2.2250738585072014e-308, 0.1, 1.0 / 3.0, 12345678901.5, -4.0]


class TestCsvFormat:
    """_csv_text writes the bytes of the per-cell reference writer."""

    @pytest.mark.parametrize("columns", [1, 3, 5])
    def test_special_values_in_float_array(self, columns):
        rows = np.array(SPECIAL_FLOATS).reshape(-1, columns)
        header = [f"c{j}" for j in range(columns)]
        want = reference_csv_text(header, [tuple(row) for row in rows])
        assert _csv_text(header, rows) == want

    def test_table_rows_with_text_blank_and_integer_cells(self):
        header = ("estimator", "eta", "length", "lower_bound", "min_coverage",
                  "upper_bound")
        rows = [("ls", "", 0.406444675623367, "", 0.95, ""),
                ("hard", 0.05, np.float64(0.43404986963978825), 0.95, "",
                 math.inf),
                ("asoft", 0.5, -0.0, 5e-324, math.nan, -math.inf),
                ("int", 7, -12, 10 ** 16, 2 ** 60 + 1, 0),
                ("big", 1.7976931348623157e308, 1e16, 0.0, "x", "")]
        assert _csv_text(header, rows) == reference_csv_text(header, rows)

    def test_empty_tables(self):
        assert _csv_text(("a", "b"), np.empty((0, 2))) == "a,b\n"
        assert _csv_text(("a", "b"), []) == "a,b\n"

    @given(rows=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                        max_side=12),
                           elements=st.floats(allow_subnormal=True)))
    @settings(deadline=None, max_examples=200)
    def test_random_float_arrays(self, rows):
        header = [f"c{j}" for j in range(rows.shape[1])]
        want = reference_csv_text(header, [tuple(row) for row in rows])
        assert _csv_text(header, rows) == want

    @given(rows=st.lists(st.lists(st.one_of(
        st.floats(), st.integers(-10 ** 20, 10 ** 20), st.text(), st.just("")),
        min_size=6, max_size=6), max_size=8))
    @settings(deadline=None, max_examples=200)
    def test_random_mixed_rows(self, rows):
        header = ["a", "b", "c", "d", "e", "f"]
        assert _csv_text(header, rows) == reference_csv_text(header, rows)


def run_any(capsys, argv):
    """Exit code, stdout and stderr of main(argv), usage errors included."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSharedParser:
    """main() builds its parser once per process; a run never depends on the
    runs before it."""

    SEQUENCE = (("interval", "--kind", "soft", "--mode", "known"),
                ("figure", "--which", "pdfX"),
                ("interval", "--alpha", "1.5"),
                ("interval", "--kind", "soft", "--mode", "known"))

    def test_runs_match_fresh_parsers(self, capsys):
        build_parser.cache_clear()
        shared = [run_any(capsys, argv) for argv in self.SEQUENCE]
        assert build_parser.cache_info().misses == 1
        fresh = []
        for argv in self.SEQUENCE:
            build_parser.cache_clear()
            fresh.append(run_any(capsys, argv))
        assert [rc for rc, _, _ in shared] == [EXIT_OK, EXIT_USAGE, EXIT_USAGE,
                                                EXIT_OK]
        assert shared == fresh
        assert shared[0][1] and shared[0] == shared[3]

    @pytest.mark.parametrize("argv", [("--help",), ("figure", "--help"),
                                      ("table1", "--help")])
    def test_help_unchanged(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        for prior in self.SEQUENCE:
            run_any(capsys, prior)
        shared = run_any(capsys, argv)
        build_parser.cache_clear()
        fresh = run_any(capsys, argv)
        assert shared == fresh
        assert shared[0] == 0 and "usage: threshcov" in shared[1]
