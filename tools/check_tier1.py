#!/usr/bin/env python3
"""Run the Tier-1 suite and check that only the deliberate failures fail.

    python3 tools/check_tier1.py [extra pytest arguments]

Runs ``python -m pytest -q --continue-on-collection-errors`` from the
repository root, with ``src`` on PYTHONPATH and a JUnit XML report written to
a temporary directory, then reads the report.  Three acceptance criteria
(01, 03 and 04 in tests/test_acceptance.py) fail on purpose: the published
reference table disagrees with the exact computations there (see the README
section "Reference values and known discrepancies").

Exit status: 0 when the failing set (failures and errors) is exactly those
three tests; 1 when any other test fails or errors, or when a deliberate
failure passes, is skipped or is missing; 2 when pytest wrote no report.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DELIBERATE_FAILURES = frozenset(
    f"tests.test_acceptance::{name}" for name in (
        "test_criterion_01_table_lengths",
        "test_criterion_03_table_min_coverages",
        "test_criterion_04_spot_value",
    ))


def run_suite(report: Path, extra: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           f"--junitxml={report}", *extra]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


def outcomes(report: Path) -> dict[str, str]:
    """Outcome of every test case in the report: passed, failed or skipped.
    Errors (including collection errors) count as failed."""
    out = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        test_id = f"{case.get('classname', '')}::{case.get('name', '')}"
        if case.find("failure") is not None or case.find("error") is not None:
            out[test_id] = "failed"
        elif case.find("skipped") is not None:
            out[test_id] = "skipped"
        else:
            out[test_id] = "passed"
    return out


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "tier1.xml"
        run_suite(report, argv)
        if not report.exists():
            print("check_tier1: pytest wrote no JUnit report", file=sys.stderr)
            return 2
        results = outcomes(report)
    failed = {t for t, outcome in results.items() if outcome == "failed"}
    unexpected = sorted(failed - DELIBERATE_FAILURES)
    not_failing = sorted(DELIBERATE_FAILURES - failed)
    counts = {o: sum(v == o for v in results.values())
              for o in ("passed", "failed", "skipped")}
    print(f"check_tier1: {counts['passed']} passed, {counts['failed']} failed, "
          f"{counts['skipped']} skipped")
    for test_id in unexpected:
        print(f"check_tier1: unexpected failure: {test_id}")
    for test_id in not_failing:
        print(f"check_tier1: deliberate failure did not fail "
              f"({results.get(test_id, 'missing')}): {test_id}")
    if unexpected or not_failing:
        return 1
    print("check_tier1: OK, only the deliberate failures (criteria 01, 03, 04) fail")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
