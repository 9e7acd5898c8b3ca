#!/usr/bin/env python3
"""Check that every CLI artifact of the benchmark keeps its exact bytes.

    python3 tools/check_cli_bytes.py            # compare with the digests
    python3 tools/check_cli_bytes.py --record   # rewrite the digest file

Runs each command of ``perfbench/workloads.artifact_tasks()`` and
``PROBE_ARTIFACTS`` (imported, never modified), plus ``table1 --fast
--check`` and the ``OFF_REFERENCE`` interval commands, through
``threshcov.cli.main`` in this one process, in that order.
Each command runs twice: once to stdout and once with ``--out`` to a
temporary file.  The exit code and the sha256 of stdout, stderr and the
``--out`` file are compared with ``tools/cli_bytes.json``.  The benchmark's
own check compares artifacts within 1e-8 and rerun checks compare one tree
with itself, so only this gate sees a byte change across commits.

On a mismatch, when ``perfbench/ref/artifacts.json.gz`` (read, never
modified) records the command's output, the first line of stdout that
differs from it is printed next to the recorded line.

Exit status: 0 when every command matches; 1 otherwise.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "cli_bytes.json"
ARTIFACTS = ROOT / "perfbench" / "ref" / "artifacts.json.gz"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from threshcov import cli  # noqa: E402


# Interval solves away from the reference eta and xi: a threshold far below
# and far above the noise scale, each kind in both variance modes; then a
# threshold of 1e308, whose half-length bracket ends at the largest double.
OFF_REFERENCE = [
    ["interval", "--kind", kind, "--mode", mode, "--eta", eta,
     "--xi", "0.3", "--alpha", "0.01"]
    for eta in ("0.01", "2") for kind in ("hard", "soft", "asoft")
    for mode in ("known", "estimated")
] + [
    ["interval", "--kind", kind, "--mode", mode, "--eta", "1e308"]
    for kind in ("hard", "soft", "asoft") for mode in ("known", "estimated")
]


def commands() -> list[list[str]]:
    argvs = workloads.artifact_tasks() + list(workloads.PROBE_ARTIFACTS)
    argvs.append(["table1", "--fast", "--check"])
    argvs += OFF_REFERENCE
    unique = []
    for argv in argvs:
        if argv not in unique:
            unique.append(list(argv))
    return unique


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def first_difference(got: str, recorded: str) -> str:
    """The first line (1-based) where got and recorded differ, both shown."""
    got_lines, ref_lines = got.splitlines(), recorded.splitlines()
    for i in range(max(len(got_lines), len(ref_lines))):
        mine = got_lines[i] if i < len(got_lines) else "<no line>"
        theirs = ref_lines[i] if i < len(ref_lines) else "<no line>"
        if mine != theirs:
            return f"line {i + 1}: got {mine!r}, recorded {theirs!r}"
    return "stdout equal to the recorded output"


def digest(argv: list[str], tmp: Path, outputs: dict) -> dict:
    code, out, err = run(argv)
    outputs[" ".join(argv)] = out.decode("utf-8")
    path = tmp / "artifact.out"
    file_code, file_out, file_err = run(argv + ["--out", str(path)])
    return {
        "exit": code,
        "stdout_sha256": sha256(out),
        "stderr_sha256": sha256(err),
        "out_exit": file_code,
        "out_stdout_bytes": len(file_out),
        "out_stderr_sha256": sha256(file_err),
        "out_file_sha256": sha256(path.read_bytes()),
    }


def main(argv=None) -> int:
    record = "--record" in (sys.argv[1:] if argv is None else argv)
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        got = {" ".join(a): digest(a, Path(tmp), outputs) for a in commands()}
    if record:
        DIGESTS.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"check_cli_bytes: recorded {len(got)} commands in {DIGESTS.name}")
        return 0
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    with gzip.open(ARTIFACTS, "rt", encoding="utf-8") as fh:
        recorded = json.load(fh)
    failures = [f"{key}: missing from {DIGESTS.name}" for key in got if key not in want]
    failures += [f"{key}: recorded but not run" for key in want if key not in got]
    for key, entry in got.items():
        if key in want and entry != want[key]:
            fields = sorted(f for f in entry if entry[f] != want[key].get(f))
            failures.append(f"{key}: {', '.join(fields)} differ")
            if key in recorded:
                line = first_difference(outputs[key], recorded[key]["output"])
                failures.append(f"{key}: {line}")
    for line in failures:
        print(f"check_cli_bytes: FAIL {line}")
    matched = sum(key in want and entry == want[key] for key, entry in got.items())
    print(f"check_cli_bytes: {matched} of {len(got)} commands "
          "byte-identical to the recorded digests")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
