#!/usr/bin/env python3
"""Replay every recorded point query of the benchmark and check its value.

    python3 tools/check_query_pool.py            # compare values and digest
    python3 tools/check_query_pool.py --record   # rewrite the digest file

``perfbench/ref/queries.json.gz`` records the value of each of the 50000
point queries in the benchmark's fixed pool: scalar ``tilde_cdf``,
``tilde_density``, ``unknown_coverage``, ``known_coverage`` and
``solve_unknown_half_length`` calls.  A timed point-queries run reaches only
the probe's 4000 and as many main queries as its time allows; this script
runs every one of them once, in pool order, and compares each value with the
recorded one within the benchmark's analytic tolerance.
``perfbench/workloads.py`` supplies the queries and the check; it is
imported, never modified.  BLAS threads are pinned to 1, as in a benchmark
run.

The tolerance lets a value move by rounding, so the script also hashes the
float64 bits of all the values, in pool order, and compares that sha256
with the one in ``tools/query_pool.json``, recorded with numpy 2.4.6 and
scipy 1.17.1 (the versions CI pins).  A change that moves any value on
purpose re-records it with ``--record`` and says so.

Exit status: 0 when every query matches and the digest is unchanged; 1
otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import collections  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DIGEST = Path(__file__).resolve().parent / "query_pool.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def main(argv=None) -> int:
    record = "--record" in (sys.argv[1:] if argv is None else argv)
    refs = workloads.References()
    seconds = collections.Counter()
    queries = collections.Counter()
    failures = []
    bits = hashlib.sha256()
    for index in range(len(refs.pool)):
        outcome = workloads.run_task(workloads.query_task(refs.pool, index))
        func = refs.pool[index][0]
        seconds[func] += outcome.seconds
        queries[func] += 1
        reason = workloads.check(outcome, refs)
        if reason is not None:
            failures.append(reason)
        # a raised query hashes as NaN, so it moves the digest too
        value = math.nan if outcome.error is not None else float(outcome.output)
        bits.update(struct.pack("<d", value))
    for func in workloads.QUERY_FUNCS:
        if queries[func]:
            print(f"check_query_pool: {func}: {queries[func]} queries, "
                  f"{1e3 * seconds[func] / queries[func]:.3f} ms per query")
    for reason in failures[:20]:
        print(f"check_query_pool: FAIL {reason}")
    if len(failures) > 20:
        print(f"check_query_pool: ... and {len(failures) - 20} more")
    total = sum(queries.values())
    print(f"check_query_pool: {total - len(failures)} of {total} recorded queries match")
    got = {"queries": total, "float64_sha256": bits.hexdigest()}
    if record:
        DIGEST.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"check_query_pool: recorded the value digest in {DIGEST.name}")
        return 1 if failures or total == 0 else 0
    want = json.loads(DIGEST.read_text(encoding="utf-8"))
    same = got == want
    print(f"check_query_pool: value digest {got['float64_sha256'][:16]}... "
          f"{'matches' if same else 'DIFFERS from'} {DIGEST.name}")
    return 1 if failures or total == 0 or not same else 0


if __name__ == "__main__":
    sys.exit(main())
