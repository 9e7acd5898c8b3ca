"""Record the reference outputs the benchmark checks against.

Run from the repository root on the commit whose outputs define
correctness:

    python3 perfbench/record.py

Writes, under perfbench/ref/:

* queries.json.gz: the value of every point query in the pool;
* artifacts.json.gz: exit code and stdout of every CLI artifact (main list
  and probe);
* mc.json: the Monte Carlo cell configs with their half-lengths and exact
  analytic values (coverage, or CDF on the ECDF grid plus the atom), and the
  counts of the probe cells and of the first MC_RECORDED_CELLS main cells
  of the default and held-out seeds.
"""

import gzip
import itertools
import json
import sys
import types
from pathlib import Path

import run  # noqa: F401  (pins the thread pools as a run does, before numpy loads)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as w  # noqa: E402
from threshcov import coverage, finite_sample, model  # noqa: E402


def record_queries(pool) -> dict:
    values = []
    for i in range(len(pool)):
        out = w.run_task(w.query_task(pool, i))
        if out.error:
            raise SystemExit(f"query {pool[i]} failed: {out.error}")
        values.append(float(f"{float(out.output):.12g}"))
    return {"pool_fingerprint": w.pool_fingerprint(pool), "values": values}


def record_artifacts() -> dict:
    refs = {}
    for argv in w.artifact_tasks() + list(w.PROBE_ARTIFACTS):
        code, text = w.run_cli(argv)
        refs[" ".join(argv)] = {"exit": code, "output": text}
    return refs


def _half_length(kind, mode, setup):
    if mode == "known":
        return coverage.solve_known_half_length(kind, 0.05, setup)
    return coverage.solve_unknown_half_length(kind, 0.05, setup)


def _exact_coverage(kind, nu, mode, a, setup):
    theta = nu / setup.root_n
    spec = coverage.IntervalSpec(a, a, model.VarianceMode(mode))
    if mode == "known":
        return coverage.known_coverage(kind, theta, 1.0, spec, setup)
    return coverage.unknown_coverage(kind, theta, 1.0, spec, setup)


def mc_config_values() -> dict:
    """The Monte Carlo configs with their half-lengths and exact values."""
    grids = w.mc_configs()
    out = {"coverage": [], "ecdf": [], "full": []}
    for kind, eta, nu, mode, m in grids["coverage"]:
        setup = w.make_setup(m, eta)
        a = _half_length(kind, mode, setup)
        out["coverage"].append([kind, eta, nu, mode, m, a,
                                _exact_coverage(kind, nu, mode, a, setup)])
    for kind, eta, nu, mode in grids["full"]:
        setup = w.make_setup(5, eta)
        a = _half_length(kind, mode, setup)
        out["full"].append([kind, eta, nu, mode, a,
                            _exact_coverage(kind, nu, mode, a, setup)])
    for kind, eta, nu, m in grids["ecdf"]:
        setup = w.make_setup(m, eta)
        alpha = finite_sample.ScalingFactor.conservative(setup)
        cdf = [finite_sample.tilde_cdf(kind, x, setup, nu / setup.root_n, alpha)
               for x in w.ECDF_GRID]
        atom = finite_sample.atom_mass(setup) if nu == 0.0 else None
        out["ecdf"].append([kind, eta, nu, m, cdf, atom])
    return out


def _outputs(tasks) -> list:
    outputs = []
    for task in tasks:
        out = w.run_task(task)
        if out.error:
            raise SystemExit(f"cell {task.key} failed: {out.error}")
        outputs.append(out.output)
    return outputs


def record_mc(pool) -> dict:
    refs = types.SimpleNamespace(pool=pool, mc_configs=mc_config_values())
    probe = [w.mc_task(refs.mc_configs, fam, idx, pseed, f"probe:{j}")
             for j, (fam, idx, pseed) in enumerate(w.PROBE_CELLS)]
    exact = {"probe": _outputs(probe)}
    for seed in (w.DEFAULT_SEED, w.HELD_OUT_SEED):
        cells = itertools.islice(w.main_tasks("mc-oracle", seed, refs),
                                 w.MC_RECORDED_CELLS)
        exact[str(seed)] = _outputs(cells)
    return {"configs": refs.mc_configs, "exact": exact}


def _write_gz(path: Path, obj) -> None:
    """gzip with a zero timestamp, so re-recording identical values gives
    identical bytes."""
    path.write_bytes(gzip.compress(json.dumps(obj, sort_keys=True).encode(), mtime=0))


def main() -> int:
    ref_dir = w.REF_DIR
    ref_dir.mkdir(exist_ok=True)
    pool = w.query_pool()
    _write_gz(ref_dir / "queries.json.gz", record_queries(pool))
    _write_gz(ref_dir / "artifacts.json.gz", record_artifacts())
    (ref_dir / "mc.json").write_text(json.dumps(record_mc(pool)) + "\n",
                                     encoding="utf-8")
    print(f"references written to {ref_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
