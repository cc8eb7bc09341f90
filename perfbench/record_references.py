"""Record the reference values of the benchmark's correctness gate.

    python3 perfbench/record_references.py [--solves 12] > perfbench/references.json

The values come from the sources in this checkout; perfbench/references.json
holds the ones recorded at the commit that added the benchmark, and later
changes are checked against those.  Per scale:

- solve: median sq_error and the largest est_err_sq over ``--solves`` master
  seeds drawn from workload seeds 1000, 1001, ... (never the seeds used to
  tune or confirm the benchmark);
- grid: the squared-error column of the CLI's CSV for f1 and f2;
- query: sq_error of the set-up build for workload seed 1000.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run
import workloads


def record(ml, scale, solves):
    cfg = workloads.SCALES[scale]
    f = workloads._oracle(ml, cfg["solve"])
    errs, ests = [], []
    for s in range(solves):
        master_seed = workloads._rng("solve", 1000 + s).getrandbits(63)
        res = workloads.solve(ml, cfg["solve"], master_seed)
        errs.append(res["sq_error"])
        ests.append(workloads.estimation_error_sq(f, res["approx"]))
        print(f"{scale} solve {s}: sq_error {res['sq_error']!r} est_err_sq {ests[-1]!r}",
              file=sys.stderr)
    grid = workloads.Grid(ml, cfg["grid"], 0, None, None).op()
    query = workloads.solve(ml, cfg["query"], workloads._rng("query", 1000).getrandbits(63))
    return {
        "solve": {
            "sq_error": statistics.median(errs),
            "sq_error_spread": (max(errs) - min(errs)) / statistics.median(errs),
            "est_err_sq_max": max(ests),
            "est_err_sq_median": statistics.median(ests),
            "solves": solves,
        },
        "grid": {"errors": {fn: [r.squared_L2_error for r in ml.experiment.parse_csv(text)]
                            for fn, (rc, text) in grid.items()}},
        "query": {"sq_error": query["sq_error"]},
        "verify": {},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--solves", type=int, default=12)
    args = p.parse_args()
    ml = run.import_medlattice()
    out = {scale: record(ml, scale, args.solves) for scale in ("tiny", "full")}
    out["recorded_at"] = run.environment(None)
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
