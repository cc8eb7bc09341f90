"""Smoke check of the benchmark's own code on tiny inputs.

    python3 perfbench/smoke.py

Runs every workload at ``--scale tiny``, with tracing off and on, and
asserts that

- the last line is the result object, with every metric BENCHMARK.json lists
  and its unit, and ``correct`` true;
- the table names each end-to-end metric the workload reports, with a unit
  and a sample count;
- a deliberately wrong reference value trips the correctness gate;
- without the medlattice sources the command exits non-zero and prints no
  result.

Exits non-zero on the first failed assertion.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"

# the end-to-end metrics each workload prints in its table; the label of a tail
# percentile depends on the sample count, so "point_s_p9" matches any
TABLE_METRICS = {
    "solve": ("setup_s", "solve_s_p50", "sq_error", "est_err_sq", "peak_rss_mb", "fail_ratio"),
    "grid": ("setup_s", "grid_s_p50", "peak_rss_mb", "fail_ratio"),
    "query": ("setup_s", "query_pts_per_s", "point_s_p50", "point_s_p9", "peak_rss_mb",
              "fail_ratio"),
    "verify": ("setup_s", "verify_s_p50", "peak_rss_mb", "fail_ratio"),
}


def bench(workload, trace, *extra, cwd=ROOT, run=RUN):
    cmd = [sys.executable, str(run), "--workload", workload, "--seed", "1",
           "--seconds", "2", "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{proc.stderr}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    return result


def table_rows(stdout):
    """metric name -> (unit, samples) from the end-to-end table."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("   ") and len(parts) == 4 and parts[3].isdigit():
            rows[parts[0]] = (parts[2], int(parts[3]))
    return rows


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload, names in TABLE_METRICS.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(workload, trace)
            assert proc.returncode == 0, f"{workload} trace {trace}:\n{proc.stdout}{proc.stderr}"
            result = result_of(proc)
            assert result["correct"] and result["failed"] == 0, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {got} != {want}"
            if trace == 0:
                rows = table_rows(proc.stdout)
                for name in names:
                    found = [r for r in rows
                             if r == name or name.endswith("_p9") and r.startswith(name)]
                    assert found, f"{workload}: {name} missing from\n{proc.stdout}"
                    unit, samples = rows[found[0]]
                    assert unit and samples >= 1, (name, unit, samples)
            print(f"ok  {workload} trace {trace}")

    refs = json.loads((HERE / "references.json").read_text())
    refs["tiny"]["solve"]["sq_error"] *= 2.0
    wrong = HERE / "out" / "wrong-references.json"
    wrong.parent.mkdir(exist_ok=True)
    wrong.write_text(json.dumps(refs))
    proc = bench("solve", 0, "--references", str(wrong))
    result = result_of(proc)
    assert proc.returncode == 1 and not result["correct"] and result["failed"] >= 1, proc.stdout
    assert "FAILED: sq_error" in proc.stdout, proc.stdout
    print("ok  a wrong sq_error reference trips the gate")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("solve", 0, cwd=bare, run=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    print("ok  without the sources: exit code", proc.returncode, "and no result")


if __name__ == "__main__":
    main()
