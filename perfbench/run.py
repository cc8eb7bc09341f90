"""medlattice benchmark: one workload per call, closed loop, in-process.

    python3 perfbench/run.py --workload {solve,grid,query,verify,all} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it sets the workload up, then calls its operation one at a
time (the next call starts when the previous one returned) until ``--seconds``
have passed, checks every output, prints a table of the end-to-end metrics
with units and sample counts, and ends with one JSON line holding the
metrics that BENCHMARK.json lists as end-to-end.  With ``--trace 1`` it
alternates untraced and traced calls, traces one set-up, prints the per-layer
self-time table and ends with the per-layer metrics.  Full results, the
environment stamp and the span dump go to ``perfbench/out/``.

A failed correctness check counts in ``failed`` and makes the exit code 1.
Without the medlattice sources next to this directory the command exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: every workload is a single-thread baseline (library
# workers=1), and on two cores OpenBLAS's own threads spin and slow the small
# matrix-vector products down while adding run-to-run noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

# Seeds 1-20 were used while this benchmark was tuned and 1000+ for its
# references; a claim made with it is confirmed on this seed as well.
HELD_OUT_SEED = 7919
SETUP_CHILDREN = 4  # extra set-ups in fresh processes; setup_s is the median of 1 + these
WORKLOAD_ORDER = ("solve", "grid", "verify", "query")


class SourcesMissing(Exception):
    pass


def import_medlattice():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "medlattice" / "__init__.py").is_file():
        raise SourcesMissing(f"no medlattice sources under {src}")
    sys.path.insert(0, str(src))
    import medlattice
    import medlattice.experiment
    import medlattice.index_set
    import medlattice.korobov
    import medlattice.lattice
    import medlattice.median_approx
    import medlattice.params

    if Path(medlattice.__file__).resolve().parent != src / "medlattice":
        raise SourcesMissing(f"medlattice imported from {medlattice.__file__}, not {src}")
    return medlattice


def set_up(name, scale, seed, refs):
    """Time from before ``import medlattice`` until the workload is ready."""
    t0 = time.perf_counter()
    ml = import_medlattice()
    workloads.warm_up(ml, str(OUT))
    wl = workloads.WORKLOADS[name](ml, workloads.SCALES[scale][name], seed, refs, str(OUT))
    return ml, wl, time.perf_counter() - t0


def child_set_up(name, scale, seed):
    """One set-up in a fresh interpreter, so its import is cold again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name,
         "--scale", scale, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail_percentile(samples):
    """(label, value) of the highest of p90/p99/p99.9 with at least ten
    samples above it, or None when the run has too few samples."""
    xs = sorted(samples)
    n = len(xs)
    best = None
    for label, q in (("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)):
        rank = math.ceil(q * n)  # nearest-rank percentile
        if n - rank >= 10:
            best = (label, xs[rank - 1])
    return best


def environment(seed):
    """Where and on what the result was measured."""
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.machine(),
        "python": platform.python_version(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            env["cpu_model"] = models[0]
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            env[f"l{level}_size"] = size
    for mod in ("numpy", "scipy"):
        if mod in sys.modules:
            env[mod] = sys.modules[mod].__version__
    env["git_commit"] = _git_commit()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "medlattice").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["source_sha256"] = digest.hexdigest()
    return env


def _git_commit():
    """HEAD of the checkout when it is a git work tree, read from the files."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _call(wl, context=None):
    """One timed operation, inside ``context`` if given; returns (seconds,
    result or None, violations).  The checks run outside the context."""
    t0 = time.perf_counter()
    try:
        with context or contextlib.nullcontext():
            res = wl.op()
    except Exception as exc:  # a failed call is counted, and the loop goes on
        return time.perf_counter() - t0, None, [f"{type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    try:
        return dt, res, wl.check(res)
    except Exception as exc:
        return dt, None, [f"check raised {type(exc).__name__}: {exc}"]


def _timing(key, samples):
    """Median plus the tail percentile, as metric rows."""
    rows = {f"{key}_p50": {"value": statistics.median(samples), "unit": "s", "n": len(samples)}}
    tail = tail_percentile(samples)
    if tail:
        rows[f"{key}_{tail[0]}"] = {"value": tail[1], "unit": "s", "n": len(samples)}
    return rows


def e2e_metrics(name, setups, times, results, failed, attempted):
    """The end-to-end metrics of one workload, with units and sample counts."""
    m = {
        "setup_s": {"value": statistics.median(setups), "unit": "s", "n": len(setups)},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", "n": 1},
        "fail_ratio": {"value": failed / attempted, "unit": "1", "n": attempted},
    }
    m["op_s_p50"] = {"value": statistics.median(times) if times else float("nan"),
                     "unit": "s", "n": len(times)}
    ok = [r for r in results if r is not None]
    if name in ("solve", "grid", "verify") and times:
        m.update(_timing(f"{name}_s", times))
    if name == "solve" and ok:
        for key in ("sq_error", "est_err_sq"):
            vals = [r[key] for r in ok if key in r]
            if vals:
                m[key] = {"value": statistics.median(vals), "unit": "1", "n": len(vals)}
    if name == "query" and ok:
        batch_s = [r["batch_s"] for r in ok]
        m["query_pts_per_s"] = {"value": sum(r["batch_points"] for r in ok) / sum(batch_s),
                                "unit": "points/s", "n": len(batch_s)}
        m.update(_timing("point_s", [s for r in ok for s in r["single_s"]]))
        ratios = [r["mse_ratio"] for r in ok]
        m["mse_ratio_min"] = {"value": min(ratios), "unit": "1", "n": len(ratios)}
        m["mse_ratio_max"] = {"value": max(ratios), "unit": "1", "n": len(ratios)}
    if name == "verify" and ok:
        m["single_exceedance_max"] = {"value": max(r["single_rate_max"] for r in ok),
                                      "unit": "1", "n": len(ok)}
        m["single_bound"] = {"value": ok[0]["single_bound"], "unit": "1", "n": 1}
        m["median_bound"] = {"value": ok[0]["median_bound"], "unit": "1", "n": 1}
    return m


class Tally:
    """Operations attempted and failed, with the violations.  Violations
    found in set-up count as one failed operation."""

    def __init__(self, setup_violations):
        self.violations = list(setup_violations)
        self.attempted = self.failed = int(bool(self.violations))

    def record(self, bad):
        self.attempted += 1
        if bad:
            self.failed += 1
            self.violations.extend(bad)


def measure(name, args, refs):
    """The untraced run: set-up 1 + SETUP_CHILDREN times, then the closed loop."""
    _, wl, first_setup = set_up(name, args.scale, args.seed, refs[name])
    setups = [first_setup] + [child_set_up(name, args.scale, args.seed)
                              for _ in range(SETUP_CHILDREN)]
    tally = Tally(getattr(wl, "setup_violations", []))
    times, results = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        dt, res, bad = _call(wl)
        tally.record(bad)
        if not bad:
            times.append(dt)
        results.append(res)
        if time.perf_counter() >= deadline:
            break
    metrics = e2e_metrics(name, setups, times, results, tally.failed, tally.attempted)
    return {"workload": name, "metrics": metrics, "attempted": tally.attempted,
            "failed": tally.failed, "violations": tally.violations, "op_s": times,
            "setup_s": setups}


def measure_traced(name, args, refs):
    """The traced run: untraced and traced calls alternate; one set-up and
    the first traced call give the per-layer metrics."""
    ml, wl, _ = set_up(name, args.scale, args.seed, refs[name])
    tracer = tracing.Tracer(ml)
    with tracer.traced_pass("setup", "bench.setup"):
        workloads.warm_up(ml, str(OUT))
        traced_wl = workloads.WORKLOADS[name](
            ml, workloads.SCALES[args.scale][name], args.seed, refs[name], str(OUT))
    tally = Tally(getattr(wl, "setup_violations", [])
                  + getattr(traced_wl, "setup_violations", []))
    plain, traced, first = [], [], None
    deadline = time.perf_counter() + args.seconds
    while True:
        dt, res, bad = _call(wl)
        plain.append(dt)
        tally.record(bad)
        if first is None:
            first = res
        tdt, _, tbad = _call(traced_wl, tracer.traced_pass(f"op-{len(traced)}", "bench.op"))
        traced.append(tdt)
        tally.record(tbad)
        if time.perf_counter() >= deadline:
            break

    def of_pass(*ids):
        return [s for s in tracer.spans if s["pass"] in ids]

    layers = tracing.layer_metrics(of_pass("setup", "op-0"))
    layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    op_layers = tracing.layer_metrics(of_pass("op-0"))
    extra = {}
    if name == "solve" and first is not None:
        expected = first["R"] * first["N"]
        seen = op_layers["korobov.feval_points"]
        tally.record([] if seen == expected else [f"traced f_eval points {seen} != R*N {expected}"])
        # the same solve at workers=2; run() asserts eval_count == R*N itself,
        # so a lost update in its unlocked counter surfaces here as a failure
        t0 = time.perf_counter()
        try:
            two = workloads.solve(ml, workloads.SCALES[args.scale][name], first["master_seed"],
                                  workers=2)
            bad = [] if two["approx"].coefficients == first["approx"].coefficients else [
                "workers=2 coefficients differ from workers=1"]
        except Exception as exc:
            bad = [f"workers=2 solve: {type(exc).__name__}: {exc}"]
        extra["median_approx.w2_speedup"] = plain[0] / (time.perf_counter() - t0)
        tally.record(bad)
    tracer.dump(OUT / f"spans-{name}-seed{args.seed}.jsonl")
    return {"workload": name, "layers": layers, "op_layers": op_layers, "extra": extra,
            "self_table": tracing.self_time_table(of_pass("op-0")),
            "setup_table": tracing.self_time_table(of_pass("setup")),
            "plain_s": plain, "traced_s": traced, "attempted": tally.attempted,
            "failed": tally.failed, "violations": tally.violations}


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_untraced(r):
    print(f"== {r['workload']}: end-to-end metrics (tracing off)")
    print(f"   {'metric':<24}{'value':>14}  {'unit':<9}{'samples':>8}")
    for key, m in r["metrics"].items():
        print(f"   {key:<24}{_fmt(m['value']):>14}  {m['unit']:<9}{m['n']:>8}")
    for v in r["violations"]:
        print(f"   FAILED: {v}")


def print_traced(r):
    w = r["workload"]
    print(f"== {w}: self time per traced function, first traced call")
    total = sum(t for _, _, t in r["self_table"])
    for name, calls, t in r["self_table"]:
        print(f"   {name:<44}{calls:>8}{t:>12.6f} s{100 * t / total:>7.1f}%")
    print(f"== {w}: self time per traced function, traced set-up")
    for name, calls, t in r["setup_table"]:
        print(f"   {name:<44}{calls:>8}{t:>12.6f} s")
    print(f"== {w}: per-layer metrics, first traced call (set-up + call in the JSON line)")
    for key, v in r["op_layers"].items():
        print(f"   {key:<40}{_fmt(v):>14}")
    for key, v in r["extra"].items():
        print(f"   {key:<40}{_fmt(v):>14}")
    print(f"   {'trace.overhead_s':<40}{_fmt(r['layers']['trace.overhead_s']):>14}"
          f"   ({len(r['traced_s'])} traced / {len(r['plain_s'])} untraced calls)")
    for v in r["violations"]:
        print(f"   FAILED: {v}")


def _units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_ORDER + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=tuple(workloads.SCALES), default="full",
                   help="workload sizes; 'tiny' is for the smoke check")
    p.add_argument("--references", default=str(HERE / "references.json"),
                   help="reference values of the correctness gate")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for setup_s)")
    args = p.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        with open(args.references) as fh:
            refs = json.load(fh)[args.scale]
        if args.setup_only:
            _, _, dt = set_up(args.workload, args.scale, args.seed, refs[args.workload])
            print(json.dumps({"setup_s": dt}))
            return 0
        e2e_units, layer_units = _units()
        names = WORKLOAD_ORDER if args.workload == "all" else (args.workload,)
        runs = [(measure_traced if args.trace else measure)(n, args, refs) for n in names]
    except SourcesMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    metrics = {}
    for r in runs:
        (print_traced if args.trace else print_untraced)(r)
        prefix = "" if len(runs) == 1 else r["workload"] + "."
        values = r["layers"] if args.trace else {k: m["value"] for k, m in r["metrics"].items()}
        units = layer_units if args.trace else e2e_units
        for key, unit in units.items():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
        r["environment"] = env
        tag = f"{r['workload']}-seed{args.seed}-trace{args.trace}"
        with open(OUT / f"result-{tag}.json", "w") as fh:
            json.dump(r, fh, indent=1, sort_keys=True, default=str)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
