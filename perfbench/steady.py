"""Steadiness checks for the benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 2]
    python3 perfbench/steady.py --counts [--seed 7]

The first form runs ``--sets`` sets of ``--runs`` runs per workload, each run
with its own seed (set k uses seeds k*runs+1 ... (k+1)*runs), one after the
other as separate processes. For every end-to-end metric it prints each set's
median and quartile spread (interquartile distance over the median) and the
shift between the first and every later set's median, against the metric's
bound in BENCHMARK.json; the failed share must be equal in every set. The
second form runs the traced run (one traced round) twice with one seed and
requires the count metrics to repeat exactly. Exit status 1 when a check fails. Raw results go
to ``perfbench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_METRICS = ("krylov.iters", "krylov.solves", "eigensolver.outer_iters",
                 "eigensolver.stall_locks", "multigrid.levels",
                 "multigrid.operator_complexity", "multigrid.grid_complexity",
                 "multigrid.setup_calls", "multigrid.vcycle_calls",
                 "mesh.assemble_calls", "optimization.adjoint_iters")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError("%s failed (%d):\n%s" % (" ".join(cmd), out.returncode,
                                                    out.stderr[-2000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_sets(spec, workloads, runs, sets):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {w: [[run_once(w, k * runs + i + 1, spec["run_seconds"], 0)
                    for i in range(runs)] for k in range(sets)] for w in workloads}
    ok = True
    print("%-13s %-12s %10s %8s %8s %8s" % ("workload", "metric", "median", "spread",
                                             "shift", "bound"))
    for w, per_set in results.items():
        shares = {(sum(r["failed"] for r in s), sum(r["attempted"] for r in s))
                  for s in per_set}
        fails = {f / a for f, a in shares}
        if len(fails) != 1 or not all(r["correct"] for s in per_set for r in s):
            ok = False
            print("%s: failed shares %s differ or a run is not correct" % (w, sorted(shares)))
        for name, bound in bounds.items():
            vals = [[r["metrics"][name]["value"] for r in s] for s in per_set]
            base = statistics.median(vals[0])
            for k, v in enumerate(vals):
                med = statistics.median(v)
                shift = med / base - 1.0
                sp = spread(v)
                bad = shift > bound or (name != "setup_s" and sp > bound)
                ok &= not bad
                print("%-13s %-12s %10.4g %7.1f%% %7.1f%% %7.0f%%%s" % (
                    w if k == 0 else "", name if k == 0 else "", med, 100 * sp,
                    100 * shift, 100 * bound, "  <-- over bound" if bad else
                    "  (spread above a third of the bound)" if sp > bound / 3 else ""))
    return ok, results


def check_counts(workloads, seed):
    """Two traced runs of one round each with the same seed."""
    ok = True
    raw = {}
    for w in workloads:
        a, b = (run_once(w, seed, 0, 1) for _ in range(2))
        raw[w] = [a, b]
        for name in COUNT_METRICS:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            same = va == vb
            ok &= same
            print("%-13s %-30s %14.10g %14.10g %s" % (w, name, va, vb,
                                                       "" if same else "DIFFERENT"))
    return ok, raw


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--counts", action="store_true")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    if args.counts:
        ok, raw = check_counts(workloads, args.seed)
        tag = "counts"
    else:
        ok, raw = check_sets(spec, workloads, args.runs, args.sets)
        tag = "sets"
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady-%s-%s.json"
                           % (tag, "-".join(workloads))), "w") as fh:
        json.dump(raw, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
