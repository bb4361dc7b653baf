"""Benchmark launcher: one workload, one single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/`` next to
this directory. Set-up is repeated and timed on its own; then whole rounds of
the workload run until ``--seconds`` of timed work have passed (at least one
round); with ``--trace 1`` untraced and traced rounds alternate until the
traced ones alone have. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 1`` the
metrics are the per-layer ones of ``spans.layer_metrics`` and the spans are
written to ``perfbench/out/``.
"""

import argparse
import json
import os
import sys

# One BLAS/OpenMP thread, before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up is timed in blocks: a fixed first block before any round, so that
# the first round starts from the same heap every run, then one block after
# each round, so that the median spans the whole run and not one moment of it.
SETUP_FIRST_BLOCK = 10
SETUP_BLOCK_SECONDS = 0.25


def import_program():
    """Import topomg from this checkout's src/, refusing any other copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import topomg

    if os.path.dirname(os.path.dirname(os.path.abspath(topomg.__file__))) != src:
        raise ImportError("topomg was imported from %s, not from %s"
                          % (topomg.__file__, src))


def time_setups(workload, seed, times, repeats=None):
    """Append set-up times to ``times``: ``repeats`` of them, or (at least
    five) until SETUP_BLOCK_SECONDS have passed. Returns the last context."""
    n = 0
    t_block = time.perf_counter()
    while (n < repeats if repeats else
           n < 5 or time.perf_counter() - t_block < SETUP_BLOCK_SECONDS):
        t0 = time.perf_counter()
        ctx = workload.setup(seed)
        times.append(time.perf_counter() - t0)
        n += 1
    return ctx


def run_rounds(workload, ctx, seconds, after_round):
    """Whole rounds until ``seconds`` of timed work; returns per-round results.

    The first round runs the heavier checks. ``after_round`` runs after each
    round, outside the timed work.
    """
    rounds = []
    while not rounds or sum(r[0].wall for r in rounds) < seconds:
        rounds.append(workload.run_round(ctx, not rounds))
        after_round()
    return rounds


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_program()
    from spans import Tracer, layer_metrics, layer_totals
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]

    setup_times = []
    ctx = time_setups(workload, args.seed, setup_times, SETUP_FIRST_BLOCK)
    rss = []

    def after_round():
        rss.append(peak_rss_mb())
        time_setups(workload, args.seed, setup_times)

    if args.trace:
        # untraced and traced rounds alternate, so that the machine's drift
        # falls on both and their medians give the tracing overhead
        tracer = Tracer()
        with tracer:
            traced_ctx = workload.setup(args.seed)
        n_setup_spans = len(tracer.spans)
        untraced, traced = [], []
        while not traced or sum(r[0].wall for r in traced) < args.seconds:
            untraced.append(workload.run_round(ctx, not untraced))
            after_round()
            with tracer:
                traced.append(workload.run_round(traced_ctx, False))
        rounds = untraced + traced
    else:
        rounds = run_rounds(workload, ctx, args.seconds, after_round)
    ok = [flag for _, flags, _ in rounds for flag in flags]
    workload.deferred_checks(ctx, ok)

    fingerprints = [fp for _, _, fp in rounds]
    deterministic = all(fp == fingerprints[0] for fp in fingerprints)
    if not deterministic:
        print("rounds of one run disagree on iterations or objectives", flush=True)
    result = {"correct": deterministic, "attempted": len(ok),
              "failed": ok.count(False)}

    if args.trace:
        metrics = layer_metrics(tracer.spans, n_setup_spans, len(traced))
        print("%-26s %8s %10s %10s  (traced rounds, per round)"
              % ("span", "calls", "time_s", "self_s"))
        for name, t in sorted(layer_totals(tracer.spans, n_setup_spans).items()):
            print("%-26s %8.0f %10.4f %10.4f" % (name, t["calls"] / len(traced),
                                                 t["s"] / len(traced),
                                                 t["self_s"] / len(traced)))
        traced_wall = statistics.median(r[0].wall for r in traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_pct"] = (
            100.0 * (traced_wall / statistics.median(r[0].wall for r in untraced) - 1.0),
            "%")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, "trace-%s-seed%d.json"
                                 % (workload.name, args.seed)),
                    {"workload": workload.name, "seed": args.seed,
                     "setup_spans": n_setup_spans, "traced_rounds": len(traced)})
    else:
        metrics = {
            "wall_s": (statistics.median(r[0].wall for r in rounds), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "step_s.p50": (statistics.median(t for r in rounds for t in r[0].laps), "s"),
            # after the first round: later rounds only add allocator noise
            "peak_rss_mb": (rss[0], "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print("%s seed %d: %d round(s), %d/%d operations failed, %d state-solve "
          "iterations per round" % (workload.name, args.seed, len(rounds),
                                    result["failed"], result["attempted"],
                                    sum(fp[0] for fp in fingerprints[0])), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
