"""Command-line interface: `topomg run`, `topomg grid`, `topomg report`.

Exit codes: 0 success, 1 usage/configuration error, 2 runtime failure
(nonconvergence, I/O error during the run).
"""

import argparse
import json
import sys
import traceback

import jsonschema

from . import bench
from .optimization import STRATEGIES


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error; argparse's 2 is a failed run's code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _load_config(path, output_override):
    with open(path) as fh:
        raw = json.load(fh)
    if output_override and isinstance(raw, dict):
        raw["output_dir"] = output_override
    return bench.BenchConfig.from_dict(raw)


def _cmd_run(args):
    if args.print_schema:
        json.dump(bench.CONFIG_SCHEMA, sys.stdout, indent=2)
        print()
        return 0
    if not args.config:
        print("error: a config file is required (or use --print-schema)",
              file=sys.stderr)
        return 1
    try:
        cfg = _load_config(args.config, args.output)
    except OSError as exc:
        print("error: cannot read config file: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, jsonschema.ValidationError) as exc:
        print("error: invalid configuration: %s" % exc, file=sys.stderr)
        return 1
    code, written = bench.run_benchmark(cfg)
    for path in written:
        print("wrote %s" % path)
    return code


def _cmd_grid(args):
    given = vars(args)  # only the flags given: the rest take the config's defaults

    def pick(*keys):
        return {k: given[k] for k in keys if k in given}

    raw = {"problem": "grid_diagnostic",
           "grid": {"pitches": [args.pitch_x, args.pitch_y],
                    **pick("domain", "feature_width")},
           "preconditioner": pick("strategy"), **pick("output_dir")}
    try:
        cfg = bench.BenchConfig.from_dict(raw)
    except (ValueError, jsonschema.ValidationError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    try:
        result = bench.run_grid_point(cfg, args.pitch_x, args.pitch_y)
        row = bench.grid_csv_row(result)
        if "output_dir" in given:
            bench.write_grid_results(cfg.output_dir, [row],
                                     result["hierarchy"].summary())
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print("grid solve failed: %s" % exc, file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2
    print(bench.GRID_CSV_HEADER)
    print(row)
    if not result["converged"]:
        print("solver did not converge", file=sys.stderr)
        return 2
    return 0


def _cmd_report(args):
    try:
        report = bench.compare_report(args.csv)
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print(bench.format_report(report))
    return 0


def build_parser():
    parser = _Parser(
        prog="topomg",
        description="Multigrid-preconditioned topology optimization benchmarks")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a configured benchmark")
    p_run.add_argument("config", nargs="?", help="JSON configuration file")
    p_run.add_argument("--output", default=None, help="output directory override")
    p_run.add_argument("--print-schema", action="store_true",
                       help="print the JSON config schema and exit")
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("grid", help="single grid-diagnostic solve",
                            argument_default=argparse.SUPPRESS)
    p_grid.add_argument("--pitch-x", type=int, required=True)
    p_grid.add_argument("--pitch-y", type=int, required=True)
    p_grid.add_argument("--strategy", choices=STRATEGIES)
    p_grid.add_argument("--domain", type=int)
    p_grid.add_argument("--width", dest="feature_width", metavar="WIDTH", type=int)
    p_grid.add_argument("--output", dest="output_dir", metavar="OUTPUT",
                        help="also write grid_results.csv and "
                             "hierarchy_summary.json there")
    p_grid.set_defaults(func=_cmd_grid)

    p_rep = sub.add_parser("report", help="compare two benchmark CSVs")
    p_rep.add_argument("csv", nargs=2, help="two result CSVs; ratios are first / second")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
