"""Benchmark harness: config, grid generator, runners, reports, CLI, perfbench tracer."""

import csv
import importlib.util
import json
import pathlib
import subprocess
import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import topomg.bench as bench
from topomg.bench import (CONFIG_SCHEMA, CSV_HEADER, PROBLEMS, BenchConfig, GridSpec,
                          compare_report, cantilever2d_problem, cantilever3d_problem,
                          column_problem, format_report, generate_grid_structure,
                          run_benchmark, run_grid_point)
from topomg.cli import build_parser, main
from topomg.material import PenaltySchedule
from topomg.mesh import build_filter
from topomg.multigrid import SMOOTHER_KINDS
from topomg.optimization import (STRATEGIES, OptimizationProblem, SolverHarness,
                                 run_optimization)

SMALL_RUN = {
    "problem": "cantilever2d",
    "resolution": [12, 6],
    "schedule": {"start": 1.0, "stop": 1.5, "increment": 0.5,
                 "steps_per_value": 2},
    "preconditioner": {"strategy": "amg", "coarse_max_dofs": 50},
    "seed": 7,
}


# ---------------------------------------------------------------------------
# grid structure generator
# ---------------------------------------------------------------------------

def test_grid_fully_solid_when_pitch_equals_width():
    rho = generate_grid_structure(GridSpec(domain=16, feature_width=4,
                                           column_pitch=4, beam_pitch=4))
    assert np.all(rho == 1.0)


def test_grid_strip_count_520_256():
    spec = GridSpec(domain=520, feature_width=8, column_pitch=256, beam_pitch=256)
    rho = generate_grid_structure(spec).reshape(520, 520, order="F")
    # column (vertical strip) x-extents: starts 0, 256, plus flush strip at 512
    def strip_starts(mask):
        padded = np.concatenate([[False], mask])
        return np.flatnonzero(padded[1:] & ~padded[:-1])

    col_mask = rho[:, 300] == 1.0  # a row away from any beam
    assert strip_starts(col_mask).tolist() == [0, 256, 512]
    beam_mask = rho[300, :] == 1.0
    assert strip_starts(beam_mask).tolist() == [0, 256, 512]


def test_grid_anisotropic_spacing_density():
    dense_cols = generate_grid_structure(
        GridSpec(domain=264, feature_width=4, column_pitch=8, beam_pitch=128))
    sparse_cols = generate_grid_structure(
        GridSpec(domain=264, feature_width=4, column_pitch=128, beam_pitch=128))
    assert dense_cols.mean() > sparse_cols.mean()
    void = np.min(sparse_cols)
    assert void == pytest.approx(1e-10)


def test_grid_width_exceeding_pitch_rejected():
    with pytest.raises(ValueError):
        GridSpec(domain=64, feature_width=8, column_pitch=4, beam_pitch=16)


def test_grid_width_exceeding_domain_rejected():
    with pytest.raises(ValueError):
        GridSpec(domain=4, feature_width=8, column_pitch=8, beam_pitch=8)


# ---------------------------------------------------------------------------
# problem builders
# ---------------------------------------------------------------------------

def test_problem_loads_normalized():
    for builder, dims in ((cantilever2d_problem, (16, 8)),
                          (column_problem, (8, 32)),
                          (cantilever3d_problem, (8, 4, 4))):
        mesh, bc = builder(dims)
        assert np.abs(bc.load_vector).sum() == pytest.approx(1.0)
        assert bc.fixed_dofs.size > 0


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_config_schema_validation_rejects_bad_problem():
    with pytest.raises(Exception):
        BenchConfig.from_dict({"problem": "nonsense"})


def test_config_grid_forbids_schedule():
    with pytest.raises(ValueError):
        BenchConfig.from_dict({"problem": "grid_diagnostic",
                               "schedule": {"stop": 2.0}})


def test_config_defaults():
    cfg = BenchConfig.from_dict({"problem": "cantilever2d"})
    with pytest.raises(FrozenInstanceError):
        cfg.output_dir = "elsewhere"
    assert cfg.resolution == (96, 48)
    assert cfg.volume_fraction == 0.4
    assert cfg.solver.rtol == 1e-7
    cfg3 = BenchConfig.from_dict({"problem": "cantilever3d"})
    assert cfg3.volume_fraction == 0.12
    colcfg = BenchConfig.from_dict({"problem": "column_stability"})
    assert colcfg.solver.rtol == 1e-8


def test_config_vocabularies_come_from_the_library():
    props = CONFIG_SCHEMA["properties"]
    pre = props["preconditioner"]["properties"]
    assert props["problem"]["enum"] == list(PROBLEMS)
    assert pre["strategy"]["enum"] == list(STRATEGIES)
    assert pre["smoother"]["properties"]["kind"]["enum"] == list(SMOOTHER_KINDS)
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    strategy = next(a for a in sub.choices["grid"]._actions if a.dest == "strategy")
    assert list(strategy.choices) == list(STRATEGIES)


def test_config_seed_env_override(monkeypatch):
    monkeypatch.setenv("TOPOMG_SEED", "123")
    cfg = BenchConfig.from_dict({"problem": "cantilever2d", "seed": 5})
    assert cfg.seed == 123


# ---------------------------------------------------------------------------
# run_benchmark
# ---------------------------------------------------------------------------

def run_small(tmp_path, name):
    raw = dict(SMALL_RUN)
    raw["output_dir"] = str(tmp_path / name)
    cfg = BenchConfig.from_dict(raw)
    code, written = run_benchmark(cfg)
    assert code == 0
    return cfg, written


def test_run_benchmark_outputs(tmp_path):
    cfg, written = run_small(tmp_path, "a")
    out = tmp_path / "a"
    with open(out / "iterations.csv") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 4  # two penalty values, two steps each
    # compliance rows leave the eigen/adjoint columns empty
    row = lines[1].split(",")
    assert row[8] == "" and row[9] == ""
    assert row[-1] == "isolated_nodes"  # hierarchy flags, ';'-joined
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["problem"] == "cantilever2d"
    rho = np.fromfile(out / "density.bin")
    assert rho.size == 72
    vtk = (out / "density.vtk").read_text()
    assert "STRUCTURED_POINTS" in vtk and "CELL_DATA 72" in vtk
    summary = json.loads((out / "hierarchy_summary.json").read_text())
    assert all(set(d) == {"size", "nonzeros", "provenance"} for d in summary)


def test_run_benchmark_deterministic(tmp_path):
    run_small(tmp_path, "r1")
    run_small(tmp_path, "r2")

    def strip_timing(path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        drop = {"setup_s", "solve_s", "eig_s", "adjoint_s"}
        return [{k: v for k, v in r.items() if k not in drop} for r in rows]

    assert strip_timing(tmp_path / "r1" / "iterations.csv") == \
        strip_timing(tmp_path / "r2" / "iterations.csv")


def test_grid_point_runs(tmp_path):
    cfg = BenchConfig.from_dict({
        "problem": "grid_diagnostic",
        "grid": {"domain": 40, "feature_width": 4, "pitches": [8, 16]},
        "preconditioner": {"strategy": "amg", "coarse_max_dofs": 120},
        "output_dir": str(tmp_path / "g"),
    })
    res = run_grid_point(cfg, 8, 16)
    assert res["converged"]
    assert res["iterations"] > 0


def test_grid_diagnostic_csv(tmp_path):
    cfg = BenchConfig.from_dict({
        "problem": "grid_diagnostic",
        "grid": {"domain": 24, "feature_width": 4, "pitches": [8, 12]},
        "preconditioner": {"strategy": "amg", "coarse_max_dofs": 100},
        "output_dir": str(tmp_path / "gd"),
    })
    code, written = run_benchmark(cfg)
    assert code == 0
    with open(tmp_path / "gd" / "grid_results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert set(rows[0]) == {"pitch_x", "pitch_y", "strategy", "iterations",
                            "setup_s", "solve_s", "converged", "flags"}
    assert all(r["converged"] == "True" for r in rows)
    # the Dirichlet rows are isolated nodes of the AMG strength graph
    assert all("isolated_nodes" in r["flags"].split(";") for r in rows)


# ---------------------------------------------------------------------------
# compare_report
# ---------------------------------------------------------------------------

def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_compare_report_identical_inputs(tmp_path):
    rows = [{"pitch_x": 8, "pitch_y": 8, "strategy": "gmg", "iterations": 50,
             "setup_s": 1.0, "solve_s": 2.0}]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(p1, rows)
    write_csv(p2, rows)
    rep = compare_report([str(p1), str(p2)])
    assert all(r["iteration_ratio"] == pytest.approx(1.0) for r in rep["rows"])
    assert all(r["time_ratio"] == pytest.approx(1.0) for r in rep["rows"])


def test_compare_report_synthetic_ratio(tmp_path):
    base = {"pitch_x": 8, "pitch_y": 8, "setup_s": 1.0, "solve_s": 1.0}
    p1 = tmp_path / "gmg.csv"
    p2 = tmp_path / "amg.csv"
    write_csv(p1, [dict(base, strategy="gmg", iterations=300)])
    write_csv(p2, [dict(base, strategy="amg", iterations=100)])
    rep = compare_report([str(p1), str(p2)])
    assert rep["rows"][0]["iteration_ratio"] == pytest.approx(3.0)
    assert "gmg" in format_report(rep)


def test_compare_report_rows_in_numeric_key_order(tmp_path):
    write_csv(tmp_path / "grid.csv", [
        {"pitch_x": px, "pitch_y": 8, "strategy": "gmg", "iterations": 10,
         "setup_s": 0.1, "solve_s": 0.1} for px in (128, 16, 8)])
    write_csv(tmp_path / "steps.csv", [
        {"step": k, "strategy": "amg", "solve_iters": 10, "setup_s": 0.1,
         "solve_s": 0.1} for k in (10, 2, 1)])

    def keys(name):
        return [r["key"] for r in compare_report([str(tmp_path / name)] * 2)["rows"]]

    assert keys("grid.csv") == [("8", "8"), ("16", "8"), ("128", "8")]
    assert keys("steps.csv") == [("1",), ("2",), ("10",)]


def test_compare_report_takes_exactly_two_csvs(tmp_path):
    p = tmp_path / "a.csv"
    write_csv(p, [{"step": 0, "strategy": "amg", "solve_iters": 10,
                   "setup_s": 0.1, "solve_s": 0.1}])
    for paths in ([str(p)], [str(p)] * 3):
        with pytest.raises(ValueError, match="two"):
            compare_report(paths)


def test_compare_report_schema_mismatch(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(p1, [{"pitch_x": 1, "pitch_y": 1, "strategy": "gmg",
                    "iterations": 10, "setup_s": 0.1, "solve_s": 0.1}])
    write_csv(p2, [{"step": 0, "strategy": "amg", "solve_iters": 10,
                    "setup_s": 0.1, "solve_s": 0.1}])
    with pytest.raises(ValueError):
        compare_report([str(p1), str(p2)])
    # CSVs the report cannot read: without the key, iteration or time
    # columns, empty, or with a short row (a KeyError and TypeErrors before),
    # or repeating a key (a repeated step was compared with itself)
    step = {"step": 1, "strategy": "amg", "solve_iters": 10, "setup_s": 0.1,
            "solve_s": 0.1}
    write_csv(p2, [step])
    for rows, match in (
            ([{"strategy": "amg", "solve_iters": 10, "setup_s": 0.1}],
             "a.csv lacks the column.*step, solve_s"),
            ([{k: v for k, v in step.items() if k != "solve_iters"}],
             "a.csv lacks the column.*solve_iters"),
            ("", "a.csv lacks the column.*step, strategy, solve_iters"),
            ("step,strategy,solve_iters,setup_s,solve_s\n0,amg,10,0.1,0.1\n1,amg,10\n",
             "a.csv line 3 has fewer values than columns"),
            ([dict(step, step=0), dict(step, step=0, solve_iters=30)],
             "a.csv repeats the row step=0")):
        if isinstance(rows, str):
            p1.write_text(rows)
        else:
            write_csv(p1, rows)
        with pytest.raises(ValueError, match=match):
            compare_report([str(p1), str(p2)])
    out = cli("report", str(p1), str(p2))
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "repeats the row" in out.stderr


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def cli(*args, **kw):
    return subprocess.run([sys.executable, "-m", "topomg.cli", *args],
                          capture_output=True, text=True, **kw)


def test_cli_print_schema():
    out = cli("run", "--print-schema")
    assert out.returncode == 0
    schema = json.loads(out.stdout)
    assert schema["properties"]["problem"]["enum"]


def test_cli_missing_config_exit_1():
    assert cli("run").returncode == 1
    assert cli("run", "/nonexistent/cfg.json").returncode == 1


def test_cli_invalid_config_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"problem": "bogus"}')
    assert cli("run", str(bad)).returncode == 1


def test_cli_solver_method_rejected_exit_1(tmp_path):
    # the Krylov method follows the smoother; a config cannot choose it
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": "cantilever2d", "solver": {"method": "fgmres"}}))
    out = cli("run", str(bad))
    assert out.returncode == 1
    assert "invalid configuration" in out.stderr


# small runs, so that a typo the schema let through would finish quickly
@pytest.mark.parametrize("raw", [
    {**SMALL_RUN, "preconditoner": {"strategy": "gmg"}},
    {**SMALL_RUN, "preconditioner": {"strategy": "hybrid", "ngeo": 1}},
    {"problem": "grid_diagnostic", "grid": {"domain": 24, "pitch": [8]}},
])
def test_cli_misspelled_key_exit_1(tmp_path, raw):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**raw, "output_dir": str(tmp_path / "out")}))
    out = cli("run", str(bad))
    assert out.returncode == 1
    assert "invalid configuration" in out.stderr


# each failed at run time, with exit code 2, after manifest.json was written
@pytest.mark.parametrize("raw", [
    {"problem": "cantilever3d", "resolution": [8, 4]},
    {**SMALL_RUN, "resolution": [12, 6, 3]},
    {"problem": "grid_diagnostic", "resolution": [16, 16],
     "grid": {"domain": 16, "feature_width": 2, "pitches": [4]}},
    {**SMALL_RUN, "schedule": {"stop": 1.0, "steps_per_value": 0}},
    {**SMALL_RUN, "schedule": {"stop": 1.0, "steps_per_value": 1,
                               "stop2": 1.5, "steps2": 0}},
    # a second leg of increment 0 divided by zero after manifest.json was written
    {**SMALL_RUN, "schedule": {"stop": 1.5, "increment": 0.5, "steps_per_value": 1,
                               "stop2": 2.0, "increment2": 0}},
    {"problem": "grid_diagnostic", "grid": {"domain": 16, "feature_width": 4,
                                            "pitches": [8, 2]}},
    # Davidson with n_modes=0: the first never stopped, the second divided by 0
    {**SMALL_RUN, "problem": "column_stability", "resolution": [4, 16],
     "eigen": {"j_min": 0, "n_modes": 0}},
    {**SMALL_RUN, "problem": "column_stability", "resolution": [4, 16],
     "eigen": {"n_modes": 0}},
    # iteration caps of 0: every solve failed
    {**SMALL_RUN, "solver": {"max_iterations": 0}},
    {**SMALL_RUN, "problem": "column_stability", "resolution": [4, 16],
     "eigen": {"max_iterations": 0}},
    # a second leg without stop2 was dropped without a word
    {**SMALL_RUN, "schedule": {"stop": 1.5, "increment": 0.5, "steps_per_value": 1,
                               "increment2": 0.25, "steps2": 3}},
    # integers written as floats passed JSON Schema's "integer" and failed later
    {**SMALL_RUN, "schedule": {"stop": 1.0, "steps_per_value": 2.0}},
    {**SMALL_RUN, "resolution": [12.0, 6.0]},
    {"problem": "grid_diagnostic", "grid": {"domain": 24, "feature_width": 4,
                                            "pitches": [8.0]}},
    {**SMALL_RUN, "solver": {"max_iterations": 50.0}},
])
def test_cli_config_error_exit_1_before_any_output(tmp_path, raw):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**raw, "output_dir": str(tmp_path / "out")}))
    out = cli("run", str(bad))
    assert out.returncode == 1
    assert "invalid configuration" in out.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ("grid",),
    ("grid", "--pitch-x", "8"),
    ("report",),
    ("report", "a.csv", "b.csv", "c.csv"),
    ("bogus",),
])
def test_cli_usage_error_exit_1(args):
    out = cli(*args)
    assert out.returncode == 1
    assert "usage:" in out.stderr


@pytest.mark.parametrize("pitches", [[], [0]])
def test_cli_grid_pitches_empty_or_zero_exit_1(tmp_path, pitches):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": "grid_diagnostic",
                               "grid": {"domain": 16, "feature_width": 2,
                                        "pitches": pitches},
                               "output_dir": str(tmp_path / "out")}))
    out = cli("run", str(bad))
    assert out.returncode == 1
    assert "invalid configuration" in out.stderr


def test_cli_grid_diagnostic_without_preconditioner_writes_no_summary(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "grid_diagnostic",
                               "preconditioner": {"strategy": "none"},
                               "grid": {"domain": 16, "feature_width": 2,
                                        "pitches": [4]},
                               "output_dir": str(tmp_path / "out")}))
    out = cli("run", str(cfg))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "out" / "grid_results.csv").exists()
    assert not (tmp_path / "out" / "hierarchy_summary.json").exists()


def test_cli_run_failure_exit_2_on_stderr(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_RUN, "solver": {"max_iterations": 1},
                               "output_dir": str(tmp_path / "out")}))
    out = cli("run", str(cfg))
    assert out.returncode == 2
    assert "benchmark failed: displacement solve failed" in out.stderr
    assert "benchmark failed" not in out.stdout


def test_cli_run_on_a_pencil_smaller_than_the_davidson_space_exit_2(tmp_path):
    # 8 dofs cannot hold the default 6 + 25 + 1 Davidson basis vectors
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "column_stability", "resolution": [1, 1],
                               "schedule": {"stop": 1.0, "steps_per_value": 1},
                               "output_dir": str(tmp_path / "out")}))
    out = cli("run", str(cfg), timeout=60)
    assert out.returncode == 2
    assert "benchmark failed: a pencil of 8 dofs" in out.stderr
    assert "eigen.j_max" in out.stderr


def test_cli_run_failure_prints_its_traceback(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_RUN, "solver": {"max_iterations": 1},
                               "output_dir": str(tmp_path / "out")}))
    out = cli("run", str(cfg))
    assert out.returncode == 2
    # after the one-line message, the traceback down to the raising function
    message, traceback = out.stderr.split("\n", 1)
    assert message.startswith("benchmark failed: displacement solve failed")
    assert traceback.startswith("Traceback (most recent call last)")
    assert "in _check_converged" in traceback


def test_cli_grid_failure_prints_its_traceback(monkeypatch, capsys):
    def broken_lattice(spec):
        raise RuntimeError("no lattice")

    monkeypatch.setattr(bench, "generate_grid_structure", broken_lattice)
    code = main(["grid", "--pitch-x", "8", "--pitch-y", "8", "--domain", "24",
                 "--width", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("grid solve failed: no lattice\nTraceback")
    assert "in broken_lattice" in err


def test_cli_run_and_report(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    raw = dict(SMALL_RUN)
    raw["output_dir"] = str(tmp_path / "out")
    cfg_path.write_text(json.dumps(raw))
    out = cli("run", str(cfg_path))
    assert out.returncode == 0, out.stderr
    rep = cli("report", str(tmp_path / "out" / "iterations.csv"),
              str(tmp_path / "out" / "iterations.csv"))
    assert rep.returncode == 0
    assert "iter_ratio" in rep.stdout


def test_cli_run_output_overrides_the_configs_output_dir(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SMALL_RUN, "output_dir": str(tmp_path / "a")}))
    out = cli("run", str(cfg_path), "--output", str(tmp_path / "b"))
    assert out.returncode == 0, out.stderr
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["output_dir"] == str(tmp_path / "b")
    assert not (tmp_path / "a").exists()


def test_cli_grid(tmp_path):
    out = cli("grid", "--pitch-x", "8", "--pitch-y", "8", "--domain", "24",
              "--width", "4", "--strategy", "amg",
              "--output", str(tmp_path / "g"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("pitch_x,pitch_y,strategy")


def test_cli_grid_bad_width_exit_1(tmp_path):
    out = cli("grid", "--pitch-x", "4", "--pitch-y", "8", "--domain", "24",
              "--width", "8", "--output", str(tmp_path / "g"))
    assert out.returncode == 1


def test_cli_grid_output_writes_what_run_writes(tmp_path):
    out = cli("grid", "--pitch-x", "8", "--pitch-y", "8", "--domain", "24",
              "--width", "4", "--output", str(tmp_path / "g"))
    assert out.returncode == 0, out.stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "grid_diagnostic",
                               "grid": {"domain": 24, "feature_width": 4, "pitches": [8]},
                               "output_dir": str(tmp_path / "r")}))
    assert cli("run", str(cfg)).returncode == 0
    # the files hold what the command printed
    assert (tmp_path / "g" / "grid_results.csv").read_text() == out.stdout

    def untimed(name):
        with open(tmp_path / name / "grid_results.csv") as fh:
            return [{k: v for k, v in r.items() if k not in ("setup_s", "solve_s")}
                    for r in csv.DictReader(fh)]

    def summary(name):
        return json.loads((tmp_path / name / "hierarchy_summary.json").read_text())

    assert untimed("g") == untimed("r")
    assert summary("g") == summary("r")
    assert sorted(p.name for p in (tmp_path / "g").iterdir()) == [
        "grid_results.csv", "hierarchy_summary.json"]


# ---------------------------------------------------------------------------
# perfbench's span tracer
# ---------------------------------------------------------------------------

def test_tracer_reports_every_per_layer_metric_of_a_pure_amg_run():
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  root / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    m, bc = cantilever2d_problem((16, 8))
    problem = OptimizationProblem(
        mesh=m, bc=bc, filt=build_filter(m, 1.5), volume_fraction=0.4,
        schedule=PenaltySchedule(stop=1.5, increment=0.5, steps_per_value=1),
        harness=SolverHarness(mesh=m, coarse_max_dofs=50, fixed_dofs=bc.fixed_dofs))
    tracer = spans.Tracer()
    with tracer:
        assert len(run_optimization(problem)[0]) == 2
    metrics = spans.layer_metrics(tracer.spans, 0, 1)
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    # perfbench/run.py adds the trace.* metrics itself
    assert set(metrics) == {d["name"] for d in declared} - {"trace.wall_s",
                                                             "trace.overhead_pct"}
    # both steps build in the traced builders, the second from the aggregates
    assert metrics["multigrid.setup_calls"][0] == 2


def test_committed_bench_records_name_only_declared_workloads_and_metrics():
    root = pathlib.Path(__file__).resolve().parents[1]
    declared = json.loads((root / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"] + declared["per_layer"]}
    records = sorted(root.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert record["sets"], path.name
        for run_set in record["sets"]:
            assert run_set["workloads"] and set(run_set["workloads"]) <= workloads, path.name
            for per_metric in run_set["workloads"].values():
                assert per_metric and set(per_metric) <= metrics, path.name
                for m in per_metric.values():
                    assert 0 <= m["wins"] <= m["pairs"]
                    for side in ("parent", "change"):
                        assert m[side]["q1"] <= m[side]["median"] <= m[side]["q3"]
