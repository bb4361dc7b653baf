"""Benchmark harness: config validation, grid generator, runners, reports, CLI."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from topomg.bench import (CSV_HEADER, BenchConfig, GridSpec, compare_report,
                          cantilever2d_problem, cantilever3d_problem,
                          column_problem, format_report, generate_grid_structure,
                          run_benchmark, run_grid_point)

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
    assert cfg.resolution == (96, 48)
    assert cfg.volume_fraction == 0.4
    assert cfg.solver.rtol == 1e-7
    cfg3 = BenchConfig.from_dict({"problem": "cantilever3d"})
    assert cfg3.volume_fraction == 0.12
    colcfg = BenchConfig.from_dict({"problem": "column_stability"})
    assert colcfg.solver.rtol == 1e-8


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


def test_compare_report_schema_mismatch(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(p1, [{"pitch_x": 1, "pitch_y": 1, "strategy": "gmg",
                    "iterations": 10, "setup_s": 0.1, "solve_s": 0.1}])
    write_csv(p2, [{"step": 0, "strategy": "amg", "solve_iters": 10,
                    "setup_s": 0.1, "solve_s": 0.1}])
    with pytest.raises(ValueError):
        compare_report([str(p1), str(p2)])


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
