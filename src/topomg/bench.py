"""Benchmark harness: problem definitions, grid-structure generator, runners.

Reproduces the four experiment families at desk scale: 2D cantilever
compliance, 2D column stability, the varying-spaced grid diagnostic, and the
3D cantilever, each with a configurable multigrid preconditioner strategy.
"""

import csv
import json
import os
import sys
import traceback
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import krylov
from .eigensolver import DavidsonConfig
from .material import PenaltySchedule
from .mesh import BoundaryConditions, assemble_stiffness, build_filter, build_mesh
from .multigrid import SMOOTHER_KINDS, SmootherConfig
from .optimization import (STRATEGIES, OptimizationProblem, SolverHarness,
                           run_optimization)

CSV_HEADER = ("step,penalty,strategy,levels,n_geo,setup_s,solve_s,solve_iters,"
              "eig_s,eig_iters,adjoint_s,adjoint_iters,objective,volume,flags")

GRID_CSV_HEADER = "pitch_x,pitch_y,strategy,iterations,setup_s,solve_s,converged,flags"

VOID_DENSITY = 1e-10

# ---------------------------------------------------------------------------
# problem setups
# ---------------------------------------------------------------------------

def _supported_problem(mesh, fixed_nodes, load_nodes, load_dof):
    """Fix every dof of `fixed_nodes`; spread a unit load along -`load_dof` over
    the line of `load_nodes` with trapezoid weights (one node carries it all)."""
    dpn = mesh.dofs_per_node
    fixed = (np.ravel(fixed_nodes)[:, None] * dpn + np.arange(dpn)).ravel()
    w = np.ones(np.size(load_nodes))
    w[[0, -1]] = 0.5
    f = np.zeros(mesh.total_dofs)
    f[dpn * np.asarray(load_nodes) + load_dof] = -w / w.sum()
    return mesh, BoundaryConditions(fixed, f)


def cantilever2d_problem(dims):
    """2:1 cantilever: left edge fixed, unit point load at mid right edge."""
    nx, ny = dims
    mesh = build_mesh((nx, ny), (1.0 / ny, 1.0 / ny))
    return _supported_problem(mesh, mesh.node_index(0, np.arange(ny + 1)),
                              [mesh.node_index(nx, ny // 2)], 1)


def column_problem(dims):
    """4:1 column: bottom edge fully fixed, uniform compressive load on top."""
    nx, ny = dims
    mesh = build_mesh((nx, ny), (1.0 / nx, 1.0 / nx))
    edge = np.arange(nx + 1)
    return _supported_problem(mesh, mesh.node_index(edge, 0),
                              mesh.node_index(edge, ny), 1)


def grid_problem(domain):
    """Unit square: bottom edge fully fixed, uniform distributed load on top."""
    return column_problem((domain, domain))


def cantilever3d_problem(dims):
    """2:1:1 cantilever: x=0 face fixed, downward load on bottom edge of far face."""
    nx, ny, nz = dims
    mesh = build_mesh((nx, ny, nz), (1.0 / ny, 1.0 / ny, 1.0 / ny))
    j, k = np.meshgrid(np.arange(ny + 1), np.arange(nz + 1))
    return _supported_problem(mesh, mesh.node_index(0, j, k),
                              mesh.node_index(nx, np.arange(ny + 1), 0), 2)


# builder, default resolution (empty for the grid diagnostic, which grid.domain
# sizes), volume fraction, GMRES rtol, and what a run does: a 'compliance' or
# 'stability' optimization, or 'grid' lattice solves
ProblemSpec = namedtuple("ProblemSpec", "builder resolution volume_fraction rtol mode")
PROBLEMS = {
    "cantilever2d": ProblemSpec(cantilever2d_problem, (96, 48), 0.4, 1e-7, "compliance"),
    "column_stability": ProblemSpec(column_problem, (64, 256), 0.4, 1e-8, "stability"),
    "grid_diagnostic": ProblemSpec(grid_problem, (), 0.4, 1e-8, "grid"),
    "cantilever3d": ProblemSpec(cantilever3d_problem, (48, 24, 24), 0.12, 1e-7,
                                "compliance"),
}


# every object is closed, so a misspelled key fails validation
CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["problem"],
    "properties": {
        "problem": {"enum": list(PROBLEMS)},
        "resolution": {"type": "array", "items": {"type": "integer", "minimum": 1},
                       "minItems": 2, "maxItems": 3},
        "volume_fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "start": {"type": "number"}, "stop": {"type": "number"},
                "increment": {"type": "number"}, "steps_per_value": {"type": "integer"},
                "stop2": {"type": "number"}, "increment2": {"type": "number"},
                "steps2": {"type": "integer"},
            },
        },
        "preconditioner": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "strategy": {"enum": list(STRATEGIES)},
                "coarse_max_dofs": {"type": "integer", "minimum": 1},
                "n_geo": {"type": "integer", "minimum": 0},
                "smoother": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": list(SMOOTHER_KINDS)},
                        "weight": {"type": "number"},
                        "inner_iterations": {"type": "integer"},
                    },
                },
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rtol": {"type": "number"},
                "max_iterations": {"type": "integer"},
                "restart": {"type": "integer"},
            },
        },
        "eigen": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "j_min": {"type": "integer"}, "j_max": {"type": "integer"},
                "n_modes": {"type": "integer"},
                "rtol_residual": {"type": "number"},
                "max_iterations": {"type": "integer"},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "domain": {"type": "integer", "minimum": 2},
                "feature_width": {"type": "integer", "minimum": 1},
                "pitches": {"type": "array", "minItems": 1,
                            "items": {"type": "integer", "minimum": 1}},
            },
        },
        "seed": {"type": "integer"},
        "output_dir": {"type": "string"},
    },
}


# ---------------------------------------------------------------------------
# varying-spaced grid structure generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    domain: int
    feature_width: int
    column_pitch: int
    beam_pitch: int

    def __post_init__(self):
        if self.feature_width > min(self.column_pitch, self.beam_pitch):
            raise ValueError("feature_width must not exceed the pitches")
        if self.feature_width > self.domain:
            raise ValueError("feature_width must not exceed the domain")


def _strip_starts(domain, width, pitch):
    starts = list(range(0, domain - width + 1, pitch))
    if starts[-1] != domain - width:  # flush strip at the far edge
        starts.append(domain - width)
    return starts


def generate_grid_structure(spec):
    """Element densities for the beam/column lattice: 1 on features, void elsewhere.

    Columns are vertical strips with period column_pitch starting at x=0; beams
    are horizontal strips with period beam_pitch starting at y=0; a flush strip
    is added at the far edge when the period does not land there.
    """
    n = spec.domain
    w = spec.feature_width
    solid = np.zeros((n, n), dtype=bool)  # indexed [ix, iy]
    for s in _strip_starts(n, w, spec.column_pitch):
        solid[s:s + w, :] = True
    for s in _strip_starts(n, w, spec.beam_pitch):
        solid[:, s:s + w] = True
    rho = np.where(solid, 1.0, VOID_DENSITY)
    return rho.ravel(order="F")  # element index e = ix + iy*n


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# a grid diagnostic's lattice: domain and feature width in elements, and the
# column and beam pitches, every pair of which is solved
GRID_DEFAULTS = {"domain": 264, "feature_width": 4, "pitches": (8, 16, 32, 64, 128)}


@dataclass(frozen=True)
class BenchConfig:
    problem: str
    resolution: tuple | None = None
    volume_fraction: float | None = None
    schedule: PenaltySchedule = field(default_factory=PenaltySchedule)
    strategy: str = SolverHarness.strategy
    coarse_max_dofs: int = SolverHarness.coarse_max_dofs
    n_geo: int = SolverHarness.n_geo
    smoother: SmootherConfig = field(default_factory=SmootherConfig)
    solver: krylov.SolveConfig | None = None
    eigen: DavidsonConfig = field(default_factory=DavidsonConfig)
    grid: dict | None = None
    seed: int = SolverHarness.seed
    output_dir: str = "topomg_out"

    @classmethod
    def from_dict(cls, raw):
        """The config of a schema-valid dict. A key that is not given takes the
        default of its problem's PROBLEMS row, of GRID_DEFAULTS or of the field;
        inputs that do not fit the problem raise ValueError."""
        # imported here: at module level it would add ~4 MB to every importer of topomg
        from jsonschema import Draft202012Validator, validators

        # JSON Schema's "integer" admits 2.0; a config's integers must be ints
        checker = Draft202012Validator.TYPE_CHECKER.redefine(
            "integer", lambda _, value: isinstance(value, int) and not isinstance(value, bool))
        validators.extend(Draft202012Validator, type_checker=checker)(CONFIG_SCHEMA).validate(raw)
        spec = PROBLEMS[raw["problem"]]
        resolution = tuple(raw.get("resolution", spec.resolution))
        if len(resolution) != len(spec.resolution):
            raise ValueError("%s takes a resolution of %d values, not %r"
                             % (raw["problem"], len(spec.resolution), list(resolution)))
        pre = raw.get("preconditioner", {})
        given = {k: pre[k] for k in ("strategy", "coarse_max_dofs", "n_geo") if k in pre}
        if "output_dir" in raw:
            given["output_dir"] = raw["output_dir"]
        seed = os.environ.get("TOPOMG_SEED", raw.get("seed"))
        if seed is not None:
            given["seed"] = int(seed)
        if spec.mode == "grid":
            if "schedule" in raw:
                raise ValueError("grid_diagnostic performs single solves; "
                                 "a penalty schedule is not allowed")
            grid = given["grid"] = {**GRID_DEFAULTS, **raw.get("grid", {})}
            grid["pitches"] = tuple(grid["pitches"])
            smallest = min(grid["pitches"])
            GridSpec(grid["domain"], grid["feature_width"], smallest, smallest)
        return cls(problem=raw["problem"], resolution=resolution,
                   volume_fraction=raw.get("volume_fraction", spec.volume_fraction),
                   schedule=PenaltySchedule(**raw.get("schedule", {})),
                   smoother=SmootherConfig(**pre.get("smoother", {})),
                   solver=krylov.SolveConfig(**{"rtol": spec.rtol, **raw.get("solver", {})}),
                   eigen=DavidsonConfig(**raw.get("eigen", {})), **given)

    def resolved(self):
        """JSON-serializable echo of the full configuration (the run manifest)."""
        out = {
            "problem": self.problem,
            "resolution": list(self.resolution or ()),
            "volume_fraction": self.volume_fraction,
            "schedule": (vars(self.schedule).copy()
                         if PROBLEMS[self.problem].mode != "grid" else None),
            "preconditioner": {
                "strategy": self.strategy,
                "coarse_max_dofs": self.coarse_max_dofs,
                "n_geo": self.n_geo,
                "smoother": vars(self.smoother).copy(),
            },
            "solver": vars(self.solver).copy() if self.solver else None,
            "eigen": vars(self.eigen).copy(),
            "grid": self.grid,
            "seed": self.seed,
            "output_dir": self.output_dir,
        }
        return out


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def write_density_outputs(outdir, dims, rho):
    """Raw float64 dump plus a legacy-VTK structured-points file."""
    rho = np.asarray(rho, dtype=np.float64)
    rho.tofile(os.path.join(outdir, "density.bin"))
    dims3 = tuple(dims) + (1,) * (3 - len(dims))
    with open(os.path.join(outdir, "density.vtk"), "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("element densities\nASCII\nDATASET STRUCTURED_POINTS\n")
        fh.write("DIMENSIONS %d %d %d\n" % tuple(d + 1 for d in dims3))
        fh.write("ORIGIN 0 0 0\nSPACING 1 1 1\n")
        fh.write("CELL_DATA %d\n" % rho.size)
        fh.write("SCALARS density double 1\nLOOKUP_TABLE default\n")
        np.savetxt(fh, rho, fmt="%.8e")


def _fmt(v):
    if v == "" or v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def grid_csv_row(result):
    """The GRID_CSV_HEADER line of one `run_grid_point` result; flags are the
    hierarchy's, joined by ';'."""
    return "%d,%d,%s,%d,%.6f,%.6f,%s,%s" % (
        result["pitch_x"], result["pitch_y"], result["strategy"],
        result["iterations"], result["setup_s"], result["solve_s"],
        result["converged"], ";".join(result["hierarchy"].flags))


def write_iteration_csv(path, history):
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        writer = csv.writer(fh)
        for row in history:
            writer.writerow([_fmt(row[k]) for k in CSV_HEADER.split(",")])


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _make_harness(cfg, mesh, bc):
    return SolverHarness(mesh=mesh, strategy=cfg.strategy,
                         coarse_max_dofs=cfg.coarse_max_dofs, n_geo=cfg.n_geo,
                         smoother=cfg.smoother, solve_cfg=cfg.solver,
                         fixed_dofs=bc.fixed_dofs, seed=cfg.seed)


def run_grid_point(cfg, pitch_x, pitch_y, mesh=None, bc=None):
    """Assemble the lattice structure and solve once; returns a result dict."""
    domain = cfg.grid["domain"]
    width = cfg.grid["feature_width"]
    if mesh is None:
        mesh, bc = grid_problem(domain)
    spec = GridSpec(domain=domain, feature_width=width,
                    column_pitch=pitch_x, beam_pitch=pitch_y)
    rho = generate_grid_structure(spec)
    K = assemble_stiffness(mesh, bc, rho)
    harness = _make_harness(cfg, mesh, bc)
    x, rec, hierarchy = harness.solve(K, bc.load_vector, moduli=rho)
    return {
        "pitch_x": pitch_x, "pitch_y": pitch_y, "strategy": cfg.strategy,
        "iterations": rec.iterations, "setup_s": rec.setup_time,
        "solve_s": rec.solve_time, "converged": rec.converged,
        "hierarchy": hierarchy, "solution": x,
    }


def run_benchmark(cfg):
    """Execute one configured benchmark; writes CSV/manifest/density outputs.

    Returns (exit_code, written_paths).
    """
    os.makedirs(cfg.output_dir, exist_ok=True)
    written = []
    manifest_path = os.path.join(cfg.output_dir, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(cfg.resolved(), fh, indent=2, default=str)
    written.append(manifest_path)
    try:
        if PROBLEMS[cfg.problem].mode == "grid":
            written += _run_grid_diagnostic(cfg)
        else:
            written += _run_optimization_benchmark(cfg)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print("benchmark failed: %s" % exc, file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 2, written
    return 0, written


def _run_grid_diagnostic(cfg):
    mesh, bc = grid_problem(cfg.grid["domain"])
    rows = []
    for px in cfg.grid["pitches"]:
        for py in cfg.grid["pitches"]:
            # only the row and the summary are kept, so the next point is
            # solved without this one's hierarchy and solution
            res = run_grid_point(cfg, px, py, mesh, bc)
            rows.append(grid_csv_row(res))
            summary = res["hierarchy"].summary()
            del res
    return write_grid_results(cfg.output_dir, rows, summary)


def write_grid_results(output_dir, rows, summary):
    """Write grid_results.csv (the header, then the `grid_csv_row` lines
    `rows`) and the summary of the last point's hierarchy into output_dir,
    which is made if missing; returns the written paths."""
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, "grid_results.csv")
    with open(path, "w", newline="") as fh:
        fh.write(GRID_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    return [path] + _write_hierarchy_summary(output_dir, summary)


def _write_hierarchy_summary(output_dir, summary):
    """Write a hierarchy's `summary()` to hierarchy_summary.json; returns the
    written paths, none for an empty summary (strategy 'none', no levels)."""
    if not summary:
        return []
    path = os.path.join(output_dir, "hierarchy_summary.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
    return [path]


def _run_optimization_benchmark(cfg):
    spec = PROBLEMS[cfg.problem]
    mesh, bc = spec.builder(cfg.resolution)
    filt = build_filter(mesh, 1.5)
    harness = _make_harness(cfg, mesh, bc)
    problem = OptimizationProblem(mesh=mesh, bc=bc, filt=filt,
                                  schedule=cfg.schedule,
                                  volume_fraction=cfg.volume_fraction,
                                  harness=harness, mode=spec.mode, eig_cfg=cfg.eigen)
    last_summary = [[]]

    def keep_summary(step, state, aux):
        # the summary, not the hierarchy: the next step is built without it
        last_summary[0] = aux["hierarchy"].summary()

    history, state = run_optimization(problem, callback=keep_summary)
    csv_path = os.path.join(cfg.output_dir, "iterations.csv")
    write_iteration_csv(csv_path, history)
    write_density_outputs(cfg.output_dir, mesh.dims, state.rho)
    written = [csv_path,
               os.path.join(cfg.output_dir, "density.bin"),
               os.path.join(cfg.output_dir, "density.vtk")]
    return written + _write_hierarchy_summary(cfg.output_dir, last_summary[0])


# ---------------------------------------------------------------------------
# comparison report
# ---------------------------------------------------------------------------

def _report_table(path):
    """(header, key columns, iteration column, rows by key) of one result CSV.

    Raises ValueError if the file lacks a column the report reads, has a row
    shorter than its header or repeats a key.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = tuple(reader.fieldnames or ())
        if "pitch_x" in header:
            key_cols, iter_col = ("pitch_x", "pitch_y"), "iterations"
        else:
            key_cols, iter_col = ("step",), "solve_iters"
        missing = [c for c in key_cols + ("strategy", iter_col, "setup_s", "solve_s")
                   if c not in header]
        if missing:
            raise ValueError("%s lacks the column(s) %s" % (path, ", ".join(missing)))
        rows = {}
        for r in reader:
            if None in r.values():
                raise ValueError("%s line %d has fewer values than columns"
                                 % (path, reader.line_num))
            key = tuple(r[k] for k in key_cols)
            if key in rows:
                raise ValueError("%s repeats the row %s=%s"
                                 % (path, ",".join(key_cols), ",".join(key)))
            rows[key] = r
    return header, key_cols, iter_col, rows


def compare_report(csv_paths):
    """Ratio tables (first strategy / second strategy) for iterations and time.

    Accepts exactly two per-iteration CSVs or two grid-diagnostic CSVs of one
    schema, each with at most one row per key. Returns {'key_columns',
    'rows'} where each row carries a key of both files plus iteration and
    time ratios, in numeric order of the key.
    """
    if len(csv_paths) != 2:
        raise ValueError("compare_report takes two CSV files, not %d" % len(csv_paths))
    (header, key_cols, iter_col, first), (header_b, _, _, second) = map(
        _report_table, csv_paths)
    if header != header_b:
        raise ValueError("CSV schema mismatch across inputs")
    out_rows = []
    for key in sorted(first.keys() & second.keys(), key=lambda k: [float(v) for v in k]):
        a, b = first[key], second[key]
        t_a = float(a["setup_s"]) + float(a["solve_s"])
        t_b = float(b["setup_s"]) + float(b["solve_s"])
        out_rows.append({
            "key": key,
            "strategies": (a["strategy"], b["strategy"]),
            "iteration_ratio": float(a[iter_col]) / max(float(b[iter_col]), 1e-300),
            "time_ratio": t_a / max(t_b, 1e-300),
        })
    return {"key_columns": key_cols, "rows": out_rows}


def format_report(report):
    lines = ["%-20s %-18s %12s %12s" % (",".join(report["key_columns"]),
                                        "strategies", "iter_ratio", "time_ratio")]
    for r in report["rows"]:
        lines.append("%-20s %-18s %12.3f %12.3f" % (
            ",".join(str(k) for k in r["key"]), "/".join(r["strategies"]),
            r["iteration_ratio"], r["time_ratio"]))
    return "\n".join(lines)
