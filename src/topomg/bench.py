"""Benchmark harness: problem definitions, grid-structure generator, runners.

Reproduces the four experiment families at desk scale: 2D cantilever
compliance, 2D column stability, the varying-spaced grid diagnostic, and the
3D cantilever, each with a configurable multigrid preconditioner strategy.
"""

import csv
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import krylov
from .eigensolver import DavidsonConfig
from .material import PenaltySchedule
from .mesh import BoundaryConditions, build_filter, build_mesh
from .multigrid import SmootherConfig
from .optimization import OptimizationProblem, SolverHarness, run_optimization

CSV_HEADER = ("step,penalty,strategy,levels,n_geo,setup_s,solve_s,solve_iters,"
              "eig_s,eig_iters,adjoint_s,adjoint_iters,objective,volume,flags")

GRID_CSV_HEADER = "pitch_x,pitch_y,strategy,iterations,setup_s,solve_s,converged,flags"

VOID_DENSITY = 1e-10

DEFAULT_RESOLUTIONS = {
    "cantilever2d": (96, 48),
    "column_stability": (64, 256),
    "cantilever3d": (48, 24, 24),
}

# every object is closed, so a misspelled key fails validation
CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["problem"],
    "properties": {
        "problem": {"enum": ["cantilever2d", "column_stability",
                             "grid_diagnostic", "cantilever3d"]},
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
                "strategy": {"enum": ["gmg", "amg", "hybrid", "hybrid_adaptive", "none"]},
                "coarse_max_dofs": {"type": "integer", "minimum": 1},
                "n_geo": {"type": "integer", "minimum": 0},
                "smoother": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["weighted_jacobi", "block_jacobi",
                                          "sor_chebyshev", "sor_gmres"]},
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
                "pitches": {"type": "array", "items": {"type": "integer"}},
            },
        },
        "seed": {"type": "integer"},
        "output_dir": {"type": "string"},
    },
}


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


PROBLEMS = {
    "cantilever2d": cantilever2d_problem,
    "column_stability": column_problem,
    "cantilever3d": cantilever3d_problem,
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

@dataclass
class BenchConfig:
    problem: str
    resolution: tuple | None = None
    volume_fraction: float | None = None
    schedule: PenaltySchedule = field(default_factory=PenaltySchedule)
    strategy: str = "amg"
    coarse_max_dofs: int = 200
    n_geo: int = 2
    smoother: SmootherConfig = field(default_factory=SmootherConfig)
    solver: krylov.SolveConfig | None = None
    eigen: DavidsonConfig = field(default_factory=DavidsonConfig)
    grid: GridSpec | None = None
    seed: int = 0
    output_dir: str = "topomg_out"

    @classmethod
    def from_dict(cls, raw):
        import jsonschema

        jsonschema.validate(raw, CONFIG_SCHEMA)
        problem = raw["problem"]
        resolution = tuple(raw.get("resolution") or
                           DEFAULT_RESOLUTIONS.get(problem, ()))
        if problem == "grid_diagnostic" and "schedule" in raw:
            raise ValueError("grid_diagnostic performs single solves; "
                             "a penalty schedule is not allowed")
        sched = PenaltySchedule(**raw.get("schedule", {}))
        pre = raw.get("preconditioner", {})
        smoother = SmootherConfig(**pre.get("smoother", {}))
        default_rtol = 1e-7 if "cantilever" in problem else 1e-8
        sol = raw.get("solver", {})
        solver = krylov.SolveConfig(**{"rtol": default_rtol, **sol})
        eigen = DavidsonConfig(**raw.get("eigen", {}))
        grid = None
        if problem == "grid_diagnostic":
            g = raw.get("grid", {})
            grid = {
                "domain": g.get("domain", 264),
                "feature_width": g.get("feature_width", 4),
                "pitches": tuple(g.get("pitches", (8, 16, 32, 64, 128))),
            }
        volfrac = raw.get("volume_fraction")
        if volfrac is None:
            volfrac = 0.12 if problem == "cantilever3d" else 0.4
        seed = int(os.environ.get("TOPOMG_SEED", raw.get("seed", 0)))
        return cls(problem=problem, resolution=resolution,
                   volume_fraction=volfrac, schedule=sched,
                   strategy=pre.get("strategy", "amg"),
                   coarse_max_dofs=pre.get("coarse_max_dofs", 200),
                   n_geo=pre.get("n_geo", 2), smoother=smoother, solver=solver,
                   eigen=eigen, grid=grid, seed=seed,
                   output_dir=raw.get("output_dir", "topomg_out"))

    def resolved(self):
        """JSON-serializable echo of the full configuration (the run manifest)."""
        out = {
            "problem": self.problem,
            "resolution": list(self.resolution or ()),
            "volume_fraction": self.volume_fraction,
            "schedule": vars(self.schedule).copy() if self.problem != "grid_diagnostic" else None,
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
    hierarchy = result["hierarchy"]
    flags = ";".join(hierarchy.flags) if hierarchy is not None else ""
    return "%d,%d,%s,%d,%.6f,%.6f,%s,%s" % (
        result["pitch_x"], result["pitch_y"], result["strategy"],
        result["iterations"], result["setup_s"], result["solve_s"],
        result["converged"], flags)


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
    from .mesh import assemble_stiffness

    K = assemble_stiffness(mesh, bc, rho)
    harness = _make_harness(cfg, mesh, bc)
    x, rec, hierarchy = harness.solve(K, bc.load_vector)
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
        if cfg.problem == "grid_diagnostic":
            written += _run_grid_diagnostic(cfg)
        else:
            written += _run_optimization_benchmark(cfg)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print("benchmark failed: %s" % exc)
        return 2, written
    return 0, written


def _run_grid_diagnostic(cfg):
    mesh, bc = grid_problem(cfg.grid["domain"])
    rows = []
    for px in cfg.grid["pitches"]:
        for py in cfg.grid["pitches"]:
            res = run_grid_point(cfg, px, py, mesh, bc)
            rows.append(res)
    path = os.path.join(cfg.output_dir, "grid_results.csv")
    with open(path, "w", newline="") as fh:
        fh.write(GRID_CSV_HEADER + "\n")
        for r in rows:
            fh.write(grid_csv_row(r) + "\n")
    return [path, _write_hierarchy_summary(cfg.output_dir, rows[-1]["hierarchy"])]


def _write_hierarchy_summary(output_dir, hierarchy):
    """Write hierarchy.summary() to hierarchy_summary.json; returns its path."""
    path = os.path.join(output_dir, "hierarchy_summary.json")
    with open(path, "w") as fh:
        json.dump(hierarchy.summary(), fh, indent=2)
    return path


def _run_optimization_benchmark(cfg):
    mesh, bc = PROBLEMS[cfg.problem](cfg.resolution)
    filt = build_filter(mesh, 1.5)
    harness = _make_harness(cfg, mesh, bc)
    mode = "stability" if cfg.problem == "column_stability" else "compliance"
    problem = OptimizationProblem(mesh=mesh, bc=bc, filt=filt,
                                  schedule=cfg.schedule,
                                  volume_fraction=cfg.volume_fraction,
                                  harness=harness, mode=mode, eig_cfg=cfg.eigen)
    last_hierarchy = []

    def keep_hierarchy(step, state, aux):
        last_hierarchy[:] = [aux["hierarchy"]]

    history, state = run_optimization(problem, callback=keep_hierarchy)
    csv_path = os.path.join(cfg.output_dir, "iterations.csv")
    write_iteration_csv(csv_path, history)
    write_density_outputs(cfg.output_dir, mesh.dims, state.rho)
    written = [csv_path,
               os.path.join(cfg.output_dir, "density.bin"),
               os.path.join(cfg.output_dir, "density.vtk")]
    if last_hierarchy and last_hierarchy[0] is not None:
        written.append(_write_hierarchy_summary(cfg.output_dir, last_hierarchy[0]))
    return written


# ---------------------------------------------------------------------------
# comparison report
# ---------------------------------------------------------------------------

def compare_report(csv_paths):
    """Ratio tables (first strategy / second strategy) for iterations and time.

    Accepts per-iteration CSVs or grid-diagnostic CSVs; all inputs must share a
    schema. Returns {'key_columns', 'rows'} where each row carries the key plus
    iteration and time ratios.
    """
    tables = []
    headers = []
    for path in csv_paths:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            headers.append(tuple(reader.fieldnames))
            tables.append(list(reader))
    if len(set(headers)) != 1:
        raise ValueError("CSV schema mismatch across inputs")
    header = headers[0]
    if "pitch_x" in header:
        key_cols = ("pitch_x", "pitch_y")
        iter_col, time_cols = "iterations", ("setup_s", "solve_s")
    else:
        key_cols = ("step",)
        iter_col, time_cols = "solve_iters", ("setup_s", "solve_s")
    merged = {}
    for rows in tables:
        for r in rows:
            key = tuple(r[k] for k in key_cols)
            merged.setdefault(key, []).append(r)
    out_rows = []
    for key, rows in sorted(merged.items()):
        if len(rows) < 2:
            continue
        a, b = rows[0], rows[1]
        t_a = sum(float(a[c]) for c in time_cols)
        t_b = sum(float(b[c]) for c in time_cols)
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
