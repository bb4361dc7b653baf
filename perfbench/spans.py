"""Span tracing of topomg's public functions, installed from outside the package.

Each traced function is replaced, wherever a loaded ``topomg`` module (or the
package namespace) holds a reference to it, by a wrapper that records a span:
name, parent span, start and end. Spans stay in memory; ``Tracer.dump`` writes
them out when the run ends. Nothing under ``src/`` is modified; uninstalling
puts every original reference back.
"""

import functools
import json
import math
import statistics
import sys
import time

# span name -> [(module, attribute)]; "Class.method" attributes patch the class
TRACED = {
    "bench.problem": [("bench", n) for n in (
        "cantilever2d_problem", "column_problem", "grid_problem",
        "cantilever3d_problem", "generate_grid_structure")],
    "mesh.assemble": [("mesh", "assemble_stiffness")],
    "mesh.stress_assemble": [("mesh", "assemble_stress_stiffness")],
    "mesh.filter": [("mesh", "build_filter"), ("mesh", "FilterOperator.apply"),
                    ("mesh", "FilterOperator.apply_transpose")],
    "multigrid.setup": [("multigrid", n) for n in (
        "build_gmg", "build_sa_amg", "build_hybrid")],
    "multigrid.strength": [("multigrid", "strength_of_connection")],
    "multigrid.aggregate": [("multigrid", "aggregate_nodes")],
    "multigrid.tentative": [("multigrid", "tentative_prolongation")],
    "multigrid.prolong_smooth": [("multigrid", "smoothed_prolongation")],
    "multigrid.smoother_setup": [("multigrid", "make_smoother")],
    "multigrid.vcycle": [("multigrid", "MgHierarchy.apply")],
    "krylov.solve": [("krylov", "gmres_solve"), ("krylov", "fgmres_solve")],
    "eigensolver.davidson": [("eigensolver", "generalized_davidson")],
    "eigensolver.rayleigh_ritz": [("eigensolver", "rayleigh_ritz")],
    "optimization.objective": [("optimization", n) for n in (
        "compliance_and_sensitivity", "stability_objective_and_sensitivity")],
    "optimization.mma": [("optimization", "mma_update")],
    "optimization.sensitivity": [("optimization", n) for n in (
        "element_strain_energies", "eigenvalue_sensitivity")],
}

SETUP_PHASES = ("strength", "aggregate", "tentative", "prolong_smooth",
                "smoother_setup")


def _hierarchy_info(h):
    levels = h.summary()
    return {"levels": len(levels),
            "operator_complexity": sum(lv["nonzeros"] for lv in levels) / levels[0]["nonzeros"],
            "grid_complexity": sum(lv["size"] for lv in levels) / levels[0]["size"],
            "flags": len(h.flags)}


def _solve_info(out):
    rec = out[1]
    hist = rec.residual_history
    log_drop = math.log(hist[-1] / hist[0]) if rec.iterations and hist[0] > 0 else 0.0
    return {"iters": rec.iterations, "log_drop": log_drop}


def _eigen_info(res):
    return {"iters": res.iterations,
            "stall_locks": sum(r == "stall" for r in res.lock_reasons)}


def _objective_info(out):
    aux = out[2]
    return {"adjoint_s": aux.get("adjoint_time", 0.0),
            "adjoint_iters": aux.get("adjoint_iterations", 0)}


RESULT_INFO = {"multigrid.setup": _hierarchy_info, "krylov.solve": _solve_info,
               "eigensolver.davidson": _eigen_info,
               "optimization.objective": _objective_info}


def replace_everywhere(original, replacement):
    """Rebind every name that a loaded topomg module binds to ``original``.

    Returns the (module, name, old value) list that ``restore`` undoes.
    """
    patches = []
    for key, mod in list(sys.modules.items()):
        if mod is None or not (key == "topomg" or key.startswith("topomg.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                patches.append((mod, attr, val))
                setattr(mod, attr, replacement)
    return patches


def restore(patches):
    for obj, attr, old in reversed(patches):
        setattr(obj, attr, old)


class Tracer:
    """In-memory span recorder; a span is [name, parent, start, end, info]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        info = RESULT_INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[4] = info(out)
            return out

        return traced

    def install(self):
        """Patch every reference a loaded topomg module holds to a traced function."""
        for name, targets in TRACED.items():
            for modname, attr in targets:
                owner = sys.modules["topomg." + modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patches.append((cls, meth, vars(cls)[meth]))
                    setattr(cls, meth, self._wrap(name, vars(cls)[meth]))
                else:
                    original = getattr(owner, attr)
                    self._patches += replace_everywhere(original, self._wrap(name, original))
        return self

    def uninstall(self):
        restore(self._patches)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path, meta):
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [
                {"name": n, "parent": p, "start_s": s - t0, "end_s": e - t0,
                 "info": i} for n, p, s, e, i in self.spans]}, fh)


def layer_totals(spans, lo=0, hi=None):
    """Per-name totals over spans[lo:hi]: time, self time, calls, summed info.

    Parents are indices into the whole ``spans`` list. A span nested inside a
    span of the same name (a recursive builder) counts toward neither time nor
    calls of that name.
    """
    hi = len(spans) if hi is None else hi
    child_time = [0.0] * len(spans)
    outer = [True] * len(spans)
    for i in range(lo, hi):
        name, parent, start, end, _ = spans[i]
        if parent >= 0:
            child_time[parent] += end - start
        p = parent
        while p >= 0:
            if spans[p][0] == name:
                outer[i] = False
                break
            p = spans[p][1]
    totals = {}
    for i in range(lo, hi):
        name, _, start, end, info = spans[i]
        if not outer[i]:
            continue
        t = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "info": []})
        t["s"] += end - start
        t["self_s"] += end - start - child_time[i]
        t["calls"] += 1
        if info is not None:
            t["info"].append(info)
    return totals


def layer_metrics(spans, n_setup_spans, n_rounds):
    """Per-layer metrics for one set-up plus one round.

    The first ``n_setup_spans`` spans belong to one set-up; the rest to
    ``n_rounds`` rounds, whose totals are averaged.
    """
    once = layer_totals(spans, 0, n_setup_spans)
    per = layer_totals(spans, n_setup_spans)
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "info": []}

    def total(name, key="s"):
        return once.get(name, empty)[key] + per.get(name, empty)[key] / n_rounds

    def infos(name):
        return per.get(name, empty)["info"]

    def info_sum(name, key):
        return sum(i[key] for i in infos(name)) / n_rounds

    def info_mean(name, key):
        vals = [i[key] for i in infos(name)]
        return statistics.fmean(vals) if vals else 0.0

    solves = infos("krylov.solve")
    iters = sum(i["iters"] for i in solves)
    setup_s = total("multigrid.setup")
    m = {
        "bench.problem_s": (total("bench.problem"), "s"),
        "mesh.assemble_s": (total("mesh.assemble"), "s"),
        "mesh.assemble_calls": (total("mesh.assemble", "calls"), "count"),
        "mesh.stress_assemble_s": (total("mesh.stress_assemble"), "s"),
        "mesh.filter_s": (total("mesh.filter"), "s"),
        "multigrid.setup_s": (setup_s, "s"),
        "multigrid.setup_calls": (total("multigrid.setup", "calls"), "count"),
    }
    for phase in SETUP_PHASES:
        m["multigrid.%s_s" % phase] = (total("multigrid." + phase), "s")
    m["multigrid.setup_other_s"] = (
        setup_s - sum(m["multigrid.%s_s" % p][0] for p in SETUP_PHASES), "s")
    m.update({
        "multigrid.vcycle_s": (total("multigrid.vcycle"), "s"),
        "multigrid.vcycle_calls": (total("multigrid.vcycle", "calls"), "count"),
        "multigrid.levels": (info_mean("multigrid.setup", "levels"), "count"),
        "multigrid.operator_complexity": (
            info_mean("multigrid.setup", "operator_complexity"), "ratio"),
        "multigrid.grid_complexity": (info_mean("multigrid.setup", "grid_complexity"),
                                      "ratio"),
        "multigrid.flags": (info_sum("multigrid.setup", "flags"), "count"),
        "krylov.solve_s": (total("krylov.solve"), "s"),
        "krylov.solves": (total("krylov.solve", "calls"), "count"),
        "krylov.iters": (info_sum("krylov.solve", "iters"), "count"),
        "krylov.self_s": (total("krylov.solve", "self_s"), "s"),
        "krylov.conv_factor": (
            math.exp(sum(i["log_drop"] for i in solves) / iters) if iters else 0.0,
            "ratio"),
        "eigensolver.davidson_s": (total("eigensolver.davidson"), "s"),
        "eigensolver.outer_iters": (info_sum("eigensolver.davidson", "iters"), "count"),
        "eigensolver.rayleigh_ritz_s": (total("eigensolver.rayleigh_ritz"), "s"),
        "eigensolver.self_s": (total("eigensolver.davidson", "self_s"), "s"),
        "eigensolver.stall_locks": (info_sum("eigensolver.davidson", "stall_locks"),
                                    "count"),
        "optimization.adjoint_s": (info_sum("optimization.objective", "adjoint_s"), "s"),
        "optimization.adjoint_iters": (info_sum("optimization.objective", "adjoint_iters"),
                                       "count"),
        "optimization.mma_s": (total("optimization.mma"), "s"),
        "optimization.sensitivity_s": (total("optimization.sensitivity"), "s"),
    })
    return m
