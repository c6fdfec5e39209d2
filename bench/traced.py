"""Traced in-process run of the workload pipelines.

Usage: python3 bench/traced.py PLAN.json RESULT.json TRACE.json

PLAN.json lists passes of operations (see workloads.py): the named workload
untraced, then every workload traced. Traced passes run with every function
named in ``TARGETS`` wrapped at each module attribute through which the
program reaches it: the defining module, ``from ... import`` names in other
modules (``cli.load_archive``, ``generate.eigenvalues``,
``equilibrium.op_density``) and class attributes
(``HermitianMatrix.to_dense``). Calls the program makes through module
globals at call time (``_psi_table``, the recursive ``_dbm_step``) are
caught the same way. Spans (name, start, end, parent) stay in memory and are
written to TRACE.json at the end; RESULT.json holds the per-layer metrics.
"""

import json
import os
import sys
import time

_t0 = time.perf_counter()
import wignerlab.cli as cli  # noqa: E402  (timed: the CLI's import cost)

STARTUP_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402

import dbm_paths  # noqa: E402

# (module, attribute path) of every function the per-layer metrics need
TARGETS = [
    ("cli", "_write_manifest"),
    ("ensemble", "sample_gue"), ("ensemble", "sample_wigner"), ("ensemble", "ou_evolve"),
    ("ensemble", "HermitianMatrix.to_dense"), ("ensemble", "dbm_integrate"), ("ensemble", "_dbm_step"),
    ("spectral", "eigenvalues"), ("spectral", "rigidity_check"),
    ("spectral", "semicircle_density_sup_deviation"), ("spectral", "counting_function_sup_deviation"),
    ("generate", "generate_archive"),
    ("archive", "save_archive"), ("archive", "load_archive"),
    ("universality", "two_point_estimator"), ("universality", "level_repulsion_curve"),
    ("universality", "wegner_statistic"), ("universality", "gap_tail"),
    ("universality", "semicircle_constants_check"), ("universality", "vandermonde_statistic"),
    ("universality", "kernel_limit_scan"),
    ("localwindow", "extract_window"), ("localwindow", "rescale"), ("localwindow", "weight_from_window"),
    ("localwindow", "equispaced_weight"), ("localwindow", "WeightSpec.log_weight"),
    ("orthopoly", "build_quadrature"), ("orthopoly", "stieltjes_recurrence"), ("orthopoly", "_psi_table"),
    ("orthopoly", "kernel_matrix"), ("orthopoly", "density"),
    ("equilibrium", "solve_endpoints"), ("equilibrium", "equilibrium_density"),
    ("equilibrium", "levin_lubinsky_report"),
]

# work counts taken from a call's arguments or result
COUNTERS = {
    "generate.generate_archive": ("generate.spectra", lambda args, res: res.samples),
    "archive.load_archive": ("archive.bytes_read", lambda args, res: os.path.getsize(args[0])),
    "orthopoly.build_quadrature": ("orthopoly.quadrature_nodes", lambda args, res: len(res.nodes)),
    "ensemble.dbm_integrate": ("ensemble.dbm_steps", lambda args, res: res.steps),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, outermost]
        self.stack = []
        self.depth = {}
        self.counts = {}

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(self.spans)
            outer = self.depth.get(name, 0) == 0
            span = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, outer]
            self.spans.append(span)
            self.stack.append(index)
            self.depth[name] = self.depth.get(name, 0) + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                self.depth[name] -= 1
            if counter:
                self.counts[counter[0]] = self.counts.get(counter[0], 0) + counter[1](args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target at every attribute that holds it; return an undo list."""
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("wignerlab.") and m is not None]
        undo = []
        for modname, path in TARGETS:
            owner = sys.modules["wignerlab." + modname]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            fn = getattr(owner, attr)
            wrapped = self.wrap(f"{modname}.{attr}", fn)
            for holder in [owner] if cls else modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        undo.append((holder, key, fn))
                        setattr(holder, key, wrapped)
        return undo

    def totals(self):
        """Inclusive time (outermost spans), self time and call count per name."""
        n = len(self.spans)
        dur = np.array([s[2] - s[1] for s in self.spans]) if n else np.zeros(0)
        child = np.zeros(n)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        out = {}
        for i, s in enumerate(self.spans):
            t = out.setdefault(s[0], {"inclusive": 0.0, "self": 0.0, "calls": 0})
            t["calls"] += 1
            t["self"] += dur[i] - child[i]
            if s[4]:
                t["inclusive"] += dur[i]
        return out


def run_op(argv):
    if argv[:2] == ["-m", "wignerlab.cli"]:
        return cli.main(argv[2:])
    if os.path.basename(argv[0]) == "dbm_paths.py":
        return dbm_paths.main(argv[1:])
    raise ValueError(f"unknown operation {argv[0]}")


def run_pass(ops):
    results = []
    start = time.perf_counter()
    for name, argv in ops:
        t = time.perf_counter()
        try:
            rc = run_op(argv)
        except Exception as exc:  # an operation that raises counts as failed
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
        results.append({"name": name, "rc": rc, "wall_s": time.perf_counter() - t})
    return time.perf_counter() - start, results


def layer_metrics(totals, counts):
    def incl(name):
        return totals.get(name, {}).get("inclusive", 0.0)

    def self_(name):
        return totals.get(name, {}).get("self", 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    proposals = calls("ensemble._dbm_step")
    m = {
        "cli.startup_s": STARTUP_S,
        "cli.write_manifest_s": incl("cli._write_manifest"),
        "ensemble.sample_gue_s": incl("ensemble.sample_gue"),
        "ensemble.sample_wigner_s": incl("ensemble.sample_wigner"),
        "ensemble.ou_evolve_s": incl("ensemble.ou_evolve"),
        "ensemble.to_dense_s": incl("ensemble.to_dense"),
        "ensemble.dbm_integrate_s": incl("ensemble.dbm_integrate"),
        "ensemble.dbm_proposals": proposals,
        "ensemble.dbm_accept_ratio": counts.get("ensemble.dbm_steps", 0) / proposals if proposals else 0.0,
        "spectral.eigenvalues_self_s": self_("spectral.eigenvalues"),
        "generate.generate_archive_self_s": self_("generate.generate_archive"),
        "generate.spectra": counts.get("generate.spectra", 0),
        "archive.save_archive_s": incl("archive.save_archive"),
        "archive.load_archive_s": incl("archive.load_archive"),
        "archive.bytes_read": counts.get("archive.bytes_read", 0),
    }
    for name in ("two_point_estimator", "level_repulsion_curve", "wegner_statistic", "gap_tail",
                 "semicircle_constants_check", "vandermonde_statistic", "kernel_limit_scan"):
        m[f"universality.{name}_s"] = incl(f"universality.{name}")
    for name in ("rigidity_check", "semicircle_density_sup_deviation", "counting_function_sup_deviation"):
        m[f"spectral.{name}_s"] = incl(f"spectral.{name}")
    m.update({
        "localwindow.extract_window_s": incl("localwindow.extract_window"),
        "localwindow.rescale_s": incl("localwindow.rescale"),
        "localwindow.weight_s": incl("localwindow.weight_from_window") + incl("localwindow.equispaced_weight"),
        "localwindow.log_weight_calls": calls("localwindow.log_weight"),
        "orthopoly.build_quadrature_s": incl("orthopoly.build_quadrature"),
        "orthopoly.build_quadrature_calls": calls("orthopoly.build_quadrature"),
        "orthopoly.quadrature_nodes": counts.get("orthopoly.quadrature_nodes", 0),
        "orthopoly.stieltjes_recurrence_s": incl("orthopoly.stieltjes_recurrence"),
        "orthopoly.psi_table_s": incl("orthopoly._psi_table"),
        "orthopoly.kernel_matrix_s": incl("orthopoly.kernel_matrix"),
        "orthopoly.density_s": incl("orthopoly.density"),
        "equilibrium.solve_endpoints_s": incl("equilibrium.solve_endpoints"),
        "equilibrium.equilibrium_density_calls": calls("equilibrium.equilibrium_density"),
        "equilibrium.levin_lubinsky_report_self_s": self_("equilibrium.levin_lubinsky_report"),
    })
    return m


def main(plan_path, result_path, trace_path):
    with open(plan_path) as fh:
        plan = json.load(fh)
    untraced, *traced_passes = plan["passes"]
    # The other workloads run first, so both passes of this workload run warm.
    order = [p for p in traced_passes if p["name"] != plan["workload"]]
    order += [untraced] + [p for p in traced_passes if p["name"] == plan["workload"]]
    tracer = Tracer()
    passes = []
    for p in order:
        undo = tracer.install() if p["traced"] else []
        try:
            wall, ops = run_pass(p["ops"])
        finally:
            for holder, key, fn in undo:
                setattr(holder, key, fn)
        passes.append({"name": p["name"], "traced": p["traced"], "wall_s": wall, "ops": ops})
    metrics = layer_metrics(tracer.totals(), tracer.counts)
    untraced_wall, traced_wall = (next(p["wall_s"] for p in passes if p["name"] == plan["workload"] and
                                       p["traced"] is t) for t in (False, True))
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    with open(trace_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "outermost"], "spans": tracer.spans}, fh)
    with open(result_path, "w") as fh:
        json.dump({"metrics": metrics, "passes": passes, "untraced_wall_s": untraced_wall,
                   "traced_wall_s": traced_wall}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
