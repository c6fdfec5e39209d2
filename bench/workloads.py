"""The three workloads: their inputs, the program operations of one round,
and the checks on a round's outputs.

An operation is one program process, written as the argument list after
``python3``: either ``-m wignerlab.cli <command> ...`` or this directory's
``dbm_paths.py``. The same lists run as subprocesses in timed rounds and
in-process in the traced run.

Sizes keep the operations of one round at about 7 reference seconds
(ensemble_sweep, archive_stats) and 15 (quadrature), so that a 10-second
run holds two rounds of the first two and one of quadrature.
"""

import json
import os

import numpy as np

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
CLI = ["-m", "wignerlab.cli"]


def _read_csv_rows(path):
    with open(path) as fh:
        fh.readline()
        return [line.rstrip("\n").split(",") for line in fh if line.strip()]


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _expect_manifests(out_dir, firsts):
    return [f"missing manifest for {f}" for f in firsts
            if not os.path.exists(os.path.join(out_dir, f + ".manifest.json"))]


class EnsembleSweep:
    """Entry draws, packing, to_dense, eigvalsh, archive writes and DBM steps."""

    name = "ensemble_sweep"
    # (output, command, N, samples, extra flags)
    ARCHIVES = [
        ("gue200.csv", "sample", 200, 100, []),
        ("gue1000.csv", "sample", 1000, 2, []),
        ("wigner400.bin", "sample", 400, 10, ["--kind", "wigner", "--entry-law", "uniform", "--beta", "0.5"]),
        ("evolved200.csv", "evolve", 200, 25, ["--entry-law", "rademacher-smoothed", "--t", "0.1"]),
    ]
    # DBM paths as in acceptance criterion 10: N = 50, dt = 1e-4, T = 0.5.
    # Their initial spectra and noise streams do not depend on the workload
    # seed, so the proposal count of the ordered-step controller repeats
    # exactly between traced runs.
    DBM_PATHS, DBM_N, DBM_DT, DBM_STEPS, DBM_STREAM = 10, 50, 1e-4, 5000, 901

    def prepare(self, seed, in_dir):
        self.seeds = [int(s) for s in inputs.rng_for(seed, 1).integers(0, 2**31, len(self.ARCHIVES))]
        self.dbm_init = os.path.join(in_dir, "dbm_init.npy")
        np.save(self.dbm_init, inputs.gue_tridiagonal(self.DBM_N, self.DBM_PATHS, inputs.rng_for(0, 1, 99)))

    def ops(self, out):
        ops = []
        for (name, command, N, samples, extra), s in zip(self.ARCHIVES, self.seeds):
            ops.append((f"{command}_{name.split('.')[0]}",
                        CLI + [command, "--N", str(N), "--samples", str(samples), "--seed", str(s)]
                        + extra + ["-o", os.path.join(out, name)]))
        ops.append(("dbm_paths", [os.path.join(HERE, "dbm_paths.py"), self.dbm_init, os.path.join(out, "dbm.json"),
                                  repr(self.DBM_DT), str(self.DBM_STEPS), str(self.DBM_STREAM)]))
        return ops

    def check(self, out):
        problems = _expect_manifests(out, [a[0] for a in self.ARCHIVES]) + checks.check_manifests(out)
        for name, _, N, samples, _ in self.ARCHIVES:
            found, data = checks.check_archive(os.path.join(out, name), N, samples)
            problems += found
            if data is not None and not found:
                problems += [f"{name}: {p}" for p in checks.check_ensemble_archive(data)]
        problems += checks.check_dbm(_load_json(os.path.join(out, "dbm.json")), self.DBM_PATHS, self.DBM_N,
                                     self.DBM_STEPS, self.DBM_DT * self.DBM_STEPS)
        return problems


def _gue_csv(N, samples, rng, csv_path):
    data = inputs.gue_tridiagonal(N, samples, rng)
    inputs.write_csv(csv_path, data, "gue")
    return data


class ArchiveStats:
    """Archive parsing and the Monte-Carlo reductions; nothing is sampled."""

    name = "archive_stats"
    # The repulsion archive is N = 100, not 200: the tridiagonal sampler costs
    # 1 ms per N = 200 spectrum, and 20000 rows are needed for the GUE
    # exponent to clear 3.2 by five standard errors.
    SINE = (400, 600)
    RIGIDITY_ROWS = 100
    REPULSION = (100, 20000)
    POISSON = (200, 40000)
    GUE_EPS, POISSON_EPS = [0.9, 1.3, 1.9, 2.6], [0.3, 0.5, 0.8, 1.2]
    WEGNER_EPS, K_GRID = [0.5, 1.0, 2.0], [1.0, 2.0, 4.0, 8.0]

    def prepare(self, seed, in_dir):
        p = {k: os.path.join(in_dir, v) for k, v in
             (("sine", "gue400.csv"), ("rigidity", "gue400_rigidity.csv"), ("gue", "gue100.csv"),
              ("poisson", "poisson200.bin"))}
        # One process: a pool would leave multiprocessing's resource tracker
        # running after the benchmark exits.
        sine = _gue_csv(*self.SINE, inputs.rng_for(seed, 2, 0), p["sine"])
        gue = _gue_csv(*self.REPULSION, inputs.rng_for(seed, 2, 1), p["gue"])
        poisson = inputs.poisson_semicircle(*self.POISSON, inputs.rng_for(seed, 2, 2))
        inputs.write_bin(p["poisson"], poisson)
        inputs.write_csv(p["rigidity"], sine[: self.RIGIDITY_ROWS], "gue")
        self.paths = p
        self.data = {"sine": sine, "rigidity": sine[: self.RIGIDITY_ROWS], "gue": gue, "poisson": poisson}

    def ops(self, out):
        p = self.paths

        def join(name):
            return os.path.join(out, name)

        def eps(grid):
            return ",".join(str(e) for e in grid)

        return [
            ("sine", CLI + ["sine", "--archive", p["sine"], "--E0", "0", "--delta", "0.2", "-o", join("sine.json")]),
            ("repulsion_gue", CLI + ["repulsion", "--archive", p["gue"], "--E", "0", "--eps-grid", eps(self.GUE_EPS),
                                     "-o", join("repulsion_gue.json"), "--curve-csv", join("repulsion_gue.csv")]),
            ("repulsion_poisson", CLI + ["repulsion", "--archive", p["poisson"], "--E", "0",
                                         "--eps-grid", eps(self.POISSON_EPS), "-o", join("repulsion_poisson.json"),
                                         "--curve-csv", join("repulsion_poisson.csv")]),
            ("semicircle", CLI + ["semicircle", "--archive", p["sine"], "-o", join("semicircle.json")]),
            ("rigidity", CLI + ["rigidity", "--archive", p["rigidity"], "-o", join("rigidity.json")]),
            ("report", CLI + ["report", "--dir", out, "-o", join("report.json")]),
        ]

    def check(self, out):
        d = self.data
        j = {n: _load_json(os.path.join(out, n + ".json")) for n in
             ("sine", "repulsion_gue", "repulsion_poisson", "semicircle", "rigidity", "report")}
        problems = _expect_manifests(out, [n + ".json" for n in j]) + checks.check_manifests(out)
        problems += checks.check_sine(j["sine"], d["sine"], 0.0, 0.2, 3.0)
        for name, data, grid, bounds in (("repulsion_gue", d["gue"], self.GUE_EPS, (3.2, 4.8)),
                                         ("repulsion_poisson", d["poisson"], self.POISSON_EPS, (1.6, 2.4))):
            curve = _read_csv_rows(os.path.join(out, name + ".csv"))
            problems += [f"{name}: {p}" for p in checks.check_repulsion(
                j[name], data, 0.0, grid, self.WEGNER_EPS, self.K_GRID, bounds, curve)]
        problems += checks.check_semicircle(j["semicircle"], d["sine"])
        problems += checks.check_rigidity(j["rigidity"], d["rigidity"])
        problems += checks.check_report(j["report"], out, "report.json")
        return problems


class Quadrature:
    """Gauss-Legendre rules, the Stieltjes recurrence, psi tables, the endpoint
    Newton solve and the semicircle constants; archives are tiny."""

    name = "quadrature"
    WINDOW_N, WINDOW_L, WINDOW_n = 1000, 484, 32  # central n = 32 window, 968 retained roots
    VDM = (400, 20)

    def prepare(self, seed, in_dir):
        self.window = os.path.join(in_dir, "gue1000_window.csv")
        self.vdm = os.path.join(in_dir, "gue400_vandermonde.csv")
        inputs.write_csv(self.window, inputs.gue_tridiagonal(self.WINDOW_N, 1, inputs.rng_for(seed, 3, 0)), "gue")
        self.vdm_data = inputs.gue_tridiagonal(*self.VDM, inputs.rng_for(seed, 3, 1))
        inputs.write_csv(self.vdm, self.vdm_data, "gue")

    def ops(self, out):
        window = ["--archive", self.window, "--L", str(self.WINDOW_L), "--n", str(self.WINDOW_n), "--B", "2"]

        def join(name):
            return os.path.join(out, name)

        return [
            ("oplocal_default", CLI + ["oplocal", "-o", join("oplocal_default.json"),
                                       "--recurrence-csv", join("recurrence_default.csv"),
                                       "--kernel-csv", join("kernel_default.csv")]),
            ("oplocal_window", CLI + ["oplocal"] + window + ["-o", join("oplocal_window.json"),
                                                             "--recurrence-csv", join("recurrence_window.csv"),
                                                             "--kernel-csv", join("kernel_window.csv")]),
            ("equilibrium_window", CLI + ["equilibrium"] + window + ["-o", join("equilibrium_window.json")]),
            ("vandermonde", CLI + ["vandermonde", "--archive", self.vdm, "-o", join("vandermonde.json")]),
        ]

    def check(self, out):
        def load(name):
            return _load_json(os.path.join(out, name))

        problems = _expect_manifests(out, ["oplocal_default.json", "oplocal_window.json",
                                           "equilibrium_window.json", "vandermonde.json"])
        problems += checks.check_manifests(out)
        for tag, n, roots in (("default", 64, 4002), ("window", self.WINDOW_n, 2 * self.WINDOW_L)):
            problems += [f"{tag}: {p}" for p in checks.check_oplocal(
                load(f"oplocal_{tag}.json"), n, roots, _read_csv_rows(os.path.join(out, f"recurrence_{tag}.csv")),
                _read_csv_rows(os.path.join(out, f"kernel_{tag}.csv")), scan_dev_max=0.05)]
        problems += checks.check_equilibrium(load("equilibrium_window.json"))
        problems += checks.check_vandermonde(load("vandermonde.json"), self.vdm_data)
        return problems


WORKLOADS = {w.name: w for w in (EnsembleSweep, ArchiveStats, Quadrature)}
