"""Experiment orchestration CLI.

Subcommands cover every acceptance experiment: sample, evolve, semicircle,
rigidity, window, oplocal, equilibrium, sine, repulsion, vandermonde,
report. Flag precedence is flags > config file > defaults; the config file
is a flat key=value text format (same keys as the long flags, dashes or
underscores). Every run writes its outputs plus a RunManifest JSON
recording the resolved config, code version, wall time, seed scheme, and
output digests. Exit status: 0 success, 1 validation error, 2 numerical
failure.
"""

import argparse
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__
from . import equilibrium as eqm
from . import localwindow as lw
from . import orthopoly as op
from . import spectral as sp
from . import universality as un
from .archive import load_archive, save_archive
from .generate import generate_archive


def _parse_config_file(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


class Settings:
    """Flag > config-file > default resolution for one run."""

    def __init__(self, args):
        self.flags = vars(args)
        self.file = _parse_config_file(args.config) if getattr(args, "config", None) else {}
        unknown = sorted(set(self.file) - (set(self.flags) - {"command", "config"}))
        if unknown:
            raise ValueError(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")

    def get(self, key, default=None, cast=None):
        val = self.flags.get(key)
        if val is None and key in self.file:
            val = self.file[key]
        if val is None:
            val = default
        if val is not None and cast is not None and not isinstance(val, cast):
            val = cast(val)
        return val

    def require(self, key, cast=None):
        val = self.get(key, None, cast)
        if val is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
        return val

    def snapshot(self):
        """Resolved configuration for the run manifest."""
        merged = dict(self.file)
        merged.update({k: v for k, v in self.flags.items() if v is not None and k != "config"})
        return merged


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(command, resolved, outputs, started):
    manifest = {
        "command": command,
        "config": resolved,
        "code_version": __version__,
        "wall_time_s": round(time.time() - started, 3),
        "seed_scheme": "per-sample Philox streams keyed by SeedSequence(seed, spawn_key=(index,))",
        "outputs": {str(p): _digest(p) for p in outputs},
    }
    path = f"{outputs[0]}.manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


def _emit(command, settings, started, payload, outputs, echo=None):
    """Write the JSON payload to outputs[0] and the manifest over all
    outputs, then print echo (by default the payload itself)."""
    with open(outputs[0], "w") as fh:
        json.dump(payload, fh, indent=2)
    _write_manifest(command, settings.snapshot(), outputs, started)
    print(json.dumps(payload, indent=2) if echo is None else echo)


def _float_list(settings, key, default):
    """A comma-separated list option as floats."""
    return [float(v) for v in settings.get(key, default).split(",")]


def _stat_record(statistic, N, samples, value, threshold, passed):
    return {
        "statistic": statistic,
        "N": N,
        "samples": samples,
        "value": value,
        "threshold": threshold,
        "pass": bool(passed),
    }


def _load(settings):
    return load_archive(settings.require("archive"))


def cmd_sample(settings, started):
    kind = settings.get("kind", "gue")
    N = settings.require("N", int)
    samples = settings.require("samples", int)
    seed = settings.get("seed", 0, int)
    out = settings.require("out")
    arc = generate_archive(
        kind,
        N,
        samples,
        seed,
        beta_exponent=settings.get("beta", 0.5, float),
        entry_law=settings.get("entry_law", "gaussian"),
        evolve_time=settings.get("evolve_t", 0.0, float),
        label=settings.get("label"),
    )
    save_archive(arc, out)
    _write_manifest("sample", settings.snapshot(), [out], started)
    print(f"wrote {arc.samples} spectra of size {arc.N} to {out}")


def cmd_evolve(settings, started):
    if settings.get("kind") is None:
        settings.flags["kind"] = "wigner"
    if settings.get("evolve_t") is None:
        settings.flags["evolve_t"] = settings.require("t", float)
    cmd_sample(settings, started)


def cmd_semicircle(settings, started):
    arc = _load(settings)
    eta_star = settings.get("eta_star", 0.01, float)
    dens_tol = settings.get("density_tol", 0.05, float)
    count_tol = settings.get("count_tol", 0.02, float)
    out = settings.get("out", "semicircle.json")
    dens_dev = [sp.semicircle_density_sup_deviation(row, eta_star) for row in arc.data]
    count_dev = [sp.counting_function_sup_deviation(row) for row in arc.data]
    frac_dens = float(np.mean(np.asarray(dens_dev) <= dens_tol))
    frac_count = float(np.mean(np.asarray(count_dev) <= count_tol))
    records = [
        _stat_record("local_density_sup_dev_pass_fraction", arc.N, arc.samples, frac_dens, 0.9, frac_dens >= 0.9),
        _stat_record("counting_function_sup_dev_pass_fraction", arc.N, arc.samples, frac_count, 0.9, frac_count >= 0.9),
    ]
    _emit("semicircle", settings, started, records, [out])


def cmd_rigidity(settings, started):
    arc = _load(settings)
    kappa = settings.get("kappa", 0.1, float)
    out = settings.get("out", "rigidity.json")
    loc_tol = settings.get("location_tol", 0.05, float)
    devs = [sp.rigidity_check(row, kappa) for row in arc.data]
    loc = np.array([d[0] for d in devs])
    pair = np.array([d[1] for d in devs])
    frac = float(np.mean(loc <= loc_tol))
    records = [
        _stat_record("rigidity_location_pass_fraction", arc.N, arc.samples, frac, 0.9, frac >= 0.9),
        _stat_record("rigidity_pair_dev_median", arc.N, arc.samples, float(np.median(pair)), None, True),
    ]
    _emit("rigidity", settings, started, records, [out])


def _window_from_settings(settings, arc):
    L = settings.require("L", int)
    n = settings.require("n", int)
    idx = settings.get("sample_index", 0, int)
    return lw.extract_window(arc.data[idx], L, n)


def cmd_window(settings, started):
    arc = _load(settings)
    B = settings.get("B", 2.0, float)
    out = settings.get("out", "window.json")
    win = _window_from_settings(settings, arc)
    res = lw.rescale(win, B)
    payload = {
        "L": win.L,
        "n": win.n,
        "B": B,
        "center": res.center,
        "half_width": res.half_width,
        "internal": [float(v) for v in res.internal_rescaled],
        "external_rescaled": [float(v) for v in res.external_rescaled],
    }
    _emit("window", settings, started, payload, [out], echo=f"wrote window dump to {out}")


def _weight_from_settings(settings):
    n = settings.get("n", 64, int)
    B = settings.get("B", 2.0, float)
    profile = settings.get("profile", "equispaced")
    if settings.get("archive") is not None:
        arc = _load(settings)
        win = _window_from_settings(settings, arc)
        return lw.weight_from_window(lw.rescale(win, B))
    if profile != "equispaced":
        raise ValueError(f"unknown profile {profile!r}")
    cap = settings.get("root_cap", lw.DEFAULT_ROOT_CAP, int)
    return lw.equispaced_weight(n, B=B, root_cap=cap)


def _quadrature_and_recurrence(weight):
    """The weight's Gauss rule and its recurrence through degree n + 1."""
    quad = op.build_quadrature(weight, weight.n + 1, margin=64)
    return quad, op.stieltjes_recurrence(weight, quad, weight.n + 1)


def cmd_oplocal(settings, started):
    weight = _weight_from_settings(settings)
    n = weight.n
    out = settings.get("out", "oplocal.json")
    rec_csv = settings.get("recurrence_csv", "recurrence.csv")
    scan_csv = settings.get("kernel_csv", "kernel_scan.csv")
    quad, rec = _quadrature_and_recurrence(weight)
    with open(rec_csv, "w") as fh:
        fh.write("j,alpha_j,beta_j\n")
        for j in range(rec.max_degree):
            fh.write(f"{j},{rec.alpha[j]:.17g},{rec.beta[j]:.17g}\n")
    E = settings.get("energy", 0.0, float)
    rho = op.density(rec, weight, n, E)
    offsets = np.linspace(-1.5, 1.5, settings.get("scan_points", 21, int))
    pts = E + offsets / (n * rho)
    kmat = op.kernel_matrix(rec, weight, n, pts)
    dens = op.density(rec, weight, n, pts)
    with open(scan_csv, "w") as fh:
        fh.write("x,y,K_n,rho_n\n")
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                fh.write(f"{x:.17g},{y:.17g},{kmat[i, j]:.17g},{dens[i]:.17g}\n")
    max_dev = un.kernel_limit_scan(rec, weight, n, E, rho, offsets)
    table = op._psi_table(rec, weight, n - 1, quad.nodes)
    gram = (table * quad.weights) @ table.T
    payload = {
        "n": n,
        "roots": int(len(weight.roots)),
        "density_at_E": rho,
        "kernel_scan_max_dev": max_dev,
        "gram_residual": float(np.max(np.abs(gram - np.eye(n)))),
        "kernel_trace": float(np.sum(quad.weights * np.sum(table * table, axis=0))),
    }
    _emit("oplocal", settings, started, payload, [out, rec_csv, scan_csv])


def cmd_equilibrium(settings, started):
    weight = _weight_from_settings(settings)
    out = settings.get("out", "equilibrium.json")
    support = eqm.solve_endpoints(weight)
    _, rec = _quadrature_and_recurrence(weight)
    half = settings.get("J_half_width", 0.8, float)
    report = eqm.levin_lubinsky_report(support, rec, weight, (-half, half))
    _emit("equilibrium", settings, started, report, [out])


def cmd_sine(settings, started):
    arc = _load(settings)
    E0 = settings.get("E0", 0.0, float)
    delta = settings.get("delta", 0.2, float)
    out = settings.get("out", "sine.json")
    obs = un.bump_observable(settings.get("radius", 3.0, float))
    est = un.two_point_estimator(arc, E0, delta, obs)
    tol = 0.1 * abs(est.reference) + 3.0 * est.stderr
    payload = {
        "E0": est.E0,
        "delta": est.delta,
        "samples": est.samples,
        "value": est.value,
        "stderr": est.stderr,
        "reference": est.reference,
        "abs_error": abs(est.value - est.reference),
        "tolerance": tol,
        "pass": bool(abs(est.value - est.reference) <= tol),
    }
    _emit("sine", settings, started, payload, [out])


def cmd_repulsion(settings, started):
    arc = _load(settings)
    E = settings.get("E", 0.0, float)
    eps_grid = _float_list(settings, "eps_grid", "0.9,1.3,1.9,2.6")
    out = settings.get("out", "repulsion.json")
    curve_csv = settings.get("curve_csv", "repulsion_curve.csv")
    curve = un.level_repulsion_curve(arc, E, np.asarray(eps_grid))
    with open(curve_csv, "w") as fh:
        fh.write("eps,probability,stderr,hits\n")
        for e, p, h in zip(curve.eps_grid, curve.probabilities, curve.hits):
            se = math.sqrt(max(p * (1.0 - p), 0.0) / arc.samples)
            fh.write(f"{e:.17g},{p:.17g},{se:.17g},{h}\n")
    weg_eps = _float_list(settings, "wegner_eps", "0.5,1.0,2.0")
    weg = [un.wegner_statistic(arc, E, e) for e in weg_eps]
    weg_slope = float(np.polyfit(np.log(weg_eps), np.log(weg), 1)[0]) if len(weg_eps) > 1 else None
    k_grid = _float_list(settings, "K_grid", "1,2,4,8")
    tail = un.gap_tail(arc, E, k_grid)
    payload = {
        "E": E,
        "samples": arc.samples,
        "eps_grid": list(map(float, curve.eps_grid)),
        "probabilities": list(map(float, curve.probabilities)),
        "hits": list(map(int, curve.hits)),
        "fitted_exponent": curve.fitted_exponent,
        "exponent_stderr": curve.exponent_stderr,
        "wegner": {"eps": weg_eps, "mean_counts": weg, "log_slope": weg_slope},
        "gap_tail": {"K": list(map(float, k_grid)), "probabilities": [float(v) for v in tail]},
    }
    _emit("repulsion", settings, started, payload, [out, curve_csv])


def cmd_vandermonde(settings, started):
    out = settings.get("out", "vandermonde.json")
    if settings.get("archive") is not None:
        arc = _load(settings)
    else:
        arc = generate_archive(
            "gue",
            settings.require("N", int),
            settings.get("samples", 20, int),
            settings.get("seed", 0, int),
        )
    eta = settings.get("eta", None, float)
    stats = [un.vandermonde_statistic(row, eta) for row in arc.data]
    x2, log_energy, combo = un.semicircle_constants_check()
    mean = float(np.mean(stats))
    payload = {
        "N": arc.N,
        "samples": arc.samples,
        "mean": mean,
        "std": float(np.std(stats, ddof=1)) if len(stats) > 1 else 0.0,
        "target": combo,
        "pass": bool(0.73 <= mean <= 0.77),
        "x2_moment": x2,
        "log_energy": log_energy,
    }
    _emit("vandermonde", settings, started, payload, [out])


def cmd_report(settings, started):
    import glob
    import os

    directory = settings.get("dir", ".")
    out = settings.get("out", "report.json")
    merged = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        name = os.path.basename(path)
        if name == os.path.basename(out) or name.endswith(".manifest.json"):
            continue
        try:
            with open(path) as fh:
                merged[name] = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            merged[name] = {"error": str(exc)}

    def walk(node, found):
        if isinstance(node, dict):
            if "pass" in node:
                found.append(bool(node["pass"]))
            for v in node.values():
                walk(v, found)
        elif isinstance(node, list):
            for v in node:
                walk(v, found)

    passes = []
    walk(merged, passes)
    summary = {
        "files": len(merged),
        "checks": len(passes),
        "passed": sum(passes),
        "all_pass": bool(passes) and all(passes),
        "reports": merged,
    }
    _emit("report", settings, started, summary, [out],
          echo=f"merged {len(merged)} reports, {sum(passes)}/{len(passes)} checks passed")


COMMANDS = {
    "sample": cmd_sample,
    "evolve": cmd_evolve,
    "semicircle": cmd_semicircle,
    "rigidity": cmd_rigidity,
    "window": cmd_window,
    "oplocal": cmd_oplocal,
    "equilibrium": cmd_equilibrium,
    "sine": cmd_sine,
    "repulsion": cmd_repulsion,
    "vandermonde": cmd_vandermonde,
    "report": cmd_report,
}


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="wignerlab",
        description="Random-matrix universality laboratory. Flags override the "
        "--config file (flat key=value lines), which overrides defaults.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *specs):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", "-o", help="output path")
        for flag, kwargs in specs:
            p.add_argument(flag, **kwargs)

    common_gen = [
        ("--N", dict(type=int, help="matrix dimension")),
        ("--samples", dict(type=int, help="sample count")),
        ("--seed", dict(type=int, help="base RNG seed")),
        ("--label", dict(help="archive label")),
    ]
    add(
        "sample",
        "generate an eigenvalue archive",
        *common_gen,
        ("--kind", dict(choices=["gue", "wigner", "poisson"], help="ensemble kind")),
        ("--entry-law", dict(choices=["gaussian", "uniform", "rademacher-smoothed"])),
        ("--beta", dict(type=float, help="Gaussian-component exponent")),
        ("--evolve-t", dict(type=float, help="extra OU flow time")),
    )
    add(
        "evolve",
        "sample then run the matrix OU flow",
        *common_gen,
        ("--kind", dict(choices=["gue", "wigner"])),
        ("--entry-law", dict(choices=["gaussian", "uniform", "rademacher-smoothed"])),
        ("--beta", dict(type=float)),
        ("--t", dict(type=float, help="OU flow time")),
    )
    add(
        "semicircle",
        "local density and counting-function checks",
        ("--archive", dict(help="input archive")),
        ("--eta-star", dict(type=float)),
        ("--density-tol", dict(type=float)),
        ("--count-tol", dict(type=float)),
    )
    add(
        "rigidity",
        "quantile rigidity checks",
        ("--archive", dict()),
        ("--kappa", dict(type=float)),
        ("--location-tol", dict(type=float)),
    )
    window_flags = [
        ("--archive", dict()),
        ("--L", dict(type=int, help="window base index")),
        ("--n", dict(type=int, help="window size")),
        ("--B", dict(type=float, help="external cutoff exponent")),
        ("--sample-index", dict(type=int)),
    ]
    add("window", "extract and dump a window decomposition", *window_flags)
    add(
        "oplocal",
        "orthogonal-polynomial diagnostics for a window weight",
        *window_flags,
        ("--profile", dict(choices=["equispaced"])),
        ("--root-cap", dict(type=int)),
        ("--energy", dict(type=float)),
        ("--scan-points", dict(type=int)),
        ("--recurrence-csv", dict()),
        ("--kernel-csv", dict()),
    )
    add(
        "equilibrium",
        "equilibrium endpoints and local-universality report",
        *window_flags,
        ("--profile", dict(choices=["equispaced"])),
        ("--root-cap", dict(type=int)),
        ("--J-half-width", dict(type=float)),
    )
    add(
        "sine",
        "windowed two-point estimator vs the sine-kernel reference",
        ("--archive", dict()),
        ("--E0", dict(type=float)),
        ("--delta", dict(type=float)),
        ("--radius", dict(type=float, help="observable support radius")),
    )
    add(
        "repulsion",
        "level repulsion, Wegner, and gap-tail curves",
        ("--archive", dict()),
        ("--E", dict(type=float)),
        ("--eps-grid", dict()),
        ("--wegner-eps", dict()),
        ("--K-grid", dict()),
        ("--curve-csv", dict()),
    )
    add(
        "vandermonde",
        "regularized log-gas energy statistic",
        *common_gen,
        ("--archive", dict()),
        ("--eta", dict(type=float)),
    )
    add("report", "merge emitted JSON reports", ("--dir", dict()))
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.time()
        COMMANDS[args.command](Settings(args), started)
    except (ValueError, OSError) as exc:  # ArchiveFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
