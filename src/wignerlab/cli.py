"""Experiment orchestration CLI.

Subcommands cover every acceptance experiment: sample, evolve, semicircle,
rigidity, window, oplocal, equilibrium, sine, repulsion, vandermonde,
report. `build_parser` declares each option's type and default once, so
`--help` shows them. Flag precedence is flags > config file > defaults; the
config file is flat UTF-8 key=value text (same keys as the long flags,
dashes or underscores) whose values go through each option's type. `evolve
--t` is the only OU flow time, `vandermonde` reads a `sample` archive, and a
non-finite float option fails before any file is written.
`--sample-index` must lie in 0..samples-1. Every run writes its outputs
plus a manifest JSON recording the resolved config (every option), the
environment (Python, numpy, BLAS, cores, BLAS thread variables),
code version, wall time, seed scheme, and output digests. Exit status: 0
success, 1 validation error, 2 numerical failure.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import platform
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
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _require(args, *keys):
    for key in keys:
        if getattr(args, key) is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args, outputs, started):
    # The environment scopes the archive bytes, whose last bits depend on the
    # BLAS build and its thread count.
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in vars(args).items() if k != "config"},
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "cpu_count": os.cpu_count(),
            "thread_variables": {v: os.environ.get(v) for v in threads},
        },
        "code_version": __version__,
        "wall_time_s": round(time.time() - started, 3),
        "seed_scheme": "gue and wigner: per-sample Philox streams keyed by SeedSequence(seed, spawn_key=(index,)); "
                       "poisson: rows in order from one PCG64 stream keyed by SeedSequence(seed, spawn_key=(0,))",
        "outputs": {str(p): _digest(p) for p in outputs},
    }
    with open(f"{outputs[0]}.manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def _emit(args, started, payload, outputs, echo=None):
    """Write the JSON payload to outputs[0] and the manifest over all
    outputs, then print echo (by default the payload itself)."""
    with open(outputs[0], "w") as fh:
        json.dump(payload, fh, indent=2)
    _write_manifest(args, outputs, started)
    print(json.dumps(payload, indent=2) if echo is None else echo)


def _float_list(text):
    """A comma-separated list option as floats."""
    return [float(v) for v in text.split(",")]


def _stat_record(statistic, N, samples, value, threshold, passed):
    return {
        "statistic": statistic,
        "N": N,
        "samples": samples,
        "value": value,
        "threshold": threshold,
        "pass": bool(passed),
    }


def cmd_sample(args, started):
    """Write an archive; evolve's --t is the OU flow time (sample has none: 0)."""
    arc = generate_archive(args.kind, args.N, args.samples, args.seed, beta_exponent=args.beta,
                           entry_law=args.entry_law, evolve_time=getattr(args, "t", 0.0), label=args.label)
    save_archive(arc, args.out)
    _write_manifest(args, [args.out], started)
    print(f"wrote {arc.samples} spectra of size {arc.N} to {args.out}")


def _require_tolerances(args, *names):
    for name in names:
        if not (math.isfinite(getattr(args, name)) and getattr(args, name) >= 0):
            raise ValueError(f"{name} must be finite and nonnegative")


def cmd_semicircle(args, started):
    _require_tolerances(args, "density_tol", "count_tol")
    arc = load_archive(args.archive)
    dens_dev = [sp.semicircle_density_sup_deviation(row, args.eta_star) for row in arc.data]
    count_dev = [sp.counting_function_sup_deviation(row) for row in arc.data]
    frac_dens = float(np.mean(np.asarray(dens_dev) <= args.density_tol))
    frac_count = float(np.mean(np.asarray(count_dev) <= args.count_tol))
    records = [
        _stat_record("local_density_sup_dev_pass_fraction", arc.N, arc.samples, frac_dens, 0.9, frac_dens >= 0.9),
        _stat_record("counting_function_sup_dev_pass_fraction", arc.N, arc.samples, frac_count, 0.9, frac_count >= 0.9),
    ]
    _emit(args, started, records, [args.out])


def cmd_rigidity(args, started):
    _require_tolerances(args, "location_tol")
    arc = load_archive(args.archive)
    devs = [sp.rigidity_check(row, args.kappa) for row in arc.data]
    loc = np.array([d[0] for d in devs])
    pair = np.array([d[1] for d in devs])
    frac = float(np.mean(loc <= args.location_tol))
    records = [
        _stat_record("rigidity_location_pass_fraction", arc.N, arc.samples, frac, 0.9, frac >= 0.9),
        _stat_record("rigidity_pair_dev_median", arc.N, arc.samples, float(np.median(pair)), None, True),
    ]
    _emit(args, started, records, [args.out])


def _window(args, arc):
    _require(args, "L", "n")
    if not 0 <= args.sample_index < arc.samples:
        raise ValueError(f"--sample-index {args.sample_index} is outside 0..{arc.samples - 1}")
    return lw.extract_window(arc.data[args.sample_index], args.L, args.n)


def cmd_window(args, started):
    win = _window(args, load_archive(args.archive))
    res = lw.rescale(win, args.B)
    payload = {
        "L": win.L,
        "n": win.n,
        "B": args.B,
        "center": res.center,
        "half_width": res.half_width,
        "internal": [float(v) for v in res.internal_rescaled],
        "external_rescaled": [float(v) for v in res.external_rescaled],
        "tail_split": dict(zip(("sup_v2_prime", "density_ratio_dev"), lw.tail_split_check(win, args.B))),
        "profile_deviation": lw.window_profile_deviation(win, res),
        # against the flat density 1/2 that the rescaling to [-1, 1] targets
        "assumptions": {"density": 0.5, **lw.assumption_checks(res, lambda x: 0.5)},
    }
    _emit(args, started, payload, [args.out], echo=f"wrote window dump to {args.out}")


def _weight(args):
    if args.archive is not None:
        win = _window(args, load_archive(args.archive))
        return lw.weight_from_window(lw.rescale(win, args.B, root_cap=args.root_cap))
    # The one flag-dependent default: --n is 64 for the equispaced weight and
    # required with --archive. `is None`, so an explicit --n 0 is kept.
    n = 64 if args.n is None else args.n
    return lw.equispaced_weight(n, B=args.B, root_cap=args.root_cap)


def _recurrence(weight):
    """The weight's recurrence through degree n + 1, on its own Gauss rule."""
    quad = op.build_quadrature(weight, weight.n + 1, margin=64)
    return op.stieltjes_recurrence(weight, quad, weight.n + 1)


def cmd_oplocal(args, started):
    if not -1.0 <= args.energy <= 1.0:
        raise ValueError("energy must lie in [-1, 1]")
    if args.scan_points < 1:
        raise ValueError("--scan-points must be at least 1")
    weight = _weight(args)
    n = weight.n
    rec = _recurrence(weight)
    rho = op.density(rec, n, args.energy)
    offsets = np.linspace(-1.5, 1.5, args.scan_points)
    # the scan checks its points, so it runs before any file is written
    max_dev = un.kernel_limit_scan(rec, n, args.energy, rho, offsets)
    pts = args.energy + offsets / (n * rho)
    kmat = op.kernel_matrix(rec, n, pts)
    dens = op.density(rec, n, pts)
    with open(args.recurrence_csv, "w") as fh:
        fh.write("j,alpha_j,beta_j\n")
        for j in range(rec.max_degree):
            fh.write(f"{j},{rec.alpha[j]:.17g},{rec.beta[j]:.17g}\n")
    with open(args.kernel_csv, "w") as fh:
        fh.write("x,y,K_n,rho_n\n")
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                fh.write(f"{x:.17g},{y:.17g},{kmat[i, j]:.17g},{dens[i]:.17g}\n")
    table = op._psi_table(rec, n - 1, rec.quad.nodes)
    gram = (table * rec.quad.weights) @ table.T
    payload = {
        "n": n,
        "roots": int(len(weight.roots)),
        "density_at_E": rho,
        "kernel_scan_max_dev": max_dev,
        "gram_residual": float(np.max(np.abs(gram - np.eye(n)))),
        "kernel_trace": float(np.sum(rec.quad.weights * np.sum(table * table, axis=0))),
    }
    _emit(args, started, payload, [args.out, args.recurrence_csv, args.kernel_csv])


def cmd_equilibrium(args, started):
    weight = _weight(args)
    support = eqm.solve_endpoints(weight)
    report = eqm.levin_lubinsky_report(support, _recurrence(weight), (-args.J_half_width, args.J_half_width))
    _emit(args, started, report, [args.out])


def cmd_sine(args, started):
    arc = load_archive(args.archive)
    est = un.two_point_estimator(arc, args.E0, args.delta, un.bump_observable(args.radius))
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
    _emit(args, started, payload, [args.out])


def cmd_repulsion(args, started):
    arc = load_archive(args.archive)
    curve = un.level_repulsion_curve(arc, args.E, np.asarray(_float_list(args.eps_grid)))
    weg_eps = _float_list(args.wegner_eps)
    weg = [un.wegner_statistic(arc, args.E, e) for e in weg_eps]
    k_grid = _float_list(args.K_grid)
    tail = un.gap_tail(arc, args.E, k_grid)
    # a log-log slope needs two windows and no zero mean count
    weg_slope = float(np.polyfit(np.log(weg_eps), np.log(weg), 1)[0]) if len(weg_eps) > 1 and min(weg) > 0 else None
    with open(args.curve_csv, "w") as fh:
        fh.write("eps,probability,stderr,hits\n")
        for e, p, h in zip(curve.eps_grid, curve.probabilities, curve.hits):
            se = math.sqrt(max(p * (1.0 - p), 0.0) / arc.samples)
            fh.write(f"{e:.17g},{p:.17g},{se:.17g},{h}\n")
    payload = {
        "E": args.E,
        "samples": arc.samples,
        "eps_grid": list(map(float, curve.eps_grid)),
        "probabilities": list(map(float, curve.probabilities)),
        "hits": list(map(int, curve.hits)),
        "fitted_exponent": curve.fitted_exponent,
        "exponent_stderr": curve.exponent_stderr,
        "wegner": {"eps": weg_eps, "mean_counts": weg, "log_slope": weg_slope},
        "gap_tail": {"K": list(map(float, k_grid)), "probabilities": [float(v) for v in tail]},
    }
    _emit(args, started, payload, [args.out, args.curve_csv])


def cmd_vandermonde(args, started):
    arc = load_archive(args.archive)
    stats = [un.vandermonde_statistic(row, args.eta) for row in arc.data]
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
    _emit(args, started, payload, [args.out])


def cmd_report(args, started):
    merged = {}
    for path in sorted(glob.glob(os.path.join(args.dir, "*.json"))):
        name = os.path.basename(path)
        if name == os.path.basename(args.out) or name.endswith(".manifest.json"):
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
    _emit(args, started, summary, [args.out],
          echo=f"merged {len(merged)} reports, {sum(passes)}/{len(passes)} checks passed")


COMMANDS = {
    "sample": cmd_sample,
    "evolve": cmd_sample,
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
    parser.commands = sub.choices

    def add(name, help_text, *specs, required=()):
        # The JSON report goes to <name>.json unless --out is required. Required
        # options are checked after parsing, since a --config file may give them.
        p = sub.add_parser(name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.required_options = required
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", "-o", default=None if "out" in required else f"{name}.json", help="output path")
        for flag, kwargs in specs:
            p.add_argument(flag, **kwargs)

    archive = ("--archive", dict(help="input archive"))
    ensemble = [
        ("--N", dict(type=int, help="matrix dimension")),
        ("--samples", dict(type=int, help="sample count")),
        ("--seed", dict(type=int, default=0, help="base RNG seed")),
        ("--label", dict(help="archive label")),
        ("--entry-law", dict(choices=["gaussian", "uniform", "rademacher-smoothed"], default="gaussian",
                             help="law of the Wigner entries")),
        ("--beta", dict(type=float, default=0.5, help="Gaussian-component exponent")),
    ]
    add("sample", "generate an eigenvalue archive",
        *ensemble,
        ("--kind", dict(choices=["gue", "wigner", "poisson"], default="gue", help="ensemble kind")),
        required=("N", "samples", "out"))
    add("evolve", "sample then run the matrix OU flow",
        *ensemble,
        ("--kind", dict(choices=["gue", "wigner"], default="wigner", help="ensemble kind")),
        ("--t", dict(type=float, help="OU flow time, finite and nonnegative")),
        required=("t", "N", "samples", "out"))
    add("semicircle", "local density and counting-function checks",
        archive,
        ("--eta-star", dict(type=float, default=0.01,
                            help="local density window: count in [E - eta*, E + eta*] over 2 N eta*")),
        ("--density-tol", dict(type=float, default=0.05, help="local density tolerance")),
        ("--count-tol", dict(type=float, default=0.02, help="counting function tolerance")),
        required=("archive",))
    add("rigidity", "quantile rigidity checks",
        archive,
        ("--kappa", dict(type=float, default=0.1, help="bulk margin")),
        ("--location-tol", dict(type=float, default=0.05, help="quantile location tolerance")),
        required=("archive",))
    window_flags = [
        archive,
        ("--L", dict(type=int, help="window base index")),
        ("--n", dict(type=int, help="window size (oplocal, equilibrium: 64 without --archive)")),
        ("--B", dict(type=float, default=2.0, help="external cutoff exponent")),
        ("--sample-index", dict(type=int, default=0, help="archive row, 0 to samples-1")),
    ]
    add("window", "extract and dump a window decomposition", *window_flags, required=("archive",))
    root_cap = ("--root-cap", dict(type=int, default=lw.DEFAULT_ROOT_CAP,
                                   help="weight roots kept per side: +-1 included with --archive, "
                                        "besides +-1 for the equispaced weight"))
    add("oplocal", "orthogonal-polynomial diagnostics for a window weight",
        *window_flags,
        root_cap,
        ("--energy", dict(type=float, default=0.0, help="kernel scan center")),
        ("--scan-points", dict(type=int, default=21, help="kernel scan points per axis")),
        ("--recurrence-csv", dict(default="recurrence.csv", help="recurrence output path")),
        ("--kernel-csv", dict(default="kernel_scan.csv", help="kernel scan output path")))
    add("equilibrium", "equilibrium endpoints and local-universality report",
        *window_flags,
        root_cap,
        ("--J-half-width", dict(type=float, default=0.8, help="half width of the interval J")))
    add("sine", "windowed two-point estimator vs the sine-kernel reference",
        archive,
        ("--E0", dict(type=float, default=0.0, help="window center")),
        ("--delta", dict(type=float, default=0.2, help="window half width")),
        ("--radius", dict(type=float, default=3.0, help="observable support radius")),
        required=("archive",))
    add("repulsion", "level repulsion, Wegner, and gap-tail curves",
        archive,
        ("--E", dict(type=float, default=0.0, help="energy")),
        ("--eps-grid", dict(default="0.9,1.3,1.9,2.6", help="comma-separated repulsion windows")),
        ("--wegner-eps", dict(default="0.5,1.0,2.0", help="comma-separated Wegner windows")),
        ("--K-grid", dict(default="1,2,4,8", help="comma-separated gap lengths")),
        ("--curve-csv", dict(default="repulsion_curve.csv", help="repulsion curve output path")),
        required=("archive",))
    add("vandermonde", "regularized log-gas energy statistic",
        archive,
        ("--eta", dict(type=float, help="regularization scale")),
        required=("archive",))
    add("report", "merge emitted JSON reports", ("--dir", dict(default=".", help="directory of the reports")))
    return parser


def parse_args(argv=None):
    """The run's options: flags override the --config file, whose values
    become the subcommand's defaults and so pass through each option's type."""
    parser = build_parser()
    args = parser.parse_args(argv)
    command = parser.commands[args.command]
    if args.config is not None:
        values = _parse_config_file(args.config)
        unknown = sorted(set(values) - (set(vars(args)) - {"command", "config"}))
        if unknown:
            raise ValueError(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
        command.set_defaults(**values)
        args = parser.parse_args(argv)
    _require(args, *command.required_options)
    return args


def main(argv=None):
    try:
        args = parse_args(argv)
        started = time.time()
        COMMANDS[args.command](args, started)
    except (ValueError, OSError) as exc:  # ArchiveFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FloatingPointError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
