"""Correctness checks on the program's outputs.

Every check compares an output with the benchmark's own computation or with
a property the method must have; none compares with a stored copy of an
earlier output. Each check returns a list of problems (empty when the
output is correct), so the self-tests can feed it corrupted outputs.

Closed forms used as oracles:

* E[sum lambda^2 / N] = 1 for GUE, for Wigner matrices with standardized
  entries, and after the matrix OU flow. For GUE, Var[Tr H^2 / N] = 2 / N^2;
  entry laws with kurtosis <= 3 (all the program's laws) have less.
* Dyson Brownian motion: S = sum lambda^2 solves dS = (N - S) dt + dM with
  d<M> = 4 S / N dt, so E S(T) = e^-T S(0) + N (1 - e^-T) and
  Var S(T) = int_0^T e^(-2 (T - s)) 4 E[S(s)] / N ds.
* The sine-kernel reference int g(u) (1 - sinc^2 u) du, by adaptive
  quadrature here.
* The Wegner mean count in [E - eps/2N, E + eps/2N] is eps rho_sc(E) to
  O(1/N).
"""

import hashlib
import json
import math
import os
import struct

import numpy as np
from scipy import integrate

Z_BOUND = 5.0  # standard errors allowed for a Monte-Carlo oracle


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def close(a, b, rel=1e-9, abs_=1e-12):
    return abs(a - b) <= abs_ + rel * abs(b)


# ---------------------------------------------------------------- archives


def read_archive(path):
    """(N, samples, data) parsed without the program's reader."""
    if str(path).endswith(".bin"):
        with open(path, "rb") as fh:
            raw = fh.read()
        if raw[:5] != b"WLAB1" or len(raw) < 21:
            raise ValueError(f"{path}: bad binary header")
        N, samples = struct.unpack("<QQ", raw[5:21])
        data = np.frombuffer(raw[21:], dtype="<f8")
        if data.size != N * samples:
            raise ValueError(f"{path}: payload holds {data.size} values, header says {N * samples}")
        return N, samples, data.reshape(samples, N)
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    N, samples = int(header[0]), int(header[1])
    if any(len(r) != N for r in rows):
        raise ValueError(f"{path}: a row does not hold {N} values")
    data = np.array(rows, dtype=float).reshape(len(rows), N)
    return N, samples, data


def check_archive(path, N, samples):
    """Header as requested, rows finite and strictly ascending."""
    try:
        n, s, data = read_archive(path)
    except (OSError, ValueError) as exc:
        return [str(exc)], None
    problems = []
    if (n, s, data.shape[0]) != (N, samples, samples):
        problems.append(f"{path}: shape ({n}, {s}, rows {data.shape[0]}), expected ({N}, {samples})")
    if not np.all(np.isfinite(data)):
        problems.append(f"{path}: non-finite values")
    elif N > 1 and not np.all(np.diff(data, axis=1) > 0):
        problems.append(f"{path}: a row is not strictly ascending")
    return problems, data


def check_manifests(out_dir):
    """Every manifest's digests match the bytes of the files it names."""
    problems = []
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".manifest.json"):
            continue
        with open(os.path.join(out_dir, name)) as fh:
            manifest = json.load(fh)
        outputs = manifest.get("outputs") or {}
        if not outputs:
            problems.append(f"{name}: lists no outputs")
        for path, digest in outputs.items():
            if not os.path.exists(path):
                problems.append(f"{name}: output {path} is missing")
            elif sha256(path) != digest:
                problems.append(f"{name}: digest of {os.path.basename(path)} does not match its bytes")
    return problems


# ------------------------------------------------------- semicircle oracles


def semicircle_density(x):
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * math.pi)


def semicircle_cdf(x):
    c = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + c * np.sqrt(4.0 - c * c) / (4.0 * math.pi) + np.arcsin(c / 2.0) / math.pi


def semicircle_quantile(q):
    """Inverse semicircle CDF by 80 bisection steps (exact to rounding)."""
    q = np.asarray(q, dtype=float)
    lo, hi = np.full_like(q, -2.0), np.full_like(q, 2.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = semicircle_cdf(mid) < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def ks_to_semicircle(data):
    """Pooled Kolmogorov-Smirnov distance of all values to the semicircle law."""
    v = np.sort(np.ravel(data))
    m = v.size
    c = semicircle_cdf(v)
    return float(max(np.max(np.arange(1, m + 1) / m - c), np.max(c - np.arange(m) / m)))


def ks_bound(N):
    """Stated bound on the pooled KS distance of an N x N Wigner spectrum.

    Finite-N edge effects and counting-function fluctuations give about
    2 / N for one GUE spectrum at N = 1000 (largest of 150 seeds: 2.56 / N)."""
    return 4.0 / N


def check_ensemble_archive(data):
    """sum lambda^2 / N against 1, and the pooled KS distance against its bound."""
    samples, N = data.shape
    moment = float(np.mean(np.sum(data * data, axis=1) / N))
    se = math.sqrt(2.0) / (N * math.sqrt(samples))
    problems = []
    if abs(moment - 1.0) > Z_BOUND * se:
        problems.append(f"mean sum(lambda^2)/N = {moment:.6f}, expected 1 +- {Z_BOUND * se:.2e}")
    ks = ks_to_semicircle(data)
    if ks > ks_bound(N):
        problems.append(f"pooled KS distance {ks:.5f} exceeds {ks_bound(N):.5f} at N={N}")
    return problems


# ------------------------------------------------------------------- DBM


def dbm_moment_oracle(S0, N, T):
    """(E S(T), Var S(T)) for one path started at sum lambda^2 = S0."""
    mean = math.exp(-T) * S0 + N * (1.0 - math.exp(-T))
    # 4/N int_0^T e^(-2(T-s)) [N + (S0 - N) e^-s] ds
    var = 2.0 * (1.0 - math.exp(-2.0 * T)) + 4.0 * (S0 / N - 1.0) * (math.exp(-T) - math.exp(-2.0 * T))
    return mean, var


def check_dbm(payload, paths, N, steps, T):
    problems = []
    rows = payload.get("paths", [])
    if len(rows) != paths:
        return [f"DBM: {len(rows)} paths reported, expected {paths}"]
    diffs, variances = [], []
    for i, row in enumerate(rows):
        if row["snapshots"] != steps + 1 or row["N"] != N:
            problems.append(f"DBM path {i}: {row['snapshots']} snapshots of size {row['N']}")
        if not row["finite"] or not row["min_gap"] > 0.0:
            problems.append(f"DBM path {i}: a snapshot is not strictly ordered (min gap {row['min_gap']:g})")
        mean, var = dbm_moment_oracle(row["S0"], N, T)
        diffs.append(row["ST"] - mean)
        variances.append(var)
    se = math.sqrt(sum(variances)) / paths
    bias = sum(diffs) / paths
    if not abs(bias) <= Z_BOUND * se:
        problems.append(f"DBM: mean S(T) - closed form = {bias:.4f}, allowed +-{Z_BOUND * se:.4f}")
    return problems


# ----------------------------------------------------------------- sine


def bump(u, radius):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < radius
    v = u[inside] / radius
    out[inside] = np.exp(-1.0 / (1.0 - v * v))
    return out


def sine_reference(radius):
    """int g(u) (1 - sinc(u)^2) du for the bump observable of this radius."""
    val, _ = integrate.quad(lambda u: float(bump(u, radius)) * (1.0 - float(np.sinc(u)) ** 2),
                            -radius, radius, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


def two_point_value(data, E0, delta, radius, energy_nodes=33):
    """The windowed two-point statistic, evaluated directly (mean, stderr)."""
    samples, N = data.shape
    rho = float(semicircle_density(E0))
    norm, _ = integrate.quad(lambda u: float(bump(u, radius)), -radius, radius, epsabs=1e-14, epsrel=1e-13)
    xs, ws = np.polynomial.legendre.leggauss(energy_nodes)
    energies = E0 + delta * xs
    margin = 2.0 * radius / (N * rho)
    lo, hi = energies[0] - margin, energies[-1] + margin
    vals = np.empty(samples)
    for i, lam in enumerate(data):
        sub = lam[(lam >= lo) & (lam <= hi)]
        d = (sub[:, None] - sub[None, :]) * (N * rho)
        g = bump(d, radius)
        np.fill_diagonal(g, 0.0)
        centers = (sub[:, None] + sub[None, :]) / 2.0
        h = bump((centers[None] - energies[:, None, None]) * (N * rho), radius) / norm
        vals[i] = float(np.sum(ws[:, None, None] / 2.0 * g[None] * h)) * N / (N - 1)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(samples))


def check_sine(payload, data, E0, delta, radius):
    problems = []
    samples = data.shape[0]
    ref = sine_reference(radius)
    if not close(payload["reference"], ref, rel=1e-9):
        problems.append(f"sine: reference {payload['reference']!r} differs from the integral {ref!r}")
    value, stderr = two_point_value(data, E0, delta, radius)
    if not close(payload["value"], value, rel=1e-9):
        problems.append(f"sine: value {payload['value']!r}, direct evaluation gives {value!r}")
    if not close(payload["stderr"], stderr, rel=1e-6):
        problems.append(f"sine: stderr {payload['stderr']!r}, direct evaluation gives {stderr!r}")
    tol = 0.1 * abs(ref) + 3.0 * payload["stderr"]
    inside = abs(payload["value"] - ref) <= tol
    if payload["samples"] != samples:
        problems.append(f"sine: {payload['samples']} samples, archive has {samples}")
    if not close(payload["tolerance"], tol, rel=1e-9):
        problems.append(f"sine: tolerance {payload['tolerance']!r}, expected {tol!r}")
    if not inside:
        problems.append(f"sine: |value - reference| = {abs(payload['value'] - ref):.4g} exceeds {tol:.4g}")
    if payload["pass"] is not inside:
        problems.append("sine: pass flag disagrees with the tolerance test")
    return problems


# ------------------------------------------------------------ repulsion


def window_counts(data, E, eps):
    """Eigenvalue count per sample in [E - eps/2N, E + eps/2N]."""
    half = eps / (2.0 * data.shape[1])
    return np.sum(data <= E + half, axis=1) - np.sum(data < E - half, axis=1)  # rows ascend


def check_repulsion(payload, data, E, eps_grid, wegner_eps, K_grid, exponent_range, curve_rows=None):
    problems = []
    samples, N = data.shape
    if payload["samples"] != samples:
        problems.append(f"repulsion: {payload['samples']} samples, archive has {samples}")
    hits = [int(np.sum(window_counts(data, E, e) >= 2)) for e in eps_grid]
    if list(payload["hits"]) != hits:
        problems.append(f"repulsion: hits {payload['hits']}, direct counts {hits}")
    if any(not close(p, h / samples, rel=1e-12) for p, h in zip(payload["probabilities"], hits)):
        problems.append("repulsion: probabilities are not hits / samples")
    lo, hi = exponent_range
    if not lo <= payload["fitted_exponent"] <= hi:
        problems.append(f"repulsion: exponent {payload['fitted_exponent']:.3f} outside [{lo}, {hi}]")
    rho = float(semicircle_density(E))
    for e, reported in zip(wegner_eps, payload["wegner"]["mean_counts"]):
        counts = window_counts(data, E, e)
        mean = float(np.mean(counts))
        se = float(np.std(counts, ddof=1)) / math.sqrt(samples)
        if not close(reported, mean, rel=1e-12):
            problems.append(f"repulsion: Wegner mean {reported!r} at eps={e}, direct count {mean!r}")
        if abs(mean - e * rho) > Z_BOUND * se:
            problems.append(f"repulsion: Wegner mean {mean:.5f} at eps={e}, expected {e * rho:.5f} +- {Z_BOUND * se:.5f}")
    idx = np.sum(data < E, axis=1)  # index of the first value >= E
    valid = (idx >= 1) & (idx <= N - 1)
    gaps = (data[valid, idx[valid]] - E) * N
    tail = [float(np.mean(gaps >= K)) for K in K_grid]
    if any(not close(a, b, rel=1e-12) for a, b in zip(payload["gap_tail"]["probabilities"], tail)):
        problems.append(f"repulsion: gap tail {payload['gap_tail']['probabilities']}, direct {tail}")
    if curve_rows is not None and [int(r[3]) for r in curve_rows] != list(payload["hits"]):
        problems.append("repulsion: curve CSV hits differ from the JSON payload")
    return problems


# ----------------------------------------------------- semicircle, rigidity


def density_sup_deviation(row, eta):
    grid = np.arange(-1.5, 1.5 + eta / 5.0, eta / 5.0)
    count = np.searchsorted(row, grid + eta, side="right") - np.searchsorted(row, grid - eta, side="left")
    return float(np.max(np.abs(count / (2.0 * len(row) * eta) - semicircle_density(grid))))


def fraction_close(reported, values, tol, rows):
    """Pass fractions agree to within one row (threshold ties)."""
    direct = float(np.mean(np.asarray(values) <= tol))
    return abs(reported - direct) <= 1.0 / rows + 1e-12, direct


def check_records(records, names, N, samples):
    problems = []
    if [r["statistic"] for r in records] != names:
        return [f"records {[r['statistic'] for r in records]}, expected {names}"]
    for r in records:
        if (r["N"], r["samples"]) != (N, samples):
            problems.append(f"{r['statistic']}: N/samples {r['N']}/{r['samples']}, expected {N}/{samples}")
        if r["threshold"] is not None and r["pass"] is not (r["value"] >= r["threshold"]):
            problems.append(f"{r['statistic']}: pass flag disagrees with value and threshold")
    return problems


def check_semicircle(records, data, eta=0.01, dens_tol=0.05, count_tol=0.02):
    samples, N = data.shape
    problems = check_records(records, ["local_density_sup_dev_pass_fraction",
                                       "counting_function_sup_dev_pass_fraction"], N, samples)
    if problems:
        return problems
    dens = [density_sup_deviation(r, eta) for r in data]
    count = [ks_to_semicircle(r) for r in data]
    for rec, values, tol in ((records[0], dens, dens_tol), (records[1], count, count_tol)):
        ok, direct = fraction_close(rec["value"], values, tol, samples)
        if not ok:
            problems.append(f"{rec['statistic']}: {rec['value']!r}, direct evaluation gives {direct!r}")
    return problems


def rigidity_devs(row, kappa=0.1, gamma=0.1, epsilon=0.3):
    """(max location deviation, max normalized pair deviation) of one spectrum."""
    N = len(row)
    n = 2 * int(N**epsilon / 2) + 1
    a_lo, a_hi = int(math.ceil(N * kappa**1.5)), int(math.floor(N * (1 - kappa**1.5)))
    idx = np.arange(a_lo, a_hi + 1)
    lam = row[idx - 1]
    loc = float(np.max(np.abs(lam - semicircle_quantile(idx / N))))
    cap = int(N * n ** (-gamma / 6.0))
    k = idx[None, :] - idx[:, None]
    gaps = lam[None, :] - lam[:, None]
    rho = semicircle_density(lam)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.abs(N * rho * gaps - k) / (n**gamma * np.abs(k) ** 0.75 + k**2 / N)
    dev[(k < 1) | (k > cap)] = 0.0
    return loc, float(np.max(dev))


def check_rigidity(records, data, location_tol=0.05):
    samples, N = data.shape
    problems = check_records(records, ["rigidity_location_pass_fraction", "rigidity_pair_dev_median"], N, samples)
    if problems:
        return problems
    devs = np.array([rigidity_devs(r) for r in data])
    ok, direct = fraction_close(records[0]["value"], devs[:, 0], location_tol, samples)
    if not ok:
        problems.append(f"rigidity location fraction {records[0]['value']!r}, direct {direct!r}")
    median = float(np.median(devs[:, 1]))
    if not close(records[1]["value"], median, rel=1e-9):
        problems.append(f"rigidity pair median {records[1]['value']!r}, direct {median!r}")
    return problems


def count_pass_fields(node):
    if isinstance(node, dict):
        own = [bool(node["pass"])] if "pass" in node else []
        return own + [p for v in node.values() for p in count_pass_fields(v)]
    if isinstance(node, list):
        return [p for v in node for p in count_pass_fields(v)]
    return []


def check_report(summary, out_dir, report_name):
    inputs = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json") and not name.endswith(".manifest.json") and name != report_name:
            with open(os.path.join(out_dir, name)) as fh:
                inputs[name] = json.load(fh)
    passes = count_pass_fields(inputs)
    expected = (len(inputs), len(passes), sum(passes))
    got = (summary["files"], summary["checks"], summary["passed"])
    if got != expected:
        return [f"report: files/checks/passed {got}, inputs give {expected}"]
    return []


# ------------------------------------------------------------ quadrature


def check_oplocal(payload, n, roots, rec_rows, kernel_rows, scan_dev_max=None):
    problems = []
    if (payload["n"], payload["roots"]) != (n, roots):
        problems.append(f"oplocal: n={payload['n']} with {payload['roots']} roots, expected n={n} with {roots}")
    if not payload["gram_residual"] <= 1e-8:
        problems.append(f"oplocal: gram residual {payload['gram_residual']:.3g} > 1e-8")
    if not abs(payload["kernel_trace"] - n) <= 1e-8:
        problems.append(f"oplocal: kernel trace {payload['kernel_trace']!r}, expected {n} +- 1e-8")
    if scan_dev_max is not None and not payload["kernel_scan_max_dev"] <= scan_dev_max:
        problems.append(f"oplocal: kernel scan deviation {payload['kernel_scan_max_dev']:.4f} > {scan_dev_max}")
    if not payload["density_at_E"] > 0:
        problems.append("oplocal: density at E is not positive")
    rec = np.array(rec_rows, dtype=float)
    if rec.shape != (n + 1, 3) or not (np.all(np.abs(rec[:, 1]) < 1) and np.all((rec[:, 2] > 0) & (rec[:, 2] < 1))):
        problems.append("oplocal: recurrence is not that of a measure on [-1, 1] (|a_j| < 1, 0 < b_j < 1)")
    k = np.array(kernel_rows, dtype=float)
    m = int(round(math.sqrt(len(k))))
    if m * m != len(k):
        return problems + ["oplocal: kernel scan is not a square grid"]
    K = k[:, 2].reshape(m, m)
    rho = k[:, 3].reshape(m, m)[:, 0]
    if not np.allclose(K, K.T, rtol=1e-9, atol=1e-12):
        problems.append("oplocal: kernel scan is not symmetric")
    if not np.allclose(np.diag(K), n * rho, rtol=1e-9, atol=1e-12):
        problems.append("oplocal: kernel diagonal is not n * density")
    return problems


def check_equilibrium(payload, half_width=0.8):
    problems = []
    if not max(abs(r) for r in payload["residuals"]) <= 1e-9:
        problems.append(f"equilibrium: endpoint residuals {payload['residuals']} exceed 1e-9")
    if not -1.0 <= payload["a"] < -half_width < half_width < payload["b"] <= 1.0:
        problems.append(f"equilibrium: support [{payload['a']}, {payload['b']}] does not cover J")
    ll = payload["ll_conditions"]
    if not (ll["a"]["min"] > 0 and ll["c"]["min"] > 0 and math.isfinite(ll["d"])):
        problems.append("equilibrium: densities on J are not positive")
    return problems


def vandermonde_value(row):
    N = len(row)
    eta = float(N) ** -0.75
    iu = np.triu_indices(N, k=1)
    gaps = row[iu[0]] - row[iu[1]]
    return float((N / 2.0 * np.sum(row**2) - np.sum(np.log(gaps**2 + eta**2))) / N**2)


def check_vandermonde(payload, data):
    problems = []
    samples, N = data.shape
    mean = float(np.mean([vandermonde_value(r) for r in data]))
    if (payload["N"], payload["samples"]) != (N, samples):
        problems.append(f"vandermonde: N/samples {payload['N']}/{payload['samples']}, expected {N}/{samples}")
    if not close(payload["mean"], mean, rel=1e-10):
        problems.append(f"vandermonde: mean {payload['mean']!r}, direct evaluation gives {mean!r}")
    if not abs(payload["x2_moment"] - 1.0) <= 1e-6:
        problems.append(f"vandermonde: x2 moment {payload['x2_moment']!r}, expected 1")
    if not abs(payload["log_energy"] + 0.25) <= 1e-6:
        problems.append(f"vandermonde: log energy {payload['log_energy']!r}, expected -1/4")
    if not close(payload["target"], 0.5 * payload["x2_moment"] - payload["log_energy"], rel=1e-12):
        problems.append("vandermonde: target is not x2/2 - log energy")
    if payload["pass"] is not (0.73 <= payload["mean"] <= 0.77):
        problems.append("vandermonde: pass flag disagrees with the [0.73, 0.77] window")
    return problems
