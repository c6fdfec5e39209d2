"""Self-tests of the benchmark: its independent sampler, and that every
correctness check accepts a good output and rejects a corrupted one.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

Good outputs come from the program itself, run in-process on small inputs,
except where that would take seconds (the default ``oplocal`` rule, the
semicircle constants); there the payload is built from its definition.
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from wignerlab import cli  # noqa: E402
from wignerlab import universality as un  # noqa: E402


def run_cli(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def load(path):
    with open(path) as fh:
        return json.load(fh)


def rows(path):
    with open(path) as fh:
        fh.readline()
        return [line.strip().split(",") for line in fh if line.strip()]


@pytest.fixture(scope="module")
def gue400():
    return inputs.gue_tridiagonal(400, 40, inputs.rng_for(5, 0))


# ------------------------------------------------------------- the sampler


def test_tridiagonal_sampler_follows_semicircle_and_trace_moment():
    data = inputs.gue_tridiagonal(200, 100, inputs.rng_for(7, 0))
    assert np.all(np.diff(data, axis=1) > 0)
    assert checks.ks_to_semicircle(data) < 1.0 / 200
    se = math.sqrt(2.0) / (200 * math.sqrt(100))
    assert abs(np.mean(np.sum(data**2, axis=1) / 200) - 1.0) < 5 * se
    assert checks.check_ensemble_archive(data) == []


def test_poisson_sampler_has_semicircle_density():
    data = inputs.poisson_semicircle(200, 200, inputs.rng_for(7, 1))
    assert np.all(np.diff(data, axis=1) >= 0)
    assert checks.ks_to_semicircle(data) < 0.01


def test_sampler_is_a_function_of_the_seed():
    a = inputs.gue_tridiagonal(50, 3, inputs.rng_for(3, 1))
    assert np.array_equal(a, inputs.gue_tridiagonal(50, 3, inputs.rng_for(3, 1)))
    assert not np.array_equal(a, inputs.gue_tridiagonal(50, 3, inputs.rng_for(4, 1)))


def test_ensemble_oracle_rejects_wrong_scale_and_wrong_law():
    data = inputs.gue_tridiagonal(200, 50, inputs.rng_for(8, 0))
    assert checks.check_ensemble_archive(data * 1.01) != []
    uniform = np.sort(np.random.default_rng(0).uniform(-2, 2, (50, 200)), axis=1)
    assert any("KS" in p for p in checks.check_ensemble_archive(uniform))


# ------------------------------------------------------- archives, manifests


def test_archive_check_rejects_disorder_nan_and_wrong_shape(tmp_path):
    data = inputs.gue_tridiagonal(30, 4, inputs.rng_for(1, 0))
    good = tmp_path / "a.csv"
    inputs.write_csv(good, data, "gue")
    assert checks.check_archive(good, 30, 4)[0] == []
    assert checks.check_archive(good, 30, 5)[0] != []
    swapped = data.copy()
    swapped[2, [10, 11]] = swapped[2, [11, 10]]
    nan = data.copy()
    nan[1, 3] = np.nan
    for bad in (swapped, nan):
        inputs.write_csv(tmp_path / "b.csv", bad, "gue")
        assert checks.check_archive(tmp_path / "b.csv", 30, 4)[0] != []
    inputs.write_bin(tmp_path / "c.bin", swapped)
    assert checks.check_archive(tmp_path / "c.bin", 30, 4)[0] != []


def test_manifest_check_rejects_a_digest_that_does_not_match(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("sample", "--N", 20, "--samples", 3, "--seed", 1, "-o", out)
    assert checks.check_manifests(tmp_path) == []
    text = out.read_text()
    out.write_text(text[:-2] + ("1" if text[-2] != "1" else "2") + "\n")
    assert any("digest" in p for p in checks.check_manifests(tmp_path))
    out.unlink()
    assert any("missing" in p for p in checks.check_manifests(tmp_path))


# -------------------------------------------------------------------- DBM


def test_dbm_check_accepts_the_program_and_rejects_disorder_and_moment(tmp_path):
    import dbm_paths

    init = inputs.gue_tridiagonal(10, 4, inputs.rng_for(6, 0))
    np.save(tmp_path / "init.npy", init)
    assert dbm_paths.main([str(tmp_path / "init.npy"), str(tmp_path / "d.json"), "1e-3", "200", "5"]) == 0
    payload = load(tmp_path / "d.json")
    assert checks.check_dbm(payload, 4, 10, 200, 0.2) == []
    bad = json.loads(json.dumps(payload))
    bad["paths"][1]["min_gap"] = -1e-9
    assert checks.check_dbm(bad, 4, 10, 200, 0.2) != []
    bad = json.loads(json.dumps(payload))
    for row in bad["paths"]:
        row["ST"] += 5.0
    assert any("closed form" in p for p in checks.check_dbm(bad, 4, 10, 200, 0.2))
    assert checks.check_dbm(payload, 4, 10, 100, 0.2) != []


# ------------------------------------------------------------ archive_stats


def test_sine_check_rejects_a_value_just_outside_tolerance(tmp_path, gue400):
    inputs.write_csv(tmp_path / "g.csv", gue400, "gue")
    run_cli("sine", "--archive", tmp_path / "g.csv", "-o", tmp_path / "sine.json")
    payload = load(tmp_path / "sine.json")
    assert checks.check_sine(payload, gue400, 0.0, 0.2, 3.0) == []
    outside = dict(payload, value=payload["reference"] + payload["tolerance"] * (1 + 1e-9))
    assert any("exceeds" in p for p in checks.check_sine(outside, gue400, 0.0, 0.2, 3.0))
    assert checks.check_sine(dict(payload, reference=payload["reference"] * (1 + 1e-7)), gue400, 0.0, 0.2, 3.0)
    assert checks.check_sine({**payload, "pass": not payload["pass"]}, gue400, 0.0, 0.2, 3.0)


def test_repulsion_check_rejects_a_hit_count_off_by_one(tmp_path):
    data = inputs.gue_tridiagonal(100, 2000, inputs.rng_for(9, 0))
    inputs.write_csv(tmp_path / "g.csv", data, "gue")
    run_cli("repulsion", "--archive", tmp_path / "g.csv", "-o", tmp_path / "r.json", "--curve-csv", tmp_path / "r.csv")
    payload = load(tmp_path / "r.json")
    args = (data, 0.0, [0.9, 1.3, 1.9, 2.6], [0.5, 1.0, 2.0], [1, 2, 4, 8], (-math.inf, math.inf))
    assert checks.check_repulsion(payload, *args, rows(tmp_path / "r.csv")) == []
    off = json.loads(json.dumps(payload))
    off["hits"][2] += 1
    assert any("hits" in p for p in checks.check_repulsion(off, *args))
    assert checks.check_repulsion(dict(payload, fitted_exponent=3.1), *args[:-1], (3.2, 4.8))
    wegner = json.loads(json.dumps(payload))
    wegner["wegner"]["mean_counts"][0] += 1e-3
    assert any("Wegner" in p for p in checks.check_repulsion(wegner, *args))
    tail = json.loads(json.dumps(payload))
    tail["gap_tail"]["probabilities"][1] += 1.0 / 2000
    assert any("gap tail" in p for p in checks.check_repulsion(tail, *args))


def test_wegner_oracle_rejects_a_shifted_density():
    data = inputs.gue_tridiagonal(100, 2000, inputs.rng_for(9, 1))
    payload = {"samples": 2000, "hits": [], "probabilities": [], "fitted_exponent": 0.0,
               "wegner": {"mean_counts": []}, "gap_tail": {"probabilities": []}}
    assert checks.check_repulsion(payload, data, 0.0, [], [], [], (-1, 1)) == []
    # rho_sc(1.2) is 20 % below rho_sc(0): spectra moved by -1.2, read at E = 0
    shifted = data - 1.2
    counts = [float(np.mean(checks.window_counts(shifted, 0.0, 2.0)))]
    payload["wegner"]["mean_counts"] = counts
    assert any("expected" in p for p in checks.check_repulsion(payload, shifted, 0.0, [], [2.0], [], (-1, 1)))


def test_semicircle_rigidity_and_report_checks(tmp_path, gue400):
    src = tmp_path / "in"
    out = tmp_path / "out"
    src.mkdir()
    out.mkdir()
    data = gue400[:20]
    inputs.write_csv(src / "g.csv", data, "gue")
    run_cli("semicircle", "--archive", src / "g.csv", "--density-tol", 0.2, "-o", out / "semicircle.json")
    run_cli("rigidity", "--archive", src / "g.csv", "-o", out / "rigidity.json")
    run_cli("report", "--dir", out, "-o", out / "report.json")
    semi, rig, rep = (load(out / f) for f in ("semicircle.json", "rigidity.json", "report.json"))
    assert checks.check_semicircle(semi, data, dens_tol=0.2) == []
    assert checks.check_rigidity(rig, data) == []
    assert checks.check_report(rep, out, "report.json") == []

    moved = json.loads(json.dumps(semi))
    moved[1]["value"] -= 2.0 / 20
    moved[1]["pass"] = moved[1]["value"] >= 0.9
    assert checks.check_semicircle(moved, data, dens_tol=0.2)
    flipped = json.loads(json.dumps(semi))
    flipped[0]["pass"] = not flipped[0]["pass"]
    assert checks.check_semicircle(flipped, data, dens_tol=0.2)
    pair = json.loads(json.dumps(rig))
    pair[1]["value"] *= 1 + 1e-6
    assert checks.check_rigidity(pair, data)
    assert checks.check_report(dict(rep, checks=rep["checks"] + 1), out, "report.json")


# ---------------------------------------------------------------- quadrature


@pytest.fixture(scope="module")
def oplocal16(tmp_path_factory):
    d = tmp_path_factory.mktemp("op")
    run_cli("oplocal", "--n", 16, "-o", d / "o.json", "--recurrence-csv", d / "r.csv", "--kernel-csv", d / "k.csv")
    run_cli("equilibrium", "--n", 16, "-o", d / "e.json")
    return load(d / "o.json"), rows(d / "r.csv"), rows(d / "k.csv"), load(d / "e.json")


def test_oplocal_check_rejects_residuals_and_a_broken_kernel(oplocal16):
    payload, rec, kern, _ = oplocal16
    assert checks.check_oplocal(payload, 16, 512, rec, kern, scan_dev_max=0.1) == []
    assert checks.check_oplocal(dict(payload, gram_residual=2e-8), 16, 512, rec, kern)
    assert checks.check_oplocal(dict(payload, kernel_trace=16 + 2e-8), 16, 512, rec, kern)
    assert checks.check_oplocal(dict(payload, kernel_scan_max_dev=0.06), 16, 512, rec, kern, scan_dev_max=0.05)
    bad_kernel = [list(r) for r in kern]
    bad_kernel[1][2] = str(float(bad_kernel[1][2]) * (1 + 1e-6))
    assert any("symmetric" in p for p in checks.check_oplocal(payload, 16, 512, rec, bad_kernel))
    bad_rec = [list(r) for r in rec]
    bad_rec[3][2] = "1.5"
    assert any("recurrence" in p for p in checks.check_oplocal(payload, 16, 512, bad_rec, kern))


def test_equilibrium_check_rejects_residuals_and_a_short_support(oplocal16):
    payload = oplocal16[3]
    assert checks.check_equilibrium(payload) == []
    assert checks.check_equilibrium(dict(payload, residuals=[0.0, 2e-9]))
    assert checks.check_equilibrium(dict(payload, b=0.79))


def test_vandermonde_check_rejects_a_mean_that_is_not_the_statistic(gue400):
    data = gue400[:5]
    mean = float(np.mean([un.vandermonde_statistic(r) for r in data]))
    payload = {"N": 400, "samples": 5, "mean": mean, "x2_moment": 1.0, "log_energy": -0.25,
               "target": 0.75, "pass": 0.73 <= mean <= 0.77}
    assert checks.check_vandermonde(payload, data) == []
    assert checks.check_vandermonde(dict(payload, mean=mean + 1e-7), data)
    assert checks.check_vandermonde(dict(payload, log_energy=-0.2499), data)
    assert checks.check_vandermonde(dict(payload, samples=6), data)


def test_sine_reference_is_the_integral_of_the_sine_kernel_gap():
    obs = un.bump_observable(3.0)
    assert abs(checks.sine_reference(3.0) - un.sine_kernel_reference(obs)) < 1e-12
