"""Acceptance experiments, one test per criterion, each printing a
PASS/FAIL line with the measured values (run with -s or -v to see them).

Two criteria are red at their stated desk-scale tolerances, for measured
reasons rather than implementation gaps:

* Criterion 1: at N=2000, eta*=0.01 a window of width 2 eta* holds ~13
  eigenvalues, and number-variance granularity floors the sup-deviation
  near 0.06 for every sample, above the 0.05 bar.
* Criterion 3: the regularized energy statistic concentrates at 0.72966,
  3.4e-4 below the [0.73, 0.77] window; the eta=0 mean matches the exact
  finite-size value 0.734827 (see
  test_universality.TestVandermondeStatistic.test_exact_finite_size_oracle),
  and the eta = N^(-3/4) regularization shifts it by -0.0053 because eta
  is comparable to the mean level spacing at N=400.
"""

import math

import numpy as np
import pytest

from wignerlab import ensemble as en
from wignerlab import equilibrium as eq
from wignerlab import localwindow as lw
from wignerlab import orthopoly as op
from wignerlab import spectral as sp
from wignerlab import universality as un
from wignerlab.spectral import semicircle_density


def _line(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} :: {detail}")


def test_criterion_01_local_semicircle_density(gue2000):
    eta = 0.01
    devs = np.array([sp.semicircle_density_sup_deviation(row, eta) for row in gue2000.data])
    frac = float(np.mean(devs <= 0.05))
    ok = frac >= 0.9
    _line(1, ok, f"sup-density deviation <= 0.05 in {100 * frac:.0f}% of 50 samples "
                 f"(median {np.median(devs):.4f})")
    assert ok, "known red: count granularity floors the sup near 0.06 at N=2000, eta*=0.01"


def test_criterion_02_counting_function(gue2000):
    devs = np.array([sp.counting_function_sup_deviation(row) for row in gue2000.data])
    frac = float(np.mean(devs <= 0.02))
    ok = frac >= 0.9
    _line(2, ok, f"counting-function deviation <= 0.02 in {100 * frac:.0f}% of 50 samples "
                 f"(median {np.median(devs):.5f})")
    assert ok


def test_criterion_03_log_gas_energy_constant(gue400_small):
    x2, log_energy, combo = un.semicircle_constants_check()
    stats = [un.vandermonde_statistic(row) for row in gue400_small.data]
    mean = float(np.mean(stats))
    ok = 0.73 <= mean <= 0.77 and abs(x2 - 1.0) <= 1e-6 and abs(log_energy + 0.25) <= 1e-6
    _line(3, ok, f"energy statistic mean {mean:.5f} (window [0.73, 0.77]); "
                 f"x2 moment {x2:.7f}, log energy {log_energy:.7f}")
    assert abs(x2 - 1.0) <= 1e-6
    assert abs(log_energy + 0.25) <= 1e-6
    assert combo == pytest.approx(0.75, abs=1e-6)
    assert 0.73 <= mean <= 0.77, (
        "known red: statistic concentrates at 0.7297 with eta = N^(-3/4); "
        "the eta=0 mean matches the exact finite-size value 0.73483"
    )


def _sine_criterion(num, archive, label):
    obs = un.bump_observable(3.0)
    est = un.two_point_estimator(archive, 0.0, 0.2, obs)
    tol = 0.1 * abs(est.reference) + 3.0 * est.stderr
    err = abs(est.value - est.reference)
    ok = err <= tol
    _line(num, ok, f"{label}: |{est.value:.4f} - {est.reference:.4f}| = {err:.4f} "
                   f"<= {tol:.4f} ({est.samples} samples, stderr {est.stderr:.4f})")
    assert ok


def test_criterion_04_sine_kernel_statistic_gue(gue400):
    _sine_criterion(4, gue400, "GUE N=400")


def test_criterion_05_sine_kernel_statistic_wigner(wigner400_uniform):
    _sine_criterion(5, wigner400_uniform, "uniform-entry Wigner, s^2 = N^(-1/4)")


def test_criterion_06_orthopoly_core():
    # Legendre recurrence against the closed form
    unit = lw.WeightSpec(n=16, roots=np.array([]))
    quad_unit = op.build_quadrature(unit, 128)
    rec_unit = op.stieltjes_recurrence(unit, quad_unit, 128)
    j = np.arange(1, 129)
    legendre_err = float(np.max(np.abs(rec_unit.beta**2 - j**2 / (4.0 * j**2 - 1.0))))

    # point-charge weight at n = 128
    weight = lw.equispaced_weight(128, B=2.0)
    quad = op.build_quadrature(weight, 129, margin=64)
    rec = op.stieltjes_recurrence(weight, quad, 129)
    table = op._psi_table(rec, 128, quad.nodes)
    gram = (table * quad.weights) @ table.T
    gram_err = float(np.max(np.abs(gram - np.eye(129))))
    trace = float(np.sum(quad.weights * np.sum(table[:128] ** 2, axis=0)))

    xs = np.linspace(-0.9, 0.9, 20)
    left = op.kernel_matrix(rec, 128, xs, quad.nodes)
    composed = (left * quad.weights) @ op.kernel_matrix(rec, 128, quad.nodes, xs)
    repro_err = float(np.max(np.abs(composed - op.kernel_matrix(rec, 128, xs, xs))))

    ok = legendre_err <= 1e-12 and gram_err <= 1e-8 and repro_err <= 1e-6 and abs(trace - 128) <= 1e-8
    _line(6, ok, f"legendre {legendre_err:.2e} (<=1e-12), gram {gram_err:.2e} (<=1e-8), "
                 f"reproducing {repro_err:.2e} (<=1e-6), trace err {abs(trace - 128):.2e} (<=1e-8)")
    assert legendre_err <= 1e-12
    assert gram_err <= 1e-8
    assert repro_err <= 1e-6
    assert abs(trace - 128) <= 1e-8


def test_criterion_07_local_sine_kernel():
    from tests_support import hermite_bulk_scan_dev

    offsets = np.linspace(-1.5, 1.5, 21)
    oracle_dev = hermite_bulk_scan_dev(64, offsets)

    n = 64
    weight = lw.equispaced_weight(n, B=2.0)
    quad = op.build_quadrature(weight, n + 1, margin=64)
    rec = op.stieltjes_recurrence(weight, quad, n + 1)
    rho = op.density(rec, n, 0.0)
    dev = un.kernel_limit_scan(rec, n, 0.0, rho, offsets)
    ok = dev <= 0.05 and oracle_dev <= 0.03
    _line(7, ok, f"varying-weight scan dev {dev:.4f} (<= 0.05); "
                 f"Hermite oracle dev {oracle_dev:.4f} (<= 0.03)")
    assert oracle_dev <= 0.03
    assert dev <= 0.05


def test_criterion_08_equilibrium_endpoints():
    gaps = []
    for n in (32, 64, 128, 256):
        weight = lw.equispaced_weight(n, B=2.0, root_cap=None)
        support = eq.solve_endpoints(weight)
        assert max(abs(r) for r in support.residuals) <= 1e-9
        gaps.append(max(abs(support.a + 1.0), abs(support.b - 1.0)))
    trend_ok = all(a > b for a, b in zip(gaps, gaps[1:]))

    pot = eq.AnalyticPotential(vprime=lambda s: s, domain=(-4.0, 4.0))
    support = eq.solve_endpoints(pot)
    grid = np.linspace(-1.98, 1.98, 101)
    g_err = max(
        abs(eq.equilibrium_density(pot, support, x) - float(semicircle_density(x))) for x in grid
    )
    ok = trend_ok and g_err <= 1e-6
    _line(8, ok, f"endpoint gaps {['%.4f' % g for g in gaps]} strictly decreasing: {trend_ok}; "
                 f"semicircle recovery sup error {g_err:.2e} (<= 1e-6)")
    assert trend_ok
    assert g_err <= 1e-6


def test_criterion_09_level_repulsion(gue200, poisson200):
    gue_curve = un.level_repulsion_curve(gue200, 0.0, np.array([0.9, 1.3, 1.9, 2.6]))
    poi_curve = un.level_repulsion_curve(poisson200, 0.0, np.array([0.3, 0.5, 0.8, 1.2]))
    ok = 3.2 <= gue_curve.fitted_exponent <= 4.8 and 1.6 <= poi_curve.fitted_exponent <= 2.4
    _line(9, ok, f"GUE exponent {gue_curve.fitted_exponent:.2f} (in [3.2, 4.8], "
                 f"hits {gue_curve.hits.tolist()}); Poisson exponent "
                 f"{poi_curve.fitted_exponent:.2f} (in [1.6, 2.4])")
    assert np.all(gue_curve.hits[gue_curve.hits >= 20] >= 20)
    assert 3.2 <= gue_curve.fitted_exponent <= 4.8
    assert 1.6 <= poi_curve.fitted_exponent <= 2.4


def test_criterion_10_dynamics_consistency():
    # Euler-Maruyama eigenvalue flow vs the exact matrix flow, N = 50
    n, paths, t, dt = 50, 500, 0.5, 1e-4
    lam0 = np.linspace(-1.0, 1.0, n)
    h0 = en.HermitianMatrix.from_dense(np.diag(lam0))
    dbm = np.empty((paths, n))
    ou = np.empty((paths, n))
    for i in range(paths):
        dbm[i] = en.dbm_integrate(lam0, dt, int(round(t / dt)), en.sample_stream(901, i)).final
        ou[i] = sp.eigenvalues(en.ou_evolve(h0, t, en.sample_stream(902, i)))
    a, b = np.sort(dbm.ravel()), np.sort(ou.ravel())
    grid = np.concatenate([a, b])
    grid.sort()
    ks = float(np.max(np.abs(
        np.searchsorted(a, grid, side="right") / a.size
        - np.searchsorted(b, grid, side="right") / b.size
    )))

    # scalar pathwise variance against the closed-form OU variance
    finals = np.empty(10000)
    for i in range(10000):
        finals[i] = en.dbm_integrate(np.array([0.0]), 0.02, 50, en.sample_stream(903, i)).final[0]
    var = float(np.var(finals))
    target = 1.0 - math.exp(-1.0)
    ok = ks < 0.05 and abs(var - target) <= 0.05 * target
    _line(10, ok, f"spectral KS {ks:.4f} (< 0.05, {paths} paths); scalar variance "
                  f"{var:.4f} vs {target:.4f} (+-5%)")
    assert ks < 0.05
    assert abs(var - target) <= 0.05 * target


def test_criterion_11_stieltjes_identity_scaling():
    ns = (16, 32, 64)
    etas = (2.0, 4.0, 8.0)
    rows = []
    for n in ns:
        weight = lw.equispaced_weight(n, B=2.0)
        quad = op.build_quadrature(weight, n + 1, margin=200)
        rec = op.stieltjes_recurrence(weight, quad, n + 1)
        for eta in etas:
            res = op.stieltjes_identity_residual(rec, n, 0.1 + 1j * eta)
            rows.append((math.log(n), math.log(eta), math.log(res)))
    a = np.array(rows)
    design = np.column_stack([a[:, 0], a[:, 1], np.ones(len(a))])
    coef, *_ = np.linalg.lstsq(design, a[:, 2], rcond=None)
    n_exp, eta_exp = float(coef[0]), float(coef[1])
    ok = abs(n_exp + 2.0) <= 0.5 and abs(eta_exp + 4.0) <= 0.5
    _line(11, ok, f"residual scaling exponents: n {n_exp:.2f} (target -2 +- 0.5), "
                  f"eta {eta_exp:.2f} (target -4 +- 0.5)")
    assert abs(n_exp + 2.0) <= 0.5
    assert abs(eta_exp + 4.0) <= 0.5
