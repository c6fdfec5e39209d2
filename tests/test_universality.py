import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

from wignerlab import ensemble as en
from wignerlab import localwindow as lw
from wignerlab import orthopoly as op
from wignerlab import spectral as sp
from wignerlab import universality as un
from wignerlab.archive import Archive


from tests_support import hermite_bulk_scan_dev


class TestSineKernel:
    def test_removable_singularity(self):
        assert un.sine_kernel(0.0) == 1.0
        assert un.gap_complement(0.0) == 0.0

    def test_integer_zeros(self):
        assert un.sine_kernel(1.0) == pytest.approx(0.0, abs=1e-15)
        assert un.gap_complement(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_half_point(self):
        assert un.sine_kernel(0.5) == pytest.approx(2.0 / math.pi, abs=1e-14)
        assert un.gap_complement(0.5) == pytest.approx(1.0 - 4.0 / math.pi**2, abs=1e-14)

    def test_series_branch_continuous(self):
        below, above = un.sine_kernel(9.999e-5), un.sine_kernel(1.0001e-4)
        assert abs(below - above) < 1e-8


class TestObservable:
    def test_h_normalized(self):
        obs = un.bump_observable(3.0)
        xs, ws = np.polynomial.legendre.leggauss(600)
        assert float(np.sum(3 * ws * obs.h(3 * xs))) == pytest.approx(1.0, abs=1e-8)

    def test_compact_support(self):
        obs = un.bump_observable(3.0)
        assert obs.g(np.array([3.0, 3.5, -4.0])).tolist() == [0.0, 0.0, 0.0]


class TestTwoPointEstimator:
    def test_zero_observable(self, gue400):
        obs = un.Observable(g=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                            h=un.bump_observable(3.0).h, support_radius=3.0)
        est = un.two_point_estimator(Archive(N=400, label="x", data=gue400.data[:50]), 0.0, 0.2, obs)
        assert est.value == 0.0

    def test_poisson_archive_gives_plain_g_integral(self, poisson200):
        obs = un.bump_observable(3.0)
        est = un.two_point_estimator(
            Archive(N=200, label="p", data=poisson200.data[:2000]), 0.0, 0.2, obs
        )
        xs, ws = np.polynomial.legendre.leggauss(400)
        int_g = float(np.sum(3 * ws * obs.g(3 * xs)))
        assert abs(est.value - int_g) <= 3.0 * est.stderr + 0.02 * int_g
        assert abs(est.value - est.reference) > 5.0 * est.stderr  # repulsion visible

    def test_reflection_invariance_at_center(self):
        rng = np.random.default_rng(3)
        data = np.sort(rng.uniform(-2, 2, size=(60, 150)), axis=1)
        obs = un.bump_observable(3.0)
        a = un.two_point_estimator(Archive(N=150, label="s", data=data), 0.0, 0.2, obs)
        b = un.two_point_estimator(Archive(N=150, label="s", data=np.sort(-data, axis=1)), 0.0, 0.2, obs)
        assert a.value == pytest.approx(b.value, rel=1e-9)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        rows = np.sort(rng.uniform(-2, 2, size=(40, 100)), axis=1)
        shuffled = rows.copy()
        for r in shuffled:
            rng.shuffle(r)
        shuffled.sort(axis=1)
        obs = un.bump_observable(3.0)
        a = un.two_point_estimator(Archive(N=100, label="s", data=rows), 0.0, 0.2, obs)
        b = un.two_point_estimator(Archive(N=100, label="s", data=shuffled), 0.0, 0.2, obs)
        assert a.value == b.value

    def test_direct_pair_and_node_loop(self):
        # the defining double sum over all pairs j != k of each sample and
        # all 33 energy nodes, with no window trimming
        N, E0, delta = 60, 0.1, 0.2
        data = np.array([sp.eigenvalues(en.sample_gue(N, en.sample_stream(5, i))) for i in range(5)])
        obs = un.bump_observable(3.0)
        est = un.two_point_estimator(Archive(N=N, label="s", data=data), E0, delta, obs)
        scale = N * sp.semicircle_density(E0)
        xs, ws = np.polynomial.legendre.leggauss(33)
        vals = []
        for lam in data:
            total = 0.0
            for j in range(N):
                for k in range(N):
                    if j == k:
                        continue
                    gv = float(obs.g((lam[j] - lam[k]) * scale))
                    if gv == 0.0:  # the pair is farther apart than the support of g
                        continue
                    for x, w in zip(xs, ws):
                        e = E0 + delta * x
                        total += w / 2.0 * gv * float(obs.h(((lam[j] + lam[k]) / 2.0 - e) * scale))
            vals.append(total * N / (N - 1))
        assert est.value == pytest.approx(np.mean(vals), rel=1e-12)
        assert est.stderr == pytest.approx(np.std(vals, ddof=1) / math.sqrt(5), rel=1e-12)

    def test_edge_window_rejected(self, gue400):
        obs = un.bump_observable(3.0)
        with pytest.raises(ValueError):
            un.two_point_estimator(gue400, 1.95, 0.2, obs)

    def test_empty_archive_rejected(self):
        obs = un.bump_observable(3.0)
        with pytest.raises(ValueError):
            un.two_point_estimator(np.empty((0, 10)), 0.0, 0.2, obs)


class TestKernelLimitScan:
    def test_hermite_oracle_calibration(self):
        offsets = np.linspace(-1.5, 1.5, 21)
        assert hermite_bulk_scan_dev(64, offsets) <= 0.03

    def test_diagonal_is_density_ratio(self):
        weight = lw.equispaced_weight(32, B=2.0)
        quad = op.build_quadrature(weight, 33, margin=64)
        rec = op.stieltjes_recurrence(weight, quad, 33)
        rho = op.density(rec, 32, 0.0)
        offs = np.linspace(-1.0, 1.0, 5)
        pts = offs / (32 * rho)
        scaled_diag = op.density(rec, 32, pts) / rho
        assert np.max(np.abs(scaled_diag - 1.0)) <= 0.05

    def test_convergence_trend(self):
        offsets = np.linspace(-1.5, 1.5, 13)
        devs = {}
        for n in (16, 64):
            weight = lw.equispaced_weight(n, B=2.0)
            quad = op.build_quadrature(weight, n + 1, margin=64)
            rec = op.stieltjes_recurrence(weight, quad, n + 1)
            rho = op.density(rec, n, 0.0)
            devs[n] = un.kernel_limit_scan(rec, n, 0.0, rho, offsets)
        assert devs[64] < devs[16]

    def test_domain_guard(self):
        weight = lw.equispaced_weight(16, B=2.0)
        quad = op.build_quadrature(weight, 17, margin=64)
        rec = op.stieltjes_recurrence(weight, quad, 17)
        with pytest.raises(ValueError):
            un.kernel_limit_scan(rec, 16, 0.99, 0.5, np.array([0.0, 3.0]))


class TestRepulsionCurves:
    def test_poisson_exponent_near_two(self, poisson200):
        curve = un.level_repulsion_curve(poisson200, 0.0, np.array([0.3, 0.5, 0.8, 1.2]))
        assert 1.6 <= curve.fitted_exponent <= 2.4

    def test_quantile_spectrum_is_deterministic_step(self):
        n = 200
        lam = sp.semicircle_cdf_inverse((np.arange(1, n + 1) - 0.5) / n)
        data = np.tile(lam, (50, 1))
        arc = Archive(N=n, label="quantile", data=data)
        for eps in (0.5, 1.0, 2.0, 4.0):
            half = eps / (2 * n)
            brute = int(np.sum((lam >= -half) & (lam <= half)) >= 2)
            curve = un.level_repulsion_curve(arc, 0.0, np.array([eps]), min_hits=1)
            assert curve.probabilities[0] in (0.0, 1.0)
            assert curve.probabilities[0] == brute

    def test_insufficient_hits_reported(self, poisson200):
        curve = un.level_repulsion_curve(poisson200, 0.0, np.array([1e-4, 2e-4]))
        assert math.isnan(curve.fitted_exponent)
        assert curve.exponent_stderr == float("inf")

    def test_wegner_linear_in_eps(self, gue200):
        eps = [0.5, 1.0, 2.0]
        vals = [un.wegner_statistic(gue200, 0.0, e) for e in eps]
        slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
        assert abs(slope - 1.0) <= 0.2

    def test_gap_tail_monotone(self, gue200):
        tail = un.gap_tail(gue200, 0.0, [1.0, 2.0, 4.0, 8.0])
        assert np.all(np.diff(tail) <= 0)
        assert np.all((tail >= 0) & (tail <= 1))

    def test_gap_tail_poisson_oracle(self, poisson200):
        # independent points: gap above E is ~ Exp(rho_sc(E)) in 1/N units
        tail = un.gap_tail(poisson200, 0.0, [1.0, 3.0])
        rho = 1.0 / math.pi
        for k, t in zip([1.0, 3.0], tail):
            assert t == pytest.approx(math.exp(-rho * k), abs=0.02)


class TestVandermondeStatistic:
    def test_hand_value(self):
        val = un.vandermonde_statistic(np.array([-1.0, 1.0]), eta=0.0)
        assert val == pytest.approx((2.0 - 2.0 * math.log(2.0)) / 4.0, abs=1e-14)

    def test_eta_zero_coincidence_rejected(self):
        with pytest.raises(ValueError):
            un.vandermonde_statistic(np.array([0.0, 1e-15]), eta=0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.permutations(range(6)))
    def test_exchangeable(self, perm):
        lam = np.array([-1.3, -0.5, 0.1, 0.4, 0.9, 1.7])
        a = un.vandermonde_statistic(np.sort(lam), eta=0.01)
        # the statistic reads the values only through pair distances
        from wignerlab.ensemble import log_vandermonde

        permuted = lam[list(perm)]
        direct = (6 / 2 * np.sum(permuted**2) - 2 * log_vandermonde(permuted, 0.01)) / 36.0
        assert direct == pytest.approx(a, rel=1e-12)

    def test_eta_sensitivity(self, gue400_small):
        row = gue400_small.data[0]
        with_eta = un.vandermonde_statistic(row)
        without = un.vandermonde_statistic(row, eta=0.0)
        assert abs(with_eta - without) <= 0.02

    def test_exact_finite_size_oracle(self, gue400_small):
        # closed form for the unregularized mean from d/dbeta of Mehta's
        # integral for the Hermite beta-ensemble at beta = 2
        N = 400
        j = np.arange(1, N + 1)
        exact_log_vdm = (
            -N * (N - 1) / 4.0 * math.log(N) + np.sum(j / 2.0 * digamma(1 + j)) - N / 2.0 * digamma(2.0)
        )
        exact_mean = (N**2 / 2.0 - 2.0 * exact_log_vdm) / N**2
        sample_mean = np.mean([un.vandermonde_statistic(r, eta=0.0) for r in gue400_small.data])
        assert sample_mean == pytest.approx(exact_mean, abs=5e-4)
        # the regularized statistic sits ~5e-3 below (eta comparable to the
        # mean spacing); this gap is what blocks the 0.73 window
        reg_mean = np.mean([un.vandermonde_statistic(r) for r in gue400_small.data])
        assert 0.0 < exact_mean - reg_mean < 0.01


class TestSemicircleConstants:
    def test_all_three(self):
        x2, log_energy, combo = un.semicircle_constants_check()
        assert x2 == pytest.approx(1.0, abs=1e-6)
        assert log_energy == pytest.approx(-0.25, abs=1e-6)
        assert combo == pytest.approx(0.75, abs=1e-6)
