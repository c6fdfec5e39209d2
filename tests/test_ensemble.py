import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import ensemble as en
from wignerlab import spectral as sp

from tests_support import dbm_reference, transition_kernel_logdensity


def ks_distance(a, b):
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    grid.sort()
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def trace_square(h):
    """Tr H^2 = sum |H_ij|^2 of the dense Hermitian matrix."""
    return float(np.sum(np.abs(h.to_dense()) ** 2))


class TestConfig:
    def test_variance_window_rejected(self):
        with pytest.raises(ValueError):
            en.EnsembleConfig(N=100, beta_exponent=1.0)  # s^2 = 100^(1/4) > 1

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            en.EnsembleConfig(N=0)

    def test_unknown_law_rejected(self):
        with pytest.raises(ValueError):
            en.EnsembleConfig(N=10, entry_law="cauchy")


class TestSampling:
    def test_scalar_wigner_is_standard_normal(self):
        cfg = en.EnsembleConfig(N=1, beta_exponent=0.5)
        rng = en.sample_stream(1, 0)
        draws = np.array([en.sample_wigner(cfg, rng).packed[0] for _ in range(4000)])
        assert np.all(draws.imag == 0)
        assert abs(np.mean(draws.real)) < 4.0 / math.sqrt(4000)
        assert abs(np.var(draws.real) - 1.0) < 4.0 * math.sqrt(2.0 / 4000)

    def test_scalar_gue_is_standard_normal(self):
        rng = en.sample_stream(2, 0)
        draws = np.array([en.sample_gue(1, rng).packed[0].real for _ in range(4000)])
        assert abs(np.var(draws) - 1.0) < 4.0 * math.sqrt(2.0 / 4000)

    def test_trace_square_mean(self):
        # E Tr H^2 = N; Var(Tr H^2) = 2, so the mean of 200 samples
        # concentrates hard inside [480, 520]
        traces = [trace_square(en.sample_gue(500, en.sample_stream(7, i))) for i in range(200)]
        mean = np.mean(traces)
        assert 480.0 <= mean <= 520.0
        assert abs(mean - 500.0) <= 4.0 * 500.0 * math.sqrt(2.0 / 200)

    def test_wigner_trace_square_all_laws(self):
        # sd of the mean of Tr H^2 is sqrt(2/60) ~ 0.18 for every law
        for law in ("gaussian", "uniform", "rademacher-smoothed"):
            cfg = en.EnsembleConfig(N=300, beta_exponent=0.5, entry_law=law)
            traces = [
                trace_square(en.sample_wigner(cfg, en.sample_stream(8, i))) for i in range(60)
            ]
            assert abs(np.mean(traces) - 300.0) < 1.0

    def test_spectrum_support(self, gue2000):
        vals = gue2000.data[0]
        assert vals[0] >= -2.2 and vals[-1] <= 2.2

    def test_bulk_fraction_matches_semicircle(self, gue2000):
        # independent oracle: quadrature of the semicircle density over [-1,1]
        from scipy.integrate import quad

        target, _ = quad(sp.semicircle_density, -1.0, 1.0, epsabs=1e-12)
        fracs = [np.mean((row >= -1.0) & (row <= 1.0)) for row in gue2000.data[:20]]
        assert abs(np.mean(fracs) - target) < 0.02

    def test_hermitian_packing_roundtrip(self):
        h = en.sample_gue(7, en.sample_stream(11, 0))
        dense = h.to_dense()
        assert np.allclose(dense, dense.conj().T)
        assert np.allclose(en.HermitianMatrix.from_dense(dense).packed, h.packed)

    def test_from_dense_keeps_upper_triangle_and_real_diagonal(self):
        h = en.HermitianMatrix.from_dense(np.array([[1 + 1j, 2 + 3j], [5.0, 4 - 2j]]))
        dense = h.to_dense()
        assert np.array_equal(dense, np.array([[1, 2 + 3j], [2 - 3j, 4]]))
        assert not np.signbit(dense.diagonal().imag).any()

    @pytest.mark.parametrize("n", [1, 2, 7, 200])
    def test_to_dense_matches_sum_formula(self, n):
        h = en.sample_gue(n, en.sample_stream(12, n))
        ref = np.zeros((n, n), dtype=complex)
        ref[np.triu_indices(n)] = h.packed
        ref = ref + ref.conj().T
        ref[np.diag_indices(n)] /= 2.0
        dense = h.to_dense()
        assert np.array_equal(dense.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(dense, dense.conj().T)
        assert not np.signbit(dense.diagonal().imag).any()


class TestOUFlow:
    def test_zero_time_identity(self):
        h = en.sample_gue(20, en.sample_stream(1, 0))
        assert en.ou_evolve(h, 0.0, en.sample_stream(1, 1)) is h

    def test_negative_time_rejected(self):
        h = en.sample_gue(5, en.sample_stream(1, 0))
        for t in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                en.ou_evolve(h, t, en.sample_stream(1, 1))

    def test_evolve_is_exact_combination(self):
        h0 = en.sample_gue(15, en.sample_stream(30, 0))
        direction = en.sample_gue(15, en.sample_stream(30, 1))
        expected = math.exp(-0.4) * h0.packed + math.sqrt(1.0 - math.exp(-0.8)) * direction.packed
        assert np.array_equal(en.ou_evolve(h0, 0.8, en.sample_stream(30, 1)).packed, expected)

    def test_long_time_reaches_gue(self):
        n, samples = 100, 500
        evolved = np.empty(samples * n)
        fresh = np.empty(samples * n)
        for i in range(samples):
            st1 = en.sample_stream(31, i)
            h0 = en.sample_gue(n, st1)
            evolved[i * n : (i + 1) * n] = sp.eigenvalues(en.ou_evolve(h0, 50.0, st1))
            fresh[i * n : (i + 1) * n] = sp.eigenvalues(en.sample_gue(n, en.sample_stream(32, i)))
        assert ks_distance(evolved, fresh) < 0.05

    def test_stationarity_of_moments(self):
        # GUE input stays GUE in law: spectral moments 1, 2, 4 match within 3 sigma
        n, samples = 60, 500
        mom_t = np.empty((samples, 3))
        mom_0 = np.empty((samples, 3))
        for i in range(samples):
            stream = en.sample_stream(33, i)
            h0 = en.sample_gue(n, stream)
            v0 = sp.eigenvalues(h0)
            vt = sp.eigenvalues(en.ou_evolve(h0, 0.7, stream))
            mom_0[i] = [np.mean(v0), np.mean(v0**2), np.mean(v0**4)]
            mom_t[i] = [np.mean(vt), np.mean(vt**2), np.mean(vt**4)]
        for k in range(3):
            diff = np.mean(mom_t[:, k]) - np.mean(mom_0[:, k])
            sigma = math.sqrt((np.var(mom_t[:, k]) + np.var(mom_0[:, k])) / samples)
            assert abs(diff) <= 3.0 * sigma + 1e-12

    def test_semigroup_in_law(self):
        # ou(ou(H, t1), t2) and ou(H, t1 + t2) match in law (moments, 3 sigma)
        n, samples, t1, t2 = 60, 500, 0.3, 0.5
        a = np.empty((samples, 3))
        b = np.empty((samples, 3))
        for i in range(samples):
            s1 = en.sample_stream(34, i)
            h = en.sample_gue(n, s1)
            v1 = sp.eigenvalues(en.ou_evolve(en.ou_evolve(h, t1, s1), t2, s1))
            s2 = en.sample_stream(35, i)
            h2 = en.sample_gue(n, s2)
            v2 = sp.eigenvalues(en.ou_evolve(h2, t1 + t2, s2))
            a[i] = [np.mean(v1), np.mean(v1**2), np.mean(v1**4)]
            b[i] = [np.mean(v2), np.mean(v2**2), np.mean(v2**4)]
        for k in range(3):
            diff = np.mean(a[:, k]) - np.mean(b[:, k])
            sigma = math.sqrt((np.var(a[:, k]) + np.var(b[:, k])) / samples)
            assert abs(diff) <= 3.0 * sigma + 1e-12


class TestDbm:
    def test_scalar_ou_variance(self):
        paths = 5000
        finals = np.empty(paths)
        for i in range(paths):
            finals[i] = en.dbm_integrate(np.array([0.0]), 0.02, 50, en.sample_stream(100, i)).final[0]
        target = 1.0 - math.exp(-1.0)
        assert abs(np.var(finals) - target) <= 0.05 * target

    def test_ordering_enforced_every_step(self):
        lam0 = np.linspace(-1, 1, 20)
        path = en.dbm_integrate(lam0, 1e-3, 200, en.sample_stream(101, 0))
        assert path.trajectory.shape == (201, 20)
        assert np.all(np.diff(path.trajectory, axis=1) > 0)

    def test_unordered_input_rejected(self):
        with pytest.raises(ValueError):
            en.dbm_integrate(np.array([1.0, 0.0]), 1e-3, 1, en.sample_stream(1, 0))

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError):
            en.dbm_integrate(np.array([0.5, 0.5]), 1e-3, 1, en.sample_stream(1, 0))

    @pytest.mark.parametrize("dt, steps, message", [
        (float("nan"), 5, "dt must"), (float("inf"), 5, "dt must"), (0.0, 5, "dt must"), (-1e-3, 5, "dt must"),
        (1e-3, -1, "steps must"), (1e-3, 2.0, "steps must"), (1e-3, "5", "steps must"),
    ])
    def test_bad_dt_or_steps_rejected(self, dt, steps, message):
        with pytest.raises(ValueError, match=message):
            en.dbm_integrate(np.linspace(-1, 1, 5), dt, steps, en.sample_stream(1, 0))

    @pytest.mark.parametrize("lam0, dt, steps, seed", [
        (np.linspace(-1.0, 1.0, 50), 1e-4, 300, 901),  # criterion 10's start
        (np.linspace(-1.5, 1.5, 20), 1e-2, 300, 102),  # 334 proposals: rejections
        (np.array([0.0, 1e-3, 2e-3, 1.0]), 1e-3, 200, 5),
        (np.array([0.0]), 0.02, 50, 903),
        (np.linspace(-2.0, 2.0, 200), 1e-4, 100, 7),
    ], ids=["criterion10", "coarse", "close", "scalar", "N200"])
    def test_matches_reference_loop(self, lam0, dt, steps, seed):
        a, b = en.sample_stream(seed, 0), en.sample_stream(seed, 0)
        path = en.dbm_integrate(lam0, dt, steps, a)
        assert np.array_equal(path.trajectory, dbm_reference(lam0, dt, steps, b))
        assert repr(a.bit_generator.state) == repr(b.bit_generator.state)

    def test_proposals_and_depth_reported(self, monkeypatch):
        calls = []
        step = en._dbm_step

        def counted(*args):
            calls.append(args[-1])
            return step(*args)

        monkeypatch.setattr(en, "_dbm_step", counted)
        plain = en.dbm_integrate(np.linspace(-1.0, 1.0, 50), 1e-4, 300, en.sample_stream(901, 0))
        assert plain.proposals == len(calls) == 300 and plain.max_depth == 0
        calls.clear()
        coarse = en.dbm_integrate(np.linspace(-1.5, 1.5, 20), 1e-2, 300, en.sample_stream(102, 0))
        assert coarse.proposals == len(calls) > 300
        assert coarse.max_depth == max(calls) >= 1

    def test_matches_matrix_flow_in_law(self):
        # pilot version of the dynamics consistency experiment
        n, paths, t = 50, 120, 0.5
        lam0 = np.linspace(-1.0, 1.0, n)
        h0 = en.HermitianMatrix.from_dense(np.diag(lam0))
        dbm = np.empty((paths, n))
        ou = np.empty((paths, n))
        for i in range(paths):
            dbm[i] = en.dbm_integrate(lam0, 1e-3, 500, en.sample_stream(102, i)).final
            ou[i] = sp.eigenvalues(en.ou_evolve(h0, t, en.sample_stream(103, i)))
        assert ks_distance(dbm.ravel(), ou.ravel()) < 0.05


class TestTransitionKernel:
    def test_scalar_matches_printed_formula(self):
        lam, nu, s = np.array([0.7]), np.array([-0.3]), 0.9
        c = math.exp(-s / 2.0)
        var = 1.0 - c * c
        expected = math.log(1.0 / math.sqrt(2 * math.pi * var)) - (c * lam[0] - nu[0]) ** 2 / (2 * var)
        assert transition_kernel_logdensity(lam, nu, s) == pytest.approx(expected, abs=1e-12)

    def test_scalar_convention_gap_documented(self):
        # the printed Gaussian argument (c lam - nu)^2 differs from the
        # scalar OU transition density's (lam - c nu)^2; verify the exact
        # multiplicative relation between the two evaluations
        lam, nu, s = 0.7, -0.3, 0.9
        c = math.exp(-s / 2.0)
        var = 1.0 - c * c
        printed = transition_kernel_logdensity(np.array([lam]), np.array([nu]), s)
        scalar_ou = math.log(1.0 / math.sqrt(2 * math.pi * var)) - (lam - c * nu) ** 2 / (2 * var)
        gap = printed - scalar_ou
        expected_gap = ((lam - c * nu) ** 2 - (c * lam - nu) ** 2) / (2 * var)
        assert gap == pytest.approx(expected_gap, abs=1e-12)
        assert expected_gap == pytest.approx((lam**2 - nu**2) * (1 - c**2) / (2 * var), abs=1e-12)

    def test_large_time_symmetric_and_finite(self):
        lam = np.array([0.1, 0.9])
        val = transition_kernel_logdensity(lam, lam, 50.0)
        assert np.isfinite(val)
        rev = transition_kernel_logdensity(lam[::-1].copy(), lam[::-1].copy(), 50.0)
        assert val == pytest.approx(rev, abs=1e-10)

    def test_coincident_nu_rejected(self):
        with pytest.raises(ValueError):
            transition_kernel_logdensity(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 1.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            transition_kernel_logdensity(np.array([0.0, 1.0]), np.array([0.5]), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(-2, 2), min_size=2, max_size=5, unique=True),
        st.lists(st.floats(-2, 2), min_size=2, max_size=5, unique=True),
        st.permutations(range(5)),
        st.floats(0.3, 3.0),
    )
    def test_simultaneous_permutation_invariance(self, lam, nu, perm, s):
        n = min(len(lam), len(nu))
        lam = np.array(sorted(lam[:n]))
        nu = np.array(sorted(nu[:n]))
        if np.min(np.diff(lam)) < 1e-6 or np.min(np.diff(nu)) < 1e-6:
            return
        p = [i for i in perm if i < n]
        base = transition_kernel_logdensity(lam, nu, s)
        permuted = transition_kernel_logdensity(lam[p], nu[p], s)
        assert permuted == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_underflow_regime_stays_finite(self):
        # N = 12 spectra: the unscaled determinant entries underflow, the
        # scaled evaluation must not
        lam = sp.semicircle_cdf_inverse(np.arange(1, 13) / 13.0)
        nu = lam * 0.95
        val = transition_kernel_logdensity(lam, nu, 0.01)
        assert np.isfinite(val)
