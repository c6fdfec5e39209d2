import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wignerlab import ensemble as en
from wignerlab import spectral as sp

finite_floats = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


def spectra(min_size=1, max_size=12):
    """Strategy producing strictly increasing float arrays."""
    return (
        st.lists(finite_floats, min_size=min_size, max_size=max_size, unique=True)
        .map(sorted)
        .map(np.array)
        .filter(lambda v: len(v) == 1 or np.min(np.diff(v)) > 1e-9)
    )


class TestEigenvalues:
    def test_identity_ties_perturbed_with_warning(self):
        with pytest.warns(RuntimeWarning):
            vals = sp.eigenvalues(np.eye(3))
        assert np.allclose(vals, 1.0)
        assert np.all(np.diff(vals) > 0)

    def test_diagonal(self):
        assert np.allclose(sp.eigenvalues(np.diag([3.0, -1.0, 2.0])), [-1, 2, 3])

    def test_trace_identity_gue(self):
        h = en.sample_gue(200, en.sample_stream(3, 0))
        vals = sp.eigenvalues(h)
        assert abs(np.sum(vals) - np.trace(h.to_dense()).real) < 1e-8

    def test_eigenpair_residual(self):
        h = en.sample_gue(300, en.sample_stream(4, 0)).to_dense()
        vals, vecs = np.linalg.eigh(h)
        norm = np.linalg.norm(h, 2)
        resid = np.linalg.norm(h @ vecs - vecs * vals, axis=0)
        assert np.max(resid) <= 1e-10 * norm

    def test_nonfinite_rejected(self):
        m = np.eye(2)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            sp.eigenvalues(m)


class TestStieltjes:
    def test_single_eigenvalue(self):
        # 1/(0 - i) = i
        assert sp.empirical_stieltjes(np.array([0.0]), 1j) == pytest.approx(1j)

    def test_two_point_hand_value(self):
        # 0.5*[1/(-1-i) + 1/(1-i)] = i/2 by direct arithmetic
        expected = 0.5 * (1.0 / (-1 - 1j) + 1.0 / (1 - 1j))
        got = sp.empirical_stieltjes(np.array([-1.0, 1.0]), 1j)
        assert got == pytest.approx(expected)
        assert got == pytest.approx(0.5j)

    def test_real_z_rejected(self):
        with pytest.raises(ValueError):
            sp.empirical_stieltjes(np.array([0.0]), 1.0)


class TestSemicircle:
    def test_stieltjes_at_i(self):
        assert sp.semicircle_stieltjes(1j) == pytest.approx(1j * (math.sqrt(5) - 1) / 2, abs=1e-12)

    def test_stieltjes_at_10(self):
        assert sp.semicircle_stieltjes(10.0 + 0j) == pytest.approx(-5 + 2 * math.sqrt(6), abs=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(-4, 4), st.floats(-3, 3))
    def test_self_consistent_equation(self, re, im):
        z = complex(re, im)
        if im == 0 and abs(re) <= 2.001:
            return
        m = sp.semicircle_stieltjes(z)
        assert abs(m + 1.0 / (m + z)) < 1e-12

    def test_branch_cut_rejected(self):
        with pytest.raises(ValueError):
            sp.semicircle_stieltjes(0.5 + 0j)

    def test_boundary_value_gives_density(self):
        # Im m_sc(0 + i0+) -> pi * rho_sc(0) = 1
        assert sp.semicircle_stieltjes(1e-9j).imag == pytest.approx(1.0, abs=1e-6)

    def test_cdf_anchors(self):
        assert sp.semicircle_cdf(0.0) == pytest.approx(0.5)
        assert sp.semicircle_cdf(-2.0) == 0.0
        assert sp.semicircle_cdf(2.0) == 1.0

    def test_cdf_matches_quadrature(self):
        for e in (-1.5, -0.3, 0.9, 1.9):
            val, _ = quad(sp.semicircle_density, -2.0, e, epsabs=1e-13)
            assert sp.semicircle_cdf(e) == pytest.approx(val, abs=1e-12)

    def test_inverse_roundtrip(self):
        grid = np.linspace(-1.95, 1.95, 41)
        back = sp.semicircle_cdf_inverse(sp.semicircle_cdf(grid))
        assert np.max(np.abs(back - grid)) < 1e-10

    def test_inverse_residual_at_float_precision(self):
        # residual in x, |F(x) - q| / rho_sc(x), on a fine grid of q and the
        # bulk quantiles that rigidity_check inverts at N = 400, kappa = 0.1;
        # a Newton step that lands exactly on a bracket end must not send the
        # point back to bisection
        lo, hi = sp._bulk_indices(400, 0.1)
        q = np.concatenate([np.arange(1, 20002) / 20002.0, np.arange(lo, hi + 1) / 400.0])
        x = sp.semicircle_cdf_inverse(q)
        assert np.max(np.abs(sp.semicircle_cdf(x) - q) / sp.semicircle_density(x)) <= 2e-14

    def test_inverse_domain_check(self):
        with pytest.raises(ValueError):
            sp.semicircle_cdf_inverse(1.5)


class TestCounting:
    def test_count_basic(self):
        lam = np.array([-1.0, 0.0, 2.0])
        assert sp.count_interval(lam, -0.5, 2.5) == 2
        assert sp.count_interval(lam, -np.inf, np.inf) == 3

    @settings(max_examples=50, deadline=None)
    @given(spectra(min_size=2), st.floats(-5, 5), st.floats(0, 5), st.floats(0, 5))
    def test_additive_over_adjacent_intervals(self, lam, a, d1, d2):
        b, c = a + d1, a + d1 + d2
        total = sp.count_interval(lam, a, c)
        left = sp.count_interval(lam, a, b)
        right = sp.count_interval(lam, b, c)
        overlap = sp.count_interval(lam, b, b)
        assert left + right - overlap == total


class TestGoodConfig:
    def test_gue_mostly_good(self, gue2000):
        reports = [sp.good_config_check(row) for row in gue2000.data]
        assert np.mean([r.in_omega for r in reports]) >= 0.95

    def test_half_count_clause_fails_for_shifted_mass(self):
        lam = np.linspace(0.01, 0.99, 400)
        rep = sp.good_config_check(lam)
        assert not rep.half_count_ok
        assert not rep.in_omega

    def test_support_clause(self):
        lam = np.concatenate([np.linspace(-1.9, 1.9, 199), [10.0]])
        rep = sp.good_config_check(lam, K=5.0)
        assert not rep.support_ok


class TestRigidity:
    def test_quantile_spectrum_has_zero_location_dev(self):
        n = 400
        lam = sp.semicircle_cdf_inverse(np.arange(1, n + 1) / n)
        loc, _ = sp.rigidity_check(lam, 0.1)
        assert loc < 1e-9

    def test_gue_location_dev(self, gue2000):
        locs = [sp.rigidity_check(row, 0.1)[0] for row in gue2000.data]
        assert np.mean(np.asarray(locs) <= 0.05) >= 0.95

    def test_bulk_shift_detected(self):
        # the +0.5 shift must not cross a neighbor, else sorting reassigns
        # indices and the deviation collapses to one spacing; at N=4 the
        # central gap is 0.66, so the shifted point keeps its index
        n = 4
        lam = sp.semicircle_cdf_inverse(np.arange(1, n + 1) / n)
        base, _ = sp.rigidity_check(lam, 0.3)
        lam2 = lam.copy()
        lam2[1] += 0.5
        assert np.all(np.diff(lam2) > 0)
        shifted, _ = sp.rigidity_check(lam2, 0.3)
        assert shifted - base >= 0.4

    def test_kappa_range_check(self):
        lam = np.linspace(-1, 1, 10)
        with pytest.raises(ValueError):
            sp.rigidity_check(lam, 0.99)

    @pytest.mark.parametrize("N", [50, 400])
    @pytest.mark.parametrize("kappa", [0.1, 0.3])
    def test_max_pair_matches_double_loop(self, N, kappa):
        # brute force over the bulk pairs (a, b), 0 < b - a <= pair cap, with
        # the same float expression per pair: the maximum must be equal
        lam = sp.eigenvalues(en.sample_gue(N, en.sample_stream(17, N)))
        lo = math.ceil(N * kappa**1.5)
        hi = math.floor(N * (1 - kappa**1.5))
        n = sp.window_size(N)
        ngam = n**sp.GOOD_GAMMA
        cap = int(N * n ** (-sp.GOOD_GAMMA / 6.0))
        rho = sp.semicircle_density(lam)
        brute = 0.0
        for a in range(lo, hi + 1):
            for b in range(a + 1, min(hi, a + cap) + 1):
                k = np.int64(b - a)
                dev = abs(N * rho[a - 1] * (lam[b - 1] - lam[a - 1]) - k) / (ngam * k**0.75 + k**2 / N)
                brute = max(brute, float(dev))
        assert sp.rigidity_check(lam, kappa)[1] == brute


class TestSmoothedDensityMC:
    def test_gue_bulk_density(self, gue2000):
        vals = [sp.empirical_stieltjes(row, 0.01j).imag / math.pi for row in gue2000.data]
        assert abs(np.mean(vals) - 1.0 / math.pi) < 0.03

    def test_cauchy_peak(self):
        assert sp.empirical_stieltjes(np.array([0.0]), 1j).imag / math.pi == pytest.approx(1.0 / math.pi)


class TestDistributionChecks:
    def test_counting_function_deviation(self, gue2000):
        devs = [sp.counting_function_sup_deviation(row) for row in gue2000.data]
        assert np.mean(np.asarray(devs) <= 0.02) >= 0.9
