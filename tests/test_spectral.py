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

    @settings(max_examples=50, deadline=None)
    @given(spectra(), st.floats(-3, 3), st.floats(1e-3, 2.0))
    def test_smoothed_density_matches_imaginary_part(self, lam, x, eta):
        m = sp.empirical_stieltjes(lam, complex(x, eta))
        assert sp.smoothed_density(lam, x, eta) == pytest.approx(m.imag / math.pi, abs=1e-12)


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


class TestRepulsionSums:
    def test_two_point_hand_value(self):
        # N=2, lam=(0, 1/2): N*(gap) = 1 so the inner term is 1; the bulk
        # range keeps only l=1 (floor(N(1 - kappa^1.5)) = 1), so the
        # normalized sums are 1/N = 1/2 by hand
        lam = np.array([0.0, 0.5])
        sq, ab = sp.repulsion_sums(lam, 0.05)
        assert sq == pytest.approx(0.5)
        assert ab == pytest.approx(0.5)

    def test_lattice_oracle(self):
        # equally spaced lam_a = a/N: compare against a brute-force double sum
        n = 500
        lam = np.arange(1, n + 1) / n
        kappa = 0.2
        sq, ab = sp.repulsion_sums(lam, kappa)
        lo = int(math.ceil(n * kappa**1.5))
        hi = int(math.floor(n * (1 - kappa**1.5)))
        brute_sq = 0.0
        for ell in range(lo, hi + 1):
            for j in range(1, n + 1):
                if j != ell:
                    brute_sq += 1.0 / (n * (lam[j - 1] - lam[ell - 1])) ** 2
        assert sq == pytest.approx(brute_sq / n, rel=1e-12)
        # interior per-site value approaches 2 * pi^2/6
        per_site = sq * n / (hi - lo + 1)
        assert per_site == pytest.approx(math.pi**2 / 3.0, rel=0.02)

    def test_gue_bulk_sums_bounded(self, gue1000):
        sums = [sp.repulsion_sums(row, 0.1)[0] for row in gue1000.data]
        assert np.mean(np.asarray(sums) <= 50.0) >= 0.9

    def test_coincident_values_rejected(self):
        with pytest.raises(ValueError):
            sp.repulsion_sums(np.array([0.0, 0.0, 1.0]), 0.1)


class TestSmoothedDensityMC:
    def test_gue_bulk_density(self, gue2000):
        vals = [sp.smoothed_density(row, 0.0, 0.01) for row in gue2000.data]
        assert abs(np.mean(vals) - 1.0 / math.pi) < 0.03

    def test_cauchy_peak(self):
        assert sp.smoothed_density(np.array([0.0]), 0.0, 1.0) == pytest.approx(1.0 / math.pi)


class TestDistributionChecks:
    def test_counting_function_deviation(self, gue2000):
        devs = [sp.counting_function_sup_deviation(row) for row in gue2000.data]
        assert np.mean(np.asarray(devs) <= 0.02) >= 0.9
