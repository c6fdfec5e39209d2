import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerlab import localwindow as lw
from wignerlab import spectral as sp


@pytest.fixture(scope="module")
def quantile_spectrum():
    n = 2000
    return sp.semicircle_cdf_inverse((np.arange(1, n + 1) - 0.5) / n)


class TestExtract:
    def test_small_example(self):
        lam = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        win = lw.extract_window(lam, 1, 3)
        assert np.allclose(win.internal, [2.0, 3.0, 4.0])
        assert win.window == (1.0, 5.0)
        assert win.external_left.tolist() == [1.0]
        assert win.external_right.tolist() == [5.0]

    def test_left_edge_rejected(self):
        lam = np.linspace(0, 1, 6)
        with pytest.raises(ValueError):
            lw.extract_window(lam, 0, 3)

    def test_right_edge_rejected(self):
        lam = np.linspace(0, 1, 6)
        with pytest.raises(ValueError):
            lw.extract_window(lam, 3, 3)

    def test_gue_window_width(self, gue2000):
        target = 11.0 / (2000.0 * sp.semicircle_density(0.0))
        for row in gue2000.data[:20]:
            width = lw.extract_window(row, 1000, 11).width
            assert target / 3.0 <= width <= 3.0 * target


class TestRescale:
    def test_midpoint(self):
        lam = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        win = lw.extract_window(lam, 1, 3)
        res = lw.rescale(win, 2.0)
        assert res.internal_rescaled[1] == pytest.approx(0.0)
        assert res.external_left[0] == -1.0
        assert res.external_right[0] == 1.0

    def test_affine_jacobian(self):
        # densities transform with one factor 2/|I| per point; the map's
        # derivative must be exactly that constant
        lam = np.sort(np.random.default_rng(5).uniform(-2, 2, 40))
        win = lw.extract_window(lam, 10, 7)
        res = lw.rescale(win, 2.0)
        jac = 2.0 / win.width
        t = lambda v: (v - res.center) / res.half_width
        for a, b in [(win.window[0], win.window[1]), (win.internal[0], win.internal[-1])]:
            assert t(b) - t(a) == pytest.approx(jac * (b - a), rel=1e-12)

    def test_retained_roots_outside(self, gue2000):
        win = lw.extract_window(gue2000.data[0], 1000, 11)
        res = lw.rescale(win, 2.0)
        assert np.all(np.abs(res.external_rescaled) >= 1.0)

    def test_cutoff_count(self, gue2000):
        win = lw.extract_window(gue2000.data[0], 1000, 11)
        res = lw.rescale(win, 2.0)
        assert len(res.external_rescaled) <= 2 * 11**2

    def test_root_cap(self, gue2000):
        win = lw.extract_window(gue2000.data[0], 1000, 11)
        res = lw.rescale(win, 3.0, root_cap=50)
        assert len(res.external_left) == 50
        assert len(res.external_right) == 50

    def test_root_cap_counts_on_both_paths(self, gue2000):
        # a window keeps root_cap per side with +-1 counted, the equispaced
        # weight +-1 plus root_cap more; a cap of 0 keeps only +-1 on both
        win = lw.extract_window(gue2000.data[0], 1000, 11)
        assert len(lw.equispaced_weight(64).roots) == 2 * (1 + lw.DEFAULT_ROOT_CAP)
        assert list(lw.rescale(win, 2.0, root_cap=0).external_rescaled) == [-1.0, 1.0]
        assert list(lw.equispaced_weight(11, root_cap=0).roots) == [-1.0, 1.0]
        for cap in (-1, -2000):
            with pytest.raises(ValueError, match="root_cap must be nonnegative"):
                lw.rescale(win, 2.0, root_cap=cap)
            with pytest.raises(ValueError, match="root_cap must be nonnegative"):
                lw.equispaced_weight(11, root_cap=cap)

    def test_degenerate_window_rejected(self):
        win = lw.WindowDecomposition(
            L=1,
            internal=np.array([0.5]),
            external_left=np.array([0.5]),
            external_right=np.array([0.5]),
        )
        with pytest.raises(ValueError):
            lw.rescale(win, 2.0)

    def test_cutoff_index(self):
        # int(n^B) wherever it is finite; an overflowing n^B or a non-finite B
        # is a ValueError, also through rescale
        for n, B in [(11, 2.0), (9, 0.5), (64, 1.5), (3, 30.0)]:
            assert lw.cutoff_index(n, B) == int(n**B)
        with pytest.raises(ValueError, match="overflows"):
            lw.cutoff_index(3, 1000.0)
        with pytest.raises(ValueError, match="finite"):
            lw.cutoff_index(3, float("nan"))
        # below 1 it would drop even the bounding points; B = 0 is the cutoff 1
        with pytest.raises(ValueError, match="below 1"):
            lw.cutoff_index(3, -1.0)
        assert lw.cutoff_index(3, 0.0) == 1
        win = lw.extract_window(np.arange(9.0), 3, 3)
        with pytest.raises(ValueError, match="overflows"):
            lw.rescale(win, 1000.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(3, 9))
    def test_extract_rescale_preserves_ordering(self, L, n):
        rng = np.random.default_rng(L * 17 + n)
        lam = np.sort(rng.uniform(-3, 3, L + n + 5 + rng.integers(0, 6)))
        if np.min(np.diff(lam)) <= 0:
            return
        res = lw.rescale(lw.extract_window(lam, L, n), 2.0)
        assert np.all(np.diff(res.internal_rescaled) > 0)
        assert res.external_left[0] == -1.0 and res.external_right[0] == 1.0
        assert np.all(res.internal_rescaled > -1.0) and np.all(res.internal_rescaled < 1.0)


class TestPotential:
    def test_single_pair_at_endpoints(self):
        spec = lw.WeightSpec(n=1, roots=np.array([-1.0, 1.0]))
        assert spec.potential(0.0) == pytest.approx(0.0)  # -2*(log 1 + log 1)/1
        assert spec.potential_derivative(0.0) == pytest.approx(0.0)

    def test_symmetric_roots_odd_derivative(self):
        spec = lw.equispaced_weight(16, B=2.0)
        assert abs(spec.potential_derivative(0.0)) < 1e-10

    def test_equispaced_derivative_bounded_in_n(self):
        # interior first derivative stays O(1) as n grows
        sups = []
        for n in (32, 64, 128):
            spec = lw.equispaced_weight(n, B=2.0)
            xs = np.linspace(-0.9, 0.9, 181)
            sups.append(np.max(np.abs(spec.potential_derivative(xs))))
        assert max(sups) < 4.0  # measured ~3.2, slowly decreasing in n
        assert sups[2] <= sups[0]

    def test_weight_equals_exp_of_potential(self):
        spec = lw.equispaced_weight(8, B=2.0)
        xs = np.linspace(-0.99, 0.99, 51)
        direct = np.prod((xs[:, None] - spec.roots) ** 2, axis=1)
        via_u = np.exp(-spec.n * spec.potential(xs))
        mask = direct > 1e-280
        assert np.max(np.abs(via_u[mask] / direct[mask] - 1.0)) < 1e-10

    def test_potential_matches_value_function(self):
        # U' is the derivative of the value function U = -log w / n, at
        # scalar and array arguments alike
        spec = lw.equispaced_weight(8, B=2.0)
        xs = np.array([-0.6, 0.0, 0.37, 0.8])
        h = 1e-5
        fd = (spec.potential(xs + h) - spec.potential(xs - h)) / (2 * h)
        assert np.allclose(spec.potential_derivative(xs), fd, rtol=1e-6, atol=1e-9)
        assert spec.potential(0.37) == pytest.approx(spec.potential(xs)[2], rel=1e-14)
        assert spec.potential_derivative(0.37) == pytest.approx(spec.potential_derivative(xs)[2], rel=1e-14)

    @pytest.mark.parametrize("roots", [lw.equispaced_weight(8, B=2.0).roots, np.array([])],
                             ids=["128-roots", "no-roots"])
    @pytest.mark.parametrize("shape", ["scalar", "2-d", "blocks-plus-5"])
    def test_blocked_sums_equal_one_array_sums(self, roots, shape):
        spec = lw.WeightSpec(n=8, roots=roots)
        rows = lw.ROOT_BLOCK // max(len(roots), 1)  # points per block
        x = {"scalar": 0.37, "2-d": np.linspace(-0.9, 0.9, 12).reshape(3, 4),
             "blocks-plus-5": np.linspace(-0.99, 0.99, 3 * rows + 5)}[shape]
        d = np.asarray(x)[..., None] - spec.roots
        with np.errstate(divide="ignore"):
            log_w = 2.0 * np.sum(np.log(np.abs(d)), axis=-1)
        expected = {
            "log_weight": log_w,
            "potential_derivative": -(2.0 / 8) * np.sum(1.0 / d, axis=-1),
            "inverse_distance_sum": np.sum(1.0 / np.abs(d), axis=-1),
        }
        got = {
            "log_weight": spec.log_weight(x),
            "potential_derivative": spec.potential_derivative(x),
            "inverse_distance_sum": spec.inverse_distance_sum(x),
        }
        for name, value in got.items():
            if shape == "scalar":
                assert type(value) is float, name
            assert np.shape(value) == np.shape(x), name
            assert np.asarray(value).tobytes() == np.asarray(expected[name]).tobytes(), name


class TestTailSplit:
    def test_empty_tail(self):
        lam = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        win = lw.extract_window(lam, 1, 3)
        sup, ratio = lw.tail_split_check(win, 3.0)  # n^B = 27 > all externals
        grid_max = max(abs(5 * win.window[0]), abs(5 * win.window[1]))
        assert sup == pytest.approx(grid_max, rel=1e-6)

    def test_gue_ratio_envelope(self, gue2000):
        # desk-scale envelope measured by this oracle: values sit near
        # n^(3-B)/2 ~ 5.5 at B=2 (the asymptotic 0.1-scale bound needs B >= 20)
        ratios = []
        for row in gue2000.data:
            win = lw.extract_window(row, 1000, 11)
            ratios.append(lw.tail_split_check(win, 2.0)[1])
        ratios = np.asarray(ratios)
        assert np.mean(ratios <= 15.0) >= 0.9
        assert np.median(ratios) > 1.0  # genuinely not small at B=2

    def test_quantile_spectrum_cutoff_trend(self, quantile_spectrum):
        win = lw.extract_window(quantile_spectrum, 1000, 11)
        sups = [lw.tail_split_check(win, b)[0] / 2000.0 for b in (1.5, 2.0, 2.5, 3.0)]
        assert all(a > b for a, b in zip(sups, sups[1:]))


class TestAssumptionChecks:
    def _profile_window(self, n):
        # externals at +-(1 + k/n), k = 1..n, around a flat internal block
        internal = np.linspace(-0.9, 0.9, n)
        ks = np.arange(1, n + 1) / n
        return lw.RescaledWindow(
            center=0.0,
            half_width=1.0,
            internal_rescaled=internal,
            external_left=np.concatenate([[-1.0], -(1.0 + ks)]),
            external_right=np.concatenate([[1.0], 1.0 + ks]),
        )

    def test_harmonic_sum_oracle(self):
        n = 64
        res = self._profile_window(n)
        report = lw.assumption_checks(res, lambda x: 0.5, A=2.0)
        # oracle: the sup over [-1, 1] is attained at an endpoint; compute
        # both endpoint sums directly
        others = np.concatenate([res.external_left[1:], res.external_right[1:]])
        by_hand = max(
            float(np.sum(1.0 / np.abs(e - others))) for e in (-1.0, 1.0)
        )
        assert report["inverse_distance_sum"] == pytest.approx(by_hand, rel=1e-12)
        harmonic = n * float(np.sum(1.0 / np.arange(1, n + 1)))
        assert 0.9 * harmonic <= report["inverse_distance_sum"] <= 1.6 * harmonic

    def test_uniform_density_closed_form(self):
        n = 16
        res = self._profile_window(n)
        a_exp = 2.0
        delta = float(n) ** -a_exp
        report = lw.assumption_checks(res, lambda x: 0.5, A=a_exp)
        # antiderivative of (x+1)^-2 + (1-x)^-2 against the constant 1/2
        exact = 1.0 / delta - 1.0 / (2.0 - delta)
        assert report["edge_integral"] == pytest.approx(exact, rel=1e-8)

    def test_empty_far_externals(self):
        res = lw.RescaledWindow(
            center=0.0,
            half_width=1.0,
            internal_rescaled=np.linspace(-0.5, 0.5, 5),
            external_left=np.array([-1.0]),
            external_right=np.array([1.0]),
        )
        report = lw.assumption_checks(res, lambda x: 0.5, A=2.0)
        assert report["inverse_distance_sum"] == 0.0

    def test_density_called_once_on_the_nodes(self):
        res = self._profile_window(16)
        calls = []

        def density(x):
            calls.append(np.shape(x))
            return np.full(np.shape(x), 0.5)

        report = lw.assumption_checks(res, density, A=2.0)
        assert calls == [(2000,)]
        assert report == lw.assumption_checks(res, lambda x: 0.5, A=2.0)


class TestProfile:
    def test_gue_profile_within_twenty_percent(self, gue2000):
        devs = []
        for row in gue2000.data[:20]:
            win = lw.extract_window(row, 1000, 11)
            devs.append(lw.window_profile_deviation(win, lw.rescale(win, 2.0)))
        assert max(devs) <= 0.2

    def test_equispaced_weight_layout(self):
        spec = lw.equispaced_weight(8, B=2.0)
        assert spec.roots[0] == -spec.roots[-1]
        gaps = np.diff(spec.roots[spec.roots > 0])
        assert np.allclose(gaps, 2.0 / 8.0)
        assert np.min(spec.roots[spec.roots > 0]) == 1.0

    def test_no_profile_without_a_compared_root(self):
        # B = 0 keeps only the bounding points (k = 1 < n), so nothing is compared
        row = np.sort(np.random.default_rng(0).standard_normal(20)) / np.sqrt(5.0)
        win = lw.extract_window(row, 3, 3)
        assert lw.window_profile_deviation(win, lw.rescale(win, 0.0)) is None
        assert lw.window_profile_deviation(win, lw.rescale(win, 2.0)) is not None

    def test_no_profile_outside_the_support(self):
        # a window centered at 3.5 has rho_sc = 0 there, so no spacing is predicted
        win = lw.extract_window(np.arange(9.0), 3, 2)
        assert lw.window_profile_deviation(win, lw.rescale(win, 2.0)) is None
