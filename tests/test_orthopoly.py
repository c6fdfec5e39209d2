import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from wignerlab import localwindow as lw
from wignerlab import orthopoly as op

from tests_support import gauss_legendre_reference


@pytest.fixture(scope="module")
def legendre():
    weight = lw.WeightSpec(n=16, roots=np.array([]))
    quad = op.build_quadrature(weight, 33)
    return op.stieltjes_recurrence(weight, quad, 33)


@pytest.fixture(scope="module")
def pointcharge16():
    weight = lw.equispaced_weight(16, B=2.0)
    quad = op.build_quadrature(weight, 17, margin=64)
    return op.stieltjes_recurrence(weight, quad, 17)


class TestQuadrature:
    def test_unit_weight_quartic_exact(self):
        weight = lw.WeightSpec(n=2, roots=np.array([]))
        quad = op.build_quadrature(weight, 2, margin=0)
        val = float(np.sum(quad.weights * quad.nodes**4))
        assert val == pytest.approx(2.0 / 5.0, abs=1e-14)

    def test_moments_match_high_precision_oracle(self):
        # slow mpmath oracle: int x^k prod (x - y)^2 dx at 40 digits
        weight = lw.WeightSpec(n=4, roots=np.array([-1.3, -1.0, 1.0, 1.7]))
        quad = op.build_quadrature(weight, 6)
        mpmath.mp.dps = 40
        roots = [mpmath.mpf(str(r)) for r in weight.roots]

        def w(x):
            out = mpmath.mpf(1)
            for r in roots:
                out *= (x - r) ** 2
            return out

        for k in range(0, 13, 3):
            oracle = mpmath.quad(lambda x, k=k: x**k * w(x), [-1, 1])
            mine = float(np.sum(quad.weights * quad.nodes**k * np.exp(weight.log_weight(quad.nodes))))
            assert mine == pytest.approx(float(oracle), rel=1e-12, abs=1e-14)

    def test_exactness_up_to_declared_degree(self):
        weight = lw.WeightSpec(n=2, roots=np.array([]))
        quad = op.build_quadrature(weight, 3, margin=2)
        k = quad.exact_degree - 1  # even by construction
        mine = float(np.sum(quad.weights * quad.nodes**k))
        assert mine == pytest.approx(2.0 / (k + 1.0), rel=1e-12)

    def test_node_count_linear_in_root_count(self):
        w1 = lw.WeightSpec(n=4, roots=np.array([-1.0, 1.0]))
        w2 = lw.WeightSpec(n=4, roots=np.concatenate([-(1 + np.arange(6) / 5.0), 1 + np.arange(6) / 5.0]))
        q1 = op.build_quadrature(w1, 4)
        q2 = op.build_quadrature(w2, 4)
        assert len(q2.nodes) - len(q1.nodes) == len(w2.roots) - len(w1.roots)

    def test_gauss_legendre_maps_onto_shifted_interval(self):
        # 6 nodes on [-1.5, 1.5], shifted by 2, integrate x^k exactly on [0.5, 3.5] through k = 11
        quad = op.gauss_legendre(6, half_width=1.5)
        assert quad.exact_degree == 11
        for k in range(12):
            exact = (3.5 ** (k + 1) - 0.5 ** (k + 1)) / (k + 1)
            assert float(np.sum(quad.weights * (2.0 + quad.nodes) ** k)) == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 3, 33])
    def test_gauss_legendre_exact_through_degree_2m_minus_1(self, m):
        quad = op.gauss_legendre(m)
        for k in range(2 * m):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert float(np.sum(quad.weights * quad.nodes**k)) == pytest.approx(exact, rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3, 33, 64, 4132])
    def test_gauss_legendre_exactly_symmetric(self, m):
        quad = op.gauss_legendre(m, half_width=0.7)
        assert np.array_equal(quad.nodes, -quad.nodes[::-1])
        assert np.array_equal(quad.weights, quad.weights[::-1])
        assert np.all(np.diff(quad.nodes) > 0) and np.all(quad.weights > 0)

    def test_gauss_legendre_matches_50_digit_newton(self):
        # the 4132-node rule of the default oplocal run, against Newton's
        # method on the Legendre recurrence at 50 digits, started from the
        # float node. numpy's eigenvalue-based leggauss misses both bounds
        # (end weight 3.6e-7, node m - 50 5.5e-11 relative).
        m = 4132
        quad = op.gauss_legendre(m)
        mpmath.mp.dps = 50
        for index, bound in [(m - 1, 1e-9), (m - 51, 1e-12)]:
            x = mpmath.mpf(quad.nodes[index])
            for _ in range(3):
                p_prev, p = mpmath.mpf(1), x
                for j in range(1, m):
                    p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
                dp = m * (p_prev - x * p) / (1 - x * x)
                x -= p / dp
            weight = 2 / ((1 - x * x) * dp * dp)
            assert abs(quad.nodes[index] - float(x)) <= 2e-16
            assert abs(quad.weights[index] / weight - 1) <= bound

    @pytest.mark.parametrize("counts, half_width", [(range(1, 201), 1.0), ([1066, 2000, 4132], 1.0), ([1066], 0.7)])
    def test_gauss_legendre_matches_all_nodes_newton(self, counts, half_width):
        # skipping fixed-point nodes changes no bit of the rule
        for count in counts:
            quad = op.gauss_legendre(count, half_width)
            nodes, weights = gauss_legendre_reference(count, half_width)
            assert np.array_equal(quad.nodes, nodes) and np.array_equal(quad.weights, weights), count

    def test_gauss_legendre_evaluates_only_moving_nodes(self, monkeypatch):
        # the all-nodes loop evaluates 4 rounds x 2066 nodes = 8264 at 4132 nodes
        evaluated = []
        recurrence = op._legendre_and_derivative

        def counting(m, x):
            evaluated.append(len(x))
            return recurrence(m, x)

        monkeypatch.setattr(op, "_legendre_and_derivative", counting)
        op.gauss_legendre(4132)
        assert evaluated[0] == 2066 and sum(evaluated) <= 2.5 * 2066

    def test_gauss_legendre_never_returns_an_unconverged_rule(self, monkeypatch):
        monkeypatch.setattr(op, "NEWTON_MAX_ITER", 2)
        with pytest.raises(FloatingPointError, match="did not converge"):
            op.gauss_legendre(50)

    def test_insufficient_rule_rejected(self):
        weight = lw.equispaced_weight(8, B=2.0)
        quad = op.build_quadrature(weight, 2)
        with pytest.raises(ValueError):
            op.stieltjes_recurrence(weight, quad, 50)


class TestRecurrence:
    def test_legendre_closed_form(self, legendre):
        rec = legendre
        j = np.arange(1, rec.max_degree + 1)
        assert np.max(np.abs(rec.beta**2 - j**2 / (4.0 * j**2 - 1.0))) < 1e-12
        assert np.max(np.abs(rec.alpha)) < 1e-12

    def test_carries_its_rule(self):
        weight = lw.equispaced_weight(16, B=2.0)
        quad = op.build_quadrature(weight, 17, margin=64)
        rec = op.stieltjes_recurrence(weight, quad, 17)
        assert rec.weight is weight and rec.quad is quad
        assert rec.max_degree == len(rec.alpha) == 17
        assert quad.exact_degree == 2 * len(quad.nodes) - 1

    def test_interior_double_root_two_precisions(self):
        # w = x^2 on [-1, 1]: the same recurrence must emerge at double the
        # node count (self-consistency at two precisions)
        weight = lw.WeightSpec(n=4, roots=np.array([0.0]), enforce_exterior=False)
        q1 = op.build_quadrature(weight, 24)
        q2 = op.build_quadrature(weight, 24, margin=8 + len(q1.nodes))
        r1 = op.stieltjes_recurrence(weight, q1, 24)
        r2 = op.stieltjes_recurrence(weight, q2, 24)
        assert np.max(np.abs(r1.alpha - r2.alpha)) < 1e-12
        assert np.max(np.abs(r1.beta - r2.beta)) < 1e-12
        # generalized-Gegenbauer structure: odd weight moments vanish
        assert np.max(np.abs(r1.alpha)) < 1e-12

    def test_symmetric_roots_zero_alpha(self, pointcharge16):
        rec = pointcharge16
        assert np.max(np.abs(rec.alpha)) < 1e-10

    def test_gram_residual(self, pointcharge16):
        rec = pointcharge16
        quad = rec.quad
        table = op._psi_table(rec, 16, quad.nodes)
        gram = (table * quad.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(17))) < 1e-8

    def test_node_root_sums_stay_small(self):
        # oplocal's defaults: 4002 roots on a 4132-node rule, so one
        # node x root array would take 132 MB
        weight = lw.equispaced_weight(64)
        quad = op.build_quadrature(weight, 65, margin=64)
        tracemalloc.start()
        try:
            rec = op.stieltjes_recurrence(weight, quad, 65)
            op._psi_table(rec, 63, quad.nodes)
            op._psi_table(rec, 63, quad.nodes.copy())  # other points sum over the roots
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(weight.roots) == 4002 and len(quad.nodes) == 4132
        assert peak < 32 * 2**20

    def test_psi_table_on_own_nodes_reuses_the_weight(self, pointcharge16):
        rec = pointcharge16
        own = op._psi_table(rec, 16, rec.quad.nodes)
        assert own.tobytes() == op._psi_table(rec, 16, rec.quad.nodes.copy()).tobytes()
        expected = rec.weight.log_weight(rec.quad.nodes) - rec.weight.log_shift
        assert rec.node_log_weight.tobytes() == expected.tobytes()

    def test_node_doubling_guard(self):
        weight = lw.equispaced_weight(12, B=2.0)
        assert op.recurrence_node_doubling_gap(weight, 13) < 1e-10

    def test_normalizer_cancels(self):
        import dataclasses

        weight = lw.equispaced_weight(10, B=2.0)
        shifted = dataclasses.replace(weight, log_shift=weight.log_shift + 25.0)
        q1 = op.build_quadrature(weight, 11)
        r1 = op.stieltjes_recurrence(weight, q1, 11)
        r2 = op.stieltjes_recurrence(shifted, q1, 11)
        xs = np.linspace(-0.95, 0.95, 11)
        a = op._psi_table(r1, 10, xs)[10]
        b = op._psi_table(r2, 10, xs)[10]
        assert np.max(np.abs(a - b)) < 1e-9 * np.max(np.abs(a))


class TestPsi:
    def test_constant_for_unit_weight(self, legendre):
        rec = legendre
        xs = np.linspace(-1, 1, 7)
        assert np.allclose(op._psi_table(rec, 0, xs)[0], 1.0 / math.sqrt(2.0), atol=1e-14)

    def test_orthonormal_under_quadrature(self, pointcharge16):
        rec = pointcharge16
        quad = rec.quad
        for j, k in [(3, 3), (7, 7), (3, 7), (0, 11)]:
            a = op._psi_table(rec, j, quad.nodes)[j]
            b = op._psi_table(rec, k, quad.nodes)[k]
            val = float(np.sum(quad.weights * a * b))
            assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-8)


class TestKernel:
    def test_reproducing_identity(self, pointcharge16):
        rec = pointcharge16
        quad = rec.quad
        n = 16
        xs = np.linspace(-0.9, 0.9, 20)
        left = op.kernel_matrix(rec, n, xs, quad.nodes)
        composed = (left * quad.weights) @ op.kernel_matrix(rec, n, quad.nodes, xs)
        direct = op.kernel_matrix(rec, n, xs, xs)
        assert np.max(np.abs(composed - direct)) < 1e-6

    def test_trace_is_order(self, pointcharge16):
        rec = pointcharge16
        quad = rec.quad
        n = 16
        diag = op.density(rec, n, quad.nodes) * n
        assert float(np.sum(quad.weights * diag)) == pytest.approx(n, abs=1e-8)

    def test_cauchy_schwarz(self, pointcharge16):
        rec = pointcharge16
        rng = np.random.default_rng(0)
        for _ in range(25):
            x, y = rng.uniform(-0.99, 0.99, 2)
            (kxx, kxy), (_, kyy) = op.kernel_matrix(rec, 16, np.array([x, y]))
            assert kxy**2 <= kxx * kyy * (1 + 1e-10)

    def test_crossover_band_agreement(self, pointcharge16):
        rec = pointcharge16
        x0 = 0.31
        for d in (2e-6, 5e-6, 2e-5):
            cd = op.kernel_matrix(rec, 16, np.array([x0]), np.array([x0 + d]))[0, 0]
            t = op._psi_table(rec, 15, np.array([x0, x0 + d]))
            direct = float(np.sum(t[:, 0] * t[:, 1]))
            assert cd == pytest.approx(direct, rel=1e-6)

    def test_symmetry_and_positivity(self, pointcharge16):
        rec = pointcharge16
        k = op.kernel_matrix(rec, 16, np.array([0.2, -0.4]))
        assert k[0, 1] == pytest.approx(k[1, 0], rel=1e-12)
        assert k[0, 0] >= 0


class TestDensityAndCorrelation:
    def test_density_normalized(self, pointcharge16):
        rec = pointcharge16
        quad = rec.quad
        rho = op.density(rec, 16, quad.nodes)
        assert float(np.sum(quad.weights * rho)) == pytest.approx(1.0, abs=1e-8)
        assert np.all(rho >= -1e-14)

    def test_top_weighted_polynomial_links_orders(self, pointcharge16):
        # psi_(n-1)^2 = n rho_n - (n-1) rho_(n-1)
        rec = pointcharge16
        xs = np.linspace(-0.9, 0.9, 9)
        psi = op._psi_table(rec, 15, xs)[15]
        lhs = psi**2
        rhs = 16 * op.density(rec, 16, xs) - 15 * op.density(rec, 15, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-8


class TestDensityDerivative:
    def test_symmetric_weight_flat_at_zero(self, pointcharge16):
        rec = pointcharge16
        assert abs(op.density_derivative(rec, 16, 0.0)) < 1e-6

    def test_unit_weight_matches_finite_difference(self, legendre):
        rec = legendre
        for x in (0.3, -0.55):
            formula = op.density_derivative(rec, 16, x)
            h = 1e-5
            fd = (op.density(rec, 16, x + h) - op.density(rec, 16, x - h)) / (2 * h)
            assert formula == pytest.approx(fd, rel=1e-4)

    def test_pointcharge_matches_finite_difference(self, pointcharge16):
        rec = pointcharge16
        for x in (0.3, -0.55):
            formula = op.density_derivative(rec, 16, x)
            h = 1e-5
            fd = (op.density(rec, 16, x + h) - op.density(rec, 16, x - h)) / (2 * h)
            assert formula == pytest.approx(fd, rel=1e-4)

    def test_desk_scale_flatness(self):
        weight = lw.equispaced_weight(64, B=2.0)
        quad = op.build_quadrature(weight, 65, margin=64)
        rec = op.stieltjes_recurrence(weight, quad, 65)
        xs = np.linspace(-0.8, 0.8, 33)
        rho = op.density(rec, 64, xs)
        rho0 = op.density(rec, 64, 0.0)
        assert np.max(np.abs(rho - rho0)) / rho0 <= 0.1

    def test_near_endpoint_rejected(self, pointcharge16):
        rec = pointcharge16
        with pytest.raises(ValueError):
            op.density_derivative(rec, 16, 1.0 - 1e-12)


class TestStieltjesIdentity:
    def test_unit_weight_single_function_closed_form(self, legendre):
        # n = 1, weight == 1: rho_1 = 1/2, m(z) = (log(1-z) - log(-1-z))/2,
        # V' = 0; residual is |m^2| and must sit below 10 n^-2 eta^-4
        rec = legendre
        z = 0.0 + 1.0j
        m = 0.5 * (np.log(1 - z) - np.log(-1 - z))
        res = op.stieltjes_identity_residual(rec, 1, z)
        assert res == pytest.approx(abs(m * m), rel=1e-10)
        assert res <= 10.0

    def test_eta_scaling(self):
        weight = lw.equispaced_weight(16, B=2.0)
        quad = op.build_quadrature(weight, 17, margin=200)
        rec = op.stieltjes_recurrence(weight, quad, 17)
        r2 = op.stieltjes_identity_residual(rec, 16, 0.1 + 2j)
        r4 = op.stieltjes_identity_residual(rec, 16, 0.1 + 4j)
        ratio = r2 / r4
        assert 8.0 <= ratio <= 24.0  # ~ eta^-4 per doubling

    def test_contract_bound(self):
        weight = lw.equispaced_weight(16, B=2.0)
        quad = op.build_quadrature(weight, 17, margin=200)
        rec = op.stieltjes_recurrence(weight, quad, 17)
        for eta in (2.0, 4.0):
            res = op.stieltjes_identity_residual(rec, 16, 0.1 + 1j * eta)
            assert res <= 10.0 * 16.0**-2 * eta**-4

    def test_real_axis_rejected(self, pointcharge16):
        rec = pointcharge16
        with pytest.raises(ValueError):
            op.stieltjes_identity_residual(rec, 16, 0.5)


class TestDerivativeNorms:
    def test_unit_weight_empty_sum(self, legendre):
        rec = legendre
        op73, _ = op.derivative_norm_checks(rec, 16)
        assert op73 == 0.0

    def test_legendre_derivative_growth(self):
        # oracle: finite-difference derivative of psi_(n-1) integrated on a
        # fine trapezoid grid; for the unit weight the growth is n^3
        weight = lw.WeightSpec(n=8, roots=np.array([]))
        vals = {}
        for n in (8, 16, 32):
            quad = op.build_quadrature(weight, n + 1, margin=64)
            rec = op.stieltjes_recurrence(weight, quad, n + 1)
            _, op51 = op.derivative_norm_checks(rec, n)
            xs = np.linspace(-1 + 1e-9, 1 - 1e-9, 20001)
            psi = op._psi_table(rec, n - 1, xs)[n - 1]
            dpsi = np.gradient(psi, xs)
            oracle = float(np.sum((dpsi[1:] ** 2 + dpsi[:-1] ** 2) / 2 * np.diff(xs)))
            assert op51 == pytest.approx(oracle, rel=2e-3)
            vals[n] = op51
        fit = np.polyfit(np.log([8, 16, 32]), np.log([vals[8], vals[16], vals[32]]), 1)[0]
        assert fit == pytest.approx(3.0, abs=0.3)

    def test_window_weight_norms_bounded(self):
        weight = lw.equispaced_weight(32, B=2.0)
        quad = op.build_quadrature(weight, 33, margin=64)
        rec = op.stieltjes_recurrence(weight, quad, 33)
        op73, op51 = op.derivative_norm_checks(rec, 32)
        assert op51 / 32.0**2 <= 1e3
        assert 0.0 < op73 < 1e3
