import numpy as np
import pytest

from wignerlab import equilibrium as eq
from wignerlab import localwindow as lw
from wignerlab import orthopoly as op
from wignerlab.spectral import semicircle_cdf_inverse, semicircle_density


@pytest.fixture(scope="module")
def quadratic_potential():
    pot = eq.AnalyticPotential(vprime=lambda s: s, domain=(-4.0, 4.0))
    return pot, eq.solve_endpoints(pot)


@pytest.fixture(scope="module")
def equispaced64():
    weight = lw.equispaced_weight(64, B=2.0)
    support = eq.solve_endpoints(weight)
    quad = op.build_quadrature(weight, 65, margin=64)
    rec = op.stieltjes_recurrence(weight, quad, 65)
    return weight, support, rec


def window_weight():
    """Weight of the n = 32 window at L = 484 of a jittered N = 1000 quantile
    spectrum: 968 roots, the shape of the benchmark's window."""
    N = 1000
    lam = semicircle_cdf_inverse((np.arange(N) + 0.5) / N)
    lam += np.random.default_rng(5).uniform(-2e-4, 2e-4, N)
    return lw.weight_from_window(lw.rescale(lw.extract_window(lam, 484, 32), 2.0))


def chebyshev_rule_density(weight, support, x, m):
    """g(x) by m Chebyshev-Gauss nodes after singularity subtraction, with the
    quotient [U'(s) - U'(x)]/(s - x) = (2/n) sum_k 1/((x - y_k)(s - y_k))."""
    a, b = support.a, support.b
    s = (a + b) / 2.0 + (b - a) / 2.0 * np.cos((np.arange(m) + 0.5) * np.pi / m)
    quotient = (2.0 / weight.n) * np.sum(1.0 / ((x - weight.roots) * (s[:, None] - weight.roots)), axis=1)
    return np.sqrt((x - a) * (b - x)) * np.pi * np.mean(quotient) / (2.0 * np.pi**2)


class TestEndpoints:
    def test_quadratic_potential_gives_semicircle_support(self, quadratic_potential):
        _, support = quadratic_potential
        assert support.a == pytest.approx(-2.0, abs=1e-9)
        assert support.b == pytest.approx(2.0, abs=1e-9)
        assert max(abs(r) for r in support.residuals) <= 1e-9

    def test_symmetric_pointcharge_support(self):
        weight = lw.equispaced_weight(32, B=2.0)
        support = eq.solve_endpoints(weight)
        assert support.a == pytest.approx(-support.b, abs=1e-10)

    def test_endpoint_gap_shrinks_with_n(self):
        gaps = []
        for n in (32, 64, 128, 256):
            weight = lw.equispaced_weight(n, B=2.0, root_cap=None)
            support = eq.solve_endpoints(weight)
            assert max(abs(r) for r in support.residuals) <= 1e-9
            gaps.append(max(abs(support.a + 1.0), abs(support.b - 1.0)))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_pointcharge_requires_exterior_roots(self):
        with pytest.raises(ValueError):
            lw.WeightSpec(n=4, roots=np.array([0.5]))


class TestDensity:
    def test_semicircle_recovery(self, quadratic_potential):
        pot, support = quadratic_potential
        for x in (0.0, 1.0, -1.0):
            assert eq.equilibrium_density(pot, support, x) == pytest.approx(
                float(semicircle_density(x)), abs=1e-8
            )

    def test_mass_is_one(self, quadratic_potential):
        pot, support = quadratic_potential
        assert eq.equilibrium_mass(pot, support) == pytest.approx(1.0, abs=1e-6)

    def test_pointcharge_mass_is_one(self, equispaced64):
        weight, support, _ = equispaced64
        assert eq.equilibrium_mass(weight, support) == pytest.approx(1.0, abs=1e-6)

    def test_pointcharge_density_flat_and_positive(self, equispaced64):
        weight, support, _ = equispaced64
        xs = np.linspace(-0.9, 0.9, 37)
        g = np.array([eq.equilibrium_density(weight, support, x) for x in xs])
        assert np.all(g > 0)
        assert np.max(g) / np.min(g) <= 1.5

    @pytest.mark.parametrize("m", [800, 1600])
    @pytest.mark.parametrize("make_weight", [window_weight, lambda: lw.equispaced_weight(64)],
                             ids=["window", "equispaced64"])
    def test_closed_form_matches_chebyshev_rule(self, make_weight, m):
        weight = make_weight()
        support = eq.solve_endpoints(weight)
        xs = np.linspace(-0.9, 0.9, 7)
        oracle = np.array([chebyshev_rule_density(weight, support, x, m) for x in xs])
        assert np.max(np.abs(eq.equilibrium_density(weight, support, xs) / oracle - 1.0)) <= 1e-14

    @pytest.mark.parametrize("family", ["pointcharge", "analytic"])
    def test_array_input_matches_scalar_calls(self, equispaced64, quadratic_potential, family):
        pot, support = quadratic_potential if family == "analytic" else equispaced64[:2]
        xs = np.linspace(-0.9, 0.9, 12).reshape(3, 4)
        scalars = [eq.equilibrium_density(pot, support, float(x)) for x in xs.flat]
        assert all(type(v) is float for v in scalars)
        assert eq.equilibrium_density(pot, support, xs).tobytes() == np.reshape(scalars, xs.shape).tobytes()

    def test_array_with_a_point_off_the_support_rejected(self, equispaced64):
        weight, support, _ = equispaced64
        for bad in (np.nan, support.a + 1e-8, support.b - 1e-8, support.b + 0.1):
            with pytest.raises(ValueError, match="strictly inside the support"):
                eq.equilibrium_density(weight, support, np.array([0.0, bad]))

    def test_analytic_derivative_quotient(self):
        pot = eq.AnalyticPotential(vprime=lambda s: s**3)
        x, s = 0.3, np.linspace(-0.9, 0.9, 20)
        assert np.allclose(pot.derivative_quotient(x, s), s**2 + s * x + x**2, rtol=1e-12, atol=0.0)
        assert float(pot.derivative_quotient(x, x)) == pytest.approx(3 * x**2, rel=1e-8)

    def test_outside_support_rejected(self, quadratic_potential):
        pot, support = quadratic_potential
        with pytest.raises(ValueError):
            eq.equilibrium_density(pot, support, support.b + 0.1)


class TestLevinLubinskyReport:
    def test_flat_potential_has_zero_modulus(self):
        weight = lw.WeightSpec(n=8, roots=np.array([]))
        quad = op.build_quadrature(weight, 9)
        rec = op.stieltjes_recurrence(weight, quad, 9)
        support = eq.SupportInterval(a=-0.999, b=0.999, residuals=(0.0, 0.0))
        report = eq.levin_lubinsky_report(support, rec, (-0.8, 0.8))
        assert report["ll_conditions"]["b"] == 0.0

    def test_equispaced_profile_conditions(self, equispaced64):
        _, support, rec = equispaced64
        report = eq.levin_lubinsky_report(support, rec, (-0.8, 0.8))
        cond = report["ll_conditions"]
        assert cond["d"] <= 0.1
        assert 0.3 <= cond["c"]["min"] <= cond["c"]["max"] <= 1.2
        assert cond["a"]["min"] > 0
        assert report["a"] < -0.9 and report["b"] > 0.9

    def test_vanishing_shifted_density_rejected(self):
        # at n = 4 the points E + x/n of J = [-0.8, 0.8] reach +-1, where the
        # weight's double roots make rho_n 0; condition (d) would be infinite
        weight = lw.equispaced_weight(4, B=2.0)
        quad = op.build_quadrature(weight, 5, margin=64)
        rec = op.stieltjes_recurrence(weight, quad, 5)
        with pytest.raises(ValueError, match="rho_n vanishes"):
            eq.levin_lubinsky_report(eq.solve_endpoints(weight), rec, (-0.8, 0.8))

    def test_density_evaluated_in_one_call(self, equispaced64, monkeypatch):
        _, support, rec = equispaced64
        calls = []
        density = eq.equilibrium_density
        monkeypatch.setattr(eq, "equilibrium_density", lambda *args: calls.append(args) or density(*args))
        eq.levin_lubinsky_report(support, rec, (-0.8, 0.8))
        assert len(calls) == 1

    def test_interior_interval_required(self, equispaced64):
        _, support, rec = equispaced64
        with pytest.raises(ValueError):
            eq.levin_lubinsky_report(support, rec, (-1.5, 0.5))
