import numpy as np
import pytest

from wignerlab import equilibrium as eq
from wignerlab import localwindow as lw
from wignerlab import orthopoly as op
from wignerlab.spectral import semicircle_density


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

    def test_interior_interval_required(self, equispaced64):
        _, support, rec = equispaced64
        with pytest.raises(ValueError):
            eq.levin_lubinsky_report(support, rec, (-1.5, 0.5))
