"""Equilibrium measure of a logarithmic gas under an external potential:
support endpoints, density via a principal-value integral, and the
local-universality condition report.

For point charges the endpoint equations and the density are exact sums
over the charges, as (1/pi) int_a^b ds/((s-y) sqrt((s-a)(b-s))) equals
sigma/sqrt((a-y)(b-y)), sigma = +1 left of a and -1 right of b; for analytic
potentials a Chebyshev-Gauss rule absorbs the endpoint square roots. The
conventions match an external potential V with equilibrium energy
int int log|s-t|^-1 dnu dnu + int V dnu; the local-universality dictionary
uses Q = V/2.
"""

import math
from dataclasses import dataclass

import numpy as np

from .orthopoly import density as op_density

__all__ = [
    "AnalyticPotential",
    "SupportInterval",
    "solve_endpoints",
    "equilibrium_density",
    "levin_lubinsky_report",
]


@dataclass(frozen=True)
class AnalyticPotential:
    """External potential given by an analytic V' on an interval.

    Point-charge potentials need no class of their own: a
    ``localwindow.WeightSpec`` is one, with V' = U'.
    """

    vprime: object
    domain: tuple = (-1.0, 1.0)

    def potential_derivative(self, s):
        """V'(s), elementwise."""
        s = np.asarray(s, dtype=float)
        return np.asarray([self.vprime(v) for v in np.atleast_1d(s)], dtype=float).reshape(s.shape)

    def derivative_quotient(self, x, s):
        """[V'(s) - V'(x)]/(s - x) at a scalar x, elementwise in s; a
        central-difference V''(x) where |s - x| is below a threshold. The
        step and the threshold scale with the width of ``domain``."""
        span = self.domain[1] - self.domain[0]
        h = 1e-6 * span
        vx, v_hi, v_lo = self.potential_derivative(np.array([x, x + h, x - h]))
        ds = np.asarray(s, dtype=float) - x
        quotient = (self.potential_derivative(s) - vx) / np.where(ds == 0, 1.0, ds)
        return np.where(np.abs(ds) > 1e-9 * span, quotient, (v_hi - v_lo) / (2 * h))


@dataclass(frozen=True)
class SupportInterval:
    a: float
    b: float
    residuals: tuple


def _charges(roots, a, b):
    """The charges y < a and y > b, then P = (a - y)(b - y) for each side."""
    left, right = roots[roots < a], roots[roots > b]
    return left, right, (a - left) * (b - left), (a - right) * (b - right)


def _pointcharge_system(roots, n, a, b):
    """The two endpoint equations and their Jacobian for point charges.

    F1 = (1/n) [sum_(y<a) P^-1/2 - sum_(y>b) P^-1/2]
    F2 = (1/n) [sum_k sigma_k y_k P_k^-1/2 + M] + 1,  P_k = (a-y_k)(b-y_k)
    with sigma_k = +1 for y_k < a and -1 for y_k > b.
    """
    left, right, pl, pr = _charges(roots, a, b)
    if np.any(pl <= 0) or np.any(pr <= 0):
        return None, None
    sl = pl**-0.5
    sr = pr**-0.5
    f1 = (np.sum(sl) - np.sum(sr)) / n
    f2 = (np.sum(left * sl) - np.sum(right * sr) + len(roots)) / n + 1.0

    # d(P^-1/2)/da = -(b-y)/(2 P^(3/2)), d/db = -(a-y)/(2 P^(3/2))
    dl_da = -0.5 * (b - left) * pl**-1.5
    dl_db = -0.5 * (a - left) * pl**-1.5
    dr_da = -0.5 * (b - right) * pr**-1.5
    dr_db = -0.5 * (a - right) * pr**-1.5
    j11 = (np.sum(dl_da) - np.sum(dr_da)) / n
    j12 = (np.sum(dl_db) - np.sum(dr_db)) / n
    j21 = (np.sum(left * dl_da) - np.sum(right * dr_da)) / n
    j22 = (np.sum(left * dl_db) - np.sum(right * dr_db)) / n
    return np.array([f1, f2]), np.array([[j11, j12], [j21, j22]])


def _chebyshev_nodes(a, b, m):
    theta = (np.arange(m) + 0.5) * math.pi / m
    return (a + b) / 2.0 + (b - a) / 2.0 * np.cos(theta)


def _analytic_system(pot, a, b):
    """Endpoint equations by 400-node Chebyshev-Gauss quadrature (weight absorbed)."""
    s = _chebyshev_nodes(a, b, 400)
    v = pot.potential_derivative(s)
    f1 = float(np.mean(v))                      # (1/pi) int V'/sqrt(...) ds
    f2 = float(np.mean(v * s) / 2.0 - 1.0)      # (1/2pi) int V' s/sqrt(...) ds - 1
    return np.array([f1, f2])


def _family(pot):
    """(start point, residual/Jacobian callable, bracket clamp, PV callable):
    the one place that tells the potential families apart.

    Point charges use the exact algebraic equations with their analytic
    Jacobian and start hugging the interval ends; analytic potentials use
    quadrature residuals with a central-difference Jacobian and start 5%
    inside the domain. ``clamp(an, bn, a, b)`` keeps a trial step ordered.
    ``pv(a, b, x)``, PV int_a^b V'(s)/((s-x) sqrt((s-a)(b-s))) ds for each x,
    sums over the charges, or takes 800 Chebyshev nodes after subtracting
    V'(x), whose PV integral vanishes on (a, b).
    """
    if isinstance(pot, AnalyticPotential):
        lo, hi = pot.domain
        span = hi - lo
        h = 1e-7 * span

        def system(a, b):
            ja = (_analytic_system(pot, a + h, b) - _analytic_system(pot, a - h, b)) / (2 * h)
            jb = (_analytic_system(pot, a, b + h) - _analytic_system(pot, a, b - h)) / (2 * h)
            return _analytic_system(pot, a, b), np.column_stack([ja, jb])

        def clamp(an, bn, a, b):
            return an, max(bn, an + 1e-12)

        def pv(a, b, x):
            s = _chebyshev_nodes(a, b, 800)
            return np.reshape([math.pi * float(np.mean(pot.derivative_quotient(v, s))) for v in x.flat], x.shape)

        return (lo + 0.05 * span, hi - 0.05 * span), system, clamp, pv

    n = pot.n

    def system(a, b):
        return _pointcharge_system(pot.roots, n, a, b)

    def clamp(an, bn, a, b):
        return min(max(an, -1.0 + 1e-14), b - 1e-13), max(min(bn, 1.0 - 1e-14), a + 1e-13)

    def pv(a, b, x):
        left, right, pl, pr = _charges(pot.roots, a, b)
        col = x[..., None]
        return (2.0 * math.pi / n) * (np.sum(pl**-0.5 / (col - left), -1) - np.sum(pr**-0.5 / (col - right), -1))

    return (-1.0 + 1.0 / (2.0 * n), 1.0 - 1.0 / (2.0 * n)), system, clamp, pv


def solve_endpoints(pot):
    """Support endpoints (a, b) of the equilibrium measure by damped Newton,
    to a residual below 1e-12 within 200 steps.

    ``pot`` is a point-charge ``WeightSpec`` or an ``AnalyticPotential``.
    """
    (a, b), system, clamp, _ = _family(pot)
    f, jac = system(a, b)
    for _ in range(200):
        step = np.linalg.solve(jac, f)
        scale = 1.0
        resid = float(np.max(np.abs(f)))
        for _ in range(60):
            an, bn = clamp(a - scale * step[0], b - scale * step[1], a, b)
            fn, jn = system(an, bn)
            if fn is not None and float(np.max(np.abs(fn))) <= resid * (1.0 + 1e-12):
                break
            scale *= 0.5
        else:
            raise RuntimeError("endpoint Newton iteration could not be damped into the bracket")
        a, b, f, jac = an, bn, fn, jn
        if float(np.max(np.abs(f))) < 1e-12:
            return SupportInterval(a=float(a), b=float(b), residuals=(float(f[0]), float(f[1])))
    raise RuntimeError("endpoint Newton iteration did not converge")


def equilibrium_density(pot, support, x):
    """Equilibrium density (1/2 pi^2) sqrt((x-a)(b-x)) PV int_a^b V'(s)/((s-x) sqrt(...)) ds,
    elementwise (a float for a scalar x); each x must lie in (a + 1e-8, b - 1e-8)."""
    a, b = support.a, support.b
    x = np.asarray(x, dtype=float)
    if not np.all((x > a + 1e-8) & (x < b - 1e-8)):
        raise ValueError("x must lie strictly inside the support")
    *_, pv = _family(pot)
    g = np.sqrt((x - a) * (b - x)) * pv(a, b, x) / (2.0 * math.pi**2)
    return g if x.ndim else float(g)


def equilibrium_mass(pot, support):
    """int_a^b g by a 200-node Chebyshev rule (sanity value, ~1)."""
    a, b = support.a, support.b
    s = _chebyshev_nodes(a, b, 200)
    g = equilibrium_density(pot, support, s)
    return float(np.sum(g * np.sqrt((s - a) * (b - s))) * math.pi / 200)


def levin_lubinsky_report(support, rec, J):
    """Desk-scale report of the four local-universality conditions on J for
    the point-charge potential of the recurrence's weight.

    (a) min/max of the equilibrium density g on a J-covering grid;
    (b) modulus of continuity of Q' = V'/2 at grid resolution;
    (c) min/max of the kernel density rho_n on J;
    (d) max over E in J, |x| <= 3 of |rho_n(E)/rho_n(E + x/n) - 1|, with
        E + x/n clipped to [-1, 1]; a ValueError if rho_n is not positive
        at every such point.
    """
    j_lo, j_hi = J
    if not (support.a < j_lo < j_hi < support.b):
        raise ValueError("J must be interior to the support")
    grid = np.linspace(j_lo, j_hi, 41)
    g = equilibrium_density(rec.weight, support, grid)
    qprime = rec.weight.potential_derivative(grid) / 2.0
    modulus = float(np.max(np.abs(np.diff(qprime))))
    n = rec.weight.n
    rho = op_density(rec, n, grid)
    offsets = np.linspace(-3.0, 3.0, 13)
    shifted = grid[:, None] + offsets[None, :] / n
    shifted = np.clip(shifted, -1.0, 1.0)
    rho_shift = op_density(rec, n, shifted.ravel()).reshape(shifted.shape)
    if not np.all(rho_shift > 0):  # at +-1 the weight's double roots make rho_n 0
        raise ValueError(f"rho_n vanishes at a point E + x/n (E in J, |x| <= 3) for n = {n}; "
                         "use a larger n or a narrower J")
    cond_d = float(np.max(np.abs(rho[:, None] / rho_shift - 1.0)))
    return {
        "a": float(support.a),
        "b": float(support.b),
        "residuals": [float(r) for r in support.residuals],
        "ll_conditions": {
            "a": {"min": float(np.min(g)), "max": float(np.max(g))},
            "b": modulus,
            "c": {"min": float(np.min(rho)), "max": float(np.max(rho))},
            "d": cond_d,
        },
    }
