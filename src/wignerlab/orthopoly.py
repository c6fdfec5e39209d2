"""Orthonormal polynomials for the varying polynomial weight
w = prod_k (x - y_k)^2 on [-1, 1]: recurrence construction, the
Christoffel-Darboux kernel, densities, and the consistency identities that
tie them together.

The weight is a polynomial, so every inner product is computed with an
exact-degree Gauss-Legendre rule; orthonormality residuals are then
rounding-limited. ``gauss_legendre`` builds every Gauss-Legendre rule of the
package, by Newton's method on the Legendre three-term recurrence (O(m^2)
flops, O(m) memory, no eigensolve), where a node whose Newton step no longer
moves it is a fixed point and is not evaluated again; its nodes and weights
are accurate to rounding, up to the float representation of the nodes
nearest +-1. A ``Recurrence`` carries its weight and rule, so the
diagnostics take the recurrence alone. Weight values always enter through
exp(log-sum) with the WeightSpec's additive normalizer, which cancels in all
orthonormal quantities; the recurrence keeps the normalized log-weight on
its rule's nodes, so the diagnostics that integrate on that rule do not sum
over the roots again. Polynomial recurrences run directly on the weighted
functions psi_j = p_j sqrt(w), which stay O(1) where p_j alone would
overflow.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quadrature",
    "gauss_legendre",
    "build_quadrature",
    "Recurrence",
    "stieltjes_recurrence",
    "recurrence_node_doubling_gap",
    "kernel_matrix",
    "density",
    "density_derivative",
    "stieltjes_identity_residual",
    "derivative_norm_checks",
]

NEAR_DIAGONAL = 1e-6  # |x - y| below this switches the kernel to the direct sum
NEWTON_TOL = 4 * np.finfo(float).eps  # last Newton step of the Gauss-Legendre nodes, a few ulp of 1
NEWTON_MAX_ITER = 12  # evaluation rounds; fixed-point nodes are not evaluated again; at most 5 rounds up to 8000 nodes


@dataclass(frozen=True)
class Quadrature:
    """Gauss-Legendre rule, exact for polynomials through ``exact_degree``."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def exact_degree(self):
        return 2 * len(self.nodes) - 1


def _legendre_and_derivative(m, x):
    """P_m(x) and P_m'(x) by the three-term recurrence, for |x| < 1.

    Each step writes ((2j + 1) x P_j - j P_(j-1)) / (j + 1) into the buffer
    that held P_(j-1), through one scratch buffer, so the recurrence
    allocates nothing per degree.
    """
    p_prev, p, scratch = np.ones_like(x), x.copy(), np.empty_like(x)
    for j in range(1, m):
        np.multiply(2 * j + 1, x, out=scratch)
        scratch *= p
        p_prev *= j
        np.subtract(scratch, p_prev, out=p_prev)
        p_prev /= j + 1
        p_prev, p = p, p_prev
    return p, m * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


def gauss_legendre(count, half_width=1.0):
    """``count``-node Gauss-Legendre rule on [-half_width, half_width].

    Newton's method on the Legendre recurrence from Tricomi's initial
    guesses, for the nonnegative nodes only (node 0 exactly when ``count``
    is odd); the negative half is their mirror image, so the rule is exactly
    symmetric. A node whose step x - P/P' rounds back to x is a fixed point:
    it keeps its last P' and step and is not evaluated again, so each round
    evaluates only the nodes the previous step moved, while the convergence
    test still reads every node's last step. Weights are
    2/((1 - x)(1 + x) P_m'(x)^2) at the converged nodes. O(count^2) flops and
    O(count) memory.
    """
    m = count
    h = m // 2
    k = np.arange(1, h + 1)
    x = (1.0 - 1.0 / (8.0 * m**2) + 1.0 / (8.0 * m**3)) * np.cos(math.pi * (4 * k - 1) / (4 * m + 2))
    x = np.append(x, [0.0] * (m % 2))  # descending
    dp = np.empty_like(x)
    step = np.empty_like(x)
    moving = np.arange(len(x))  # nodes whose last step changed them
    converged = False
    for _ in range(NEWTON_MAX_ITER):
        x_moving = x[moving]
        p, dp[moving] = _legendre_and_derivative(m, x_moving)
        if converged:
            break
        step[moving] = p / dp[moving]
        x[moving] = x_moving - step[moving]
        moving = moving[x[moving] != x_moving]
        converged = np.max(np.abs(step), initial=0.0) <= NEWTON_TOL
    else:
        raise FloatingPointError(f"Gauss-Legendre nodes did not converge for {m} nodes")
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)

    def mirror(v, sign):
        return np.concatenate((sign * v[:h], v[h:], v[:h][::-1]))

    return Quadrature(nodes=half_width * mirror(x, -1.0), weights=half_width * mirror(w, 1.0))


def build_quadrature(weight, order, margin=8):
    """Rule exact for every moment integral p_i p_j w with i, j <= order.

    The weight has polynomial degree 2M (M roots of multiplicity 2), so the
    required exactness is 2M + 2*order; node count grows linearly in M.
    """
    m = len(weight.roots)
    count = (2 * m + 2 * order) // 2 + 1 + margin
    return gauss_legendre(count)


@dataclass(frozen=True)
class Recurrence:
    """Jacobi coefficients of the orthonormal polynomials for one weight.

    ``alpha[j]`` is the diagonal coefficient a_j and ``beta[j]`` the
    off-diagonal b_(j+1) coupling degrees j and j+1, so that
    x p_j = beta[j] p_(j+1) + alpha[j] p_j + beta[j-1] p_(j-1). ``mass`` is
    the square root of the total weight integral (p_0 = 1/mass) for
    ``weight``, on the rule ``quad`` that the diagnostics integrate with;
    ``node_log_weight`` is log w - log_shift at ``quad.nodes``.
    """

    alpha: np.ndarray
    beta: np.ndarray
    mass: float
    weight: object
    quad: Quadrature
    node_log_weight: np.ndarray

    def __post_init__(self):
        if np.any(self.beta <= 0):
            raise ValueError("off-diagonal recurrence coefficients must be positive")

    @property
    def max_degree(self):
        return len(self.alpha)


def stieltjes_recurrence(weight, quad, max_degree):
    """Recurrence coefficients by the discrete Stieltjes procedure.

    Orthonormalizes degree by degree against the quadrature inner product;
    raises on loss of positivity in a beta (the symptom of an inexact rule
    or weight underflow).
    """
    if quad.exact_degree < 2 * len(weight.roots) + 2 * max_degree:
        raise ValueError("quadrature not exact for the needed moments")
    x = quad.nodes
    node_log_weight = weight.log_weight(x) - weight.log_shift
    wts = quad.weights * np.exp(node_log_weight)  # normalized weight
    mass_sq = float(np.sum(wts))
    if not mass_sq > 0:
        raise FloatingPointError("weight underflowed on the quadrature nodes")
    mass = math.sqrt(mass_sq)
    p_prev = np.zeros_like(x)
    p = np.full_like(x, 1.0 / mass)
    alpha = np.empty(max_degree)
    beta = np.empty(max_degree)
    b_prev = 0.0
    for j in range(max_degree):
        a_j = float(np.sum(wts * x * p * p))
        q = (x - a_j) * p - b_prev * p_prev
        b_sq = float(np.sum(wts * q * q))
        if not b_sq > 0 or not np.isfinite(b_sq):
            raise FloatingPointError(f"loss of positivity in beta at degree {j + 1}")
        b = math.sqrt(b_sq)
        alpha[j] = a_j
        beta[j] = b
        p_prev, p = p, q / b
        b_prev = b
    return Recurrence(alpha=alpha, beta=beta, mass=mass, weight=weight, quad=quad, node_log_weight=node_log_weight)


def recurrence_node_doubling_gap(weight, max_degree):
    """Self-consistency guard: recurrence drift when the node count doubles."""
    quad1 = build_quadrature(weight, max_degree)
    quad2 = build_quadrature(weight, max_degree, margin=8 + len(quad1.nodes))
    r1 = stieltjes_recurrence(weight, quad1, max_degree)
    r2 = stieltjes_recurrence(weight, quad2, max_degree)
    return float(np.max(np.abs(r1.alpha - r2.alpha)) + np.max(np.abs(r1.beta - r2.beta)))


def _psi_table(rec, degree, x):
    """psi_0..psi_degree at points x, shape (degree + 1, len(x)).

    Runs the three-term recurrence directly on psi_j = p_j sqrt(w)
    (normalized), which is the numerically bounded object. On the
    recurrence's own nodes (the same array object) the weight is read from
    the recurrence instead of summed over the roots again.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if degree > rec.max_degree:
        raise ValueError("degree exceeds the built recurrence")
    log_w = rec.node_log_weight if x is rec.quad.nodes else rec.weight.log_weight(x) - rec.weight.log_shift
    with np.errstate(over="ignore"):
        sqw = np.exp(0.5 * log_w)
    table = np.empty((degree + 1, len(x)))
    table[0] = sqw / rec.mass
    if degree >= 1:
        table[1] = (x - rec.alpha[0]) * table[0] / rec.beta[0]
    for j in range(1, degree):
        table[j + 1] = ((x - rec.alpha[j]) * table[j] - rec.beta[j - 1] * table[j - 1]) / rec.beta[j]
    return table


def kernel_matrix(rec, n, xs, ys=None):
    """K_n on a grid; CD form off the diagonal band, direct sum on it."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = xs if ys is None else np.atleast_1d(np.asarray(ys, dtype=float))
    tx = _psi_table(rec, n, xs)
    ty = tx if ys is xs else _psi_table(rec, n, ys)
    dx = xs[:, None] - ys[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        num = rec.beta[n - 1] * (np.outer(tx[n], ty[n - 1]) - np.outer(tx[n - 1], ty[n]))
        out = num / dx
    near = np.abs(dx) < NEAR_DIAGONAL
    if np.any(near):
        direct = tx[:n].T @ ty[:n]
        out[near] = direct[near]
    return out


def density(rec, n, x):
    """One-point density rho_n(x) = n^-1 K_n(x, x)."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    table = _psi_table(rec, n - 1, x_arr)
    vals = np.sum(table * table, axis=0) / n
    return vals if np.ndim(x) else float(vals[0])


def density_derivative(rec, n, x):
    """Derivative of the density through the kernel identity.

    rho_n'(x) = int [U'(z) - U'(x)] K_n(x, z)^2 dz
                + n^-1 [K_n(x, 1)^2 - K_n(x, -1)^2].

    The boundary term vanishes identically for window weights (double roots
    at +-1 kill the kernel there) and restores exactness for weights that do
    not vanish at the endpoints.
    """
    weight, quad = rec.weight, rec.quad
    if abs(x) >= 1.0 - 1e-8:
        raise ValueError("x too close to the interval endpoints")
    if np.any(weight.roots == x):
        raise ValueError("x coincides with a weight root")
    z = quad.nodes
    row = kernel_matrix(rec, n, np.array([x]), np.append(z, [1.0, -1.0]))[0]
    krow, k_hi, k_lo = row[:-2], row[-2], row[-1]
    u = weight.potential_derivative(np.append(z, x))  # U'(z), then U'(x)
    integral = float(np.sum(quad.weights * (u[:-1] - u[-1]) * krow**2))
    return integral + float(k_hi**2 - k_lo**2) / n


def stieltjes_identity_residual(rec, n, z):
    """|m_n(z)^2 + int U'(x) rho_n(x)/(x - z) dx| at z = u + i eta, eta > 0."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("z must have positive imaginary part")
    quad = rec.quad
    xs = quad.nodes
    rho = density(rec, n, xs)
    m = np.sum(quad.weights * rho / (xs - z))
    vprime = rec.weight.potential_derivative(xs)
    t = np.sum(quad.weights * vprime * rho / (xs - z))
    return float(abs(m * m + t))


def derivative_norm_checks(rec, n):
    """Quadrature values of the two derivative norms of psi_(n-1).

    Returns (op73, op51): the weighted inverse-distance norm
    int psi^2 [n^-1 sum_k |x - y_k|^-1]^2 dx and the derivative norm
    int (psi')^2 dx, to be read against n^(6 gamma) and n^(2 + 6 gamma)
    reference scalings.
    """
    weight, quad = rec.weight, rec.quad
    xs = quad.nodes
    # psi_j from the table; the derivatives p_j' sqrt(w) follow their own
    # recurrence, then psi' = p_(n-1)' sqrt(w) - (n/2) U' psi
    table = _psi_table(rec, n - 1, xs)
    dot_prev = dot = np.zeros_like(xs)
    for j in range(n - 1):
        b_prev = rec.beta[j - 1] if j > 0 else 0.0
        dot_prev, dot = dot, (table[j] + (xs - rec.alpha[j]) * dot - b_prev * dot_prev) / rec.beta[j]
    psi = table[n - 1]
    psi_prime = dot - 0.5 * weight.n * weight.potential_derivative(xs) * psi
    inv = weight.inverse_distance_sum(xs) / weight.n
    op73 = float(np.sum(quad.weights * psi**2 * inv**2))
    op51 = float(np.sum(quad.weights * psi_prime**2))
    return op73, op51
