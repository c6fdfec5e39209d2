"""Independent oracles shared by the module and acceptance suites."""

import math

import numpy as np

from wignerlab.ensemble import log_vandermonde
from wignerlab.orthopoly import NEWTON_MAX_ITER, NEWTON_TOL
from wignerlab.spectral import require_spectrum
from wignerlab.universality import sine_kernel


def hermite_bulk_scan_dev(n, offsets):
    """Exact harmonic-oscillator (Hermite) kernel at order n, scanned in
    bulk scaling at the spectrum center against the sine kernel.

    Built from the classical orthonormal-function recurrence only; shares
    no code with the varying-weight machinery it calibrates.
    """

    def table(x):
        x = np.atleast_1d(x)
        t = np.empty((n + 1, len(x)))
        t[0] = math.pi**-0.25 * np.exp(-(x**2) / 2.0)
        if n >= 1:
            t[1] = math.sqrt(2.0) * x * t[0]
        for j in range(1, n):
            t[j + 1] = math.sqrt(2.0 / (j + 1)) * x * t[j] - math.sqrt(j / (j + 1)) * t[j - 1]
        return t

    rho0 = float(np.sum(table(np.zeros(1))[:n, 0] ** 2)) / n
    pts = offsets / (n * rho0)
    t = table(pts)
    scaled = (t[:n].T @ t[:n]) / (n * rho0)
    ref = sine_kernel(offsets[:, None] - offsets[None, :])
    return float(np.max(np.abs(scaled - ref)))


def transition_kernel_logdensity(lam, nu, s):
    """Log of the explicit eigenvalue transition kernel after OU time s.

    Evaluates, with c = e^(-s/2),

        g_s(lam, nu) = N^(N/2) / ((2 pi)^(N/2) c^(N(N-1)/2) (1-c^2)^(N/2))
                       * Delta(lam)/Delta(nu)
                       * det[ exp(-N (c lam_j - nu_k)^2 / (2 (1-c^2))) ]

    in log space with row/column scaling of the determinant matrix. The
    Gaussian factor uses the (c lam_j - nu_k)^2 argument as printed; note
    that at N = 1 this matches the scalar density
    sqrt(1/(2 pi (1-c^2))) exp(-(c lam - nu)^2 / (2 (1-c^2))), whose
    argument convention differs from the scalar OU transition density
    (lam - c nu)^2 by a multiplicative factor depending on lam, nu only.

    Inputs must have equal length and pairwise distinct entries; the value
    is invariant under simultaneous identical permutation of lam and nu.
    For nearly coincident points the determinant is nearly singular and the
    value is only good to about 1e-6 relative: at lam = nu = [0, 1e-6, 1],
    s = 1, two orderings of the same input gave values 7.7e-7 apart before
    the sort below. Sorting makes the value reproducible, not more accurate.
    """
    lam = np.asarray(lam, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if lam.shape != nu.shape or lam.ndim != 1:
        raise ValueError("lam and nu must be 1-D of equal length")
    if s <= 0:
        raise ValueError("time must be positive")
    # Delta(lam)/Delta(nu) and the determinant each flip sign under
    # reordering and the product does not, so evaluate in sorted order: the
    # value is then exactly permutation invariant, and the determinant of the
    # totally positive Gaussian kernel must come out positive.
    lam, nu = np.sort(lam), np.sort(nu)
    N = len(lam)
    for v, name in ((lam, "lam"), (nu, "nu")):
        if N > 1 and np.min(np.diff(v)) <= 0:
            raise ValueError(f"coincident points in {name}")
    c = math.exp(-s / 2.0)
    one_mc2 = -math.expm1(-s)  # 1 - c^2

    log_pref = (
        0.5 * N * math.log(N)
        - 0.5 * N * math.log(2.0 * math.pi)
        - 0.5 * N * (N - 1) * math.log(c)
        - 0.5 * N * math.log(one_mc2)
    )

    log_ratio = log_vandermonde(lam) - log_vandermonde(nu)

    a = -N * (c * lam[:, None] - nu[None, :]) ** 2 / (2.0 * one_mc2)
    row = a.max(axis=1, keepdims=True)
    a = a - row
    col = a.max(axis=0, keepdims=True)
    a = a - col
    sign, logdet = np.linalg.slogdet(np.exp(a))
    if sign == 0 or not np.isfinite(logdet):
        raise FloatingPointError("transition determinant underflowed to singular")
    if sign < 0:
        raise FloatingPointError("transition determinant lost positivity")
    return float(log_pref + log_ratio + float(row.sum() + col.sum()) + logdet)


def _dbm_drift(lam, N):
    diffs = lam[:, None] - lam[None, :]
    np.fill_diagonal(diffs, np.inf)
    return -lam / 2.0 + np.sum(1.0 / diffs, axis=1) / N


def _dbm_step(lam, dt, N, rng, depth):
    prop = lam + _dbm_drift(lam, N) * dt + math.sqrt(dt / N) * rng.standard_normal(len(lam))
    if len(prop) == 1 or np.all(np.diff(prop) > 0):
        return prop
    if depth >= 40:
        raise RuntimeError("DBM substep controller failed to maintain ordering")
    half = _dbm_step(lam, dt / 2.0, N, rng, depth + 1)
    return _dbm_step(half, dt / 2.0, N, rng, depth + 1)


def dbm_reference(spectrum0, dt, steps, stream):
    """Trajectory of ``ensemble.dbm_integrate`` as one allocating Euler step
    and one ``standard_normal(N)`` call per proposal: the loop the buffered
    integrator must reproduce bit for bit, stream state included."""
    lam = require_spectrum(spectrum0).copy()
    N = len(lam)
    traj = np.empty((steps + 1, N))
    traj[0] = lam
    for k in range(steps):
        lam = _dbm_step(lam, dt, N, stream, 0)
        traj[k + 1] = lam
    return traj


def gauss_legendre_reference(count, half_width=1.0):
    """Nodes and weights of ``orthopoly.gauss_legendre`` by the all-nodes
    Newton loop: every round evaluates the allocating Legendre recurrence at
    every node, fixed points included. The rule that skips fixed points
    must reproduce it bit for bit."""

    def legendre_and_derivative(m, x):
        p_prev, p = np.ones_like(x), x.copy()
        for j in range(1, m):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        return p, m * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))

    m = count
    h = m // 2
    k = np.arange(1, h + 1)
    x = (1.0 - 1.0 / (8.0 * m**2) + 1.0 / (8.0 * m**3)) * np.cos(math.pi * (4 * k - 1) / (4 * m + 2))
    x = np.append(x, [0.0] * (m % 2))
    converged = False
    for _ in range(NEWTON_MAX_ITER):
        p, dp = legendre_and_derivative(m, x)
        if converged:
            break
        step = p / dp
        x = x - step
        converged = np.max(np.abs(step), initial=0.0) <= NEWTON_TOL
    else:
        raise FloatingPointError(f"Gauss-Legendre nodes did not converge for {m} nodes")
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)

    def mirror(v, sign):
        return np.concatenate((sign * v[:h], v[h:], v[:h][::-1]))

    return half_width * mirror(x, -1.0), half_width * mirror(w, 1.0)


def log_vandermonde_reference(values, eta=0.0):
    """``ensemble.log_vandermonde`` by gathering both ends of every pair
    through ``np.triu_indices``: the order and operations that the row-filled
    gap array must reproduce bit for bit."""
    values = np.asarray(values, dtype=float)
    iu = np.triu_indices(len(values), k=1)
    gaps = values[iu[0]] - values[iu[1]]
    if eta == 0.0:
        if np.any(np.abs(gaps) < 1e-14):
            raise ValueError("coincident values with eta = 0")
        return float(np.sum(np.log(np.abs(gaps))))
    return float(0.5 * np.sum(np.log(gaps**2 + eta**2)))
