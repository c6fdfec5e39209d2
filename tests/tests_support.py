"""Independent oracles shared by the module and acceptance suites."""

import math

import numpy as np

from wignerlab.ensemble import log_vandermonde
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

