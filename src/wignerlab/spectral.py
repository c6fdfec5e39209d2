"""Empirical spectral diagnostics: Stieltjes transforms, smoothed densities,
counting functions, semicircle comparisons, rigidity, repulsion sums, and
good-configuration classification.

All operations act on plain 1-D float arrays holding a strictly increasing
spectrum; ``require_spectrum`` is the shared validator. The rigidity and
repulsion statistics reduce one array over all bulk pairs. The
good-configuration thresholds are the constants ``GOOD_*``; only the support
bound K is an argument.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "require_spectrum",
    "eigenvalues",
    "empirical_stieltjes",
    "smoothed_density",
    "semicircle_density",
    "semicircle_stieltjes",
    "semicircle_cdf",
    "semicircle_cdf_inverse",
    "count_interval",
    "local_density",
    "semicircle_density_sup_deviation",
    "counting_function_sup_deviation",
    "window_size",
    "dyadic_scales",
    "GoodConfigReport",
    "good_config_check",
    "rigidity_check",
    "repulsion_sums",
]


def require_spectrum(values):
    """Validate and return a strictly increasing, finite 1-D float array."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("spectrum must be a nonempty 1-D array")
    if not np.all(np.isfinite(values)):
        raise ValueError("spectrum contains non-finite entries")
    if values.size > 1 and not np.all(np.diff(values) > 0):
        raise ValueError("spectrum must be strictly increasing")
    return values


def eigenvalues(hmat):
    """Full ascending spectrum of a Hermitian matrix.

    Numerically coincident eigenvalues are separated by successive ulps
    (with a warning) so the result is always a valid strict spectrum.
    """
    dense = hmat.to_dense() if hasattr(hmat, "to_dense") else np.asarray(hmat)
    if not np.all(np.isfinite(dense)):
        raise ValueError("matrix has non-finite entries")
    vals = np.linalg.eigvalsh(dense)
    if np.any(np.diff(vals) <= 0):
        warnings.warn("coincident eigenvalues separated by one ulp", RuntimeWarning)
        for i in range(1, len(vals)):
            if vals[i] <= vals[i - 1]:
                vals[i] = np.nextafter(vals[i - 1], np.inf)
    return vals


def empirical_stieltjes(spectrum, z):
    """m(z) = N^-1 sum_j 1/(lambda_j - z) for Im z != 0."""
    spectrum = require_spectrum(spectrum)
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("z must have nonzero imaginary part")
    return np.mean(1.0 / (spectrum - z))


def smoothed_density(spectrum, x, eta):
    """Cauchy-smoothed empirical density at scale eta.

    Equals pi^-1 Im m(x + i*eta) exactly; accepts scalar or array x.
    """
    spectrum = require_spectrum(spectrum)
    if eta <= 0:
        raise ValueError("eta must be positive")
    x = np.asarray(x, dtype=float)
    diffs = x[..., None] - spectrum
    vals = np.mean(eta / (diffs**2 + eta**2), axis=-1) / math.pi
    return vals if vals.ndim else float(vals)


def semicircle_density(x):
    """Semicircle density (2*pi)^-1 sqrt(4 - x^2) on [-2, 2]."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = np.abs(x) < 2.0
    out[inside] = np.sqrt(4.0 - x[inside] ** 2) / (2.0 * math.pi)
    return out if out.ndim else float(out)


def semicircle_stieltjes(z):
    """Stieltjes transform of the semicircle law, -z/2 + sqrt(z^2/4 - 1).

    The square root branch is the analytic extension off [-2, 2] of the
    positive root at large positive arguments, realised as
    sqrt(z - 2) * sqrt(z + 2) / 2 with principal square roots.
    """
    z = complex(z)
    if z.imag == 0.0 and -2.0 <= z.real <= 2.0:
        raise ValueError("z lies on the branch cut [-2, 2]")
    return -z / 2.0 + np.sqrt(z - 2.0) * np.sqrt(z + 2.0) / 2.0


def semicircle_cdf(E):
    """Distribution function of the semicircle law (closed form)."""
    E = np.asarray(E, dtype=float)
    Ec = np.clip(E, -2.0, 2.0)
    out = 0.5 + Ec * np.sqrt(4.0 - Ec**2) / (4.0 * math.pi) + np.arcsin(Ec / 2.0) / math.pi
    return out if out.ndim else float(out)


def semicircle_cdf_inverse(q):
    """Inverse of ``semicircle_cdf`` by bracketed Newton iteration.

    Each point stops at its own convergence, so its value does not depend on
    the other points of the batch.
    """
    q = np.asarray(q, dtype=float)
    if np.any(q < 0.0) or np.any(q > 1.0):
        raise ValueError("quantile must lie in [0, 1]")
    scalar = q.ndim == 0
    q = np.atleast_1d(q)
    # initial guess from the arcsine part alone, then Newton with bisection
    # safeguards against leaving the bracket
    lo = np.full_like(q, -2.0)
    hi = np.full_like(q, 2.0)
    x = 2.0 * np.sin(math.pi * (q - 0.5) / 2.0)
    done = np.zeros(q.shape, dtype=bool)
    for _ in range(100):
        f = semicircle_cdf(x) - q
        hi = np.where(f > 0, np.minimum(hi, x), hi)
        lo = np.where(f < 0, np.maximum(lo, x), lo)
        d = semicircle_density(x)
        step = np.where(d > 1e-12, f / np.maximum(d, 1e-300), 0.0)
        xn = x - step
        # a step onto a bracket end is kept: bisecting would restart a converged point
        bad = (xn < lo) | (xn > hi) | (d <= 1e-12)
        xn = np.where(bad, 0.5 * (lo + hi), xn)
        x, done = np.where(done, x, xn), done | (np.abs(xn - x) < 1e-13)
        if np.all(done):
            break
    x = np.where(q == 0.0, -2.0, x)
    x = np.where(q == 1.0, 2.0, x)
    return float(x[0]) if scalar else x


def count_interval(spectrum, a, b):
    """Number of eigenvalues in [a, b] by binary search."""
    spectrum = require_spectrum(spectrum)
    if a > b:
        raise ValueError("need a <= b")
    return int(np.searchsorted(spectrum, b, side="right") - np.searchsorted(spectrum, a, side="left"))


def local_density(spectrum, E, eta):
    """Windowed density estimate: count in [E - eta, E + eta] over 2*N*eta."""
    spectrum = require_spectrum(spectrum)
    E = np.atleast_1d(np.asarray(E, dtype=float))
    hi = np.searchsorted(spectrum, E + eta, side="right")
    lo = np.searchsorted(spectrum, E - eta, side="left")
    out = (hi - lo) / (2.0 * len(spectrum) * eta)
    return out if out.size > 1 else float(out[0])


def semicircle_density_sup_deviation(spectrum, eta_star):
    """sup_E |count[E-eta*, E+eta*]/(2 N eta*) - rho_sc(E)|, E in [-1.5, 1.5] by eta*/5."""
    if not (math.isfinite(eta_star) and eta_star > 0):
        raise ValueError("eta_star must be finite and positive")
    grid = np.arange(-1.5, 1.5 + eta_star / 5.0, eta_star / 5.0)
    dev = np.abs(local_density(spectrum, grid, eta_star) - semicircle_density(grid))
    return float(np.max(dev))


def counting_function_sup_deviation(spectrum):
    """max_E |N(-inf, E]/N - N_sc(E)|, exact over jump points (KS style)."""
    spectrum = require_spectrum(spectrum)
    N = len(spectrum)
    cdf = semicircle_cdf(spectrum)
    above = np.abs(np.arange(1, N + 1) / N - cdf)
    below = np.abs(np.arange(0, N) / N - cdf)
    return float(max(above.max(), below.max()))


# Good-configuration thresholds: desk-scale choices, not the paper's asymptotic constants.
GOOD_EPSILON = 0.3
GOOD_GAMMA = 0.1
GOOD_KAPPA = 0.1
GOOD_SCALE = 2.0  # multiplier on the dyadic-scale threshold


def window_size(N):
    """Odd window size n = 2*floor(N^epsilon / 2) + 1."""
    return 2 * int(N**GOOD_EPSILON / 2) + 1


def dyadic_scales(N):
    """Scales eta*_m = 2^m n^gamma / N for m = 0 .. log N, capped at 1/4."""
    n = window_size(N)
    scales = []
    for m in range(int(math.log(N)) + 1):
        eta = 2.0**m * n**GOOD_GAMMA / N
        if eta > 0.25:
            break
        scales.append(eta)
    return scales


@dataclass(frozen=True)
class GoodConfigReport:
    in_omega: bool
    worst_scale_m: int
    worst_deviation: float
    half_count_ok: bool
    density_cap_ok: bool
    support_ok: bool


def good_config_check(spectrum, K=10.0):
    """Evaluate the four good-configuration clauses and report the worst one.

    ``K`` bounds the support and the density cap. ``worst_deviation`` is the
    largest ratio of dyadic-scale density deviation to its threshold (<= 1
    means the clause holds), attained at scale index ``worst_scale_m``.
    """
    spectrum = require_spectrum(spectrum)
    N = len(spectrum)
    n = window_size(N)
    scales = dyadic_scales(N)

    e_lo, e_hi = -2.0 + GOOD_KAPPA / 2.0, 2.0 - GOOD_KAPPA / 2.0
    worst_ratio, worst_m = 0.0, 0
    for m, eta in enumerate(scales):
        grid = np.arange(e_lo, e_hi + eta / 4.0, eta / 4.0)
        # clause uses windows of length eta centered at E
        dev = np.max(np.abs(local_density(spectrum, grid, eta / 2.0) - semicircle_density(grid)))
        threshold = GOOD_SCALE * (N * eta) ** (-0.25) * n ** (GOOD_GAMMA / 12.0)
        ratio = dev / threshold
        if ratio > worst_ratio:
            worst_ratio, worst_m = ratio, m
    scales_ok = worst_ratio <= 1.0

    half = count_interval(spectrum, -np.inf, 0.0)
    half_count_ok = abs(half / (N / 2.0) - 1.0) <= n ** (-GOOD_GAMMA / 6.0)

    eta0 = scales[0] if scales else n**GOOD_GAMMA / N
    # sup over all window positions of the count in a length-eta0 window; the
    # sup is attained with the window's left edge at an eigenvalue
    hi = np.searchsorted(spectrum, spectrum + eta0, side="right")
    max_count = int(np.max(hi - np.arange(N)))
    density_cap_ok = max_count <= K * N * eta0

    support_ok = count_interval(spectrum, -K, K) == N

    return GoodConfigReport(
        in_omega=bool(scales_ok and half_count_ok and density_cap_ok and support_ok),
        worst_scale_m=worst_m,
        worst_deviation=float(worst_ratio),
        half_count_ok=bool(half_count_ok),
        density_cap_ok=bool(density_cap_ok),
        support_ok=bool(support_ok),
    )


def _bulk_indices(N, kappa):
    """1-based bulk index range [ceil(N kappa^1.5), floor(N (1 - kappa^1.5))]."""
    if not (0 < kappa < 1):
        raise ValueError("kappa must lie in (0, 1)")
    lo = int(math.ceil(N * kappa**1.5))
    hi = int(math.floor(N * (1 - kappa**1.5)))
    if lo < 1 or hi < lo:
        raise ValueError("kappa leaves no bulk indices")
    return lo, hi


def rigidity_check(spectrum, kappa):
    """Location and pair rigidity of bulk eigenvalues.

    Returns (max_location_dev, max_pair_dev): the worst distance of a bulk
    eigenvalue from its semicircle quantile, and the worst normalized pair
    deviation |N rho_sc(l_a)(l_b - l_a) - (b - a)| over the scaled gauge
    n^gamma |b-a|^(3/4) + |b-a|^2 / N, taken over the bulk pairs with
    0 < b - a <= N n^(-gamma/6) in one array (0 when there are none).
    """
    spectrum = require_spectrum(spectrum)
    N = len(spectrum)
    a_lo, a_hi = _bulk_indices(N, kappa)
    idx = np.arange(a_lo, a_hi + 1)  # 1-based indices
    quant = semicircle_cdf_inverse(idx / N)
    lam = spectrum[idx - 1]
    max_loc = float(np.max(np.abs(lam - quant)))

    ngam = window_size(N) ** GOOD_GAMMA
    pair_cap = int(N * window_size(N) ** (-GOOD_GAMMA / 6.0))
    a, b = np.triu_indices(len(idx), 1)  # positions of the bulk pairs a < b
    near = b - a <= pair_cap
    a, b = a[near], b[near]
    k = b - a
    dev = np.abs(N * semicircle_density(lam)[a] * (lam[b] - lam[a]) - k) / (ngam * k**0.75 + k**2 / N)
    return max_loc, float(np.max(dev, initial=0.0))


def repulsion_sums(spectrum, kappa):
    """Bulk-normalized inverse-square and inverse-absolute gap sums.

    Returns (inverse_square_sum, inverse_sum) where the first is
    N^-1 sum_{l in bulk} sum_{j != l} [N (lambda_j - lambda_l)]^-2 and the
    second the corresponding first-power absolute sum, both reduced over
    one (bulk x N) array of scaled differences.
    """
    spectrum = require_spectrum(spectrum)
    N = len(spectrum)
    l_lo, l_hi = _bulk_indices(N, kappa)
    bulk = np.arange(l_lo - 1, l_hi)
    diffs = N * (spectrum - spectrum[bulk, None])
    # the self term j = l becomes infinite, so it adds exactly 0 to both sums
    diffs[np.arange(len(bulk)), bulk] = np.inf
    return float(np.sum(diffs**-2.0)) / N, float(np.sum(np.abs(diffs) ** -1.0)) / N
