"""Headline statistics: the windowed two-point estimator, the sine-kernel
reference and kernel-limit scan, level repulsion / Wegner / gap-tail
curves, and the 3/4 energy constant of the log-gas.

Archive-based estimators consume (samples, N) arrays of ascending spectra
and reduce per-sample statistics to ensemble averages; within a sample,
each statistic is one array reduction, and the two-point estimator's runs
only over the eigenvalue pairs on which its observable's g can be nonzero.
The energy constant is checked by quadrature: one fixed rule carries the
second moment and the Chebyshev moments whose sum is the log energy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import log_vandermonde
from .orthopoly import gauss_legendre, kernel_matrix
from .spectral import require_spectrum, semicircle_cdf_inverse, semicircle_density

__all__ = [
    "sine_kernel",
    "gap_complement",
    "Observable",
    "bump_observable",
    "CorrelationEstimate",
    "two_point_estimator",
    "kernel_limit_scan",
    "RepulsionCurve",
    "level_repulsion_curve",
    "wegner_statistic",
    "gap_tail",
    "vandermonde_statistic",
    "semicircle_constants_check",
    "poisson_spectra",
]


def sine_kernel(u):
    """sin(pi u)/(pi u), 1 at u = 0."""
    out = np.sinc(np.asarray(u, dtype=float))
    return out if out.ndim else float(out)


def gap_complement(u):
    """1 - (sin(pi u)/(pi u))^2, the pair-correlation limit."""
    s = np.asarray(sine_kernel(u))
    out = 1.0 - s * s
    return out if out.ndim else float(out)


def _as_data(archive):
    """(samples, N) float array of an ``Archive`` or of a raw array."""
    return np.asarray(archive.data if hasattr(archive, "data") else archive, dtype=float)


@dataclass(frozen=True)
class Observable:
    """Test observable g(a - b) h((a + b)/2): g even with compact support,
    h nonnegative with unit integral, both vanishing outside [-R, R]."""

    g: object
    h: object
    support_radius: float


def _bump(u, radius):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < radius
    v = u[inside] / radius
    out[inside] = np.exp(-1.0 / (1.0 - v * v))
    return out


def bump_observable(radius=3.0):
    """Smooth compactly supported bump pair; h normalized to unit integral."""
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be finite and positive")
    rule = gauss_legendre(400, half_width=radius)
    norm = float(np.sum(rule.weights * _bump(rule.nodes, radius)))
    return Observable(
        g=lambda u, r=radius: _bump(u, r),
        h=lambda u, r=radius, c=norm: _bump(u, r) / c,
        support_radius=radius,
    )


@dataclass(frozen=True)
class CorrelationEstimate:
    E0: float
    delta: float
    samples: int
    value: float
    stderr: float
    reference: float


def sine_kernel_reference(obs):
    """int g(u) [1 - sinc^2(u)] du by a 400-node Gauss rule on the support of g."""
    rule = gauss_legendre(400, half_width=obs.support_radius)
    xs = rule.nodes
    return float(np.sum(rule.weights * np.asarray(obs.g(xs)) * gap_complement(xs)))


def two_point_estimator(archive, E0, delta, obs):
    """Windowed two-point statistic of an eigenvalue archive.

    Monte-Carlo average over samples of
    (N/(N-1)) sum_{j != k} (2 delta)^-1 int_(E0-delta)^(E0+delta)
        g((l_j - l_k) N rho) h(((l_j + l_k)/2 - E) N rho) dE
    with rho = rho_sc(E0) (the O(delta) center simplification) and the
    energy average done by a 33-node Gauss rule: per sample, the pairs
    j != k among the eigenvalues near the window with |l_j - l_k| N rho
    <= R, the support radius of g, are the only ones g sees; g is evaluated
    once per pair and h at all nodes in one (nodes x pairs) array,
    contracted with the rule's weights. The reference field carries the
    sine-kernel prediction int g (1 - sinc^2). Spectra need N >= 2.
    """
    data = _as_data(archive)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("archive must hold at least two samples")
    samples, N = data.shape
    if N < 2:
        raise ValueError("spectra must hold at least two eigenvalues")
    rho = semicircle_density(E0)
    if rho <= 0:
        raise ValueError("E0 lies outside the bulk")
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError("delta must be finite and positive")
    if abs(E0) + delta >= 2.0:
        raise ValueError("energy window reaches the spectral edge")
    R = obs.support_radius
    unit = gauss_legendre(33)
    e_nodes = E0 + delta * unit.nodes
    e_weights = unit.weights / 2.0  # (2 delta)^-1 times the mapped weights delta * w
    margin = 2.0 * R / (N * rho)
    lo, hi = e_nodes[0] - margin, e_nodes[-1] + margin

    vals = np.empty(samples)
    for i in range(samples):
        lam = data[i]
        sub = lam[np.searchsorted(lam, lo) : np.searchsorted(lam, hi, side="right")]
        u = (sub[:, None] - sub[None, :]) * (N * rho)
        near = np.abs(u) <= R  # g vanishes only outside [-R, R]
        np.fill_diagonal(near, False)
        j, k = np.nonzero(near)
        gv = np.asarray(obs.g(u[j, k]))
        centers = (sub[j] + sub[k]) / 2.0
        hv = np.asarray(obs.h((centers - e_nodes[:, None]) * (N * rho)))
        vals[i] = float(np.sum(gv * hv, axis=1) @ e_weights) * N / (N - 1)
    value = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return CorrelationEstimate(
        E0=float(E0),
        delta=float(delta),
        samples=samples,
        value=value,
        stderr=stderr,
        reference=sine_kernel_reference(obs),
    )


def kernel_limit_scan(rec, n, E, rho_n_E, grid):
    """Worst deviation of the rescaled kernel from the sine kernel.

    max over offset pairs (a, b) in the grid (restricted to |a - b| <= 3) of
    |(n rho)^-1 K_n(E + a/(n rho), E + b/(n rho)) - sinc(a - b)|; a
    ValueError unless rho = rho_n_E is finite and positive.
    """
    if not (math.isfinite(rho_n_E) and rho_n_E > 0):
        raise ValueError(f"rho_n vanishes at E = {E:g}: the weight has double roots at +-1")
    grid = np.asarray(grid, dtype=float)
    pts = E + grid / (n * rho_n_E)
    if not np.all(np.abs(pts) <= 1.0):  # NaN points fail too
        raise ValueError("scan leaves the weight's interval")
    scaled = kernel_matrix(rec, n, pts) / (n * rho_n_E)
    seps = grid[:, None] - grid[None, :]
    ref = sine_kernel(seps)
    dev = np.abs(scaled - ref)
    dev[np.abs(seps) > 3.0] = 0.0
    return float(np.max(dev))


@dataclass(frozen=True)
class RepulsionCurve:
    eps_grid: np.ndarray
    probabilities: np.ndarray
    hits: np.ndarray
    fitted_exponent: float
    exponent_stderr: float


def _interval_counts(data, E, eps):
    """Eigenvalue counts in [E - eps/(2N), E + eps/(2N)] per sample."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and positive")
    N = data.shape[1]
    half = eps / (2.0 * N)
    return np.sum((data >= E - half) & (data <= E + half), axis=1)


def level_repulsion_curve(archive, E, eps_grid, min_hits=20):
    """Empirical P(at least two eigenvalues in [E - eps/2N, E + eps/2N])
    with a weighted log-log exponent fit.

    ``np.polyfit`` weights each log p by 1/sigma, sigma its Wilson
    half-width at z = 1 over p. Bins with fewer than ``min_hits`` hits are
    excluded from the fit (reported, not thrown); with fewer than two left
    the exponent is NaN and its stderr infinite.
    """
    data = _as_data(archive)
    samples = data.shape[0]
    eps_grid = np.asarray(eps_grid, dtype=float)
    hits = np.empty(len(eps_grid), dtype=int)
    for i, eps in enumerate(eps_grid):
        counts = _interval_counts(data, E, eps)
        hits[i] = int(np.sum(counts >= 2))
    probs = hits / samples

    use = hits >= min_hits
    if np.sum(use) < 2:
        return RepulsionCurve(eps_grid, probs, hits, float("nan"), float("inf"))
    p = probs[use]
    x = np.log(eps_grid[use])
    y = np.log(p)
    # Wilson half-width at z = 1 converted to a log-scale sigma
    half = np.sqrt(p * (1 - p) / samples + 1 / (4 * samples**2)) / (1 + 1 / samples)
    coef, cov = np.polyfit(x, y, 1, w=p / half, cov="unscaled")
    return RepulsionCurve(eps_grid, probs, hits, float(coef[0]), float(math.sqrt(cov[0, 0])))


def wegner_statistic(archive, E, eps):
    """Mean eigenvalue count in [E - eps/(2N), E + eps/(2N)]."""
    data = _as_data(archive)
    return float(np.mean(_interval_counts(data, E, eps)))


def gap_tail(archive, E, K_grid):
    """P(the first eigenvalue above E is at least K/N away), per K.

    Samples with no eigenvalue on either side of E are skipped, matching
    the statistic's conditioning.
    """
    data = _as_data(archive)
    samples, N = data.shape
    K_grid = np.asarray(K_grid, dtype=float)
    if not np.all(np.isfinite(K_grid)):
        raise ValueError("K must be finite")
    idx = np.sum(data < E, axis=1)
    valid = (idx >= 1) & (idx <= N - 1)
    if not np.any(valid):
        raise ValueError("E outside every sample's spectrum")
    nexts = data[valid, idx[valid]]
    gaps = (nexts - E) * N
    return np.array([float(np.mean(gaps >= K)) for K in K_grid])


def vandermonde_statistic(spectrum, eta=None):
    """Normalized log-gas energy with a regularized log interaction.

    N^-2 [ (N/2) sum lambda_i^2 - 2 sum_{j<k} log|lambda_j - lambda_k + i eta| ];
    eta defaults to N^(-3/4). Concentrates near 3/4 under the trace
    normalization E Tr H^2 = N.
    """
    lam = require_spectrum(spectrum)
    N = len(lam)
    if eta is None:
        eta = float(N) ** -0.75
    if not (math.isfinite(eta) and eta >= 0):
        raise ValueError("eta must be finite and nonnegative")
    return float((N / 2.0 * np.sum(lam**2) - 2.0 * log_vandermonde(lam, eta)) / N**2)


def semicircle_constants_check():
    """Quadrature values of the two semicircle integrals and their combination.

    Returns (x2_moment, log_energy, combo) ~ (1, -1/4, 3/4): the second
    moment of the semicircle law, the double logarithmic energy integral,
    and (1/2) x2_moment - log_energy. Both run on one 200-node rule in
    theta, x = 2 sin(theta) = 2 cos(a) with a = pi/2 - theta, rho_sc(x) dx =
    (2/pi) cos^2(theta) dtheta. The Chebyshev expansion of the log kernel,
    log|2 cos a - 2 cos b| = -sum_k (2/k) cos(ka) cos(kb), turns the
    log-singular double integral into -sum_k (2/k) c_k^2, with c_k the
    moment of cos(ka) under rho_sc, for every degree k the rule resolves.
    """
    rule = gauss_legendre(200, half_width=math.pi / 2.0)
    theta = rule.nodes
    xs = 2.0 * np.sin(theta)
    outer = rule.weights * (2.0 / math.pi) * np.cos(theta) ** 2
    x2 = float(np.sum(outer * xs**2))
    k = np.arange(1, len(theta))
    c = np.cos(np.outer(k, math.pi / 2.0 - theta)) @ outer
    log_energy = -float(np.sum(2.0 / k * c**2))
    return x2, log_energy, 0.5 * x2 - log_energy


def poisson_spectra(N, samples, seed):
    """Synthetic control archive: independent points at semicircle density.

    Each sample is N i.i.d. draws from rho_sc, sorted; locally these have
    Poisson pair statistics (no repulsion).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    u = rng.uniform(0.0, 1.0, size=(samples, N))
    data = semicircle_cdf_inverse(u)
    data.sort(axis=1)
    return data
