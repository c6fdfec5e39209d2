"""Wigner/GUE sampling, the matrix Ornstein-Uhlenbeck flow, the eigenvalue
SDE (Dyson Brownian motion), and the explicit eigenvalue transition kernel.
The entry laws are ``ENTRY_LAWS``; the log-gas energy of a spectrum is
N^2 ``universality.vandermonde_statistic`` at eta = 0.

Matrix entries follow the 1/sqrt(N) normalization: off-diagonal real and
imaginary parts have variance 1/2 and diagonals variance 1 before scaling,
so E Tr H^2 = N. All sampling is driven by explicit numpy Generators;
``sample_stream`` builds counter-based splittable per-index streams, so
sample i of a seeded sweep does not depend on the other samples.
"""

import math
from dataclasses import dataclass

import numpy as np

from .spectral import require_spectrum

ENTRY_LAWS = ("gaussian", "uniform", "rademacher-smoothed")

_RADEMACHER_SMOOTH = 0.5  # Gaussian smoothing width before renormalization


def _diag_indices(n):
    """Positions of the diagonal entries in a packed n x n upper triangle."""
    return np.cumsum(np.concatenate(([0], np.arange(n, 1, -1))))


def sample_stream(seed, index=0):
    """Independent Philox stream for one sample index of a seeded sweep."""
    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class HermitianMatrix:
    """Dense Hermitian matrix stored as its packed upper triangle.

    Only the upper triangle (row-major, diagonal first entries real) is
    kept, so Hermitian symmetry is exact by construction.
    """

    dim: int
    packed: np.ndarray

    def __post_init__(self):
        expected = self.dim * (self.dim + 1) // 2
        if self.packed.shape != (expected,):
            raise ValueError("packed length does not match dimension")

    @classmethod
    def from_dense(cls, dense):
        dense = np.asarray(dense, dtype=complex)
        n = dense.shape[0]
        iu = np.triu_indices(n)
        packed = dense[iu].copy()
        return cls(n, packed)

    def to_dense(self):
        n = self.dim
        out = np.zeros((n, n), dtype=complex)
        iu = np.triu_indices(n)
        out[iu] = self.packed
        out = out + out.conj().T
        out[np.diag_indices(n)] /= 2.0
        return out

    def trace_square(self):
        """Tr H^2 from the packed triangle."""
        diag = self.packed[_diag_indices(self.dim)].real
        total = 2.0 * float(np.sum(np.abs(self.packed) ** 2)) - float(np.sum(diag**2))
        return total


@dataclass(frozen=True)
class EnsembleConfig:
    """Wigner ensemble parameters with the Gaussian-component exponent.

    The Gaussian component variance is s^2 = N^(-3/4 + beta_exponent); the
    configuration is rejected unless 0 < s^2 <= 1.
    """

    N: int
    beta_exponent: float = 0.5
    entry_law: str = "gaussian"

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("dimension must be positive")
        if self.entry_law not in ENTRY_LAWS:
            raise ValueError(f"unknown entry law {self.entry_law!r}")
        s2 = self.gaussian_variance
        if not (0.0 < s2 <= 1.0):
            raise ValueError(f"s^2 = N^(-3/4+beta) = {s2:g} outside (0, 1]")

    @property
    def gaussian_variance(self):
        return float(self.N) ** (-0.75 + self.beta_exponent)


def _standardized_draw(law, rng, size):
    """Mean-0 variance-1 draws from the named entry law."""
    if law == "gaussian":
        return rng.standard_normal(size)
    if law == "uniform":
        return rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size)
    if law == "rademacher-smoothed":
        r = rng.integers(0, 2, size) * 2.0 - 1.0
        g = rng.standard_normal(size)
        return (r + _RADEMACHER_SMOOTH * g) / math.sqrt(1.0 + _RADEMACHER_SMOOTH**2)
    raise ValueError(f"unknown entry law {law!r}")


def _packed_hermitian(N, law, rng):
    """Packed upper triangle with off-diagonal component sd 1/sqrt(2),
    diagonal sd 1, all scaled by 1/sqrt(N)."""
    m = N * (N + 1) // 2
    re = _standardized_draw(law, rng, m)
    im = _standardized_draw(law, rng, m)
    packed = (re + 1j * im) / math.sqrt(2.0)
    diag_idx = _diag_indices(N)
    packed[diag_idx] = re[diag_idx]  # real diagonal, variance 1
    return HermitianMatrix(N, packed / math.sqrt(N))


def sample_gue(N, stream):
    """Standard GUE matrix with entry variance 1/N (bulk spectrum -> [-2,2])."""
    if N < 1:
        raise ValueError("dimension must be positive")
    return _packed_hermitian(N, "gaussian", stream)


def sample_wigner(config, stream):
    """Wigner matrix with a Gaussian component: (1-s^2)^(1/2) Hhat + s V."""
    s2 = config.gaussian_variance
    hhat = _packed_hermitian(config.N, config.entry_law, stream)
    v = sample_gue(config.N, stream)
    packed = math.sqrt(1.0 - s2) * hhat.packed + math.sqrt(s2) * v.packed
    return HermitianMatrix(config.N, packed)


def ou_evolve(h0, t, stream):
    """Matrix Ornstein-Uhlenbeck flow, exact in law: the evolved matrix is
    e^(-t/2) H0 + (1 - e^(-t))^(1/2) V with V a fresh GUE draw from the
    stream; no discretization enters the matrix flow.

    t = 0 returns H0 unchanged without consuming the stream.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("time must be finite and nonnegative")
    if t == 0:
        return h0
    v = sample_gue(h0.dim, stream)
    packed = math.exp(-t / 2.0) * h0.packed + math.sqrt(-math.expm1(-t)) * v.packed
    return HermitianMatrix(h0.dim, packed)


@dataclass(frozen=True)
class DbmPath:
    """Euler-Maruyama trajectory of the eigenvalue SDE; every snapshot is a
    strictly ordered spectrum."""

    step_size: float
    steps: int
    trajectory: np.ndarray  # (steps + 1, N)

    @property
    def final(self):
        return self.trajectory[-1]


def _dbm_drift(lam, N):
    diffs = lam[:, None] - lam[None, :]
    np.fill_diagonal(diffs, np.inf)
    return -lam / 2.0 + np.sum(1.0 / diffs, axis=1) / N


def _dbm_step(lam, dt, N, rng, depth):
    """One ordered Euler step, recursively halving dt on ordering violations."""
    prop = lam + _dbm_drift(lam, N) * dt + math.sqrt(dt / N) * rng.standard_normal(len(lam))
    if len(prop) == 1 or np.all(np.diff(prop) > 0):
        return prop
    if depth >= 40:
        raise RuntimeError("DBM substep controller failed to maintain ordering")
    half = _dbm_step(lam, dt / 2.0, N, rng, depth + 1)
    return _dbm_step(half, dt / 2.0, N, rng, depth + 1)


def dbm_integrate(spectrum0, dt, steps, stream):
    """Integrate the eigenvalue SDE d lambda_i = dB_i/sqrt(N) +
    [-lambda_i/2 + N^-1 sum_{j!=i} (lambda_i - lambda_j)^-1] dt.

    Ordering is preserved by adaptive substepping: a step that crosses is
    retried as two half steps, recursively up to 40 halvings deep.
    """
    lam = require_spectrum(spectrum0).copy()
    if dt <= 0:
        raise ValueError("dt must be positive")
    N = len(lam)
    traj = np.empty((steps + 1, N))
    traj[0] = lam
    for k in range(steps):
        lam = _dbm_step(lam, dt, N, stream, 0)
        traj[k + 1] = lam
    return DbmPath(step_size=dt, steps=steps, trajectory=traj)


def log_vandermonde(values, eta=0.0):
    """sum_{j<k} log |v_j - v_k + i*eta|; errors on coincidence when eta=0."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    iu = np.triu_indices(n, k=1)
    gaps = values[iu[0]] - values[iu[1]]
    if eta == 0.0:
        if np.any(np.abs(gaps) < 1e-14):
            raise ValueError("coincident values with eta = 0")
        return float(np.sum(np.log(np.abs(gaps))))
    return float(0.5 * np.sum(np.log(gaps**2 + eta**2)))


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

