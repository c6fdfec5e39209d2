"""Wigner/GUE sampling, the matrix Ornstein-Uhlenbeck flow and the
eigenvalue SDE (Dyson Brownian motion). The entry laws are ``ENTRY_LAWS``;
the log-gas energy of a spectrum is N^2 ``universality.vandermonde_statistic``
at eta = 0.

Matrix entries follow the 1/sqrt(N) normalization: off-diagonal real and
imaginary parts have variance 1/2 and diagonals variance 1 before scaling,
so E Tr H^2 = N. All sampling is driven by explicit numpy Generators;
``sample_stream`` builds counter-based splittable per-index streams, so
sample i of a seeded sweep does not depend on the other samples. A DBM
path reads its stream as N standard normals per Euler proposal, in order,
so a path from ``sample_stream(seed, index)`` depends only on (seed, index);
each step works in buffers the path reuses.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import require_spectrum

ENTRY_LAWS = ("gaussian", "uniform", "rademacher-smoothed")

_RADEMACHER_SMOOTH = 0.5  # Gaussian smoothing width before renormalization


def _diag_indices(n):
    """Positions of the diagonal entries in a packed n x n upper triangle."""
    return np.cumsum(np.concatenate(([0], np.arange(n, 1, -1))))


@functools.lru_cache(maxsize=1)
def _triu_indices(n):
    """``np.triu_indices(n)``, read-only, since the cache shares it."""
    iu = np.triu_indices(n)
    for arr in iu:
        arr.setflags(write=False)
    return iu


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
        """Pack the upper triangle of ``dense``, keeping the diagonal's real part."""
        dense = np.asarray(dense, dtype=complex)
        n = dense.shape[0]
        packed = dense[_triu_indices(n)]
        diag = _diag_indices(n)
        packed[diag] = packed[diag].real
        return cls(n, packed)

    def to_dense(self):
        """The dense matrix, conjugates below the diagonal. The upper
        triangle is written last, so the diagonal is the packed one."""
        iu = _triu_indices(self.dim)
        out = np.empty((self.dim, self.dim), dtype=complex)
        out.T[iu] = self.packed.conj()
        out[iu] = self.packed
        return out


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
    strictly ordered spectrum. ``proposals`` counts the Euler proposals made,
    one per step plus two per halving; ``max_depth`` is the deepest halving
    level reached (0 when no proposal crossed)."""

    step_size: float
    steps: int
    trajectory: np.ndarray  # (steps + 1, N)
    proposals: int
    max_depth: int

    @property
    def final(self):
        return self.trajectory[-1]


_NORMAL_BLOCK = 2**14  # normals drawn per refill: 128 KB


class _DbmWork:
    """Reused buffers of one DBM path and the reader of its normals.

    The stream is read N normals per proposal, in order, from a block. A
    refill draws at most N per unfinished step (``left``, the current one
    included), and every such step reads at least N, so the path draws
    exactly the values, and leaves the stream in the state, that one
    ``standard_normal(N)`` call per proposal would.
    """

    def __init__(self, N, steps, stream):
        self.N = N
        self.diffs = np.empty((N, N))
        self.diag = self.diffs.reshape(-1)[:: N + 1]
        self.sums = np.empty(N)
        self.mean = np.empty(N)  # lam + drift dt
        self.stream = stream
        self.block = np.empty(max(N, min(_NORMAL_BLOCK, steps * N)))
        self.end = self.pos = 0
        self.left = steps
        self.proposals = 0
        self.max_depth = 0

    def normals(self):
        """The next N normals of the stream (a view into the block)."""
        N = self.N
        if self.end - self.pos < N:
            rest = self.end - self.pos
            self.block[:rest] = self.block[self.pos : self.end]
            self.end = max(N, min(len(self.block), self.left * N))
            self.stream.standard_normal(out=self.block[rest : self.end])
            self.pos = 0
        self.pos += N
        return self.block[self.pos - N : self.pos]

    def propose(self, lam, dt):
        """lam + drift(lam) dt + sqrt(dt/N) z as a new array, in the order
        of lam + (-lam/2 + sum_j 1/(lam - lam_j) / N) dt + sqrt(dt/N) z."""
        d, s, p = self.diffs, self.sums, self.mean
        np.subtract.outer(lam, lam, out=d)
        self.diag.fill(np.inf)
        np.divide(1.0, d, out=d)
        np.add.reduce(d, axis=1, out=s)
        s /= self.N
        np.divide(lam, -2.0, out=p)
        p += s
        p *= dt
        p += lam
        prop = self.normals() * math.sqrt(dt / self.N)
        prop += p
        return prop


def _dbm_step(lam, dt, work, depth):
    """One ordered Euler step, recursively halving dt on ordering violations."""
    work.proposals += 1
    work.max_depth = max(work.max_depth, depth)
    prop = work.propose(lam, dt)
    if (prop[1:] > prop[:-1]).all():
        return prop
    if depth >= 40:
        raise RuntimeError("DBM substep controller failed to maintain ordering")
    half = _dbm_step(lam, dt / 2.0, work, depth + 1)
    return _dbm_step(half, dt / 2.0, work, depth + 1)


def dbm_integrate(spectrum0, dt, steps, stream):
    """Integrate the eigenvalue SDE d lambda_i = dB_i/sqrt(N) +
    [-lambda_i/2 + N^-1 sum_{j!=i} (lambda_i - lambda_j)^-1] dt.

    Ordering is preserved by adaptive substepping: a step that crosses is
    retried as two half steps, recursively up to 40 halvings deep. Every
    proposal reads the next N standard normals of ``stream``.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and positive")
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError("steps must be a nonnegative integer")
    lam = require_spectrum(spectrum0).copy()
    work = _DbmWork(len(lam), steps, stream)
    traj = np.empty((steps + 1, len(lam)))
    traj[0] = lam
    for k in range(steps):
        work.left = steps - k
        lam = _dbm_step(lam, dt, work, 0)
        traj[k + 1] = lam
    return DbmPath(step_size=dt, steps=steps, trajectory=traj,
                   proposals=work.proposals, max_depth=work.max_depth)


def log_vandermonde(values, eta=0.0):
    """sum_{j<k} log |v_j - v_k + i*eta|; errors on coincidence when eta=0.

    The gaps v_j - v_k are written row by row into one array, in
    ``np.triu_indices(n, 1)`` order, and transformed in place, so the sum
    holds one float per pair and adds them in the same order.
    """
    if not math.isfinite(eta * eta):
        raise ValueError("eta squared overflows")
    values = np.asarray(values, dtype=float)
    n = len(values)
    gaps = np.empty(n * (n - 1) // 2)
    start = 0
    for j in range(n - 1):
        stop = start + n - 1 - j
        np.subtract(values[j], values[j + 1:], out=gaps[start:stop])
        start = stop
    if eta == 0.0:
        np.abs(gaps, out=gaps)
        if np.any(gaps < 1e-14):
            raise ValueError("coincident values with eta = 0")
        return float(np.sum(np.log(gaps, out=gaps)))
    np.square(gaps, out=gaps)
    gaps += eta**2
    return float(0.5 * np.sum(np.log(gaps, out=gaps)))
