"""Seeded inputs made without the program under test.

GUE spectra come from the Dumitriu-Edelman tridiagonal beta=2 model
("Matrix models for beta ensembles", J. Math. Phys. 43, 2002): a symmetric
tridiagonal matrix with N(0, 1) diagonal and chi_(2k)/sqrt(2) off-diagonal,
k = N-1 .. 1, has the eigenvalue law of a GUE matrix with E|H_ij|^2 = 1.
Dividing by sqrt(N) gives the program's normalization E Tr H^2 = N.

The Poisson control draws i.i.d. points at semicircle density: a point
uniform in the disc of radius 2 projects to x = 2 sqrt(U1) cos(2 pi U2),
whose density is sqrt(4 - x^2) / (2 pi).

Archives are written in the program's documented formats. CSV values use
a fixed-width 17-significant-digit form, so file sizes do not depend on
the seed.
"""

import struct

import numpy as np
from scipy.linalg import lapack


def rng_for(seed, *key):
    """Independent stream for one input of one workload seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def gue_tridiagonal(N, samples, rng):
    """(samples, N) ascending GUE spectra with E Tr H^2 = N."""
    out = np.empty((samples, N))
    dof = 2.0 * np.arange(N - 1, 0, -1)
    for s in range(samples):
        diag = rng.standard_normal(N)
        off = np.sqrt(rng.chisquare(dof) / 2.0)
        vals, info = lapack.dsterf(diag, off)
        if info != 0:
            raise RuntimeError(f"dsterf failed with info={info}")
        out[s] = vals
    return out / np.sqrt(N)


def poisson_semicircle(N, samples, rng):
    """(samples, N) sorted i.i.d. semicircle points."""
    u1 = rng.random((samples, N))
    u2 = rng.random((samples, N))
    return np.sort(2.0 * np.sqrt(u1) * np.cos(2.0 * np.pi * u2), axis=1)


def write_csv(path, data, label):
    samples, N = data.shape
    row = ",".join(["%+.16e"] * N) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{N},{samples},{label}\n")
        for values in data:
            fh.write(row % tuple(values))


def write_bin(path, data):
    samples, N = data.shape
    with open(path, "wb") as fh:
        fh.write(b"WLAB1")
        fh.write(struct.pack("<QQ", N, samples))
        fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())
