"""Ensemble generation into eigenvalue archives.

Each sample index owns a splittable RNG stream keyed by (seed, index), so
row i of an archive depends only on (seed, i), not on how many rows are
drawn.
"""

import numpy as np

from .archive import Archive
from .ensemble import EnsembleConfig, ou_evolve, sample_gue, sample_stream, sample_wigner
from .spectral import eigenvalues
from .universality import poisson_spectra


def generate_archive(kind, N, samples, seed, *, beta_exponent=0.5, entry_law="gaussian",
                     evolve_time=0.0, label=None):
    """Sample an ensemble and return the archive of its spectra.

    kind: "gue" | "wigner" | "poisson". Wigner samples use the Gaussian
    component s^2 = N^(-3/4 + beta_exponent) and the given entry law. Every
    matrix then runs the OU flow for evolve_time (0 leaves it as drawn).
    """
    if not np.isfinite(beta_exponent):
        raise ValueError("beta exponent must be finite")
    if kind == "poisson":
        return Archive(N=N, label=label or "poisson", data=poisson_spectra(N, samples, seed))
    if kind == "wigner":
        config = EnsembleConfig(N=N, beta_exponent=beta_exponent, entry_law=entry_law)
    elif kind != "gue":
        raise ValueError(f"unknown ensemble kind {kind!r}")

    data = np.empty((samples, N))
    for i in range(samples):
        stream = sample_stream(seed, i)
        h = sample_gue(N, stream) if kind == "gue" else sample_wigner(config, stream)
        h = ou_evolve(h, evolve_time, stream)
        data[i] = eigenvalues(h)
    return Archive(N=N, label=label or kind, data=data)
