"""Fixed reference work that measures how fast the host runs right now.

It touches what the workloads spend their time on: an interpreter start that
imports numpy and scipy, scalar Python driving scipy.integrate.quad, dense
LAPACK, and array passes. It does not import the program, so its time does
not change when the program does. Run as ``python3 bench/calibrate.py``.
"""

import math

import numpy as np
from scipy.integrate import quad


def main():
    total = 0.0
    for _ in range(2):
        total += quad(lambda x: math.log(1.0 + x * x) * float(np.sqrt(4.0 - min(x * x, 4.0))),
                      -2.0, 2.0, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
    rng = np.random.default_rng(1)
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    a = a + a.conj().T
    for _ in range(2):
        total += float(np.linalg.eigvalsh(a)[0])
    x = rng.standard_normal(2_000_000)
    for _ in range(5):
        x = np.sqrt(np.abs(x) + 1.0)
    total += float(x[0])
    return 0 if math.isfinite(total) else 1


if __name__ == "__main__":
    raise SystemExit(main())
