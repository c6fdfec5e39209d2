"""Window decomposition of a spectrum into internal and external points,
rescaling to [-1, 1], the cutoff external potential, and the window
diagnostics that the ``window`` command reports.

The n internal points after index L live strictly inside the interval
bounded by the two nearest external points; the affine rescaling maps those
bounding points exactly to -1 and +1. Externals with |k| >= n^B
(``cutoff_index``, the one owner of n^B) are dropped; the retained ones
(each a double root of the polynomial weight) generate the log potential
U(x) = -(2/n) sum_k log |x - y_k|. ``WeightSpec`` sums over those roots
for log w, U' and the inverse-distance sum of the derivative norm checks.
Each sum runs over blocks of evaluation points, ``ROOT_BLOCK`` point-root
terms at a time, so no point x root array is ever built whole; every point's
sum is still one contiguous ``np.sum``, so a value does not depend on the
blocking. An empty root set needs no special case, since a sum over no roots
is 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .orthopoly import gauss_legendre
from .spectral import require_spectrum, semicircle_density

DEFAULT_ROOT_CAP = 2000  # per side; weight degree drives quadrature cost
# Point-root terms per block of a root sum: the one 2^14-float64 buffer of a
# sum is 128 KB, within cache and below glibc's default mmap threshold. The
# terms are computed in place, since separate block temporaries freed at the
# top of the heap made glibc give the memory back and fault it in again for
# every block.
ROOT_BLOCK = 1 << 14


@dataclass(frozen=True)
class WindowDecomposition:
    """Split of a spectrum around base index L into n internal points and
    the external rest, indexed so y_-1 < x_1 < ... < x_n < y_1."""

    L: int
    internal: np.ndarray
    external_left: np.ndarray   # y_-L .. y_-1, ascending
    external_right: np.ndarray  # y_1 .. y_(N-L-n), ascending

    @property
    def n(self):
        return len(self.internal)

    @property
    def window(self):
        """The interval I = [y_-1, y_1]."""
        return float(self.external_left[-1]), float(self.external_right[0])

    @property
    def width(self):
        lo, hi = self.window
        return hi - lo


@dataclass(frozen=True)
class RescaledWindow:
    """Window mapped onto [-1, 1] with far external points dropped.

    ``external_left``/``external_right`` keep the retained rescaled external
    points nearest the window first (so index 0 is exactly -1 / +1).
    """

    center: float
    half_width: float
    internal_rescaled: np.ndarray
    external_left: np.ndarray   # -1 = first entry, then decreasing
    external_right: np.ndarray  # +1 = first entry, then increasing

    @property
    def external_rescaled(self):
        """All retained roots, ascending."""
        return np.concatenate([self.external_left[::-1], self.external_right])


@dataclass(frozen=True)
class WeightSpec:
    """Polynomial weight w(x) = prod_k (x - y_k)^2 = exp(-n U(x)) on [-1, 1].

    ``log_shift`` is the additive normalizer applied when the weight is
    evaluated (chosen so max log w over a probe grid is ~0 to prevent
    overflow); it cancels identically in every orthonormal quantity.
    """

    n: int
    roots: np.ndarray
    log_shift: float = field(default=None)
    enforce_exterior: bool = True

    def __post_init__(self):
        roots = np.asarray(self.roots, dtype=float)
        if self.enforce_exterior and np.any(np.abs(roots) < 1.0 - 1e-12):
            raise ValueError("weight roots must satisfy |y| >= 1")
        object.__setattr__(self, "roots", roots)
        if self.log_shift is None:
            probe = np.cos(np.linspace(0.0, math.pi, 513))
            object.__setattr__(self, "log_shift", float(np.max(self.log_weight(probe))))

    def _root_sum(self, x, term):
        """sum_k term(x - y_k) for each x, elementwise over any shape; a float
        for a scalar x. The differences x - y_k go, about ``ROOT_BLOCK`` at a
        time, into one buffer, which ``term`` overwrites with the summands."""
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1)
        out = np.empty(flat.shape)
        rows = max(1, ROOT_BLOCK // max(len(self.roots), 1))
        buf = np.empty((min(rows, len(flat)), len(self.roots)))
        for i in range(0, len(flat), rows):
            block = flat[i : i + rows, None]
            d = np.subtract(block, self.roots, out=buf[: len(block)])
            term(d)
            np.sum(d, axis=-1, out=out[i : i + rows])
        return out.reshape(x.shape) if x.ndim else float(out[0])

    def log_weight(self, x):
        """log w(x), unnormalized; -inf at roots."""
        with np.errstate(divide="ignore"):
            return 2.0 * self._root_sum(x, lambda d: np.log(np.abs(d, out=d), out=d))

    def potential_derivative(self, x):
        """U'(x) = -(2/n) sum 1/(x - y_k)."""
        return -(2.0 / self.n) * self._root_sum(x, lambda d: np.divide(1.0, d, out=d))

    def inverse_distance_sum(self, x):
        """sum_k 1/|x - y_k|, elementwise in x."""
        return self._root_sum(x, lambda d: np.divide(1.0, np.abs(d, out=d), out=d))


def cutoff_index(n, B):
    """The external cutoff int(n^B): externals with |k| >= n^B are dropped.

    A cutoff below 1 would drop even the bounding points at +-1, so it is a
    ValueError, like an overflowing one.
    """
    if not math.isfinite(B):
        raise ValueError("B must be finite")
    try:
        cut = int(n**B)
    except OverflowError:
        raise ValueError(f"cutoff n^B overflows at n = {n}, B = {B:g}") from None
    if cut < 1:
        raise ValueError(f"cutoff n^B is below 1 at n = {n}, B = {B:g}")
    return cut


def extract_window(spectrum, L, n):
    """Partition a spectrum into internal points lambda_(L+1..L+n) and
    relabeled external points; both bounding externals must exist."""
    lam = require_spectrum(spectrum)
    N = len(lam)
    if n < 1:
        raise ValueError("window size must be positive")
    if L < 1 or L + n + 1 > N:
        raise ValueError("window touches the spectrum edge (missing bounding external point)")
    return WindowDecomposition(
        L=L,
        internal=lam[L : L + n].copy(),
        external_left=lam[:L].copy(),
        external_right=lam[L + n :].copy(),
    )


def _capped(count, root_cap):
    """count limited to root_cap; None is no cap, a negative cap a ValueError."""
    if root_cap is None:
        return count
    if root_cap < 0:
        raise ValueError("root_cap must be nonnegative")
    return min(count, root_cap)


def rescale(window, B, root_cap=DEFAULT_ROOT_CAP):
    """Affine map of the window onto [-1, 1], dropping externals with
    |k| >= n^B and keeping at most ``root_cap`` externals per side, the
    bounding point counted (a cap of 0 keeps it too)."""
    keep = max(_capped(cutoff_index(window.n, B), root_cap), 1)  # a cap of 0 keeps the bounding points
    lo, hi = window.window
    if not hi > lo:
        raise ValueError("degenerate window")
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0

    def t(v):
        return (v - center) / half

    left = t(window.external_left[::-1][:keep])   # y_-1 first
    right = t(window.external_right[:keep])       # y_1 first
    # the bounding points map to -1/+1 exactly by construction; pin them
    left = left.copy()
    right = right.copy()
    left[0] = -1.0
    right[0] = 1.0
    return RescaledWindow(
        center=center,
        half_width=half,
        internal_rescaled=t(window.internal),
        external_left=left,
        external_right=right,
    )


def weight_from_window(rescaled):
    """Point-charge weight generated by a rescaled window's retained roots."""
    return WeightSpec(n=len(rescaled.internal_rescaled), roots=rescaled.external_rescaled)


def equispaced_weight(n, B=2.0, root_cap=DEFAULT_ROOT_CAP):
    """Synthetic external profile: roots at +-(1 + j/(n rho0)), rho0 = 1/2, out
    to the |k| < n^B cutoff, the idealized flat-density configuration; the
    bounding points +-1 plus at most ``root_cap`` more roots per side."""
    if n < 1:
        raise ValueError("window size must be positive")
    count = _capped(cutoff_index(n, B) - 1, root_cap)
    j = np.arange(count + 1)  # j = 0 is the bounding point at +-1
    right = 1.0 + j / (n * 0.5)
    roots = np.concatenate([-right[::-1], right])
    return WeightSpec(n=n, roots=roots)


def tail_split_check(window, rescaled):
    """Far-tail diagnostics of the potential split at the externals that
    ``rescale`` dropped: all but the ``len(rescaled.external_left)`` and
    ``len(rescaled.external_right)`` nearest ones on each side, so the
    cutoff n^B and the root cap enter by the same rule as in the weight.

    Returns (sup_v2_prime, density_ratio_dev): the sup over the window of
    |N x - 2 sum_far (x - y_k)^-1| (derivative of the quadratic-plus-far-
    tail part), and n times the oscillation of that part over the window,
    which bounds the sup-norm deviation of the cutoff measure ratio from 1.
    """
    lo, hi = window.window
    n = window.n
    # total particle count: internals + externals (+0 for the point itself)
    N = n + len(window.external_left) + len(window.external_right)
    far_left = window.external_left[::-1][len(rescaled.external_left):]
    far_right = window.external_right[len(rescaled.external_right):]
    far = np.concatenate([far_left, far_right])
    grid = np.linspace(lo + 1e-12, hi - 1e-12, 201)
    tail_prime = -2.0 * np.sum(1.0 / (grid[:, None] - far), axis=1)
    tail_val = -2.0 * np.sum(np.log(np.abs(grid[:, None] - far)), axis=1)
    v2_prime = tail_prime + N * grid
    v2_val = tail_val + N * grid**2 / 2.0
    sup_v2_prime = float(np.max(np.abs(v2_prime)))
    delta_v2 = float(np.max(v2_val) - np.min(v2_val))
    return sup_v2_prime, n * delta_v2


def assumption_checks(rescaled, density_fn, A=3.0):
    """Evaluate the two regularity assumptions on a rescaled window.

    Returns a dict with the inverse-distance sum over non-bounding
    externals (sup over [-1,1], attained at an endpoint by convexity), the
    weighted edge integral of ``density_fn`` over [-1+n^-A, 1-n^-A], and
    the reference scalings n^(1+3*gamma), n^(4*gamma) at gamma = 1/10.
    ``density_fn`` is called once, on the array of quadrature nodes; a
    constant it returns is broadcast.
    """
    n = len(rescaled.internal_rescaled)
    others = np.concatenate([rescaled.external_left[1:], rescaled.external_right[1:]])
    inv_sum = max(float(np.sum(1.0 / np.abs(e - others))) for e in (-1.0, 1.0))
    delta = float(n) ** (-A)
    a, b = -1.0 + delta, 1.0 - delta
    rule = gauss_legendre(2000, half_width=(b - a) / 2.0)  # a == -b
    xs = rule.nodes
    vals = np.asarray(density_fn(xs), dtype=float)
    edge_integral = float(np.sum(rule.weights * ((xs + 1.0) ** -2.0 + (1.0 - xs) ** -2.0) * vals))
    gamma = 0.1
    return {
        "inverse_distance_sum": inv_sum,
        "inverse_distance_reference": float(n) ** (1.0 + 3.0 * gamma),
        "edge_integral": edge_integral,
        "edge_integral_reference": float(n) ** (4.0 * gamma),
    }


def window_profile_deviation(window, rescaled):
    """Relative mismatch of retained roots against the locally flat profile.

    The predicted rescaled positions continue the window's mean spacing
    outward from +-1 at the semicircle density of the window center:
    |y_k| ~ 1 + (k - 1) * 2/(N rho0 |I|). Returns the max relative
    deviation over indices n <= k <= n^2 on both sides, or None when
    nothing is compared: the window center lies outside [-2, 2], where
    rho0 = 0 predicts no profile, or no retained root has such an index.
    """
    n = window.n
    N = n + len(window.external_left) + len(window.external_right)
    rho0 = semicircle_density((window.window[0] + window.window[1]) / 2.0)
    if rho0 == 0.0:
        return None
    spacing = 2.0 / (N * rho0 * window.width)
    devs = []
    for side in (rescaled.external_left, rescaled.external_right):
        ks = np.arange(1, len(side) + 1)
        mask = (ks >= n) & (ks <= n * n)
        if not np.any(mask):
            continue
        expect = 1.0 + (ks[mask] - 1) * spacing
        devs.append(np.max(np.abs(np.abs(side[mask]) - expect) / expect))
    return float(max(devs)) if devs else None
