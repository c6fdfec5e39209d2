"""Window decomposition of a spectrum into internal and external points,
rescaling to [-1, 1], the cutoff external potential, and the window
diagnostics that the ``window`` command reports.

The n internal points after index L live strictly inside the interval
bounded by the two nearest external points; the affine rescaling maps those
bounding points exactly to -1 and +1. Externals with |k| >= n^B
(``cutoff_index``, the one owner of n^B) are dropped; the retained ones
(each a double root of the polynomial weight) generate the log potential
U(x) = -(2/n) sum_k log |x - y_k|. ``WeightSpec`` is the one place that sums
over those roots: log w, U, U' and the difference quotient
[U'(s) - U'(x)]/(s - x), which the kernel identities and the equilibrium
density read. An empty root set needs no special case, since a sum over no
roots is 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .orthopoly import gauss_legendre
from .spectral import require_spectrum, semicircle_density

DEFAULT_ROOT_CAP = 2000  # per side; weight degree drives quadrature cost


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
    cutoff_B: float

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

    def log_weight(self, x):
        """log w(x), unnormalized; -inf at roots."""
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            out = 2.0 * np.sum(np.log(np.abs(x[..., None] - self.roots)), axis=-1)
        return out if out.ndim else float(out)

    def potential(self, x):
        """U(x) = -(2/n) sum log |x - y_k| so that w = exp(-n U)."""
        return -np.asarray(self.log_weight(x)) / self.n

    def potential_derivative(self, x):
        """U'(x) = -(2/n) sum 1/(x - y_k)."""
        x = np.asarray(x, dtype=float)
        out = -(2.0 / self.n) * np.sum(1.0 / (x[..., None] - self.roots), axis=-1)
        return out if out.ndim else float(out)

    def derivative_quotient(self, x, s):
        """[U'(s) - U'(x)]/(s - x) = (2/n) sum_k 1/((x - y_k)(s - y_k)) at a
        scalar x, elementwise in s; U''(x) at s = x."""
        s = np.asarray(s, dtype=float)
        out = (2.0 / self.n) * np.sum(1.0 / ((x - self.roots) * (s[..., None] - self.roots)), axis=-1)
        return out if out.ndim else float(out)


def cutoff_index(n, B):
    """The external cutoff int(n^B): externals with |k| >= n^B are dropped."""
    if not math.isfinite(B):
        raise ValueError("B must be finite")
    try:
        return int(n**B)
    except OverflowError:
        raise ValueError(f"cutoff n^B overflows at n = {n}, B = {B:g}") from None


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


def rescale(window, B, root_cap=DEFAULT_ROOT_CAP):
    """Affine map of the window onto [-1, 1], dropping externals with
    |k| >= n^B (and beyond ``root_cap`` per side)."""
    keep = cutoff_index(window.n, B)
    lo, hi = window.window
    if not hi > lo:
        raise ValueError("degenerate window")
    center = (lo + hi) / 2.0
    half = (hi - lo) / 2.0
    if root_cap is not None:
        keep = min(keep, root_cap)
    keep = max(keep, 1)

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
        cutoff_B=B,
    )


def weight_from_window(rescaled):
    """Point-charge weight generated by a rescaled window's retained roots."""
    return WeightSpec(n=len(rescaled.internal_rescaled), roots=rescaled.external_rescaled)


def equispaced_weight(n, B=2.0, root_cap=DEFAULT_ROOT_CAP):
    """Synthetic external profile: roots at +-(1 + j/(n rho0)), rho0 = 1/2, out
    to the |k| < n^B cutoff, the idealized flat-density configuration."""
    if n < 1:
        raise ValueError("window size must be positive")
    count = cutoff_index(n, B) - 1
    if root_cap is not None:
        count = min(count, root_cap)
    j = np.arange(count + 1)  # j = 0 is the bounding point at +-1
    right = 1.0 + j / (n * 0.5)
    roots = np.concatenate([-right[::-1], right])
    return WeightSpec(n=n, roots=roots)


def tail_split_check(window, B):
    """Far-tail diagnostics of the potential split at cutoff n^B.

    Returns (sup_v2_prime, density_ratio_dev): the sup over the window of
    |N x - 2 sum_{|k| >= n^B} (x - y_k)^-1| (derivative of the quadratic-
    plus-far-tail part), and n times the oscillation of that part over the
    window, which bounds the sup-norm deviation of the cutoff measure
    ratio from 1.
    """
    lo, hi = window.window
    n = window.n
    # total particle count: internals + externals (+0 for the point itself)
    N = n + len(window.external_left) + len(window.external_right)
    cut = cutoff_index(n, B)
    far_left = window.external_left[::-1][cut:]
    far_right = window.external_right[cut:]
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
    deviation over indices n <= k <= n^2 on both sides, or None when the
    window center lies outside [-2, 2], where rho0 = 0 predicts no profile.
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
    return float(max(devs)) if devs else 0.0
