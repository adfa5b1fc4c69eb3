"""Smoothing windows and the Hermitian smoothing kernel K(s, t).

K(s, t) = integral over u of h_kappa(u) psi(s - u) psi*(t - u), evaluated
either by quadrature (any wavelet/window pair) or by the closed erf form
available for the Morlet wavelet with a rectangular window. K has support
inside the square (-(alpha+kappa)/2, (alpha+kappa)/2)^2 and unit trace.

SmoothedKernel samples K on its grid s_i by one Gauss-Legendre rule in u
shared by all pairs: the window support is cut at every edge s_i +- alpha/2,
so K = E^T diag(w h_kappa) conj(E), E[c, i] = r(s_i - u_c); it matches the
per-pair rule _pairwise_quad (kept for kernel_value and value_matrix and as
the test oracle) to ~1e-14 of max|K|, ~1e-7 for spline-tabulated wavelets.

For a wavelet with an analytic phase factor, psi(t) = e^{i 2 pi f t} r(t),
the kernel factorizes as K(s, t) = e^{i 2 pi f (s - t)} k(s, t) with k the
real symmetric kernel of the envelope r. SmoothedKernel stores k and the
modulation frequency in that case so downstream eigendecompositions can
stay real.
"""

from __future__ import annotations

import csv
import enum
import functools

import numpy as np
from scipy.special import erf

from .errors import ParseError, ValidationError
from .quadrature import midpoint_grid, simpson_rule
from .wavelets import Wavelet

KERNEL_QUAD_POINTS = 128    # Gauss-Legendre nodes for pointwise kernel values
MATRIX_QUAD_POINTS = 96     # Gauss-Legendre nodes per pair for value_matrix
CELL_QUAD_POINTS = 4        # Gauss-Legendre nodes per cell of the grid rule
DEFAULT_GRID_POINTS = 512
MAX_GRID_POINTS = 4096      # the kernel matrix alone is 128 MB at this size


class WindowKind(enum.Enum):
    RECTANGULAR = "rectangular"
    TABULATED = "tabulated"


class SmoothingWindow:
    """Non-negative symmetric density h on (-1/2, 1/2), dilated by kappa.

    h_kappa(u) = h(u / kappa) / kappa integrates to one on (-kappa/2, kappa/2).
    Rectangular windows compare equal and hash by kappa; tabulated ones only
    equal themselves.
    """

    def __init__(self, kind: WindowKind, kappa: float, unit_density=None):
        if kappa <= 0:
            raise ValidationError("kappa must be positive")
        self.kind = kind
        self.kappa = float(kappa)
        self._unit = unit_density

    @classmethod
    def rectangular(cls, kappa: float) -> "SmoothingWindow":
        return cls(WindowKind.RECTANGULAR, kappa)

    @classmethod
    def tabulated(cls, points: np.ndarray, values: np.ndarray, kappa: float) -> "SmoothingWindow":
        """Window from samples of h on a uniform grid inside (-1/2, 1/2).

        Samples are interpolated, clipped at zero, symmetrized and
        renormalized so the stored density satisfies the window contract.
        """
        points = np.asarray(points, dtype=float)
        values = np.asarray(values, dtype=float)
        if np.any(values < -1e-12):
            raise ValidationError("window samples must be non-negative")
        if points.min() < -0.5 or points.max() > 0.5:
            raise ValidationError("window samples must lie in [-1/2, 1/2]")
        from scipy.interpolate import CubicSpline  # slow to import; used only here
        spline = CubicSpline(points, np.clip(values, 0.0, None))
        lo, hi = points[0], points[-1]

        def raw(u: np.ndarray) -> np.ndarray:
            u = np.asarray(u, dtype=float)
            inside = (u >= lo) & (u <= hi)
            vals = np.clip(spline(np.clip(u, lo, hi)), 0.0, None)
            return np.where(inside, vals, 0.0)

        x, w = simpson_rule(-0.5, 0.5, 4097)
        sym = lambda u: 0.5 * (raw(u) + raw(-np.asarray(u)))
        total = w @ sym(x)
        if total <= 0:
            raise ValidationError("window has zero mass")
        return cls(WindowKind.TABULATED, kappa, lambda u: sym(u) / total)

    @classmethod
    def from_csv(cls, path, kappa: float) -> "SmoothingWindow":
        pts, vals = [], []
        with open(path, newline="") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if len(row) != 2:
                    raise ParseError("expected 2 columns (u, h)", lineno)
                try:
                    pts.append(float(row[0]))
                    vals.append(float(row[1]))
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from None
        if not pts:
            raise ParseError("no samples found in window file")
        return cls.tabulated(np.asarray(pts), np.asarray(vals), kappa)

    def density(self, u) -> np.ndarray:
        """h_kappa(u), zero outside (-kappa/2, kappa/2).

        The boundary points carry the one-sided limit value so that
        quadrature rules with nodes at +-kappa/2 integrate correctly.
        """
        u = np.asarray(u, dtype=float)
        scaled = u / self.kappa
        inside = np.abs(scaled) <= 0.5
        if self.kind is WindowKind.RECTANGULAR:
            vals = np.ones_like(scaled)
        else:
            vals = self._unit(scaled)
        return np.where(inside, vals, 0.0) / self.kappa

    @property
    def support(self) -> tuple[float, float]:
        return (-self.kappa / 2.0, self.kappa / 2.0)

    def _key(self):
        return id(self) if self.kind is WindowKind.TABULATED else (self.kind, self.kappa)

    def __eq__(self, other) -> bool:
        return isinstance(other, SmoothingWindow) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"SmoothingWindow({self.kind.value}, kappa={self.kappa})"


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    x, w = np.polynomial.legendre.leggauss(n)
    return ((x + 1.0) / 2.0, w / 2.0)  # mapped to [0, 1]


def _pairwise_quad(wavelet: Wavelet, window: SmoothingWindow,
                   s_flat: np.ndarray, t_flat: np.ndarray, n_quad: int,
                   chunk: int = 2048) -> np.ndarray:
    """Envelope kernel k(s_i, t_i) = int h_kappa(u) r(s_i-u) r*(t_i-u) du
    for paired point arrays.

    Each pair is integrated by Gauss-Legendre over the exact intersection
    of the window support with both translated envelope supports; the
    integrand is analytic there (truncation edges sit on the interval
    endpoints), so a ~100-node rule is already at near-machine accuracy.
    """
    out_complex = wavelet.is_complex and wavelet.modulation == 0.0
    half = wavelet.alpha / 2.0
    lo = np.maximum(np.maximum(s_flat, t_flat) - half, -window.kappa / 2.0)
    hi = np.minimum(np.minimum(s_flat, t_flat) + half, window.kappa / 2.0)
    out = np.zeros(s_flat.shape, dtype=complex if out_complex else float)
    active = np.nonzero(hi > lo)[0]
    if active.size == 0:
        return out
    frac, wts = _gauss_legendre(n_quad)
    flat_density = window.kind is WindowKind.RECTANGULAR
    env = wavelet.envelope_smooth
    for start in range(0, active.size, chunk):
        ia = active[start:start + chunk]
        u = lo[ia, None] + (hi[ia] - lo[ia])[:, None] * frac[None, :]
        integ = env(s_flat[ia, None] - u)
        integ = integ * np.conj(env(t_flat[ia, None] - u))
        if flat_density:
            vals = (integ @ wts) * ((hi[ia] - lo[ia]) / window.kappa)
        else:
            integ *= window.density(u)
            vals = (integ @ wts) * (hi[ia] - lo[ia])
        out[ia] = vals if out_complex else vals.real
    return out


def _cell_rule_matrix(wavelet: Wavelet, window: SmoothingWindow, grid: np.ndarray) -> np.ndarray:
    """Envelope kernel k(s_i, s_j) on the grid, block by block of cells in u.

    A cell is in a support if its midpoint is (one-sided limits at the edges);
    each block adds F^T conj(F), F = sqrt(w h) E: Hermitian and PSD by design.
    """
    half, edge = wavelet.alpha / 2.0, window.kappa / 2.0
    cuts = np.unique(np.clip(np.concatenate([grid - half, grid + half, [-edge, edge]]),
                             -edge, edge))
    frac, wts = _gauss_legendre(CELL_QUAD_POINTS)
    out = np.zeros((grid.size, grid.size),
                   dtype=complex if wavelet.is_complex and wavelet.modulation == 0.0 else float)
    step = max(1, (1 << 19) // (CELL_QUAD_POINTS * grid.size))  # blocks of <= 4 MB per array
    for start in range(0, cuts.size - 1, step):
        lo = cuts[start:start + step + 1]
        width = np.diff(lo)[:, None]
        u = (lo[:-1, None] + width * frac).ravel()
        inside = np.abs(grid - np.repeat(lo[:-1] + width[:, 0] / 2.0, frac.size)[:, None]) < half
        f = np.where(inside, wavelet.envelope_smooth(grid - u[:, None]), 0.0)
        f *= np.sqrt((width * wts).ravel() * window.density(u))[:, None]
        out += f.T @ np.conj(f)
    return out


def kernel_value(wavelet: Wavelet, window: SmoothingWindow, s, t,
                 n_quad: int = KERNEL_QUAD_POINTS):
    """K(s, t) by quadrature over the intersection of supports.

    Broadcasts over array-valued s and t of a common shape. This is the
    reference quadrature path, independent of any closed form.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    s_arr, t_arr = np.broadcast_arrays(s_arr, t_arr)
    shape = s_arr.shape
    s_flat = s_arr.ravel().astype(float)
    t_flat = t_arr.ravel().astype(float)
    out = _pairwise_quad(wavelet, window, s_flat, t_flat, n_quad)
    if wavelet.modulation != 0.0:
        out = out * np.exp(2j * np.pi * wavelet.modulation * (s_flat - t_flat))
    out = out.reshape(shape)
    if np.isscalar(s) and np.isscalar(t):
        return out.reshape(-1)[0]
    return out


def kernel_value_morlet_rect(kappa: float, s, t):
    """Closed form of K(s, t) for the (untruncated) Morlet wavelet and a
    rectangular window:

        K(s, t) = k(s, t) e^{-i 2 pi (t - s)}
        k(s, t) = (2 kappa)^(-1) e^{-(t-s)^2/4}
                  [erf{(kappa - (s+t))/2} + erf{(kappa + (s+t))/2}]

    The erf arguments and the Gaussian width follow from direct integration
    of the defining kernel; the quadrature path agrees with this expression
    to quadrature accuracy once the truncation support is wide enough.
    """
    if kappa <= 0:
        raise ValidationError("kappa must be positive")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    ssum = s + t
    k = (np.exp(-0.25 * (t - s) ** 2) / (2.0 * kappa)
         * (erf((kappa - ssum) / 2.0) + erf((kappa + ssum) / 2.0)))
    return k * np.exp(-2j * np.pi * (t - s))


class SmoothedKernel:
    """K sampled on a uniform midpoint grid over its support square.

    When the wavelet carries an analytic phase factor the stored matrix is
    the real envelope kernel k and the phase is attached on demand, halving
    memory and keeping later eigendecompositions real.
    """

    def __init__(self, wavelet: Wavelet, window: SmoothingWindow,
                 n_points: int = DEFAULT_GRID_POINTS,
                 n_quad: int = MATRIX_QUAD_POINTS,
                 phase_factorized: bool = True):
        self.wavelet = wavelet
        self.window = window
        self.width = wavelet.alpha + window.kappa
        self.n_points = int(n_points)
        if not 16 <= self.n_points <= MAX_GRID_POINTS:  # before any n^2 allocation
            raise ValidationError(f"n_points must lie in [16, {MAX_GRID_POINTS}]")
        self.grid, self.weight = midpoint_grid(-self.width / 2.0, self.width / 2.0,
                                               self.n_points)
        # With phase_factorized unset, the analytic phase is folded into the
        # stored matrix and downstream eigensolves run in complex arithmetic;
        # this is the cross-check path for the factorized (real) default.
        self.modulation = wavelet.modulation if phase_factorized else 0.0
        self._wavelet_modulation = wavelet.modulation
        self.n_quad = n_quad
        self.envelope_values = (self._envelope_matrix(self.grid, self.grid) if n_quad == 0
                                else _cell_rule_matrix(wavelet, window, self.grid))
        if not phase_factorized and wavelet.modulation != 0.0:
            phase = np.exp(2j * np.pi * wavelet.modulation
                           * (self.grid[:, None] - self.grid[None, :]))
            self.envelope_values = self.envelope_values * phase

    @classmethod
    def rank_one(cls, wavelet: Wavelet, n_points: int = DEFAULT_GRID_POINTS) -> "SmoothedKernel":
        """Degenerate kernel psi(s) psi*(t), the single-point-window limit.

        Useful as the exactly rank-one reference case for eigensolvers.
        """
        return cls(wavelet, SmoothingWindow.rectangular(1e-12), n_points=n_points, n_quad=0)

    # -- evaluation -----------------------------------------------------

    def _envelope_matrix(self, s_pts: np.ndarray, t_pts: np.ndarray) -> np.ndarray:
        if self.n_quad == 0:  # rank-one degenerate kernel
            es = self.wavelet.envelope(s_pts)
            et = es if t_pts is s_pts else self.wavelet.envelope(t_pts)
            return np.outer(es, np.conj(et))
        grid_s, grid_t = np.meshgrid(s_pts, t_pts, indexing="ij")
        vals = _pairwise_quad(self.wavelet, self.window, grid_s.ravel(), grid_t.ravel(),
                              self.n_quad)
        return vals.reshape(grid_s.shape)

    @property
    def values(self) -> np.ndarray:
        """Full (possibly complex) sampled kernel matrix."""
        if self.modulation == 0.0:
            return self.envelope_values
        return self.envelope_values * np.exp(
            2j * np.pi * self.modulation * (self.grid[:, None] - self.grid[None, :]))

    def value_matrix(self, s_pts: np.ndarray, t_pts: np.ndarray) -> np.ndarray:
        """K(s_i, t_j) for arbitrary point sets, via the stored quadrature.

        Always carries the full kernel phase, independent of whether the
        stored matrix is phase factorized.
        """
        s_pts = np.asarray(s_pts, dtype=float)
        t_pts = np.asarray(t_pts, dtype=float)
        mat = self._envelope_matrix(s_pts, t_pts)
        if self._wavelet_modulation != 0.0:
            mat = mat * np.exp(2j * np.pi * self._wavelet_modulation
                               * (s_pts[:, None] - t_pts[None, :]))
        return mat

    def trace_estimate(self) -> float:
        return float(self.weight * np.sum(np.real(np.diag(self.envelope_values))))

    def __repr__(self) -> str:
        return (f"SmoothedKernel({self.wavelet.label}, {self.window.kind.value}, "
                f"kappa={self.window.kappa}, n={self.n_points})")


def scaled_kernel_value(kernel: SmoothedKernel, a: float, b: float, s, t):
    """K_{a,b}(s, t) = a^(-1) K((s - b)/a, (t - b)/a)."""
    if a <= 0:
        raise ValidationError("scale a must be positive")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return kernel.value_matrix(np.atleast_1d((s - b) / a),
                               np.atleast_1d((t - b) / a)) / a


class ValidRegion:
    """Isosceles triangle of (a, b) pairs whose kernel support fits in (0, T].

    Vertices (0, 0), (0, T), (a_max, T/2) with a_max = T / (alpha + kappa).
    """

    def __init__(self, alpha: float, kappa: float, T: float):
        if T <= 0:
            raise ValidationError("T must be positive")
        self.alpha = float(alpha)
        self.kappa = float(kappa)
        self.T = float(T)
        self.width = self.alpha + self.kappa
        self.a_max = self.T / self.width

    def contains(self, a, b) -> np.ndarray | bool:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        half = a * self.width / 2.0
        tol = 1e-12 * max(1.0, self.T)  # admit the exact boundary despite rounding
        ok = (a > 0) & (b - half >= -tol) & (b + half <= self.T + tol)
        if ok.ndim == 0:
            return bool(ok)
        return ok

    def __contains__(self, pair) -> bool:
        a, b = pair
        return bool(self.contains(a, b))


def valid_region(alpha: float, kappa: float, T: float) -> ValidRegion:
    return ValidRegion(alpha, kappa, T)
