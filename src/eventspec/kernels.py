"""Smoothing windows and the Hermitian smoothing kernel K(s, t).

K(s, t) = integral over u of h_kappa(u) psi(s - u) psi*(t - u), evaluated by
quadrature for any wavelet/window pair. K has support inside the square
(-(alpha+kappa)/2, (alpha+kappa)/2)^2 and unit trace.

Every sampled value of k comes from one Gauss-Legendre cell rule in u,
_cell_factors: the grid matrix here, and the off-grid values and the direct
periodogram of the test oracles (tests/oracles.py). Cells wider than the grid
step are split: a few sparse points otherwise leave cells as wide as the
window, 1.6e-4 off. It agrees with the oracles' fine per-pair rule
(kernel_value, the reference quadrature) to ~3e-13 of max|K| (~1e-8 for a
spline-tabulated wavelet).

For a wavelet with an analytic phase factor, psi(t) = e^{i 2 pi f t} r(t),
the kernel factorizes as K(s, t) = e^{i 2 pi f (s - t)} k(s, t) with k the
real symmetric kernel of the envelope r. SmoothedKernel stores k and the
modulation frequency in that case so downstream eigendecompositions stay real.

Memory: a grid build holds the n_points^2 matrix, one block of cells (at most 4 MB
per real array, filled a few rows at a time into a reused buffer), its conjugate copy
and their product; MAX_GRID_POINTS, MAX_TABLE_BYTES and MAX_FIELD_BYTES cap the rest.
"""

from __future__ import annotations

import csv
import enum
import functools

import numpy as np

from .errors import ParseError, ValidationError
from .quadrature import midpoint_grid, simpson_rule
from .wavelets import Wavelet

CELL_QUAD_POINTS = 4        # Gauss-Legendre nodes per cell of the grid rule
DEFAULT_GRID_POINTS = 512
MAX_GRID_POINTS = 4096      # the kernel matrix alone is 128 MB at this size
MAX_TABLE_BYTES = 1 << 28   # the table build's (8 n_points, L) complex spectrum; peak ~3x
MAX_FIELD_BYTES = 1 << 30   # field()'s complex (n_a, n_b, p, p) omega; gamma2 adds half


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
        if not 0 < kappa < np.inf:
            raise ValidationError("kappa must be positive and finite")
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
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(values))):
            raise ValidationError("window samples must be finite")
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


def _cell_factors(kern: "SmoothedKernel", point_sets: list):
    """Per block of cells in u, F = sqrt(w h_kappa(u)) E, E[c, i] = r(pts_i - u_c), per set.

    The window support is cut at every pts +- alpha/2 of every set, cells wider
    than the grid step are split evenly, each cell gets CELL_QUAD_POINTS nodes,
    and a point is in a cell's support if its midpoint is (one-sided limits at
    the edges). Summed over blocks, F_s^T conj(F_t) is k(s_i, t_j), PSD for s = t.
    Every block of a set is a read-only view of one reused buffer: use it before the next.
    """
    half, edge = kern.wavelet.alpha / 2.0, kern.window.kappa / 2.0
    cuts = np.unique(np.clip(np.concatenate([pts + d for pts in point_sets for d in (-half, half)]
                                            + [[-edge, edge]]), -edge, edge))
    # sparse point sets leave cells too wide for 4 nodes; grid cuts are never split
    pieces = np.ceil(np.diff(cuts) / kern.weight).astype(np.intp)
    offset = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    cuts = np.append(np.repeat(cuts[:-1], pieces)
                     + offset * np.repeat(np.diff(cuts) / pieces, pieces), edge)
    frac, wts = _gauss_legendre(CELL_QUAD_POINTS)
    widest = max(1, max(pts.size for pts in point_sets))
    step = max(1, (1 << 19) // (CELL_QUAD_POINTS * widest))  # blocks of <= 4 MB per real array
    chunk = max(1, (1 << 15) // widest)  # nodes filled at once: temporaries of <= 256 kB
    bufs = [np.empty((min(step, cuts.size - 1) * frac.size, pts.size), kern.dtype)
            for pts in point_sets]
    for start in range(0, cuts.size - 1, step):
        lo = cuts[start:start + step + 1]
        width = np.diff(lo)[:, None]
        u = (lo[:-1, None] + width * frac).ravel()
        mid = np.repeat(lo[:-1] + width[:, 0] / 2.0, frac.size)[:, None]
        root = np.sqrt((width * wts).ravel() * kern.window.density(u))[:, None]
        blocks = [buf[:u.size] for buf in bufs]
        for pts, block in zip(point_sets, blocks):
            for r in range(0, u.size, chunk):
                c = slice(r, r + chunk)
                np.multiply(np.where(np.abs(pts - mid[c]) < half,
                                     kern.wavelet.envelope_smooth(pts - u[c, None]), 0.0),
                            root[c], out=block[c])
            block.flags.writeable = False
        yield blocks


class SmoothedKernel:
    """K sampled on a uniform midpoint grid over its support square.

    When the wavelet carries an analytic phase factor the stored matrix is
    the real envelope kernel k, and the eigen-wavelets attach the phase when
    evaluated, halving memory and keeping the eigensolve real.
    """

    def __init__(self, wavelet: Wavelet, window: SmoothingWindow,
                 n_points: int = DEFAULT_GRID_POINTS):
        self.wavelet = wavelet
        self.window = window
        self.width = wavelet.alpha + window.kappa
        self.n_points = int(n_points)
        if not 64 <= self.n_points <= MAX_GRID_POINTS:  # before any n^2 allocation
            raise ValidationError(f"n_points must lie in [64, {MAX_GRID_POINTS}]")
        self.grid, self.weight = midpoint_grid(-self.width / 2.0, self.width / 2.0,
                                               self.n_points)
        self.modulation = wavelet.modulation
        self.dtype = complex if wavelet.is_complex and self.modulation == 0.0 else float
        self.envelope_values = self._cell_sum(self.grid, self.grid)

    # -- evaluation -----------------------------------------------------

    def _cell_sum(self, s_pts: np.ndarray, t_pts: np.ndarray) -> np.ndarray:
        """Envelope kernel k(s_i, t_j), the sum of F_s^T conj(F_t) over the cell blocks."""
        out = np.zeros((s_pts.size, t_pts.size), dtype=self.dtype)
        for blocks in _cell_factors(self, [s_pts] if t_pts is s_pts else [s_pts, t_pts]):
            # np.conj copies a real F too: F^T F of one buffer would take SYRK, which rounds apart
            out += blocks[0].T @ np.conj(blocks[-1])
        return out

    def trace_estimate(self) -> float:
        return float(self.weight * np.sum(np.real(np.diag(self.envelope_values))))

    def __repr__(self) -> str:
        return (f"SmoothedKernel({self.wavelet.label}, {self.window.kind.value}, "
                f"kappa={self.window.kappa}, n={self.n_points})")


class ValidRegion:
    """Isosceles triangle of (a, b) pairs whose kernel support fits in (0, T].

    Vertices (0, 0), (0, T), (a_max, T/2) with a_max = T / (alpha + kappa).
    """

    def __init__(self, alpha: float, kappa: float, T: float):
        if not 0 < T < np.inf:  # NaN too
            raise ValidationError(f"T must be positive and finite, got {T}")
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
