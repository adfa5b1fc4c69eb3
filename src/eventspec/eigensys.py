"""Nystrom eigendecomposition of the smoothing kernel.

The integral eigenproblem for K(s, t) is discretized on the kernel's
uniform midpoint grid with equal weights w = (alpha + kappa)/n, giving the
matrix problem (w K) phi = eta phi. Because the weights are uniform the
weighted problem is already Hermitian, eigenvalues are real and the
eigenvectors are orthonormal under the weighted inner product once scaled
by w^(-1/2). A system whose eigenvalue sum is zero or not finite, or whose
degrees of freedom are not finite, raises NumericalError where it is built.

Eigen-wavelet envelopes are kept as (n_knots + 2, L) cubic B-spline coefficients of
the not-a-knot spline on uniform knots (de Boor, A Practical Guide to Splines, ch. IV:
slopes s_{i-1} + 4 s_i + s_{i+1} = 3 (m_{i-1} + m_i) for secants m_i, ends
s_0 + 2 s_1 = (5 m_0 + m_1)/2 and mirror, by one elimination). A value on interval i
is sum_k c_{i+k} B_k(t) over the 4 uniform B-spline pieces (Unser 1999, IEEE Signal
Proc. Mag. 16(6)), times the phase e^{i 2 pi f x} of a modulated wavelet, attached at
evaluation so the interpolated envelope stays smooth. summed_wavelets_by_run sums the
4 weights of every event of a run onto a coefficient grid per run, and all of a block's
grids meet the table in one matrix product.
The Nystrom extension phi_l(x) = eta_l^(-1) sum_j w K(x, s_j) phi_l(s_j) the
table approximates, sum_l eta_l |Phi_l(f)|^2 and the large-kappa closed form of n
are test oracles (tests/oracles.py).

``eigensystem(wavelet, window, n_points, energy_cutoff)`` is the one
constructor the package uses. It memoizes by value in a bounded LRU cache
(built-in wavelets and rectangular windows compare by their parameters), so
equal settings share one build and no result depends on call history.
``eigensystem_cached`` is the same lookup for a built-in wavelet by name and
a rectangular window.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NumericalError, ValidationError
from .kernels import DEFAULT_GRID_POINTS, SmoothedKernel, SmoothingWindow
from .wavelets import DEFAULT_ALPHA, Wavelet

DEFAULT_ENERGY_CUTOFF = 1.0 - 1e-6
# Distinct systems kept by eigensystem(); criterion 4 cycles through six.
SYSTEM_CACHE_SIZE = 32


class EigenSystem:
    """Eigenvalues and sampled eigen-wavelets of a smoothing kernel.

    Attributes
    ----------
    eigenvalues : ndarray
        All grid eigenvalues, descending, negatives clamped to zero.
    n_retained : int
        Number of leading terms kept to reach the energy cutoff.
    vectors : ndarray, shape (n_grid, n_retained)
        Envelope samples of the retained eigen-wavelets, orthonormal under
        the weighted inner product.
    coefficients : ndarray, shape (n_knots + 2, L)
        Cubic B-spline coefficients of the envelopes on the refined uniform knots.
    diagnostics : dict
        Kernel health: |trace - 1|, max|K - K^H|, retained energy, last eta kept.
    """

    UPSAMPLE = 8  # refinement factor for the interpolation grid

    def __init__(self, kernel: SmoothedKernel, eigenvalues: np.ndarray,
                 vectors: np.ndarray, energy_cutoff: float, asymmetry: float):
        self.kernel = kernel
        self.grid = kernel.grid
        self.weight = kernel.weight
        self.modulation = kernel.modulation
        self.eigenvalues = eigenvalues
        self.energy_cutoff = energy_cutoff
        total = float(eigenvalues.sum())
        if not 0.0 < total < math.inf:
            raise NumericalError(f"kernel eigenvalue sum {total:.3e} is zero or not finite")
        cum = np.cumsum(eigenvalues)
        n_keep = int(np.searchsorted(cum, energy_cutoff * total) + 1)
        # guard against the discretization noise floor of the eigensolve
        n_floor = int(np.count_nonzero(eigenvalues > 1e-12 * eigenvalues[0]))
        self.n_retained = max(1, min(n_keep, n_floor, vectors.shape[1]))
        self.vectors = vectors[:, : self.n_retained]
        if not np.sum(self.retained_eigenvalues**2) > 0.0:
            raise NumericalError("degrees of freedom 1 / sum(eta^2) are not finite")
        self.diagnostics = {"trace_error": abs(kernel.trace_estimate() - 1.0),
                            "hermitian_asymmetry": float(asymmetry),
                            "retained_energy": self.retained_energy,
                            "min_retained_eigenvalue": float(eigenvalues[self.n_retained - 1])}
        self._knots, samples = self._refined_samples()
        self.coefficients, self._step = _not_a_knot_coefficients(self._knots, samples)

    def _refined_samples(self):
        # Envelope samples decay to (numerically) zero at the support edges,
        # so their periodic extension is smooth and trigonometric refinement
        # is accurate; a cubic spline on the refined grid then evaluates
        # cheaply without the phase-scale resolution loss of the raw grid.
        n = self.grid.size
        m = self.UPSAMPLE
        spec = np.fft.fft(self.vectors, axis=0)
        half = n // 2
        padded = np.zeros((n * m, self.vectors.shape[1]), dtype=complex)
        padded[:half] = spec[:half]
        padded[-(n - half - 1):] = spec[half + 1:]
        padded[half] = 0.5 * spec[half]
        padded[n * m - half] = 0.5 * spec[half]
        fine = np.fft.ifft(padded, axis=0) * m
        if not np.iscomplexobj(self.vectors):
            fine = fine.real
        step = (self.grid[1] - self.grid[0]) / m
        x = self.grid[0] + step * np.arange(n * m)
        # wrap a few samples on each side so the spline covers the full
        # support; wrapped values sit at the decayed edges
        pad = 4
        x_ext = np.concatenate([x[0] - step * np.arange(pad, 0, -1), x,
                                x[-1] + step * np.arange(1, pad + 1)])
        y_ext = np.concatenate([fine[-pad:], fine, fine[:pad]], axis=0)
        return x_ext, y_ext

    @property
    def retained_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[: self.n_retained]

    @property
    def retained_energy(self) -> float:
        return float(self.retained_eigenvalues.sum() / self.eigenvalues.sum())

    def degrees_of_freedom(self) -> float:
        """n = 1 / sum(eta_l^2) over the retained terms."""
        return float(1.0 / np.sum(self.retained_eigenvalues**2))

    # -- evaluation -----------------------------------------------------

    def _basis(self, x):
        # support mask; for the n points inside, the index of each one's first of 4
        # coefficient rows and the re and im (2, 4, n) of weights e^{i 2 pi f x} B_k(t).
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) < self.kernel.width / 2.0
        x = x[inside]
        first = np.floor((x - self._knots[0]) / self._step).astype(np.intp)
        np.clip(first, 0, len(self.coefficients) - 4, out=first)
        t = x - self._knots[first]  # from the left knot: an exact difference
        t /= self._step
        u = 1.0 - t
        basis = np.empty((4, t.size))  # 6 B_k(t): u^3, 4 - 3 t^2 (1 + u), 4 - 3 u^2 (1 + t), t^3
        np.multiply(u, u, out=basis[0])
        np.multiply(t, t, out=basis[3])
        np.multiply(basis[3], -3.0 - 3.0 * u, out=basis[1])
        np.multiply(basis[0], -3.0 - 3.0 * t, out=basis[2])
        basis[1:3] += 4.0
        basis[0] *= u
        basis[3] *= t
        theta = x * (2.0 * np.pi * self.modulation)
        phase = np.array([np.cos(theta), np.sin(theta)]) / 6.0
        return inside, first, phase[:, None, :] * basis

    def eigen_wavelets_at(self, x: np.ndarray) -> np.ndarray:
        """Eigen-wavelet values, phase attached, shape (len(x), L); 0 off the support."""
        inside, first, weights = self._basis(x)
        vals = np.zeros((inside.size, self.n_retained), dtype=complex)
        rows = self.coefficients[first[:, None] + np.arange(4)]  # (n, 4, L)
        vals[inside] = np.einsum("kn,nkl->nl", weights[0] + 1j * weights[1], rows)
        return vals

    def summed_wavelets_at(self, x: np.ndarray) -> np.ndarray:
        """eigen_wavelets_at(x).sum(axis=0) without forming that (len(x), L) array."""
        return self.summed_wavelets_by_run(x, [np.size(x)])[0]

    def summed_wavelets_by_run(self, x: np.ndarray, ends) -> np.ndarray:
        """summed_wavelets_at of each run x[ends[k-1]:ends[k]] (ends[-1] = 0), shape (len(ends), L).

        bincount sums every weight onto a (runs, 2, n_coef) grid, which meets the whole
        table in one matrix product."""
        inside, first, weights = self._basis(x)
        n_runs, n_coef = len(ends), len(self.coefficients)
        run = np.repeat(np.arange(n_runs), np.diff(ends, prepend=0))[inside]
        slots = (2 * n_coef * run + first) + (n_coef * np.arange(2)[:, None, None]
                                              + np.arange(4)[:, None])
        grid = np.bincount(slots.ravel(), weights.ravel(), minlength=2 * n_runs * n_coef)
        sums = (grid.reshape(2 * n_runs, n_coef) @ self.coefficients).reshape(n_runs, 2, -1)
        return sums[:, 0] + 1j * sums[:, 1]

    def __repr__(self) -> str:
        return (f"EigenSystem({self.kernel!r}, retained={self.n_retained}, "
                f"dof={self.degrees_of_freedom():.3f})")


def _not_a_knot_coefficients(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """The not-a-knot spline's (len(x) + 2, L) cubic B-spline coefficients, and the knot step.

    On interval i, with t = (x - x_i) / step, the spline is sum_k c_{i+k} B_k(t), k = 0..3;
    c_{k+1} = y_k - step^2 S''(x_k) / 6, and c_0, c_{n+1} follow from the end slopes."""
    if not np.all(np.isfinite(y)):
        raise NumericalError("eigen-wavelet samples are not finite")
    step = (x[-1] - x[0]) / (len(x) - 1)
    m = np.diff(y, axis=0) / step
    s = np.concatenate([0.5 * (5.0 * m[:1] + m[1:2]), 3.0 * (m[:-1] + m[1:]),
                        0.5 * (m[-2:-1] + 5.0 * m[-1:])])
    n = len(s)
    lower, upper = [1.0] * (n - 2) + [2.0], [2.0] + [1.0] * (n - 2)
    diag = [1.0] + [4.0] * (n - 2) + [1.0]
    rows = list(s)  # views of s; Thomas elimination, scalar pivots shared by all L columns
    for i in range(1, n):
        ratio = lower[i - 1] / diag[i - 1]
        diag[i] -= ratio * upper[i - 1]
        rows[i] -= ratio * rows[i - 1]
    s /= np.array(diag)[:, None]
    for i in range(n - 2, -1, -1):
        rows[i] -= upper[i] / diag[i] * rows[i + 1]
    # step^2 S''/6 at each knot: from the right of every interval, and the last from its left
    curv = np.concatenate([3.0 * m - 2.0 * s[:-1] - s[1:], s[-2:-1] + 2.0 * s[-1:] - 3.0 * m[-1:]])
    mid = y - curv * (step / 3.0)
    return np.concatenate([mid[1:2] - 2.0 * step * s[:1], mid,
                           mid[-2:-1] + 2.0 * step * s[-1:]]), step


def nystrom_decompose(kernel: SmoothedKernel,
                      energy_cutoff: float = DEFAULT_ENERGY_CUTOFF) -> EigenSystem:
    """Solve the discretized eigenproblem and keep the leading energy.

    The sampled kernel must be Hermitian to 1e-10; eigenvector phases are
    normalized (largest-magnitude entry real positive) for reproducibility.
    """
    if not 0.0 < energy_cutoff <= 1.0:
        raise ValidationError("energy_cutoff must be in (0, 1]")
    if kernel.n_points < 64:
        raise ValidationError("n_points must be at least 64")

    mat = kernel.envelope_values
    asym = np.max(np.abs(mat - np.conj(mat.T)))
    scale = max(np.max(np.abs(mat)), 1.0)
    if asym > 1e-10 * scale:
        raise NumericalError(f"sampled kernel is not Hermitian (asymmetry {asym:.3e})")
    mat = 0.5 * (mat + np.conj(mat.T))

    eta, vecs = np.linalg.eigh(kernel.weight * mat)
    order = np.argsort(eta)[::-1]
    eta = np.clip(eta[order], 0.0, None)
    vecs = vecs[:, order]
    # weighted orthonormality: sum w |phi|^2 = 1
    vecs = vecs / math.sqrt(kernel.weight)
    # fix the arbitrary per-vector phase/sign
    idx = np.argmax(np.abs(vecs), axis=0)
    lead = vecs[idx, np.arange(vecs.shape[1])]
    lead = np.where(np.abs(lead) == 0, 1.0, lead)
    vecs = vecs * np.conj(lead / np.abs(lead))[None, :]
    if not np.iscomplexobj(mat):
        vecs = vecs.real
    return EigenSystem(kernel, eta, vecs, energy_cutoff, asym)


def eigensystem(wavelet: Wavelet, window: SmoothingWindow,
                n_points: int = DEFAULT_GRID_POINTS,
                energy_cutoff: float = DEFAULT_ENERGY_CUTOFF) -> EigenSystem:
    """Eigensystem of the kernel of (wavelet, window), built once per value.

    The system is shared between callers and must not be modified.
    """
    return _eigensystem(wavelet, window, int(n_points), float(energy_cutoff))


@functools.lru_cache(maxsize=SYSTEM_CACHE_SIZE)
def _eigensystem(wavelet, window, n_points, energy_cutoff):
    # keyed on positional arguments only, so one value means one build
    return nystrom_decompose(SmoothedKernel(wavelet, window, n_points), energy_cutoff)


def eigensystem_cached(wavelet_kind: str, kappa: float, alpha: float = DEFAULT_ALPHA,
                       n_points: int = DEFAULT_GRID_POINTS,
                       energy_cutoff: float = DEFAULT_ENERGY_CUTOFF) -> EigenSystem:
    """eigensystem() for a built-in wavelet by name and a rectangular window."""
    return eigensystem(Wavelet.named(wavelet_kind, alpha),
                       SmoothingWindow.rectangular(kappa), n_points, energy_cutoff)
