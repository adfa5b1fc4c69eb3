"""Nystrom eigendecomposition of the smoothing kernel.

The integral eigenproblem for K(s, t) is discretized on the kernel's
uniform midpoint grid with equal weights w = (alpha + kappa)/n, giving the
matrix problem (w K) phi = eta phi. Because the weights are uniform the
weighted problem is already Hermitian, eigenvalues are real and the
eigenvectors are orthonormal under the weighted inner product once scaled
by w^(-1/2).

Eigen-wavelet envelopes are kept as a table of cubic pieces; for a modulated
wavelet the analytic phase factor e^{i 2 pi f x} is attached at evaluation
time, so the interpolated quantity is smooth and slowly varying. The pieces
form the not-a-knot cubic spline on uniform knots (de Boor, A Practical Guide to
Splines, ch. IV): the slopes solve s_{i-1} + 4 s_i + s_{i+1} = 3 (m_{i-1} + m_i)
for secants m_i, ends s_0 + 2 s_1 = (5 m_0 + m_1)/2 and mirror, by one elimination.
The Nystrom extension phi_l(x) = eta_l^(-1) sum_j w K(x, s_j) phi_l(s_j) the
table approximates, and sum_l eta_l |Phi_l(f)|^2, are test oracles (tests/oracles.py).

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
from .quadrature import simpson_rule
from .wavelets import DEFAULT_ALPHA, QUAD_POINTS, Wavelet, autocorrelation

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
        total = eigenvalues.sum()
        cum = np.cumsum(eigenvalues)
        n_keep = int(np.searchsorted(cum, energy_cutoff * total) + 1)
        # guard against the discretization noise floor of the eigensolve
        n_floor = int(np.count_nonzero(eigenvalues > 1e-12 * eigenvalues[0]))
        self.n_retained = max(1, min(n_keep, n_floor, vectors.shape[1]))
        self.vectors = vectors[:, : self.n_retained]
        self.diagnostics = {"trace_error": abs(kernel.trace_estimate() - 1.0),
                            "hermitian_asymmetry": float(asymmetry),
                            "retained_energy": self.retained_energy,
                            "min_retained_eigenvalue": float(eigenvalues[self.n_retained - 1])}
        self._knots, samples = self._refined_samples()
        self._table, self._step = _not_a_knot_table(self._knots, samples)

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

    def _gather(self, x):
        # support mask; for the n points inside, table rows (n, 4, L) and weights
        # phase * [1, dx, dx^2, dx^3]; uniform knots make the index a floor division
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) < self.kernel.width / 2.0
        x = x[inside]
        idx = np.floor((x - self._knots[0]) / self._step).astype(np.intp)
        idx = np.clip(idx, 0, len(self._table) - 1)
        dx = (x - self._knots[idx])[:, None]
        weights = np.exp(2j * np.pi * self.modulation * x)[:, None] * dx ** np.arange(4)
        return inside, self._table[idx], weights

    def eigen_wavelets_at(self, x: np.ndarray) -> np.ndarray:
        """Eigen-wavelet values, phase attached, shape (len(x), L); 0 off the support."""
        inside, rows, weights = self._gather(x)
        vals = np.zeros((inside.size, self.n_retained), dtype=complex)
        vals[inside] = np.einsum("nk,nkl->nl", weights, rows)
        return vals

    def summed_wavelets_at(self, x: np.ndarray) -> np.ndarray:
        """eigen_wavelets_at(x).sum(axis=0) without forming that (len(x), L) array.

        The real and imaginary parts of the weights form two rows, contracted
        with the gathered table rows in one matrix product.
        """
        _, rows, weights = self._gather(x)
        sums = weights.view(float).reshape(-1, 2).T @ rows.reshape(-1, self.n_retained)
        return sums[0] + 1j * sums[1]

    def __repr__(self) -> str:
        return (f"EigenSystem({self.kernel!r}, retained={self.n_retained}, "
                f"dof={self.degrees_of_freedom():.3f})")


def _not_a_knot_table(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """CubicSpline's (n - 1, 4, L) coefficients of 1, dx, dx^2, dx^3, and the knot step."""
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
    t = (s[:-1] + s[1:] - 2.0 * m) / step
    return np.stack([y[:-1], s[:-1], (m - s[:-1]) / step - t, t / step], axis=1), step


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


def dof_closed_form(wavelet: Wavelet, kappa: float) -> float:
    """Large-kappa closed form n = kappa / integral |P(x)|^2 dx.

    Only valid for a rectangular window with kappa > alpha. This expression
    drops a boundary term of relative size O(1/kappa), so it sits slightly
    below the eigenvalue-sum value at moderate kappa; the eigenvalue sum is
    authoritative for distributional use.
    """
    if kappa <= wavelet.alpha:
        raise ValidationError("closed-form degrees of freedom require kappa > alpha")
    x, w = simpson_rule(-wavelet.alpha, wavelet.alpha, QUAD_POINTS)
    p = autocorrelation(wavelet, x)
    energy = float(w @ np.abs(p) ** 2)
    return kappa / energy


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
