"""Nystrom eigendecomposition of the smoothing kernel.

The integral eigenproblem for K(s, t) is discretized on the kernel's
uniform midpoint grid with equal weights w = (alpha + kappa)/n, giving the
matrix problem (w K) phi = eta phi. Because the weights are uniform the
weighted problem is already Hermitian, eigenvalues are real and the
eigenvectors are orthonormal under the weighted inner product once scaled
by w^(-1/2). The solve symmetrises and weights one copy of K in place. A system is
a value: it keeps the kernel's settings and grid, its L retained eigenvector columns
(not all n_points) and its table, never the n_points^2 kernel matrix. One whose
eigenvalue sum is zero or not finite, or whose degrees of freedom are not finite,
raises NumericalError where it is built.

Eigen-wavelet envelopes are kept as (n_knots + 2, L) cubic B-spline coefficients of
the periodic cubic spline through their 8x FFT refinement. One FFT pass builds them: the
zero-padded spectrum divided by the B-spline symbol (4 + 2 cos w)/6 (Unser 1999, IEEE
Signal Proc. Mag. 16(6)); a table above MAX_TABLE_BYTES is a ConfigError, and one that is
not finite a NumericalError. A value on interval i is sum_k c_{i+k} B_k(t) over the 4
uniform B-spline pieces, times the phase e^{i 2 pi f x} of a modulated wavelet, attached
at evaluation so the interpolated envelope stays smooth. summed_wavelets_by_run sums the
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

from .errors import ConfigError, NumericalError, ValidationError
from .kernels import DEFAULT_GRID_POINTS, MAX_TABLE_BYTES, SmoothedKernel, SmoothingWindow
from .wavelets import DEFAULT_ALPHA, Wavelet

DEFAULT_ENERGY_CUTOFF = 1.0 - 1e-6
# Distinct systems kept by eigensystem(); criterion 4 cycles through six.
SYSTEM_CACHE_SIZE = 32


class EigenSystem:
    """Eigenvalues and sampled eigen-wavelets of a smoothing kernel.

    Attributes
    ----------
    wavelet, window, width, n_points, grid, weight, modulation
        Those of the kernel it was solved from, which it does not keep.
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
        self.wavelet, self.window, self.width = kernel.wavelet, kernel.window, kernel.width
        self.n_points, self.grid, self.weight = kernel.n_points, kernel.grid, kernel.weight
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
        self.vectors = vectors[:, : self.n_retained].copy()  # not a view that keeps all n columns
        if not np.sum(self.retained_eigenvalues**2) > 0.0:
            raise NumericalError("degrees of freedom 1 / sum(eta^2) are not finite")
        self.diagnostics = {"trace_error": abs(kernel.trace_estimate() - 1.0),
                            "hermitian_asymmetry": float(asymmetry),
                            "retained_energy": self.retained_energy,
                            "min_retained_eigenvalue": float(eigenvalues[self.n_retained - 1])}
        self._spline_table()

    def _spline_table(self):
        # Envelope samples decay to (numerically) zero at the support edges, so their periodic
        # extension is smooth: zero-padding the spectrum refines them 8x, and dividing it by
        # the cubic B-spline symbol (4 + 2 cos w)/6 gives the periodic cubic spline through
        # the refined samples, free of the phase-scale resolution loss of the raw grid.
        (n, n_ret), m = self.vectors.shape, self.UPSAMPLE
        nbytes, kappa = 16 * n * m * n_ret, self.window.kappa
        if nbytes > MAX_TABLE_BYTES:
            raise ConfigError(f"the eigen-wavelet table at n_points={n}, kappa={kappa:g} needs "
                              f"{nbytes} bytes, above {MAX_TABLE_BYTES}")
        spec = np.fft.fft(self.vectors, axis=0)
        half = n // 2
        padded = np.zeros((n * m, n_ret), dtype=complex)
        padded[:half] = spec[:half]
        padded[-(n - half - 1):] = spec[half + 1:]
        padded[half] = padded[n * m - half] = 0.5 * spec[half]
        padded *= (6.0 * m / (4.0 + 2.0 * np.cos(2.0 * np.pi * np.fft.fftfreq(n * m))))[:, None]
        coef = np.fft.ifft(padded, axis=0)
        del padded  # before the wrap copy below: two table-sized arrays at once, not three
        if not np.iscomplexobj(self.vectors):
            coef = coef.real
        if not np.all(np.isfinite(coef)):
            raise NumericalError("eigen-wavelet coefficients are not finite")
        # knots from 4 refined steps before the grid to 4 past it; one more row at each end
        self._step = (self.grid[1] - self.grid[0]) / m
        self._knots = self.grid[0] + self._step * np.arange(-4, n * m + 4)
        self.coefficients = np.take(coef, np.arange(-5, n * m + 5), axis=0, mode="wrap")

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
        inside = np.abs(x) < self.width / 2.0
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

    def summed_wavelets_by_run(self, x: np.ndarray, ends) -> np.ndarray:
        """Each run's eigen_wavelets_at(x[ends[k-1]:ends[k]]).sum(axis=0), shape (len(ends), L).

        ends[-1] = 0. bincount sums every weight onto a (runs, 2, n_coef) grid, which
        meets the whole table in one matrix product."""
        inside, first, weights = self._basis(x)
        n_runs, n_coef = len(ends), len(self.coefficients)
        run = np.repeat(np.arange(n_runs), np.diff(ends, prepend=0))[inside]
        slots = (2 * n_coef * run + first) + (n_coef * np.arange(2)[:, None, None]
                                              + np.arange(4)[:, None])
        grid = np.bincount(slots.ravel(), weights.ravel(), minlength=2 * n_runs * n_coef)
        sums = (grid.reshape(2 * n_runs, n_coef) @ self.coefficients).reshape(n_runs, 2, -1)
        return sums[:, 0] + 1j * sums[:, 1]

    def __repr__(self) -> str:
        return (f"EigenSystem({self.wavelet.label}, {self.window.kind.value}, "
                f"kappa={self.window.kappa}, n={self.n_points}, retained={self.n_retained}, "
                f"dof={self.degrees_of_freedom():.3f})")


def nystrom_decompose(kernel: SmoothedKernel,
                      energy_cutoff: float = DEFAULT_ENERGY_CUTOFF) -> EigenSystem:
    """Solve the discretized eigenproblem and keep the leading energy.

    The sampled kernel must be Hermitian to 1e-10; eigenvector phases are
    normalized (largest-magnitude entry real positive) for reproducibility.
    """
    if not 0.0 < energy_cutoff <= 1.0:
        raise ValidationError("energy_cutoff must be in (0, 1]")

    mat = kernel.envelope_values
    # w (mat + mat^H) / 2 in one buffer, in place: the sums and products of the out-of-place form
    sym = np.conj(mat.T)
    # max|K - K^H| and max|K| over blocks of 64 rows, so no n_points^2 temporary
    rows = [slice(i, i + 64) for i in range(0, len(mat), 64)]
    asym = np.max([np.max(np.abs(mat[r] - sym[r])) for r in rows])
    scale = max(np.max([np.max(np.abs(mat[r])) for r in rows]), 1.0)
    if asym > 1e-10 * scale:
        raise NumericalError(f"sampled kernel is not Hermitian (asymmetry {asym:.3e})")
    sym += mat
    sym *= 0.5
    sym *= kernel.weight

    eta, vecs = np.linalg.eigh(sym)
    del sym
    order = np.argsort(eta)[::-1]
    eta = np.clip(eta[order], 0.0, None)
    vecs = vecs[:, order]
    # weighted orthonormality: sum w |phi|^2 = 1
    vecs /= math.sqrt(kernel.weight)
    # fix the arbitrary per-vector phase/sign
    idx = np.argmax(np.abs(vecs), axis=0)
    lead = vecs[idx, np.arange(vecs.shape[1])]
    lead = np.where(np.abs(lead) == 0, 1.0, lead)
    vecs *= np.conj(lead / np.abs(lead))[None, :]
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
