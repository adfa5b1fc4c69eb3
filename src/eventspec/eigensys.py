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

Eigen-wavelets phi_l(x) = e^{i 2 pi f x} psi_l(x), phase included, are kept as (n_knots, L)
quintic B-spline coefficients, complex for a complex wavelet and real otherwise. The
envelope samples are refined m-fold by FFT, m the smallest power of two >= 4 with
2 pi (|f| + 1) step / m <= 0.375 rad (at most 16), continued EDGE knots past each end,
modulated at their knots and divided by the quintic B-spline symbol (33 + 26 cos w +
cos 2w)/60 in one more FFT pass (Unser 1999, IEEE Signal Proc. Mag. 16(6)); a table above
MAX_TABLE_BYTES is a ConfigError, and one that is not finite a NumericalError. A value on
interval i is sum_k c_{i-2+k} B_k(t) over 6 real uniform B-spline weights, so evaluation
never sees the modulation. EigenSystem.basis forms them for points inside the support, in
one (6, 6) product over the powers of t; eigen_wavelets_at masks the support and gathers 6
rows per point, and spectra.eigen_transforms sums the weights onto one coefficient grid
row per run of events and meets the table once per block of runs.
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
EDGE = 48  # refined knots the table continues past each end of the grid
# B_k(t) * 120 of the uniform quintic B-spline on rows k = 0..5 from cell - 2, by power of t
_QUINTIC = np.array([[1, -5, 10, -10, 5, -1], [26, -50, 20, 20, -20, 5],
                     [66, 0, -60, 0, 30, -10], [26, 50, 20, -20, -20, 10],
                     [1, 5, 10, 10, 5, -5], [0, 0, 0, 0, 0, 1]]) / 120.0


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
    coefficients : ndarray, shape (n_knots, L)
        Quintic B-spline coefficients of the eigen-wavelets, phase included, on the
        refined uniform knots; upsample is the refinement m.
    diagnostics : dict
        Kernel health: |trace - 1|, max|K - K^H|, retained energy, last eta kept.
    """

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
        # extension is smooth: zero-padding the spectrum refines them m-fold. Continued EDGE
        # knots past each end and modulated at their knots, the FFT division by the quintic
        # B-spline symbol (33 + 26 cos w + cos 2w)/60 gives the spline through them; its
        # wrap decays as 0.4306^k from the ends, below 1e-17 at the support.
        (n, n_ret), f = self.vectors.shape, abs(self.modulation)
        step, m = self.grid[1] - self.grid[0], 4
        while m < 16 and 2.0 * np.pi * (f + 1.0) * step / m > 0.375:  # rad per refined step
            m *= 2
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
        index = np.arange(-EDGE, n * m + EDGE)
        samples = np.take(np.fft.ifft(padded, axis=0), index, axis=0, mode="wrap")
        del padded
        self.upsample, self._step = m, step / m
        self._knots = self.grid[0] + self._step * index
        if self.modulation != 0.0:
            samples *= np.exp(2j * np.pi * self.modulation * self._knots)[:, None]
        w = 2.0 * np.pi * np.fft.fftfreq(len(index))
        samples = np.fft.fft(samples, axis=0)
        samples *= (60.0 * m / (33.0 + 26.0 * np.cos(w) + np.cos(2.0 * w)))[:, None]
        coef = np.fft.ifft(samples, axis=0)
        if not np.iscomplexobj(self.vectors) and self.modulation == 0.0:
            coef = coef.real.copy()
        if not np.all(np.isfinite(coef)):
            raise NumericalError("eigen-wavelet coefficients are not finite")
        self.coefficients = coef

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

    def basis(self, x: np.ndarray):
        """For n points x inside the support: each one's first of 6 coefficient rows and
        the (6, n) weights B_k(t)/120, in one product over the powers 1, t, .., t^5."""
        cell = ((x - self._knots[0]) / self._step).astype(np.intp)  # floor: x > knots[0]
        powers = np.empty((6, x.size))
        powers[0] = 1.0
        t = np.subtract(x, self._knots[cell], out=powers[1])  # from the left knot: exact
        t /= self._step
        np.multiply(t, t, out=powers[2])
        np.multiply(powers[2], t, out=powers[3])
        np.multiply(powers[2], powers[2], out=powers[4])
        np.multiply(powers[4], t, out=powers[5])
        return cell - 2, _QUINTIC @ powers

    def eigen_wavelets_at(self, x: np.ndarray) -> np.ndarray:
        """Eigen-wavelet values, phase included, shape (len(x), L); 0 off the support."""
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) < self.width / 2.0
        first, weights = self.basis(x[inside])
        vals = np.zeros((inside.size, self.n_retained), dtype=complex)
        rows = self.coefficients[first[:, None] + np.arange(6)]  # (n, 6, L)
        vals[inside] = np.einsum("kn,nkl->nl", weights, rows)
        return vals

    def __repr__(self) -> str:
        return (f"EigenSystem({self.wavelet.label}, {self.window.kind.value}, "
                f"kappa={self.window.kappa}, n={self.n_points}, retained={self.n_retained}, "
                f"dof={self.degrees_of_freedom():.3f})")


def nystrom_decompose(kernel: SmoothedKernel,
                      energy_cutoff: float = DEFAULT_ENERGY_CUTOFF) -> EigenSystem:
    """Solve the discretized eigenproblem and keep the leading energy.

    The sampled kernel must be Hermitian to 1e-10. Each eigenvector's phase makes its
    largest-magnitude entry on the first n_points // 2 grid points (x < 0) real positive:
    under a centrosymmetric kernel a whole-grid maximum ties with its mirror entry.
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
    # fix the arbitrary per-vector phase/sign on the half x < 0, where no mirror ties
    idx = np.argmax(np.abs(vecs[: len(vecs) // 2]), axis=0)
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
