"""Reference formulas the tests check the package against; not part of the package."""

import math

import numpy as np
from scipy.special import erf

from eventspec import (EigenSystem, EventStream, SmoothedKernel, SmoothingWindow,
                       ValidationError, ValidRegion, Wavelet)
from eventspec.kernels import DEFAULT_GRID_POINTS, _cell_factors
from eventspec.spectra import _require_inside


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


def full_kernel_matrix(kern: SmoothedKernel) -> np.ndarray:
    """Full (possibly complex) sampled kernel matrix."""
    if kern.modulation == 0.0:
        return kern.envelope_values
    return kern.envelope_values * np.exp(
        2j * np.pi * kern.modulation * (kern.grid[:, None] - kern.grid[None, :]))


def value_matrix(kern: SmoothedKernel, s_pts: np.ndarray, t_pts: np.ndarray) -> np.ndarray:
    """K(s_i, t_j) for arbitrary point sets, by the cell rule of the grid matrix.

    Always carries the full kernel phase, independent of whether the
    stored matrix is phase factorized.
    """
    s_pts = np.asarray(s_pts, dtype=float)
    t_pts = np.asarray(t_pts, dtype=float)
    mat = kern._cell_sum(s_pts, t_pts)
    if kern.wavelet.modulation != 0.0:
        mat = mat * np.exp(2j * np.pi * kern.wavelet.modulation
                           * (s_pts[:, None] - t_pts[None, :]))
    return mat


def rank_one_kernel(wavelet: Wavelet, n_points: int = DEFAULT_GRID_POINTS) -> SmoothedKernel:
    """Degenerate kernel psi(s) psi*(t), the single-point-window limit.

    Useful as the exactly rank-one reference case for eigensolvers: the
    window support is one cell of the cell rule, with sum w h = 1.
    """
    return SmoothedKernel(wavelet, SmoothingWindow.rectangular(1e-12), n_points)


def unfactorized_kernel(wavelet: Wavelet, window: SmoothingWindow) -> SmoothedKernel:
    """The kernel with its analytic phase folded into a complex stored matrix."""
    kern = SmoothedKernel(wavelet, window)
    kern.envelope_values = full_kernel_matrix(kern)
    kern.modulation = 0.0
    return kern


def scaled_kernel_value(kernel: SmoothedKernel, a: float, b: float, s, t):
    """K_{a,b}(s, t) = a^(-1) K((s - b)/a, (t - b)/a)."""
    if a <= 0:
        raise ValidationError("scale a must be positive")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return value_matrix(kernel, np.atleast_1d((s - b) / a),
                        np.atleast_1d((t - b) / a)) / a


def eigen_wavelet_value(system: EigenSystem, l: int, x) -> complex | np.ndarray:
    """Nystrom extension of eigen-wavelet l at arbitrary points.

    phi_l(x) = (1/eta_l) * sum_j w K(x, s_j) phi_l(s_j); agrees with the
    stored samples exactly at grid points.
    """
    if not 0 <= l < system.n_retained:
        raise IndexError(f"eigen-wavelet index {l} beyond retained rank "
                         f"{system.n_retained}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    rows = value_matrix(system.kernel, x_arr, system.grid)
    full_l = system.vectors[:, l]
    if system.modulation != 0.0:
        full_l = full_l * np.exp(2j * np.pi * system.modulation * system.grid)
    out = (rows @ full_l) * system.weight / system.eigenvalues[l]
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return out[0]
    return out


def effective_frequency_response(system: EigenSystem, f) -> np.ndarray | float:
    """sum_l eta_l |Phi_l(f)|^2, the energy response of the eigen system.

    Converges to |Psi(f)|^2 of the generating wavelet as the energy cutoff
    approaches one.
    """
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    full = system.vectors
    if system.modulation != 0.0:
        full = full * np.exp(2j * np.pi * system.modulation * system.grid)[:, None]
    # direct Fourier sum at arbitrary frequencies
    expo = np.exp(-2j * np.pi * f_arr[:, None] * system.grid[None, :])
    transforms = expo @ full * system.weight
    out = (np.abs(transforms) ** 2) @ system.retained_eigenvalues
    if np.isscalar(f) or np.asarray(f).ndim == 0:
        return float(out[0])
    return out


def smoothed_periodogram_direct(stream: EventStream, kernel: SmoothedKernel,
                                a: float, b: float,
                                check_region: bool = True) -> np.ndarray:
    """Omega(a, b) as the time average of the rank-one periodogram.

    Omega_ij = a^(-1) int h_kappa(u) g_i(u) g_j*(u) du with the transform
    g_i(u) = sum_x e^{i 2 pi f x} r(x - u) over x = (t - b)/a, t the events of
    stream i; it equals the kernel double sum over event pairs. On the kernel's
    cell rule each event's column of F is phased and summed to g_i per block of
    cells, and G G^H / a is added.
    """
    if check_region:
        _require_inside(ValidRegion(kernel.wavelet.alpha, kernel.window.kappa, stream.T), a, b)
    half = a * kernel.width / 2.0
    locals_ = [(stream.window(i, b - half, b + half) - b) / a for i in range(stream.p)]
    phases = [np.exp(2j * np.pi * kernel.wavelet.modulation * x) for x in locals_]
    out = np.zeros((stream.p, stream.p), dtype=complex)
    for blocks in _cell_factors(kernel, locals_):
        g = np.array([f @ phase for f, phase in zip(blocks, phases)])
        out += g @ np.conj(g.T)
    return out / a


class ScaledWavelet:
    """psi_{a,b}(t) = a^(-1/2) psi((t - b)/a) with support (b - a*alpha/2, b + a*alpha/2)."""

    def __init__(self, base: Wavelet, a: float, b: float = 0.0):
        if a <= 0:
            raise ValidationError("scale a must be positive")
        self.base = base
        self.a = float(a)
        self.b = float(b)

    @property
    def support(self) -> tuple[float, float]:
        half = self.a * self.base.alpha / 2.0
        return (self.b - half, self.b + half)

    def evaluate(self, t):
        t = np.asarray(t, dtype=float)
        return self.base((t - self.b) / self.a) / math.sqrt(self.a)

    __call__ = evaluate


def poisson_spectrum(rates) -> np.ndarray:
    """Flat spectrum diag(lambda) of independent Poisson streams."""
    return np.diag(np.atleast_1d(np.asarray(rates, dtype=float)))
