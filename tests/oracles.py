"""Reference formulas the tests check the package against; not part of the package."""

import functools
import math

import numpy as np
from scipy.special import erf

from eventspec import (EigenSystem, EventStream, SmoothedKernel, SmoothingWindow,
                       ValidationError, ValidRegion, Wavelet, WindowKind)
from eventspec.kernels import CELL_QUAD_POINTS, DEFAULT_GRID_POINTS, _cell_factors, _gauss_legendre
from eventspec.quadrature import simpson_rule
from eventspec.spectra import _require_inside, cwt
from eventspec.wavelets import CENTRAL_FREQUENCY_FFT, QUAD_POINTS

KERNEL_QUAD_POINTS = 128    # Gauss-Legendre nodes for pointwise kernel values


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


@functools.lru_cache(maxsize=8)
def kernel_of(system: EigenSystem) -> SmoothedKernel:
    """The sampled kernel a system was solved from, which the system does not keep.

    The build is deterministic, so its matrix is bit-identical to the one the
    system came from, unless that kernel was altered (as unfactorized_kernel does).
    """
    return SmoothedKernel(system.wavelet, system.window, system.n_points)


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
    rows = value_matrix(kernel_of(system), x_arr, system.grid)
    full_l = system.vectors[:, l]
    if system.modulation != 0.0:
        full_l = full_l * np.exp(2j * np.pi * system.modulation * system.grid)
    out = (rows @ full_l) * system.weight / system.eigenvalues[l]
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return out[0]
    return out


def refined_samples(system: EigenSystem):
    """Knots and envelope samples of a system refined 8x by FFT, over one period.

    The envelopes' periodic extension, trigonometrically interpolated: n * UPSAMPLE
    samples from the first grid point, plus the closing sample (equal to the first)
    one period on, as a periodic CubicSpline takes them.
    """
    n = system.grid.size
    m = system.UPSAMPLE
    spec = np.fft.fft(system.vectors, axis=0)
    half = n // 2
    padded = np.zeros((n * m, system.vectors.shape[1]), dtype=complex)
    padded[:half] = spec[:half]
    padded[-(n - half - 1):] = spec[half + 1:]
    padded[half] = 0.5 * spec[half]
    padded[n * m - half] = 0.5 * spec[half]
    fine = np.fft.ifft(padded, axis=0) * m
    if not np.iscomplexobj(system.vectors):
        fine = fine.real
    step = (system.grid[1] - system.grid[0]) / m
    x = system.grid[0] + step * np.arange(n * m + 1)
    return x, np.concatenate([fine, fine[:1]])


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


def periodogram(stream: EventStream, wavelet: Wavelet, a: float, b: float) -> np.ndarray:
    """Rank-one wavelet periodogram W(a, b) = w w^H."""
    w = cwt(stream, wavelet, a, b)
    return np.outer(w, np.conj(w))


def normalize_coords(a: float, b: float, T: float, alpha: float, kappa: float):
    """Map raw (a, b) to the T-free coordinates (a_tilde, b_tilde); inverse of denormalize_coords."""
    return a * (alpha + kappa) / T, b / T


def eigen_transforms_per_point(stream: EventStream, system: EigenSystem, a: float,
                               b_grid) -> np.ndarray:
    """spectra.eigen_transforms one point and one stream at a time, by eigen_wavelets_at.

    Each point's events come from EventStream.window, and their values are
    summed row by row instead of contracted run by run.
    """
    half = a * system.width / 2.0
    out = np.zeros((len(b_grid), stream.p, system.n_retained), dtype=complex)
    for k, b in enumerate(b_grid):
        for i in range(stream.p):
            local = (stream.window(i, b - half, b + half) - b) / a
            out[k, i] = system.eigen_wavelets_at(local).sum(axis=0)
    return out / math.sqrt(a)


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


def autocorrelation(w: Wavelet, x) -> complex | np.ndarray:
    """P(x) = integral of psi(t) psi*(t - x) dt over the truncated support.

    P(0) = 1 by unit norm and P(-x) = conj(P(x)).
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    half = w.alpha / 2.0
    out = np.zeros(x_arr.shape, dtype=complex if w.is_complex else float)
    for i, xi in enumerate(x_arr):
        lo = max(-half, xi - half)
        hi = min(half, xi + half)
        if hi <= lo:
            continue
        t, wt = simpson_rule(lo, hi, QUAD_POINTS)
        out[i] = wt @ (w(t) * np.conj(w(t - xi)))
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return out[0]
    return out


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


def central_frequency_full_spectrum(w: Wavelet) -> float:
    """wavelets.central_frequency with the whole scaled spectrum and np.fft.fftfreq's mask."""
    half = w.alpha / 2.0
    n = QUAD_POINTS
    t = np.linspace(-half, half, n)
    vals = w(t)
    dt = t[1] - t[0]
    spec = np.fft.fft(vals, CENTRAL_FREQUENCY_FFT) * dt
    freqs = np.fft.fftfreq(CENTRAL_FREQUENCY_FFT, dt)
    pos = freqs > 0
    power = np.abs(spec[pos]) ** 2
    f = freqs[pos]
    mass = np.trapezoid(power, f)
    if mass <= 0:
        raise ValidationError("wavelet has no positive-frequency energy")
    return float(np.trapezoid(f * power, f) / mass)


def field_csv_one_string(result, path) -> None:
    """SpectralField.to_csv with the whole file built as one string."""
    p = result.p
    pairs = [f"{i + 1},{j + 1}" for i in range(p) for j in range(p)]
    b_texts = [repr(b) for b in np.asarray(result.b_grid, dtype=float).tolist()]
    heads = [f"{a},{b},{ij}" for a in map(repr, np.asarray(result.a_grid, dtype=float).tolist())
             for b in b_texts for ij in pairs]
    values = (map(repr, x.ravel().tolist()) for x in
              (result.omega.real, result.omega.imag, np.asarray(result.gamma2, dtype=float)))
    oks = np.repeat(np.where(result.valid.ravel(), "1", "0"), p * p).tolist()
    body = "\n".join(map(",".join, zip(heads, *values, oks)))
    with open(path, "w", newline="") as fh:
        fh.write("a,b,i,j,re,im,coherence,valid\n" + body + "\n")


def save_csv_sorted_tuples(stream: EventStream, path) -> None:
    """pointproc.save_csv by one Python sort of every (time, stream) tuple."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# p={stream.p} T={float(stream.T)!r}\n")
        merged = [(float(t), i + 1) for i, seq in enumerate(stream.events) for t in seq]
        merged.sort()
        for t, idx in merged:
            fh.write(f"{idx},{t!r}\n")


def cell_factors_whole_blocks(kern: SmoothedKernel, point_sets: list):
    """kernels._cell_factors with each block's F built in one expression, a new array per block."""
    half, edge = kern.wavelet.alpha / 2.0, kern.window.kappa / 2.0
    cuts = np.unique(np.clip(np.concatenate([pts + d for pts in point_sets for d in (-half, half)]
                                            + [[-edge, edge]]), -edge, edge))
    pieces = np.ceil(np.diff(cuts) / kern.weight).astype(np.intp)
    offset = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    cuts = np.append(np.repeat(cuts[:-1], pieces)
                     + offset * np.repeat(np.diff(cuts) / pieces, pieces), edge)
    frac, wts = _gauss_legendre(CELL_QUAD_POINTS)
    widest = max(1, max(pts.size for pts in point_sets))
    step = max(1, (1 << 19) // (CELL_QUAD_POINTS * widest))
    for start in range(0, cuts.size - 1, step):
        lo = cuts[start:start + step + 1]
        width = np.diff(lo)[:, None]
        u = (lo[:-1, None] + width * frac).ravel()
        mid = np.repeat(lo[:-1] + width[:, 0] / 2.0, frac.size)[:, None]
        root = np.sqrt((width * wts).ravel() * kern.window.density(u))[:, None]
        yield [np.where(np.abs(pts - mid) < half, kern.wavelet.envelope_smooth(pts - u[:, None]),
                        0.0) * root for pts in point_sets]
