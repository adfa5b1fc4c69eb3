"""Analyzing wavelets and their truncated (finite-support) versions.

A wavelet here is always the *approximating* wavelet: the analytic form
restricted to (-alpha/2, alpha/2). After truncation the function is
re-normalized to unit L2 norm and the residual mean is projected out, so
that zero mean and unit norm hold exactly for the object actually used.

For a modulated wavelet (Morlet) the mean is removed by subtracting a small
cos/sin component at the modulation frequency rather than a constant; this
keeps the representation psi(t) = exp(i*2*pi*f_mod*t) * r(t) with r real,
which the kernel and eigensystem modules exploit to work with a real
symmetric kernel. For real wavelets the same projection reduces to the
usual constant subtraction.
"""

from __future__ import annotations

import csv
import enum
import functools
import math

import numpy as np

from .errors import ConfigError, ParseError, ValidationError
from .quadrature import simpson_rule

QUAD_POINTS = 4097  # composite Simpson nodes across the support
DEFAULT_ALPHA = 8.0
CENTRAL_FREQUENCY_FFT = 1 << 18  # zero-padded FFT length for the spectral centroid

_MORLET_NORM = math.pi ** -0.25
_MEXHAT_NORM = 2.0 / math.sqrt(3.0) * math.pi ** -0.25


class WaveletKind(enum.Enum):
    MORLET = "morlet"
    MEXICAN_HAT = "mexhat"
    TABULATED = "tabulated"


def _morlet_envelope(t: np.ndarray) -> np.ndarray:
    return _MORLET_NORM * np.exp(-0.5 * t**2)


def _mexhat(t: np.ndarray) -> np.ndarray:
    return _MEXHAT_NORM * (1.0 - t**2) * np.exp(-0.5 * t**2)


@functools.lru_cache(maxsize=32)
def _built_in(cls, kind, alpha, envelope, modulation):
    return cls(kind, alpha, envelope, modulation, False)


class Wavelet:
    """Truncated analyzing wavelet with unit norm and zero mean.

    Use the factory methods ``named``, ``morlet``, ``mexican_hat``,
    ``tabulated`` or ``from_csv``. Instances are immutable and safe to share
    across threads. Built-in wavelets are built once per (kind, alpha)
    and compare and hash by it; tabulated ones only equal themselves.

    Attributes
    ----------
    kind : WaveletKind
    alpha : float
        Width of the truncated support (-alpha/2, alpha/2) at unit scale.
    is_complex : bool
    modulation : float
        Frequency f_mod of the analytic phase factor; the full wavelet is
        exp(i*2*pi*f_mod*t) times a real envelope when f_mod > 0.
    """

    def __init__(self, kind: WaveletKind, alpha: float, envelope, modulation: float,
                 envelope_complex: bool):
        if not 0 < alpha < math.inf:
            raise ValidationError("alpha must be positive and finite")
        self.kind = kind
        self.alpha = float(alpha)
        self.modulation = float(modulation)
        self._raw_envelope = envelope
        self.is_complex = envelope_complex or modulation != 0.0
        self._fit_corrections()

    # -- construction ---------------------------------------------------

    @classmethod
    def named(cls, kind: str, alpha: float = DEFAULT_ALPHA) -> "Wavelet":
        """Built-in wavelet by name: 'morlet' or 'mexhat'."""
        factories = {"morlet": cls.morlet, "mexhat": cls.mexican_hat}
        if kind not in factories:
            raise ConfigError(f"unknown wavelet {kind!r} (choose morlet or mexhat)")
        return factories[kind](alpha)

    @classmethod
    def morlet(cls, alpha: float = DEFAULT_ALPHA) -> "Wavelet":
        """Morlet wavelet pi^(-1/4) exp(-t^2/2) exp(i 2 pi t)."""
        return _built_in(cls, WaveletKind.MORLET, alpha, _morlet_envelope, 1.0)

    @classmethod
    def mexican_hat(cls, alpha: float = DEFAULT_ALPHA) -> "Wavelet":
        """Unit-norm second derivative of a Gaussian (real valued)."""
        return _built_in(cls, WaveletKind.MEXICAN_HAT, alpha, _mexhat, 0.0)

    @classmethod
    def tabulated(cls, times: np.ndarray, values: np.ndarray,
                  alpha: float | None = None) -> "Wavelet":
        """Wavelet given by samples on a uniform grid inside its support."""
        times, values = checked_samples(times, values, 8, "tabulated wavelet")
        steps = np.diff(times)
        if steps.max() - steps.min() > 1e-9 * steps.mean():
            raise ValidationError("tabulated wavelet grid must be uniform")
        if alpha is None:
            alpha = 2.0 * max(abs(times[0]), abs(times[-1]))
        is_complex = np.iscomplexobj(values) and np.abs(values.imag).max() > 0
        envelope = sampled(times, values if is_complex else values.real)
        return cls(WaveletKind.TABULATED, alpha, envelope, 0.0, is_complex)

    @classmethod
    def from_csv(cls, path) -> "Wavelet":
        """Load a tabulated wavelet from a (t, re[, im]) CSV file."""
        return cls.tabulated(*read_samples(path, (2, 3)))

    # -- normalization --------------------------------------------------

    def _fit_corrections(self) -> None:
        # Project out the Fourier mode of the raw envelope at the modulation
        # frequency so the full wavelet integrates to zero, then rescale to
        # unit L2 norm. All integrals use the same Simpson rule that the
        # invariant checks use, so the corrections are exact for it.
        half = self.alpha / 2.0
        x, w = simpson_rule(-half, half, QUAD_POINTS)
        inside = np.abs(x) < half  # the evaluation mask; endpoints excluded
        raw = np.where(inside, self._raw_envelope(x), 0.0)
        if self.modulation != 0.0:
            cosx = np.where(inside, np.cos(2.0 * np.pi * self.modulation * x), 0.0)
            sinx = np.where(inside, np.sin(2.0 * np.pi * self.modulation * x), 0.0)
            mu = w @ ((cosx + 1j * sinx) * raw)
            gram = np.array([[w @ (cosx * cosx), w @ (cosx * sinx)],
                             [w @ (sinx * cosx), w @ (sinx * sinx)]])
            try:
                coeff = np.linalg.solve(gram, np.array([mu.real, mu.imag]))
            except np.linalg.LinAlgError:  # sin^2 underflows over a support this narrow
                raise ValidationError(f"alpha={self.alpha:g} is too narrow to normalise "
                                      "the wavelet (singular cos/sin Gram matrix)") from None
            self._c_cos, self._c_sin = float(coeff[0]), float(coeff[1])
            env = raw - self._c_cos * cosx - self._c_sin * sinx
        else:
            ones = inside.astype(float)
            mean = (w @ raw) / (w @ ones)
            self._c_cos, self._c_sin = mean, 0.0
            env = raw - mean * ones
        norm = math.sqrt(float(np.real(w @ (env * np.conj(env)))))
        if norm <= 0:
            raise ValidationError("wavelet has zero norm on its support")
        self._scale = norm

    # -- evaluation -----------------------------------------------------

    def envelope_smooth(self, t) -> np.ndarray:
        """Corrected envelope without the support mask.

        Intended for quadrature over subintervals of the support, where the
        boundary value must be the one-sided limit rather than zero.
        """
        t = np.asarray(t, dtype=float)
        raw = self._raw_envelope(t)
        if self.modulation != 0.0:
            corr = (self._c_cos * np.cos(2.0 * np.pi * self.modulation * t)
                    + self._c_sin * np.sin(2.0 * np.pi * self.modulation * t))
        else:
            corr = self._c_cos
        return (raw - corr) / self._scale

    def envelope(self, t) -> np.ndarray:
        """Corrected envelope r(t); zero outside the support."""
        t = np.asarray(t, dtype=float)
        inside = np.abs(t) < self.alpha / 2.0
        return np.where(inside, self.envelope_smooth(t), 0.0)

    def __call__(self, t):
        """Evaluate the wavelet at unit scale; exactly zero off support."""
        env = self.envelope(t)
        if self.modulation != 0.0:
            t = np.asarray(t, dtype=float)
            return env * np.exp(2j * np.pi * self.modulation * t)
        return env

    @property
    def label(self) -> str:
        return self.kind.value

    @functools.cached_property
    def central_frequency(self) -> float:
        return central_frequency(self)

    def _key(self):
        return id(self) if self.kind is WaveletKind.TABULATED else (self.kind, self.alpha)

    def __eq__(self, other) -> bool:
        return isinstance(other, Wavelet) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Wavelet({self.label}, alpha={self.alpha})"


def central_frequency(w: Wavelet) -> float:
    """Spectral centroid of |Psi(f)|^2 over positive frequencies.

    Computed from the FFT of the truncated wavelet, zero padded for
    frequency resolution. For an analytic wavelet such as the Morlet the
    negative-frequency mass is negligible and this equals the plain first
    moment of its energy spectrum.
    """
    half = w.alpha / 2.0
    n = QUAD_POINTS
    t = np.linspace(-half, half, n)
    vals = w(t)
    dt = t[1] - t[0]
    half_n = CENTRAL_FREQUENCY_FFT // 2
    spec = np.fft.fft(vals, CENTRAL_FREQUENCY_FFT)
    spec *= dt
    power = np.abs(spec[1:half_n])  # the positive frequencies k / (n_fft dt), k < n_fft / 2
    del spec
    power **= 2
    f = np.arange(1, half_n) * (1.0 / (CENTRAL_FREQUENCY_FFT * dt))  # as np.fft.fftfreq has them
    mass = np.trapezoid(power, f)
    if mass <= 0:
        raise ValidationError("wavelet has no positive-frequency energy")
    return float(np.trapezoid(f * power, f) / mass)


def read_samples(path, widths: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(x, v [+ i im]) arrays from CSV rows of len in widths; blank and '#' rows skipped."""
    points, values = [], []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) not in widths:
                raise ParseError(f"expected {' or '.join(map(str, widths))} columns", lineno)
            try:
                x, v, *im = map(float, row)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            points.append(x)
            values.append(v + 1j * im[0] if im else v)
    if not points:
        raise ParseError(f"no samples found in {path}")
    return np.asarray(points), np.asarray(values)


def checked_samples(points, values, minimum: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """1-D, equally long (>= minimum), finite arrays, points real and increasing and values
    real or complex numbers; or a ValidationError."""
    try:
        points, values = np.asarray(points), np.asarray(values)
    except ValueError:  # a ragged sequence, which numpy refuses as "inhomogeneous"
        raise ValidationError(f"{what} needs 1-D points and values, not ragged ones") from None
    if points.dtype.kind not in "iuf" or values.dtype.kind not in "iufc":
        raise ValidationError(f"{what} needs real points and numeric values")
    points = points.astype(float)
    if points.ndim != 1 or values.shape != points.shape or points.size < minimum:
        raise ValidationError(f"{what} needs 1-D points and values of one length >= {minimum}")
    if not (np.all(np.isfinite(points)) and np.all(np.isfinite(values))):
        raise ValidationError(f"{what} samples must be finite")
    if np.any(np.diff(points) <= 0):
        raise ValidationError(f"{what} points must be strictly increasing")
    return points, values


def sampled(points: np.ndarray, values: np.ndarray):
    """The cubic spline through checked samples, zero outside [points[0], points[-1]]."""
    from scipy.interpolate import CubicSpline  # slow to import; used only here
    spline = CubicSpline(points, values)
    lo, hi = points[0], points[-1]

    def interpolant(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where((t < lo) | (t > hi), 0.0, spline(np.clip(t, lo, hi)))
    return interpolant
