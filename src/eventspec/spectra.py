"""Continuous wavelet transforms of event streams and smoothed periodograms.

The temporally smoothed wavelet periodogram Omega(a, b) is computed by the
multi-wavelet expansion sum_l eta_l v_l v_l^H, where v_l is the transform
under eigen-wavelet l, one table gather and matrix product per stream
(EigenSystem.summed_wavelets_at), O(events x L) per point. Its definition,
the time average of the rank-one periodogram over the smoothing window (the
kernel double sum over event pairs), is kept as the direct route in the test
oracles (tests/oracles.py); the two agree to interpolation accuracy.

Every transform raises RegionError for a support outside (0, T]. field() masks
its grid by the same region, so it calls smoothed_periodogram_eigen with
check_region=False.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .eigensys import DEFAULT_ENERGY_CUTOFF, EigenSystem, eigensystem
from .errors import ConfigError, RegionError, UndefinedCoherenceError, ValidationError
from .kernels import DEFAULT_GRID_POINTS, MAX_FIELD_BYTES, SmoothingWindow, ValidRegion
from .pointproc import EventStream
from .wavelets import Wavelet

MIN_EXPECTED_EVENTS = 10.0  # of the sparsest stream, in the support at field()'s default a_min


def cwt(stream: EventStream, wavelet: Wavelet, a: float, b: float) -> np.ndarray:
    """w(a, b): per-component sum of conjugated scaled-wavelet values.

    Requires the wavelet support (b - a*alpha/2, b + a*alpha/2) to sit
    inside (0, T]; only events inside it contribute.
    """
    _require_inside(ValidRegion(wavelet.alpha, 0.0, stream.T), a, b)
    half = a * wavelet.alpha / 2.0
    root = math.sqrt(a)
    out = np.zeros(stream.p, dtype=complex if wavelet.is_complex else float)
    for i in range(stream.p):
        local = stream.window(i, b - half, b + half)
        if local.size:
            out[i] = np.sum(np.conj(wavelet((local - b) / a))) / root
    return out


def periodogram(stream: EventStream, wavelet: Wavelet, a: float, b: float) -> np.ndarray:
    """Rank-one wavelet periodogram W(a, b) = w w^H."""
    w = cwt(stream, wavelet, a, b)
    return np.outer(w, np.conj(w))


def _require_inside(region: ValidRegion, a: float, b: float) -> None:
    if a <= 0:
        raise ValidationError("scale a must be positive")
    if not region.contains(a, b):
        half = a * region.width / 2.0
        raise RegionError(
            f"(a={a}, b={b}) outside the valid triangle: support "
            f"({b - half:.3f}, {b + half:.3f}) not inside (0, {region.T}]")


def smoothed_periodogram_eigen(stream: EventStream, system: EigenSystem,
                               a: float, b: float,
                               check_region: bool = True) -> np.ndarray:
    """Omega(a, b) via the eigen-wavelet expansion sum_l eta_l v_l v_l^H."""
    v = eigen_cwt(stream, system, a, b, check_region=check_region)
    eta = system.retained_eigenvalues
    omega = (v * eta[None, :]) @ np.conj(v.T)
    return 0.5 * (omega + np.conj(omega.T))


def eigen_cwt(stream: EventStream, system: EigenSystem, a: float, b: float,
              check_region: bool = True) -> np.ndarray:
    """Transforms v_l(a, b) = integral of phi_{l,a,b}(t) dN(t), shape (p, L).

    Unlike the analyzing transform w(a, b), v_l is not conjugated: the
    expansion sum_l eta_l v_l v_l^H then reproduces the kernel double sum
    exactly, since K_{a,b}(s, t) = sum_l eta_l phi_{l,a,b}(s) phi*_{l,a,b}(t).
    """
    if check_region:
        _require_inside(ValidRegion(system.kernel.wavelet.alpha, system.kernel.window.kappa,
                                    stream.T), a, b)
    half = a * system.kernel.width / 2.0
    return np.array([system.summed_wavelets_at((stream.window(i, b - half, b + half) - b) / a)
                     for i in range(stream.p)]) / math.sqrt(a)


def coherence(omega: np.ndarray, i: int, j: int) -> float:
    """gamma^2_ij = |Omega_ij|^2 / (Omega_ii Omega_jj), in [0, 1] for PSD Omega."""
    dii, djj = omega[i, i].real, omega[j, j].real
    if dii <= 0 or djj <= 0:
        raise UndefinedCoherenceError(
            f"coherence undefined: diagonal entries ({dii:.3e}, {djj:.3e}) not positive")
    z = omega[i, j]  # |z|^2 as re^2 + im^2, the arithmetic field() uses
    value = float((z.real * z.real + z.imag * z.imag) / (dii * djj))
    return min(value, 1.0) if value < 1.0 + 1e-9 else value


def normalize_coords(a: float, b: float, T: float, alpha: float, kappa: float):
    """Map raw (a, b) to the T-free coordinates (a_tilde, b_tilde)."""
    return a * (alpha + kappa) / T, b / T


def denormalize_coords(a_tilde: float, b_tilde: float, T: float,
                       alpha: float, kappa: float):
    """Inverse of normalize_coords."""
    return a_tilde * T / (alpha + kappa), b_tilde * T


@dataclass(frozen=True)
class FieldConfig:
    """Grid sweep configuration for field().

    With a_grid/b_grid unset, a logarithmic scale grid (n_a points between
    a_min and a_max) and a uniform translation grid (n_b points) are built.
    a_min defaults to the smallest scale at which the kernel support is
    expected to hold at least MIN_EXPECTED_EVENTS of the sparsest stream.
    """

    wavelet: Wavelet
    window: SmoothingWindow
    a_grid: np.ndarray | None = None
    b_grid: np.ndarray | None = None
    n_a: int = 32
    n_b: int = 128
    a_min: float | None = None
    energy_cutoff: float = DEFAULT_ENERGY_CUTOFF
    n_points: int = DEFAULT_GRID_POINTS


class SpectralField:
    """Omega and coherence over a time-scale grid, invalid points masked."""

    def __init__(self, a_grid, b_grid, omega, gamma2, valid, meta: dict):
        self.a_grid = a_grid
        self.b_grid = b_grid
        self.omega = omega
        self.gamma2 = gamma2
        self.valid = valid
        self.meta = meta

    @property
    def p(self) -> int:
        return self.omega.shape[2]

    def to_csv(self, path) -> None:
        """Long format: a, b, i, j, re, im, coherence, valid (1-based i, j)."""
        p = self.p
        pairs = [f"{i + 1},{j + 1}" for i in range(p) for j in range(p)]
        b_texts = [repr(b) for b in np.asarray(self.b_grid, dtype=float).tolist()]
        heads = [f"{a},{b},{ij}" for a in map(repr, np.asarray(self.a_grid, dtype=float).tolist())
                 for b in b_texts for ij in pairs]
        values = (map(repr, x.ravel().tolist()) for x in
                  (self.omega.real, self.omega.imag, np.asarray(self.gamma2, dtype=float)))
        oks = np.repeat(np.where(self.valid.ravel(), "1", "0"), p * p).tolist()
        body = "\n".join(map(",".join, zip(heads, *values, oks)))
        with open(path, "w", newline="") as fh:
            fh.write("a,b,i,j,re,im,coherence,valid\n" + body + "\n")

    def meta_json(self) -> str:
        return json.dumps(self.meta, indent=2, sort_keys=True)


def field(stream: EventStream, config: FieldConfig) -> SpectralField:
    """Evaluate Omega and gamma^2 on the grid, restricted to the triangle.

    Points outside the valid region are marked invalid and left as NaN.
    Raises ConfigError for an empty grid or one that is not 1-D, one whose
    omega would exceed MAX_FIELD_BYTES, an a_min that is not positive and
    finite, or a grid with no valid point.
    """
    wav, win = config.wavelet, config.window
    for name, grid in (("a_grid", config.a_grid), ("b_grid", config.b_grid)):
        if grid is not None and np.ndim(grid) != 1:
            raise ConfigError(f"{name} must be 1-D, got shape {np.shape(grid)}")
    n_a = config.n_a if config.a_grid is None else np.size(config.a_grid)
    n_b = config.n_b if config.b_grid is None else np.size(config.b_grid)
    if min(n_a, n_b) < 1:
        raise ConfigError(f"grids need at least one point each (n_a={n_a}, n_b={n_b})")
    if n_a * n_b * stream.p ** 2 * 16 > MAX_FIELD_BYTES:
        raise ConfigError(f"omega of an {n_a} x {n_b} grid exceeds {MAX_FIELD_BYTES} bytes")
    if config.a_min is not None and not 0 < config.a_min < math.inf:
        raise ConfigError(f"the scale grid needs a positive, finite a_min (got {config.a_min})")
    system = eigensystem(wav, win, config.n_points, config.energy_cutoff)
    region = ValidRegion(wav.alpha, win.kappa, stream.T)

    if config.a_grid is not None:
        a_grid = np.asarray(config.a_grid, dtype=float)
    else:
        a_min = config.a_min
        if a_min is None:
            rates = stream.counts() / stream.T
            lam = max(float(rates.min()), 1e-12)
            a_min = MIN_EXPECTED_EVENTS / (lam * region.width)
        a_min = min(a_min, 0.99 * region.a_max)
        a_grid = np.geomspace(a_min, region.a_max, config.n_a)
    if config.b_grid is not None:
        b_grid = np.asarray(config.b_grid, dtype=float)
    else:
        b_grid = np.linspace(0.0, stream.T, config.n_b + 2)[1:-1]
    if np.any(np.diff(a_grid) <= 0) or np.any(np.diff(b_grid) <= 0) or a_grid[0] <= 0:
        raise ConfigError("grids must be positive and strictly increasing")

    p = stream.p
    valid = region.contains(a_grid[:, None], b_grid[None, :])
    if not valid.any():
        raise ConfigError("no grid point lies inside the valid triangle")
    omega = np.full((a_grid.size, b_grid.size, p, p), np.nan, dtype=complex)
    for ia, ib in zip(*np.nonzero(valid)):
        omega[ia, ib] = smoothed_periodogram_eigen(stream, system, a_grid[ia], b_grid[ib],
                                                   check_region=False)
    # coherence() over the whole block, NaN where a diagonal entry is not positive
    diag = np.diagonal(omega, axis1=2, axis2=3).real
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma2 = (omega.real ** 2 + omega.imag ** 2) / (diag[..., :, None] * diag[..., None, :])
    gamma2 = np.where(gamma2 < 1.0 + 1e-9, np.minimum(gamma2, 1.0), gamma2)
    gamma2[(diag[..., :, None] <= 0) | (diag[..., None, :] <= 0)] = np.nan

    meta = {
        "wavelet": wav.label,
        "alpha": wav.alpha,
        "window": win.kind.value,
        "kappa": win.kappa,
        "T": stream.T,
        "p": p,
        "dof": system.degrees_of_freedom(),
        "central_frequency": wav.central_frequency,
        "energy_cutoff": config.energy_cutoff,
        "n_points": system.kernel.n_points,
        "n_retained": system.n_retained,
        "a_max": region.a_max,
        "n_valid": int(valid.sum()),
        "n_grid": int(valid.size),
        "diagnostics": dict(system.diagnostics),
    }
    return SpectralField(a_grid, b_grid, omega, gamma2, valid, meta)
