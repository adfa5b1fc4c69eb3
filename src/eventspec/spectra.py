"""Continuous wavelet transforms of event streams and smoothed periodograms.

The temporally smoothed wavelet periodogram Omega(a, b) is the multi-wavelet
expansion sum_l eta_l v_l v_l^H (eigen_expansion) of the transforms v_l under
the eigen-wavelets. eigen_transforms evaluates v_l at one scale over a translation
grid; field() and stationarity_tests call it once per scale, and eigen_cwt is its
one-point case. It sums the 8 weights of each of a scale's (point, event) pairs onto a
coefficient grid per (point, stream) run, and one matrix product per block of runs meets
the whole coefficient table, so the L-wide work does not grow with the pairs.
Omega's definition, the kernel double sum over event pairs, is the direct route
of the test oracles (tests/oracles.py); the two agree to interpolation accuracy.

cwt, eigen_cwt and smoothed_periodogram_eigen raise RegionError for a support
outside (0, T]; eigen_transforms checks no point: its callers pass points inside.
Memory: PAIR_BLOCK bounds a block of pairs, MAX_FIELD_BYTES field()'s Omega, and
SpectralField.to_csv formats one scale row (n_b p^2 rows) at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensys import DEFAULT_ENERGY_CUTOFF, EigenSystem, eigensystem
from .errors import (ConfigError, NumericalError, RegionError, UndefinedCoherenceError,
                     ValidationError, json_text)
from .kernels import DEFAULT_GRID_POINTS, MAX_FIELD_BYTES, SmoothingWindow, ValidRegion
from .pointproc import EventStream
from .wavelets import Wavelet

MIN_EXPECTED_EVENTS = 10.0  # of the sparsest stream, in the support at field()'s default a_min
PAIR_BLOCK = 1 << 19  # float64 values one block of pairs holds (4 MB)


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


def _require_inside(region: ValidRegion, a: float, b: float) -> None:
    if a <= 0:
        raise ValidationError("scale a must be positive")
    if not region.contains(a, b):
        half = a * region.width / 2.0
        raise RegionError(
            f"(a={a}, b={b}) outside the valid triangle: support "
            f"({b - half:.3f}, {b + half:.3f}) not inside (0, {region.T}]")


def eigen_transforms(events, system: EigenSystem, a: float, b_grid) -> np.ndarray:
    """v_l(a, b) for every b of b_grid at one scale a, shape (n_b, len(events), L).

    events are sorted event-time arrays (as EventStream.events). Binary searches find
    every point's events in its support, per array: a run of (point, event) pairs per
    (point, array). EigenSystem.summed_wavelets_by_run sums the runs in blocks of at least
    one run and at most PAIR_BLOCK // 32 pairs (about 32 values of weights and indices
    each) and PAIR_BLOCK // (2 n_coef) runs (its grid), so no scale holds all its pairs.
    """
    b_grid = np.asarray(b_grid, dtype=float)
    half = a * system.width / 2.0
    n_ret = system.n_retained
    # runs are (point, array) in point-major order; seq holds every array's events
    seq = np.concatenate(events)
    offsets = np.cumsum([0] + [len(e) for e in events[:-1]])
    lo = np.array([np.searchsorted(e, b_grid - half, "left") for e in events]).T
    hi = np.array([np.searchsorted(e, b_grid + half, "right") for e in events]).T
    first, counts = (lo + offsets).ravel(), (hi - lo).ravel()
    b_runs = np.repeat(b_grid, len(events))
    ends = np.cumsum(counts)
    max_pairs, max_runs = PAIR_BLOCK // 32, PAIR_BLOCK // (2 * len(system.coefficients))
    out = np.empty((counts.size, n_ret), dtype=complex)
    start = 0
    while start < counts.size:
        base = ends[start - 1] if start else 0
        stop = min(start + max_runs, int(np.searchsorted(ends, base + max_pairs, "right")))
        stop = max(start + 1, stop)
        run_ends, runs = ends[start:stop] - base, counts[start:stop]
        # a pair's event: its run's first event plus the pair's rank in the run
        pairs = np.arange(run_ends[-1]) + np.repeat(first[start:stop] - run_ends + runs, runs)
        x = (seq[pairs] - np.repeat(b_runs[start:stop], runs)) / a
        out[start:stop] = system.summed_wavelets_by_run(x, run_ends)
        start = stop
    return out.reshape(b_grid.size, len(events), n_ret) / math.sqrt(a)


def eigen_expansion(v: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Omega = sum_l eta_l v_l v_l^H of transforms v (..., p, L), made exactly Hermitian."""
    omega = (v * eta) @ np.conj(np.swapaxes(v, -1, -2))
    return 0.5 * (omega + np.conj(np.swapaxes(omega, -1, -2)))


def smoothed_periodogram_eigen(stream: EventStream, system: EigenSystem,
                               a: float, b: float,
                               check_region: bool = True) -> np.ndarray:
    """Omega(a, b) via the eigen-wavelet expansion sum_l eta_l v_l v_l^H."""
    return eigen_expansion(eigen_cwt(stream, system, a, b, check_region),
                           system.retained_eigenvalues)


def eigen_cwt(stream: EventStream, system: EigenSystem, a: float, b: float,
              check_region: bool = True) -> np.ndarray:
    """Transforms v_l(a, b) = integral of phi_{l,a,b}(t) dN(t), shape (p, L).

    Unlike the analyzing transform w(a, b), v_l is not conjugated: the
    expansion sum_l eta_l v_l v_l^H then reproduces the kernel double sum
    exactly, since K_{a,b}(s, t) = sum_l eta_l phi_{l,a,b}(s) phi*_{l,a,b}(t).
    """
    if check_region:
        _require_inside(ValidRegion(system.wavelet.alpha, system.window.kappa, stream.T), a, b)
    return eigen_transforms(stream.events, system, a, [b])[0]


def _gamma2(z, dii, djj):
    # |z|^2 / (dii djj) with |z|^2 as re^2 + im^2, for positive dii and djj; rounding above 1
    # by at most 1e-9 is clipped. A value the squares leave non-finite is a NumericalError.
    with np.errstate(all="ignore"):
        value = (z.real * z.real + z.imag * z.imag) / (dii * djj)
    if not np.isfinite(value).all():
        raise NumericalError("coherence is not finite where both diagonal entries are positive")
    return np.where(value < 1.0 + 1e-9, np.minimum(value, 1.0), value)


def coherence(omega: np.ndarray, i: int, j: int) -> float:
    """gamma^2_ij = |Omega_ij|^2 / (Omega_ii Omega_jj), in [0, 1] for PSD Omega (see _gamma2)."""
    dii, djj = omega[i, i].real, omega[j, j].real
    if dii <= 0 or djj <= 0:
        raise UndefinedCoherenceError(
            f"coherence undefined: diagonal entries ({dii:.3e}, {djj:.3e}) not positive")
    return float(_gamma2(omega[i, j], dii, djj))


def denormalize_coords(a_tilde: float, b_tilde: float, T: float,
                       alpha: float, kappa: float):
    """Raw (a, b) of the T-free coordinates a_tilde = a (alpha + kappa) / T, b_tilde = b / T."""
    return a_tilde * T / (alpha + kappa), b_tilde * T


@dataclass(frozen=True)
class FieldConfig:
    """Grid sweep configuration for field().

    With a_grid/b_grid unset, a logarithmic scale grid (n_a points between
    a_min and a_max) and a uniform translation grid (n_b points) are built.
    a_min defaults to the smallest scale at which the kernel support is
    expected to hold at least MIN_EXPECTED_EVENTS of the sparsest stream,
    capped at 0.99 a_max (the cap alone when that stream is empty).
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
        """Long format: a, b, i, j, re, im, coherence, valid (1-based i, j), by scale row."""
        p = self.p
        pairs = [f"{i + 1},{j + 1}" for i in range(p) for j in range(p)]
        b_texts = [repr(b) for b in np.asarray(self.b_grid, dtype=float).tolist()]
        gamma2 = np.asarray(self.gamma2, dtype=float)
        with open(path, "w", newline="") as fh:
            fh.write("a,b,i,j,re,im,coherence,valid\n")
            for ia, a in enumerate(map(repr, np.asarray(self.a_grid, dtype=float).tolist())):
                heads = [f"{a},{b},{ij}" for b in b_texts for ij in pairs]
                values = (map(repr, x[ia].ravel().tolist())
                          for x in (self.omega.real, self.omega.imag, gamma2))
                oks = np.repeat(np.where(self.valid[ia], "1", "0"), p * p).tolist()
                fh.write("\n".join(map(",".join, zip(heads, *values, oks))) + "\n")

    def meta_json(self) -> str:
        return json_text(self.meta)


def field(stream: EventStream, config: FieldConfig) -> SpectralField:
    """Evaluate Omega and gamma^2 on the grid, restricted to the triangle.

    Points outside the valid region are marked invalid and left as NaN.
    Raises ConfigError for an empty grid or one that is not 1-D, one whose
    omega would exceed MAX_FIELD_BYTES, an a_min that is not positive and
    finite, or a grid with no valid point. Raises NumericalError where Omega at a valid
    point, or a coherence whose two diagonal entries are positive, is not finite.
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
    central_frequency = wav.central_frequency  # its 2^18-point FFT before the kernel's blocks
    system = eigensystem(wav, win, config.n_points, config.energy_cutoff)
    region = ValidRegion(wav.alpha, win.kappa, stream.T)

    if config.a_grid is not None:
        a_grid = np.asarray(config.a_grid, dtype=float)
    else:
        a_min = config.a_min
        if a_min is None:
            lam = float(stream.counts().min()) / stream.T  # the sparsest stream's rate
            a_min = MIN_EXPECTED_EVENTS / (lam * region.width) if lam > 0 else math.inf
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
    for ia in np.flatnonzero(valid.any(axis=1)):
        v = eigen_transforms(stream.events, system, a_grid[ia], b_grid[valid[ia]])
        omega[ia, valid[ia]] = eigen_expansion(v, system.retained_eigenvalues)
    if not np.isfinite(omega[valid]).all():
        raise NumericalError("omega is not finite at a valid grid point")
    # coherence() at every (point, i, j), NaN where a diagonal entry is not positive
    diag = np.diagonal(omega, axis1=2, axis2=3).real
    dii, djj = np.broadcast_arrays(diag[..., :, None], diag[..., None, :])
    defined = (dii > 0) & (djj > 0)
    gamma2 = np.full(omega.shape, np.nan)
    gamma2[defined] = _gamma2(omega[defined], dii[defined], djj[defined])

    meta = {
        "wavelet": wav.label,
        "alpha": wav.alpha,
        "window": win.kind.value,
        "kappa": win.kappa,
        "T": stream.T,
        "p": p,
        "dof": system.degrees_of_freedom(),
        "central_frequency": central_frequency,
        "energy_cutoff": config.energy_cutoff,
        "n_points": system.n_points,
        "n_retained": system.n_retained,
        "a_max": region.a_max,
        "n_valid": int(valid.sum()),
        "n_grid": int(valid.size),
        "diagnostics": dict(system.diagnostics),
    }
    return SpectralField(a_grid, b_grid, omega, gamma2, valid, meta)
