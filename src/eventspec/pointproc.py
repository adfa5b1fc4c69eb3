"""Event-stream data model, CSV ingestion, and process simulators.

Simulation covers homogeneous Poisson processes, exponential-kernel Hawkes
processes (self and mutually exciting, simulated exactly from the Poisson
cluster representation one generation at a time), and piecewise-stationary
concatenations of independent Hawkes segments. Theoretical Bartlett
spectra and coherences for these processes back the Monte-Carlo studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError, ValidationError

# Simulators refuse designs whose stationary expected event count exceeds
# this, so a near-critical Hawkes process fails fast instead of exhausting
# memory; load_csv refuses a file with more rows.
MAX_EXPECTED_EVENTS = 10**7
# load_csv refuses more streams than this before allocating any: the largest p
# whose omega at a single grid point (p x p complex) fits kernels.MAX_FIELD_BYTES.
MAX_STREAMS = 8192


class EventStream:
    """p ordered event-time sequences on (0, T].

    events[i] is a strictly increasing float array with values in (0, T].
    Instances are immutable after construction.
    """

    def __init__(self, events, T: float):
        if not 0 < T < math.inf:  # NaN too
            raise ValidationError(f"horizon T must be positive and finite, got {T}")
        self.T = float(T)
        cleaned = []
        for i, seq in enumerate(events):
            arr = np.asarray(seq, dtype=float).copy()
            if arr.ndim != 1:
                raise ValidationError(f"stream {i + 1}: event times must be 1-d")
            if arr.size:
                if np.any(~np.isfinite(arr)):
                    raise ValidationError(f"stream {i + 1}: non-finite event time")
                if np.any(np.diff(arr) <= 0):
                    raise ValidationError(f"stream {i + 1}: event times must be strictly increasing")
                if arr[0] <= 0 or arr[-1] > self.T:
                    raise ValidationError(f"stream {i + 1}: event times must lie in (0, T]")
            arr.setflags(write=False)
            cleaned.append(arr)
        if not cleaned:
            raise ValidationError("need at least one component stream")
        self.events = tuple(cleaned)
        self.p = len(cleaned)

    def counts(self) -> np.ndarray:
        """N_i(T) for each component."""
        return np.array([seq.size for seq in self.events])

    def window(self, i: int, lo: float, hi: float) -> np.ndarray:
        """Events of component i inside [lo, hi], by binary search."""
        seq = self.events[i]
        return seq[np.searchsorted(seq, lo, "left"):np.searchsorted(seq, hi, "right")]

    def __repr__(self) -> str:
        return f"EventStream(p={self.p}, T={self.T}, counts={self.counts().tolist()})"


def load_csv(path) -> EventStream:
    """Read an event file: optional header '# p=<int> T=<float>', rows 'stream,time'.

    Without a header, p is the largest stream index seen and T the maximum
    time rounded up to the next integer. A p above MAX_STREAMS, or more rows than
    MAX_EXPECTED_EVENTS, is a ParseError.
    """
    header_p = None
    header_T = None
    indices: list[int] = []
    times: list[float] = []
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                try:
                    for token in line[1:].replace(",", " ").split():
                        if token.startswith("p="):
                            header_p = int(token[2:])
                        elif token.startswith("T="):
                            header_T = float(token[2:])
                except ValueError as exc:
                    raise ParseError(f"bad header: {exc}", lineno) from None
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError(f"expected 'stream,time', got {line!r}", lineno)
            try:
                idx = int(parts[0])
                t = float(parts[1])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
            if idx < 1:
                raise ParseError(f"stream index must be >= 1, got {idx}", lineno)
            if not math.isfinite(t) or t <= 0:
                raise ParseError(f"event time must be positive and finite, got {t}", lineno)
            if len(times) >= MAX_EXPECTED_EVENTS:  # before the arrays: ~90 bytes a row
                raise ParseError(f"more than {MAX_EXPECTED_EVENTS} events", lineno)
            indices.append(idx)
            times.append(t)

    max_idx = max(indices, default=0)
    p = header_p if header_p is not None else max_idx
    if p <= 0:
        raise ParseError("cannot infer stream count: empty file without header")
    if p > MAX_STREAMS:
        raise ParseError(f"p={p} streams exceeds the limit of {MAX_STREAMS}")
    if max_idx > p:
        raise ParseError(f"stream index {max_idx} exceeds declared p={p}")
    max_t = max(times, default=0.0)
    T = header_T if header_T is not None else float(math.ceil(max_t)) or 1.0
    if max_t > T:
        raise ParseError(f"event time {max_t} exceeds declared T={T}")
    # one pass: sort by stream, then time, and cut at each stream's first row
    idx, t = np.array(indices, dtype=np.int64), np.array(times, dtype=float)
    order = np.lexsort((t, idx))
    return EventStream(np.split(t[order], np.searchsorted(idx[order], np.arange(2, p + 1))), T)


def save_csv(stream: EventStream, path) -> None:
    """Write the event file format read by load_csv: rows by time, ties by stream."""
    times = np.concatenate(stream.events)
    index = np.repeat(np.arange(1, stream.p + 1), stream.counts())
    order = np.lexsort((index, times))
    with open(path, "w", newline="") as fh:
        fh.write(f"# p={stream.p} T={float(stream.T)!r}\n")
        fh.writelines(f"{i},{t!r}\n" for i, t in zip(index[order].tolist(),
                                                     map(float, times[order])))


@dataclass(frozen=True)
class HawkesParams:
    """Exponential-kernel Hawkes parameters.

    Conditional intensity of component i:
        lambda_i(t) = nu_i + sum_j int alpha_ij exp{-beta_ij (t - s)} dN_j(s).
    Stationarity requires the spectral radius of (alpha_ij / beta_ij) < 1.
    """

    nu: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    p: int = field(init=False)

    def __post_init__(self):
        nu = np.atleast_1d(np.asarray(self.nu, dtype=float))
        p = nu.size
        if p == 0:
            raise ValidationError("nu needs at least one rate")
        try:
            alpha = np.broadcast_to(np.asarray(self.alpha, dtype=float), (p, p)).copy()
            beta = np.broadcast_to(np.asarray(self.beta, dtype=float), (p, p)).copy()
        except ValueError:
            raise ValidationError("alpha and beta must broadcast to p x p") from None
        if not all(np.isfinite(x).all() for x in (nu, alpha, beta)):
            raise ValidationError("nu, alpha and beta must be finite")
        if np.any(nu < 0) or np.any(alpha < 0):
            raise ValidationError("nu and alpha must be non-negative")
        if np.any(beta <= 0):
            raise ValidationError("beta must be positive")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "p", p)
        rho = self.spectral_radius()
        if rho >= 1.0:
            raise ValidationError(
                f"unstable Hawkes parameters: spectral radius of alpha/beta is "
                f"{rho:.4f} >= 1")

    def spectral_radius(self) -> float:
        branching = self.alpha / self.beta
        return float(np.max(np.abs(np.linalg.eigvals(branching))))

    def stationary_rate(self) -> np.ndarray:
        """lambda solving (I - alpha/beta) lambda = nu."""
        return np.linalg.solve(np.eye(self.p) - self.alpha / self.beta, self.nu)

    @classmethod
    def from_dict(cls, cfg: dict) -> "HawkesParams":
        """Parameters from a config's params object; ConfigError if it does not read."""
        if not isinstance(cfg, dict):
            raise ConfigError(f"Hawkes params must be an object with nu, alpha and beta, "
                              f"got {cfg!r}")
        try:
            values = {key: np.asarray(cfg[key], dtype=float) for key in ("nu", "alpha", "beta")}
        except KeyError as exc:
            raise ValidationError(f"Hawkes config missing key {exc}") from None
        except (TypeError, ValueError):  # not numbers, or ragged
            raise ConfigError(f"Hawkes params must hold numbers, got {cfg!r}") from None
        return cls(**values)


def simulate_poisson(rates, T: float, seed) -> EventStream:
    """Independent homogeneous Poisson components with the given rates.

    Raises ValidationError for a negative or non-finite rate, a T that is not
    positive and finite, or an expected count above MAX_EXPECTED_EVENTS.
    """
    rates = np.atleast_1d(np.asarray(rates, dtype=float))
    if not np.all((rates >= 0) & (rates < math.inf)):
        raise ValidationError("Poisson rates must be non-negative and finite")
    if not 0 < T < math.inf:
        raise ValidationError("T must be positive and finite")
    _check_event_budget(float(rates.sum()) * T)
    rng = np.random.default_rng(seed)
    events = []
    for lam in rates:
        times = rng.uniform(0.0, T, rng.poisson(lam * T))
        times.sort()
        # strictly increasing and inside (0, T]: drop a draw at 0 and every tie
        keep = times > 0
        keep[1:] &= times[1:] > times[:-1]
        events.append(times[keep])
    return EventStream(events, T)


def _simulate_hawkes_rng(params: HawkesParams, T: float,
                         rng: np.random.Generator) -> list[np.ndarray]:
    """Hawkes process on (0, T] from an empty history, by its cluster representation.

    Type-j immigrants form a Poisson(nu_j) process. Every type-j event has
    Poisson(alpha_ij / beta_ij) type-i children, each an Exp(beta_ij) delay
    after it (Hawkes & Oakes 1974). Children after T are dropped together
    with their descendants. Each generation is drawn in one vectorised step
    per (i, j) pair and filtered once per stream; an empty parent set is
    skipped, since its size-0 draws would take nothing from rng. Returns one
    sorted time array per stream.
    """
    branching = (params.alpha / params.beta).tolist()
    scale = (1.0 / params.beta).tolist()
    # T - U(0, T) lies in (0, T], the half-open horizon of an EventStream
    generation = [T - rng.uniform(0.0, T, rng.poisson(nu * T)) for nu in params.nu]
    out = [[g] for g in generation]
    while any(g.size for g in generation):
        children: list[list[np.ndarray]] = [[] for _ in generation]
        for j, parents in enumerate(generation):
            if parents.size:
                for i, kids in enumerate(children):
                    times = parents.repeat(rng.poisson(branching[i][j], parents.size))
                    times += rng.exponential(scale[i][j], times.size)
                    kids.append(times)
        generation = [g[g <= T] for g in map(np.concatenate, children)]
        for o, g in zip(out, generation):
            o.append(g)
    return [np.sort(np.concatenate(o)) for o in out]


def _check_event_budget(expected: float) -> None:
    if expected > MAX_EXPECTED_EVENTS:
        raise ValidationError(
            f"expected event count {expected:.3g} exceeds the simulation budget "
            f"of {MAX_EXPECTED_EVENTS:.0e} events")


def simulate_hawkes(params: HawkesParams, T: float, seed) -> EventStream:
    """Exact simulation of a stationary-parameter Hawkes process on (0, T]: the
    one-segment simulate_piecewise, with its checks."""
    return simulate_piecewise([((0.0, T), params)], seed)


def simulate_piecewise(segments, seed) -> EventStream:
    """Independent Hawkes segments concatenated over a partition of (0, T].

    segments: iterable of ((t0, t1), HawkesParams). Intervals must have finite
    bounds and tile (0, T] without gaps or overlaps; each segment starts from an
    empty history. Raises ValidationError before drawing anything when the
    stationary expected count, summed over segments, exceeds MAX_EXPECTED_EVENTS.
    """
    segs = [((float(lo), float(hi)), par) for (lo, hi), par in segments]
    if not segs:
        raise ValidationError("need at least one segment")
    if not all(math.isfinite(lo) and math.isfinite(hi) for (lo, hi), _ in segs):
        raise ValidationError("segment bounds must be finite")
    segs.sort(key=lambda s: s[0][0])
    if abs(segs[0][0][0]) > 1e-12:
        raise ValidationError("segments must start at 0")
    for ((lo0, hi0), _), ((lo1, _), _) in zip(segs, segs[1:]):
        if abs(hi0 - lo1) > 1e-9:
            raise ValidationError(f"segments must tile the horizon; gap or overlap at {hi0} vs {lo1}")
    p = segs[0][1].p
    if any(par.p != p for _, par in segs):
        raise ValidationError("all segments must have the same dimension p")
    if any(hi <= lo for (lo, hi), _ in segs):
        raise ValidationError("segment intervals must have positive length")
    _check_event_budget(sum(float(par.stationary_rate().sum()) * (hi - lo)
                            for (lo, hi), par in segs))
    T = segs[-1][0][1]
    rng = np.random.default_rng(seed)
    streams: list[list[np.ndarray]] = [[] for _ in range(p)]
    for (lo, hi), par in segs:
        for i, times in enumerate(_simulate_hawkes_rng(par, hi - lo, rng)):
            streams[i].append(times + lo)
    return EventStream([np.concatenate(s) for s in streams], T)


def hawkes_spectrum(params: HawkesParams, f) -> np.ndarray:
    """Bartlett spectral density matrix of the stationary Hawkes process.

    S(f) = (I - G(f))^(-1) diag(lambda) (I - G(f))^(-H) with
    G_ij(f) = alpha_ij / (beta_ij + i 2 pi f). Returns shape (p, p) for a
    scalar frequency, else (len(f), p, p).
    """
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    lam = params.stationary_rate()
    p = params.p
    out = np.empty((f_arr.size, p, p), dtype=complex)
    eye = np.eye(p)
    for k, fk in enumerate(f_arr):
        G = params.alpha / (params.beta + 2j * np.pi * fk)
        Minv = np.linalg.inv(eye - G)
        out[k] = Minv @ np.diag(lam) @ Minv.conj().T
    if np.isscalar(f) or np.asarray(f).ndim == 0:
        return out[0]
    return out


def coherence_theoretical(params: HawkesParams, f, i: int, j: int):
    """rho^2_ij(f) = |S_ij|^2 / (S_ii S_jj) for the Hawkes spectrum."""
    from .errors import UndefinedCoherenceError

    S = hawkes_spectrum(params, np.atleast_1d(np.asarray(f, dtype=float)))
    sii = S[:, i, i].real
    sjj = S[:, j, j].real
    if np.any(sii <= 0) or np.any(sjj <= 0):
        raise UndefinedCoherenceError("zero diagonal spectrum; coherence undefined")
    rho2 = np.abs(S[:, i, j]) ** 2 / (sii * sjj)
    if np.isscalar(f) or np.asarray(f).ndim == 0:
        return float(rho2[0])
    return rho2
