"""Asymptotic distributions and the dyadic likelihood-ratio stationarity test.

The smoothed periodogram at an interior point is asymptotically
(1/n) Wishart with n = 1/sum(eta_l^2) degrees of freedom, which yields
closed coherence densities (Goodman form for complex wavelets, the Fisher
form for real ones) in terms of the Gauss hypergeometric function; the
wavelet fixes which (Flavor.of), so no config chooses it. The stationarity
test partitions the time-scale plane dyadically and compares segment
periodograms with a covariance-equality likelihood ratio whose -2 log
Lambda_j is asymptotically chi-squared with (2^j - 1) p^2 degrees of freedom
per scale. stationarity_tests takes a batch of streams through one transform
call and one batched-Cholesky LRT call per scale; stationarity_test is its
one-stream case.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np

from .eigensys import EigenSystem, eigensystem
from .errors import ConfigError, DegenerateSegmentError, ValidationError, json_text
from .kernels import DEFAULT_GRID_POINTS, SmoothingWindow
from .pointproc import EventStream
from .spectra import eigen_expansion, eigen_transforms
from .wavelets import Wavelet

MAX_J = 12  # finest test scale; scales 1..J take 2^(J+1) - 2 (8,190) segment periodograms
CDF_GRID_POINTS = 4001  # nodes of CoherenceDistribution's numeric CDF


class Flavor(enum.Enum):
    """Distributional family: complex-valued or real-valued wavelet."""

    COMPLEX = "complex"
    REAL = "real"

    @classmethod
    def of(cls, wavelet: Wavelet) -> "Flavor":
        """The family of a wavelet's statistics: COMPLEX for a complex-valued wavelet."""
        return cls.COMPLEX if wavelet.is_complex else cls.REAL


def hyp2f1(a1: float, a2: float, b1: float, z):
    """Gauss hypergeometric 2F1(a1, a2; b1; z) for |z| < 1 and b1 > 0.

    Elementwise over array z; scalar in, float out.
    """
    from scipy import special  # slow to import; kept off the CLI's import path
    if b1 <= 0:
        raise ValidationError("hyp2f1 requires b1 > 0")
    z_arr = np.asarray(z, dtype=float)
    if np.any(np.abs(z_arr) >= 1.0):
        raise ValidationError("hyp2f1 requires |z| < 1")
    out = special.hyp2f1(a1, a2, b1, z_arr)
    return float(out) if z_arr.ndim == 0 else out


@dataclass(frozen=True)
class CoherenceDistribution:
    """Asymptotic law of the smoothed wavelet coherence.

    n is the effective degrees of freedom, rho2 the true spectral coherence
    at the analyzing frequency. With rho2 = 0 the law reduces to
    Beta(1, n-1) for a complex wavelet and Beta(1/2, (n-1)/2) for a real
    one, and cdf uses those closed forms. cdf clips x to [0, 1].
    """

    n: float
    rho2: float = 0.0
    flavor: Flavor = Flavor.COMPLEX

    def __post_init__(self):
        if self.n <= 1:
            raise ValidationError("coherence distribution requires n > 1")
        if not 0.0 <= self.rho2 < 1.0:
            raise ValidationError("rho2 must lie in [0, 1)")

    def pdf(self, x):
        return coherence_density(self, x)

    def cdf_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Numeric CDF on CDF_GRID_POINTS nodes, integrating in y = sqrt(x).

        The substitution removes the x^(-1/2) endpoint singularity of the
        real flavor; the tiny mass beyond 1 - 1e-9 is folded in by
        normalizing the result to end at one. The integrand is unbounded at
        y -> 1 for n < 3 (real) and n < 2 (complex): a ValidationError there.
        """
        if self.n < (3.0 if self.flavor is Flavor.REAL else 2.0):
            raise ValidationError(
                f"cdf_grid cannot integrate the {self.flavor.value} law at n={self.n}")
        y = np.linspace(0.0, math.sqrt(1.0 - 1e-9), CDF_GRID_POINTS)
        x = y * y
        integrand = np.empty_like(y)
        integrand[1:] = self.pdf(x[1:]) * 2.0 * y[1:]
        if self.flavor is Flavor.REAL:
            logc = (math.lgamma(self.n / 2.0) - math.lgamma(0.5)
                    - math.lgamma((self.n - 1.0) / 2.0))
            integrand[0] = 2.0 * math.exp(logc) * (1.0 - self.rho2) ** (self.n / 2.0)
        else:
            integrand[0] = 0.0
        cdf = np.concatenate(
            ([0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * np.diff(y))))
        return x, cdf / cdf[-1]

    def cdf(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        if self.rho2 != 0.0:
            grid, vals = self._cdf_table
            return np.interp(x, grid, vals)
        if self.flavor is Flavor.COMPLEX:
            return 1.0 - (1.0 - x) ** (self.n - 1.0)
        from scipy.special import betainc  # slow to import; kept off the CLI's import path
        return betainc(0.5, (self.n - 1.0) / 2.0, x)

    @cached_property
    def _cdf_table(self):
        return self.cdf_grid()


def coherence_density(dist: CoherenceDistribution, x) -> np.ndarray | float:
    """Density of the asymptotic coherence law at x in [0, 1)."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any((x_arr < 0) | (x_arr >= 1)):
        raise ValidationError("coherence density is supported on [0, 1)")
    n = dist.n
    r2 = dist.rho2
    if dist.flavor is Flavor.COMPLEX:
        base = (n - 1.0) * (1.0 - r2) ** n
        out = base * (1.0 - x_arr) ** (n - 2.0) * hyp2f1(n, n, 1.0, r2 * x_arr)
    else:
        logc = math.lgamma(n / 2.0) - math.lgamma(0.5) - math.lgamma((n - 1.0) / 2.0)
        base = math.exp(logc) * (1.0 - r2) ** (n / 2.0)
        with np.errstate(divide="ignore"):
            lead = x_arr ** -0.5
        out = (base * lead * (1.0 - x_arr) ** ((n - 3.0) / 2.0)
               * hyp2f1(n / 2.0, n / 2.0, 0.5, r2 * x_arr))
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(out[0])
    return out


def null_percentile(flavor: Flavor, n: float, q: float) -> float:
    """q-th quantile of the zero-coherence law.

    Complex flavor: closed form 1 - (1-q)^(1/(n-1)) from the Beta(1, n-1)
    CDF. Real flavor: the inverse regularized incomplete beta of
    Beta(1/2, (n-1)/2).
    """
    if not 0.0 < q < 1.0:
        raise ValidationError("q must be in (0, 1)")
    if n <= 1:
        raise ValidationError("null percentile requires n > 1")
    if flavor is Flavor.COMPLEX:
        return 1.0 - (1.0 - q) ** (1.0 / (n - 1.0))
    from scipy.special import betaincinv  # slow to import; the complex flavor needs none
    return float(betaincinv(0.5, (n - 1.0) / 2.0, q))


def chi2_sf(x: float, dof: float) -> float:
    """Chi-squared survival function via the regularized upper incomplete gamma."""
    if x < 0:
        raise ValidationError("chi2_sf requires x >= 0")
    if dof <= 0:
        raise ValidationError("chi2_sf requires dof > 0")
    from scipy.special import gammaincc  # slow to import; kept off the CLI's import path
    return float(gammaincc(dof / 2.0, x / 2.0))


def _logdets(mats: np.ndarray) -> np.ndarray:
    # log det of each matrix of a (..., p, p) stack, by one batched Cholesky
    chol = np.linalg.cholesky(mats)
    return 2.0 * np.sum(np.log(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)


def lrt_statistic(samples, n: float, flavor: Flavor = Flavor.COMPLEX):
    """-2 log Lambda for equality of K scaled-Wishart centrality matrices.

    Lambda = K^{pKe} prod det(B_i)^e / det(sum B_i)^{Ke} with exponent
    e = n for the complex-wavelet flavor and e = n/2 for the real one. The
    computation stays in the log domain throughout. samples is K p x p matrices, for
    a float, or an (R, K, p, p) stack, for the R one-replicate values bit for bit in
    an array: one batched Cholesky takes every log-determinant (each replicate's K
    summed left to right), and a refused one raises the first replicate's error.
    """
    stacked = isinstance(samples, np.ndarray) and samples.ndim == 4
    mats = [np.asarray(m) for m in (samples[0] if stacked else samples)]
    K = len(mats)
    if K < 2:
        raise ValidationError("lrt_statistic needs at least two segments")
    p = mats[0].shape[0]
    for k, m in enumerate(mats, start=1):
        if m.shape != (p, p):
            raise ValidationError(f"segment {k}: expected {p}x{p} matrix")
    # contiguous, as a strided stack can sum the B_i in another order
    mats = np.ascontiguousarray(samples) if stacked else np.array(mats)[None]
    expo = n if flavor is Flavor.COMPLEX else n / 2.0
    try:
        logdets, log_total = _logdets(mats), _logdets(mats.sum(axis=1))
    except np.linalg.LinAlgError:  # name the first replicate's first refused segment, sum last
        for m in mats:
            for k, b in [*enumerate(m, start=1), (0, m.sum(axis=0))]:
                try:
                    np.linalg.cholesky(b)
                except np.linalg.LinAlgError:
                    raise DegenerateSegmentError(
                        k, f"segment {k} matrix is not positive definite") from None
        raise
    log_lambda = expo * (p * K * math.log(K) + sum(logdets.T) - K * log_total)
    stats = np.maximum(-2.0 * log_lambda, 0.0)
    return stats if stacked else float(stats[0])


@dataclass
class ScaleResult:
    """Per-scale outcome of the dyadic stationarity test."""

    j: int
    n_segments: int
    statistic: float | None
    dof: float
    p_value: float | None
    valid: bool
    note: str | None = None

    def to_dict(self) -> dict:
        return {"j": self.j, "n_segments": self.n_segments,
                "statistic": self.statistic, "dof": self.dof,
                "p_value": self.p_value, "valid": self.valid, "note": self.note}


@dataclass
class StationarityReport:
    """Per-scale LRT statistics, the combined test, and run metadata."""

    scales: list[ScaleResult]
    combined_statistic: float | None
    combined_dof: float
    combined_p_value: float | None
    meta: dict = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"scales": [s.to_dict() for s in self.scales],
                "combined": {"statistic": self.combined_statistic,
                             "dof": self.combined_dof,
                             "p_value": self.combined_p_value},
                "meta": self.meta}

    def to_json(self, **kwargs) -> str:
        return json_text(self.to_dict(), **kwargs)

    def __str__(self) -> str:
        lines = ["scale j  segments  -2 log Lambda_j        dof    p-value"]
        for s in self.scales:
            if s.valid:
                lines.append(f"{s.j:7d}  {s.n_segments:8d}  {s.statistic:15.4f}  "
                             f"{s.dof:9.1f}  {s.p_value:9.4g}")
            else:
                lines.append(f"{s.j:7d}  {s.n_segments:8d}  {'NA':>15}  "
                             f"{s.dof:9.1f}  {'NA':>9}  ({s.note})")
        if self.combined_statistic is not None:
            lines.append(f"combined {'':8} {self.combined_statistic:15.4f}  "
                         f"{self.combined_dof:9.1f}  {self.combined_p_value:9.4g}")
        else:
            lines.append("combined: NA (no valid scale)")
        return "\n".join(lines)


@dataclass(frozen=True)
class StationarityConfig:
    """Configuration of the dyadic test.

    The smoothing width grows with the horizon as kappa_tilde = kappa * T^c
    with 0 < c < 1/2; c = 1/4 balances the two error rates and is the
    default. The eigensystem keeps eigensys.DEFAULT_ENERGY_CUTOFF.
    """

    wavelet: Wavelet = dataclass_field(default_factory=Wavelet.morlet)
    kappa: float = 8.0
    c: float = 0.25
    J: int = 3
    n_points: int = DEFAULT_GRID_POINTS

    def validate(self) -> None:
        if not 1 <= self.J <= MAX_J:
            raise ConfigError(f"J must lie in [1, {MAX_J}]")
        if not 0.0 < self.c < 0.5:
            raise ConfigError("c must lie in (0, 1/2)")
        if not 0 < self.kappa < math.inf:
            raise ConfigError("kappa must be positive and finite")

    def resolve_system(self, T: float) -> EigenSystem:
        """Eigensystem for horizon T at kappa_tilde = kappa * T^c."""
        return eigensystem(self.wavelet, SmoothingWindow.rectangular(self.kappa * T**self.c),
                           self.n_points)


def stationarity_test(stream: EventStream,
                      config: StationarityConfig | None = None) -> StationarityReport:
    """Dyadic likelihood-ratio test of second-order stationarity.

    At scale index j (j = 1..J) time is split into K = 2^j equal segments,
    the smoothed periodogram is evaluated at the segment centres with the
    kernel support exactly tiling (0, T], and the covariance-equality LRT
    is applied across segments. Scales whose segments yield a singular
    periodogram are reported as NA and excluded from the combined
    statistic, whose degrees of freedom are adjusted accordingly.
    """
    return stationarity_tests([stream], config)[0]


def stationarity_tests(streams, config: StationarityConfig | None = None
                       ) -> list[StationarityReport]:
    """stationarity_test of each stream; the streams share T and p (else ValidationError).

    Per scale: one eigen_transforms call over every stream and one lrt_statistic call
    over their (R, K, p, p) stack, retried a stream at a time if its Cholesky refuses,
    so each stream gets its own note. Statistics match one-stream calls to rounding.
    """
    config = config or StationarityConfig()
    config.validate()
    streams = list(streams)
    if not streams or any(s.T != streams[0].T or s.p != streams[0].p for s in streams):
        raise ValidationError("stationarity_tests needs streams, all of one horizon T and one p")
    T, p, R = streams[0].T, streams[0].p, len(streams)
    events = [e for s in streams for e in s.events]  # replicate-major, as reshaped below
    system = config.resolve_system(T)
    wav = system.wavelet
    flavor = Flavor.of(wav)
    width = system.width
    n_dof = system.degrees_of_freedom()

    scales: list[list[ScaleResult]] = [[] for _ in streams]
    for j in range(1, config.J + 1):
        K = 2**j
        a_j = T / (K * width)
        dof_j = (K - 1) * p**2
        centres = (2 * np.arange(1, K + 1) - 1) * T / (2 * K)
        v = eigen_transforms(events, system, a_j, centres).reshape(K, R, p, -1)
        omega = eigen_expansion(v, system.retained_eigenvalues).swapaxes(0, 1)
        try:
            stats = lrt_statistic(omega, n_dof, flavor).tolist()
        except DegenerateSegmentError:  # one stream at a time, each with its own note
            stats = [None] * R
        for r, stat in enumerate(stats):
            try:
                if stat is None:
                    stat = lrt_statistic(omega[r], n_dof, flavor)
                scales[r].append(ScaleResult(j, K, stat, dof_j, chi2_sf(stat, dof_j), True))
            except DegenerateSegmentError as exc:
                scales[r].append(ScaleResult(j, K, None, dof_j, None, False, str(exc)))

    reports = []
    for rows in scales:
        valid = [s for s in rows if s.valid]
        if valid:
            comb_stat = sum(s.statistic for s in valid)
            comb_dof = sum(s.dof for s in valid)
            comb_p = chi2_sf(comb_stat, comb_dof)
        else:
            comb_stat, comb_dof, comb_p = None, 0.0, None
        meta = {
            "T": T, "p": p, "J": config.J,
            "wavelet": wav.label, "alpha": wav.alpha,
            "kappa": config.kappa, "c": config.c, "kappa_tilde": system.window.kappa,
            "dof_n": n_dof, "flavor": flavor.value,
            "n_retained": system.n_retained,
            "excluded_scales": [s.j for s in rows if not s.valid],
            "caveats": ["cross-scale independence of the per-scale statistics is "
                        "only approximate for wavelets without strict dyadic "
                        "orthogonality (e.g. Morlet)"],
        }
        reports.append(StationarityReport(rows, comb_stat, comb_dof, comb_p, meta))
    return reports
