"""Canned Monte-Carlo studies validating the distributional results.

Each study returns a summary dict (and optionally writes raw draws plus a
JSON summary to a directory). The same functions back the `reproduce` CLI
subcommand and the acceptance test suite; replicate counts are arguments
so tests can pin the documented defaults.

Per-replicate seeds are derived from the master seed with a counter scheme
(SeedSequence spawn keys), so results are deterministic regardless of any
execution order or parallelism.
"""

from __future__ import annotations

import inspect
import math
import numbers
import os

import numpy as np

from .eigensys import EigenSystem, eigensystem_cached
from .errors import ConfigError, json_text
from .inference import (CoherenceDistribution, Flavor, StationarityConfig,
                        null_percentile, stationarity_test)
from .kernels import ValidRegion
from .pointproc import (HawkesParams, coherence_theoretical, hawkes_spectrum,
                        simulate_hawkes, simulate_piecewise, simulate_poisson)
from .spectra import coherence, cwt, denormalize_coords, smoothed_periodogram_eigen
from .wavelets import Wavelet

# Simulation designs used throughout the validation studies.
UNIVARIATE_HAWKES = dict(nu=1.0, alpha=0.5, beta=1.0)
BIVARIATE_HAWKES = dict(nu=[1.0, 1.0],
                        alpha=[[0.5, 0.4], [0.4, 0.5]],
                        beta=[[1.0, 1.0], [1.0, 1.0]])
PIECEWISE_INDEPENDENT = dict(nu=[0.5, 0.5],
                             alpha=[[0.7, 0.0], [0.0, 0.7]],
                             beta=[[1.0, 1.0], [1.0, 1.0]])
PIECEWISE_COUPLED = dict(nu=[0.5, 0.5],
                         alpha=[[0.2, 0.5], [0.5, 0.2]],
                         beta=[[1.0, 1.0], [1.0, 1.0]])


def piecewise_segments() -> list:
    """Three-segment piecewise-stationary bivariate Hawkes design:
    independent on (0, 500] and (1000, 1500], mutually exciting between."""
    ind = HawkesParams.from_dict(PIECEWISE_INDEPENDENT)
    mut = HawkesParams.from_dict(PIECEWISE_COUPLED)
    return [((0.0, 500.0), ind), ((500.0, 1000.0), mut), ((1000.0, 1500.0), ind)]


def _replicate_seed(master: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master, spawn_key=(index,))


def qq_correlation(sample: np.ndarray) -> float:
    """Correlation between ordered sample and standard-normal quantiles."""
    from scipy.special import ndtri  # slow to import; kept off the CLI's import path
    n = sample.size
    probs = (np.arange(1, n + 1) - 0.5) / n
    return float(np.corrcoef(np.sort(sample), ndtri(probs))[0, 1])


def _hawkes_sigma(f: float) -> float:
    par = HawkesParams.from_dict(UNIVARIATE_HAWKES)
    return float(hawkes_spectrum(par, f)[0, 0].real)


def run_qq_cwt(wavelet_kind: str = "morlet", process: str = "poisson",
               horizons=(10.0, 50.0, 100.0), replicates: int = 2000,
               seed: int = 20250, a_tilde: float = 0.8,
               out_dir: str | None = None) -> dict:
    """QQ study of the standardized wavelet transform against the normal.

    For each horizon the transform is evaluated at the centre of the data
    at the scale a = a_tilde * T / alpha and standardized by the process
    spectrum at the analyzing frequency.
    """
    wav = Wavelet.named(wavelet_kind)
    f0 = wav.central_frequency
    results = []
    raw_rows = []
    for T in horizons:
        a = a_tilde * T / wav.alpha
        b = T / 2.0
        f_a = f0 / a
        if process == "poisson":
            sigma2 = 1.0
        elif process == "hawkes":
            sigma2 = _hawkes_sigma(f_a)
        else:
            raise ConfigError(f"unknown process {process!r}")
        par = HawkesParams.from_dict(UNIVARIATE_HAWKES) if process == "hawkes" else None
        re_part = np.empty(replicates)
        im_part = np.empty(replicates)
        for r in range(replicates):
            sq = _replicate_seed(seed, r)
            if process == "poisson":
                stream = simulate_poisson([1.0], T, seed=sq)
            else:
                stream = simulate_hawkes(par, T, seed=sq)
            w_val = cwt(stream, wav, a, b)[0]
            re_part[r] = w_val.real
            im_part[r] = w_val.imag
        if wav.is_complex:
            scale = math.sqrt(sigma2 / 2.0)
            entry = {"T": T, "qq_re": qq_correlation(re_part / scale),
                     "qq_im": qq_correlation(im_part / scale)}
        else:
            scale = math.sqrt(sigma2)
            entry = {"T": T, "qq_re": qq_correlation(re_part / scale),
                     "qq_im": None}
        raw_rows.extend((T, r, re_part[r] / scale, im_part[r] / scale)
                        for r in range(replicates))
        results.append(entry)
    final = results[-1]
    qq_final = min(v for v in (final["qq_re"], final["qq_im"]) if v is not None)
    if out_dir is not None:
        _write_rows(out_dir, f"qq-cwt_{wavelet_kind}_{process}_draws.csv",
                    ["T", "replicate", "re_standardized", "im_standardized"],
                    raw_rows)
    return {"study": "qq-cwt", "wavelet": wavelet_kind, "process": process,
            "replicates": replicates, "seed": seed, "per_horizon": results,
            "qq_final": qq_final, "passed": bool(qq_final >= 0.99)}


def _write_rows(out_dir: str, name: str, header: list, rows) -> None:
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def _coherence_draws(system: EigenSystem, make_stream, T: float,
                     a_tilde: float, b_tilde: float, replicates: int,
                     seed: int) -> np.ndarray:
    width = system.kernel.width
    a, b = denormalize_coords(a_tilde, b_tilde, T, system.kernel.wavelet.alpha,
                              system.kernel.window.kappa)
    if not ValidRegion(system.kernel.wavelet.alpha, system.kernel.window.kappa,
                       T).contains(a, b):
        raise ConfigError(f"(a_tilde={a_tilde}, b_tilde={b_tilde}) falls outside "
                          f"the valid triangle at T={T}")
    draws = np.empty(replicates)
    for r in range(replicates):
        stream = make_stream(_replicate_seed(seed, r))
        om = smoothed_periodogram_eigen(stream, system, a, b)
        draws[r] = coherence(om, 0, 1)
    return draws


def run_qq_coherence(wavelet_kind: str = "morlet", process: str = "poisson",
                     kappa: float = 20.0, T: float = 100.0,
                     a_tilde: float = 0.8, b_tilde: float = 0.5,
                     replicates: int = 1000, seed: int = 20251,
                     rate: float = 1.0, out_dir: str | None = None) -> dict:
    """KS/QQ study of smoothed wavelet coherence against its asymptotic law.

    process 'poisson': independent unit-rate pair, zero true coherence.
    process 'hawkes': the mutually exciting pair; the comparison density
    uses the true spectral coherence at the analyzing frequency.
    """
    system = eigensystem_cached(wavelet_kind, kappa)
    n = system.degrees_of_freedom()
    flavor = Flavor.of(system.kernel.wavelet)
    if process == "poisson":
        make = lambda sq: simulate_poisson([rate, rate], T, seed=sq)
        rho2 = 0.0
    elif process == "hawkes":
        par = HawkesParams.from_dict(BIVARIATE_HAWKES)
        make = lambda sq: simulate_hawkes(par, T, seed=sq)
        a = denormalize_coords(a_tilde, b_tilde, T, system.kernel.wavelet.alpha, kappa)[0]
        rho2 = coherence_theoretical(par, system.kernel.wavelet.central_frequency / a, 0, 1)
    else:
        raise ConfigError(f"unknown process {process!r}")
    draws = _coherence_draws(system, make, T, a_tilde, b_tilde, replicates, seed)
    from scipy import stats as sstats  # slow to import; used only for the KS test
    dist = CoherenceDistribution(n=n, rho2=rho2, flavor=flavor)
    if rho2 == 0.0:
        if flavor is Flavor.COMPLEX:
            cdf = lambda x: 1.0 - (1.0 - np.asarray(x)) ** (n - 1.0)
        else:
            cdf = sstats.beta(0.5, (n - 1.0) / 2.0).cdf
    else:
        cdf = dist.cdf
    ks_stat, ks_p = sstats.kstest(draws, cdf)
    if out_dir is not None:
        _write_rows(out_dir, f"qq-coherence_{wavelet_kind}_{process}_draws.csv",
                    ["replicate", "coherence"], list(enumerate(draws)))
    return {"study": "qq-coherence", "wavelet": wavelet_kind, "process": process,
            "kappa": kappa, "T": T, "a_tilde": a_tilde, "b_tilde": b_tilde,
            "replicates": replicates, "seed": seed, "dof": n, "rho2": rho2,
            "ks_stat": float(ks_stat), "ks_p": float(ks_p),
            "draws_mean": float(draws.mean()), "passed": bool(ks_p > 0.01)}


def run_dof_table(kappa: float = 20.0, out_dir: str | None = None) -> dict:
    """Effective degrees of freedom of both built-in wavelets at kappa."""
    rows = {}
    for kind in ("morlet", "mexhat"):
        system = eigensystem_cached(kind, kappa)
        rows[kind] = system.degrees_of_freedom()
    passed = None
    if kappa == 20.0:
        passed = bool(abs(rows["morlet"] - 8.31) <= 0.05
                      and abs(rows["mexhat"] - 11.57) <= 0.05)
    return {"study": "dof-table", "kappa": kappa, "dof": rows,
            "passed": passed}


def run_null_percentile(wavelet_kind: str = "morlet", kappa: float = 10.0,
                        q: float = 0.95, out_dir: str | None = None) -> dict:
    """Null-coherence percentile from the eigenvalue-sum degrees of freedom."""
    system = eigensystem_cached(wavelet_kind, kappa)
    n = system.degrees_of_freedom()
    flavor = Flavor.of(system.kernel.wavelet)
    value = null_percentile(flavor, n, q)
    passed = None
    if wavelet_kind == "morlet" and kappa == 10.0 and q == 0.95:
        passed = bool(abs(value - 0.593) <= 0.01)
    return {"study": "null-percentile", "wavelet": wavelet_kind, "kappa": kappa,
            "q": q, "dof": n, "percentile": value, "passed": passed}


def run_test_size(rates=(2.0, 2.0), T: float = 1500.0, kappa: float = 6.0,
                  c: float = 0.25, J: int = 3, level: float = 0.05,
                  replicates: int = 500, seed: int = 20252,
                  out_dir: str | None = None) -> dict:
    """Size of the stationarity test under a stationary Poisson null."""
    config = StationarityConfig(kappa=kappa, c=c, J=J)
    system = config.resolve_system(T)
    rejections = np.zeros(J)
    statistics = [[] for _ in range(J)]
    for r in range(replicates):
        stream = simulate_poisson(list(rates), T, seed=_replicate_seed(seed, r))
        report = stationarity_test(stream, config)
        for s in report.scales:
            statistics[s.j - 1].append(s.statistic)
            if s.p_value is not None and s.p_value < level:
                rejections[s.j - 1] += 1
    from scipy import stats as sstats  # slow to import; used only for the KS test
    ks = []
    for j in range(J):
        arr = np.asarray(statistics[j])
        dof = (2 ** (j + 1) - 1) * len(rates) ** 2
        ks.append(float(sstats.kstest(arr, sstats.chi2(dof).cdf).pvalue))
    if out_dir is not None:
        rows = [(j + 1, r, statistics[j][r])
                for j in range(J) for r in range(len(statistics[j]))]
        _write_rows(out_dir, "test-size_draws.csv",
                    ["scale_j", "replicate", "statistic"], rows)
    rate_list = (rejections / replicates).tolist()
    return {"study": "test-size", "rates": list(rates), "T": T, "kappa": kappa,
            "c": c, "J": J, "level": level, "replicates": replicates,
            "seed": seed, "dof_n": system.degrees_of_freedom(),
            "rejection_rates": rate_list,
            "chi2_ks_p": ks,
            "passed": bool(all(0.028 <= r <= 0.078 for r in rate_list))}


def run_piecewise_detection(kappa: float = 8.0, c: float = 0.25, J: int = 3,
                            level: float = 0.05, replicates: int = 200,
                            seed: int = 20253,
                            out_dir: str | None = None) -> dict:
    """Per-scale rejection rates on the piecewise-stationary Hawkes design."""
    segments = piecewise_segments()
    T = segments[-1][0][1]
    config = StationarityConfig(kappa=kappa, c=c, J=J)
    system = config.resolve_system(T)
    rejections = np.zeros(J)
    raw = []
    for r in range(replicates):
        stream = simulate_piecewise(segments, seed=_replicate_seed(seed, r))
        report = stationarity_test(stream, config)
        for s in report.scales:
            raw.append((s.j, r, s.p_value if s.p_value is not None else float("nan")))
            if s.p_value is not None and s.p_value < level:
                rejections[s.j - 1] += 1
    if out_dir is not None:
        _write_rows(out_dir, "piecewise-detection_draws.csv",
                    ["scale_j", "replicate", "p_value"], raw)
    rate_list = (rejections / replicates).tolist()
    # pass/fail per the stated acceptance thresholds (j=1 > 0.5, j=3 < 0.15);
    # structurally unattainable for this symmetric design, see the ledger
    passed = None
    if J >= 3:
        passed = bool(rate_list[0] > 0.5 and rate_list[2] < 0.15)
    return {"study": "piecewise-detection", "kappa": kappa, "c": c, "J": J,
            "level": level, "replicates": replicates, "seed": seed,
            "dof_n": system.degrees_of_freedom(),
            "rejection_rates": rate_list, "passed": passed}


STRING_CHOICES = {"wavelet_kind": ("morlet", "mexhat"), "process": ("poisson", "hawkes")}

STUDIES = {
    "qq-cwt": run_qq_cwt,
    "qq-coherence": run_qq_coherence,
    "dof-table": run_dof_table,
    "null-percentile": run_null_percentile,
    "test-size": run_test_size,
    "piecewise-detection": run_piecewise_detection,
}


def _valid_argument(key: str, value, default) -> bool:
    """Whether value is one of STRING_CHOICES for a string default, a non-empty list of numbers
    for a tuple, or else a finite number >= 0 (as every default is), integral for an int;
    replicates must be at least 1."""
    if isinstance(default, str):
        return value in STRING_CHOICES[key]
    if isinstance(default, tuple):
        return (isinstance(value, (list, tuple)) and len(value) > 0
                and all(_valid_argument(key, v, default[0]) for v in value))
    kind = numbers.Integral if isinstance(default, int) else numbers.Real
    low = 1 if key == "replicates" else 0
    return isinstance(value, kind) and not isinstance(value, bool) and low <= value < math.inf


def run_study(name: str, out_dir: str | None = None, **kwargs) -> dict:
    """Dispatch a named study and optionally persist its summary.

    Raises ConfigError for an unknown study, a keyword the study does not take or
    a value _valid_argument refuses; a summary that is not finite is a NumericalError.
    """
    if name not in STUDIES:
        raise ConfigError(f"unknown study {name!r}; available: {sorted(STUDIES)}")
    parameters = inspect.signature(STUDIES[name]).parameters
    for key, value in kwargs.items():
        if key not in parameters:
            raise ConfigError(f"study {name!r} takes no parameter {key!r}")
        if not _valid_argument(key, value, parameters[key].default):
            raise ConfigError(f"study {name!r} parameter {key!r}: invalid value {value!r}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        kwargs = dict(kwargs, out_dir=out_dir)
    summary = STUDIES[name](**kwargs)
    if out_dir is not None:
        text = json_text(summary)
        with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
            fh.write(text)
    return summary
