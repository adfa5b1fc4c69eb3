"""Canned Monte-Carlo studies validating the distributional results.

Each study only computes: it returns (summary, draws), a summary dict and its
raw draws as (file name, header, rows), or None for a study without draws.
run_study alone writes, and only once the summary is valid JSON, so a failed
run leaves no file or directory. The same functions back the `reproduce` CLI
subcommand and the acceptance test suite; replicate counts are arguments
so tests can pin the documented defaults.

Every study draws its replicates through one loop, _replicates, whose seeds
come from the master seed by a counter scheme (SeedSequence spawn keys), so
results do not depend on execution order, in batches of at most BATCH_EVENTS
events (a lone replicate may hold more): the LRT studies test a batch with one
stationarity_tests call, the others map their statistic over it. Statistics,
chi-squared dof and null laws come from the library. The LRT studies write NaN
for a scale the test excluded; test-size's chi2_ks_p is None for a scale with
no statistic.
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
                        null_percentile, stationarity_tests)
from .kernels import ValidRegion
from .pointproc import (HawkesParams, coherence_theoretical, hawkes_spectrum,
                        simulate_hawkes, simulate_piecewise, simulate_poisson)
from .spectra import coherence, cwt, denormalize_coords, smoothed_periodogram_eigen
from .wavelets import Wavelet

BATCH_EVENTS = 1 << 16  # events of the replicates one statistic call takes at most

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


def _replicates(make_stream, statistic, replicates: int, seed: int) -> list:
    """statistic(batch), a list of streams to a list of values, over batches of
    make_stream(seed sequence r), r in order: every study's loop. A batch takes streams
    until the next would bring it past BATCH_EVENTS events; only a lone one holds more."""
    values, batch, events = [], [], 0
    for r in range(replicates):
        stream = make_stream(_replicate_seed(seed, r))
        count = int(stream.counts().sum())
        if batch and events + count > BATCH_EVENTS:
            values += statistic(batch)
            batch, events = [], 0
        batch.append(stream)
        events += count
    return values + statistic(batch) if batch else values


def qq_correlation(sample: np.ndarray) -> float:
    """Correlation between ordered sample and standard-normal quantiles."""
    from scipy.special import ndtri  # slow to import; kept off the CLI's import path
    n = sample.size
    probs = (np.arange(1, n + 1) - 0.5) / n
    return float(np.corrcoef(np.sort(sample), ndtri(probs))[0, 1])


def run_qq_cwt(wavelet_kind: str = "morlet", process: str = "poisson",
               horizons=(10.0, 50.0, 100.0), replicates: int = 2000,
               seed: int = 20250, a_tilde: float = 0.8) -> tuple:
    """QQ study of the standardized wavelet transform against the normal.

    For each horizon the transform is evaluated at the centre of the data
    at the scale a = a_tilde * T / alpha and standardized by the process
    spectrum at the analyzing frequency. A QQ correlation needs two replicates.
    """
    if replicates < 2:
        raise ConfigError(f"study 'qq-cwt' parameter 'replicates': need at least 2, got {replicates}")
    wav = Wavelet.named(wavelet_kind)
    par = HawkesParams.from_dict(UNIVARIATE_HAWKES)
    results = []
    raw_rows = []
    for T in horizons:
        a = a_tilde * T / wav.alpha
        if process == "poisson":
            sigma2 = 1.0
            make = lambda sq: simulate_poisson([1.0], T, seed=sq)
        elif process == "hawkes":
            sigma2 = float(hawkes_spectrum(par, wav.central_frequency / a)[0, 0].real)
            make = lambda sq: simulate_hawkes(par, T, seed=sq)
        else:
            raise ConfigError(f"unknown process {process!r}")
        w = np.array(_replicates(make, lambda batch: [cwt(s, wav, a, T / 2.0)[0] for s in batch],
                                 replicates, seed))
        # real and imaginary parts scaled apart: a complex / real division can move the last bit
        scale = math.sqrt(sigma2 / 2.0 if wav.is_complex else sigma2)
        re_part, im_part = w.real / scale, w.imag / scale
        results.append({"T": T, "qq_re": qq_correlation(re_part),
                        "qq_im": qq_correlation(im_part) if wav.is_complex else None})
        raw_rows.extend((T, r, re_part[r], im_part[r]) for r in range(replicates))
    qq_final = min(v for v in (results[-1]["qq_re"], results[-1]["qq_im"]) if v is not None)
    return ({"study": "qq-cwt", "wavelet": wavelet_kind, "process": process,
             "replicates": replicates, "seed": seed, "per_horizon": results,
             "qq_final": qq_final, "passed": bool(qq_final >= 0.99)},
            (f"qq-cwt_{wavelet_kind}_{process}_draws.csv",
             ["T", "replicate", "re_standardized", "im_standardized"], raw_rows))


def _coherence_draws(system: EigenSystem, make_stream, T: float,
                     a_tilde: float, b_tilde: float, replicates: int,
                     seed: int) -> np.ndarray:
    a, b = denormalize_coords(a_tilde, b_tilde, T, system.wavelet.alpha, system.window.kappa)
    if not ValidRegion(system.wavelet.alpha, system.window.kappa, T).contains(a, b):
        raise ConfigError(f"(a_tilde={a_tilde}, b_tilde={b_tilde}) falls outside "
                          f"the valid triangle at T={T}")
    return np.array(_replicates(
        make_stream,
        lambda batch: [coherence(smoothed_periodogram_eigen(s, system, a, b), 0, 1) for s in batch],
        replicates, seed), dtype=float)


def run_qq_coherence(wavelet_kind: str = "morlet", process: str = "poisson",
                     kappa: float = 20.0, T: float = 100.0,
                     a_tilde: float = 0.8, b_tilde: float = 0.5,
                     replicates: int = 1000, seed: int = 20251,
                     rate: float = 1.0) -> tuple:
    """KS/QQ study of smoothed wavelet coherence against its asymptotic law.

    process 'poisson': independent unit-rate pair, zero true coherence.
    process 'hawkes': the mutually exciting pair; the comparison density
    uses the true spectral coherence at the analyzing frequency.
    """
    system = eigensystem_cached(wavelet_kind, kappa)
    n = system.degrees_of_freedom()
    if process == "poisson":
        make = lambda sq: simulate_poisson([rate, rate], T, seed=sq)
        rho2 = 0.0
    elif process == "hawkes":
        par = HawkesParams.from_dict(BIVARIATE_HAWKES)
        make = lambda sq: simulate_hawkes(par, T, seed=sq)
        a = denormalize_coords(a_tilde, b_tilde, T, system.wavelet.alpha, kappa)[0]
        rho2 = coherence_theoretical(par, system.wavelet.central_frequency / a, 0, 1)
    else:
        raise ConfigError(f"unknown process {process!r}")
    draws = _coherence_draws(system, make, T, a_tilde, b_tilde, replicates, seed)
    from scipy import stats as sstats  # slow to import; used only for the KS test
    dist = CoherenceDistribution(n=n, rho2=rho2, flavor=Flavor.of(system.wavelet))
    ks_stat, ks_p = sstats.kstest(draws, dist.cdf)
    return ({"study": "qq-coherence", "wavelet": wavelet_kind, "process": process,
             "kappa": kappa, "T": T, "a_tilde": a_tilde, "b_tilde": b_tilde,
             "replicates": replicates, "seed": seed, "dof": n, "rho2": rho2,
             "ks_stat": float(ks_stat), "ks_p": float(ks_p),
             "draws_mean": float(draws.mean()), "passed": bool(ks_p > 0.01)},
            (f"qq-coherence_{wavelet_kind}_{process}_draws.csv",
             ["replicate", "coherence"], list(enumerate(draws))))


def run_dof_table(kappa: float = 20.0) -> tuple:
    """Effective degrees of freedom of both built-in wavelets at kappa."""
    rows = {}
    for kind in ("morlet", "mexhat"):
        system = eigensystem_cached(kind, kappa)
        rows[kind] = system.degrees_of_freedom()
    passed = None
    if kappa == 20.0:
        passed = bool(abs(rows["morlet"] - 8.31) <= 0.05
                      and abs(rows["mexhat"] - 11.57) <= 0.05)
    return {"study": "dof-table", "kappa": kappa, "dof": rows, "passed": passed}, None


def run_null_percentile(wavelet_kind: str = "morlet", kappa: float = 10.0,
                        q: float = 0.95) -> tuple:
    """Null-coherence percentile from the eigenvalue-sum degrees of freedom."""
    system = eigensystem_cached(wavelet_kind, kappa)
    n = system.degrees_of_freedom()
    flavor = Flavor.of(system.wavelet)
    value = null_percentile(flavor, n, q)
    passed = None
    if wavelet_kind == "morlet" and kappa == 10.0 and q == 0.95:
        passed = bool(abs(value - 0.593) <= 0.01)
    return ({"study": "null-percentile", "wavelet": wavelet_kind, "kappa": kappa,
             "q": q, "dof": n, "percentile": value, "passed": passed}, None)


def _lrt_replicates(make_stream, config: StationarityConfig, replicates: int,
                    seed: int, level: float):
    """stationarity_tests on each batch of replicates: statistics and p-values as (replicates, J)
    arrays, NaN at an excluded scale, the rejection rate at level per scale over the
    replicates that did not exclude it (None where all did), and the first report,
    whose per-scale chi-squared dof and meta hold for every replicate."""
    reports = _replicates(make_stream, lambda batch: stationarity_tests(batch, config),
                          replicates, seed)
    # a float array holds None as NaN
    stats = np.array([[s.statistic for s in r.scales] for r in reports], dtype=float)
    pvals = np.array([[s.p_value for s in r.scales] for r in reports], dtype=float)
    rates = [int(k) / int(n) if n else None
             for k, n in zip((pvals < level).sum(axis=0), (~np.isnan(pvals)).sum(axis=0))]
    return stats, pvals, rates, reports[0]


def run_test_size(rates=(2.0, 2.0), T: float = 1500.0, kappa: float = 6.0,
                  c: float = 0.25, J: int = 3, level: float = 0.05,
                  replicates: int = 500, seed: int = 20252) -> tuple:
    """Size of the stationarity test under a stationary Poisson null."""
    config = StationarityConfig(kappa=kappa, c=c, J=J)
    stats, _, rate_list, first = _lrt_replicates(
        lambda sq: simulate_poisson(list(rates), T, seed=sq), config, replicates, seed, level)
    from scipy import stats as sstats  # slow to import; used only for the KS test
    from scipy.special import chdtr  # chi2(dof).cdf without a frozen distribution per scale
    ks = []
    for column, scale in zip(stats.T, first.scales):
        valid = column[~np.isnan(column)]
        ks.append(float(sstats.kstest(valid, lambda x: chdtr(scale.dof, x)).pvalue)
                  if valid.size else None)
    passed = None if None in rate_list else bool(all(0.028 <= r <= 0.078 for r in rate_list))
    return ({"study": "test-size", "rates": list(rates), "T": T, "kappa": kappa,
             "c": c, "J": J, "level": level, "replicates": replicates,
             "seed": seed, "dof_n": first.meta["dof_n"],
             "rejection_rates": rate_list, "chi2_ks_p": ks, "passed": passed},
            ("test-size_draws.csv", ["scale_j", "replicate", "statistic"],
             [(j + 1, r, stats[r, j]) for j in range(J) for r in range(replicates)]))


def run_piecewise_detection(kappa: float = 8.0, c: float = 0.25, J: int = 3,
                            level: float = 0.05, replicates: int = 200,
                            seed: int = 20253) -> tuple:
    """Per-scale rejection rates on the piecewise-stationary Hawkes design."""
    segments = piecewise_segments()
    config = StationarityConfig(kappa=kappa, c=c, J=J)
    _, pvals, rate_list, first = _lrt_replicates(
        lambda sq: simulate_piecewise(segments, seed=sq), config, replicates, seed, level)
    # pass/fail per the stated acceptance thresholds (j=1 > 0.5, j=3 < 0.15);
    # structurally unattainable for this symmetric design, see the ledger
    needed = rate_list[:3:2] if J >= 3 else [None]  # j = 1 and j = 3
    passed = None if None in needed else bool(needed[0] > 0.5 and needed[1] < 0.15)
    return ({"study": "piecewise-detection", "kappa": kappa, "c": c, "J": J,
             "level": level, "replicates": replicates, "seed": seed,
             "dof_n": first.meta["dof_n"], "rejection_rates": rate_list, "passed": passed},
            ("piecewise-detection_draws.csv", ["scale_j", "replicate", "p_value"],
             [(j + 1, r, pvals[r, j]) for r in range(replicates) for j in range(J)]))


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


def _write_rows(out_dir: str, name: str, header: list, rows) -> None:
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, (int, float, np.floating))
                              else str(v) for v in row) + "\n")


def run_study(name: str, out_dir: str | None = None, **kwargs) -> dict:
    """Run a named study and return its summary; with out_dir, write its draws CSV and
    <name>.json there, making out_dir only once the summary has serialised.

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
    summary, draws = STUDIES[name](**kwargs)
    if out_dir is not None:
        text = json_text(summary)
        os.makedirs(out_dir, exist_ok=True)
        if draws is not None:
            _write_rows(out_dir, *draws)
        with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
            fh.write(text)
    return summary
