"""The benchmark's workloads: inputs made from the seed, one op, output checks.

Each workload is a closed loop with one client and one op in flight.

cli-coherence
    One fresh interpreter running ``python -m eventspec.cli coherence`` on
    a bivariate clustered event file, with the subcommand's defaults. This
    is what an analyst waits for; real CLI calls share nothing, so an
    in-process cache must show no gain here.
mc-hawkes-coherence
    ``studies.run_study("qq-coherence", process="hawkes", ...)`` at the
    criterion-11 design. The Hawkes simulator dominates it; its eigensystem
    comes from ``eigensystem_cached`` and is built during set-up.
mc-stationarity-size
    ``studies.run_study("test-size")`` at the criterion-9 design: a few
    dense points per replicate instead of a 32 x 128 grid, through the same
    spectra and eigensystem layers as cli-coherence, with a cheap Poisson
    simulator and one kernel build per study call.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

# Horizon of the criterion-11 design: at a_tilde = 0.8 the analysing
# frequency of the kappa = 20 Morlet kernel sits where the bivariate Hawkes
# pair has spectral coherence 0.4 (see tests/test_acceptance.py).
T_CRIT11 = 466.25802172691306

# The bivariate Hawkes design of the studies (nu = 1, alpha/beta =
# [[.5, .4], [.4, .5]]): each stream has stationary rate 10. Started from
# empty history, the total intensity is 20 - 18 exp(-t/10), so
# E N(T) = 20 T - 180 (1 - exp(-T/10)); the stationary count variance is
# T 1'S(0)1 = 2000 T.
HAWKES_DESIGN = dict(nu=[1.0, 1.0], alpha=[[0.5, 0.4], [0.4, 0.5]],
                     beta=[[1.0, 1.0], [1.0, 1.0]])
EVENT_SIGMAS = 5.0


def expected_hawkes_events(T: float) -> float:
    return 20.0 * T - 180.0 * (1.0 - math.exp(-T / 10.0))


class Workload:
    """One op at a time; subclasses fill in the input, the op and the checks."""

    name = ""
    # Python run in a fresh interpreter to time set-up: import plus any
    # one-off build the program does before its first op.
    setup_code = ""
    in_process = True
    # what warm_up runs, for the provenance block
    warm_up_note = "none"

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.smoke = smoke

    def op_seed(self, i: int) -> int:
        return self.seed * 100_000 + i

    def warm_up(self) -> None:
        """Run the op's code paths once, untimed: first calls are slower."""

    def op(self, i: int, tracer):
        """Run op i; raise on failure.

        An op run in a child process returns the file its spans were written
        to when ``tracer`` is given; an in-process op returns None.
        """
        raise NotImplementedError

    def check(self) -> list[str]:
        """Problems found in the outputs of the ops run so far."""
        raise NotImplementedError


def clustered_events(seed: int, T: float, per_stream: int, clusters: int) -> list:
    """Bivariate clustered event times on (0, T], made with numpy only.

    Cluster centres are uniform on (0, T] and shared by both streams; each
    stream spreads ``per_stream`` events over the clusters (multinomial
    sizes) with Exp(1) delays after the centre, wrapped into the horizon.
    """
    rng = np.random.default_rng([seed, 7])
    centres = rng.uniform(0.0, T, clusters)
    streams = []
    for _ in range(2):
        sizes = rng.multinomial(per_stream, np.full(clusters, 1.0 / clusters))
        times = np.mod(np.repeat(centres, sizes) + rng.exponential(1.0, per_stream), T)
        times[times == 0.0] = T
        streams.append(np.unique(times))
    return streams


def write_events(path: Path, streams: list, T: float) -> None:
    rows = sorted((float(t), i + 1) for i, seq in enumerate(streams) for t in seq)
    with open(path, "w") as fh:
        fh.write(f"# p={len(streams)} T={T!r}\n")
        fh.writelines(f"{idx},{t!r}\n" for t, idx in rows)


class CliCoherence(Workload):
    name = "cli-coherence"
    setup_code = "import eventspec.cli"
    in_process = False  # every op is a fresh interpreter; set-up runs warm the file cache
    OMEGA_POINTS = 24
    OMEGA_RTOL = 1e-6  # criterion 4's tolerance

    def __init__(self, root, work, seed, smoke):
        super().__init__(root, work, seed, smoke)
        # about 2 x 4.6k events at rate 10 per stream, the criterion-11 rate
        T, per_stream, clusters = (60.0, 600, 60) if smoke else (460.0, 4600, 460)
        self.events = work / "events.csv"
        write_events(self.events, clustered_events(seed, T, per_stream, clusters), T)
        # the smoke size shrinks the grid and kernel through flags; the full
        # size uses the subcommand's defaults (32 x 128 grid, 512 points)
        self.grid = (4, 8) if smoke else (32, 128)
        self.extra = ["--n-a", "4", "--n-b", "8", "--n-points", "128"] if smoke else []
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.outs: list[Path] = []

    def op(self, i, tracer):
        out = self.work / f"op{i}"
        args = ["coherence", str(self.events), "--out", str(out)] + self.extra
        if tracer is None:
            cmd = [sys.executable, "-m", "eventspec.cli"] + args
        else:
            spans_path = self.work / f"spans{i}.bin"
            cmd = [sys.executable, str(self.root / "bench" / "cli_child.py"),
                   str(spans_path)] + args
        proc = subprocess.run(cmd, env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        self.outs.append(out)
        return None if tracer is None else spans_path

    def check(self):
        from eventspec import (Flavor, SmoothedKernel, SmoothingWindow, Wavelet,
                               load_csv, null_percentile, nystrom_decompose,
                               smoothed_periodogram_eigen)
        problems = []
        stream = load_csv(self.events)
        systems = {}
        for k, out in enumerate(self.outs):
            with open(out / "coherence_meta.json") as fh:
                meta = json.load(fh)
            rows = np.loadtxt(out / "coherence.csv", delimiter=",", skiprows=1, ndmin=2)
            rows = rows[np.lexsort(rows[:, 3::-1].T)]  # by a, b, i, j
            p = stream.p
            n_a, n_b = self.grid
            if rows.shape[0] != n_a * n_b * p * p:
                problems.append(f"{out.name}: {rows.shape[0]} CSV rows, "
                                f"expected {n_a * n_b * p * p}")
                continue
            valid = rows[:, 7] == 1
            gamma = rows[valid, 6]
            gamma = gamma[~np.isnan(gamma)]
            if gamma.size == 0 or np.any((gamma < 0) | (gamma > 1)):
                problems.append(f"{out.name}: valid coherences outside [0, 1] or none")
            expected = null_percentile(Flavor.COMPLEX, meta["dof"], 0.95)
            if not math.isclose(meta["null_percentile"], expected, rel_tol=1e-12):
                problems.append(f"{out.name}: null_percentile {meta['null_percentile']} "
                                f"!= {expected}")
            # Omega at a seeded sample of valid grid points, across all scales,
            # against the exact per-point eigen route
            key = (meta["wavelet"], meta["alpha"], meta["kappa"], meta["n_points"],
                   meta["energy_cutoff"])
            if key not in systems:
                wav = (Wavelet.morlet(meta["alpha"]) if meta["wavelet"] == "morlet"
                       else Wavelet.mexican_hat(meta["alpha"]))
                kern = SmoothedKernel(wav, SmoothingWindow.rectangular(meta["kappa"]),
                                      n_points=meta["n_points"])
                systems[key] = nystrom_decompose(kern, energy_cutoff=meta["energy_cutoff"])
            system = systems[key]
            block = rows.reshape(n_a * n_b, p * p, 8)
            point_ok = block[:, 0, 7] == 1
            candidates = np.nonzero(point_ok)[0]
            rng = np.random.default_rng([self.seed, k, 11])
            by_scale = {}
            for idx in candidates:
                by_scale.setdefault(idx // n_b, []).append(idx)
            scales = sorted(by_scale)
            picks = [rng.choice(by_scale[s]) for s in scales]
            if len(picks) > self.OMEGA_POINTS:
                picks = list(rng.choice(picks, self.OMEGA_POINTS, replace=False))
            for idx in picks:
                a, b = block[idx, 0, 0], block[idx, 0, 1]
                got = (block[idx, :, 4] + 1j * block[idx, :, 5]).reshape(p, p)
                ref = smoothed_periodogram_eigen(stream, system, a, b, check_region=False)
                # a support without events gives Omega = 0 on both sides
                err, scale = np.linalg.norm(got - ref), np.linalg.norm(ref)
                if not err <= self.OMEGA_RTOL * scale:
                    problems.append(f"{out.name}: Omega at a={a}, b={b} off by {err:.3e} "
                                    f"(Frobenius norm of the reference {scale:.3e})")
        return problems


class McHawkesCoherence(Workload):
    name = "mc-hawkes-coherence"
    setup_code = ("from eventspec import studies\n"
                  "studies.eigensystem_cached('morlet', 20.0)")
    REPLICATES = 10

    def __init__(self, root, work, seed, smoke):
        super().__init__(root, work, seed, smoke)
        from eventspec import pointproc, studies
        self.studies = studies
        if studies.BIVARIATE_HAWKES != HAWKES_DESIGN:
            raise RuntimeError("studies.BIVARIATE_HAWKES is not the design the "
                               "event-count check was derived for")
        studies.eigensystem_cached("morlet", 20.0)
        self.T = 60.0 if smoke else T_CRIT11
        self.replicates = 1 if smoke else self.REPLICATES
        self.counts: list[int] = []
        self.results: list[tuple[Path, dict]] = []

        # Observe each replicate's event count for the check; the simulator is
        # looked up at call time so the traced wrapper, when installed, runs.
        def counted(*args, **kwargs):
            stream = pointproc.simulate_hawkes(*args, **kwargs)
            self.counts.append(int(stream.counts().sum()))
            return stream
        studies.simulate_hawkes = counted

    warm_up_note = "one 1-replicate study call"

    def warm_up(self):
        self.study(0, 1, None)

    def study(self, i, replicates, out):
        return self.studies.run_study(
            "qq-coherence", out_dir=out and str(out), wavelet_kind="morlet",
            process="hawkes", kappa=20.0, T=self.T, replicates=replicates,
            seed=self.op_seed(i))

    def op(self, i, tracer):
        out = self.work / f"op{i}"
        self.results.append((out, self.study(i, self.replicates, out)))

    def check(self):
        problems = []
        for out, summary in self.results:
            draws = np.loadtxt(out / "qq-coherence_morlet_hawkes_draws.csv",
                               delimiter=",", skiprows=1, ndmin=2)[:, 1]
            if draws.size != self.replicates or np.any((draws < 0) | (draws > 1)):
                problems.append(f"{out.name}: {draws.size} draws, or a draw outside [0, 1]")
            if not abs(summary["dof"] - 8.31) <= 0.05:
                problems.append(f"{out.name}: dof {summary['dof']} not 8.31 +- 0.05")
        n = len(self.counts)
        if n == 0:
            return problems + ["no simulate_hawkes call observed"]
        expected = expected_hawkes_events(self.T)
        se = math.sqrt(2000.0 * self.T / n)
        mean = sum(self.counts) / n
        if abs(mean - expected) > EVENT_SIGMAS * se:
            problems.append(f"mean events per replicate {mean:.1f} is more than "
                            f"{EVENT_SIGMAS:g} standard errors ({se:.1f}) from {expected:.1f}")
        return problems


class McStationaritySize(Workload):
    name = "mc-stationarity-size"
    setup_code = "from eventspec import studies"
    REPLICATES = 50
    J = 3

    def __init__(self, root, work, seed, smoke):
        super().__init__(root, work, seed, smoke)
        from eventspec import studies
        self.studies = studies
        self.T = 200.0 if smoke else 1500.0
        self.replicates = 2 if smoke else self.REPLICATES
        self.results: list[tuple[Path, dict]] = []

    warm_up_note = "one 2-replicate study call"

    def warm_up(self):
        self.study(0, 2, None)

    def study(self, i, replicates, out):
        return self.studies.run_study("test-size", out_dir=out and str(out), T=self.T,
                                      replicates=replicates, seed=self.op_seed(i))

    def op(self, i, tracer):
        out = self.work / f"op{i}"
        self.results.append((out, self.study(i, self.replicates, out)))

    def check(self):
        problems = []
        for out, summary in self.results:
            stats = np.loadtxt(out / "test-size_draws.csv", delimiter=",", skiprows=1,
                               ndmin=2)[:, 2]
            if stats.size != self.J * summary["replicates"]:
                problems.append(f"{out.name}: {stats.size} statistics, expected "
                                f"{self.J * summary['replicates']}")
            if not np.all(np.isfinite(stats) & (stats >= 0)):
                problems.append(f"{out.name}: a statistic is negative or not finite")
            p_values = list(summary["chi2_ks_p"]) + list(summary["rejection_rates"])
            if not all(0.0 <= v <= 1.0 for v in p_values):
                problems.append(f"{out.name}: a p-value or rejection rate outside [0, 1]")
        return problems


WORKLOADS = {w.name: w for w in (CliCoherence, McHawkesCoherence, McStationaritySize)}
