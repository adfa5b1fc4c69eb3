"""Command-line front end.

Subcommands: simulate, eigs, periodogram, coherence, test-stationarity,
reproduce. Parameters may come from a JSON config file (--config) with
command-line flags taking precedence; a setting given by neither takes the
library's default, apart from the CLI's own below. Only simulate and reproduce
take --seed. Exit codes: 0 success, 2 config error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import studies
from .eigensys import eigensystem
from .errors import ConfigError, DataError, EventspecError, NumericalError
from .inference import Flavor, StationarityConfig, null_percentile, stationarity_test
from .kernels import SmoothingWindow
from .pointproc import HawkesParams, load_csv, save_csv, simulate_hawkes, \
    simulate_piecewise, simulate_poisson
from .spectra import FieldConfig, field
from .wavelets import Wavelet

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4
# Energy kept and window width of eigs, periodogram and coherence unless given;
# the library's energy default (eigensys.DEFAULT_ENERGY_CUTOFF) keeps more.
CLI_ENERGY_CUTOFF = 0.999
CLI_KAPPA = 10.0


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config file must contain a JSON object")
    return cfg


def _setting(args, cfg: dict, name: str, default=None):
    """Flag wins over config file wins over default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    return cfg.get(name, default)


def _given(args, cfg: dict, **casts) -> dict:
    """Settings given by a flag or the config file, cast; the library fills the rest."""
    values = {key: _setting(args, cfg, key.replace("_", "-")) for key in casts}
    return {key: casts[key](value) for key, value in values.items() if value is not None}


def _make_wavelet(args, cfg: dict) -> Wavelet:
    return Wavelet.named(_setting(args, cfg, "wavelet", "morlet"),
                         **_given(args, cfg, alpha=float))


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    kind = _setting(args, cfg, "kind")
    seed = int(_setting(args, cfg, "seed", 0))
    if kind == "poisson":
        rates = cfg.get("lambda") or cfg.get("rates")
        if rates is None:
            raise ConfigError("poisson simulation needs 'lambda' in the config")
        T = float(_setting(args, cfg, "T", 0.0) or 0.0)
        if T <= 0:
            raise ConfigError("simulation needs a positive horizon T")
        stream = simulate_poisson(rates, T, seed=seed)
        params_echo = {"kind": "poisson", "lambda": rates, "T": T}
    elif kind == "hawkes":
        params = HawkesParams.from_dict(cfg.get("params", cfg))
        T = float(_setting(args, cfg, "T", 0.0) or 0.0)
        if T <= 0:
            raise ConfigError("simulation needs a positive horizon T")
        stream = simulate_hawkes(params, T, seed=seed)
        params_echo = {"kind": "hawkes", "nu": params.nu.tolist(),
                       "alpha": params.alpha.tolist(),
                       "beta": params.beta.tolist(), "T": T}
    elif kind == "piecewise":
        seg_cfg = cfg.get("segments")
        if not seg_cfg:
            raise ConfigError("piecewise simulation needs 'segments' in the config")
        segments = [((float(s["t0"]), float(s["t1"])),
                     HawkesParams.from_dict(s["params"])) for s in seg_cfg]
        stream = simulate_piecewise(segments, seed=seed)
        params_echo = {"kind": "piecewise", "segments": seg_cfg, "T": stream.T}
    else:
        raise ConfigError("simulate needs kind in {poisson, hawkes, piecewise}")

    out = _out_dir(args)
    events_path = os.path.join(out, args.name + ".csv")
    save_csv(stream, events_path)
    sidecar = dict(params_echo, seed=seed, p=stream.p,
                   counts=stream.counts().tolist())
    with open(os.path.join(out, args.name + ".json"), "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    print(f"wrote {events_path} ({stream.p} streams, "
          f"{int(stream.counts().sum())} events)")
    return 0


def cmd_eigs(args) -> int:
    cfg = _load_config(args.config)
    wavelet = _make_wavelet(args, cfg)
    kappa = float(_setting(args, cfg, "kappa", CLI_KAPPA))
    cutoff = float(_setting(args, cfg, "energy-cutoff", CLI_ENERGY_CUTOFF))
    system = eigensystem(wavelet, SmoothingWindow.rectangular(kappa),
                         energy_cutoff=cutoff, **_given(args, cfg, n_points=int))
    out = _out_dir(args)
    eig_path = os.path.join(out, "eigenvalues.csv")
    with open(eig_path, "w") as fh:
        fh.write("l,eta,cumulative_energy\n")
        cum = 0.0
        total = system.eigenvalues.sum()
        for l, eta in enumerate(system.retained_eigenvalues):
            cum += float(eta)
            fh.write(f"{l},{float(eta)!r},{cum / float(total)!r}\n")
    wav_path = os.path.join(out, "eigenwavelets.csv")
    with open(wav_path, "w") as fh:
        fh.write("x," + ",".join(
            f"re_{l},im_{l}" for l in range(system.n_retained)) + "\n")
        # x, then re and im of each eigen-wavelet, one row per grid point
        rows = np.column_stack([system.grid, system.eigen_wavelets_at(system.grid).view(float)])
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())
    meta = {"wavelet": wavelet.label, "alpha": wavelet.alpha, "kappa": kappa,
            "n_points": system.kernel.n_points, "energy_cutoff": cutoff,
            "n_retained": system.n_retained,
            "dof": system.degrees_of_freedom(), "diagnostics": system.diagnostics}
    with open(os.path.join(out, "eigs.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    print(f"wrote {eig_path} and {wav_path} "
          f"(retained {system.n_retained}, dof {meta['dof']:.3f})")
    return 0


def cmd_field(args) -> int:
    """periodogram and coherence: one field sweep; coherence adds the null percentile."""
    cfg = _load_config(args.config)
    stream = load_csv(args.events)
    want_coherence = args.command == "coherence"
    if want_coherence and stream.p < 2:
        raise DataError("coherence requires at least two component streams")
    wavelet = _make_wavelet(args, cfg)
    fc = FieldConfig(
        wavelet=wavelet,
        window=SmoothingWindow.rectangular(float(_setting(args, cfg, "kappa", CLI_KAPPA))),
        a_grid=np.asarray(cfg["a-grid"], dtype=float) if "a-grid" in cfg else None,
        b_grid=np.asarray(cfg["b-grid"], dtype=float) if "b-grid" in cfg else None,
        energy_cutoff=float(_setting(args, cfg, "energy-cutoff", CLI_ENERGY_CUTOFF)),
        **_given(args, cfg, n_a=int, n_b=int, a_min=float, n_points=int),
    )
    result = field(stream, fc)
    meta = result.meta
    stem, note = "field", f" ({meta['n_valid']}/{meta['n_grid']} grid points valid)"
    if want_coherence:
        q = float(_setting(args, cfg, "percentile", 0.95))
        meta["null_percentile_q"] = q
        meta["null_percentile"] = null_percentile(Flavor.of(wavelet), meta["dof"], q)
        stem, note = "coherence", f"; null {q:.0%} percentile = {meta['null_percentile']:.4f}"
    out = _out_dir(args)
    path = os.path.join(out, stem + ".csv")
    result.to_csv(path)
    with open(os.path.join(out, stem + "_meta.json"), "w") as fh:
        fh.write(result.meta_json())
    print(f"wrote {path}{note}")
    return 0


def cmd_test_stationarity(args) -> int:
    cfg = _load_config(args.config)
    stream = load_csv(args.events)
    config = StationarityConfig(wavelet=_make_wavelet(args, cfg),
                                **_given(args, cfg, kappa=float, c=float, J=int,
                                         n_points=int))
    report = stationarity_test(stream, config)
    out = _out_dir(args)
    path = os.path.join(out, "stationarity.json")
    with open(path, "w") as fh:
        fh.write(report.to_json())
    print(report)
    if report.meta["excluded_scales"]:
        print(f"warning: scales {report.meta['excluded_scales']} excluded "
              "(singular segment matrices)", file=sys.stderr)
    print(f"wrote {path}")
    return 0


def cmd_reproduce(args) -> int:
    cfg = _load_config(args.config)
    kwargs = dict(cfg.get("args", {}))
    if args.replicates is not None:
        kwargs["replicates"] = args.replicates
    if args.seed is not None:
        kwargs["seed"] = args.seed
    summary = studies.run_study(args.study, out_dir=_out_dir(args), **kwargs)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventspec",
        description="Wavelet spectral analysis for multivariate point processes")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, events=False, seed=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default .)")
        if seed:
            p.add_argument("--seed", type=int, help="master seed")
        if events:
            p.add_argument("events", help="event CSV file")

    def kernel(p):
        p.add_argument("--wavelet", choices=["morlet", "mexhat"])
        p.add_argument("--alpha", type=float)
        p.add_argument("--kappa", type=float)
        p.add_argument("--n-points", type=int, dest="n_points")

    p = sub.add_parser("simulate", help="simulate Poisson/Hawkes event streams")
    common(p, seed=True)
    p.add_argument("--kind", choices=["poisson", "hawkes", "piecewise"])
    p.add_argument("--T", type=float, help="horizon")
    p.add_argument("--name", default="events", help="output file stem")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eigs", help="eigenvalues and eigen-wavelets of the kernel")
    common(p)
    kernel(p)
    p.add_argument("--energy-cutoff", type=float, dest="energy_cutoff")
    p.set_defaults(func=cmd_eigs)

    for name, help_text in [("periodogram", "smoothed wavelet periodogram field"),
                            ("coherence", "wavelet coherence field with null percentile")]:
        p = sub.add_parser(name, help=help_text)
        common(p, events=True)
        kernel(p)
        p.add_argument("--n-a", type=int, dest="n_a")
        p.add_argument("--n-b", type=int, dest="n_b")
        p.add_argument("--a-min", type=float, dest="a_min")
        p.add_argument("--energy-cutoff", type=float, dest="energy_cutoff")
        if name == "coherence":
            p.add_argument("--percentile", type=float)
        p.set_defaults(func=cmd_field)

    p = sub.add_parser("test-stationarity", help="dyadic LRT for stationarity")
    common(p, events=True)
    kernel(p)
    p.add_argument("--c", type=float)
    p.add_argument("--J", type=int)
    p.set_defaults(func=cmd_test_stationarity)

    p = sub.add_parser("reproduce", help="run a canned validation study")
    common(p, seed=True)
    p.add_argument("study", choices=sorted(studies.STUDIES))
    p.add_argument("--replicates", type=int)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except EventspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
