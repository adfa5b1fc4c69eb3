"""Command-line front end.

Subcommands: simulate, eigs, periodogram, coherence, test-stationarity,
reproduce. build_parser() declares each setting's flag, type, choices and
CLI default once. A JSON config file (--config) may set any option of its
command, named without the dashes and read as its text after the flag would
be, and the keys in CONFIG_ONLY; any other key is a config error. A flag beats
the file, which beats the CLI default, which beats the library's default.
Exit codes: 0 success, 2 config error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import studies
from .eigensys import eigensystem
from .errors import ConfigError, DataError, EventspecError, NumericalError, json_text
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
# Config-file keys that no flag declares, read by the command itself
CONFIG_ONLY = {"simulate": {"lambda", "params", "segments"}, "periodogram": {"a-grid", "b-grid"},
               "coherence": {"a-grid", "b-grid"}, "reproduce": {"args"}}


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


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv again with the --config file's values as the command's defaults.

    Each value reads as its text would after its flag, and a flag beats the file.
    Keys in CONFIG_ONLY land in args.config_only; any other key is a ConfigError.
    """
    args = parser.parse_args(argv)
    cfg = _load_config(args.config)
    options = {a.option_strings[0].lstrip("-"): a for a in args.parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    unknown = sorted(set(cfg) - set(options) - CONFIG_ONLY.get(args.command, set()))
    if unknown:
        raise ConfigError(f"{args.command} takes no config key {', '.join(map(repr, unknown))}")
    defaults = {}
    for key in cfg.keys() & options.keys():
        action = options[key]
        try:
            value = defaults[action.dest] = (action.type or str)(str(cfg[key]))
            if action.choices is not None and value not in action.choices:
                raise ValueError
        except ValueError:
            raise ConfigError(f"config key {key!r}: invalid value {cfg[key]!r}") from None
    args.parser.set_defaults(**defaults)
    args = parser.parse_args(argv)
    args.config_only = {key: value for key, value in cfg.items() if key not in options}
    return args


def _given(args, *names) -> dict:
    """The named settings given by a flag or the config file; the library fills the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _numbers(cfg: dict, key: str) -> np.ndarray:
    """A config-only number or list of numbers, or a ConfigError naming its key."""
    try:
        values = np.asarray(cfg.get(key))
    except ValueError:  # a ragged list
        values = np.array(None)
    if values.dtype.kind not in "iuf" or not np.isfinite(values).all():
        raise ConfigError(f"config key {key!r} must hold finite numbers, got {cfg.get(key)!r}")
    return values.astype(float)


def _out_dir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(args) -> int:
    cfg, kind, T, seed = args.config_only, args.kind, args.T, args.seed
    if kind in ("poisson", "hawkes") and (T is None or not T > 0):
        raise ConfigError(f"{kind} simulation needs a positive horizon T")
    if kind == "poisson":
        stream = simulate_poisson(_numbers(cfg, "lambda"), T, seed=seed)
        params_echo = {"kind": "poisson", "lambda": cfg["lambda"], "T": T}
    elif kind == "hawkes":
        params = HawkesParams.from_dict(cfg.get("params"))
        stream = simulate_hawkes(params, T, seed=seed)
        params_echo = {"kind": "hawkes", "nu": params.nu.tolist(),
                       "alpha": params.alpha.tolist(),
                       "beta": params.beta.tolist(), "T": T}
    elif kind == "piecewise":
        seg_cfg = cfg.get("segments")
        try:
            segments = [((float(s["t0"]), float(s["t1"])),
                         HawkesParams.from_dict(s["params"])) for s in seg_cfg]
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("config key 'segments' must list objects with numbers t0 and "
                              f"t1 and a params object ({type(exc).__name__}: {exc})") from None
        stream = simulate_piecewise(segments, seed=seed)
        params_echo = {"kind": "piecewise", "segments": seg_cfg, "T": stream.T}
    else:
        raise ConfigError("simulate needs kind in {poisson, hawkes, piecewise}")

    sidecar = json_text(dict(params_echo, seed=seed, p=stream.p, counts=stream.counts().tolist()))
    out = _out_dir(args)
    events_path = os.path.join(out, args.name + ".csv")
    save_csv(stream, events_path)
    with open(os.path.join(out, args.name + ".json"), "w") as fh:
        fh.write(sidecar)
    print(f"wrote {events_path} ({stream.p} streams, "
          f"{int(stream.counts().sum())} events)")
    return 0


def cmd_eigs(args) -> int:
    wavelet = Wavelet.named(args.wavelet, **_given(args, "alpha"))
    system = eigensystem(wavelet, SmoothingWindow.rectangular(args.kappa),
                         energy_cutoff=args.energy_cutoff, **_given(args, "n_points"))
    meta = {"wavelet": wavelet.label, "alpha": wavelet.alpha, "kappa": args.kappa,
            "n_points": system.n_points, "energy_cutoff": args.energy_cutoff,
            "n_retained": system.n_retained,
            "dof": system.degrees_of_freedom(), "diagnostics": system.diagnostics}
    text = json_text(meta)
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
    with open(os.path.join(out, "eigs.json"), "w") as fh:
        fh.write(text)
    print(f"wrote {eig_path} and {wav_path} "
          f"(retained {system.n_retained}, dof {meta['dof']:.3f})")
    return 0


def cmd_field(args) -> int:
    """periodogram and coherence: one field sweep; coherence adds the null percentile."""
    want_coherence = args.command == "coherence"
    if want_coherence and not 0.0 < args.percentile < 1.0:  # NaN too; before any input is read
        raise ConfigError(f"percentile must lie in (0, 1), got {args.percentile}")
    stream = load_csv(args.events)
    if want_coherence and stream.p < 2:
        raise DataError("coherence requires at least two component streams")
    wavelet = Wavelet.named(args.wavelet, **_given(args, "alpha"))
    fc = FieldConfig(
        wavelet=wavelet,
        window=SmoothingWindow.rectangular(args.kappa),
        energy_cutoff=args.energy_cutoff,
        **{key.replace("-", "_"): _numbers(args.config_only, key)
           for key in ("a-grid", "b-grid") if key in args.config_only},
        **_given(args, "n_a", "n_b", "a_min", "n_points"),
    )
    result = field(stream, fc)
    meta = result.meta
    stem, note = "field", f" ({meta['n_valid']}/{meta['n_grid']} grid points valid)"
    if want_coherence:
        q = args.percentile
        meta["null_percentile_q"] = q
        meta["null_percentile"] = null_percentile(Flavor.of(wavelet), meta["dof"], q)
        stem, note = "coherence", f"; null {q:.0%} percentile = {meta['null_percentile']:.4f}"
    text = result.meta_json()
    out = _out_dir(args)
    path = os.path.join(out, stem + ".csv")
    result.to_csv(path)
    with open(os.path.join(out, stem + "_meta.json"), "w") as fh:
        fh.write(text)
    print(f"wrote {path}{note}")
    return 0


def cmd_test_stationarity(args) -> int:
    stream = load_csv(args.events)
    config = StationarityConfig(wavelet=Wavelet.named(args.wavelet, **_given(args, "alpha")),
                                **_given(args, "kappa", "c", "J", "n_points"))
    report = stationarity_test(stream, config)
    text = report.to_json()
    out = _out_dir(args)
    path = os.path.join(out, "stationarity.json")
    with open(path, "w") as fh:
        fh.write(text)
    print(report)
    if report.meta["excluded_scales"]:
        print(f"warning: scales {report.meta['excluded_scales']} excluded "
              "(singular segment matrices)", file=sys.stderr)
    print(f"wrote {path}")
    return 0


def cmd_reproduce(args) -> int:
    kwargs = args.config_only.get("args", {})
    if not isinstance(kwargs, dict) or "out_dir" in kwargs:
        raise ConfigError(f"config key 'args' must be an object without out_dir, got {kwargs!r}")
    summary = studies.run_study(args.study, out_dir=_out_dir(args),
                                **dict(kwargs, **_given(args, "replicates", "seed")))
    print(json_text(summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventspec",
        description="Wavelet spectral analysis for multivariate point processes")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, func, events=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory (default .)")
        if events:
            p.add_argument("events", help="event CSV file")
        return p

    def kernel(p, kappa=CLI_KAPPA):
        p.add_argument("--wavelet", choices=["morlet", "mexhat"], default="morlet",
                       help="(default %(default)s)")
        p.add_argument("--alpha", type=float)
        p.add_argument("--kappa", type=float, default=kappa,
                       help="window width" + (" (default %(default)s)" if kappa else ""))
        p.add_argument("--n-points", type=int, dest="n_points")

    cutoff = dict(type=float, dest="energy_cutoff", default=CLI_ENERGY_CUTOFF,
                  help="(default %(default)s)")

    p = command("simulate", "simulate Poisson/Hawkes event streams", cmd_simulate)
    p.add_argument("--seed", type=int, default=0, help="master seed (default %(default)s)")
    p.add_argument("--kind", choices=["poisson", "hawkes", "piecewise"])
    p.add_argument("--T", type=float, help="horizon")
    p.add_argument("--name", default="events", help="output file stem (default %(default)s)")

    p = command("eigs", "eigenvalues and eigen-wavelets of the kernel", cmd_eigs)
    kernel(p)
    p.add_argument("--energy-cutoff", **cutoff)

    for name, help_text in [("periodogram", "smoothed wavelet periodogram field"),
                            ("coherence", "wavelet coherence field with null percentile")]:
        p = command(name, help_text, cmd_field, events=True)
        kernel(p)
        p.add_argument("--n-a", type=int, dest="n_a")
        p.add_argument("--n-b", type=int, dest="n_b")
        p.add_argument("--a-min", type=float, dest="a_min")
        p.add_argument("--energy-cutoff", **cutoff)
        if name == "coherence":
            p.add_argument("--percentile", type=float, default=0.95,
                           help="null percentile level (default %(default)s)")

    p = command("test-stationarity", "dyadic LRT for stationarity", cmd_test_stationarity,
                events=True)
    kernel(p, kappa=None)
    p.add_argument("--c", type=float)
    p.add_argument("--J", type=int)

    p = command("reproduce", "run a canned validation study", cmd_reproduce)
    p.add_argument("--seed", type=int, help="master seed (default: the study's)")
    p.add_argument("study", choices=sorted(studies.STUDIES))
    p.add_argument("--replicates", type=int)

    return parser


def main(argv=None) -> int:
    try:
        args = _parse(build_parser(), argv)
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
