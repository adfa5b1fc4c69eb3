import argparse
import csv
import json

import numpy as np
import pytest

from eventspec import cli, inference, load_csv
from eventspec.cli import build_parser
from eventspec.cli import main
from eventspec.inference import MAX_J


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def poisson_file(tmp_path):
    cfg = tmp_path / "poisson.json"
    cfg.write_text(json.dumps({"kind": "poisson", "lambda": [2.0, 2.0],
                               "T": 200.0, "seed": 7}))
    assert run(["simulate", "--config", cfg, "--out", tmp_path,
                "--name", "pois"]) == 0
    return tmp_path / "pois.csv"


class TestSimulate:
    def test_poisson_header_and_roundtrip(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "poisson", "lambda": [1.0],
                                   "T": 100.0, "seed": 7}))
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 0
        path = tmp_path / "events.csv"
        first = path.read_text().splitlines()[0]
        assert first == "# p=1 T=100.0"
        stream = load_csv(path)
        assert stream.p == 1 and stream.T == 100.0
        sidecar = json.loads((tmp_path / "events.json").read_text())
        assert sidecar["seed"] == 7 and sidecar["kind"] == "poisson"

    def test_hawkes_reserialization_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "hawkes", "T": 80.0, "seed": 3,
            "params": {"nu": [1.0, 1.0], "alpha": [[0.5, 0.4], [0.4, 0.5]],
                       "beta": [[1.0, 1.0], [1.0, 1.0]]}}))
        assert run(["simulate", "--config", cfg, "--out", tmp_path,
                    "--name", "h1"]) == 0
        from eventspec import save_csv
        stream = load_csv(tmp_path / "h1.csv")
        save_csv(stream, tmp_path / "h2.csv")
        assert (tmp_path / "h1.csv").read_bytes() == (tmp_path / "h2.csv").read_bytes()

    def test_piecewise_config(self, tmp_path):
        seg = lambda t0, t1, a12: {"t0": t0, "t1": t1, "params": {
            "nu": [0.5, 0.5],
            "alpha": [[0.2 if a12 else 0.7, a12], [a12, 0.2 if a12 else 0.7]],
            "beta": [[1.0, 1.0], [1.0, 1.0]]}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "piecewise", "seed": 5, "segments": [
            seg(0.0, 500.0, 0.0), seg(500.0, 1000.0, 0.5),
            seg(1000.0, 1500.0, 0.0)]}))
        assert run(["simulate", "--config", cfg, "--out", tmp_path,
                    "--name", "pw"]) == 0
        stream = load_csv(tmp_path / "pw.csv")
        assert stream.T == 1500.0 and stream.p == 2

    def test_unstable_params_exit_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "hawkes", "T": 10.0, "seed": 1,
            "params": {"nu": [1.0], "alpha": [[2.0]], "beta": [[1.0]]}}))
        code = run(["simulate", "--config", cfg, "--out", tmp_path])
        assert code != 0
        assert "spectral radius" in capsys.readouterr().err

    def test_event_budget_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "kind": "hawkes", "T": 1e4, "seed": 1,
            "params": {"nu": [1.0], "alpha": [[0.9999]], "beta": [[1.0]]}}))
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 3
        assert "budget" in capsys.readouterr().err

    def test_non_finite_piecewise_bound_is_data_error(self, tmp_path, capsys):
        # json reads NaN; the simulator refuses it before drawing anything
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "piecewise", "seed": 1, "segments": [
            {"t0": 0.0, "t1": float("nan"),
             "params": {"nu": [1.0], "alpha": [[0.5]], "beta": [[1.0]]}}]}))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / "out"]) == 3
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_determinism(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "poisson", "lambda": [3.0],
                                   "T": 50.0, "seed": 11}))
        run(["simulate", "--config", cfg, "--out", tmp_path, "--name", "a"])
        run(["simulate", "--config", cfg, "--out", tmp_path, "--name", "b"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_missing_kind_is_config_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lambda": [1.0], "T": 10.0}))
        assert run(["simulate", "--config", cfg, "--out", tmp_path]) == 2


class TestCoherenceCommand:
    def test_metadata_percentile(self, tmp_path, poisson_file):
        assert run(["coherence", poisson_file, "--kappa", 10, "--n-a", 4,
                    "--n-b", 8, "--out", tmp_path]) == 0
        meta = json.loads((tmp_path / "coherence_meta.json").read_text())
        assert meta["null_percentile_q"] == 0.95
        assert abs(meta["null_percentile"] - 0.593) < 0.01

    @pytest.mark.parametrize("given", [("--percentile", 1.5), ("--percentile", 0),
                                       ("--percentile", "nan"), {"percentile": 1.0},
                                       {"percentile": float("nan")}],
                             ids=["flag-1.5", "flag-0", "flag-nan", "config-1", "config-nan"])
    def test_percentile_outside_unit_interval_is_config_error_before_any_input(
            self, tmp_path, monkeypatch, capsys, given):
        # the sweep once ran to the end and the percentile then failed as a data error
        def refuse(*args, **kwargs):
            raise AssertionError("events read or field sweep started")

        monkeypatch.setattr(cli, "load_csv", refuse)
        monkeypatch.setattr(cli, "field", refuse)
        if isinstance(given, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(given))
            given = ("--config", cfg)
        out = tmp_path / "out"
        assert run(["coherence", tmp_path / "events.csv", *given, "--out", out]) == 2
        assert "percentile must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    def test_single_point_grid(self, tmp_path, poisson_file):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"a-grid": [3.0], "b-grid": [100.0],
                                   "kappa": 10.0}))
        assert run(["coherence", poisson_file, "--config", cfg,
                    "--out", tmp_path]) == 0
        with open(tmp_path / "coherence.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # one grid point, p^2 matrix entries

    def test_univariate_input_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "poisson", "lambda": [2.0],
                                   "T": 100.0, "seed": 2}))
        run(["simulate", "--config", cfg, "--out", tmp_path, "--name", "uni"])
        assert run(["coherence", tmp_path / "uni.csv", "--out", tmp_path]) == 3

    def test_meta_carries_kernel_diagnostics(self, tmp_path, poisson_file):
        assert run(["coherence", poisson_file, "--kappa", 10, "--n-a", 3,
                    "--n-b", 6, "--out", tmp_path]) == 0
        meta = json.loads((tmp_path / "coherence_meta.json").read_text())
        assert meta["diagnostics"]["trace_error"] < 1e-4
        assert set(meta["diagnostics"]) >= {"hermitian_asymmetry", "retained_energy",
                                            "min_retained_eigenvalue"}

    def test_oversized_kernel_grid_is_data_error(self, tmp_path, poisson_file, capsys):
        # refused before any n^2 allocation: a 10^6-point grid would need 8 TB
        assert run(["coherence", poisson_file, "--n-points", 1000000,
                    "--out", tmp_path]) == 3
        assert "n_points" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [("--n-a", 0), ("--n-a", -3), ("--n-b", 0),
                                       ("--n-b", 10**9), ("--a-min", -1), ("--a-min", 0),
                                       ("--a-min", "nan")])
    def test_bad_grid_size_is_config_error(self, tmp_path, poisson_file, flags, monkeypatch,
                                           capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("grid or omega allocated")

        monkeypatch.setattr(np, "full", refuse)
        monkeypatch.setattr(np, "geomspace", refuse)
        assert run(["coherence", poisson_file, *flags, "--out", tmp_path]) == 2
        assert "grid" in capsys.readouterr().err

    def test_grid_outside_triangle(self, tmp_path, poisson_file):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"a-grid": [50.0], "b-grid": [100.0]}))
        assert run(["coherence", poisson_file, "--config", cfg,
                    "--out", tmp_path]) == 2


@pytest.mark.parametrize("argv, code", [
    (["coherence", "EVENTS", "--kappa", "nan"], 3),
    (["coherence", "EVENTS", "--kappa", "inf"], 3),
    (["coherence", "EVENTS", "--alpha", "nan"], 3),
    (["eigs", "--kappa", "nan"], 3),
    (["eigs", "--kappa", "inf"], 3),
    (["eigs", "--alpha", "nan"], 3),
    (["test-stationarity", "EVENTS", "--kappa", "nan"], 2),
    (["test-stationarity", "EVENTS", "--kappa", "inf"], 2),
    (["test-stationarity", "EVENTS", "--alpha", "nan"], 3),
])
def test_non_finite_parameter_has_documented_exit_code(tmp_path, poisson_file, capsys,
                                                       argv, code):
    argv = [poisson_file if a == "EVENTS" else a for a in argv]
    assert run([*argv, "--out", tmp_path]) == code
    assert "positive and finite" in capsys.readouterr().err


def test_tied_timestamps_are_data_error(tmp_path, capsys):
    path = tmp_path / "tied.csv"
    path.write_text("# p=2 T=10.0\n1,1.5\n2,2.0\n1,3.25\n1,3.25\n2,4.0\n")
    assert run(["coherence", path, "--out", tmp_path]) == 3
    assert "strictly increasing" in capsys.readouterr().err


class TestPeriodogramCommand:
    def test_writes_field(self, tmp_path, poisson_file):
        assert run(["periodogram", poisson_file, "--kappa", 10, "--n-a", 3,
                    "--n-b", 6, "--out", tmp_path]) == 0
        assert (tmp_path / "field.csv").exists()
        meta = json.loads((tmp_path / "field_meta.json").read_text())
        assert meta["p"] == 2


class TestStationarityCommand:
    def test_runs_and_writes_report(self, tmp_path, poisson_file):
        assert run(["test-stationarity", poisson_file, "--J", 2,
                    "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "stationarity.json").read_text())
        assert [s["dof"] for s in doc["scales"]] == [4, 12]
        for s in doc["scales"]:
            assert 0.0 < s["p_value"] < 1.0

    def test_excluded_scale_is_reported_na(self, tmp_path, capsys):
        # one event per stream in each of segments 1, 3, 5 and 7 of eight: segment 2 of
        # j = 3 holds none, so its matrix is singular and only j = 1 and 2 combine
        path = tmp_path / "sparse.csv"
        path.write_text("# p=2 T=100.0\n1,10\n2,12\n1,30\n2,33\n1,55\n2,60\n1,80\n2,85\n")
        assert run(["test-stationarity", path, "--out", tmp_path]) == 0
        out, err = capsys.readouterr()
        rows = {line.split()[0]: line for line in out.splitlines()}
        assert rows["3"].split()[:5] == ["3", "8", "NA", "28.0", "NA"]
        assert rows["3"].endswith("(segment 2 matrix is not positive definite)")
        assert "NA" not in rows["1"] + rows["2"] and rows["combined"].split()[-2] == "16.0"
        assert "warning: scales [3] excluded" in err
        doc = json.loads((tmp_path / "stationarity.json").read_text())
        assert [s["valid"] for s in doc["scales"]] == [True, True, False]
        assert doc["meta"]["excluded_scales"] == [3]

    def test_no_valid_scale_gives_a_null_combined_test(self, tmp_path, capsys):
        path = tmp_path / "one-pair.csv"
        path.write_text("# p=2 T=100.0\n1,10\n2,12\n")
        assert run(["test-stationarity", path, "--out", tmp_path]) == 0
        out, err = capsys.readouterr()
        assert "combined: NA (no valid scale)" in out.splitlines()
        assert "warning: scales [1, 2, 3] excluded" in err
        doc = json.loads((tmp_path / "stationarity.json").read_text())
        assert doc["combined"] == {"statistic": None, "dof": 0, "p_value": None}
        assert not any(s["valid"] for s in doc["scales"])

    def test_invalid_j_is_config_error(self, tmp_path, poisson_file):
        assert run(["test-stationarity", poisson_file, "--J", 0,
                    "--out", tmp_path]) == 2

    @pytest.mark.parametrize("J", [MAX_J + 1, 40])
    def test_j_above_cap_is_config_error_before_any_build(self, tmp_path, poisson_file,
                                                         monkeypatch, capsys, J):
        # 2^40 segments per scale would never finish; the cap must stop it first
        def refuse(*args, **kwargs):
            raise AssertionError("stationarity test started")

        monkeypatch.setattr(inference, "eigensystem", refuse)
        monkeypatch.setattr(inference, "eigen_transforms", refuse)
        assert run(["test-stationarity", poisson_file, "--J", J, "--out", tmp_path]) == 2
        assert f"J must lie in [1, {MAX_J}]" in capsys.readouterr().err


class TestEigsCommand:
    def test_writes_csv_and_meta(self, tmp_path):
        assert run(["eigs", "--kappa", 10, "--energy-cutoff", 0.999,
                    "--out", tmp_path]) == 0
        with open(tmp_path / "eigenvalues.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9  # nine eigenvalues hold 99.9% at kappa = 10
        cum = [float(r["cumulative_energy"]) for r in rows]
        assert all(a <= b for a, b in zip(cum, cum[1:]))
        assert cum[-1] >= 0.999
        meta = json.loads((tmp_path / "eigs.json").read_text())
        assert abs(meta["dof"] - 4.335) < 0.01
        with open(tmp_path / "eigenwavelets.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "x" and "re_0" in header

    def test_meta_carries_kernel_diagnostics(self, tmp_path):
        assert run(["eigs", "--kappa", 10, "--n-points", 128, "--out", tmp_path]) == 0
        diag = json.loads((tmp_path / "eigs.json").read_text())["diagnostics"]
        assert set(diag) == {"trace_error", "hermitian_asymmetry", "retained_energy",
                             "min_retained_eigenvalue"}
        assert diag["trace_error"] < 1e-4

    def test_oversized_kernel_grid_is_data_error(self, tmp_path):
        assert run(["eigs", "--n-points", 1000000, "--out", tmp_path]) == 3

    def test_eigenwavelet_csv_matches_row_by_row_writer(self, tmp_path):
        from eventspec import Wavelet, SmoothingWindow, eigensystem
        assert run(["eigs", "--kappa", 10, "--n-points", 128, "--out", tmp_path]) == 0
        system = eigensystem(Wavelet.morlet(), SmoothingWindow.rectangular(10.0), 128, 0.999)
        full = system.eigen_wavelets_at(system.grid)
        lines = []  # the earlier writer, one repr per value: the oracle
        for i, x in enumerate(system.grid):
            row = [repr(float(x))]
            for l in range(system.n_retained):
                row.append(repr(float(np.real(full[i, l]))))
                row.append(repr(float(np.imag(full[i, l]))))
            lines.append(",".join(row) + "\n")
        body = (tmp_path / "eigenwavelets.csv").read_text().split("\n", 1)[1]
        assert body == "".join(lines)

    def test_unknown_wavelet_is_config_error(self, tmp_path):
        cfg = tmp_path / "eigs.json"
        cfg.write_text(json.dumps({"wavelet": "foo"}))
        assert run(["eigs", "--config", cfg, "--out", tmp_path]) == 2

    def test_zero_alpha_is_data_error(self, tmp_path):
        assert run(["eigs", "--alpha", 0, "--out", tmp_path]) == 3

    def test_alpha_too_narrow_to_normalise_is_data_error(self, tmp_path, capsys):
        assert run(["eigs", "--alpha", 1e-150, "--out", tmp_path / "out"]) == 3
        assert "too narrow to normalise" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestReproduceCommand:
    def test_dof_table(self, tmp_path, capsys):
        assert run(["reproduce", "dof-table", "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "dof-table.json").read_text())
        assert abs(doc["dof"]["morlet"] - 8.31) < 0.05
        assert abs(doc["dof"]["mexhat"] - 11.57) < 0.05

    def test_null_percentile(self, tmp_path):
        assert run(["reproduce", "null-percentile", "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "null-percentile.json").read_text())
        assert abs(doc["percentile"] - 0.593) < 0.01

    def test_unknown_study_rejected(self, tmp_path):
        import pytest as _pytest
        with _pytest.raises(SystemExit):
            run(["reproduce", "not-a-study", "--out", tmp_path])


OPTIONS = {
    "simulate": ["--config", "--out", "--seed", "--kind", "--T", "--name"],
    "eigs": ["--config", "--out", "--wavelet", "--alpha", "--kappa", "--n-points",
             "--energy-cutoff"],
    "periodogram": ["--config", "--out", "--wavelet", "--alpha", "--kappa", "--n-points",
                    "--n-a", "--n-b", "--a-min", "--energy-cutoff"],
    "coherence": ["--config", "--out", "--wavelet", "--alpha", "--kappa", "--n-points",
                  "--n-a", "--n-b", "--a-min", "--energy-cutoff", "--percentile"],
    "test-stationarity": ["--config", "--out", "--wavelet", "--alpha", "--kappa",
                          "--n-points", "--c", "--J"],
    "reproduce": ["--config", "--out", "--seed", "--replicates"],
}


def test_option_surface():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    surface = {name: [a.option_strings[0] for a in p._actions
                      if a.option_strings and a.dest != "help"]
               for name, p in commands.items()}
    assert surface == OPTIONS
    assert sum(map(len, surface.values())) == 46


@pytest.mark.parametrize("argv", [
    ["eigs", "--seed", 1],
    ["periodogram", "events.csv", "--seed", 1],
    ["coherence", "events.csv", "--seed", 1],
    ["test-stationarity", "events.csv", "--seed", 1],
    ["test-stationarity", "events.csv", "--flavor", "real"],
])
def test_removed_flag_is_usage_error(tmp_path, capsys, argv):
    # the seed was never read by these commands, and the wavelet fixes the flavor
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", tmp_path])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


HAWKES = {"nu": [1.0], "alpha": [[0.5]], "beta": [[1.0]]}


@pytest.mark.parametrize("command, cfg, key", [
    ("periodogram", {"n-a": "x"}, "n-a"),
    ("coherence", {"percentile": "high"}, "percentile"),
    ("coherence", {"energy-cutoff": "x"}, "energy-cutoff"),
    ("coherence", {"n-points": "many"}, "n-points"),
    ("coherence", {"kapa": 3}, "kapa"),
    ("coherence", {"n-a": 4.7}, "n-a"),
    ("coherence", {"a-grid": "abc", "b-grid": [100.0]}, "a-grid"),
    ("coherence", {"a-grid": [3.0], "b-grid": [[100.0], [1.0, 2.0]]}, "b-grid"),
    ("test-stationarity", {"flavor": "real"}, "flavor"),
    ("test-stationarity", {"J": 2.9}, "J"),
    ("simulate", {"kind": "poisson", "lambda": [1.0], "T": "ten"}, "T"),
    ("simulate", {"kind": "poisson", "lambda": [1.0], "T": 10.0, "seed": "s"}, "seed"),
    ("simulate", {"kind": "poisson", "lambda": "x", "T": 10.0}, "lambda"),
    ("simulate", {"kind": "hawkes", "T": 10.0, "params": 5}, "params"),
    ("simulate", {"kind": "piecewise", "segments": [{"t0": 0.0, "params": HAWKES}]}, "t1"),
    ("simulate", {"kind": "piecewise", "segments": [{"t1": 9.0, "params": HAWKES}]}, "t0"),
    ("simulate", {"kind": "piecewise", "segments": [{"t0": 0.0, "t1": 9.0}]}, "params"),
    # the removed aliases: 'rates' for 'lambda', and Hawkes keys outside 'params'
    ("simulate", {"kind": "poisson", "rates": [1.0], "T": 10.0}, "rates"),
    ("simulate", {"kind": "hawkes", "T": 10.0, **HAWKES}, "nu"),
    ("reproduce", {"args": {"bogus": 1}}, "bogus"),
    ("reproduce", {"args": 5}, "args"),
    ("reproduce", {"seed": 3}, "seed"),  # read as --seed, which dof-table does not take
    ("reproduce", {"args": {"kappa": -20.0}}, "kappa"),
    ("reproduce", {"args": {"kappa": True}}, "kappa"),
    ("reproduce", {"args": {"out_dir": "elsewhere"}}, "out_dir"),
    ("simulate", {"kind": "poisson", "lambda": [1.0], "T": 10.0, "seed": -1}, "seed"),  # was exit 1
])
def test_bad_config_value_is_config_error(tmp_path, poisson_file, capsys, command, cfg, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    positional = {"simulate": [], "reproduce": ["dof-table"]}.get(command, [poisson_file])
    assert run([command, *positional, "--config", path, "--out", tmp_path / "out"]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_grid_that_is_not_1d_is_config_error(tmp_path, poisson_file, capsys):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"a-grid": [[3.0, 4.0]], "b-grid": [100.0]}))
    assert run(["coherence", poisson_file, "--config", path, "--out", tmp_path]) == 2
    assert "a_grid must be 1-D" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config", "default"])
def test_flag_beats_config_beats_cli_default(tmp_path, poisson_file, source):
    which = ["flag", "config", "default"].index(source)
    cases = [  # argv, meta file, config, flags, {meta key: (by flag, by config, CLI default)}
        (["eigs"], "eigs.json", {"kappa": 12.0}, ["--kappa", 14], {"kappa": (14.0, 12.0, 10.0)}),
        (["coherence", poisson_file, "--n-a", 3, "--n-b", 6], "coherence_meta.json",
         {"energy-cutoff": 0.99, "percentile": 0.9},
         ["--energy-cutoff", 0.995, "--percentile", 0.8],
         {"energy_cutoff": (0.995, 0.99, 0.999), "null_percentile_q": (0.8, 0.9, 0.95)}),
    ]
    for argv, meta_file, cfg, flags, expected in cases:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        given = {"flag": ["--config", path, *flags], "config": ["--config", path], "default": []}
        assert run([*argv, "--n-points", 128, "--out", tmp_path, *given[source]]) == 0
        meta = json.loads((tmp_path / meta_file).read_text())
        assert {key: meta[key] for key in expected} == \
            {key: values[which] for key, values in expected.items()}


def test_reproduce_reads_top_level_seed_and_replicates(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "replicates": 2, "args": {"T": 200.0}}))
    assert run(["reproduce", "test-size", "--config", path, "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "test-size.json").read_text())
    assert (doc["seed"], doc["replicates"]) == (3, 2)


@pytest.mark.parametrize("study, cfg", [
    ("null-percentile", {"args": {"kappa": "x"}}),  # was a TypeError, exit 1
    ("null-percentile", {"args": {"wavelet_kind": "haar"}}),
    ("null-percentile", {"args": {"q": [0.95]}}),
    ("test-size", {"args": {"rates": [2.0, "2"]}}),
    ("test-size", {"args": {"rates": []}}),
    ("test-size", {"args": {"replicates": 2.5}}),
    ("qq-cwt", {"seed": -1}),  # was numpy's ValueError, exit 1
    ("test-size", {"replicates": 0}),  # divided by zero and ended at exit 4
    ("piecewise-detection", {"replicates": 0}),
    ("qq-cwt", {"args": {"replicates": 0}}),
    ("qq-coherence", {"replicates": 0}),
    ("qq-cwt", {"replicates": 1}),  # a QQ correlation needs two points
])
def test_reproduce_refuses_bad_argument_values(tmp_path, capsys, study, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(["reproduce", study, "--config", path, "--out", tmp_path / "out"]) == 2
    key = next(iter(cfg.get("args", cfg)))
    assert f"parameter {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reproduce_takes_valid_argument_values(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"args": {"kappa": 12, "wavelet_kind": "mexhat", "q": 0.9}}))
    assert run(["reproduce", "null-percentile", "--config", path, "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "null-percentile.json").read_text())
    assert (doc["kappa"], doc["wavelet"], doc["q"]) == (12, "mexhat", 0.9)
    path.write_text(json.dumps({"replicates": 2, "args": {"rates": [2, 2.5], "T": 200}}))
    assert run(["reproduce", "test-size", "--config", path, "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "test-size.json").read_text())
    assert (doc["rates"], doc["T"], doc["replicates"]) == ([2, 2.5], 200, 2)


def test_test_size_with_excluded_scales(tmp_path):
    # at these rates every segment periodogram is singular, so every scale is excluded
    # and has no statistic to test: the KS p-value, the size and the verdict are null
    # (the size read 0.0 over replicates that had no p-value) and the draws are nan
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"args": {"rates": [0.001, 0.001], "T": 100.0}}))
    assert run(["reproduce", "test-size", "--replicates", 3, "--config", path,
                "--out", tmp_path]) == 0
    doc = json.loads((tmp_path / "test-size.json").read_text())
    assert doc["chi2_ks_p"] == doc["rejection_rates"] == [None, None, None]
    assert doc["passed"] is None
    rows = list(csv.reader(open(tmp_path / "test-size_draws.csv")))[1:]
    assert len(rows) == 9 and {row[2] for row in rows} == {"nan"}


@pytest.mark.filterwarnings("error")
def test_non_finite_report_is_numerical_error(tmp_path, capsys):
    # T = 1e300 degenerates the kernel (eigenvalue sum 0, n = inf): refused where the
    # eigensystem is built, before any warning and before the report is written
    path = tmp_path / "huge.csv"
    path.write_text("# p=2 T=1e300\n1,1.0\n2,2.0\n1,5.0\n2,7.5\n")
    assert run(["test-stationarity", path, "--J", 1, "--out", tmp_path / "out"]) == 4
    assert "eigenvalue sum" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["test-stationarity", "coherence"])
@pytest.mark.parametrize("T", ["nan", "inf"])
def test_non_finite_horizon_is_data_error(tmp_path, capsys, command, T):
    # T=nan had been blamed on the streams' horizons (NaN != NaN) or on the valid
    # triangle, and T=inf on kappa
    path = tmp_path / "horizon.csv"
    path.write_text(f"# p=2 T={T}\n1,1.0\n2,2.0\n1,5.0\n2,7.5\n")
    assert run([command, path, "--out", tmp_path / "out"]) == 3
    assert "horizon T must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_more_streams_than_eigen_wavelets_is_config_error(tmp_path, capsys):
    # rank Omega <= L: p = L + 1 had computed every scale and reported each one NA
    from eventspec import StationarityConfig, save_csv, simulate_poisson
    L = StationarityConfig().resolve_system(100.0).n_retained
    path = tmp_path / "wide.csv"
    save_csv(simulate_poisson([1.0] * (L + 1), 100.0, seed=2), path)
    assert run(["test-stationarity", path, "--out", tmp_path / "out"]) == 2
    assert f"p={L + 1} streams exceed the L={L} eigen-wavelets" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lrt_stack_above_its_byte_limit_is_config_error(tmp_path, capsys):
    # p = 60 <= L at kappa 20, but J = 12 puts 2^12 segments of it in one stack: gigabytes
    assert run([*_stationarity_byte_bound(tmp_path), "--out", tmp_path / "out"]) == 2
    assert "p=60 streams at J=12 need about" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_coherence_is_numerical_error(tmp_path, capsys):
    # T = 1e-300 leaves Omega finite (its diagonal near 1e291) but |Omega_ij|^2
    # overflows: refused before any file is written, with no overflow warning
    path = tmp_path / "tiny.csv"
    path.write_text("# p=2 T=1e-300\n1,1e-301\n2,2e-301\n1,5e-301\n")
    assert run(["coherence", path, "--out", tmp_path / "out"]) == 4
    assert "coherence is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "coherence.csv").exists()


def test_non_finite_stationarity_report_is_refused_by_its_writer(tmp_path, poisson_file,
                                                                  capsys, monkeypatch):
    from eventspec import cli

    def degenerate(stream, config):
        report = inference.stationarity_test(stream, config)
        report.meta["dof_n"] = float("inf")
        return report

    monkeypatch.setattr(cli, "stationarity_test", degenerate)
    assert run(["test-stationarity", poisson_file, "--kappa", 10, "--J", 1,
                "--out", tmp_path / "out"]) == 4
    assert "not written: a value is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "stationarity.json").exists()


def test_non_finite_study_summary_is_numerical_error(tmp_path, capsys, monkeypatch):
    from eventspec import studies

    def degenerate(kappa: float = 20.0):
        return {"study": "dof-table", "dof": {"morlet": float("inf")}}, None

    monkeypatch.setitem(studies.STUDIES, "dof-table", degenerate)
    assert run(["reproduce", "dof-table", "--out", tmp_path / "out"]) == 4
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_failed_study_leaves_no_output(tmp_path, capsys):
    # one replicate had given a NaN QQ correlation, numpy's warnings and exit 4; it is
    # refused before any draw
    assert run(["reproduce", "qq-cwt", "--replicates", 1, "--out", tmp_path / "out"]) == 2
    assert "parameter 'replicates'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _events_file(path, p, T, events):
    path.write_text(f"# p={p} T={T!r}\n" + "".join(f"{i},{t!r}\n" for i, t in events))
    return path


def _stationarity_rank_bound(tmp_path):
    T = 1500.0
    p = inference.StationarityConfig().resolve_system(T).n_retained + 1
    events = [(i, t) for i in range(1, p + 1) for t in (100.0, 700.0, 1200.0)]
    return ["test-stationarity", _events_file(tmp_path / "ev.csv", p, T, events)]


def _stationarity_byte_bound(tmp_path):
    events = [(i, t) for i in range(1, 61) for t in (100.0, 700.0, 1200.0)]
    return ["test-stationarity", _events_file(tmp_path / "ev.csv", 60, 1500.0, events),
            "--kappa", 20, "--J", 12]


def _coherence_at_horizon(T):
    def argv(tmp_path):
        events = [(1, 0.2 * T), (1, 0.5 * T), (2, 0.3 * T), (2, 0.6 * T)]
        return ["coherence", _events_file(tmp_path / "ev.csv", 2, T, events)]
    return argv


def _near_critical_hawkes(tmp_path):
    cfg = tmp_path / "hawkes.json"
    cfg.write_text(json.dumps({"params": {"nu": [0.01], "alpha": [[0.999]], "beta": [[1.0]]}}))
    return ["simulate", "--kind", "hawkes", "--T", 1e4, "--seed", 1, "--config", cfg]


EXTREME_INPUTS = {
    "p = L + 1": _stationarity_rank_bound,
    "p = 60, J = 12": _stationarity_byte_bound,  # had run 44 s to a MemoryError, exit 1
    "p = 8192 declared": lambda tmp_path: ["test-stationarity", _events_file(
        tmp_path / "ev.csv", 8192, 100.0, [(1, 10.0), (2, 20.0), (8192, 30.0)])],
    "T = 1e300": _coherence_at_horizon(1e300),
    "T = 1e-300": _coherence_at_horizon(1e-300),
    "near-critical Hawkes": _near_critical_hawkes,
    "eigs kappa 504": lambda tmp_path: ["eigs", "--kappa", 504],
}


@pytest.mark.parametrize("name", list(EXTREME_INPUTS))
def test_extreme_input_ends_in_a_documented_exit(tmp_path, name):
    # a fresh CLI process under a 2 GB address-space limit and a timeout: every row ends
    # in a documented exit code (0, 2, 3 or 4) without a traceback
    import os
    import resource
    import subprocess
    import sys

    import eventspec

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    argv = [*EXTREME_INPUTS[name](tmp_path), "--out", tmp_path / "out"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eventspec.__file__)))
    done = subprocess.run([sys.executable, "-m", "eventspec.cli", *map(str, argv)],
                          capture_output=True, text=True, timeout=60, preexec_fn=limit,
                          env=env, cwd=tmp_path)
    assert done.returncode in (0, 2, 3, 4), done.stderr
    assert "Traceback" not in done.stderr
