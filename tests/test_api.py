import inspect
import os
import subprocess
import sys
import types

import pytest

import eventspec
import oracles
from eventspec import studies


def test_all_lists_every_public_name():
    public = {name for name, value in vars(eventspec).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(eventspec.__all__) == len(set(eventspec.__all__))
    assert set(eventspec.__all__) == public


def test_cli_import_leaves_out_interpolate_and_stats():
    # both are slow to import and only needed for spline fits and KS tests
    code = ("import sys, eventspec.cli; "
            "print([m for m in ('scipy.interpolate', 'scipy.stats') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eventspec.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_morlet_cli_runs_load_no_scipy(tmp_path):
    # the spline table is built in numpy and scipy.special is imported only
    # where a function needs it, so a Morlet coherence or eigs run never
    # imports scipy; neither does importing the studies
    events = tmp_path / "events.csv"
    eventspec.save_csv(eventspec.simulate_poisson([2.0, 2.0], 100.0, seed=3), events)
    code = ("import contextlib, io, sys, eventspec.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert eventspec.cli.main(['coherence', {str(events)!r}, '--n-a', '4', "
            f"'--n-b', '8', '--out', {str(tmp_path)!r}]) == 0\n"
            f"    assert eventspec.cli.main(['eigs', '--out', {str(tmp_path)!r}]) == 0\n"
            "from eventspec import studies\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(eventspec.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_flavor_follows_the_wavelet():
    assert eventspec.Flavor.of(eventspec.Wavelet.morlet()) is eventspec.Flavor.COMPLEX
    assert eventspec.Flavor.of(eventspec.Wavelet.mexican_hat()) is eventspec.Flavor.REAL


@pytest.mark.parametrize("make", [
    lambda: eventspec.StationarityConfig(flavor=eventspec.Flavor.REAL),
    lambda: eventspec.StationarityConfig(energy_cutoff=0.999),
    lambda: eventspec.FieldConfig(eventspec.Wavelet.morlet(),
                                  eventspec.SmoothingWindow.rectangular(10.0),
                                  min_expected_events=5.0),
], ids=["flavor", "energy_cutoff", "min_expected_events"])
def test_removed_config_field_is_type_error(make):
    # the wavelet fixes the flavor; the others were never set by any caller
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("function, parameter", [
    (eventspec.cwt, "check_region"),
    (oracles.periodogram, "check_region"),
    (eventspec.central_frequency, "n_fft"),
    (oracles.dof_closed_form, "n_quad"),
    (eventspec.CoherenceDistribution.cdf_grid, "n_grid"),
    # a study only computes; run_study writes its draws and summary
    *((study, "out_dir") for study in studies.STUDIES.values()),
])
def test_removed_parameter(function, parameter):
    assert parameter not in inspect.signature(function).parameters


@pytest.mark.parametrize("module, name", [
    ("kernels", "kernel_value"), ("kernels", "_pairwise_quad"),
    ("kernels", "KERNEL_QUAD_POINTS"), ("inference", "hyp2f1"),
    ("inference", "coherence_density"), ("spectra", "eigen_cwt"),
])
def test_removed_name(module, name):
    # the reference quadrature is a test oracle; scipy.special.hyp2f1,
    # CoherenceDistribution.pdf and smoothed_periodogram_eigen took over the rest
    assert not hasattr(getattr(eventspec, module), name)
    assert not hasattr(eventspec, name)
