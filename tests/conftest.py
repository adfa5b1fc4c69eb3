import numpy as np
import pytest

from eventspec import Wavelet, SmoothingWindow, eigensystem_cached


@pytest.fixture(scope="session")
def morlet():
    return Wavelet.morlet()


@pytest.fixture(scope="session")
def mexhat():
    return Wavelet.mexican_hat()


@pytest.fixture(scope="session")
def rect10():
    return SmoothingWindow.rectangular(10.0)


@pytest.fixture(scope="session")
def morlet_sys10():
    return eigensystem_cached("morlet", 10.0)


@pytest.fixture(scope="session")
def mexhat_sys10():
    return eigensystem_cached("mexhat", 10.0)


@pytest.fixture(scope="session")
def morlet_sys20():
    return eigensystem_cached("morlet", 20.0)


@pytest.fixture(scope="session")
def mexhat_sys20():
    return eigensystem_cached("mexhat", 20.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def spline_oracle():
    """Eigen-wavelet values from scipy's quintic interpolating spline through a system's
    refined, continued and phased samples.

    The reference for the table evaluator: the same quintic pieces, evaluated
    point by point by BSpline, zero on and outside the support edge.
    """
    from scipy.interpolate import make_interp_spline

    from oracles import refined_samples

    splines = {}

    def values(system, x):
        x = np.asarray(x, dtype=float)
        if system not in splines:
            splines[system] = make_interp_spline(*refined_samples(system), k=5)
        half = system.width / 2.0
        vals = splines[system](np.clip(x, -half, half)).astype(complex)
        vals[np.abs(x) >= half] = 0.0
        return vals

    return values


@pytest.fixture(scope="session")
def spline_oracle_cwt(spline_oracle):
    """eigen_cwt of sorted event arrays, evaluated per point through spline_oracle."""

    def transforms(events, system, a, b):
        half = a * system.width / 2.0
        out = np.zeros((len(events), system.n_retained), dtype=complex)
        for i, seq in enumerate(events):
            local = seq[np.searchsorted(seq, b - half):np.searchsorted(seq, b + half, "right")]
            if local.size:
                out[i] = spline_oracle(system, (local - b) / a).sum(axis=0) / np.sqrt(a)
        return out

    return transforms


@pytest.fixture()
def spline_oracle_transforms(spline_oracle_cwt):
    """spectra.eigen_transforms as spline_oracle_cwt stacked over the b-grid.

    Records every (a, b) it evaluates in its ``calls`` list, so a test can
    check that a patched route really ran through it.
    """

    def transforms(events, system, a, b_grid):
        transforms.calls.extend((a, float(b)) for b in b_grid)
        return np.array([spline_oracle_cwt(events, system, a, b) for b in b_grid])

    transforms.calls = []
    return transforms


@pytest.fixture()
def traced_peak():
    """peak(f, *args) -> (f(*args), the most bytes tracemalloc saw allocated during the call)."""
    import tracemalloc

    def peak(f, *args):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            value = f(*args)
            return value, tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()

    return peak
