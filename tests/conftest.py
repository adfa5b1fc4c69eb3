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
    """Eigen-wavelet values from scipy's periodic CubicSpline through a system's refined samples.

    The reference for the table evaluator: the same cubic pieces, evaluated
    point by point by PPoly, zero on and outside the support edge.
    """
    from scipy.interpolate import CubicSpline

    from oracles import refined_samples

    splines = {}

    def values(system, x):
        x = np.asarray(x, dtype=float)
        if system not in splines:
            splines[system] = CubicSpline(*refined_samples(system), bc_type="periodic")
        half = system.kernel.width / 2.0
        vals = splines[system](np.clip(x, -half, half)).astype(complex)
        vals[np.abs(x) >= half] = 0.0
        return vals * np.exp(2j * np.pi * system.modulation * x)[:, None]

    return values


@pytest.fixture(scope="session")
def spline_oracle_cwt(spline_oracle):
    """eigen_cwt evaluated per point through spline_oracle, summed per stream."""

    def transforms(stream, system, a, b, check_region=True):
        half = a * system.kernel.width / 2.0
        out = np.zeros((stream.p, system.n_retained), dtype=complex)
        for i in range(stream.p):
            local = stream.window(i, b - half, b + half)
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

    def transforms(stream, system, a, b_grid):
        transforms.calls.extend((a, float(b)) for b in b_grid)
        return np.array([spline_oracle_cwt(stream, system, a, b) for b in b_grid])

    transforms.calls = []
    return transforms
