import numpy as np
import pytest
from scipy.special import erf

import oracles
from eventspec import (EventStream, SmoothedKernel, SmoothingWindow, ValidRegion,
                       ValidationError, Wavelet, nystrom_decompose)
from eventspec import kernels
from eventspec.quadrature import simpson_rule
from oracles import (cell_factors_whole_blocks, eigen_wavelet_value, full_kernel_matrix,
                     kernel_of, kernel_value, kernel_value_morlet_rect, scaled_kernel_value,
                     smoothed_periodogram_direct, value_matrix)


@pytest.fixture(scope="module")
def morlet16():
    # wide truncation: tail mass ~1e-14, so the quadrature path matches the
    # untruncated closed form to quadrature accuracy
    return Wavelet.morlet(16.0)


class TestClosedForm:
    def test_origin_value(self):
        # (2 kappa)^(-1) [erf + erf] at s = t = 0; both erf arguments are
        # large enough that the value is 0.1 to better than 1e-12
        val = kernel_value_morlet_rect(10.0, 0.0, 0.0)
        assert abs(val - 0.1) < 1e-12
        assert abs(val.imag) == 0.0

    def test_diagonal_real_positive(self):
        for s in [-3.0, 0.4, 7.2]:
            val = kernel_value_morlet_rect(10.0, s, s)
            assert val.imag == 0.0
            assert val.real > 0.0

    def test_off_diagonal_modulus(self):
        # (s, t) = (1, 0): modulus (2 kappa)^(-1) e^(-1/4) [erf(4.5) + erf(5.5)]
        kappa = 10.0
        val = kernel_value_morlet_rect(kappa, 1.0, 0.0)
        expected = np.exp(-0.25) / (2 * kappa) * (erf(4.5) + erf(5.5))
        assert abs(abs(val) - expected) < 1e-14
        # phase is e^{+i 2 pi (s - t)} = e^{i 2 pi}
        assert val == pytest.approx(expected * np.exp(-2j * np.pi * (0.0 - 1.0)), abs=1e-14)

    def test_matches_quadrature(self, morlet16, rng):
        win = SmoothingWindow.rectangular(10.0)
        for _ in range(25):
            s, t = rng.uniform(-12.0, 12.0, 2)
            quad = kernel_value(morlet16, win, s, t, n_quad=192)
            closed = kernel_value_morlet_rect(10.0, s, t)
            assert abs(quad - closed) < 1e-10

    def test_kappa_must_be_positive(self):
        with pytest.raises(ValidationError):
            kernel_value_morlet_rect(-1.0, 0.0, 0.0)


class TestQuadratureKernel:
    def test_zero_outside_support_square(self, morlet, rect10):
        half = (morlet.alpha + 10.0) / 2.0
        assert kernel_value(morlet, rect10, half + 0.1, 0.0) == 0.0
        assert kernel_value(morlet, rect10, 0.0, -half - 0.1) == 0.0

    def test_hermitian_symmetry(self, morlet, rect10, rng):
        for _ in range(10):
            s, t = rng.uniform(-8, 8, 2)
            assert kernel_value(morlet, rect10, s, t) == pytest.approx(
                np.conj(kernel_value(morlet, rect10, t, s)), abs=1e-12)

    @pytest.mark.parametrize("kind,kappa", [("morlet", 5.0), ("morlet", 20.0),
                                            ("mexhat", 5.0), ("mexhat", 20.0)])
    def test_trace_rule(self, kind, kappa):
        wav = Wavelet.morlet() if kind == "morlet" else Wavelet.mexican_hat()
        kern = SmoothedKernel(wav, SmoothingWindow.rectangular(kappa))
        assert kern.trace_estimate() == pytest.approx(1.0, abs=1e-4)

    def test_trace_rule_tabulated_window(self, morlet):
        pts = np.linspace(-0.5, 0.5, 201)
        vals = np.cos(np.pi * pts) ** 2
        win = SmoothingWindow.tabulated(pts, vals, kappa=10.0)
        kern = SmoothedKernel(morlet, win)
        assert kern.trace_estimate() == pytest.approx(1.0, abs=1e-4)

    def test_value_matrix_consistent_with_kernel_value(self, mexhat, rect10):
        kern = SmoothedKernel(mexhat, rect10)
        s = np.array([0.3, -2.0])
        t = np.array([-0.8, 4.0])
        block = value_matrix(kern, s, t)
        for i in range(2):
            for j in range(2):
                assert block[i, j] == pytest.approx(
                    complex(kernel_value(mexhat, rect10, s[i], t[j])), abs=1e-8)

    def test_sampled_kernel_nonnegative_definite(self, morlet_sys10, mexhat_sys10):
        for system in (morlet_sys10, mexhat_sys10):
            kern = kernel_of(system)
            eigs = np.linalg.eigvalsh(kern.weight * kern.envelope_values)
            assert eigs.min() >= -1e-8 * eigs.max()


def cos2_window(kappa):
    pts = np.linspace(-0.5, 0.5, 201)
    return SmoothingWindow.tabulated(pts, np.cos(np.pi * pts) ** 2, kappa=kappa)


def tabulated_morlet():
    xs = np.linspace(-4.0, 4.0, 4096)
    return Wavelet.tabulated(xs, Wavelet.morlet()(xs))


def tabulated_gauss():
    t = np.linspace(-3.0, 3.0, 97)
    return Wavelet.tabulated(t, np.exp(-t**2) * np.exp(3j * t))


GRID_CASES = {
    # name: (wavelet, window, n_points, oracle nodes, bound relative to max|K|)
    "morlet-5": (Wavelet.morlet, lambda: SmoothingWindow.rectangular(5.0), 512, 128, 1e-12),
    "morlet-10": (Wavelet.morlet, lambda: SmoothingWindow.rectangular(10.0), 512, 128, 1e-12),
    "morlet-20": (Wavelet.morlet, lambda: SmoothingWindow.rectangular(20.0), 512, 128, 1e-12),
    "mexhat-10": (Wavelet.mexican_hat, lambda: SmoothingWindow.rectangular(10.0), 512, 128,
                  1e-12),
    # the window is a cubic spline on 200 pieces: the default 128-node oracle
    # rule is itself off by ~8e-11 there, 1024 nodes bring it to ~1e-13
    "morlet-cos2-window": (Wavelet.morlet, lambda: cos2_window(10.0), 512, 1024, 1e-12),
    # spline wavelets: the global oracle rule is inexact on a piecewise-cubic
    # integrand (measured 1e-7 and 5e-8)
    "tabulated-morlet": (tabulated_morlet, lambda: SmoothingWindow.rectangular(10.0), 512, 128,
                         1e-6),
    "tabulated-complex": (tabulated_gauss, lambda: SmoothingWindow.rectangular(4.0), 128, 128,
                          1e-6),
}


@pytest.fixture(scope="module", params=sorted(GRID_CASES))
def grid_case(request):
    make_wavelet, make_window, n, n_quad, bound = GRID_CASES[request.param]
    wavelet, window = make_wavelet(), make_window()
    return SmoothedKernel(wavelet, window, n_points=n), n_quad, bound


def grid_pairs(kern):
    """Seeded pairs, the diagonal, both grid ends, and the pairs on either side
    of the overlap edge |s_i - s_j| = alpha of the two envelope supports."""
    n, h = kern.n_points, kern.weight
    rng = np.random.default_rng(55)
    rows = [rng.integers(0, n, size=(200, 2)), np.repeat(np.arange(0, n, 5), 2).reshape(-1, 2)]
    k = int(kern.wavelet.alpha / h)  # (k + 1) h > alpha > k h: last overlapping offset
    for i in (0, 1, n // 3, n // 2, n - k - 2):
        for off in (k - 1, k, k + 1, k + 2):
            rows.append(np.array([[i, i + off], [i + off, i]]))
    rows.append(np.array([[0, 0], [n - 1, n - 1], [0, n - 1], [n - 1, 0]]))
    idx = np.concatenate(rows)
    idx = idx[(idx >= 0).all(axis=1) & (idx < n).all(axis=1)]
    return idx[:, 0], idx[:, 1]


class TestGridMatrix:
    """The grid matrix from the shared cell rule against the per-pair oracle."""

    def test_matches_kernel_value(self, grid_case):
        kern, n_quad, bound = grid_case
        i, j = grid_pairs(kern)
        ref = kernel_value(kern.wavelet, kern.window, kern.grid[i], kern.grid[j], n_quad=n_quad)
        values = full_kernel_matrix(kern)
        assert np.abs(values[i, j] - ref).max() <= bound * np.abs(values).max()

    def test_disjoint_supports_exactly_zero(self, grid_case):
        kern, _, _ = grid_case
        i, j = grid_pairs(kern)
        apart = np.abs(kern.grid[i] - kern.grid[j]) >= kern.wavelet.alpha
        assert apart.sum() >= 10
        assert np.all(kern.envelope_values[i[apart], j[apart]] == 0.0)
        near = (~apart) & (np.abs(kern.grid[i] - kern.grid[j]) > kern.wavelet.alpha - 2 * kern.weight)
        assert near.sum() >= 10  # pairs with a sliver of overlap are in the sample

    def test_hermitian_to_rounding(self, grid_case):
        kern, _, _ = grid_case
        mat = kern.envelope_values
        assert np.abs(mat - np.conj(mat.T)).max() <= 1e-14 * np.abs(mat).max()

    def test_grid_build_never_calls_pairwise_rule(self, monkeypatch, morlet):
        def refuse(*args, **kwargs):
            raise AssertionError("_pairwise_quad reached outside kernel_value")

        monkeypatch.setattr(oracles, "_pairwise_quad", refuse)
        for wavelet, window in [(morlet, SmoothingWindow.rectangular(10.0)),
                                (Wavelet.mexican_hat(), cos2_window(6.0)),
                                (tabulated_gauss(), SmoothingWindow.rectangular(4.0))]:
            kern = SmoothedKernel(wavelet, window, n_points=128)
        # every sampled kernel value comes from the cell rule; only the oracle differs
        value_matrix(kern, np.array([0.1]), np.array([0.2]))
        scaled_kernel_value(kern, 2.0, 1.0, 0.4, -0.3)
        eigen_wavelet_value(nystrom_decompose(kern), 0, np.array([0.1, 2.5]))
        stream = EventStream([[49.0, 50.5], [5.0, 95.0]], T=100.0)  # stream 2 outside the support
        om = smoothed_periodogram_direct(stream, kern, 2.0, 50.0)
        assert om[0, 0].real > 0 and np.all(om[1] == 0) and np.all(om[:, 1] == 0)
        with pytest.raises(AssertionError):
            kernel_value(kern.wavelet, kern.window, 0.1, 0.2)

    def test_grid_size_capped_before_allocation(self, morlet, rect10, monkeypatch):
        monkeypatch.setattr(kernels, "midpoint_grid", None)  # any use would raise TypeError
        for n in (kernels.MAX_GRID_POINTS + 1, 10**12, 63, 15):
            with pytest.raises(ValidationError):
                SmoothedKernel(morlet, rect10, n_points=n)

    def test_rows_filled_in_chunks_match_whole_blocks(self, morlet):
        # the same cell blocks, each F built in one expression: the same bits
        t = np.linspace(-3.0, 3.0, 97)
        for wavelet in (morlet, Wavelet.tabulated(t, np.exp(-t**2) * np.exp(3j * t))):
            kern = SmoothedKernel(wavelet, SmoothingWindow.rectangular(6.0), n_points=128)
            ref = sum(f[0].T @ np.conj(f[0]) for f in cell_factors_whole_blocks(kern, [kern.grid]))
            assert ref.tobytes() == kern.envelope_values.tobytes()
            s, u = np.array([0.1, 0.37, 2.0]), np.array([-1.3, 0.2])
            ref = sum(f[0].T @ np.conj(f[1]) for f in cell_factors_whole_blocks(kern, [s, u]))
            assert ref.tobytes() == kern._cell_sum(s, u).tobytes()

    def test_blocks_are_read_only_views_of_one_buffer(self, morlet, rect10):
        # a consumer uses each block before asking for the next; one that keeps blocks
        # keeps views of a buffer the next blocks refill, and cannot write into them
        kern = SmoothedKernel(morlet, rect10, n_points=64)
        kept = [f[0] for f in kernels._cell_factors(kern, [np.linspace(-5.0, 5.0, 1000)])]
        assert len(kept) > 1 and all(np.shares_memory(kept[0], f) for f in kept)
        with pytest.raises(ValueError):
            kept[0][0, 0] = 0.0

    def test_build_traced_peak(self, morlet, rect10, traced_peak):
        # one reused 4 MB block buffer filled a few rows at a time; eight block-sized
        # temporaries at once had held 28.2 MiB for this 2 MiB matrix
        _, peak = traced_peak(SmoothedKernel, morlet, rect10, 512)
        assert peak <= 16 * 2**20


class TestValueMatrix:
    def test_tabulated_wavelet_matches_fine_oracle(self):
        # a spline wavelet with knots coarser than the grid step: the cell rule
        # caps every cell at that step, so each sees at most two cubic pieces
        xs = np.linspace(-4.0, 4.0, 161)
        wav = Wavelet.tabulated(xs, Wavelet.morlet()(xs))
        win = SmoothingWindow.rectangular(10.0)
        kern = SmoothedKernel(wav, win)
        s, t = np.random.default_rng(7).uniform(-kern.width / 2, kern.width / 2, (2, 40))
        ss, tt = np.meshgrid(s, t, indexing="ij")
        ref = kernel_value(wav, win, ss, tt, n_quad=4000)
        assert np.abs(value_matrix(kern, s, t) - ref).max() <= 1e-7 * np.abs(ref).max()


class TestScaledKernel:
    def test_identity_at_unit_scale(self, morlet, rect10):
        kern = SmoothedKernel(morlet, rect10)
        got = scaled_kernel_value(kern, 1.0, 0.0, 0.4, -0.9)[0, 0]
        ref = kernel_value(morlet, rect10, 0.4, -0.9)
        assert got == pytest.approx(complex(ref), abs=1e-8)

    def test_scaling_at_origin(self, morlet, rect10):
        kern = SmoothedKernel(morlet, rect10)
        k0 = kernel_value(morlet, rect10, 0.0, 0.0)
        got = scaled_kernel_value(kern, 2.0, 0.0, 0.0, 0.0)[0, 0]
        assert got == pytest.approx(complex(k0) / 2.0, abs=1e-9)

    def test_trace_preserved_under_scaling(self, morlet, rect10):
        kern = SmoothedKernel(morlet, rect10)
        a, b = 3.0, 5.0
        half = a * kern.width / 2.0
        x, w = simpson_rule(b - half, b + half, 2049)
        diag = np.array([scaled_kernel_value(kern, a, b, xi, xi)[0, 0].real
                         for xi in x])
        assert w @ diag == pytest.approx(1.0, abs=1e-4)


class TestValidRegion:
    def test_apex_is_member(self):
        T, alpha, kappa = 100.0, 8.0, 10.0
        region = ValidRegion(alpha, kappa, T)
        assert region.a_max == pytest.approx(T / (alpha + kappa))
        assert region.contains(region.a_max, T / 2.0)

    def test_beyond_apex_excluded(self):
        region = ValidRegion(8.0, 10.0, 100.0)
        assert not region.contains(region.a_max + 1e-6, 50.0)

    def test_membership_matches_inequalities(self, rng):
        region = ValidRegion(8.0, 10.0, 100.0)
        for _ in range(50):
            a = rng.uniform(0.1, 6.0)
            b = rng.uniform(0.0, 100.0)
            expected = (b - a * 9.0 >= 0.0) and (b + a * 9.0 <= 100.0)
            assert bool(region.contains(a, b)) == expected

    def test_tuple_membership(self):
        region = ValidRegion(8.0, 10.0, 100.0)
        assert (region.a_max / 2, 50.0) in region
        assert (region.a_max, 10.0) not in region

    @pytest.mark.parametrize("T", [0.0, -1.0, np.nan, np.inf])
    def test_horizon_not_positive_and_finite_refused(self, T):
        with pytest.raises(ValidationError, match="T must be positive and finite"):
            ValidRegion(8.0, 10.0, T)


class TestSmoothingWindow:
    def test_rectangular_density(self):
        win = SmoothingWindow.rectangular(4.0)
        assert win.density(0.0) == pytest.approx(0.25)
        assert win.density(2.1) == 0.0
        assert win.density(np.array([-1.9, 1.9]))[0] == pytest.approx(0.25)

    def test_tabulated_normalized(self):
        pts = np.linspace(-0.5, 0.5, 101)
        win = SmoothingWindow.tabulated(pts, 1.0 - np.abs(2 * pts), kappa=6.0)
        x, w = simpson_rule(-3.0, 3.0, 4097)
        assert w @ win.density(x) == pytest.approx(1.0, abs=1e-6)

    def test_negative_samples_rejected(self):
        pts = np.linspace(-0.5, 0.5, 11)
        vals = np.ones(11)
        vals[3] = -0.5
        with pytest.raises(ValidationError):
            SmoothingWindow.tabulated(pts, vals, kappa=2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_rejected(self, bad):
        pts = np.linspace(-0.5, 0.5, 11)
        vals = np.ones(11)
        vals[3] = bad
        with pytest.raises(ValidationError, match="finite"):
            SmoothingWindow.tabulated(pts, vals, kappa=2.0)

    @pytest.mark.parametrize("row", ["nan,1.0", "0.0,inf"])
    def test_non_finite_csv_row_rejected(self, tmp_path, row):
        path = tmp_path / "win.csv"
        path.write_text(f"-0.5,1.0\n-0.25,1.0\n{row}\n0.25,1.0\n0.5,1.0\n")
        with pytest.raises(ValidationError, match="finite"):
            SmoothingWindow.from_csv(path, kappa=3.0)

    def test_window_csv(self, tmp_path):
        path = tmp_path / "win.csv"
        pts = np.linspace(-0.5, 0.5, 51)
        with open(path, "w") as fh:
            for p, v in zip(pts, np.cos(np.pi * pts) ** 2):
                fh.write(f"{p},{v}\n")
        win = SmoothingWindow.from_csv(path, kappa=3.0)
        assert win.kappa == 3.0
        x, w = simpson_rule(-1.5, 1.5, 4097)
        assert w @ win.density(x) == pytest.approx(1.0, abs=1e-6)
