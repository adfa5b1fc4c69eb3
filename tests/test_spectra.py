import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eventspec import (ConfigError, EventStream, FieldConfig, NumericalError,
                       RegionError, SmoothedKernel, SmoothingWindow,
                       UndefinedCoherenceError, Wavelet,
                       coherence, cwt, denormalize_coords, eigensystem,
                       eigensystem_cached, field, nystrom_decompose, simulate_poisson,
                       smoothed_periodogram_eigen)
from eventspec import spectra
from eventspec.studies import piecewise_segments
from oracles import (eigen_transforms_per_point, field_csv_one_string, kernel_of,
                     normalize_coords, periodogram, rank_one_kernel, smoothed_periodogram_direct,
                     value_matrix)


def empty_stream(p=2, T=100.0):
    return EventStream([np.array([])] * p, T)


class TestCwt:
    def test_empty_stream(self, morlet):
        w = cwt(empty_stream(), morlet, 2.0, 50.0)
        assert np.all(w == 0)

    def test_single_event_at_centre(self, morlet):
        for a in [1.0, 3.0]:
            s = EventStream([[50.0]], T=100.0)
            w = cwt(s, morlet, a, 50.0)
            assert w[0] == pytest.approx(a ** -0.5 * np.pi ** -0.25, abs=1e-4)

    def test_two_symmetric_events_mexhat(self, mexhat):
        a, b, delta = 2.0, 50.0, 1.4
        s = EventStream([[b - delta, b + delta]], T=100.0)
        w = cwt(s, mexhat, a, b)
        # real even wavelet: two equal terms
        expected = 2.0 * mexhat(delta / a) / math.sqrt(a)
        assert w[0] == pytest.approx(expected, abs=1e-12)
        assert w[0].imag == 0.0 if np.iscomplexobj(w) else True

    def test_region_enforced(self, morlet):
        s = empty_stream(1)
        with pytest.raises(RegionError):
            cwt(s, morlet, 5.0, 2.0)  # support spills below 0


class TestPeriodogram:
    def test_empty_zero_matrix(self, morlet):
        W = periodogram(empty_stream(), morlet, 2.0, 50.0)
        assert np.all(W == 0)

    def test_outer_product_identities(self, morlet):
        s = simulate_poisson([2.0, 3.0], 100.0, seed=5)
        W = periodogram(s, morlet, 2.0, 50.0)
        w = cwt(s, morlet, 2.0, 50.0)
        assert np.abs(W - W.conj().T).max() < 1e-12
        eigs = np.sort(np.linalg.eigvalsh(W))
        assert eigs[-1] == pytest.approx(float(np.sum(np.abs(w) ** 2)), rel=1e-10)
        assert abs(eigs[0]) < 1e-10 * eigs[-1]  # rank one
        assert np.trace(W).real == pytest.approx(float(np.sum(np.abs(w) ** 2)))

    def test_unsmoothed_coherence_is_one(self, morlet):
        s = simulate_poisson([2.0, 3.0], 100.0, seed=6)
        W = periodogram(s, morlet, 2.0, 50.0)
        assert coherence(W, 0, 1) == pytest.approx(1.0, abs=1e-12)


class TestSmoothedPeriodogram:
    def test_empty_stream_zero(self, morlet_sys10):
        om = smoothed_periodogram_eigen(empty_stream(), morlet_sys10, 2.0, 50.0)
        assert np.all(om == 0)

    def test_single_pair_term(self, morlet_sys10):
        kern = kernel_of(morlet_sys10)
        s = EventStream([[49.0], [51.0]], T=100.0)
        a, b = 2.0, 50.0
        om = smoothed_periodogram_direct(s, kern, a, b)
        expected = value_matrix(kern, np.array([(49.0 - b) / a]),
                                np.array([(51.0 - b) / a]))[0, 0] / a
        assert om[0, 1] == pytest.approx(expected, abs=1e-12)
        assert om[1, 0] == pytest.approx(np.conj(expected), abs=1e-12)

    @pytest.mark.parametrize("kind", ["morlet", "mexhat"])
    def test_direct_matches_eigen(self, kind):
        system = eigensystem_cached(kind, 10.0, energy_cutoff=1.0 - 1e-8)
        s = simulate_poisson([4.0, 4.0], 120.0, seed=9)
        a, b = denormalize_coords(0.5, 0.5, 120.0, 8.0, 10.0)
        om_d = smoothed_periodogram_direct(s, kernel_of(system), a, b)
        om_e = smoothed_periodogram_eigen(s, system, a, b)
        rel = np.linalg.norm(om_d - om_e) / np.linalg.norm(om_d)
        assert rel < 1e-6

    @pytest.mark.parametrize("kappa", [5.0, 10.0])
    def test_direct_matches_eigen_tabulated_wavelet(self, kappa):
        # criterion 4's bound for a spline wavelet with knots coarser than the grid step
        xs = np.linspace(-4.0, 4.0, 161)
        wav = Wavelet.tabulated(xs, Wavelet.morlet()(xs))
        system = eigensystem(wav, SmoothingWindow.rectangular(kappa), energy_cutoff=1.0 - 1e-8)
        s = simulate_poisson([3.0, 3.0], 120.0, seed=31)
        for a_t, b_t in [(0.5, 0.5), (0.3, 0.3), (0.8, 0.55)]:
            a, b = denormalize_coords(a_t, b_t, 120.0, wav.alpha, kappa)
            om_d = smoothed_periodogram_direct(s, kernel_of(system), a, b)
            om_e = smoothed_periodogram_eigen(s, system, a, b)
            assert np.linalg.norm(om_d - om_e) <= 1e-6 * np.linalg.norm(om_d)

    @pytest.mark.parametrize("kind", ["morlet", "mexhat"])
    def test_matches_spline_oracle_route(self, kind, spline_oracle_cwt):
        system = eigensystem_cached(kind, 10.0)
        s = simulate_poisson([3.0, 1.0], 300.0, seed=17)
        for a, b in [(0.5, 20.0), (3.0, 150.0), (16.0, 150.0)]:
            got = smoothed_periodogram_eigen(s, system, a, b)
            v = spline_oracle_cwt(s.events, system, a, b)
            ref = (v * system.retained_eigenvalues) @ np.conj(v.T)
            ref = 0.5 * (ref + np.conj(ref.T))
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_region_error_outside_triangle(self, morlet_sys10):
        s = simulate_poisson([2.0], 100.0, seed=1)
        with pytest.raises(RegionError):
            smoothed_periodogram_eigen(s, morlet_sys10, 3.0, 5.0)

    @pytest.mark.parametrize("route", ["cwt", "eigen", "direct"])
    def test_support_edges_follow_valid_region(self, route, morlet_sys10):
        # a support touching 0 and T exactly is admitted, one 1e-10 T beyond is refused
        kern, T, a = kernel_of(morlet_sys10), 100.0, 2.0
        s = simulate_poisson([1.0, 1.0], T, seed=3)
        run = {"cwt": lambda b: cwt(s, kern.wavelet, a, b),
               "eigen": lambda b: smoothed_periodogram_eigen(s, morlet_sys10, a, b),
               "direct": lambda b: smoothed_periodogram_direct(s, kern, a, b)}[route]
        half = a * (kern.wavelet.alpha if route == "cwt" else kern.width) / 2.0
        for b in (half, T - half):
            run(b)
        for b in (half - 1e-10 * T, T - half + 1e-10 * T):
            with pytest.raises(RegionError):
                run(b)

    def test_psd_on_poisson_draws(self, morlet_sys10):
        worst = 0.0
        for r in range(100):
            s = simulate_poisson([3.0, 3.0], 80.0, seed=100 + r)
            om = smoothed_periodogram_eigen(s, morlet_sys10, 2.0, 40.0)
            eigs = np.linalg.eigvalsh(om)
            worst = min(worst, eigs.min() / max(np.trace(om).real, 1e-300))
        assert worst >= -1e-10

    def test_rank_one_system_reduces_to_periodogram(self, morlet):
        system = nystrom_decompose(rank_one_kernel(morlet))
        s = simulate_poisson([3.0], 100.0, seed=2)
        a, b = 3.0, 50.0
        om = smoothed_periodogram_eigen(s, system, a, b)
        W = periodogram(s, morlet, a, b)
        # v is the unconjugated transform, so the rank-one system gives the
        # transpose of w w^H; diagonals and magnitudes coincide
        assert om[0, 0] == pytest.approx(W[0, 0], rel=1e-6)


class TestCoherence:
    def test_diagonal_matrix_zero(self):
        om = np.diag([2.0, 3.0]).astype(complex)
        assert coherence(om, 0, 1) == 0.0

    def test_rank_one_unity(self):
        v = np.array([1.0 + 0.5j, -0.3 + 2.0j])
        om = np.outer(v, v.conj())
        assert coherence(om, 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_zero_diagonal_raises(self):
        om = np.zeros((2, 2), dtype=complex)
        with pytest.raises(UndefinedCoherenceError):
            coherence(om, 0, 1)


@st.composite
def psd_transforms(draw, n_points, L):
    """Transforms v, shape (n_points, p, L), real or complex, some streams all zero."""
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    v = scale * rng.standard_normal((n_points, p, L))
    if draw(st.booleans()):
        v = v + 1j * scale * rng.standard_normal((n_points, p, L))
    v[:, draw(st.lists(st.integers(0, p - 1), max_size=p))] = 0.0
    return v


class TestCoherenceBounds:
    """gamma^2 lies in [0, 1] on PSD Omega = eigen_expansion(v, eta) with eta >= 0."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), L=st.integers(1, 6))
    def test_coherence(self, data, L):
        v = data.draw(psd_transforms(3, L))
        eta = np.array(data.draw(st.lists(st.floats(0.0, 10.0) | st.just(0.0),
                                          min_size=L, max_size=L)))
        for om in spectra.eigen_expansion(v, eta):
            p = om.shape[0]
            for i in range(p):
                for j in range(p):
                    dii, djj = om[i, i].real, om[j, j].real
                    if dii > 0 and djj > 0:
                        try:
                            assert 0.0 <= coherence(om, i, j) <= 1.0
                        except NumericalError:  # only where a square leaves the float range
                            assert not 1e-150 < min(dii, djj) <= max(dii, djj) < 1e150
                    else:
                        with pytest.raises(UndefinedCoherenceError):
                            coherence(om, i, j)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_field_gamma2(self, data, morlet_sys10):
        # field() with its transforms replaced by random ones; eta is the system's
        n_b = 6
        v = data.draw(psd_transforms(n_b, morlet_sys10.n_retained))
        p = v.shape[1]
        config = FieldConfig(wavelet=Wavelet.morlet(), window=SmoothingWindow.rectangular(10.0),
                             a_grid=np.array([0.5, 1.0, 2.0]),
                             b_grid=np.linspace(20.0, 80.0, n_b))

        def random_transforms(events, system, a, b_grid):
            return v[: len(b_grid)]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "eigen_transforms", random_transforms)
            result = field(EventStream([np.array([50.0])] * p, 100.0), config)
        gamma2 = result.gamma2[result.valid]
        diag = np.diagonal(result.omega[result.valid], axis1=1, axis2=2).real
        defined = (diag[:, :, None] > 0) & (diag[:, None, :] > 0)
        assert np.all((gamma2[defined] >= 0.0) & (gamma2[defined] <= 1.0))
        assert np.all(np.isnan(gamma2[~defined]))


class TestCoordinates:
    def test_apex_maps_to_unit(self):
        T, alpha, kappa = 100.0, 8.0, 20.0
        a = T / (alpha + kappa)
        at, bt = normalize_coords(a, T / 2, T, alpha, kappa)
        assert (at, bt) == pytest.approx((1.0, 0.5))

    def test_round_trip(self):
        T, alpha, kappa = 321.0, 8.0, 11.5
        a, b = denormalize_coords(0.37, 0.81, T, alpha, kappa)
        at, bt = normalize_coords(a, b, T, alpha, kappa)
        assert at == pytest.approx(0.37, abs=1e-12)
        assert bt == pytest.approx(0.81, abs=1e-12)

    def test_scale_mapping_example(self):
        a, _ = denormalize_coords(0.8, 0.5, 100.0, 8.0, 20.0)
        assert a == pytest.approx(80.0 / 28.0, abs=1e-12)


class TestField:
    def make_config(self, **kw):
        defaults = dict(wavelet=Wavelet.morlet(),
                        window=SmoothingWindow.rectangular(10.0),
                        energy_cutoff=0.999)
        defaults.update(kw)
        return FieldConfig(**defaults)

    def test_all_outside_raises(self):
        s = simulate_poisson([2.0, 2.0], 50.0, seed=3)
        cfg = self.make_config(a_grid=np.array([10.0, 20.0]),
                               b_grid=np.array([25.0]))
        with pytest.raises(ConfigError):
            field(s, cfg)

    @pytest.mark.parametrize("grids", [dict(a_grid=np.array([[3.0, 4.0]])),
                                       dict(a_grid=np.array(3.0)),
                                       dict(a_grid=np.array([3.0]), b_grid=[[25.0], [30.0]])])
    def test_grid_that_is_not_1d_rejected(self, grids):
        s = simulate_poisson([2.0, 2.0], 50.0, seed=3)
        with pytest.raises(ConfigError, match="must be 1-D"):
            field(s, self.make_config(**grids))

    @pytest.mark.parametrize("sizes", [dict(n_a=0), dict(n_b=-3), dict(a_grid=np.array([])),
                                       dict(n_a=10**6, n_b=10**6), dict(n_a=4097, n_b=4096)])
    def test_bad_grid_size_rejected_before_allocation(self, sizes, monkeypatch):
        s = simulate_poisson([2.0, 2.0], 50.0, seed=3)

        def refuse(*args, **kwargs):
            raise AssertionError("grid or omega allocated")

        monkeypatch.setattr(np, "full", refuse)
        monkeypatch.setattr(np, "geomspace", refuse)
        with pytest.raises(ConfigError):
            field(s, self.make_config(**sizes))

    def test_singleton_grid_matches_pointwise(self):
        s = simulate_poisson([2.0, 2.0], 100.0, seed=4)
        a, b = 2.0, 50.0
        cfg = self.make_config(a_grid=np.array([a]), b_grid=np.array([b]))
        result = field(s, cfg)
        assert result.valid[0, 0]
        system = eigensystem(cfg.wavelet, cfg.window, cfg.n_points, cfg.energy_cutoff)
        om = smoothed_periodogram_eigen(s, system, a, b)
        assert np.abs(result.omega[0, 0] - om).max() < 1e-12
        assert result.gamma2[0, 0, 0, 1] == pytest.approx(coherence(om, 0, 1))

    def test_result_independent_of_earlier_config(self):
        # a config run after another one (here: the same grid at kappa = 10)
        # must give what it gives on its own, from its own kernel
        s = simulate_poisson([2.0, 2.0], 100.0, seed=4)
        first = self.make_config(a_grid=np.array([1.0, 2.0]),
                                 b_grid=np.array([40.0, 50.0]), n_points=128)
        second = dataclasses.replace(first, window=SmoothingWindow.rectangular(20.0))
        alone = field(s, second)
        field(s, first)
        after = field(s, second)
        assert np.array_equal(after.omega, alone.omega)
        assert after.meta == alone.meta and after.meta["kappa"] == 20.0
        own = nystrom_decompose(SmoothedKernel(second.wavelet, second.window, n_points=128),
                                energy_cutoff=second.energy_cutoff)
        assert after.meta["dof"] == own.degrees_of_freedom()

    def test_gamma2_is_coherence_at_every_valid_point(self):
        # stream 3 is silent in the second half, so some diagonals are zero there
        rng = np.random.default_rng(21)
        events = [np.sort(rng.uniform(0.0, 200.0, 400)), np.sort(rng.uniform(0.0, 200.0, 300)),
                  np.sort(rng.uniform(0.0, 80.0, 150))]
        result = field(EventStream(events, 200.0), self.make_config(n_a=8, n_b=16))
        undefined = 0
        for ia, ib in zip(*np.nonzero(result.valid)):
            om = result.omega[ia, ib]
            for i in range(3):
                for j in range(3):
                    g = result.gamma2[ia, ib, i, j]
                    if om[i, i].real > 0 and om[j, j].real > 0:
                        assert g == coherence(om, i, j)
                    else:
                        undefined += 1
                        assert np.isnan(g)
                        with pytest.raises(UndefinedCoherenceError):
                            coherence(om, i, j)
        assert undefined > 0
        assert np.all(np.isnan(result.gamma2[~result.valid]))

    def test_non_finite_meta_is_numerical_error(self):
        result = field(simulate_poisson([2.0, 2.0], 50.0, seed=3),
                       self.make_config(n_a=2, n_b=3, n_points=128))
        assert json.loads(result.meta_json())["p"] == 2
        result.meta["dof"] = math.inf
        with pytest.raises(NumericalError, match="not finite"):
            result.meta_json()

    def test_config_is_frozen(self):
        cfg = self.make_config()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.window = SmoothingWindow.rectangular(20.0)

    def test_invalid_points_masked(self):
        s = simulate_poisson([2.0, 2.0], 100.0, seed=4)
        cfg = self.make_config(a_grid=np.array([2.0, 5.6]),  # a_max = 100/18
                               b_grid=np.array([50.0]))
        result = field(s, cfg)
        assert result.valid[0, 0] and not result.valid[1, 0]
        assert np.isnan(result.gamma2[1, 0, 0, 1])

    def test_auto_grid_and_meta(self):
        s = simulate_poisson([2.0, 2.0], 200.0, seed=8)
        cfg = self.make_config(n_a=6, n_b=10)
        result = field(s, cfg)
        assert result.valid.any()
        meta = json.loads(result.meta_json())
        assert meta["p"] == 2 and meta["T"] == 200.0
        assert meta["dof"] == pytest.approx(4.335, abs=0.01)

    def test_default_a_min_follows_sparse_data(self):
        # rate 2e-20 per stream: the grid starts where supports hold events, so every
        # valid point has a non-zero Omega (a 1e-12 rate floor once started it at 5.6e11)
        s = EventStream([[1e19, 5e19], [2e19, 7e19]], 1e20)
        result = field(s, self.make_config())
        a_max = result.a_grid[-1]
        assert result.a_grid[0] >= 0.99 * a_max
        omega = result.omega[result.valid]
        assert omega.shape[0] > 0 and np.all(omega != 0)
        # an empty stream leaves only the cap
        empty = field(EventStream([[10.0, 60.0], []], 100.0), self.make_config(n_a=4))
        assert empty.a_grid[0] == 0.99 * empty.a_grid[-1]

    def test_csv_round_trip(self, tmp_path):
        s = simulate_poisson([2.0, 2.0], 100.0, seed=4)
        cfg = self.make_config(a_grid=np.array([2.0]), b_grid=np.array([50.0]))
        result = field(s, cfg)
        path = tmp_path / "field.csv"
        result.to_csv(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # p^2 rows for the single grid point
        row01 = next(r for r in rows if r["i"] == "1" and r["j"] == "2")
        om = result.omega[0, 0, 0, 1]
        assert float(row01["re"]) == pytest.approx(om.real)
        assert float(row01["im"]) == pytest.approx(om.imag)
        assert int(row01["valid"]) == 1

    @staticmethod
    def row_by_row_csv(result, path):
        # the earlier writer, one f-string per row: the oracle for to_csv
        p = result.p
        with open(path, "w", newline="") as fh:
            fh.write("a,b,i,j,re,im,coherence,valid\n")
            for ia, a in enumerate(result.a_grid):
                for ib, b in enumerate(result.b_grid):
                    ok = int(result.valid[ia, ib])
                    for i in range(p):
                        for j in range(p):
                            om = result.omega[ia, ib, i, j]
                            g = float(result.gamma2[ia, ib, i, j])
                            fh.write(f"{float(a)!r},{float(b)!r},{i + 1},{j + 1},"
                                     f"{float(om.real)!r},{float(om.imag)!r},{g!r},{ok}\n")

    def test_csv_bytes_match_row_by_row_writer(self, tmp_path):
        # p = 3 with a silent third stream: NaN coherence at valid points,
        # NaN everywhere at the invalid ones outside the triangle
        events = simulate_poisson([2.0, 1.5], 150.0, seed=9).events
        s = EventStream(list(events) + [np.array([])], 150.0)
        result = field(s, self.make_config(n_a=5, n_b=9, n_points=128))
        assert not result.valid.all() and np.isnan(result.gamma2[result.valid]).any()
        result.to_csv(tmp_path / "fast.csv")
        self.row_by_row_csv(result, tmp_path / "oracle.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_csv_written_by_scale_row(self, tmp_path, traced_peak):
        # p = 8 on 32 x 128 (22 MB of text): the same bytes as the one-string writer,
        # which held 114.7 MiB at its peak; NaN marks the invalid points
        rng = np.random.default_rng(16)
        shape = (32, 128, 8, 8)
        valid = rng.random(shape[:2]) < 0.7
        omega = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        gamma2 = rng.random(shape)
        omega[~valid], gamma2[~valid] = np.nan, np.nan
        result = spectra.SpectralField(np.geomspace(0.1, 20.0, 32), np.linspace(1.0, 459.0, 128),
                                       omega, gamma2, valid, {})
        _, peak = traced_peak(result.to_csv, tmp_path / "field.csv")
        assert peak <= 8 * 2**20
        field_csv_one_string(result, tmp_path / "oracle.csv")
        assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_piecewise_coherence_concentrates_in_coupled_window(self):
        # single realization of the piecewise design: the share of
        # above-threshold coherence values at coarse scales should be
        # clearly higher over the mutually exciting middle third
        stream = __import__("eventspec").simulate_piecewise(
            piecewise_segments(), seed=77)
        cfg = self.make_config(n_a=8, n_b=48)
        result = field(stream, cfg)
        thresh = 0.593
        coarse = result.a_grid >= np.median(result.a_grid)
        inside_frac = []
        outside_frac = []
        for ia in np.nonzero(coarse)[0]:
            for ib, b in enumerate(result.b_grid):
                if not result.valid[ia, ib]:
                    continue
                g = result.gamma2[ia, ib, 0, 1]
                (inside_frac if 500.0 < b <= 1000.0 else outside_frac).append(
                    g > thresh)
        assert np.mean(inside_frac) > np.mean(outside_frac) + 0.2


class TestMeanSpectrum:
    def test_poisson_mean_omega(self, morlet_sys10):
        lam = 5.0
        vals = np.empty(200)
        a, b = denormalize_coords(0.5, 0.5, 100.0, 8.0, 10.0)
        for r in range(200):
            s = simulate_poisson([lam], 100.0,
                                 seed=np.random.SeedSequence(entropy=31, spawn_key=(r,)))
            vals[r] = smoothed_periodogram_eigen(s, morlet_sys10, a, b)[0, 0].real
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - lam) < 3 * se


@st.composite
def sweep_cases(draw):
    """A stream, a scale and a b-grid for eigen_transforms.

    Streams are random sorted event sets, p = 1..3, any of them silent. The
    grid mixes random points of the valid region, its two boundary points at
    this scale, and the grid's own supports are seeded with events exactly at
    b +- a w/2 and one ulp inside.
    """
    kind = draw(st.sampled_from(["morlet", "mexhat"]))
    system = eigensystem_cached(kind, 10.0, n_points=128)
    T = draw(st.sampled_from([40.0, 100.0]))
    a_max = T / system.width
    a = draw(st.floats(0.02 * a_max, a_max))
    half = a * system.width / 2.0
    inside = st.floats(half, T - half) if half < T - half else st.just(T / 2.0)
    b_grid = draw(st.lists(inside, min_size=1, max_size=6))
    b_grid += draw(st.sampled_from([[], [half], [T - half], [half, T - half]]))
    p = draw(st.integers(1, 3))
    times = st.floats(0.0, T, exclude_min=True)
    streams = []
    for _ in range(p):
        events = draw(st.lists(times, max_size=draw(st.sampled_from([0, 3, 40]))))
        for b in draw(st.lists(st.sampled_from(b_grid), max_size=2)):
            for edge in (b - half, b + half):
                events += [edge, np.nextafter(edge, b)]
        streams.append(np.unique([t for t in events if 0.0 < t <= T]))
    return EventStream(streams, T), system, a, np.array(b_grid)


def block_sizes(system):
    """PAIR_BLOCK values: a limit of 1 pair and 1 row, so each block is one run; and blocks
    of at most 2 rows and n_coef // 4 pairs."""
    return {"1 pair": 32, "2 rows": 8 * len(system.coefficients)}


class TestEigenTransforms:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=sweep_cases(), block=st.sampled_from([None, "1 pair", "2 rows"]))
    def test_matches_the_per_point_route(self, case, block):
        stream, system, a, b_grid = case
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:  # several blocks per scale
                mp.setattr(spectra, "PAIR_BLOCK", block_sizes(system)[block])
            got = spectra.eigen_transforms(stream.events, system, a, b_grid)
        ref = eigen_transforms_per_point(stream, system, a, b_grid)
        assert got.shape == (b_grid.size, stream.p, system.n_retained)
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        # a support without events gives exactly zero on both routes
        assert np.array_equal(got == 0, ref == 0)

    def test_one_point_case_matches_the_batch(self, morlet_sys10):
        s = simulate_poisson([2.0, 2.0, 1.0], 100.0, seed=8)
        b_grid = np.array([30.0, 50.0, 61.5])
        batch = spectra.eigen_transforms(s.events, morlet_sys10, 2.5, b_grid)
        omega = spectra.eigen_expansion(batch, morlet_sys10.retained_eigenvalues)
        for k, b in enumerate(b_grid):
            v = spectra.eigen_transforms(s.events, morlet_sys10, 2.5, [b])[0]
            om = smoothed_periodogram_eigen(s, morlet_sys10, 2.5, b)
            assert np.linalg.norm(batch[k] - v) <= 1e-14 * np.linalg.norm(v)
            assert np.linalg.norm(omega[k] - om) <= 1e-14 * np.linalg.norm(om)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=sweep_cases())
    def test_one_row_blocks_match_the_default(self, case):
        stream, system, a, b_grid = case
        default = spectra.eigen_transforms(stream.events, system, a, b_grid)
        with pytest.MonkeyPatch.context() as mp:  # every block one run, a one-row product
            mp.setattr(spectra, "PAIR_BLOCK", 4 * len(system.coefficients) - 1)
            got = spectra.eigen_transforms(stream.events, system, a, b_grid)
        assert np.linalg.norm(got - default) <= 1e-13 * np.linalg.norm(default)
        assert np.array_equal(got == 0, default == 0)

    def test_blocks_bound_the_pairs(self, morlet_sys10, monkeypatch):
        # a block deposits its weights in one bincount and meets the table in one product of
        # its own rows: at least one run, at most PAIR_BLOCK // (4 n_coef) runs and, unless
        # it is one run, at most PAIR_BLOCK // 32 pairs
        system, log = morlet_sys10, []
        n_coef = len(system.coefficients)
        block = 4 * n_coef * 6  # blocks of at most 6 runs and 1,608 pairs
        monkeypatch.setattr(spectra, "PAIR_BLOCK", block)
        bincount = np.bincount

        def deposit(slots, weights, minlength):
            log.append(("deposit", weights.size // 6, minlength // n_coef))
            return bincount(slots, weights, minlength=minlength)

        class Table(np.ndarray):  # records the rows of each product with the table
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                log.append(("product", inputs[0].shape[0]))
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        monkeypatch.setattr(np, "bincount", deposit)
        monkeypatch.setattr(system, "coefficients", system.coefficients.view(Table))
        s = simulate_poisson([20.0, 20.0], 100.0, seed=9)
        b_grid = np.linspace(30.0, 70.0, 40)
        # about 90 events per support at a = 0.25 (blocks of 6 runs, the row bound), 430 at
        # a = 1.2 (blocks of 3 runs, the pair bound) and 2,000 at a = 10 (blocks of one run)
        for a, runs_per_block in ((0.25, 6), (1.2, 3), (10.0, 1)):
            log.clear()
            got = spectra.eigen_transforms(s.events, system, a, b_grid)
            deposits, products = log[::2], log[1::2]
            assert [kind for kind, _ in products] == ["product"] * len(deposits)
            assert [kind for kind, *_ in deposits] == ["deposit"] * len(deposits)
            for (_, pairs, runs), (_, rows) in zip(deposits, products):
                assert rows == runs and 1 <= runs <= 6
                assert runs == 1 or pairs <= block // 32
            assert sum(runs for *_, runs in deposits) == b_grid.size * s.p
            assert max(runs for *_, runs in deposits) == runs_per_block
            with monkeypatch.context() as mp:
                mp.setattr(np, "bincount", bincount)
                ref = eigen_transforms_per_point(s, system, a, b_grid)
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        assert max(pairs for _, pairs, _ in deposits) > block // 32  # a one-run block past it
