import numpy as np
import pytest

from eventspec import (ConfigError, EigenSystem, NumericalError, SmoothedKernel,
                       SmoothingWindow, ValidationError, Wavelet, eigensystem,
                       eigensystem_cached, eigensys, nystrom_decompose)
from eventspec.studies import run_qq_coherence
from eventspec.quadrature import simpson_rule
from oracles import (dof_closed_form, effective_frequency_response, eigen_wavelet_value,
                     full_kernel_matrix, rank_one_kernel, refined_samples, unfactorized_kernel,
                     value_matrix)


class TestDecomposition:
    def test_nine_eigenvalues_hold_999_energy(self, morlet, rect10):
        kern = SmoothedKernel(morlet, rect10)
        system = nystrom_decompose(kern, energy_cutoff=0.999)
        assert system.n_retained == 9
        assert system.retained_energy >= 0.999

    def test_trace_rule_sum(self, morlet_sys10):
        assert morlet_sys10.eigenvalues.sum() == pytest.approx(1.0, abs=1e-6)

    def test_rank_one_kernel(self, morlet):
        kern = rank_one_kernel(morlet)
        env = morlet.envelope(kern.grid)  # one cell of the cell rule: exactly r(s) r(t)
        assert np.abs(kern.envelope_values - np.outer(env, env)).max() <= 1e-14 * env.max() ** 2
        system = nystrom_decompose(kern, energy_cutoff=1.0)
        assert system.eigenvalues[0] == pytest.approx(1.0, abs=1e-6)
        assert np.all(system.eigenvalues[1:] <= 1e-8)
        assert system.degrees_of_freedom() == pytest.approx(1.0, abs=1e-5)

    def test_grid_refinement_stability(self, morlet, rect10):
        e512 = nystrom_decompose(SmoothedKernel(morlet, rect10, n_points=512),
                                 energy_cutoff=0.999)
        e1024 = nystrom_decompose(SmoothedKernel(morlet, rect10, n_points=1024),
                                  energy_cutoff=0.999)
        k = min(e512.n_retained, e1024.n_retained)
        diff = np.abs(e512.eigenvalues[:k] - e1024.eigenvalues[:k])
        assert diff.max() < 1e-6

    def test_orthonormal_under_weighted_inner_product(self, morlet_sys10):
        v = morlet_sys10.vectors
        gram = (v.conj().T * morlet_sys10.weight) @ v
        assert np.abs(gram - np.eye(morlet_sys10.n_retained)).max() < 1e-8

    def test_retained_eigen_wavelets_are_wavelets(self, morlet, rect10):
        system = nystrom_decompose(SmoothedKernel(morlet, rect10),
                                   energy_cutoff=0.999)
        full = system.eigen_wavelets_at(system.grid)
        for l in range(system.n_retained):
            mean = system.weight * np.sum(full[:, l])
            norm = system.weight * np.sum(np.abs(full[:, l]) ** 2)
            assert abs(mean) < 1e-5
            assert norm == pytest.approx(1.0, abs=1e-6)

    def test_non_hermitian_rejected(self, morlet, rect10):
        from eventspec.errors import NumericalError
        kern = SmoothedKernel(morlet, rect10)
        kern.envelope_values = kern.envelope_values.copy()
        kern.envelope_values[3, 5] += 1e-3
        with pytest.raises(NumericalError):
            nystrom_decompose(kern)

    @pytest.mark.filterwarnings("error")
    def test_degenerate_system_refused_where_built(self, morlet, rect10):
        # a kernel that underflows to 0 (kappa = 8e75, as T = 1e300 gives the
        # stationarity test) has eigenvalue sum 0; eigenvalues near 1e-170 have a
        # positive sum, but their squares underflow, so n = 1 / sum(eta^2) is infinite
        with pytest.raises(NumericalError, match="eigenvalue sum"):
            eigensystem(morlet, SmoothingWindow.rectangular(8e75), 128)
        kern = SmoothedKernel(morlet, rect10, 128)
        kern.envelope_values = kern.envelope_values * 1e-170
        with pytest.raises(NumericalError, match="degrees of freedom"):
            nystrom_decompose(kern)


class TestDiagnostics:
    def test_keys_and_trace_error(self, morlet_sys10, mexhat_sys10):
        for system in (morlet_sys10, mexhat_sys10):
            diag = system.diagnostics
            assert set(diag) == {"trace_error", "hermitian_asymmetry", "retained_energy",
                                 "min_retained_eigenvalue"}
            assert diag["trace_error"] < 1e-4
            assert diag["hermitian_asymmetry"] <= 1e-14 * system.kernel.envelope_values.max()
            assert diag["retained_energy"] == system.retained_energy >= system.energy_cutoff
            assert diag["min_retained_eigenvalue"] == system.retained_eigenvalues.min() > 0


class TestDegreesOfFreedom:
    def test_effective_dof_kappa20(self, morlet_sys20, mexhat_sys20):
        assert morlet_sys20.degrees_of_freedom() == pytest.approx(8.31, abs=0.05)
        assert mexhat_sys20.degrees_of_freedom() == pytest.approx(11.57, abs=0.05)

    def test_rank_one_dof(self, morlet):
        system = nystrom_decompose(rank_one_kernel(morlet))
        assert system.degrees_of_freedom() == pytest.approx(1.0, abs=1e-5)

    def test_closed_form_gaussian_oracle(self, morlet):
        # untruncated Morlet: integral of |P|^2 is sqrt(2 pi)
        got = dof_closed_form(morlet, 20.0)
        assert got == pytest.approx(20.0 / np.sqrt(2 * np.pi), abs=1e-3)

    def test_closed_form_linear_in_kappa(self, morlet):
        assert dof_closed_form(morlet, 16.0) == pytest.approx(
            2.0 * dof_closed_form(morlet, 8.0 + 1e-9), rel=1e-6)

    def test_closed_form_requires_kappa_above_alpha(self, morlet):
        with pytest.raises(ValidationError):
            dof_closed_form(morlet, morlet.alpha)

    def test_eigen_sum_exceeds_closed_form(self, morlet, morlet_sys20):
        # the closed form drops a positive O(1/kappa) boundary term, so the
        # eigenvalue-sum value sits above it
        closed = dof_closed_form(morlet, 20.0)
        assert morlet_sys20.degrees_of_freedom() > closed

    def test_monotone_in_kappa(self):
        values = [eigensystem_cached("morlet", k).degrees_of_freedom()
                  for k in (5.0, 10.0, 20.0, 40.0)]
        assert all(a < b for a, b in zip(values, values[1:]))


@pytest.fixture()
def builds(monkeypatch):
    """Kernels passed to nystrom_decompose during the test."""
    seen = []
    real = eigensys.nystrom_decompose

    def counting(kernel, *args, **kwargs):
        seen.append(kernel)
        return real(kernel, *args, **kwargs)

    monkeypatch.setattr(eigensys, "nystrom_decompose", counting)
    return seen


class TestEigensystemCache:
    def test_equal_values_share_one_build(self, builds):
        first = eigensystem(Wavelet.morlet(), SmoothingWindow.rectangular(12.0), 128)
        assert eigensystem(Wavelet.named("morlet"), SmoothingWindow.rectangular(12),
                           n_points=128) is first
        assert eigensystem_cached("morlet", 12.0, n_points=128) is first
        assert len(builds) <= 1

    def test_second_lookup_and_study_do_not_rebuild(self, builds):
        first = eigensystem_cached("morlet", 20.0)
        builds.clear()
        assert eigensystem_cached("morlet", 20.0) is first
        run_qq_coherence(replicates=20)
        assert builds == []

    def test_six_systems_cycle_without_rebuilds(self, builds):
        # criterion 4 cycles through six (wavelet, kappa) systems
        for _ in range(2):
            for kind in ("morlet", "mexhat"):
                for kappa in (5.5, 7.5, 9.5):
                    eigensystem_cached(kind, kappa, n_points=64)
        assert len(builds) == 6

    def test_second_lookup_fits_no_wavelet(self, monkeypatch):
        eigensystem_cached("morlet", 20.0)
        fits = []
        real = Wavelet._fit_corrections

        def counting(self):
            fits.append(self)
            return real(self)

        monkeypatch.setattr(Wavelet, "_fit_corrections", counting)
        eigensystem_cached("morlet", 20.0)
        assert fits == []

    def test_tabulated_window_keyed_by_identity(self, morlet, builds):
        u = np.linspace(-0.5, 0.5, 33)
        windows = [SmoothingWindow.tabulated(u, np.ones_like(u), 12.0) for _ in range(2)]
        systems = [eigensystem(morlet, w, 64) for w in windows]
        assert systems[0] is not systems[1] and len(builds) == 2
        assert eigensystem(morlet, windows[0], 64) is systems[0]


@pytest.fixture(scope="module", params=["morlet", "mexhat", "tabulated-complex"])
def table_system(request):
    if request.param == "tabulated-complex":
        t = np.linspace(-3.0, 3.0, 97)
        wavelet = Wavelet.tabulated(t, np.exp(-t**2) * np.exp(3j * t))
        assert wavelet.is_complex and wavelet.modulation == 0.0
        return eigensystem(wavelet, SmoothingWindow.rectangular(4.0), 128)
    return eigensystem_cached(request.param, 10.0)


class TestTableEvaluator:
    """The coefficient table against PPoly on the same cubic pieces."""

    @staticmethod
    def probes(system):
        half = system.kernel.width / 2.0
        knots = system._knots
        rng = np.random.default_rng(7)
        inside = np.concatenate([rng.uniform(-half, half, 600), knots[np.abs(knots) < half],
                                 [np.nextafter(-half, 0.0), np.nextafter(half, 0.0)]])
        outside = np.concatenate([[-half, half], rng.uniform(half, 2 * half, 20),
                                  -rng.uniform(half, 2 * half, 20), [-1e6, 1e6]])
        return inside, outside

    def test_values_match_spline_oracle(self, table_system, spline_oracle):
        inside, outside = self.probes(table_system)
        x = np.concatenate([inside, outside])
        got = table_system.eigen_wavelets_at(x)
        ref = spline_oracle(table_system, x)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.all(got[inside.size:] == 0)

    def test_sums_match_spline_oracle(self, table_system, spline_oracle):
        inside, outside = self.probes(table_system)
        for x in (inside, inside[::7], np.concatenate([outside, inside[:50]])):
            got = table_system.summed_wavelets_by_run(x, [x.size])[0]
            ref = spline_oracle(table_system, x).sum(axis=0)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.all(table_system.summed_wavelets_by_run(outside, [outside.size])[0] == 0)
        assert np.all(table_system.summed_wavelets_by_run(np.array([]), [0])[0] == 0)

    def test_no_spline_on_the_evaluation_path(self, monkeypatch, morlet_sys10):
        from scipy.interpolate import CubicSpline, PPoly

        def refuse(*args, **kwargs):
            raise AssertionError("CubicSpline evaluated")

        monkeypatch.setattr(CubicSpline, "__call__", refuse)
        assert not any(isinstance(v, PPoly) for v in vars(morlet_sys10).values())
        x = np.linspace(-9.5, 9.5, 41)
        morlet_sys10.eigen_wavelets_at(x)
        morlet_sys10.summed_wavelets_by_run(x, [x.size])


class TestNotAKnotTable:
    """The B-spline coefficient table against scipy's periodic CubicSpline on the same samples.

    The refined samples come from the FFT refinement in tests/oracles.py. scipy's BSpline
    evaluates the table on the uniform knot vector it implies (3 knots beyond each end),
    independently of the package's own evaluator; the class is named for the not-a-knot
    construction the periodic one replaced.
    """

    @staticmethod
    def assert_matches_cubic_spline(system):
        from scipy.interpolate import BSpline, CubicSpline
        knots, coef, step = system._knots, system.coefficients, system._step
        assert coef.shape == (len(knots) + 2, system.n_retained)
        table = BSpline(knots[0] + step * np.arange(-3, len(coef) + 1), coef, 3)
        rng = np.random.default_rng(5)
        x = np.concatenate([knots, 0.5 * (knots[1:] + knots[:-1]),
                            rng.uniform(knots[0], knots[-1], 1000)])
        ref = CubicSpline(*refined_samples(system), bc_type="periodic")(x)
        assert np.abs(table(x) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_matches_cubic_spline(self, table_system):
        self.assert_matches_cubic_spline(table_system)

    @pytest.mark.parametrize("kappa", [5.0, 20.0])
    def test_matches_cubic_spline_morlet(self, kappa):
        self.assert_matches_cubic_spline(eigensystem_cached("morlet", kappa))

    def test_nan_sample_is_numerical_error(self, morlet_sys10):
        vectors = morlet_sys10.vectors.copy()
        vectors[100, 3] = np.nan
        with pytest.raises(NumericalError, match="not finite"):
            EigenSystem(morlet_sys10.kernel, morlet_sys10.eigenvalues, vectors,
                        morlet_sys10.energy_cutoff, 0.0)

    def test_table_above_the_byte_limit_is_config_error(self, monkeypatch, morlet_sys10):
        # refused before any FFT, naming n_points, kappa and the bytes
        def refuse(*args, **kwargs):
            raise AssertionError("FFT run above the byte limit")

        monkeypatch.setattr(eigensys, "MAX_TABLE_BYTES", 1 << 19)
        monkeypatch.setattr(eigensys.np.fft, "fft", refuse)
        monkeypatch.setattr(eigensys.np.fft, "ifft", refuse)
        nbytes = 16 * 512 * 8 * morlet_sys10.n_retained
        with pytest.raises(ConfigError, match=rf"n_points=512, kappa=10 needs {nbytes} bytes"):
            EigenSystem(morlet_sys10.kernel, morlet_sys10.eigenvalues, morlet_sys10.vectors,
                        morlet_sys10.energy_cutoff, 0.0)


class TestEigenWaveletValues:
    def test_extension_matches_grid_samples(self, morlet_sys10):
        idx = [7, 100, 300, 500]
        for l in [0, 3, 8]:
            got = eigen_wavelet_value(morlet_sys10, l, morlet_sys10.grid[idx])
            stored = morlet_sys10.vectors[idx, l] * np.exp(
                2j * np.pi * morlet_sys10.grid[idx])
            assert np.abs(got - stored).max() < 1e-8

    def test_interpolant_matches_extension_off_grid(self, morlet_sys10):
        # eigen-envelopes have curvature kinks where the smoothing window
        # starts clipping the wavelet support (|x| = (kappa - alpha)/2);
        # interpolation there is locally ~1e-5 for the deepest retained
        # modes, and far better elsewhere
        x = np.linspace(-8.0, 8.0, 17) + 0.0137
        rows = value_matrix(morlet_sys10.kernel, x, morlet_sys10.grid)
        full = morlet_sys10.vectors * np.exp(
            2j * np.pi * morlet_sys10.grid)[:, None]
        ext = (rows @ full) * morlet_sys10.weight / morlet_sys10.retained_eigenvalues
        interp = morlet_sys10.eigen_wavelets_at(x)
        err = np.abs(ext[:, :9] - interp[:, :9])
        assert err.max() < 2e-5
        away_from_kinks = np.abs(np.abs(x) - 1.0) > 0.5
        assert err[away_from_kinks].max() < 1e-6

    def test_index_beyond_rank(self, morlet_sys10):
        with pytest.raises(IndexError):
            eigen_wavelet_value(morlet_sys10, morlet_sys10.n_retained, 0.0)

    def test_morlet_phase_structure(self, morlet_sys10):
        # eigen-wavelets of the Morlet + rectangular kernel factor as
        # e^{i 2 pi x} times a real envelope
        x = np.linspace(-8.5, 8.5, 101)
        vals = morlet_sys10.eigen_wavelets_at(x)[:, :9]
        demodulated = vals * np.exp(-2j * np.pi * x)[:, None]
        assert np.abs(demodulated.imag).max() < 1e-6

    def test_real_and_complex_paths_agree(self, morlet, rect10, morlet_sys10):
        # same kernel decomposed without phase factorization: the complex
        # Hermitian eigensolve must reproduce the real-path eigenvalues
        kern = unfactorized_kernel(morlet, rect10)
        assert np.iscomplexobj(kern.envelope_values)
        system = nystrom_decompose(kern, energy_cutoff=0.999)
        k = min(system.n_retained, 9)
        assert np.abs(system.eigenvalues[:k]
                      - morlet_sys10.eigenvalues[:k]).max() < 1e-8
        # and its eigen-wavelets agree with phase-attached real-path ones
        # up to the fixed phase convention
        x = np.linspace(-7.5, 7.5, 31)
        got = np.abs(system.eigen_wavelets_at(x)[:, :5])
        ref = np.abs(morlet_sys10.eigen_wavelets_at(x)[:, :5])
        assert np.abs(got - ref).max() < 1e-6

    def test_generic_complex_route_tabulated(self, morlet, rect10, morlet_sys10):
        # a tabulated complex copy runs through spline evaluation inside the
        # quadrature; agreement is limited by the spline's smoothness class
        xs = np.linspace(-4.0, 4.0, 4096)
        tab = Wavelet.tabulated(xs, morlet(xs))
        assert tab.is_complex and tab.modulation == 0.0
        system = nystrom_decompose(SmoothedKernel(tab, rect10), energy_cutoff=0.999)
        k = min(system.n_retained, 9)
        assert np.abs(system.eigenvalues[:k]
                      - morlet_sys10.eigenvalues[:k]).max() < 2e-7


class TestFrequencyResponse:
    def _psi_power(self, wavelet, freqs):
        half = wavelet.alpha / 2.0
        x, w = simpson_rule(-half, half, 4097)
        vals = wavelet(x)
        spec = np.array([(w * vals) @ np.exp(-2j * np.pi * f * x) for f in freqs])
        return np.abs(spec) ** 2

    def test_matches_generating_wavelet_in_passband(self, morlet, morlet_sys10):
        freqs = np.linspace(0.5, 1.5, 200)
        response = effective_frequency_response(morlet_sys10, freqs)
        target = self._psi_power(morlet, freqs)
        rel = np.abs(response - target) / target.max()
        assert rel.max() < 0.02

    def test_passband_identity_mexhat(self, mexhat, mexhat_sys10):
        freqs = np.linspace(0.05, 0.6, 200)
        response = effective_frequency_response(mexhat_sys10, freqs)
        target = self._psi_power(mexhat, freqs)
        assert (np.abs(response - target) / target.max()).max() < 0.02

    def test_vanishes_far_outside_passband(self, morlet_sys10):
        assert effective_frequency_response(morlet_sys10, 5.0) < 1e-4
        assert effective_frequency_response(morlet_sys10, -3.0) < 1e-4

    def test_parseval_total(self, morlet_sys10):
        freqs = np.linspace(-2.0, 4.0, 2401)
        response = effective_frequency_response(morlet_sys10, freqs)
        total = np.trapezoid(response, freqs)
        assert total == pytest.approx(1.0, rel=0.01)


class TestMercer:
    def test_reconstruction_error_small(self, morlet, rect10):
        system = nystrom_decompose(SmoothedKernel(morlet, rect10),
                                   energy_cutoff=1.0 - 1e-8)
        full = system.vectors * np.exp(2j * np.pi * system.grid)[:, None]
        recon = (full * system.retained_eigenvalues) @ full.conj().T
        target = full_kernel_matrix(system.kernel)
        assert np.abs(recon - target).max() < 1e-3
