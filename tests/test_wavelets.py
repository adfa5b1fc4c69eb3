import math

import numpy as np
import pytest

from eventspec import ConfigError, ParseError, ValidationError, Wavelet, central_frequency
from eventspec.studies import run_qq_cwt
from eventspec.quadrature import simpson_rule
from oracles import ScaledWavelet, autocorrelation, central_frequency_full_spectrum


def quad_weights(alpha, n=4097):
    return simpson_rule(-alpha / 2, alpha / 2, n)


class TestEvaluate:
    def test_morlet_origin(self, morlet):
        # pi^(-1/4) up to the tiny zero-mean correction
        assert morlet(0.0) == pytest.approx(np.pi ** -0.25, abs=1e-4)

    def test_zero_outside_support(self, morlet):
        w = ScaledWavelet(morlet, 1.0, 0.0)
        assert w(morlet.alpha / 2 + 0.1) == 0.0
        assert w(-morlet.alpha / 2 - 1e-9) == 0.0

    def test_scaled_mexhat_peak(self, mexhat):
        w = ScaledWavelet(mexhat, 2.0, 3.0)
        expected = 2 ** -0.5 * (2 / math.sqrt(3)) * np.pi ** -0.25
        assert w(3.0) == pytest.approx(expected, abs=1e-3)

    def test_scaled_support(self, mexhat):
        w = ScaledWavelet(mexhat, 2.0, 3.0)
        lo, hi = w.support
        assert lo == pytest.approx(3.0 - mexhat.alpha)
        assert hi == pytest.approx(3.0 + mexhat.alpha)

    def test_scale_must_be_positive(self, morlet):
        with pytest.raises(ValidationError):
            ScaledWavelet(morlet, -1.0)


class TestAdmissibility:
    @pytest.mark.parametrize("kind", ["morlet", "mexhat"])
    def test_zero_mean_unit_norm(self, kind, morlet, mexhat):
        wav = morlet if kind == "morlet" else mexhat
        x, w = quad_weights(wav.alpha)
        vals = wav(x)
        assert abs(w @ vals) < 1e-6
        assert abs(w @ np.abs(vals) ** 2 - 1.0) < 1e-6

    def test_tabulated_zero_mean_unit_norm(self, morlet):
        x = np.linspace(-4, 4, 4096)
        tab = Wavelet.tabulated(x, morlet(x))
        xs, w = quad_weights(tab.alpha)
        vals = tab(xs)
        assert abs(w @ vals) < 1e-6
        assert abs(w @ np.abs(vals) ** 2 - 1.0) < 1e-6

    @pytest.mark.parametrize("a,b", [(0.5, 0.0), (2.0, 1.5), (7.0, -3.0)])
    def test_scaling_invariance(self, morlet, a, b):
        sw = ScaledWavelet(morlet, a, b)
        lo, hi = sw.support
        x, w = simpson_rule(lo, hi, 4097)
        assert w @ np.abs(sw(x)) ** 2 == pytest.approx(1.0, abs=1e-6)


class TestCentralFrequency:
    def test_morlet_unit_frequency(self, morlet):
        assert morlet.central_frequency == pytest.approx(1.0, abs=0.01)

    def test_mexhat_positive_centroid(self, mexhat):
        # closed form for the unit-norm second derivative of a Gaussian:
        # centroid of |Psi(f)|^2 over f > 0 is 4 / (3 pi^(3/2))
        expected = 4.0 / (3.0 * np.pi ** 1.5)
        assert mexhat.central_frequency == pytest.approx(expected, abs=1e-3)

    def test_tabulated_matches_morlet(self, morlet):
        x = np.linspace(-4, 4, 4096)
        tab = Wavelet.tabulated(x, morlet(x))
        assert central_frequency(tab) == pytest.approx(
            morlet.central_frequency, abs=1e-6)

    def test_matches_full_spectrum_oracle(self, morlet, mexhat):
        x = np.linspace(-4, 4, 4096)
        for w in (morlet, mexhat, Wavelet.tabulated(x, morlet(x)), Wavelet.morlet(6.0)):
            assert central_frequency(w) == central_frequency_full_spectrum(w)  # bit for bit

    def test_traced_peak(self, traced_peak):
        # the 2^18-point spectrum is scaled in place and its positive half read through a
        # view; the whole-spectrum routine held 11.5 MiB
        _, peak = traced_peak(central_frequency, Wavelet.morlet(7.5))
        assert peak <= 8 * 2**20


class TestAutocorrelation:
    def test_unit_norm_at_zero(self, morlet, mexhat):
        assert autocorrelation(morlet, 0.0) == pytest.approx(1.0, abs=1e-6)
        assert autocorrelation(mexhat, 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_morlet_gaussian_form(self, morlet):
        # untruncated Morlet: P(x) = exp(-x^2/4) exp(i 2 pi x)
        xs = np.linspace(-2, 2, 11)
        got = autocorrelation(morlet, xs)
        expected = np.exp(-xs ** 2 / 4) * np.exp(2j * np.pi * xs)
        assert np.abs(got - expected).max() < 1e-4

    def test_mexhat_closed_form(self, mexhat):
        # P(x) = (1 - x^2 + x^4/12) exp(-x^2/4) for the untruncated wavelet;
        # the truncated, mean-corrected object differs by O(alpha * mean
        # offset) ~ 1e-3, which sets the tolerance here
        xs = np.linspace(-3, 3, 13)
        got = autocorrelation(mexhat, xs)
        expected = (1 - xs ** 2 + xs ** 4 / 12) * np.exp(-xs ** 2 / 4)
        assert np.abs(got - expected).max() < 2e-3

    def test_vanishes_beyond_support(self, morlet):
        assert autocorrelation(morlet, morlet.alpha) == 0.0
        assert autocorrelation(morlet, -morlet.alpha - 1.0) == 0.0

    def test_hermitian_symmetry(self, morlet):
        xs = np.array([0.3, 1.1, 2.7, 5.0])
        fwd = autocorrelation(morlet, xs)
        bwd = autocorrelation(morlet, -xs)
        assert np.abs(bwd - np.conj(fwd)).max() < 1e-10


class TestTabulatedIO:
    def test_round_trip_csv(self, tmp_path, morlet):
        x = np.linspace(-4, 4, 2048)
        vals = morlet(x)
        path = tmp_path / "wavelet.csv"
        with open(path, "w") as fh:
            for xi, vi in zip(x, vals):
                fh.write(f"{float(xi)!r},{float(vi.real)!r},{float(vi.imag)!r}\n")
        tab = Wavelet.from_csv(path)
        assert tab.is_complex
        xs = np.linspace(-3.5, 3.5, 50)
        assert np.abs(tab(xs) - morlet(xs)).max() < 1e-5

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\nnot-a-number,2.0\n")
        with pytest.raises(ParseError, match="line 2"):
            Wavelet.from_csv(path)

    def test_nonuniform_grid_rejected(self):
        x = np.array([0.0, 0.1, 0.3, 0.35, 0.5, 0.6, 0.7, 0.8])
        with pytest.raises(ValidationError):
            Wavelet.tabulated(x, np.ones_like(x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, morlet, bad):
        # refused before the spline fit, whose ValueError is no documented error
        x = np.linspace(-4, 4, 64)
        vals = morlet(x)
        vals[10] = bad
        with pytest.raises(ValidationError, match="finite"):
            Wavelet.tabulated(x, vals)

    @pytest.mark.parametrize("row", ["nan,0.0", "0.0,nan", "0.0,0.1,inf"])
    def test_non_finite_csv_row_rejected(self, tmp_path, row):
        rows = [f"{t!r},{math.exp(-t * t)!r}" for t in np.linspace(-4, 4, 17).tolist()]
        rows[8] = row
        path = tmp_path / "wavelet.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="finite"):
            Wavelet.from_csv(path)


class TestNamed:
    def test_builtins_compare_by_value(self):
        assert Wavelet.named("morlet") == Wavelet.morlet()
        assert hash(Wavelet.named("mexhat", 10.0)) == hash(Wavelet.mexican_hat(10.0))
        assert Wavelet.morlet() != Wavelet.mexican_hat()
        assert Wavelet.morlet(8.0) != Wavelet.morlet(10.0)

    def test_tabulated_equal_only_to_itself(self, morlet):
        t = np.linspace(-4.0, 4.0, 257)
        first, second = (Wavelet.tabulated(t, morlet(t)) for _ in range(2))
        assert first == first and first != second

    def test_unknown_kind_is_config_error(self):
        with pytest.raises(ConfigError):
            Wavelet.named("foo")

    def test_zero_alpha_is_validation_error(self):
        with pytest.raises(ValidationError):
            Wavelet.named("morlet", 0.0)

    def test_alpha_too_narrow_to_normalise_is_validation_error(self):
        # sin^2 underflows to zero over the support: the Gram solve had raised LinAlgError
        with pytest.raises(ValidationError, match="too narrow"):
            Wavelet.morlet(1e-150)

    def test_qq_cwt_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            run_qq_cwt(wavelet_kind="foo", replicates=2)
