import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from eventspec import pointproc, studies
from eventspec import ConfigError
from eventspec import (EventStream, HawkesParams, ParseError,
                       ValidationError, Wavelet,
                       coherence_theoretical, hawkes_spectrum, load_csv,
                       save_csv, simulate_hawkes, simulate_piecewise, simulate_poisson)
from oracles import hawkes_per_pair_filter, poisson_spectrum, save_csv_sorted_tuples

UNIVARIATE = dict(nu=1.0, alpha=0.5, beta=1.0)
BIVARIATE = dict(nu=[1.0, 1.0], alpha=[[0.5, 0.4], [0.4, 0.5]],
                 beta=[[1.0, 1.0], [1.0, 1.0]])


class TestEventStream:
    def test_counts_and_window(self):
        s = EventStream([[0.5, 1.2], [0.9]], T=2.0)
        assert s.p == 2
        assert s.counts().tolist() == [2, 1]
        assert s.window(0, 1.0, 2.0).tolist() == [1.2]

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError):
            EventStream([[1.0, 0.5]], T=2.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            EventStream([[0.5, 2.5]], T=2.0)
        with pytest.raises(ValidationError):
            EventStream([[-0.5]], T=2.0)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_horizon_not_positive_and_finite(self, T):
        with pytest.raises(ValidationError, match="horizon T"):
            EventStream([[]], T=T)


class TestCsv:
    def test_basic_rows(self, tmp_path):
        path = tmp_path / "ev.csv"
        path.write_text("# p=2 T=2.0\n1,0.5\n1,1.2\n2,0.9\n")
        s = load_csv(path)
        assert s.p == 2 and s.T == 2.0
        assert s.counts().tolist() == [2, 1]

    def test_empty_with_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# p=2 T=10\n")
        s = load_csv(path)
        assert s.p == 2 and s.T == 10.0
        assert s.counts().tolist() == [0, 0]

    def test_negative_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# p=1 T=2\n1,-0.5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path)

    def test_header_inferred(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("1,0.5\n2,3.2\n")
        s = load_csv(path)
        assert s.p == 2
        assert s.T == 4.0  # max time rounded up

    def test_round_trip_bytes(self, tmp_path):
        stream = simulate_hawkes(HawkesParams.from_dict(BIVARIATE), 50.0, seed=3)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_csv(stream, p1)
        save_csv(load_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sorted_blocks_match_tuple_sort(self, tmp_path, traced_peak):
        # 200,000 events over four streams, a thousand times shared by all of them: rows
        # by time and ties by stream, as one sort of (time, stream) tuples wrote them
        rng = np.random.default_rng(5)
        shared = rng.uniform(0.0, 1000.0, 1000)
        stream = EventStream([np.unique(np.concatenate([rng.uniform(0.0, 1000.0, 49_000), shared]))
                              for _ in range(4)], 1000.0)
        assert stream.counts().sum() == 200_000
        _, peak = traced_peak(save_csv, stream, tmp_path / "blocks.csv")
        assert peak <= 10 * 2**20  # the tuple sort held 17.6 MiB
        save_csv_sorted_tuples(stream, tmp_path / "tuples.csv")
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "tuples.csv").read_bytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), p=st.integers(1, 4), T=st.floats(1e-300, 1e300))
    def test_round_trip_is_bit_identical(self, tmp_path_factory, data, p, T):
        # any streams, empty ones included, come back with the same float64 bits and T
        times = st.floats(0.0, T, exclude_min=True)
        sizes = st.sampled_from([0, 5, 30])
        events = [np.unique(data.draw(st.lists(times, max_size=data.draw(sizes))))
                  for _ in range(p)]
        stream = EventStream(events, T)
        path = tmp_path_factory.getbasetemp() / "round_trip.csv"
        save_csv(stream, path)
        back = load_csv(path)
        assert back.p == p and np.float64(back.T).tobytes() == np.float64(T).tobytes()
        for got, want in zip(back.events, stream.events):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestPoisson:
    def test_rate_within_band(self):
        s = simulate_poisson([1.0], 10000.0, seed=7)
        rate = s.counts()[0] / s.T
        assert abs(rate - 1.0) < 0.03  # 3 sigma with sigma = sqrt(lambda/T)

    def test_zero_rate(self):
        s = simulate_poisson([0.0], 10.0, seed=1)
        assert s.counts()[0] == 0

    def test_cross_stream_independence(self):
        s = simulate_poisson([2.0, 3.0], 5000.0, seed=11)
        edges = np.arange(0.0, s.T + 1.0, 1.0)
        c1 = np.histogram(s.events[0], edges)[0]
        c2 = np.histogram(s.events[1], edges)[0]
        cov = np.cov(c1, c2)[0, 1]
        sigma = np.sqrt(2.0 * 3.0 / len(c1))
        assert abs(cov) < 3.0 * sigma

    def test_event_budget_and_non_finite_input_refused(self, monkeypatch):
        # a low budget stands in for the default: a real 1e7-event draw is not run
        monkeypatch.setattr(pointproc, "MAX_EXPECTED_EVENTS", 100)
        assert simulate_poisson([1.0, 0.5], 60.0, seed=1).p == 2  # 90 expected
        with pytest.raises(ValidationError, match="budget"):
            simulate_poisson([1.0, 0.5], 80.0, seed=1)  # 120 expected
        for rates, T in [([1.0], math.inf), ([1.0], math.nan), ([math.inf], 1.0),
                         ([math.nan], 1.0), ([-1.0], 1.0)]:
            with pytest.raises(ValidationError):
                simulate_poisson(rates, T, seed=1)

    def test_ties_and_zero_draws_are_dropped(self, monkeypatch):
        # a tie or a draw at exactly 0, which seeded draws do not show
        class Tied:
            def poisson(self, lam):
                return 5

            def uniform(self, low, high, size):
                return np.array([3.0, 0.0, 1.0, 3.0, 2.0])

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Tied())
        stream = simulate_poisson([1.0, 1.0], 10.0, seed=1)
        assert [seq.tolist() for seq in stream.events] == [[1.0, 2.0, 3.0]] * 2

    def test_determinism(self):
        a = simulate_poisson([2.0, 1.0], 100.0, seed=42)
        b = simulate_poisson([2.0, 1.0], 100.0, seed=42)
        for x, y in zip(a.events, b.events):
            assert np.array_equal(x, y)


class TestHawkes:
    def test_univariate_stationary_rate(self):
        par = HawkesParams.from_dict(UNIVARIATE)
        s = simulate_hawkes(par, 20000.0, seed=5)
        # nu beta / (beta - alpha) = 2; long-run count variance rate S(0) = 8
        rate = s.counts()[0] / s.T
        sigma = np.sqrt(8.0 / s.T)
        assert abs(rate - 2.0) < 0.05
        assert abs(rate - 2.0) < 3.5 * sigma

    def test_degenerate_alpha_is_poisson(self):
        par = HawkesParams(nu=[1.5], alpha=[[0.0]], beta=[[1.0]])
        counts_h = [simulate_hawkes(par, 50.0, seed=1000 + r).counts()[0]
                    for r in range(200)]
        counts_p = [simulate_poisson([1.5], 50.0, seed=5000 + r).counts()[0]
                    for r in range(200)]
        assert sstats.ks_2samp(counts_h, counts_p).pvalue > 0.01

    def test_bivariate_rate_vector(self):
        par = HawkesParams.from_dict(BIVARIATE)
        expected = par.stationary_rate()
        assert expected == pytest.approx([10.0, 10.0])
        s = simulate_hawkes(par, 5000.0, seed=21)
        rates = s.counts() / s.T
        # generous 3 sigma band using the zero-frequency spectrum scale
        sigma = np.sqrt(hawkes_spectrum(par, 0.0)[0, 0].real / s.T)
        assert np.all(np.abs(rates - expected) < 3.0 * sigma)

    def test_unstable_rejected_with_radius(self):
        with pytest.raises(ValidationError, match="spectral radius"):
            HawkesParams(nu=[1.0], alpha=[[2.0]], beta=[[1.0]])

    def test_determinism(self):
        par = HawkesParams.from_dict(UNIVARIATE)
        a = simulate_hawkes(par, 200.0, seed=9)
        b = simulate_hawkes(par, 200.0, seed=9)
        assert np.array_equal(a.events[0], b.events[0])

    def test_event_budget_refuses_before_drawing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("simulator drew events past the budget check")

        monkeypatch.setattr(pointproc, "_simulate_hawkes_rng", no_draw)
        # stationary rate 1e4 per unit time: 1e8 expected events on (0, 1e4]
        par = HawkesParams(nu=[1.0], alpha=[[0.9999]], beta=[[1.0]])
        with pytest.raises(ValidationError, match="budget"):
            simulate_hawkes(par, 1e4, seed=1)
        # 6e6 per segment is within budget; the sum over segments is not
        with pytest.raises(ValidationError, match="budget"):
            simulate_piecewise([((0.0, 600.0), par), ((600.0, 1200.0), par)], seed=1)


def compensator_increments(stream: EventStream, par: HawkesParams) -> list:
    """Compensator increments between consecutive events of each stream.

    With A_ij the decayed count exp(-beta_ij (t - s)) summed over type-j
    events s < t, Lambda_i grows on (t0, t] by nu_i (t - t0) plus
    sum_j alpha_ij / beta_ij A_ij(t0) (1 - exp(-beta_ij (t - t0))): an exact
    O(N) pass over the merged events.
    """
    times = np.concatenate(stream.events)
    marks = np.concatenate([np.full(seq.size, i) for i, seq in enumerate(stream.events)])
    order = np.argsort(times, kind="stable")
    ratio = par.alpha / par.beta
    A = np.zeros((par.p, par.p))
    compensator = np.zeros(par.p)
    at_last_event = np.zeros(par.p)
    t0 = 0.0
    out = []
    for t, m in zip(times[order], marks[order]):
        decay = np.exp(-par.beta * (t - t0))
        compensator += par.nu * (t - t0) + (ratio * A * (1.0 - decay)).sum(axis=1)
        A *= decay
        out.append(compensator[m] - at_last_event[m])
        at_last_event[m] = compensator[m]
        A[:, m] += 1.0
        t0 = t
    return out


class TestTimeRescaling:
    def test_compensator_increments_are_unit_exponential(self):
        # time-rescaling theorem (Brown et al. 2002): under the true model the
        # increments are i.i.d. Exp(1), whatever algorithm drew the events
        par = HawkesParams.from_dict(BIVARIATE)
        increments = []
        for r in range(30):
            stream = simulate_hawkes(par, 200.0, seed=np.random.SeedSequence(7, spawn_key=(r,)))
            increments.extend(compensator_increments(stream, par))
        assert len(increments) > 100_000
        assert sstats.kstest(increments, "expon").pvalue > 0.01


class TestWaveletPower:
    def test_mean_power_matches_hawkes_spectrum(self):
        """Monte Carlo E|w(a, b)|^2 = a lambda^2 |Psi(0)|^2 + a int |Psi(a f)|^2 S(f) df.

        At 1/a = beta / (2 pi) the Morlet band sits where S(f) turns with the
        decay rate: delays 10 % short move the mean power by about 6 %, some
        7 standard errors over 20,000 non-overlapping translations.
        """
        par = HawkesParams.from_dict(UNIVARIATE)
        wav = Wavelet.morlet()
        lam = float(par.stationary_rate()[0])
        a = 2.0 * np.pi / float(par.beta[0, 0])
        # Psi(nu) = int psi(x) e^{-i 2 pi nu x} dx over the truncated, mean-projected wavelet
        x, wx = np.polynomial.legendre.leggauss(400)
        x, wx = x * wav.alpha / 2.0, wx * wav.alpha / 2.0
        psi = wav(x)
        nu = np.linspace(-10.0, 10.0, 16001)
        power = np.abs(np.exp(-2j * np.pi * np.outer(nu, x)) @ (wx * psi)) ** 2
        excess = hawkes_spectrum(par, nu / a)[:, 0, 0].real - lam  # S - lambda decays as 1/f^2
        theory = (a * lam**2 * abs(wx @ psi) ** 2 + lam * (wx @ np.abs(psi) ** 2)
                  + np.trapezoid(power * excess, nu))

        T, burn = 1.0e6, 50.0  # burn-in: the simulation starts with no history
        width = a * wav.alpha
        n_win = int((T - burn) // width)
        t = simulate_hawkes(par, T, seed=2718).events[0]
        t = t[(t >= burn) & (t < burn + n_win * width)]
        k = ((t - burn) // width).astype(int)
        vals = np.conj(wav((t - burn - (k + 0.5) * width) / a)) / np.sqrt(a)
        w = (np.bincount(k, vals.real, n_win) + 1j * np.bincount(k, vals.imag, n_win))
        sample = np.abs(w) ** 2
        se = sample.std(ddof=1) / np.sqrt(n_win)
        assert n_win >= 19_000
        assert abs(sample.mean() - theory) <= 4.0 * se


class TestPiecewise:
    def segments(self):
        ind = HawkesParams(nu=[0.5, 0.5], alpha=[[0.7, 0.0], [0.0, 0.7]],
                           beta=[[1.0, 1.0], [1.0, 1.0]])
        mut = HawkesParams(nu=[0.5, 0.5], alpha=[[0.2, 0.5], [0.5, 0.2]],
                           beta=[[1.0, 1.0], [1.0, 1.0]])
        return [((0.0, 500.0), ind), ((500.0, 1000.0), mut),
                ((1000.0, 1500.0), ind)]

    def test_three_segment_design(self):
        s = simulate_piecewise(self.segments(), seed=13)
        assert s.T == 1500.0
        assert s.p == 2
        # both regimes are rate-matched at 5/3 per stream; the rate sd over
        # T = 1500 is ~0.1 (zero-frequency spectrum ~15), so allow 3.5 sigma
        assert np.all(np.abs(s.counts() / s.T - 5.0 / 3.0) < 0.36)

    def test_single_segment_matches_hawkes(self):
        # simulate_hawkes is the one-segment simulate_piecewise: both draw as one direct call
        par = HawkesParams.from_dict(UNIVARIATE)
        direct = pointproc._simulate_hawkes_rng(par, 300.0, np.random.default_rng(17))
        for stream in (simulate_piecewise([((0.0, 300.0), par)], seed=17),
                       simulate_hawkes(par, 300.0, seed=17)):
            assert np.array_equal(stream.events[0], direct[0])

    def test_gap_rejected(self):
        par = HawkesParams.from_dict(UNIVARIATE)
        with pytest.raises(ValidationError):
            simulate_piecewise([((0.0, 10.0), par), ((11.0, 20.0), par)], seed=1)

    def test_overlap_rejected(self):
        par = HawkesParams.from_dict(UNIVARIATE)
        with pytest.raises(ValidationError):
            simulate_piecewise([((0.0, 10.0), par), ((9.0, 20.0), par)], seed=1)

    @pytest.mark.parametrize("bound", [math.nan, math.inf])
    def test_non_finite_bound_rejected(self, bound):
        # a NaN bound once reached numpy's uniform() and ended in its ValueError
        par = HawkesParams.from_dict(UNIVARIATE)
        with pytest.raises(ValidationError, match="finite"):
            simulate_piecewise([((0.0, 10.0), par), ((10.0, bound), par)], seed=1)
        with pytest.raises(ValidationError, match="finite"):
            simulate_hawkes(par, bound, seed=1)


def event_digest(stream: EventStream) -> tuple:
    """(counts, SHA-256 of every stream's little-endian float64 event bytes in turn)."""
    h = hashlib.sha256()
    for seq in stream.events:
        h.update(np.ascontiguousarray(seq, dtype="<f8").tobytes())
    return stream.counts().tolist(), h.hexdigest()


class TestGoldenDraws:
    """Seeded draws pinned bit for bit: a faster simulator must make the same generator
    calls in the same order, so criterion 11's KS p and the studies' draws CSVs stay put."""

    T_CRIT11 = 466.25802172691306

    @pytest.mark.parametrize("seed, counts, sha", [
        (1, [4404, 4296], "9adff6c8da17038599ec22780a5d529fa5e2fe0c4110de719673a2d449317cf1"),
        (2, [4011, 4048], "7855856540bb58741dafa4ef89fa1612061255f9a1d056fa308418e6b2c5e3dd"),
        (3, [4273, 4297], "ec891179aa1f8380d1c1cd0aa0156c2ff701f87733eee26346d99af93f688214"),
    ])
    def test_bivariate_study_design(self, seed, counts, sha):
        par = HawkesParams.from_dict(studies.BIVARIATE_HAWKES)
        assert event_digest(simulate_hawkes(par, self.T_CRIT11, seed=seed)) == (counts, sha)

    def test_univariate_design(self):
        par = HawkesParams.from_dict(studies.UNIVARIATE_HAWKES)
        assert event_digest(simulate_hawkes(par, 500.0, seed=7)) == (
            [965], "c8572acc6863c1fed6a402883243ea4f9c80577a8111036bfb31f533947012ee")

    def test_piecewise_design(self):
        assert event_digest(simulate_piecewise(studies.piecewise_segments(), seed=11)) == (
            [2281, 2435], "95d4417d2169e6047d05f737c40455f04ace5ede5e7bbf33f504140ebbac910b")

    def test_empty_stream(self):
        # stream 2 has no immigrants and no parents: an empty parent set from the start
        par = HawkesParams(nu=[1.0, 0.0], alpha=[[0.5, 0.0], [0.0, 0.0]], beta=1.0)
        assert event_digest(simulate_hawkes(par, 300.0, seed=5)) == (
            [603, 0], "bd8444fe2bece10740cad69ff64882439750b792d711ac04387cf9b0a62b19a6")

    def test_poisson(self):
        assert event_digest(simulate_poisson([2.0, 2.0], 1500.0, seed=4)) == (
            [3115, 3025], "bebb475bb1f05438328e83291411ee222c639d770cf55f1e4f16a937955e640c")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_matches_the_per_pair_filter_loop(self, p, seed):
        # random designs, some streams without immigrants or offspring
        rng = np.random.default_rng(seed)
        nu = rng.choice([0.0, 0.5, 2.0], p)
        ratio = rng.uniform(0.0, 0.9 / p, (p, p)) * (rng.uniform(size=(p, p)) < 0.7)
        beta = rng.uniform(0.5, 2.0, (p, p))
        par = HawkesParams(nu=nu, alpha=ratio * beta, beta=beta)  # spectral radius < 0.9
        draws = pointproc._simulate_hawkes_rng(par, 60.0, np.random.default_rng(seed))
        expected = hawkes_per_pair_filter(par, 60.0, np.random.default_rng(seed))
        assert all(np.array_equal(x, y) for x, y in zip(draws, expected, strict=True))

    def test_size_zero_draws_take_nothing_from_the_generator(self):
        # the Hawkes simulator skips an empty parent set on this numpy behaviour
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert rng.poisson(0.5, 0).size == 0 and rng.exponential(1.0, 0).size == 0
        assert rng.bit_generator.state == state


class TestSpectrum:
    def test_univariate_closed_form_at_zero(self):
        par = HawkesParams.from_dict(UNIVARIATE)
        assert hawkes_spectrum(par, 0.0)[0, 0].real == pytest.approx(8.0, abs=1e-12)

    def test_univariate_closed_form_on_grid(self):
        # Bartlett matrix form against the scalar formula
        par = HawkesParams.from_dict(UNIVARIATE)
        nu, al, be = 1.0, 0.5, 1.0
        for f in np.linspace(0.0, 2.0, 21):
            expected = nu * be / (be - al) * (
                1.0 + al * (2 * be - al) / ((be - al) ** 2 + (2 * np.pi * f) ** 2))
            assert hawkes_spectrum(par, f)[0, 0].real == pytest.approx(expected, rel=1e-12)

    def test_alpha_zero_flat(self):
        par = HawkesParams(nu=[1.0, 2.0], alpha=np.zeros((2, 2)), beta=np.ones((2, 2)))
        for f in [0.0, 0.3, 5.0]:
            assert hawkes_spectrum(par, f) == pytest.approx(np.diag([1.0, 2.0]))
        assert poisson_spectrum([1.0, 2.0]) == pytest.approx(np.diag([1.0, 2.0]))

    def test_decoupled_matches_univariate(self):
        par2 = HawkesParams(nu=[1.0, 1.0], alpha=[[0.5, 0.0], [0.0, 0.5]],
                            beta=[[1.0, 1.0], [1.0, 1.0]])
        par1 = HawkesParams.from_dict(UNIVARIATE)
        for f in np.linspace(0.01, 1.0, 7):
            S2 = hawkes_spectrum(par2, f)
            S1 = hawkes_spectrum(par1, f)[0, 0]
            assert S2[0, 0] == pytest.approx(S1, rel=1e-12)
            assert abs(S2[0, 1]) < 1e-12

    def test_hermitian_psd_on_grid(self):
        par = HawkesParams.from_dict(BIVARIATE)
        S = hawkes_spectrum(par, np.linspace(0.0, 3.0, 100))
        for k in range(S.shape[0]):
            assert np.abs(S[k] - S[k].conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(S[k]).min() >= -1e-12


class TestCoherenceTheoretical:
    def test_independent_zero(self):
        par = HawkesParams(nu=[1.0, 1.0], alpha=[[0.5, 0.0], [0.0, 0.5]],
                           beta=[[1.0, 1.0], [1.0, 1.0]])
        assert coherence_theoretical(par, 0.2, 0, 1) == pytest.approx(0.0, abs=1e-20)

    def test_self_coherence_one(self):
        par = HawkesParams.from_dict(BIVARIATE)
        assert coherence_theoretical(par, 0.2, 0, 0) == pytest.approx(1.0)

    def test_decays_to_zero(self):
        par = HawkesParams.from_dict(BIVARIATE)
        grid = np.linspace(0.0, 1.0, 21)
        rho = coherence_theoretical(par, grid, 0, 1)
        assert np.all((rho >= 0.0) & (rho <= 1.0))
        assert 0.0 < rho[0] < 1.0
        assert np.all(np.diff(rho) < 1e-12)  # nonincreasing on this grid
        assert rho[-1] < 0.01


class TestTwoSegmentSize:
    def test_identical_segments_reject_near_nominal(self):
        # piecewise stream whose two halves share parameters: the
        # stationarity test at j=1 should reject at roughly its level
        from eventspec import StationarityConfig, stationarity_test
        par = HawkesParams(nu=[1.0], alpha=[[0.3]], beta=[[1.0]])
        config = StationarityConfig(kappa=8.0, c=0.25, J=1)
        rejections = 0
        n_rep = 150
        for r in range(n_rep):
            stream = simulate_piecewise(
                [((0.0, 500.0), par), ((500.0, 1000.0), par)], seed=3000 + r)
            rep = stationarity_test(stream, config)
            if rep.scales[0].p_value < 0.05:
                rejections += 1
        # 99% binomial band around 0.05 for 150 draws, padded for the
        # asymptotic approximation error
        assert 0.005 <= rejections / n_rep <= 0.13


class TestCsvLimits:
    @pytest.mark.parametrize("text", ["# p=1000000000 T=10.0\n",
                                      f"{pointproc.MAX_STREAMS + 1},1.0\n"])
    def test_stream_count_above_cap_refused_before_allocation(self, tmp_path, monkeypatch,
                                                              text):
        def refuse(*args, **kwargs):
            raise AssertionError("streams allocated")

        monkeypatch.setattr(pointproc, "EventStream", refuse)
        monkeypatch.setattr(np, "split", refuse)
        path = tmp_path / "wide.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=str(pointproc.MAX_STREAMS)):
            load_csv(path)

    def test_stream_count_at_cap_loads(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(f"# p={pointproc.MAX_STREAMS} T=10.0\n3,1.5\n")
        stream = load_csv(path)
        assert stream.p == pointproc.MAX_STREAMS and stream.counts().sum() == 1

    def test_row_count_capped(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pointproc, "MAX_EXPECTED_EVENTS", 3)
        path = tmp_path / "long.csv"
        path.write_text("# p=1 T=10.0\n1,1.0\n1,2.0\n\n1,3.0\n")
        assert load_csv(path).counts().tolist() == [3]
        with open(path, "a") as fh:
            fh.write("1,4.0\n")
        with pytest.raises(ParseError, match="line 6: more than 3 events"):
            load_csv(path)

    def test_malformed_header_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# p=two T=10.0\n1,1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            load_csv(path)

    def test_grouping_matches_per_stream_sort(self, tmp_path):
        # the earlier reader sorted each stream's rows separately: the oracle
        rng = np.random.default_rng(5)
        idx = rng.integers(1, 8, 3000).tolist()
        times = rng.uniform(0.0, 50.0, 3000).tolist()
        path = tmp_path / "mixed.csv"
        path.write_text("# p=9 T=50.0\n" + "".join(f"{i},{t!r}\n" for i, t in zip(idx, times)))
        expected = [sorted(t for i, t in zip(idx, times) if i == k + 1) for k in range(9)]
        assert [seq.tolist() for seq in load_csv(path).events] == expected


class TestHawkesParamsInput:
    @pytest.mark.parametrize("cfg", [5, [1.0], None, dict(nu=["x"], alpha=0.5, beta=1.0),
                                     dict(nu=[1.0], alpha=[[0.5], [0.1, 0.2]], beta=1.0)])
    def test_unreadable_params_are_config_error(self, cfg):
        with pytest.raises(ConfigError):
            HawkesParams.from_dict(cfg)

    @pytest.mark.parametrize("cfg", [dict(nu=[1.0, 1.0], alpha=[0.1, 0.2, 0.3], beta=1.0),
                                     dict(nu=[1.0], alpha=np.zeros((2, 1, 1)), beta=1.0),
                                     dict(nu=[], alpha=[], beta=[]),
                                     dict(nu=[float("nan")], alpha=0.5, beta=1.0),
                                     dict(nu=[1.0], alpha=float("inf"), beta=1.0),
                                     dict(nu=[1.0], beta=1.0)])
    def test_params_that_break_the_model_are_validation_errors(self, cfg):
        with pytest.raises(ValidationError):
            HawkesParams.from_dict(cfg)
