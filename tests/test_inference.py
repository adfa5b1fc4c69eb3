import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats
from scipy.integrate import quad
from scipy.special import betainc

from eventspec import (CoherenceDistribution, ConfigError,
                       DegenerateSegmentError, EventStream, Flavor,
                       StationarityConfig, ValidationError, chi2_sf, lrt_statistic,
                       null_percentile, simulate_poisson, stationarity_test)
from eventspec.inference import stationarity_tests


def hyp2f1_exact(a1: Fraction, a2: Fraction, b1: Fraction, z: Fraction,
                 terms: int = 2000) -> float:
    """Exact-rational partial sum of the Gauss series (independent oracle)."""
    total = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        total += term
        term *= (a1 + k) * (a2 + k) * z
        term /= (b1 + k) * (k + 1)
    return float(total)


class TestHyp2f1:
    def test_high_precision_oracle(self):
        # the density's hypergeometric factor at z = rho2 x = 0.3, against the exact series
        n = Fraction(433, 100)
        got = CoherenceDistribution(n=4.33, rho2=0.5).pdf(0.6)
        expected = 3.33 * 0.5**4.33 * 0.4**2.33 * hyp2f1_exact(n, n, Fraction(1), Fraction(3, 10))
        assert got == pytest.approx(expected, abs=1e-10)


class TestCoherenceDensity:
    def test_complex_null_is_beta(self):
        n = 8.31
        dist = CoherenceDistribution(n=n, rho2=0.0, flavor=Flavor.COMPLEX)
        xs = np.linspace(0.0, 0.95, 20)
        expected = (n - 1.0) * (1.0 - xs) ** (n - 2.0)
        assert np.abs(dist.pdf(xs) - expected).max() < 1e-12

    def test_real_null_is_beta_half(self):
        dist = CoherenceDistribution(n=10.0, rho2=0.0, flavor=Flavor.REAL)
        xs = np.linspace(0.01, 0.95, 20)
        expected = sstats.beta(0.5, 4.5).pdf(xs)
        assert np.abs(dist.pdf(xs) - expected).max() < 1e-10

    @pytest.mark.parametrize("flavor", [Flavor.COMPLEX, Flavor.REAL])
    @pytest.mark.parametrize("n", [4.0, 8.31, 10.0, 11.57])
    @pytest.mark.parametrize("rho2", [0.0, 0.4, 0.8])
    def test_integrates_to_one(self, flavor, n, rho2):
        dist = CoherenceDistribution(n=n, rho2=rho2, flavor=flavor)
        # substitute x = y^2 to regularize the real flavor's x^(-1/2)
        value, err = quad(lambda y: dist.pdf(y * y) * 2.0 * y, 0.0, 1.0,
                          limit=300)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_domain_error(self):
        dist = CoherenceDistribution(n=8.0, rho2=0.0)
        with pytest.raises(ValidationError):
            dist.pdf(1.0)
        with pytest.raises(ValidationError):
            dist.pdf(-0.1)

    def test_cdf_matches_quadrature(self):
        dist = CoherenceDistribution(n=8.31, rho2=0.4, flavor=Flavor.COMPLEX)
        for x in [0.1, 0.45, 0.9]:
            direct, _ = quad(lambda y: dist.pdf(y * y) * 2.0 * y, 0.0,
                             np.sqrt(x), limit=200)
            assert dist.cdf(x) == pytest.approx(direct, abs=1e-6)

    @pytest.mark.parametrize("flavor, n", [(Flavor.REAL, 2.0), (Flavor.REAL, 2.5),
                                           (Flavor.COMPLEX, 1.5)])
    def test_cdf_grid_refuses_unbounded_integrand(self, flavor, n):
        # the trapezoid rule in y = sqrt(x) was off by up to 0.55 here
        with pytest.raises(ValidationError, match="cdf_grid"):
            CoherenceDistribution(n=n, rho2=0.4, flavor=flavor).cdf(0.5)

    @pytest.mark.parametrize("flavor, n", [(Flavor.REAL, 2.0), (Flavor.COMPLEX, 1.5)])
    def test_null_cdf_at_small_n_matches_quadrature(self, flavor, n):
        dist = CoherenceDistribution(n=n, rho2=0.0, flavor=flavor)
        for x in [0.1, 0.5, 0.9]:
            direct, _ = quad(lambda y: dist.pdf(y * y) * 2.0 * y, 0.0, np.sqrt(x), limit=200)
            assert dist.cdf(x) == pytest.approx(direct, abs=1e-8)
        assert list(dist.cdf([-0.5, 0.0, 1.0, 1.5])) == [0.0, 0.0, 1.0, 1.0]


class TestNullPercentile:
    def test_morlet_kappa10_percentile(self, morlet_sys10):
        n = morlet_sys10.degrees_of_freedom()
        assert null_percentile(Flavor.COMPLEX, n, 0.95) == pytest.approx(
            0.593, abs=0.01)

    def test_uniform_case(self):
        assert null_percentile(Flavor.COMPLEX, 2.0, 0.95) == pytest.approx(
            0.95, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(flavor=st.sampled_from(list(Flavor)), n=st.floats(2.0, 200.0),
           q=st.floats(0.001, 0.999))
    def test_closed_form_inverts_cdf(self, flavor, n, q):
        # at rho2 = 0 cdf is the closed form, so it inverts null_percentile to rounding
        x = null_percentile(flavor, n, q)
        assert CoherenceDistribution(n, 0.0, flavor).cdf(x) == pytest.approx(q, abs=1e-13)

    def test_real_median_against_density_quadrature(self):
        n = 10.0
        got = null_percentile(Flavor.REAL, n, 0.5)
        dist = CoherenceDistribution(n=n, rho2=0.0, flavor=Flavor.REAL)
        from scipy.optimize import brentq
        target = brentq(
            lambda x: quad(lambda y: dist.pdf(y * y) * 2 * y, 0, np.sqrt(x),
                           limit=200)[0] - 0.5, 1e-9, 1 - 1e-9, xtol=1e-12)
        assert got == pytest.approx(target, abs=1e-8)


class TestChi2Sf:
    def test_at_zero(self):
        assert chi2_sf(0.0, 3.0) == 1.0

    def test_exponential_case(self):
        assert chi2_sf(2 * np.log(20.0), 2.0) == pytest.approx(0.05, abs=1e-10)

    def test_table_quantile(self):
        assert chi2_sf(7.8147, 3.0) == pytest.approx(0.05, abs=1e-4)

    def test_matches_scipy(self):
        for dof in [1.0, 4.0, 28.0]:
            for x in [0.5, 3.0, 30.0]:
                assert chi2_sf(x, dof) == pytest.approx(
                    sstats.chi2(dof).sf(x), abs=1e-12)


class TestLrtStatistic:
    def rand_psd(self, rng, p=2):
        m = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
        return m @ m.conj().T + 0.5 * np.eye(p)

    def test_identical_inputs_zero(self, rng):
        b = self.rand_psd(rng)
        assert lrt_statistic([b, b, b, b], 8.31) == pytest.approx(0.0, abs=1e-10)

    def test_scalar_case_formula(self):
        n, b1, b2 = 7.7, 2.0, 3.5
        got = lrt_statistic([np.array([[b1]]), np.array([[b2]])], n)
        expected = -2 * n * (2 * np.log(2) + np.log(b1) + np.log(b2)
                             - 2 * np.log(b1 + b2))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_scale_invariance(self, rng):
        mats = [self.rand_psd(rng) for _ in range(4)]
        s1 = lrt_statistic(mats, 10.0)
        s2 = lrt_statistic([7.3 * m for m in mats], 10.0)
        assert s1 == pytest.approx(s2, rel=1e-10)

    def test_nonnegative_and_positive_when_unequal(self, rng):
        for _ in range(20):
            mats = [self.rand_psd(rng) for _ in range(3)]
            stat = lrt_statistic(mats, 5.0)
            assert stat >= 0.0
            assert stat > 1e-10  # random draws essentially never tie

    def test_real_flavor_halves_exponent(self, rng):
        mats = [self.rand_psd(rng).real + 2 * np.eye(2) for _ in range(2)]
        full = lrt_statistic(mats, 9.0, Flavor.COMPLEX)
        half = lrt_statistic(mats, 9.0, Flavor.REAL)
        assert half == pytest.approx(full / 2.0, rel=1e-12)

    def test_singular_matrix_names_segment(self):
        good = np.eye(2)
        bad = np.zeros((2, 2))
        with pytest.raises(DegenerateSegmentError, match="segment 2"):
            lrt_statistic([good, bad], 5.0)

    def test_needs_two_segments(self):
        with pytest.raises(ValidationError):
            lrt_statistic([np.eye(2)], 5.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=st.integers(1, 4), K=st.integers(2, 8), n=st.floats(2.0, 50.0),
           flavor=st.sampled_from(list(Flavor)), seed=st.integers(0, 2**32 - 1))
    def test_invariant_to_segment_order_and_common_congruence(self, p, K, n, flavor, seed):
        # the statistic sees the segments only through det(B_k) / det(sum B): reordering
        # them, or one congruence B_k -> C B_k C^H of all of them, leaves it unchanged
        rng = np.random.default_rng(seed)
        real = flavor is Flavor.REAL

        def gauss(*shape):
            z = rng.normal(size=shape)
            return z if real else z + 1j * rng.normal(size=shape)

        mats = [g @ g.conj().T / (p + 2) for g in (gauss(p, p + 2) for _ in range(K))]
        c = gauss(p, p) + 2.0 * np.eye(p)
        stat = lrt_statistic(mats, n, flavor)
        tol = dict(rel=1e-9, abs=1e-9 * n * K * p)
        assert lrt_statistic([mats[k] for k in rng.permutation(K)], n, flavor) == \
            pytest.approx(stat, **tol)
        assert lrt_statistic([c @ m @ c.conj().T for m in mats], n, flavor) == \
            pytest.approx(stat, **tol)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(R=st.integers(1, 6), p=st.integers(1, 4), K=st.integers(2, 8), n=st.floats(2.0, 50.0),
           flavor=st.sampled_from(list(Flavor)), seed=st.integers(0, 2**32 - 1))
    def test_stack_equals_one_call_per_replicate(self, R, p, K, n, flavor, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(R, K, p, p + 2))
        if flavor is Flavor.COMPLEX:
            g = g + 1j * rng.normal(size=g.shape)
        stack = g @ np.conj(np.swapaxes(g, -1, -2)) / (p + 2)
        stats = lrt_statistic(stack, n, flavor)
        assert stats.shape == (R,)
        assert stats.tolist() == [lrt_statistic(mats, n, flavor) for mats in stack]
        # one singular member: the stack raises what its replicate's own call raises
        r, k = rng.integers(R), rng.integers(K)
        stack[r, k] = 0.0
        with pytest.raises(DegenerateSegmentError) as alone:
            lrt_statistic(stack[r], n, flavor)
        with pytest.raises(DegenerateSegmentError) as batched:
            lrt_statistic(stack, n, flavor)
        assert batched.value.segment == alone.value.segment == k + 1
        assert str(batched.value) == str(alone.value)


class TestStationarityTest:
    def test_report_structure(self):
        stream = simulate_poisson([2.0, 2.0], 1500.0, seed=3)
        report = stationarity_test(stream, StationarityConfig(J=3))
        assert [s.dof for s in report.scales] == [4, 12, 28]
        assert [s.n_segments for s in report.scales] == [2, 4, 8]
        assert report.combined_dof == 44  # p^2 (2^(J+1) - 2 - J)
        total = sum(s.statistic for s in report.scales)
        assert report.combined_statistic == pytest.approx(total, rel=1e-12)
        for s in report.scales:
            assert 0.0 < s.p_value < 1.0

    def test_report_matches_spline_oracle_route(self, monkeypatch, spline_oracle_transforms):
        from eventspec import inference
        stream = simulate_poisson([2.0, 2.0], 1500.0, seed=3)
        config = StationarityConfig(kappa=6.0, J=3)
        report = stationarity_test(stream, config)
        monkeypatch.setattr(inference, "eigen_transforms", spline_oracle_transforms)
        oracle = stationarity_test(stream, config)
        # the oracle evaluated every segment centre of every scale: 2 + 4 + 8
        width = config.resolve_system(stream.T).width
        assert spline_oracle_transforms.calls == [
            (stream.T / (2**j * width), (2 * k - 1) * stream.T / 2 ** (j + 1))
            for j in (1, 2, 3) for k in range(1, 2**j + 1)]
        got = [(s.statistic, s.p_value) for s in report.scales]
        ref = [(s.statistic, s.p_value) for s in oracle.scales]
        got.append((report.combined_statistic, report.combined_p_value))
        ref.append((oracle.combined_statistic, oracle.combined_p_value))
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
        assert report.meta == oracle.meta

    def test_combined_dof_formula(self):
        stream = simulate_poisson([1.5], 2000.0, seed=4)
        for J in [1, 2, 4]:
            report = stationarity_test(stream, StationarityConfig(J=J))
            assert report.combined_dof == 1 * (2 ** (J + 1) - 2 - J)

    def test_j1_dof_is_p_squared(self):
        stream = simulate_poisson([2.0, 2.0], 1000.0, seed=5)
        report = stationarity_test(stream, StationarityConfig(J=1))
        assert report.scales[0].dof == 4

    def test_na_policy_for_empty_segment(self):
        # all events in the first half: at every scale some segment has a
        # singular periodogram, so every scale is NA and the combined test
        # degrades gracefully
        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(1.0, 500.0, 300))
        stream = EventStream([times, times + 0.25], T=1500.0)
        report = stationarity_test(stream, StationarityConfig(J=2))
        assert any(not s.valid for s in report.scales)
        excluded = [s.j for s in report.scales if not s.valid]
        assert report.meta["excluded_scales"] == excluded
        included_dof = sum(s.dof for s in report.scales if s.valid)
        assert report.combined_dof == included_dof

    def test_json_round_trip(self):
        import json
        stream = simulate_poisson([2.0, 2.0], 1500.0, seed=6)
        report = stationarity_test(stream, StationarityConfig(J=2))
        doc = json.loads(report.to_json())
        assert doc["combined"]["dof"] == report.combined_dof
        assert len(doc["scales"]) == 2
        assert doc["meta"]["c"] == 0.25

    def test_config_validation(self):
        stream = simulate_poisson([2.0], 100.0, seed=7)
        with pytest.raises(ConfigError):
            stationarity_test(stream, StationarityConfig(J=0))
        with pytest.raises(ConfigError):
            stationarity_test(stream, StationarityConfig(c=0.5))
        with pytest.raises(ConfigError):
            stationarity_test(stream, StationarityConfig(kappa=-1.0))

    def test_real_flavor_with_mexhat(self, mexhat):
        stream = simulate_poisson([2.0, 2.0], 1500.0, seed=8)
        report = stationarity_test(stream, StationarityConfig(
            wavelet=mexhat, J=2))
        assert report.meta["flavor"] == "real"
        assert all(s.p_value is not None for s in report.scales)

    def test_reused_config_resolves_each_horizon(self):
        config = StationarityConfig(kappa=8.0, c=0.25, n_points=128)
        for T in (100.0, 1500.0):
            system = config.resolve_system(T)
            assert system.window.kappa == pytest.approx(8.0 * T**0.25)
        assert "system" not in {f.name for f in dataclasses.fields(StationarityConfig)}

    def test_result_independent_of_earlier_config(self):
        long = simulate_poisson([2.0, 2.0], 1500.0, seed=8)
        short = simulate_poisson([2.0, 2.0], 100.0, seed=8)
        config = StationarityConfig(kappa=8.0, J=2, n_points=128)
        alone = stationarity_test(long, config).to_dict()
        stationarity_test(short, config)
        stationarity_test(long, dataclasses.replace(config, kappa=6.0))
        after = stationarity_test(long, config).to_dict()
        assert after == alone
        assert after["meta"]["kappa_tilde"] == pytest.approx(8.0 * 1500.0**0.25)

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            StationarityConfig().kappa = 6.0


def bisection_percentile(n: float, q: float) -> float:
    """Real-flavor null quantile by bisection on Beta(1/2, (n-1)/2) (oracle)."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if betainc(0.5, (n - 1.0) / 2.0, mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", [4.335, 8.31, 11.57, 50.0])
@pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
def test_real_null_percentile_matches_bisection(n, q):
    assert abs(null_percentile(Flavor.REAL, n, q) - bisection_percentile(n, q)) < 1e-12


@pytest.fixture(scope="module")
def size_study():
    from eventspec.studies import run_test_size
    summary, _ = run_test_size(rates=(4.0, 4.0), T=1500.0, kappa=6.0, c=0.25,
                               J=3, replicates=500, seed=1)
    return summary


@pytest.fixture(scope="module")
def criterion9_study():
    from eventspec.studies import run_test_size
    summary, _ = run_test_size(rates=(2.0, 2.0), T=1500.0, kappa=6.0, c=0.25,
                               J=3, replicates=500, seed=20252)
    return summary


class TestNullStatisticDistribution:
    """-2 log Lambda_j against chi2_{nu_j} under a Poisson null at T=1500."""

    def test_chi2_ks_coarse_scales(self, size_study):
        # j = 1, 2: the chi-squared approximation error sits below the KS
        # resolution of 500 replicates
        assert size_study["chi2_ks_p"][0] > 0.01
        assert size_study["chi2_ks_p"][1] > 0.01

    @pytest.mark.xfail(
        strict=True,
        reason="At the finest tested scale (j=3, K=8 segments) the plain "
               "likelihood-ratio statistic carries the classical O(1/n) "
               "mean inflation (~5% here, no Bartlett correction in the "
               "method), which 500 replicates resolve: KS p ~ 1e-3 across "
               "seeds at T=1500. Consistent with the stated O(T^(-1/4)) "
               "convergence; the 5% rejection rate itself stays within the "
               "binomial band (acceptance criterion 9).")
    def test_chi2_ks_finest_scale(self, size_study):
        assert size_study["chi2_ks_p"][2] > 0.01

    @pytest.mark.xfail(
        strict=True,
        reason="On the criterion-9 design (Poisson rates (2, 2), T=1500, "
               "kappa=6, 500 replicates, seed 20252) the plain statistic "
               "misfits chi2 at j=2 (K=4 segments) too: KS p = 1.4e-4, "
               "printed as 0.000 by criterion 9, while the rates-(4, 4) "
               "design above passes at j=2. The plain LRT carries the same "
               "O(1/n) inflation as at the finest scale; the rejection rate "
               "itself stays within the criterion-9 band.")
    def test_chi2_ks_middle_scale_criterion9_design(self, criterion9_study):
        assert criterion9_study["chi2_ks_p"][1] > 0.01


def test_rejection_rate_counts_only_defined_p_values():
    # rates 0.2 on T = 100 leave j = 3 singular in some replicates, not all: its size is
    # the share of rejections among the replicates with a p-value (it was over all of them)
    from eventspec.studies import _lrt_replicates
    config = StationarityConfig(kappa=6.0, c=0.25, J=3)
    _, pvals, rates, _ = _lrt_replicates(
        lambda sq: simulate_poisson([0.2, 0.2], 100.0, seed=sq), config, 8, 3, 0.05)
    defined = ~np.isnan(pvals)
    assert 0 < defined[:, 2].sum() < 8
    assert rates == [float(np.mean(pvals[defined[:, j], j] < 0.05)) for j in range(3)]


class TestBatchedStationarityTests:
    """stationarity_tests over batches of 1 to 3 replicates of the rates-0.2, T = 100
    design, where some replicates exclude j = 3, against one-at-a-time calls."""

    CONFIG = StationarityConfig(kappa=6.0, c=0.25, J=3)

    @staticmethod
    def make(sq):
        return simulate_poisson([0.2, 0.2], 100.0, seed=sq)

    @pytest.fixture()
    def studies(self, monkeypatch):
        from eventspec import studies
        monkeypatch.setattr(studies, "BATCH_EVENTS", 105)  # a replicate holds 31 to 52 events
        return studies

    def test_batches_match_one_at_a_time(self, studies):
        batches = []

        def statistic(batch):
            reports = stationarity_tests(batch, self.CONFIG)
            batches.append([r.meta["excluded_scales"] for r in reports])
            return list(zip(batch, reports))

        results = studies._replicates(self.make, statistic, 30, 3)
        assert sorted({len(b) for b in batches}) == [1, 2, 3]
        # j = 3 is excluded in some replicates, and shares a batch with one that keeps it
        assert any([3] in b and [] in b for b in batches)
        for stream, report in results:
            alone = stationarity_test(stream, self.CONFIG)
            got = [s.statistic for s in report.scales] + [report.combined_statistic]
            ref = [s.statistic for s in alone.scales] + [alone.combined_statistic]
            assert [v is None for v in got] == [v is None for v in ref]
            assert np.allclose([v for v in got if v is not None], [v for v in ref if v is not None],
                               rtol=1e-13, atol=0.0)
            # a p-value is chi2_sf of its statistic, so it moves only where the statistic does
            assert [(s.valid, s.note) for s in report.scales] == \
                [(s.valid, s.note) for s in alone.scales]
            for s, one in zip(report.scales, alone.scales):
                if s.valid:
                    assert s.p_value == chi2_sf(s.statistic, s.dof)
                    assert s.p_value == one.p_value or s.statistic != one.statistic
            assert report.meta == alone.meta

    @pytest.mark.parametrize("budget", [40, 105])
    def test_only_a_lone_replicate_exceeds_the_budget(self, studies, budget):
        studies.BATCH_EVENTS = budget
        batches = []
        values = studies._replicates(
            self.make, lambda batch: batches.append([int(s.counts().sum()) for s in batch])
            or list(range(len(batch))), 30, 3)
        assert len(values) == 30 and sum(map(len, batches)) == 30
        assert all(len(b) == 1 or sum(b) <= budget for b in batches)
        # at 40 every pair is over the budget and some replicates are too, each alone
        assert any(sum(b) > budget for b in batches) == (budget == 40)

    def test_statistics_do_not_depend_on_the_replicate_count(self, studies):
        short = studies._lrt_replicates(self.make, self.CONFIG, 3, 3, 0.05)[0]
        long = studies._lrt_replicates(self.make, self.CONFIG, 30, 3, 0.05)[0]
        np.testing.assert_allclose(long[:3], short, rtol=1e-13, atol=0.0)

    def test_mixed_horizon_or_dimension_refused(self):
        stream = simulate_poisson([1.0, 1.0], 100.0, seed=1)
        for other in (simulate_poisson([1.0, 1.0], 200.0, seed=2),
                      simulate_poisson([1.0], 100.0, seed=2)):
            with pytest.raises(ValidationError):
                stationarity_tests([stream, other], self.CONFIG)
        with pytest.raises(ValidationError):
            stationarity_tests([], self.CONFIG)


def test_more_streams_than_eigen_wavelets_refused_before_any_transform(monkeypatch):
    # a segment's Omega has rank at most L = n_retained: at p = L + 1 every scale was excluded
    config = StationarityConfig(J=1)
    L = config.resolve_system(100.0).n_retained
    assert stationarity_test(simulate_poisson([1.0] * L, 100.0, seed=1), config).meta["p"] == L

    def refuse(*args, **kwargs):
        raise AssertionError("eigen_transforms called")

    from eventspec import inference
    monkeypatch.setattr(inference, "eigen_transforms", refuse)
    stream = simulate_poisson([1.0] * (L + 1), 100.0, seed=1)
    with pytest.raises(ConfigError, match=rf"p={L + 1} .* L={L} .* kappa_tilde=25\.2982"):
        stationarity_test(stream, config)


def test_piecewise_verdict_is_null_without_a_rate(monkeypatch):
    from types import SimpleNamespace

    from eventspec import studies
    first = SimpleNamespace(meta={"dof_n": 10.0})
    for rates, passed in (([0.6, 0.2, 0.1], True), ([0.6, 0.2, None], None),
                          ([None, 0.2, 0.1], None)):
        monkeypatch.setattr(studies, "_lrt_replicates",
                            lambda *args: (None, np.zeros((1, 3)), rates, first))
        out, _ = studies.run_piecewise_detection(replicates=1)
        assert out["rejection_rates"] == rates and out["passed"] is passed
