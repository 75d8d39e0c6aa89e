import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenwave import estimators
from eigenwave.estimators import (COUNT_WEIGHTED, UNIFORM, EstimationResult,
                                  OctaveRangeError, effective_dimension,
                                  estimate_series, hurst_exponents,
                                  kappa_sweep, regression_weights,
                                  scaling_diagnostic, scaling_exponents,
                                  write_result_csv, result_to_json)
from eigenwave.simulate import (OfBmSpec, cumulative_path,
                                synthesize_ofbm_increments)
from eigenwave.spectrum import LogEigenSpectrum, log_eigen_spectrum
from eigenwave.wavelets import make_filter_bank, pyramid_transform, valid_count
from oracles import kappa_sweep_reference, scaling_diagnostic_reference


# The analysis defaults of config.SCHEMA, passed to every estimate_series call
FLOOR = 1e-10
ANALYSIS = {"scheme": COUNT_WEIGHTED, "floor": FLOOR, "kappa": 0.3}


def spectrum_from_lambdas(lambdas, counts=None):
    """LogEigenSpectrum directly from an (octaves, p) eigenvalue table."""
    lam = np.atleast_2d(np.asarray(lambdas, dtype=np.float64))
    m, p = lam.shape
    flags = lam < FLOOR
    with np.errstate(divide="ignore"):
        log2 = np.where(flags, np.nan, np.log2(np.where(flags, 1.0, lam)))
    if counts is None:
        counts = tuple(64 for _ in range(m))
    return LogEigenSpectrum(counts=tuple(counts), log2_eigenvalues=log2, zero_flags=flags)


def random_spectrum(seed, octaves, p=12):
    """A spectrum with log2 eigenvalues in [-30, 40], about 5% of them zero
    (flagged), and random positive per-octave counts."""
    rng = np.random.default_rng(seed)
    lam = 2.0 ** rng.uniform(-30.0, 40.0, size=(octaves, p))
    lam[rng.random(lam.shape) < 0.05] = 0.0
    return spectrum_from_lambdas(lam, counts=rng.integers(1, 100_000, size=octaves))


SPECTRA = dict(j1=st.integers(1, 8), octaves=st.integers(2, 12), seed=st.integers(0, 2 ** 31))


class TestRegressionWeights:
    def test_uniform_three_octaves(self):
        # solving the 2x2 normal equations by hand for j = 1, 2, 3
        wts = regression_weights(1, 3, counts=[9, 5, 1], scheme=UNIFORM)
        np.testing.assert_allclose(wts, [-0.5, 0.0, 0.5], atol=1e-15)

    def test_counts_are_required(self):
        # without counts the count scheme would weight every octave by NaN
        with pytest.raises(TypeError, match="counts"):
            regression_weights(1, 3)

    def test_count_weighted_equals_uniform_for_equal_counts(self):
        for j1, j2 in [(1, 4), (3, 9), (2, 3)]:
            counts = [100] * (j2 - j1 + 1)
            uni = regression_weights(j1, j2, counts=counts, scheme=UNIFORM)
            cnt = regression_weights(j1, j2, counts=counts, scheme=COUNT_WEIGHTED)
            np.testing.assert_allclose(cnt, uni, atol=1e-12)

    @given(j1=st.integers(1, 11), width=st.integers(1, 11),
           seed=st.integers(0, 2 ** 31))
    @settings(max_examples=80, deadline=None)
    def test_constraints_hold(self, j1, width, seed):
        j2 = j1 + width
        if j2 > 12:
            return
        js = np.arange(j1, j2 + 1)
        counts = np.random.default_rng(seed).integers(1, 10_000, size=js.size)
        for scheme in (UNIFORM, COUNT_WEIGHTED):
            wts = regression_weights(j1, j2, counts=counts, scheme=scheme)
            assert abs(wts.sum()) < 1e-12
            assert abs((js * wts).sum() - 1.0) < 1e-12


class TestScalingExponents:
    def test_exact_power_law_recovers_h(self):
        # lambda = 2^{j(2h+1)} xi: the offset cancels through sum w = 0 and
        # the slope is pinned by sum j w = 1, for any valid weights.
        h, xi = 0.35, 2.7
        js = np.arange(2, 7)
        lam = np.array([[xi * 2.0 ** (j * (2 * h + 1))] for j in js])
        counts = (500, 250, 125, 60, 30)
        spec = spectrum_from_lambdas(lam, counts=counts)
        for scheme in (UNIFORM, COUNT_WEIGHTED):
            wts = regression_weights(2, 6, counts=counts, scheme=scheme)
            ell = scaling_exponents(spec, wts)
            assert abs(ell[0] - h) < 1e-12

    def test_flagged_index_undefined(self):
        spec = spectrum_from_lambdas([[1e-14, 4.0], [1e-14, 8.0]])
        wts = regression_weights(1, 2, counts=spec.counts, scheme=UNIFORM)
        ell = scaling_exponents(spec, wts)
        assert np.isnan(ell[0]) and not np.isnan(ell[1])

    def test_mixed_rank_index_undefined(self):
        # flagged at one octave only -> undefined, never extrapolated
        spec = spectrum_from_lambdas([[1e-14, 4.0], [2.0, 8.0]])
        wts = regression_weights(1, 2, counts=spec.counts, scheme=UNIFORM)
        assert np.isnan(scaling_exponents(spec, wts)[0])

    def test_scale_shift_equivariance(self):
        rng = np.random.default_rng(8)
        lam = rng.uniform(0.5, 4.0, size=(3, 5))
        wts = regression_weights(1, 3, counts=[64] * 3, scheme=UNIFORM)
        base = scaling_exponents(spectrum_from_lambdas(lam), wts)
        scaled = scaling_exponents(spectrum_from_lambdas(97.0 * lam), wts)
        np.testing.assert_allclose(scaled, base, atol=1e-12)


class TestHurstExponents:
    def test_top_one(self):
        np.testing.assert_array_equal(
            hurst_exponents(np.array([0.1, 0.2, 0.7]), 1), [0.7])

    def test_full_vector(self):
        ell = np.array([0.1, 0.2, 0.7])
        np.testing.assert_array_equal(hurst_exponents(ell, 3), ell)

    def test_r_zero_empty(self):
        top = hurst_exponents(np.array([0.5]), 0)
        assert top.size == 0 and top.dtype == np.float64

    def test_undefined_top_rejected(self):
        ell = np.array([0.1, np.nan])
        with pytest.raises(ValueError, match="undefined"):
            hurst_exponents(ell, 1)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            hurst_exponents(np.array([0.5]), 2)


class TestScalingDiagnostic:
    def test_exact_power_law_gives_slope(self):
        h = 0.4
        js = np.arange(3, 7)
        lam = np.array([[2.0 ** (j * (2 * h + 1))] for j in js])
        spec = spectrum_from_lambdas(lam)
        wts = regression_weights(3, 6, counts=spec.counts, scheme=UNIFORM)
        d = scaling_diagnostic(spec, wts)
        assert abs(d[0] - (2 * h + 1)) < 1e-12

    def test_power_law_with_offset_still_exact(self):
        # sum w = 0 makes the constant prefactor cancel exactly
        h, c = 0.25, 5.5
        js = np.arange(2, 6)
        lam = np.array([[c * 2.0 ** (j * (2 * h + 1))] for j in js])
        wts = regression_weights(2, 5, counts=[64] * 4, scheme=UNIFORM)
        d = scaling_diagnostic(spectrum_from_lambdas(lam), wts)
        assert abs(d[0] - (2 * h + 1)) < 1e-12

    def test_flat_spectrum_is_zero(self):
        lam = np.ones((4, 3))
        wts = regression_weights(1, 4, counts=[64] * 4, scheme=UNIFORM)
        d = scaling_diagnostic(spectrum_from_lambdas(lam), wts)
        np.testing.assert_allclose(d, 0.0, atol=1e-12)

    def test_flagged_maps_to_minus_inf(self):
        spec = spectrum_from_lambdas([[1e-14, 2.0], [4.0, 4.0]])
        wts = regression_weights(1, 2, counts=spec.counts, scheme=UNIFORM)
        d = scaling_diagnostic(spec, wts)
        assert d[0] == -np.inf and np.isfinite(d[1])

    @given(**SPECTRA)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_v_weighted_path(self, j1, octaves, seed):
        # delta was once sum_j v_j log2 lambda_j / j with v = j w: the same
        # slope up to rounding. Rounding error grows with the terms summed,
        # not with delta, which cancels to near zero along noise directions.
        spec = random_spectrum(seed, octaves)
        j2 = j1 + octaves - 1
        for scheme in (UNIFORM, COUNT_WEIGHTED):
            wts = regression_weights(j1, j2, counts=spec.counts, scheme=scheme)
            got = scaling_diagnostic(spec, wts)
            ref = scaling_diagnostic_reference(spec, j1, scheme)
            np.testing.assert_array_equal(got == -np.inf, ref == -np.inf)
            defined = ref > -np.inf
            # sum_j |w_j log2 lambda_j| bounds |delta|
            terms = np.abs(wts[:, None] * np.nan_to_num(spec.log2_eigenvalues)).sum(axis=0)
            scale = np.maximum(1.0, terms)[defined]
            assert np.all(np.abs(got[defined] - ref[defined]) <= 4e-15 * scale)

    @given(**SPECTRA)
    @settings(max_examples=60, deadline=None)
    def test_is_twice_the_exponent_plus_one(self, j1, octaves, seed):
        spec = random_spectrum(seed, octaves)
        for scheme in (UNIFORM, COUNT_WEIGHTED):
            wts = regression_weights(j1, j1 + octaves - 1, counts=spec.counts, scheme=scheme)
            ell = scaling_exponents(spec, wts)
            delta = scaling_diagnostic(spec, wts)
            defined = ~np.isnan(ell)
            np.testing.assert_array_equal(delta[~defined], -np.inf)
            assert np.array_equal(ell[defined], 0.5 * (delta[defined] - 1.0))


class TestEffectiveDimension:
    def test_count(self):
        d = np.array([0.01, 0.02, 1.4, 2.1])
        assert effective_dimension(d, 0.5) == 2

    def test_kappa_above_max(self):
        assert effective_dimension(np.array([0.3, 0.4]), 2.0) == 0

    def test_minus_inf_never_counted(self):
        d = np.array([-np.inf, 3.0])
        assert effective_dimension(d, 1e-9) == 1

    def test_positive_kappa_required(self):
        with pytest.raises(ValueError, match="kappa"):
            effective_dimension(np.array([1.0]), 0.0)

    @given(seed=st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_kappa(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.normal(1.0, 1.5, size=12)
        kappas = np.sort(rng.uniform(0.01, 4.0, size=8))
        counts = [effective_dimension(d, k) for k in kappas]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestKappaSweep:
    def test_single_replication(self):
        rows = kappa_sweep([[2.0]], [0.5, 1.5, 2.5], true_r=1)
        assert [row[1] for row in rows] == [1.0, 1.0, 0.0]
        assert [row[4] for row in rows] == [True, True, False]

    def test_identical_replications_collapse(self):
        rows = kappa_sweep([[2.0, 0.1]] * 7, [0.5], true_r=1)
        kappa, mean, q05, q95, exact = rows[0]
        assert mean == q05 == q95 == 1.0
        assert exact is True

    def test_two_replication_mean(self):
        rows = kappa_sweep([[0.9], [1.1]], [1.0], true_r=1)
        assert rows[0][1] == pytest.approx(0.5)

    @pytest.mark.parametrize("m, p", [(1, 3), (2, 5), (7, 12), (60, 8), (997, 96)])
    @pytest.mark.parametrize("true_r", [0, 2])
    def test_equals_the_loop(self, m, p, true_r):
        rng = np.random.default_rng([m, p])
        # diagnostics on a 0.05 lattice tie with grid points; -inf marks
        # flagged indices
        samples = np.round(rng.normal(0.8, 0.8, size=(m, p)) / 0.05) * 0.05
        samples[rng.random((m, p)) < 0.1] = -np.inf
        grid = [0.025 * k for k in range(1, 40)] + [0.05, 0.5, 1.0]
        rows = kappa_sweep(samples, grid, true_r=true_r)
        expected = kappa_sweep_reference(samples, grid, true_r=true_r)
        assert rows == expected
        assert [tuple(map(type, row)) for row in rows] == [
            tuple(map(type, row)) for row in expected]


class TestEstimateSeries:
    def _series(self, h=0.7, n=4096, seed=0):
        spec = OfBmSpec(hurst=(h,), point_cov=np.eye(1))
        incr, _ = synthesize_ofbm_increments(spec, n, np.random.default_rng(seed))
        return cumulative_path(incr)

    def test_univariate_log_eigenvalue_slope(self):
        # noiseless r = p = 1: the log2 eigenvalue slope over mid octaves
        # estimates 2h + 1 within 0.2 at n = 2^16
        h = 0.7
        series = self._series(h=h, n=2 ** 16, seed=160)
        fp = make_filter_bank("daubechies", 2)
        result = estimate_series(series, fp, 6, 10, **ANALYSIS, r=1)
        slope = result.delta[0]  # the weighted slope, 2 ell_hat + 1
        assert abs(slope - (2 * h + 1)) < 0.2

    def test_univariate_recovery(self):
        series = self._series(h=0.7, n=2 ** 14, seed=21)
        fp = make_filter_bank("daubechies", 2)
        result = estimate_series(series, fp, 5, 8, **ANALYSIS, r=1)
        assert abs(result.h_hat[0] - 0.7) < 0.15
        assert result.weights.size == 4  # one slope weight per octave 5..8

    def test_infeasible_octave_reports_last_feasible(self):
        series = self._series(n=256)
        fp = make_filter_bank("daubechies", 2)
        with pytest.raises(OctaveRangeError) as err:
            estimate_series(series, fp, 2, 12, **ANALYSIS, r=None)
        assert 1 <= err.value.last_feasible < 12
        with pytest.raises(OctaveRangeError) as huge:  # stops at the first empty octave
            estimate_series(series, fp, 2, 10 ** 9, **ANALYSIS, r=None)
        assert huge.value.last_feasible == err.value.last_feasible

    @pytest.mark.parametrize("n, j1, j2, message", [
        *((1024, j1, j2, rf"need 1 <= j1 < j2 \(a slope needs two octaves\), got "
                         rf"\({j1}, {j2}\)") for j1, j2 in [(5, 5), (6, 5), (0, 5)]),
        (4, 1, 2, "series length 4 too short for filter length 4; need at least 8"),
        (1024, 3, 9, "octave 9 infeasible for series length 1024 with filter length 4; "
                     "last feasible octave is 8"),
    ], ids=["5-5", "6-5", "0-5", "short-series", "past-the-last-octave"])
    def test_octave_range_rejected_before_the_pyramid(self, monkeypatch, n, j1, j2, message):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return pyramid_transform(*args, **kwargs)

        monkeypatch.setattr(estimators, "pyramid_transform", spy)
        fp = make_filter_bank("daubechies", 2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_series(self._series(n=n), fp, j1, j2, **ANALYSIS, r=None)
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_series_rejected_before_the_pyramid(self, monkeypatch, bad):
        calls = []
        monkeypatch.setattr(estimators, "pyramid_transform",
                            lambda *args, **kwargs: calls.append(args))
        series = self._series(n=1024)
        series[0, 100] = bad
        fp = make_filter_bank("daubechies", 2)
        with pytest.raises(ValueError, match="^series contains non-finite entries$"):
            estimate_series(series, fp, 2, 5, **ANALYSIS, r=None)
        assert calls == []

    @pytest.mark.parametrize("scheme", [UNIFORM, COUNT_WEIGHTED])
    def test_stages_get_the_checked_range(self, monkeypatch, scheme):
        # the spectrum and the weights trust their inputs: consecutive
        # octaves j1..j2, each with coefficients, and the spectrum's counts
        seen = {}

        def spectrum_spy(covs, floor):
            seen["spectrum"] = log_eigen_spectrum(covs, floor=floor)
            seen["octaves"] = [c.j for c in covs]
            return seen["spectrum"]

        def weights_spy(j1, j2, counts, scheme):
            seen["weights"] = (j1, j2, counts, scheme)
            return regression_weights(j1, j2, counts=counts, scheme=scheme)

        monkeypatch.setattr(estimators, "log_eigen_spectrum", spectrum_spy)
        monkeypatch.setattr(estimators, "regression_weights", weights_spy)
        # n = 1024 with a length-4 filter keeps 6 and 2 coefficients at octaves 7 and 8
        series = self._series(n=1024)
        estimate_series(series, make_filter_bank("daubechies", 2), 5, 8,
                        **{**ANALYSIS, "scheme": scheme}, r=None)
        spectrum = seen["spectrum"]
        assert seen["octaves"] == [5, 6, 7, 8]
        assert spectrum.counts == tuple(valid_count(1024, j, 4) for j in range(5, 9))
        assert min(spectrum.counts) == 2
        assert seen["weights"] == (5, 8, spectrum.counts, scheme)

    def test_r_override_vs_estimated(self):
        series = self._series(h=0.8, n=2 ** 13, seed=33)
        fp = make_filter_bank("daubechies", 2)
        auto = estimate_series(series, fp, 4, 7, **ANALYSIS, r=None)
        fixed = estimate_series(series, fp, 4, 7, **ANALYSIS, r=1)
        assert fixed.h_hat.size == 1
        assert auto.r_hat == auto.h_hat.size

    def test_pyramid_starts_keeping_details_at_j1(self, monkeypatch):
        series = self._series(h=0.8, n=2 ** 13, seed=34)
        fp = make_filter_bank("daubechies", 3)
        calls = []

        def spy(series, filter_pair, j_max, j_min=1):
            calls.append((j_max, j_min))
            return pyramid_transform(series, filter_pair, j_max, j_min)

        monkeypatch.setattr(estimators, "pyramid_transform", spy)
        got = estimate_series(series, fp, 4, 7, **ANALYSIS, r=None)
        assert calls == [(7, 4)]
        monkeypatch.setattr(estimators, "pyramid_transform",
                            lambda series, filter_pair, j_max, j_min: pyramid_transform(
                                series, filter_pair, j_max))
        full = estimate_series(series, fp, 4, 7, **ANALYSIS, r=None)
        for field in ("ell_hat", "h_hat", "delta"):
            assert getattr(got, field).tobytes() == getattr(full, field).tobytes()
        assert got.weights.tobytes() == full.weights.tobytes()
        assert got.r_hat == full.r_hat

    def test_exports(self, tmp_path):
        series = self._series(n=2048, seed=5)
        fp = make_filter_bank("haar", 1)
        result = estimate_series(series, fp, 2, 5, **ANALYSIS, r=1)
        csv_path = tmp_path / "result.csv"
        write_result_csv(result, csv_path)
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "i,ell_hat,delta,flagged"
        assert len(lines) == 1 + result.ell_hat.size
        analysis = {"j1": 2, "j2": 5, "weights": COUNT_WEIGHTED, "kappa": 0.3}
        doc = result_to_json(result, analysis)
        assert doc["octaves"] == [2, 5]
        assert (doc["weights"]["scheme"], doc["kappa"]) == (COUNT_WEIGHTED, 0.3)
        assert len(doc["h_hat"]) == 1
        assert abs(sum(doc["weights"]["w"])) < 1e-12

    def test_result_holds_only_what_estimation_computes(self):
        # the octaves, scheme and kappa are the caller's; result_to_json
        # takes them from the analysis section
        assert [f.name for f in dataclasses.fields(EstimationResult)] == [
            "ell_hat", "h_hat", "delta", "r_hat", "weights"]


# The parameters that take an analysis value, with no default in any stage
ANALYSIS_PARAMETERS = {
    estimate_series: ("scheme", "floor", "kappa", "r"),
    regression_weights: ("scheme",),
    log_eigen_spectrum: ("floor",),
    make_filter_bank: ("n_vanishing",),
}


@pytest.mark.parametrize("stage", ANALYSIS_PARAMETERS, ids=lambda stage: stage.__name__)
def test_analysis_values_come_from_the_caller(stage):
    # each analysis default is stated once, in config.SCHEMA
    params = inspect.signature(stage).parameters
    assert all(params[name].default is inspect.Parameter.empty
               for name in ANALYSIS_PARAMETERS[stage])
