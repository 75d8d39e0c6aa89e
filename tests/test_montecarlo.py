import concurrent.futures
import json
import os
import threading

import numpy as np
import pytest
from oracles import ks_subset_average_reference

from eigenwave import estimators, montecarlo, rootcache, simulate
from eigenwave.config import build_mc_config, resolve_config
from eigenwave.estimators import OctaveRangeError, estimate_series
from eigenwave.montecarlo import (KS_SUBSET_MAX, KS_SUBSET_SEED, KS_SUBSETS,
                                  ReplicationRecord, gamma_plot, ks_critical,
                                  ks_statistic, ks_subset_average, mahalanobis_sq,
                                  run_replications, summarize, write_study)
from eigenwave.series import check_series
from eigenwave.simulate import (CLIP_ENERGY_TOL, cumulative_path, draw_observation,
                                shape_increments, synthesize_ofbm_increments)
from eigenwave.special import chi2_cdf, chi2_quantile
from eigenwave.wavelets import make_filter_bank


def small_config(replications=6, j2=5, **model):
    """A two-exponent study built as the CLI builds one; keyword arguments
    replace model keys."""
    doc = {
        "model": {"r": 2, "hurst": [0.4, 0.7], "mixing": {"kind": "random_unit_columns"},
                  "n": 1024, "p": 8, **model},
        "analysis": {"j1": 3, "j2": j2},
        "mc": {"replications": replications, "master_seed": 99},
    }
    return build_mc_config(resolve_config(doc))


class TestMahalanobis:
    def test_identity_covariance_by_construction(self):
        # symmetric sample built so the mean is 0 and the sample covariance
        # is exactly I; then d^2 of the point u = (3, 4) is 25.
        u = np.array([3.0, 4.0])
        k = 25
        target = ((2 * k + 1) / 2.0) * np.eye(2) - np.outer(u, u)  # PSD for k=25
        lam, vec = np.linalg.eigh(target)
        extra = [np.sqrt(lam[i]) * vec[:, i] for i in range(2)]
        extra += [np.zeros(2)] * (k - 2)
        pts = [u] + extra
        sample = np.array([s * p for p in pts for s in (1.0, -1.0)])
        assert sample.shape == (2 * (k + 1), 2)
        np.testing.assert_allclose(sample.mean(axis=0), 0.0, atol=1e-12)
        cov = np.cov(sample.T, ddof=1)
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-12)
        d2 = mahalanobis_sq(sample)
        # with S = I the distance of +-u is its squared norm, 25
        hits = np.isclose(d2, 25.0, atol=1e-9).sum()
        assert hits == 2

    def test_matches_elimination_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 3))

        def solve_gauss(a, b):
            a = a.astype(float).copy()
            b = b.astype(float).copy()
            n = len(b)
            for col in range(n):
                piv = col + np.argmax(np.abs(a[col:, col]))
                a[[col, piv]], b[[col, piv]] = a[[piv, col]].copy(), b[[piv, col]].copy()
                for row in range(col + 1, n):
                    f = a[row, col] / a[col, col]
                    a[row] -= f * a[col]
                    b[row] -= f * b[col]
            out = np.zeros(n)
            for row in range(n - 1, -1, -1):
                out[row] = (b[row] - a[row, row + 1:] @ out[row + 1:]) / a[row, row]
            return out

        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (len(x) - 1)
        expect = np.sort([c @ solve_gauss(cov, c) for c in centered])
        np.testing.assert_allclose(mahalanobis_sq(x), expect, atol=1e-10)

    def test_sum_identity(self):
        rng = np.random.default_rng(6)
        for m, r in ((30, 2), (100, 5)):
            x = rng.standard_normal((m, r))
            d2 = mahalanobis_sq(x)
            assert abs(d2.sum() - r * (m - 1)) < 1e-8 * r * (m - 1)

    def test_identical_samples_rejected(self):
        x = np.ones((10, 2))
        with pytest.raises(ValueError, match="singular"):
            mahalanobis_sq(x)

    def test_more_samples_than_dims_required(self):
        # M <= r centred samples span at most M - 1 < r dimensions
        with pytest.raises(ValueError, match="singular"):
            mahalanobis_sq(np.eye(3))


class TestKs:
    def test_sample_at_exact_quantiles(self):
        m, dof = 40, 3
        probs = (np.arange(1, m + 1) - 0.5) / m
        sample = [chi2_quantile(dof, float(p)) for p in probs]
        stat, reject = ks_statistic(sample, dof)
        assert stat == pytest.approx(0.5 / m, abs=1e-7)
        assert not reject

    def test_single_median_point(self):
        x = chi2_quantile(4, 0.5)
        stat, reject = ks_statistic([x], 4)
        assert stat == pytest.approx(0.5, abs=1e-7)
        assert not reject  # critical at M=1 is 1.358

    def test_rejection_rate_near_level(self):
        # synthetic chi-square draws should be rejected at roughly the
        # nominal 5% rate
        rng = np.random.default_rng(7)
        rejections = 0
        trials = 150
        for _ in range(trials):
            sample = rng.chisquare(6, size=400)
            _, reject = ks_statistic(sample, 6)
            rejections += reject
        rate = rejections / trials
        assert 0.0 <= rate < 0.12

    def test_empty_sample_rejected(self):
        # gamma_plot asks for M > 5r first; numpy's empty maximum is the backstop
        with pytest.raises(ValueError, match="zero-size array"):
            ks_statistic([], 3)

    def test_wrong_dof_rejected_strongly(self):
        rng = np.random.default_rng(8)
        sample = rng.chisquare(12, size=500)
        stat, reject = ks_statistic(sample, 3)
        assert reject and stat > 5 * ks_critical(500)

    def test_subset_average_deterministic(self):
        rng = np.random.default_rng(9)
        sample = rng.chisquare(6, size=2000)
        a = ks_subset_average(sample, 6, subset_size=500)
        b = ks_subset_average(sample, 6, subset_size=500)
        assert a == b
        assert (a["n_subsets"], a["seed"]) == (KS_SUBSETS, KS_SUBSET_SEED)
        assert 0.0 <= a["rejection_rate"] <= 1.0

    @pytest.mark.parametrize("order", ["sorted", "shuffled", "tied"])
    @pytest.mark.parametrize("subset_size", [37, 500])
    def test_subset_average_matches_the_per_subset_loop(self, order, subset_size):
        rng = np.random.default_rng(12)
        sample = np.sort(rng.chisquare(3, size=800))
        if order == "shuffled":
            sample = rng.permutation(sample)
        elif order == "tied":
            sample = rng.permutation(np.repeat(sample[:200], 4))
        got = ks_subset_average(sample, 3, subset_size=subset_size)
        want = ks_subset_average_reference(sample, 3, n_subsets=KS_SUBSETS,
                                           subset_size=subset_size, seed=KS_SUBSET_SEED)
        assert got == want

    def test_subset_average_takes_each_cdf_once(self, monkeypatch):
        calls = []

        def counting_cdf(dof, x):
            calls.append(x)
            return chi2_cdf(dof, x)
        monkeypatch.setattr(montecarlo, "chi2_cdf", counting_cdf)
        sample = np.random.default_rng(13).chisquare(2, size=300)
        ks_subset_average(sample, 2, subset_size=100)
        assert len(calls) == sample.size

    def test_subset_size_validated(self):
        with pytest.raises(ValueError, match="subset size"):
            ks_subset_average(np.ones(10), 2, subset_size=11)


class TestGammaPlot:
    def test_shapes_and_monotonicity(self):
        # gamma_plot alone guarantees equal lengths and sorted sequences
        rng = np.random.default_rng(10)
        cases = [(r, m) for r in range(1, 7) for m in (5 * r + 1, 80, 997)]
        for r, m in cases + [(1, 5000), (6, 5000)]:
            plot = gamma_plot(rng.standard_normal((m, r)))
            assert plot.d2.shape == plot.chi2_quantiles.shape == (m,)
            assert np.all(np.diff(plot.d2) >= 0)
            assert np.all(np.diff(plot.chi2_quantiles) >= 0)
            assert plot.dof == r

    def test_refuses_small_samples(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="M > 5r"):
            gamma_plot(rng.standard_normal((10, 2)))


class TestRunReplications:
    def test_deterministic_rerun(self):
        cfg = small_config(replications=1)
        a = run_replications(cfg, workers=1)
        b = run_replications(cfg, workers=1)
        assert a == b

    def test_distinct_seeds_per_replication(self):
        records = run_replications(small_config(replications=8), workers=1)
        assert len(records) == 8
        assert len({rec.seed for rec in records}) == 8
        assert len({rec.h_hat for rec in records}) == 8

    @pytest.mark.parametrize("mixing", [
        {"kind": "canonical"}, {"kind": "random_unit_columns"},
        {"kind": "explicit", "matrix": [[0.6, 0.0], [0.8, 0.0], [0.0, 0.6], [0.0, 0.8]]}],
        ids=["canonical", "random", "explicit"])
    @pytest.mark.parametrize("noise", [{"kind": "iid_gaussian", "variance": 2.5},
                                       {"kind": "arma", "ar": [0.6], "ma": [0.3]},
                                       {"kind": "none"}], ids=["iid", "arma", "none"])
    def test_worker_count_invariance(self, noise, mixing):
        # one thread shapes each latent path beside the calling thread, two
        # run whole replications, and a bare _replicate shapes inline: the
        # records are the same
        cfg = small_config(replications=4, n=512, p=4, noise=noise, mixing=mixing)
        inline = [montecarlo._replicate(cfg, i) for i in range(4)]
        assert run_replications(cfg, workers=1) == inline
        assert run_replications(cfg, workers=2) == inline

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_process_stops_its_helper_thread(self, workers):
        before = threading.active_count()
        run_replications(small_config(replications=3), workers)
        assert threading.active_count() == before
        # the ARMA filter overflows, so the first replication's finite check raises
        overflowing = small_config(replications=3, noise={"kind": "arma", "variance": 1e300,
                                                          "ma": [1e300]})
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            run_replications(overflowing, workers)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("state", [{"all": "ignore"}, {"over": "raise"}],
                             ids=["ignore", "raise"])
    def test_helper_shapes_under_the_callers_error_state(self, monkeypatch, state, workers):
        # np.errstate is a context variable, which a new thread does not
        # inherit: a thread the study did not hand the caller's state would
        # warn where the CLI ignores
        seen = []

        def spy(*args):
            seen.append((threading.current_thread(), np.geterr()))
            return shape_increments(*args)

        monkeypatch.setattr(simulate, "shape_increments", spy)
        cfg = small_config(replications=2)
        with np.errstate(**state):
            expected = np.geterr()
            run_replications(cfg, workers)
        assert len(seen) == 2
        for thread, errors in seen:
            assert thread is not threading.main_thread()
            assert errors == expected

    def test_pool_starts_at_most_one_worker_per_replication(self, monkeypatch):
        made, started = [], []

        class RecordingExecutor(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                made.append(max_workers)
                super().__init__(max_workers, **kwargs)

        def start(thread, start=threading.Thread.start):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(threading.Thread, "start", start)
        cfg = small_config(replications=3)
        records = run_replications(cfg, workers=10 ** 6)
        assert made == [3]
        assert 1 <= len(started) <= 3
        assert records == run_replications(cfg, workers=1)

    def test_threads_load_the_root_once(self, tmp_path, monkeypatch):
        # on a cold cache, the study's first draws all need the root at once
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        calls = []

        def counting(module, name):
            def wrapper(*args, fn=getattr(module, name)):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(module, name, wrapper)

        counting(rootcache, "load")
        counting(simulate, "_factor_embedding_root")
        simulate._embedding_root.cache_clear()
        try:
            run_replications(small_config(replications=4), workers=2)
        finally:
            simulate._embedding_root.cache_clear()
        assert calls == ["load", "_factor_embedding_root"]

    def test_noiseless_identity_reduces_to_direct_estimate(self):
        # p = r, canonical mixing, no noise: the replication is exactly the
        # univariate pipeline on the same latent realization
        cfg = small_config(r=1, hurst=[0.6], mixing={"kind": "canonical"},
                           noise={"kind": "none"}, p=1, replications=1)
        assert cfg.p == 1
        record = run_replications(cfg, workers=1)[0]
        rng = np.random.default_rng([cfg.master_seed, 0])
        incr, _ = synthesize_ofbm_increments(cfg.model, cfg.n, rng)
        path = cumulative_path(incr)
        est = estimate_series(path, make_filter_bank(cfg.family, cfg.n_vanishing),
                              cfg.j1, cfg.j2, scheme=cfg.weight_scheme,
                              floor=cfg.eigen_floor, kappa=cfg.kappa, r=1)
        assert record.h_hat[0] == pytest.approx(est.h_hat[0], abs=1e-12)

    @pytest.mark.parametrize("noise", [{"kind": "iid_gaussian", "variance": 2.5},
                                       {"kind": "arma", "ar": [0.6], "ma": [0.3]},
                                       {"kind": "none"}])
    def test_drawn_noise_shares_no_memory_with_the_observation(self, noise):
        # simulate --components writes Z after Y, so Y must not alias Z
        observed, latent, z, mixing, _ = draw_observation(small_config(noise=noise), 0)
        assert not np.shares_memory(observed, z)
        assert observed.tobytes() == (mixing @ latent + z).tobytes()

    @pytest.mark.parametrize("noise", [{"kind": "iid_gaussian", "variance": 2.5},
                                       {"kind": "arma", "ar": [0.6], "ma": [0.3]}])
    def test_a_replication_checks_only_its_observation(self, monkeypatch, noise):
        # the draw's stages trust one another: estimate_series checks Y once
        seen = []

        def spy(values):
            seen.append(values)
            return check_series(values)

        monkeypatch.setattr(estimators, "check_series", spy)
        config = small_config(noise=noise, replications=1)
        montecarlo._replicate(config, 0)
        [checked] = seen
        assert checked.tobytes() == draw_observation(config, 0)[0].tobytes()

    @pytest.mark.parametrize("model", [
        {}, {"hurst": [0.1, 0.9], "point_cov": [[1.0, 0.99], [0.99, 1.0]],
             "mixing": {"kind": "canonical"}, "p": 2}], ids=["admissible", "clipped"])
    def test_flagged_when_the_draw_warns(self, model):
        # the clip tolerance is compared once, in the draw
        cfg = small_config(replications=2, **model)
        for index in range(2):
            diagnostics = draw_observation(cfg, index)[4]
            record = montecarlo._replicate(cfg, index)
            assert record.flagged == (diagnostics.warning is not None)
            assert record.flagged == (record.clipped_energy > CLIP_ENERGY_TOL)
            assert record.flagged == bool(model)

    def test_derived_dimension_validated(self):
        with pytest.raises(ValueError, match="observation dimension 1 below latent r=2"):
            small_config(p=1)

    def test_filter_and_octaves_checked_before_any_draw(self):
        # haar with 4 vanishing moments and j1 = 0 never reach the builder:
        # resolve_config rejects them first (tests/test_cli.py)
        with pytest.raises(ValueError,
                           match="series length 4 too short for filter length 4; "
                                 "need at least 8"):
            small_config(n=4)

    def test_infeasible_octave_reports_last_feasible(self):
        # n = 1024 with a length-4 filter keeps 511, 254, ..., 6, 2 coefficients
        # at octaves 1..8 and none at octave 9
        with pytest.raises(OctaveRangeError) as err:
            small_config(j2=12)
        assert err.value.last_feasible == 8
        small_config(j2=8)


class TestSummarize:
    def test_identical_records_collapse(self):
        records = run_replications(small_config(replications=1), workers=1) * 5
        out = summarize(records, kappa_grid=[0.5], true_hurst=(0.4, 0.7))
        assert out["replications"] == 5
        assert out["h"]["std"] == [0.0, 0.0]
        assert out["h"]["q05"] == out["h"]["q95"] == out["h"]["mean"]

    def test_two_record_toy_by_hand(self):
        records = run_replications(small_config(replications=2), workers=1)
        out = summarize(records, kappa_grid=[0.5], true_hurst=(0.4, 0.7))
        h = np.array([rec.h_hat for rec in records])
        assert out["h"]["mean"] == pytest.approx(list(h.mean(axis=0)))
        assert out["h"]["std"] == pytest.approx(list(h.std(axis=0, ddof=1)))
        assert out["h"]["bias"][1] == pytest.approx(h[:, 1].mean() - 0.7)

    def test_flagged_counted_but_excluded(self):
        records = run_replications(small_config(replications=3), workers=1)
        import dataclasses
        flagged = dataclasses.replace(records[0], flagged=True)
        out = summarize([flagged] + records[1:], kappa_grid=[0.5], true_hurst=(0.4, 0.7))
        assert out["replications"] == 3
        assert out["flagged"] == 1
        h = np.array([rec.h_hat for rec in records[1:]])
        assert out["h"]["mean"] == pytest.approx(list(h.mean(axis=0)))

    def test_empty_study_fails(self):
        with pytest.raises(ValueError, match="^no records to summarize$"):
            summarize([], kappa_grid=[0.5], true_hurst=(0.4, 0.7))

    def test_all_flagged_fails(self):
        import dataclasses
        records = [dataclasses.replace(rec, flagged=True)
                   for rec in run_replications(small_config(replications=2), workers=1)]
        with pytest.raises(ValueError, match="^every replication was flagged by "
                                             "synthesis diagnostics$"):
            summarize(records, kappa_grid=[0.5], true_hurst=(0.4, 0.7))


def made_up_records(unflagged, flagged=0):
    """Records of small_config's shape (r = 2, p = 8) with estimates drawn
    at random, so no series is synthesized; the last `flagged` are flagged."""
    rng = np.random.default_rng(5)
    return [ReplicationRecord(index=i, seed=(99, i),
                              h_hat=tuple(float(h) for h in 0.55 + 0.05 * rng.standard_normal(2)),
                              delta=tuple(float(d) for d in rng.standard_normal(8)),
                              r_hat=2, flagged=i >= unflagged, clipped_energy=0.0)
            for i in range(unflagged + flagged)]


STUDY_FILES = ["gamma_plot.csv", "ks.json", "records.ndjson", "rhat_sweep.csv", "summary.json"]


def read_ks(out):
    return json.loads((out / "ks.json").read_text())


class TestWriteStudy:
    def test_subsets_are_a_quarter_of_the_unflagged_replications(self, tmp_path):
        # M = 5r + 1 = 11 unflagged, the fewest that get a Gamma plot; 14 // 4 would be 3
        records = made_up_records(11, flagged=3)
        assert write_study(records, small_config(), tmp_path, ks_subsets=True) is None
        plot = gamma_plot(np.array([rec.h_hat for rec in records[:11]]))
        assert read_ks(tmp_path)["subset_average"] == ks_subset_average(plot.d2, plot.dof, 2)
        assert sorted(os.listdir(tmp_path)) == STUDY_FILES

    def test_subsets_hold_at_most_ks_subset_max(self, tmp_path):
        write_study(made_up_records(5004), small_config(), tmp_path, ks_subsets=True)
        # 5004 // 4 = 1251
        assert read_ks(tmp_path)["subset_average"]["subset_size"] == KS_SUBSET_MAX == 1250

    def test_no_subset_average_unless_asked(self, tmp_path):
        assert write_study(made_up_records(11), small_config(), tmp_path,
                           ks_subsets=False) is None
        ks = read_ks(tmp_path)
        assert "subset_average" not in ks and ks["samples"] == 11

    @pytest.mark.parametrize("unflagged", [1, 10])
    def test_a_study_too_small_for_a_gamma_plot_skips_it(self, tmp_path, unflagged):
        records = made_up_records(unflagged, flagged=2)
        with pytest.raises(ValueError, match="M > 5r") as refused:
            gamma_plot(np.array([rec.h_hat for rec in records[:unflagged]]))
        reason = write_study(records, small_config(), tmp_path, ks_subsets=True)
        assert reason == str(refused.value)
        assert (tmp_path / "gamma_plot.csv").read_text() == "m,d2_empirical,chi2_quantile\n"
        assert read_ks(tmp_path) == {"skipped": reason}
        assert sorted(os.listdir(tmp_path)) == STUDY_FILES
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert (summary["replications"], summary["flagged"]) == (unflagged + 2, 2)
