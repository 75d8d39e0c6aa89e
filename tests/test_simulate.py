import json
import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from oracles import (arma_noise_reference, circulant_spectrum_reference,
                     synthesize_ofbm_reference)

from eigenwave import rootcache, simulate
from eigenwave.config import build_mc_config, preset_config, resolve_config
from eigenwave.simulate import (MixingSpec, NoiseSpec, OfBmSpec,
                                _arma_block_operators, _arma_filter,
                                _circulant_spectrum, _embedding_root,
                                _factor_embedding_root, assemble_observations,
                                cumulative_path, draw_observation,
                                fgn_cross_covariance, make_mixing_matrix,
                                synthesize_noise, synthesize_ofbm_increments)

ARMA_WIDE = Path(__file__).resolve().parent.parent / "perfbench/workloads/arma-wide.json"


class TestCrossCovariance:
    def test_half_is_white_noise(self):
        assert fgn_cross_covariance(0.5, 0.5, 1.0, 0) == pytest.approx(1.0)
        for lag in (1, 2, 5, -3):
            assert fgn_cross_covariance(0.5, 0.5, 1.0, lag) == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_value(self):
        expect = (2.0 ** 1.5 - 2.0) / 2.0
        assert fgn_cross_covariance(0.75, 0.75, 1.0, 1) == pytest.approx(expect, abs=1e-14)

    def test_zero_sigma(self):
        for lag in range(5):
            assert fgn_cross_covariance(0.3, 0.8, 0.0, lag) == 0.0

    def test_out_of_range_hurst(self):
        with pytest.raises(ValueError):
            fgn_cross_covariance(0.0, 0.5, 1.0, 0)
        with pytest.raises(ValueError):
            fgn_cross_covariance(0.5, 1.0, 1.0, 0)


class TestOfBmSpec:
    def test_rejects_unsorted_hurst(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            OfBmSpec(hurst=(0.7, 0.3), point_cov=np.eye(2))

    def test_rejects_out_of_range_hurst(self):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            OfBmSpec(hurst=(0.3, 1.2), point_cov=np.eye(2))

    def test_rejects_non_psd_cov(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="semidefinite"):
            OfBmSpec(hurst=(0.3, 0.7), point_cov=bad)

    def test_rejects_asymmetric_cov(self):
        bad = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            OfBmSpec(hurst=(0.3, 0.7), point_cov=bad)


class TestSynthesis:
    def test_requires_power_of_two(self):
        spec = OfBmSpec(hurst=(0.5,), point_cov=np.eye(1))
        with pytest.raises(ValueError, match="power of two"):
            synthesize_ofbm_increments(spec, 1000, np.random.default_rng(1))

    def test_deterministic_for_seed(self):
        spec = OfBmSpec(hurst=(0.3, 0.7), point_cov=np.eye(2))
        a, _ = synthesize_ofbm_increments(spec, 512, np.random.default_rng(42))
        b, _ = synthesize_ofbm_increments(spec, 512, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_white_noise_case(self):
        spec = OfBmSpec(hurst=(0.5,), point_cov=np.eye(1))
        rng = np.random.default_rng(5)
        acfs = []
        for _ in range(60):
            s, diag = synthesize_ofbm_increments(spec, 4096, rng)
            assert diag.clipped_energy == 0.0
            x = s[0]
            acfs.append([np.dot(x[: x.size - k], x[k:]) / (x.size - k) for k in range(4)])
        acfs = np.array(acfs)
        se = acfs.std(axis=0, ddof=1) / np.sqrt(len(acfs))
        target = [1.0, 0.0, 0.0, 0.0]
        for k in range(4):
            assert abs(acfs[:, k].mean() - target[k]) < 4 * se[k]

    def test_longmemory_autocovariance(self):
        spec = OfBmSpec(hurst=(0.7,), point_cov=np.eye(1))
        rng = np.random.default_rng(9)
        acfs = []
        for _ in range(60):
            s, _ = synthesize_ofbm_increments(spec, 4096, rng)
            x = s[0]
            acfs.append([np.dot(x[: x.size - k], x[k:]) / (x.size - k) for k in range(6)])
        acfs = np.array(acfs)
        se = acfs.std(axis=0, ddof=1) / np.sqrt(len(acfs))
        for k in range(6):
            target = fgn_cross_covariance(0.7, 0.7, 1.0, k)
            assert abs(acfs[:, k].mean() - target) < 4 * se[k]

    def test_equal_h_cross_covariance(self):
        spec = OfBmSpec(hurst=(0.6, 0.6),
                        point_cov=np.array([[1.0, 0.5], [0.5, 1.0]]))
        rng = np.random.default_rng(13)
        cross = []
        for _ in range(60):
            s, _ = synthesize_ofbm_increments(spec, 4096, rng)
            cross.append(np.dot(s[0], s[1]) / s.shape[1])
        cross = np.array(cross)
        se = cross.std(ddof=1) / np.sqrt(cross.size)
        assert abs(cross.mean() - 0.5) < 4 * se

    def test_gaussian_marginals(self):
        spec = OfBmSpec(hurst=(0.8,), point_cov=np.eye(1))
        rng = np.random.default_rng(17)
        skews, kurts = [], []
        for _ in range(50):
            s, _ = synthesize_ofbm_increments(spec, 4096, rng)
            x = s[0]
            z = (x - x.mean()) / x.std()
            skews.append((z ** 3).mean())
            kurts.append((z ** 4).mean() - 3.0)
        for vals in (np.array(skews), np.array(kurts)):
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            assert abs(vals.mean()) < 3 * se + 1e-3

    def test_self_similarity_of_integrated_path(self):
        # Var B(2t) / Var B(t) across replications approximates 2^{2h}.
        h = 0.7
        spec = OfBmSpec(hurst=(h,), point_cov=np.eye(1))
        rng = np.random.default_rng(21)
        n = 2048
        v1, v2 = [], []
        for _ in range(400):
            s, _ = synthesize_ofbm_increments(spec, n, rng)
            b = cumulative_path(s)[0]
            v1.append(b[n // 4 - 1] ** 2)
            v2.append(b[n // 2 - 1] ** 2)
        v1, v2 = np.array(v1), np.array(v2)
        ratio = v2.mean() / v1.mean()
        # delta-method standard error of the ratio of means
        se = ratio * np.sqrt(v1.var() / v1.mean() ** 2 + v2.var() / v2.mean() ** 2) / np.sqrt(400)
        assert abs(ratio - 2 ** (2 * h)) < 3 * se

    def test_clipping_flagged_for_inadmissible_cross_covariance(self):
        spec = OfBmSpec(hurst=(0.1, 0.9),
                        point_cov=np.array([[1.0, 0.99], [0.99, 1.0]]))
        series, diag = synthesize_ofbm_increments(spec, 256, np.random.default_rng(3))
        assert diag.clipped_energy > 1e-6
        assert diag.warning is not None


CLIPPED = OfBmSpec(hurst=(0.1, 0.9), point_cov=np.array([[1.0, 0.99], [0.99, 1.0]]))
UNCLIPPED = OfBmSpec(hurst=(0.1, 0.9), point_cov=np.eye(2))
FIG4_LIKE = OfBmSpec(hurst=(0.25, 0.5, 0.75), point_cov=np.eye(3))
FIG4_CORRELATED = OfBmSpec(hurst=(0.25, 0.5, 0.75),
                           point_cov=np.array([[1.0, 0.3, 0.1],
                                               [0.3, 1.0, 0.3],
                                               [0.1, 0.3, 1.0]]))
UNIVARIATE = OfBmSpec(hurst=(0.7,), point_cov=np.eye(1))
FIG1_LIKE = OfBmSpec(hurst=(0.1, 0.3, 0.5, 0.6, 0.8, 0.9),
                     point_cov=np.array([1.0, 0.2, 0.2, 0.3, 0.2, 0.3])[
                         np.abs(np.subtract.outer(np.arange(6), np.arange(6)))])
# Repeated exponents: three coordinate pairs share e = 1.0 and two e = 1.4.
REPEATED = OfBmSpec(hurst=(0.5, 0.5, 0.9),
                    point_cov=np.array([[1.0, 0.4, 0.2],
                                        [0.4, 1.0, 0.3],
                                        [0.2, 0.3, 1.0]]))

# Each call follows one with another spec or n (a stale cached root shows),
# and some repeat the call before them (a cache hit must match too). Specs
# that share their Hurst exponents differ only in point_cov. The clipped
# spec is drawn afresh, from the cache, and again after its unclipped twin;
# it must report its energy and warning every time.
CACHED_DRAWS = [
    (UNIVARIATE, 512, 1), (UNIVARIATE, 512, 2), (UNIVARIATE, 256, 2),
    (FIG4_LIKE, 1024, 3), (FIG4_CORRELATED, 1024, 3), (FIG4_LIKE, 1024, 4),
    (FIG1_LIKE, 256, 5), (FIG1_LIKE, 256, 6), (FIG1_LIKE, 512, 6),
    (CLIPPED, 256, 3), (CLIPPED, 256, 7), (UNCLIPPED, 256, 3), (CLIPPED, 256, 8),
    (UNIVARIATE, 512, 1), (FIG4_CORRELATED, 1024, 9), (REPEATED, 256, 10),
    (UNIVARIATE, 2, 11), (FIG4_CORRELATED, 2, 12),  # one folded pair, k = 1
]


class TestCachedSynthesis:
    """The embedding root is factored once per (hurst, point_cov, n), and
    the draw shapes only the n + 1 Hermitian frequencies; every draw must
    still equal, to rounding, the synthesis that factors the root on each
    call and shapes all 2n frequencies."""

    def test_matches_the_mirrored_complex_synthesis(self):
        for spec, n, seed in CACHED_DRAWS:
            series, diag = synthesize_ofbm_increments(spec, n, np.random.default_rng(seed))
            ref, clip_energy, warning = synthesize_ofbm_reference(
                spec, n, np.random.default_rng(seed))
            assert series.shape == ref.T.shape == (spec.r, n)
            bound = 8 * np.finfo(float).eps * np.abs(ref).max()
            assert np.abs(series - ref.T).max() <= bound, (spec.hurst, n, seed)
            assert diag.clipped_energy == clip_energy, (spec.hurst, n, seed)
            assert diag.warning == warning, (spec.hurst, n, seed)

    def test_cached_draw_equals_a_fresh_one_bit_for_bit(self, root_cache, monkeypatch):
        for spec, n, seed in CACHED_DRAWS:
            # the root is now cached in memory and on disk
            synthesize_ofbm_increments(spec, n, np.random.default_rng(0))
            cached, diag = synthesize_ofbm_increments(spec, n, np.random.default_rng(seed))
            _embedding_root.cache_clear()
            loaded, loaded_diag = synthesize_ofbm_increments(spec, n, np.random.default_rng(seed))
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "_embedding_root", _factor_embedding_root)
                fresh, fresh_diag = synthesize_ofbm_increments(spec, n,
                                                               np.random.default_rng(seed))
            assert (fresh.tobytes() == cached.tobytes()
                    == loaded.tobytes()), (spec.hurst, n, seed)
            assert fresh_diag == diag == loaded_diag

    @pytest.mark.parametrize("n", [2, 4, 256, 4096])
    def test_spectrum_equals_the_per_lag_construction(self, n):
        specs = {id(spec): spec for spec, _, _ in CACHED_DRAWS}.values()
        for spec in specs:
            got = _circulant_spectrum(spec.hurst, spec.point_cov, n)
            ref = circulant_spectrum_reference(spec.hurst, spec.point_cov, n)
            assert got.shape == ref.shape == (n + 1, spec.r, spec.r)
            assert got.tobytes() == ref.tobytes(), spec.hurst

    def test_fig1_spectrum_equals_the_per_lag_construction(self):
        model = build_mc_config(resolve_config(preset_config("fig1"))).model
        got = _circulant_spectrum(model.hurst, model.point_cov, 65536)
        ref = circulant_spectrum_reference(model.hurst, model.point_cov, 65536)
        assert got.shape == ref.shape == (65537, 6, 6)
        assert got.tobytes() == ref.tobytes()

    def test_cached_root_is_read_only(self):
        synthesize_ofbm_increments(FIG4_LIKE, 1024, np.random.default_rng(1))
        half, _ = _embedding_root(FIG4_LIKE.hurst, FIG4_LIKE.point_cov.tobytes(), 1024)
        assert half.shape == (1024 + 1, 3, 3)
        assert half.flags.c_contiguous  # the shaping products depend on the layout
        assert not half.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            half[0, 0, 0] = 1.0


@pytest.fixture
def root_cache(tmp_path, monkeypatch):
    """An empty root cache directory for one test, with no root held in
    memory before or after it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _embedding_root.cache_clear()
    yield tmp_path / "eigenwave"
    _embedding_root.cache_clear()


def fresh_root(spec, n):
    """The root as a new process gets it: from disk, or factored and stored."""
    _embedding_root.cache_clear()
    return _embedding_root(spec.hurst, spec.point_cov.tobytes(), n)


def refuse_to_factor(*args):
    raise AssertionError("factored a root the cache holds")


def flip_a_data_byte(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF  # inside the root, by far the largest member
    path.write_bytes(bytes(data))


def truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _rewrite(path, **members):
    with np.load(path) as stored:
        doc = {name: stored[name] for name in stored.files}
    doc.update(members)
    np.savez(path, **doc)


def wrong_shape(path):
    _rewrite(path, root=np.zeros((1024, 3, 3)))


def foreign_key(path):
    # as a machine whose kernels round differently would have stored it
    with np.load(path) as stored:
        key = str(stored["key"])
    _rewrite(path, key=np.str_(key.replace(np.__version__, "0.0.0")),
             root=np.zeros((1025, 3, 3)))


class TestRootCache:
    """Each root is factored once per machine and kept on disk; a process
    that finds it loads the exact bytes the factorization wrote, and one
    that finds a damaged or foreign file factors it again."""

    @pytest.mark.parametrize("spec", [FIG1_LIKE, FIG4_CORRELATED, CLIPPED],
                             ids=["fig1", "fig4-correlated", "clipped"])
    def test_cold_and_warm_roots_equal_the_factorization(self, root_cache, monkeypatch, spec):
        half, clip_energy = _factor_embedding_root(spec.hurst, spec.point_cov.tobytes(), 1024)
        cold = fresh_root(spec, 1024)
        assert len(list(root_cache.iterdir())) == 1
        monkeypatch.setattr(simulate, "_factor_embedding_root", refuse_to_factor)
        warm = fresh_root(spec, 1024)
        for got_half, got_clip in (cold, warm):
            assert got_half.tobytes() == half.tobytes()
            assert np.float64(got_clip).tobytes() == np.float64(clip_energy).tobytes()
            assert got_half.flags.c_contiguous and not got_half.flags.writeable

    @pytest.mark.parametrize("damage", [flip_a_data_byte, truncate, wrong_shape, foreign_key])
    def test_a_damaged_or_foreign_file_is_rebuilt(self, root_cache, monkeypatch, damage):
        spec, shape = FIG4_CORRELATED, (1025, 3, 3)
        half, clip_energy = fresh_root(spec, 1024)
        [path] = root_cache.iterdir()
        with np.load(path) as stored:
            key = str(stored["key"])
        damage(path)
        assert rootcache.load(str(path), key, shape) is None
        factored = []
        monkeypatch.setattr(simulate, "_factor_embedding_root",
                            lambda *args: factored.append(args) or _factor_embedding_root(*args))
        rebuilt = fresh_root(spec, 1024)
        assert len(factored) == 1
        stored_half, stored_clip = rootcache.load(str(path), key, shape)  # rewritten
        for got_half, got_clip in (rebuilt, (stored_half, stored_clip)):
            assert got_half.tobytes() == half.tobytes() and got_clip == clip_energy
        assert list(root_cache.iterdir()) == [path]  # no temporary file left

    def test_hurst_point_cov_and_n_each_get_an_entry(self, root_cache, monkeypatch):
        other_hurst = OfBmSpec(hurst=(0.25, 0.5, 0.8), point_cov=FIG4_CORRELATED.point_cov)
        models = [(FIG4_CORRELATED, 256), (FIG4_LIKE, 256), (other_hurst, 256),
                  (FIG4_CORRELATED, 512)]
        expected = [_factor_embedding_root(spec.hurst, spec.point_cov.tobytes(), n)
                    for spec, n in models]
        for spec, n in models:
            fresh_root(spec, n)
        assert len(list(root_cache.iterdir())) == len(models)
        monkeypatch.setattr(simulate, "_factor_embedding_root", refuse_to_factor)
        for (spec, n), (half, clip_energy) in zip(models, expected):
            got_half, got_clip = fresh_root(spec, n)
            assert got_half.tobytes() == half.tobytes() and got_clip == clip_energy

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the mmap threshold is glibc's")
    def test_draws_after_a_load_fault_in_no_more_pages_than_after_a_build(self, root_cache):
        # without the block _embedding_root frees, each warm draw below takes
        # ~2,200 minor page faults, against none after the factorization
        script = (
            "import resource, numpy as np\n"
            "from eigenwave.simulate import OfBmSpec, synthesize_ofbm_increments\n"
            "spec = OfBmSpec(hurst=(0.1, 0.3, 0.5, 0.6, 0.8, 0.9), point_cov=np.eye(6))\n"
            "for seed in range(3):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    synthesize_ofbm_increments(spec, 2 ** 14, np.random.default_rng(seed))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(simulate.__file__).parent.parent)}
        cold, warm = (int(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                         capture_output=True, text=True, timeout=60).stdout)
                      for _ in range(2))
        assert len(list(root_cache.iterdir())) == 1
        assert warm <= cold + 100, (cold, warm)

    def test_an_unusable_cache_directory_leaves_the_root(self, tmp_path, root_cache,
                                                         monkeypatch):
        (tmp_path / "file").write_text("x")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        half, clip_energy = fresh_root(FIG4_CORRELATED, 1024)
        expected = _factor_embedding_root(FIG4_CORRELATED.hurst,
                                          FIG4_CORRELATED.point_cov.tobytes(), 1024)
        assert half.tobytes() == expected[0].tobytes() and clip_energy == expected[1]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["file"]

    def test_a_failed_rename_leaves_no_temporary_file(self, root_cache):
        # a directory where the root's file belongs: the load misses, and
        # the store's final rename fails after the file is written
        spec = FIG4_CORRELATED
        path, _ = rootcache.entry(spec.hurst, spec.point_cov.tobytes(), 1024)
        os.makedirs(path)
        half, clip_energy = fresh_root(spec, 1024)
        expected = _factor_embedding_root(spec.hurst, spec.point_cov.tobytes(), 1024)
        assert half.tobytes() == expected[0].tobytes() and clip_energy == expected[1]
        assert list(root_cache.iterdir()) == [Path(path)]
        assert not any(Path(path).iterdir())

    @pytest.mark.parametrize("cache_home", [None, "", "relative/cache"])
    def test_the_default_cache_is_under_home(self, tmp_path, monkeypatch, cache_home):
        if cache_home is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", cache_home)
        monkeypatch.setenv("HOME", str(tmp_path))
        path, _ = rootcache.entry(FIG4_LIKE.hurst, FIG4_LIKE.point_cov.tobytes(), 1024)
        assert Path(path).parent == tmp_path / ".cache" / "eigenwave"


class TestMixing:
    def test_canonical(self):
        m = make_mixing_matrix(MixingSpec("canonical", p=4, r=2), np.random.default_rng(0))
        np.testing.assert_array_equal(m, np.eye(4, 2))

    def test_random_unit_columns(self):
        m = make_mixing_matrix(MixingSpec("random_unit_columns", p=100, r=3),
                               np.random.default_rng(7))
        np.testing.assert_allclose(np.linalg.norm(m, axis=0), 1.0, rtol=0, atol=1e-12)

    def test_generator_is_required(self):
        # no unseeded fallback: every draw comes from its caller's generator
        with pytest.raises(TypeError, match="rng"):
            make_mixing_matrix(MixingSpec("random_unit_columns", 4, 2))

    def test_explicit_identity(self):
        m = make_mixing_matrix(MixingSpec("explicit", p=3, r=3, matrix=np.eye(3)),
                               np.random.default_rng(0))
        np.testing.assert_array_equal(m, np.eye(3))

    def test_explicit_requires_unit_columns(self):
        with pytest.raises(ValueError, match="unit norm"):
            MixingSpec("explicit", p=2, r=2, matrix=2 * np.eye(2))

    def test_p_below_r_rejected(self):
        with pytest.raises(ValueError, match="p >= r"):
            MixingSpec("canonical", p=2, r=3)


class TestNoise:
    def test_none_is_zero(self):
        z = synthesize_noise(NoiseSpec("none"), 3, 100, np.random.default_rng(1))
        np.testing.assert_array_equal(z, np.zeros((3, 100)))

    def test_iid_variance(self):
        z = synthesize_noise(NoiseSpec("iid_gaussian", variance=1.0), 2, 16384,
                             np.random.default_rng(2))
        for row in z:
            # variance of the sample variance is 2/n for unit Gaussians
            assert abs(row.var() - 1.0) < 3 * np.sqrt(2.0 / row.size)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_iid_is_the_scaled_draw_bit_for_bit(self, seed):
        z = synthesize_noise(NoiseSpec("iid_gaussian", variance=2.5), 3, 257,
                             np.random.default_rng(seed))
        expect = np.sqrt(2.5) * np.random.default_rng(seed).standard_normal((3, 257))
        assert z.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_arma_filters_the_scaled_draw_bit_for_bit(self, seed):
        spec = NoiseSpec("arma", variance=2.5, ar=(0.6,), ma=(0.3,))
        burn = spec.burn_in
        eps = np.sqrt(2.5) * np.random.default_rng(seed).standard_normal((3, 257 + burn))
        _arma_filter(eps, spec.ar, spec.ma)
        z = synthesize_noise(spec, 3, 257, np.random.default_rng(seed))
        assert z.tobytes() == eps[:, burn:].tobytes()

    def test_ar1_autocorrelation(self):
        rng = np.random.default_rng(3)
        rho = []
        for _ in range(40):
            z = synthesize_noise(NoiseSpec("arma", variance=1.0, ar=(0.5,)), 1, 4096, rng)
            x = z[0]
            rho.append(np.dot(x[:-1], x[1:]) / np.dot(x, x))
        rho = np.array(rho)
        se = rho.std(ddof=1) / np.sqrt(rho.size)
        assert abs(rho.mean() - 0.5) < 3 * se + 1e-3

    def test_arma_lag0_bias_small(self):
        # burn-in long enough that lag-0 covariance bias is < 1e-3; the
        # process is zero-mean so E[x^2] estimates it without centering bias
        rng = np.random.default_rng(4)
        target = 1.0 / (1.0 - 0.5 ** 2)  # AR(1) variance
        vs = []
        for _ in range(400):
            z = synthesize_noise(NoiseSpec("arma", variance=1.0, ar=(0.5,)), 1, 512, rng)
            vs.append((z[0, :32] ** 2).mean())  # earliest samples carry any init bias
        se = np.std(vs, ddof=1) / np.sqrt(len(vs))
        assert abs(np.mean(vs) - target) < 3 * se + 1e-3 * target

    def test_nonstationary_rejected(self):
        with pytest.raises(ValueError, match="nonstationary"):
            NoiseSpec("arma", ar=(1.01,))
        with pytest.raises(ValueError, match="nonstationary"):
            NoiseSpec("arma", ar=(0.5, 0.5))  # root on the unit circle

    @pytest.mark.parametrize("spec, burn_in", [
        (NoiseSpec("iid_gaussian"), 0),
        (NoiseSpec("none"), 0),
        (NoiseSpec("arma", ar=(0.6,), ma=(0.3,)), 512),
        (NoiseSpec("arma", ar=(0.998,)), 5011),
        (NoiseSpec("arma", ar=(0.99999,)), 1_000_011),
    ], ids=["iid", "none", "arma11", "ar-0.998", "ar-0.99999"])
    def test_burn_in(self, spec, burn_in):
        assert spec.burn_in == burn_in

    def test_burn_in_is_derived_not_given(self):
        with pytest.raises(TypeError, match="burn_in"):
            NoiseSpec("arma", ar=(0.6,), burn_in=8)

    def test_burn_in_over_the_limit_rejected(self):
        with pytest.raises(ValueError) as err:
            NoiseSpec("arma", ar=(0.9999999999,))
        assert str(err.value) == (
            "ARMA burn-in of 99999991736 samples exceeds the limit of 1048576: an AR root "
            "within about 1e-5 of the unit circle, or over 10^5 coefficients")

    def test_ar_roots_are_found_once_per_spec(self, monkeypatch):
        # the stationarity rule and the burn-in share one np.roots; a draw
        # reads the stored burn-in
        calls = []
        roots = np.roots

        def spy(coefs):
            calls.append(coefs)
            return roots(coefs)

        monkeypatch.setattr(np, "roots", spy)
        spec = NoiseSpec("arma", variance=2.0, ar=(0.5, -0.2), ma=(0.3,))
        assert len(calls) == 1
        NoiseSpec("arma", ma=(0.3,))
        NoiseSpec("iid_gaussian")
        assert len(calls) == 1
        rng = np.random.default_rng(6)
        for _ in range(3):
            synthesize_noise(spec, 2, 300, rng)
        assert len(calls) == 1


ARMA_ORDERS = {
    "none": ((), ()),
    "ar1": ((0.6,), ()),
    "ar2-complex-roots": ((1.2, -0.5), ()),
    "ma1": ((), (0.4,)),
    "ma3": ((), (0.5, -0.3, 0.2)),
    "arma11": ((0.6,), (0.3,)),
    "arma23": ((0.5, -0.3), (0.2, 0.1, -0.4)),
    "ar-0.95": ((0.95,), ()),
    "ar-0.998": ((0.998,), ()),  # burn-in of 5011 samples, longer than a chunk
    # orders above the block length make the blocks that long
    "long-orders": ((0.02,) * 35, (0.05,) * 40),
}


def assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestArmaFilter:
    @pytest.mark.parametrize("name", ARMA_ORDERS)
    @pytest.mark.parametrize("p, n, variance", [(1, 1000, 1.0), (3, 257, 2.5)])
    def test_noise_equals_the_loop(self, name, p, n, variance):
        ar, ma = ARMA_ORDERS[name]
        spec = NoiseSpec("arma", variance=variance, ar=ar, ma=ma)
        burn = spec.burn_in
        eps = np.sqrt(variance) * np.random.default_rng(5).standard_normal((p, n + burn))
        got = synthesize_noise(spec, p, n, np.random.default_rng(5))
        assert_close(got, arma_noise_reference(eps, ar, ma)[:, burn:])

    @pytest.mark.parametrize("name", ["arma11", "arma23", "long-orders"])
    @pytest.mark.parametrize("total", [1, 31, 32, 33, 2047, 2048, 2049, 4100])
    def test_filter_equals_the_loop_across_block_and_chunk_ends(self, name, total):
        ar, ma = ARMA_ORDERS[name]
        eps = np.random.default_rng(total).standard_normal((2, total))
        ref = arma_noise_reference(eps, ar, ma)
        _arma_filter(eps, ar, ma)
        assert_close(eps, ref)

    @pytest.mark.parametrize("ar, ma, psi", [
        ((0.95,), (), lambda k: 0.95 ** k),
        ((0.6,), (0.3,), lambda k: np.where(k == 0, 1.0, 0.9 * 0.6 ** (k - 1.0))),
        # roots rho e^{+-i w} of z^2 - 1.2 z + 0.5
        ((1.2, -0.5), (),
         lambda k: (np.sqrt(0.5) ** k * np.sin((k + 1) * np.arccos(0.6 * np.sqrt(2.0)))
                    / np.sin(np.arccos(0.6 * np.sqrt(2.0))))),
        ((), (0.5, -0.3, 0.2), lambda k: np.array([1.0, 0.5, -0.3, 0.2, 0.0])[np.minimum(k, 4)]),
    ])
    @pytest.mark.parametrize("at", [0, 31, 32, 2047, 2050])
    def test_impulse_gives_the_closed_form_weights(self, ar, ma, psi, at):
        eps = np.zeros((1, 4200))
        eps[0, at] = 1.0
        _arma_filter(eps, ar, ma)
        np.testing.assert_array_equal(eps[0, :at], 0.0)
        np.testing.assert_allclose(eps[0, at:], psi(np.arange(4200 - at)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["ar1", "ar2-complex-roots", "ma3", "arma23"])
    @pytest.mark.parametrize("block", [5, 32])
    def test_carried_impulse_gives_the_homogeneous_recursion(self, name, block):
        # A unit value in the carried state, with every eps of the block at
        # zero: a carried x starts the homogeneous AR recursion, and a carried
        # eps adds the MA weights that still reach into the block.
        ar, ma = ARMA_ORDERS[name]
        na, nm = len(ar), len(ma)
        zero_state, carried = _arma_block_operators(ar, ma, block)
        assert carried.shape == (nm + na, block)
        for row in range(nm + na):
            eps_hist = np.zeros(nm)
            x_hist = np.zeros(na)
            if row < nm:
                eps_hist[row] = 1.0
            else:
                x_hist[row - nm] = 1.0
            e = np.concatenate([eps_hist, np.zeros(block)])
            x = np.concatenate([x_hist, np.zeros(block)])
            for k in range(block):
                x[na + k] = (sum(a * x[na + k - i] for i, a in enumerate(ar, start=1))
                             + sum(b * e[nm + k - i] for i, b in enumerate(ma, start=1)))
            np.testing.assert_allclose(carried[row], x[na:], rtol=0, atol=1e-13)
        # the zero-state operator is the lower-triangular Toeplitz matrix of
        # the impulse response, transposed for right multiplication
        impulse = np.zeros((1, block))
        impulse[0, 0] = 1.0
        psi = arma_noise_reference(impulse, ar, ma)[0]
        lag = np.arange(block)[None, :] - np.arange(block)[:, None]
        np.testing.assert_allclose(zero_state, np.where(lag >= 0, psi[np.abs(lag)], 0.0),
                                   rtol=0, atol=1e-13)


class TestAssemble:
    def test_identity_mixing_no_noise(self):
        x = np.arange(12.0).reshape(3, 4)
        z = np.zeros((3, 4))
        y = assemble_observations(np.eye(3), x, z)
        np.testing.assert_array_equal(y, x)

    def test_zero_signal(self):
        x = np.zeros((2, 5))
        z = np.ones((4, 5))
        p = np.eye(4, 2)
        y = assemble_observations(p, x, z)
        np.testing.assert_array_equal(y, z)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(11)
        p, r, n = 5, 2, 7
        mix = rng.standard_normal((p, r))
        x = rng.standard_normal((r, n))
        z = rng.standard_normal((p, n))
        y = assemble_observations(mix, x, z)
        expect = np.zeros((p, n))
        for i in range(p):
            for t in range(n):
                acc = z[i, t]
                for q in range(r):
                    acc += mix[i, q] * x[q, t]
                expect[i, t] = acc
        np.testing.assert_allclose(y, expect, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("z_layout", ["contiguous", "column slice"])
    def test_is_the_product_plus_noise_bit_for_bit(self, z_layout):
        rng = np.random.default_rng(12)
        mix = rng.standard_normal((7, 3))
        x = rng.standard_normal((3, 1000))
        z_rows = rng.standard_normal((7, 1013))
        if z_layout == "contiguous":
            z_rows = z_rows[:, 13:].copy()
        z = z_rows[:, -1000:]
        z_bytes = z_rows.tobytes()
        y = assemble_observations(mix, x, z)
        assert y.tobytes() == (mix @ x + z).tobytes()
        assert z_rows.tobytes() == z_bytes  # the noise is never written into
        assert not np.shares_memory(y, z_rows)

    @pytest.mark.parametrize("name", ["fig1", "fig3", "fig4", "arma-wide", "explicit-none"])
    def test_draws_have_the_study_shapes(self, name):
        # assemble_observations trusts its inputs: build_mc_config settles p,
        # r and n, and the draw's stages follow them
        if name == "arma-wide":
            doc = json.loads(ARMA_WIDE.read_text())
        elif name == "explicit-none":
            doc = {"model": {"r": 2, "hurst": [0.35, 0.75], "n": 1024, "p": 3,
                             "mixing": {"kind": "explicit",
                                        "matrix": [[0.6, 0.0], [0.8, 0.6], [0.0, 0.8]]},
                             "noise": {"kind": "none"}},
                   "analysis": {"j1": 2, "j2": 6}}
        else:
            doc = preset_config(name)
        config = build_mc_config(resolve_config(doc))
        y, x, z, mixing, _ = draw_observation(config, 0)
        p, r, n = config.p, config.model.r, config.n
        assert (y.shape, x.shape, z.shape, mixing.shape) == (
            (p, n), (r, n), (p, n), (p, r))

    def test_mixing_preserves_covariance(self):
        # lag-0 covariance of Y approximates P sigma P^T + Cov(Z)
        rng = np.random.default_rng(15)
        sigma = np.array([[1.0, 0.4], [0.4, 1.0]])
        spec = OfBmSpec(hurst=(0.6, 0.6), point_cov=sigma)
        mix = make_mixing_matrix(MixingSpec("random_unit_columns", p=4, r=2), rng)
        samples = []
        for _ in range(300):
            x, _ = synthesize_ofbm_increments(spec, 256, rng)
            z = synthesize_noise(NoiseSpec("iid_gaussian", variance=0.25), 4, 256, rng)
            y = assemble_observations(mix, x, z)
            samples.append(y[:, 17])
        got = np.cov(np.array(samples).T, ddof=1)
        expect = mix @ sigma @ mix.T + 0.25 * np.eye(4)
        assert np.abs(got - expect).max() < 0.15


def test_cumulative_path():
    s = np.array([[1.0, 2.0, 3.0], [1.0, -1.0, 1.0]])
    b = cumulative_path(s)
    np.testing.assert_array_equal(b, [[1.0, 3.0, 6.0], [1.0, 0.0, 1.0]])


class TestDrawObservation:
    """draw_observation(config, i) is the public stages run in order on the
    generator seeded with (master seed, i): the latent path, P, then Z."""

    @pytest.mark.parametrize("index", [0, 3])
    @pytest.mark.parametrize("shaper", [None, 1], ids=["inline", "one-thread-executor"])
    @pytest.mark.parametrize("mixing", [
        {"kind": "canonical"},
        {"kind": "random_unit_columns"},
        {"kind": "explicit", "matrix": [[0.6, 0.0], [0.8, 0.6], [0.0, 0.8]]},
    ], ids=["canonical", "random_unit_columns", "explicit"])
    @pytest.mark.parametrize("noise", [
        {"kind": "iid_gaussian", "variance": 2.5},
        {"kind": "arma", "ar": [0.6], "ma": [0.3]},
        {"kind": "none"},
    ], ids=["iid", "arma", "none"])
    def test_is_the_stages_in_order(self, noise, mixing, shaper, index):
        doc = {"model": {"r": 2, "hurst": [0.35, 0.75], "n": 1024, "p": 3,
                         "mixing": mixing, "noise": noise},
               "analysis": {"j1": 2, "j2": 6}, "mc": {"master_seed": 17}}
        config = build_mc_config(resolve_config(doc))
        if shaper is None:
            *drawn, diagnostics = draw_observation(config, index)
        else:
            with ThreadPoolExecutor(max_workers=shaper) as pool:
                *drawn, diagnostics = draw_observation(config, index, pool)
        rng = np.random.default_rng([config.master_seed, index])
        increments, expected = synthesize_ofbm_increments(config.model, config.n, rng)
        x = cumulative_path(increments)
        mixing_spec = MixingSpec(config.mixing_kind, config.p, config.model.r,
                                 config.mixing_matrix)
        p = make_mixing_matrix(mixing_spec, rng)
        z = synthesize_noise(config.noise, config.p, config.n, rng)
        y = assemble_observations(p, x, z)
        for got, want in zip(drawn, (y, x, z, p)):
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes())
        assert diagnostics.clipped_energy == expected.clipped_energy
