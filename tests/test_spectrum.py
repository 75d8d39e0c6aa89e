import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenwave.config import build_mc_config, preset_config, resolve_config
from eigenwave.simulate import draw_observation
from eigenwave.spectrum import WaveletCovariance, log_eigen_spectrum, wavelet_covariance
from eigenwave.wavelets import make_filter_bank, pyramid_transform
from oracles import jacobi_eigen

ARMA_WIDE = Path(__file__).resolve().parent.parent / "perfbench/workloads/arma-wide.json"
STUDIES = ["fig1", "fig3", "fig4", "arma-wide"]
FLOOR = 1e-10
HAAR = make_filter_bank("haar", 1)


def log2_and_flags(lam):
    """The log2 eigenvalues and flags that log_eigen_spectrum makes of the
    eigenvalues lam at FLOOR, as bytes."""
    flags = lam < FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        log2lam = np.where(flags, np.nan, np.log2(np.where(flags, 1.0, lam)))
    return log2lam.tobytes(), flags.tobytes()


def spectrum_bytes(spectrum):
    return spectrum.log2_eigenvalues.tobytes(), spectrum.zero_flags.tobytes()


@lru_cache(maxsize=None)
def study_covariances(name, index):
    """The octave covariances of replication `index` of a preset, or of the
    arma-wide benchmark workload."""
    doc = json.loads(ARMA_WIDE.read_text()) if name == "arma-wide" else preset_config(name)
    config = build_mc_config(resolve_config(doc))
    series = draw_observation(config, index)[0]
    pyr = pyramid_transform(series, make_filter_bank(config.family, config.n_vanishing),
                            config.j2, j_min=config.j1)
    return tuple(wavelet_covariance(j, pyr.detail(j)) for j in range(config.j1, config.j2 + 1))


class TestWaveletCovariance:
    def test_scalar_case(self):
        cov = wavelet_covariance(1, np.array([[2.0, -2.0]]))
        np.testing.assert_allclose(cov.matrix, [[4.0]])
        assert cov.n_j == 2

    def test_zero_details(self):
        cov = wavelet_covariance(2, np.zeros((3, 5)))
        np.testing.assert_array_equal(cov.matrix, np.zeros((3, 3)))

    def test_single_vector_outer_product(self):
        cov = wavelet_covariance(1, np.array([[1.0], [1.0]]))
        np.testing.assert_allclose(cov.matrix, [[1.0, 1.0], [1.0, 1.0]])
        assert np.linalg.matrix_rank(cov.matrix) == 1

    def test_exact_symmetry(self):
        # the only symmetry guarantee the eigensolver gets: wide, tall, scalar
        # and badly scaled detail matrices, and the octave details of two
        # replications of each study, all give bitwise-symmetric output
        rng = np.random.default_rng(1)
        covs = [wavelet_covariance(1, scale * rng.standard_normal(shape))
                for shape, scale in (((6, 40), 1.0), ((12, 3), 1e-6), ((1, 5), 1.0),
                                     ((30, 30), 1e8), ((64, 2), 3.0))]
        covs += [cov for name in STUDIES for index in range(2)
                 for cov in study_covariances(name, index)]
        for cov in covs:
            assert cov.matrix.tobytes() == cov.matrix.T.copy().tobytes()

    def test_trace_identity(self):
        rng = np.random.default_rng(2)
        d = rng.standard_normal((5, 33))
        cov = wavelet_covariance(1, d)
        expect = (d ** 2).sum() / d.shape[1]
        assert abs(np.trace(cov.matrix) - expect) < 1e-10 * expect


class TestSymEigen:
    """np.linalg.eigh, the solver log_eigen_spectrum calls on the stack of
    octave covariances: ascending eigenvalues and orthonormal eigenvectors."""

    @staticmethod
    def sym_eigen(m):
        lam, vec = np.linalg.eigh(m)
        spectrum = log_eigen_spectrum([WaveletCovariance(j=1, n_j=1, matrix=m)], FLOOR)
        assert spectrum_bytes(spectrum) == log2_and_flags(lam[None])
        return lam, vec

    def test_two_by_two(self):
        lam, vec = self.sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(lam, [1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(vec.T @ vec), np.eye(2), atol=1e-12)

    def test_diagonal_sorted(self):
        d = np.array([3.0, -1.0, 2.0])
        lam, vec = self.sym_eigen(np.diag(d))
        np.testing.assert_allclose(lam, sorted(d), atol=1e-14)
        # eigenvectors are signed canonical vectors in sorted order
        np.testing.assert_allclose(np.abs(vec), np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_residuals_random(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((50, 50))
        m = (a + a.T) / 2
        lam, vec = self.sym_eigen(m)
        scale = np.linalg.norm(m, 2)
        assert np.linalg.norm(m @ vec - vec * lam, 2) < 1e-10 * scale
        assert np.abs(vec.T @ vec - np.eye(50)).max() < 1e-10

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((20, 20))
        m = a @ a.T
        lam, _ = self.sym_eigen(m)
        assert abs(lam.sum() - np.trace(m)) < 1e-10 * abs(np.trace(m))


class TestJacobiOracle:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_agrees_with_lapack(self, p):
        rng = np.random.default_rng(10 + p)
        a = rng.standard_normal((p, p))
        m = (a + a.T) / 2
        lam_j, vec_j = jacobi_eigen(m)
        lam_l, _ = np.linalg.eigh(m)
        scale = max(np.abs(lam_l).max(), 1.0)
        np.testing.assert_allclose(lam_j, lam_l, rtol=0, atol=1e-10 * scale)
        assert np.linalg.norm(m @ vec_j - vec_j * lam_j, 2) < 1e-10 * scale

    def test_reconstructs(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((6, 6))
        m = a @ a.T
        lam, vec = jacobi_eigen(m)
        np.testing.assert_allclose(vec @ np.diag(lam) @ vec.T, m, atol=1e-10)


class TestLogEigenSpectrum:
    def _spectrum_from_eigs(self, per_octave):
        covs = [wavelet_covariance(j, self._details(eigs))
                for j, eigs in enumerate(per_octave, start=1)]
        return log_eigen_spectrum(covs, FLOOR)

    @staticmethod
    def _details(eigs):
        # diagonal detail matrix whose covariance has the requested spectrum
        eigs = np.asarray(eigs, dtype=np.float64)
        p = eigs.size
        return np.diag(np.sqrt(eigs * p))

    def test_flooring_flags(self):
        spec = self._spectrum_from_eigs([[1e-14, 4.0]])
        np.testing.assert_array_equal(spec.zero_flags, [[True, False]])
        assert np.isnan(spec.log2_eigenvalues[0, 0])
        assert spec.log2_eigenvalues[0, 1] == pytest.approx(2.0)

    def test_simple_log(self):
        spec = self._spectrum_from_eigs([[8.0]])
        assert spec.log2_eigenvalues[0, 0] == pytest.approx(3.0)

    def test_all_flagged(self):
        spec = self._spectrum_from_eigs([[1e-13, 1e-12]])
        assert spec.zero_flags.all()

    def test_rank_deficiency_flags(self):
        # p > n_j forces at least p - n_j zero eigenvalues
        rng = np.random.default_rng(5)
        cov = wavelet_covariance(3, rng.standard_normal((6, 2)))
        spec = log_eigen_spectrum([cov], FLOOR)
        assert spec.zero_flags[0].sum() >= 4

    def test_positive_floor_required(self):
        cov = wavelet_covariance(1, np.ones((1, 4)))
        with pytest.raises(ValueError, match="floor"):
            log_eigen_spectrum([cov], floor=0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["inf", "nan"])
    def test_non_finite_covariance_names_its_octave(self, sign):
        # 1e200 squared overflows: to inf, or to inf - inf = NaN off the diagonal
        big = np.array([[1e200, 1e200], [1e200, sign * 1e200]])
        with np.errstate(over="ignore", invalid="ignore"):
            covs = [wavelet_covariance(3, np.eye(2)), wavelet_covariance(4, big),
                    wavelet_covariance(5, big)]
        assert not np.isfinite(covs[1].matrix).all()
        with pytest.raises(ValueError, match=r"^covariance at octave 4 is not finite: "
                                             r".* overflow float64$"):
            log_eigen_spectrum(covs, FLOOR)

    def test_needs_no_error_state_of_its_own(self):
        # flagged eigenvalues, zero and negative ones among them, never reach
        # log2, so no floating-point flag rises even where every flag raises
        rng = np.random.default_rng(11)
        covs = [WaveletCovariance(1, 6, np.diag([0.0, -3.5e-15, 1e-12, 0.5, 2.0, 8.0])),
                wavelet_covariance(2, rng.standard_normal((6, 3))),
                wavelet_covariance(3, rng.standard_normal((6, 40)))]
        lam = np.linalg.eigh(np.stack([c.matrix for c in covs]))[0]
        assert (lam == 0).any() and (lam < 0).any()
        with np.errstate(all="raise"):
            raising = log_eigen_spectrum(covs, FLOOR)
        with np.errstate(divide="warn", over="warn", under="ignore", invalid="warn"):
            default = log_eigen_spectrum(covs, FLOOR)  # numpy's default state
        assert spectrum_bytes(raising) == spectrum_bytes(default) == log2_and_flags(lam)
        assert raising.zero_flags.sum() == 6  # three floored at octave 1, three at octave 2

    def test_from_pyramid_counts(self):
        rng = np.random.default_rng(7)
        series = rng.standard_normal((3, 512))
        pyr = pyramid_transform(series, HAAR, 4)
        spec = log_eigen_spectrum([wavelet_covariance(j, pyr.detail(j)) for j in (2, 3, 4)],
                                  FLOOR)
        assert spec.log2_eigenvalues.shape == spec.zero_flags.shape == (3, 3)
        assert spec.counts == tuple(pyr.counts[j] for j in (2, 3, 4))


def assert_batched_eigh_is_per_octave(covs):
    per_octave = np.stack([np.linalg.eigh(c.matrix)[0] for c in covs])
    assert spectrum_bytes(log_eigen_spectrum(covs, FLOOR)) == log2_and_flags(per_octave)


class TestBatchedEigh:
    """One eigh over the (octaves, p, p) stack gives the log2 eigenvalues and
    flags of one eigh per octave, bit for bit; the fixtures' byte-identical
    outputs rest on this."""

    @pytest.mark.parametrize("name", STUDIES)
    def test_study_replications(self, name):
        for index in range(2):
            assert_batched_eigh_is_per_octave(study_covariances(name, index))

    @given(p=st.integers(1, 96), octaves=st.integers(2, 6), seed=st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_stacks(self, p, octaves, seed):
        # coefficient counts below and above p: rank-deficient and full-rank octaves
        rng = np.random.default_rng(seed)
        covs = [wavelet_covariance(j, rng.standard_normal((p, int(rng.integers(1, 3 * p + 2)))))
                for j in range(1, octaves + 1)]
        assert_batched_eigh_is_per_octave(covs)
