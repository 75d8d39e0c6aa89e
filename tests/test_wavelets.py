import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import analysis_step_reference

from eigenwave.estimators import OctaveRangeError, check_octave_range
from eigenwave.wavelets import (_analysis_step, make_filter_bank, pyramid_transform,
                                valid_count)

SQRT2 = np.sqrt(2.0)
HAAR = make_filter_bank("haar", 1)


class TestFilterBank:
    def test_haar_values(self):
        # By hand from u_k = 2^{-1/2} integral phi(t/2) phi(t-k) dt with
        # phi the unit box: u = (1/sqrt2, 1/sqrt2), v = (1/sqrt2, -1/sqrt2).
        fp = make_filter_bank("haar", 1)
        np.testing.assert_allclose(fp.low_pass, [1 / SQRT2, 1 / SQRT2], rtol=0, atol=1e-15)
        np.testing.assert_allclose(fp.high_pass, [1 / SQRT2, -1 / SQRT2], rtol=0, atol=1e-15)

    def test_haar_equals_daubechies_one(self):
        db1 = make_filter_bank("daubechies", 1)
        np.testing.assert_array_equal(HAAR.low_pass, db1.low_pass)
        np.testing.assert_array_equal(HAAR.high_pass, db1.high_pass)

    def test_vanishing_moments_are_required(self):
        # no db1 fallback: the config's default, db2, is stated once, in SCHEMA
        with pytest.raises(TypeError, match="n_vanishing"):
            make_filter_bank("daubechies")

    @pytest.mark.parametrize("n_vanishing", range(1, 11))
    def test_invariants(self, n_vanishing):
        fp = make_filter_bank("daubechies", n_vanishing)
        u = fp.low_pass
        L = u.size
        assert L == 2 * n_vanishing
        assert abs(u.sum() - SQRT2) < 1e-12
        for m in range(L // 2):
            target = 1.0 if m == 0 else 0.0
            assert abs(np.dot(u[: L - 2 * m], u[2 * m:]) - target) < 1e-12
        # moments on the support rescaled to [-1, 1]
        c = (L - 1) / 2
        x = (np.arange(L) - c) / max(c, 1.0)
        for p in range(n_vanishing):
            assert abs(np.dot(fp.high_pass, x ** p)) < 1e-10

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="1..10"):
            make_filter_bank("daubechies", 11)
        with pytest.raises(ValueError, match="1..10"):
            make_filter_bank("daubechies", 0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            make_filter_bank("meyer", 2)

    def test_haar_rejects_other_vanishing_moments(self):
        with pytest.raises(ValueError, match="haar has one vanishing moment, got 4"):
            make_filter_bank("haar", 4)

    def test_pairs_are_shared_and_read_only(self):
        fp = make_filter_bank("daubechies", 2)
        assert make_filter_bank("daubechies", 2) is fp
        with pytest.raises(ValueError, match="read-only"):
            fp.low_pass[0] = 0.0


class TestValidCount:
    def test_examples(self):
        assert valid_count(1024, 1, 2) == 512  # floor((1024-2)/2)+1
        assert valid_count(4, 3, 2) == 0       # recursion hits 2, 1, then dies
        assert valid_count(2, 1, 2) == 1       # exactly one full window

    # j starts at 2: an octave range needs two octaves
    @given(n=st.integers(8, 5000), j=st.integers(2, 8), nv=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_pyramid_lengths(self, n, j, nv):
        fp = make_filter_bank("daubechies", nv)
        if n < 2 * fp.length:
            with pytest.raises(ValueError, match="too short"):
                check_octave_range(n, 1, j, fp.length)
            return
        series = np.arange(float(n))[None, :] ** 0.5
        pyr = pyramid_transform(series, fp, j)
        for octave, details in pyr.octaves.items():
            assert details.shape[1] == valid_count(n, octave, fp.length)
        deepest = pyr.max_octave
        if deepest < j:
            assert pyr.truncated
            assert valid_count(n, deepest + 1, fp.length) == 0
            with pytest.raises(OctaveRangeError) as err:
                check_octave_range(n, 1, j, fp.length)
            assert err.value.last_feasible == deepest
        else:
            check_octave_range(n, 1, j, fp.length)


FILTERS = [("haar", 1)] + [("daubechies", nv) for nv in range(1, 11)]


class TestAnalysisStep:
    @pytest.mark.parametrize("family, nv", FILTERS)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_the_loop(self, family, nv, order):
        fp = make_filter_bank(family, nv)
        rng = np.random.default_rng(nv)
        for n in (fp.length - 1, fp.length, fp.length + 1, fp.length + 2, 301, 1024):
            a = np.asarray(np.cumsum(rng.standard_normal((5, n)), axis=1), order=order)
            ref = analysis_step_reference(a, fp.low_pass, fp.high_pass)
            got = _analysis_step(a, fp.low_pass, fp.high_pass)
            if ref is None:  # no full window: the row is shorter than the filter
                assert got is None
                continue
            scale = np.abs(ref).max()
            for g, r in zip(got, ref):
                assert g.shape == r.shape == (5, (n - fp.length) // 2 + 1)
                assert np.abs(g - r).max() <= 1e-12 * scale

    @pytest.mark.parametrize("family, nv", FILTERS)
    def test_pyramid_equals_the_loop_down_to_one_coefficient(self, family, nv):
        fp = make_filter_bank(family, nv)
        # n_{j+1} = (n_j - L) // 2 + 1 takes 7L - 6 samples to 3L - 2, L and 1
        y = np.random.default_rng(nv).standard_normal((3, 7 * fp.length - 6))
        pyr = pyramid_transform(y, fp, 4)
        assert pyr.truncated and pyr.counts == {1: 3 * fp.length - 2, 2: fp.length, 3: 1}
        approx = y
        for j in pyr.octaves:
            approx, detail = analysis_step_reference(approx, fp.low_pass, fp.high_pass)
            assert np.abs(pyr.detail(j) - detail).max() <= 1e-12 * np.abs(detail).max()

    @pytest.mark.parametrize("family, nv", FILTERS)
    def test_layout_does_not_change_a_bit(self, family, nv):
        fp = make_filter_bank(family, nv)
        y = np.cumsum(np.random.default_rng(nv).standard_normal((6, 777)), axis=1)
        c = pyramid_transform(np.ascontiguousarray(y), fp, 4)
        f = pyramid_transform(np.asfortranarray(y), fp, 4)
        for j in c.octaves:
            np.testing.assert_array_equal(c.detail(j), f.detail(j))


# n = 256 reaches octave 4 with each of these filters but db10 (length 20),
# whose windows stop at octave 3 with 119, 50 and 16 coefficients.
EQUIVALENT_FILTER_CASES = [
    (family, nv, j)
    for family, nv in [("haar", 1), ("daubechies", 2), ("daubechies", 6), ("daubechies", 10)]
    for j in range(1, 5) if valid_count(256, j, 2 * nv)
]


class TestEquivalentFilters:
    """J approximation steps on the identity give A_J^T: the rows of A_J are
    the level-J equivalent low-pass filter shifted by 2^J. They are
    orthonormal, and so are the level-J detail rows, which are orthogonal
    to them; so A_J maps i.i.d. N(0, s^2) samples to i.i.d. N(0, s^2)."""

    @pytest.mark.parametrize("family, nv, j", EQUIVALENT_FILTER_CASES)
    def test_approximation_and_detail_rows_are_orthonormal(self, family, nv, j):
        fp = make_filter_bank(family, nv)
        approx_t = np.eye(256)
        for _ in range(j - 1):
            approx_t, _ = _analysis_step(approx_t, fp.low_pass, None)
        approx_t, detail_t = _analysis_step(approx_t, fp.low_pass, fp.high_pass)
        a, d = approx_t.T, detail_t.T
        assert a.shape == d.shape == (valid_count(256, j, fp.length), 256)
        eye = np.eye(a.shape[0])
        assert np.abs(a @ a.T - eye).max() <= 1e-14
        assert np.abs(d @ d.T - eye).max() <= 1e-14
        assert np.abs(d @ a.T).max() <= 1e-14


class TestPyramidFromJMin:
    @pytest.mark.parametrize("family, nv", [("haar", 1), ("daubechies", 2), ("daubechies", 6)])
    def test_kept_details_equal_the_full_pyramid(self, family, nv):
        # n = 1000 reaches octave 7 with Haar and db2; db6 stops after octave 6
        fp = make_filter_bank(family, nv)
        y = np.cumsum(np.random.default_rng(nv).standard_normal((4, 1000)), axis=1)
        full = pyramid_transform(y, fp, 7)
        assert full.truncated == (nv == 6)
        for j_min in range(1, 8):
            kept = pyramid_transform(y, fp, 7, j_min=j_min)
            assert kept.counts == full.counts
            assert kept.truncated == full.truncated
            assert kept.max_octave == full.max_octave
            assert sorted(kept.octaves) == [j for j in full.octaves if j >= j_min]
            for j in kept.octaves:
                assert kept.detail(j).tobytes() == full.detail(j).tobytes()
            if j_min > 1:
                with pytest.raises(KeyError, match="not kept"):
                    kept.detail(j_min - 1)


class TestPyramid:
    def test_constant_annihilated(self):
        series = np.full((2, 256), 3.7)
        for nv in (1, 2, 4):
            pyr = pyramid_transform(series, make_filter_bank("daubechies", nv), 4)
            for details in pyr.octaves.values():
                assert np.abs(details).max() < 1e-10

    def test_haar_four_points(self):
        # D(2,k) = (Y(2k) - Y(2k+1))/sqrt2 by direct convolution.
        series = np.array([[1.0, 2.0, 3.0, 4.0]])
        pyr = pyramid_transform(series, HAAR, 1)
        np.testing.assert_allclose(pyr.detail(1), [[-1 / SQRT2, -1 / SQRT2]],
                                   rtol=0, atol=1e-15)

    def test_ramp_annihilated_by_two_moments(self):
        t = np.arange(2048.0)
        series = t[None, :] / 2048.0
        pyr = pyramid_transform(series, make_filter_bank("daubechies", 2), 5)
        for details in pyr.octaves.values():
            assert np.abs(details).max() < 1e-8

    def test_haar_energy_split(self):
        # For even n the octave-1 Haar transform is orthonormal:
        # sum A^2 + sum D^2 == sum Y^2 on the tiled interior.
        rng = np.random.default_rng(7)
        y = rng.standard_normal(512)
        series = y[None, :]
        pyr = pyramid_transform(series, HAAR, 1)
        d = pyr.detail(1)[0]
        a = (y[0::2] + y[1::2]) / SQRT2
        assert abs((a ** 2).sum() + (d ** 2).sum() - (y ** 2).sum()) < 1e-10

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_haar_direct_filter_form(self, j):
        # The composed Haar detail at octave j is the normalized difference
        # of the two half-block sums of 2^j consecutive samples.
        rng = np.random.default_rng(11)
        y = rng.standard_normal(300)
        series = y[None, :]
        pyr = pyramid_transform(series, HAAR, j)
        got = pyr.detail(j)[0]
        block, half = 2 ** j, 2 ** (j - 1)
        for k in range(got.size):
            start = block * k
            expect = (y[start:start + half].sum()
                      - y[start + half:start + block].sum()) / np.sqrt(block)
            assert abs(got[k] - expect) < 1e-10

    @pytest.mark.parametrize("nv,j", [(1, 1), (2, 2), (3, 3)])
    def test_shift_by_block_shifts_details_by_one(self, nv, j):
        rng = np.random.default_rng(13)
        y = rng.standard_normal(1024)
        fp = make_filter_bank("daubechies", nv)
        base = pyramid_transform(y[None, :], fp, j).detail(j)[0]
        shifted = pyramid_transform(
            y[None, 2 ** j:], fp, j).detail(j)[0]
        common = min(base.size - 1, shifted.size)
        np.testing.assert_array_equal(shifted[:common], base[1:common + 1])

    def test_linearity(self):
        rng = np.random.default_rng(17)
        y1 = rng.standard_normal((3, 500))
        y2 = rng.standard_normal((3, 500))
        fp = make_filter_bank("daubechies", 3)
        combo = pyramid_transform(2.5 * y1 - 1.25 * y2, fp, 4)
        p1 = pyramid_transform(y1, fp, 4)
        p2 = pyramid_transform(y2, fp, 4)
        for j in combo.octaves:
            expect = 2.5 * p1.detail(j) - 1.25 * p2.detail(j)
            np.testing.assert_allclose(combo.detail(j), expect, rtol=1e-12, atol=1e-12)

    def test_no_border_influence_bit_exact(self):
        # Coefficients shared with a strictly longer series agree bit for
        # bit, so no retained coefficient sees padding of any kind.
        rng = np.random.default_rng(19)
        y = rng.standard_normal((2, 700))
        fp = make_filter_bank("daubechies", 4)
        short = pyramid_transform(y[:, :512], fp, 5)
        full = pyramid_transform(y, fp, 5)
        for j in short.octaves:
            a, b = short.detail(j), full.detail(j)
            np.testing.assert_array_equal(a, b[:, : a.shape[1]])

    def test_truncation_flagged(self):
        series = np.ones((1, 64))
        pyr = pyramid_transform(series, HAAR, 12)
        assert pyr.truncated
        assert pyr.max_octave < 12

    def test_row_independence(self):
        # Row-wise transform: each row equals its own univariate pyramid.
        rng = np.random.default_rng(23)
        y = rng.standard_normal((4, 256))
        fp = make_filter_bank("daubechies", 2)
        full = pyramid_transform(y, fp, 3)
        for row in range(4):
            single = pyramid_transform(y[row:row + 1], fp, 3)
            for j in full.octaves:
                np.testing.assert_array_equal(full.detail(j)[row], single.detail(j)[0])
