"""Exact invariances of the estimator, checked through `estimate_series`.

Scaling a series by a power of two, permuting its rows, rotating it by an
orthogonal Q and adding a polynomial trend of degree below the filter's
vanishing moments change no exponent estimate in exact arithmetic: the
log-eigenvalue slopes see neither a constant factor, nor a change of basis,
nor what the high-pass filter annihilates. In floating point they agree to
a tolerance built from how the numbers are computed. `eigh` is backward
stable, so an eigenvalue moves by a few ulps of its octave's largest one;
`log2` adds an ulp of its value; and the slope sums those errors with
weights |w_j|. A trend's rounding is on the scale of Y plus the trend, so
its tolerance grows by that ratio. Flipping the signs of rows only negates
numbers, which is exact, so it changes no bit.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenwave.estimators import estimate_series
from eigenwave.spectrum import wavelet_covariance
from eigenwave.wavelets import make_filter_bank, pyramid_transform, valid_count

FAMILIES = {"haar": ("haar", 1), "db2": ("daubechies", 2), "db6": ("daubechies", 6)}
KAPPA = 0.3
FLOOR = 1e-10
EPS = np.finfo(np.float64).eps
# Headroom over the error model: over 6,000 random cases per transform the
# worst error was 4 times the model's bound, and 14 times for trends
SLACK = 64


@st.composite
def studies(draw):
    """A p x n series Y = P X + Z with random-walk latent rows, a filter and
    an octave range whose every octave holds at least 4p coefficients, so
    no eigenvalue nears the floor."""
    p = draw(st.integers(1, 8))
    filter_pair = make_filter_bank(*FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))])
    lengths = [n for n in (2 ** k for k in range(7, 12))
               if valid_count(n, 2, filter_pair.length) >= 4 * p]
    n = draw(st.sampled_from(lengths))
    octaves = [j for j in range(1, 12) if valid_count(n, j, filter_pair.length) >= 4 * p]
    j1 = draw(st.integers(1, octaves[-1] - 1))
    j2 = draw(st.integers(j1 + 1, octaves[-1]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = int(rng.integers(1, p + 1))
    latent = np.cumsum(rng.standard_normal((r, n)), axis=1)
    series = rng.standard_normal((p, r)) @ latent + rng.standard_normal((p, n))
    return series, filter_pair, j1, j2, rng


def estimate(series, filter_pair, j1, j2):
    return estimate_series(series, filter_pair, j1, j2, scheme="count", floor=FLOOR,
                           kappa=KAPPA, r=None)


def tolerance(series, filter_pair, j1, j2, weights):
    """Per-index bound on |delta - delta'| for a transform that is exact in
    real arithmetic and rounds like the estimator itself."""
    pyramid = pyramid_transform(series, filter_pair, j2, j_min=j1)
    lam = np.linalg.eigh(np.stack([wavelet_covariance(j, pyramid.detail(j)).matrix
                                   for j in range(j1, j2 + 1)]))[0]
    per_octave = series.shape[0] * lam[:, -1:] / lam + np.abs(np.log2(lam))
    return SLACK * EPS * (np.abs(weights)[:, None] * per_octave).sum(axis=0)


def assert_same_estimates(before, after, tol):
    assert np.all(np.abs(after.delta - before.delta) <= tol)
    if np.all(np.abs(before.delta - KAPPA) > tol):
        assert after.r_hat == before.r_hat
    if after.r_hat == before.r_hat:
        top = tol[tol.size - before.r_hat:]
        assert np.all(np.abs(after.h_hat - before.h_hat) <= top / 2)


def check(study, transformed, scale=1.0):
    series, filter_pair, j1, j2, _ = study
    before = estimate(series, filter_pair, j1, j2)
    after = estimate(transformed, filter_pair, j1, j2)
    tol = scale * tolerance(series, filter_pair, j1, j2, before.weights)
    assert_same_estimates(before, after, tol)


INVARIANCE = settings(max_examples=150, deadline=None)


@INVARIANCE
@given(study=studies(), power=st.integers(-7, 5).filter(bool))
def test_power_of_two_scaling(study, power):
    check(study, study[0] * 2.0 ** power)


@INVARIANCE
@given(study=studies(), data=st.data())
def test_row_permutation(study, data):
    series = study[0]
    order = data.draw(st.permutations(range(series.shape[0])))
    check(study, series[list(order)])


@INVARIANCE
@given(study=studies())
def test_orthogonal_rotation(study):
    series, rng = study[0], study[4]
    q, _ = np.linalg.qr(rng.standard_normal((series.shape[0],) * 2))
    check(study, q @ series)


@INVARIANCE
@given(study=studies(), log10_size=st.floats(-1.0, 4.0))
def test_polynomial_trend_below_the_vanishing_moments(study, log10_size):
    series, filter_pair, _, _, rng = study
    p, n = series.shape
    degrees = filter_pair.length // 2  # degrees 0..N_psi - 1
    t = np.arange(n) / n
    coefficients = rng.uniform(-1.0, 1.0, (p, degrees)) * 10.0 ** log10_size
    trended = series + coefficients @ np.vstack([t ** d for d in range(degrees)])
    check(study, trended, scale=np.abs(trended).max() / np.abs(series).max())


@INVARIANCE
@given(study=studies(), data=st.data())
def test_row_sign_flips_change_no_bit(study, data):
    series, filter_pair, j1, j2, _ = study
    signs = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                        min_size=series.shape[0], max_size=series.shape[0])))
    before = estimate(series, filter_pair, j1, j2)
    after = estimate(signs[:, None] * series, filter_pair, j1, j2)
    for name in ("ell_hat", "h_hat", "delta"):
        assert getattr(after, name).tobytes() == getattr(before, name).tobytes()
    assert after.r_hat == before.r_hat
