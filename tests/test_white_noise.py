"""An exact oracle for the whole estimator, in law, on white noise.

With p = 1 and i.i.d. N(0, 1) input, the valid-only details of any
orthonormal filter are i.i.d. N(0, 1) within and across octaves, so the
octave-j eigenvalue is chi-square with n_j degrees of freedom over n_j,
and the slope delta = sum_j w_j log2(lambda_j) has

    mean      sum_j w_j (psi(n_j/2) - ln(n_j/2)) / ln 2
    variance  sum_j w_j^2 psi'(n_j/2) / ln^2 2.

The sample mean of M slopes must lie within 4 standard errors of the
exact mean, and the ratio of the sample variance to the exact one within
the 0.1-99.9% band of chi^2_{M-1}/(M-1).
"""
import numpy as np
import pytest
from scipy import special, stats

from eigenwave.estimators import estimate_series
from eigenwave.wavelets import make_filter_bank, valid_count

N, J1, J2 = 4096, 3, 6
M = 2000
SEED = 1


def exact_moments(weights, counts):
    half = np.asarray(counts, dtype=np.float64) / 2
    mean = np.sum(weights * (special.digamma(half) - np.log(half))) / np.log(2)
    var = np.sum(weights ** 2 * special.polygamma(1, half)) / np.log(2) ** 2
    return mean, var


@pytest.mark.parametrize("family, n_vanishing", [("haar", 1), ("daubechies", 2),
                                                 ("daubechies", 6)],
                         ids=["haar", "db2", "db6"])
def test_slope_of_white_noise_has_its_exact_law(family, n_vanishing):
    filter_pair = make_filter_bank(family, n_vanishing)
    rng = np.random.default_rng([SEED, n_vanishing])
    deltas = np.empty(M)
    for m in range(M):
        result = estimate_series(rng.standard_normal((1, N)), filter_pair, J1, J2,
                                 scheme="count", floor=1e-10, kappa=0.3, r=None)
        deltas[m] = result.delta[0]
    counts = [valid_count(N, j, filter_pair.length) for j in range(J1, J2 + 1)]
    mean, var = exact_moments(result.weights, counts)
    z = (deltas.mean() - mean) / np.sqrt(var / M)
    assert abs(z) <= 4, z
    ratio = deltas.var(ddof=1) / var
    low, high = (stats.chi2.ppf(q, M - 1) / (M - 1) for q in (0.001, 0.999))
    assert low <= ratio <= high, (ratio, low, high)
