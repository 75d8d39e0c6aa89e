import math

import numpy as np
import pytest
import scipy.special

from eigenwave.special import chi2_cdf, chi2_quantile


class TestChi2Cdf:
    def test_two_dof_closed_form(self):
        # CDF(x) = 1 - exp(-x/2) for two degrees of freedom
        for x in (0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
            assert chi2_cdf(2, x) == pytest.approx(1.0 - math.exp(-x / 2.0), abs=1e-12)
        assert chi2_cdf(2, 2.0 * math.log(2.0)) == pytest.approx(0.5, abs=1e-12)

    def test_one_dof_is_erf(self):
        # CDF(x) = erf(sqrt(x/2)); one-sigma point at x = 1
        assert chi2_cdf(1, 1.0) == pytest.approx(math.erf(math.sqrt(0.5)), abs=1e-12)
        assert chi2_cdf(1, 1.0) == pytest.approx(0.6826894921370859, abs=1e-10)

    @pytest.mark.parametrize("dof", [1, 2, 3, 6, 10, 50, 200, 1001])
    def test_matches_scipy(self, dof):
        xs = np.linspace(0.01, 5 * dof, 200)
        ours = np.array([chi2_cdf(dof, float(x)) for x in xs])
        ref = scipy.special.gammainc(dof / 2.0, xs / 2.0)
        assert np.abs(ours - ref).max() < 1e-10

    def test_edges(self):
        assert chi2_cdf(3, 0.0) == 0.0
        with pytest.raises(ValueError):
            chi2_cdf(3, -0.5)
        with pytest.raises(ValueError):
            chi2_cdf(0, 1.0)


class TestChi2Quantile:
    @pytest.mark.parametrize("dof", [1, 2, 6, 12])
    def test_round_trip(self, dof):
        for x in (0.05, 0.5, 1.0, 3.0, 2.0 * dof):
            p = chi2_cdf(dof, x)
            if 0.0 < p < 1.0:
                assert chi2_quantile(dof, p) == pytest.approx(x, abs=1e-6, rel=1e-6)

    def test_median_two_dof(self):
        assert chi2_quantile(2, 0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-7)

    def test_out_of_range_probability(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                chi2_quantile(2, bad)

