"""Wavelet eigenvalue regression for high-dimensional fractal time series.

Estimates the low-dimensional Hurst structure of p-variate measurements
from the eigenvalues of per-scale wavelet covariance matrices, and ships
a synthesis engine plus Monte Carlo harness for validating the method.
The rest of the library is imported from its submodules.
"""
from .estimators import estimate_series
from .simulate import OfBmSpec, cumulative_path, synthesize_ofbm_increments
from .wavelets import make_filter_bank

__version__ = "0.1.0"

__all__ = [
    "OfBmSpec", "cumulative_path", "estimate_series", "make_filter_bank",
    "synthesize_ofbm_increments",
]
