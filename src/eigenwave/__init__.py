"""Wavelet eigenvalue regression for high-dimensional fractal time series.

Estimates the low-dimensional Hurst structure of p-variate measurements
from the eigenvalues of per-scale wavelet covariance matrices, and ships
a synthesis engine plus Monte Carlo harness for validating the method.
The rest of the library is imported from its submodules.
"""
import os

# One BLAS thread, set before the submodules load numpy. The batched linear
# algebra here works on matrices of a few dozen rows, where extra BLAS
# threads only spin beside the Monte Carlo study's own threads; parallelism
# comes from --workers, and a one-thread study shapes each latent path on a
# second thread while it draws the noise. A value the user has already set
# wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .estimators import estimate_series
from .simulate import OfBmSpec, cumulative_path, synthesize_ofbm_increments
from .wavelets import make_filter_bank

__version__ = "0.1.0"

__all__ = [
    "OfBmSpec", "cumulative_path", "estimate_series", "make_filter_bank",
    "synthesize_ofbm_increments",
]
