"""Wavelet eigenvalue regression for high-dimensional fractal time series.

Estimates the low-dimensional Hurst structure of p-variate measurements
from the eigenvalues of per-scale wavelet covariance matrices, and ships
a synthesis engine plus Monte Carlo harness for validating the method.
"""
from .estimators import (COUNT_WEIGHTED, DEFAULT_KAPPA, UNIFORM,
                         EstimationResult, OctaveRangeError,
                         RegressionWeights, effective_dimension,
                         estimate_series, hurst_exponents, kappa_sweep,
                         regression_weights, scaling_diagnostic,
                         scaling_exponents)
from .montecarlo import (GammaPlotData, McConfig, ReplicationRecord,
                         gamma_plot, ks_statistic, ks_subset_average,
                         mahalanobis_sq, run_replications, summarize)
from .series import (MultivariateSeries, read_series_binary, read_series_csv,
                     write_series_binary, write_series_csv)
from .simulate import (MixingSpec, NoiseSpec, OfBmSpec, SynthesisDiagnostics,
                       assemble_observations, cumulative_path,
                       fgn_cross_covariance, make_mixing_matrix,
                       synthesize_noise, synthesize_ofbm_increments)
from .special import chi2_cdf, chi2_quantile, gamma_p
from .spectrum import (LogEigenSpectrum, WaveletCovariance, jacobi_eigen,
                       log_eigen_spectrum, spectrum_from_pyramid, sym_eigen,
                       wavelet_covariance)
from .wavelets import (DetailPyramid, FilterPair, make_filter_bank,
                       pyramid_transform, valid_count)

__version__ = "0.1.0"

__all__ = [
    "COUNT_WEIGHTED", "DEFAULT_KAPPA", "UNIFORM",
    "DetailPyramid", "EstimationResult", "FilterPair", "GammaPlotData",
    "LogEigenSpectrum", "McConfig", "MixingSpec", "MultivariateSeries",
    "NoiseSpec", "OctaveRangeError", "OfBmSpec", "RegressionWeights",
    "ReplicationRecord", "SynthesisDiagnostics", "WaveletCovariance",
    "assemble_observations", "chi2_cdf", "chi2_quantile", "cumulative_path",
    "effective_dimension", "estimate_series", "fgn_cross_covariance",
    "gamma_p", "gamma_plot", "hurst_exponents", "jacobi_eigen", "kappa_sweep",
    "ks_statistic", "ks_subset_average", "log_eigen_spectrum",
    "mahalanobis_sq", "make_filter_bank", "make_mixing_matrix",
    "pyramid_transform", "read_series_binary", "read_series_csv",
    "regression_weights", "run_replications", "scaling_diagnostic",
    "scaling_exponents", "spectrum_from_pyramid", "summarize", "sym_eigen",
    "synthesize_noise", "synthesize_ofbm_increments", "valid_count",
    "wavelet_covariance", "write_series_binary", "write_series_csv",
]
