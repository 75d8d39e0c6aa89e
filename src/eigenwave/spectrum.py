"""Per-octave covariance matrices of detail coefficients and their spectra.

The covariance at octave j is the p x p second-moment matrix of the
detail coefficient vectors at that octave. Its ordered eigenvalues are
the raw material of the multiscale regression; eigenvalues below a small
floor (rank deficiency when p exceeds the coefficient count) are flagged
and excluded from log-domain statistics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WaveletCovariance:
    """Symmetric p x p covariance of detail vectors at one octave."""

    j: int
    n_j: int
    matrix: np.ndarray


def wavelet_covariance(j: int, details: np.ndarray) -> WaveletCovariance:
    """Average outer product of the detail vectors at octave j.

    details is a p x n_j float array of coefficients with n_j >= 1. numpy
    forms details @ details.T as one symmetric product, so the result is
    symmetric bit for bit.
    """
    n_j = details.shape[1]
    return WaveletCovariance(j=j, n_j=n_j, matrix=details @ details.T / n_j)


@dataclass(frozen=True)
class LogEigenSpectrum:
    """Base-2 logarithms of the sorted eigenvalues per octave.

    log2_eigenvalues and zero_flags both have shape (octave count, p);
    log2 entries are NaN exactly where flagged.
    """

    counts: tuple
    log2_eigenvalues: np.ndarray
    zero_flags: np.ndarray


def log_eigen_spectrum(covariances, floor: float) -> LogEigenSpectrum:
    """Eigen-decompose per-octave covariances and floor tiny eigenvalues.

    covariances is a sequence of WaveletCovariance over consecutive
    octaves. Eigenvalues below the floor are flagged as zero and carry no
    logarithm; this suppresses spuriously large log-domain slopes from
    rank-deficient matrices. A covariance with a non-finite entry is
    rejected: eigh would return NaN eigenvalues, or fail to converge.
    """
    if floor <= 0.0:
        raise ValueError(f"floor must be positive, got {floor}")
    covs = list(covariances)
    overflowed = [c.j for c in covs if not np.isfinite(c.matrix).all()]
    if overflowed:
        raise ValueError(f"covariance at octave {overflowed[0]} is not finite: the "
                         f"detail coefficients' second moments overflow float64")
    lam = np.linalg.eigh(np.stack([c.matrix for c in covs]))[0]
    flags = lam < floor  # every other eigenvalue is at least floor > 0
    log2lam = np.where(flags, np.nan, np.log2(np.where(flags, 1.0, lam)))
    return LogEigenSpectrum(counts=tuple(c.n_j for c in covs),
                            log2_eigenvalues=log2lam, zero_flags=flags)

