"""Multiscale log-eigenvalue regression and effective-dimension estimation.

Per eigenvalue index i, a weighted linear regression of log2 eigenvalues
on the octave j gives one slope S_i. The exponent estimate is
ell_hat_i = (S_i - 1)/2; the top r of these estimate the Hurst exponents
of the latent process. The diagnostic is the slope itself,
delta_i = S_i = 2 ell_hat_i + 1: it approaches 2h+1 along scaling
directions and stays near zero along noise directions, so counting
diagnostics above a threshold kappa estimates the latent dimension. A
slope needs two octaves, so every range has j1 < j2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import check_series, write_csv
from .spectrum import LogEigenSpectrum, log_eigen_spectrum, wavelet_covariance
from .wavelets import FilterPair, pyramid_transform, valid_count

UNIFORM = "uniform"
COUNT_WEIGHTED = "count"


class OctaveRangeError(ValueError):
    """Requested octave range is infeasible for the series length."""

    def __init__(self, message: str, last_feasible: int):
        super().__init__(message)
        self.last_feasible = last_feasible


def check_octave_range(n: int, j1: int, j2: int, filter_length: int) -> None:
    """Raise unless the pyramid of a length-n series reaches octaves j1..j2
    with a filter of this length: the pipeline's one feasibility rule."""
    if j1 < 1 or j1 >= j2:
        raise ValueError(f"need 1 <= j1 < j2 (a slope needs two octaves), got ({j1}, {j2})")
    if n < 2 * filter_length:
        raise ValueError(f"series length {n} too short for filter length "
                         f"{filter_length}; need at least {2 * filter_length}")
    empty = (j for j in range(1, j2 + 1) if not valid_count(n, j, filter_length))
    feasible = next(empty, j2 + 1) - 1
    if feasible < j2:
        raise OctaveRangeError(
            f"octave {j2} infeasible for series length {n} with filter "
            f"length {filter_length}; last feasible octave is {feasible}",
            last_feasible=feasible,
        )


def regression_weights(j1: int, j2: int, counts, scheme: str) -> np.ndarray:
    """Weighted least-squares slope weights w over the octave range j1..j2:
    w sums to zero and has unit first moment over j.

    Octave j gets weight b_j: the "uniform" scheme sets b_j = 1 whatever
    the counts; the "count" scheme uses its coefficient count n_j, favoring
    the better populated fine scales. The range and counts are those of a
    spectrum over a range that check_octave_range accepted: j1 < j2 and
    n_j >= 1.
    """
    js = np.arange(j1, j2 + 1, dtype=np.float64)
    if scheme == UNIFORM:
        counts = np.ones_like(js)
    elif scheme != COUNT_WEIGHTED:
        raise ValueError(f"unknown weight scheme {scheme!r}")
    b = np.asarray(counts, dtype=np.float64)
    s0, s1, s2 = b.sum(), (b * js).sum(), (b * js * js).sum()
    return b * (s0 * js - s1) / (s0 * s2 - s1 * s1)


def _slopes(spectrum: LogEigenSpectrum, weights: np.ndarray) -> np.ndarray:
    """Per-index weighted slope of log2 eigenvalues over the octaves, NaN
    where the index is flagged at any octave (rank-deficient or mixed-rank
    directions) rather than a number built from floored values. Both
    cover the same octaves."""
    flags = spectrum.zero_flags
    slope = (weights[:, None] * np.where(flags, 0.0, spectrum.log2_eigenvalues)).sum(axis=0)
    return np.where(flags.any(axis=0), np.nan, slope)


def scaling_exponents(spectrum: LogEigenSpectrum, weights: np.ndarray) -> np.ndarray:
    """Per-index exponent estimates ell_hat = (S - 1)/2, NaN where flagged."""
    return 0.5 * (_slopes(spectrum, weights) - 1.0)


def hurst_exponents(ell: np.ndarray, r: int) -> np.ndarray:
    """Top-r exponent estimates (ascending eigenvalue index order)."""
    ell = np.asarray(ell, dtype=np.float64)
    p = ell.size
    if r < 0 or r > p:
        raise ValueError(f"need 0 <= r <= {p}, got r={r}")
    top = ell[p - r:]
    bad = int(np.isnan(top).sum())
    if bad:
        raise ValueError(
            f"r={r} exceeds the defined top of the spectrum: {bad} of the "
            f"top {r} exponent estimates are undefined (flagged eigenvalues)"
        )
    return top.copy()


def scaling_diagnostic(spectrum: LogEigenSpectrum, weights: np.ndarray) -> np.ndarray:
    """Per-index diagnostic delta = S = 2 ell_hat + 1, the log-eigenvalue slope.

    Approaches 2h+1 along scaling directions and 0 along noise directions.
    Flagged indices map to -inf so they can never exceed a positive
    threshold.
    """
    slope = _slopes(spectrum, weights)
    return np.where(np.isnan(slope), -np.inf, slope)


def effective_dimension(diagnostic: np.ndarray, kappa: float) -> int:
    """Count of diagnostic entries strictly above the threshold kappa."""
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    return int((np.asarray(diagnostic) > kappa).sum())


def kappa_sweep(diagnostic_samples, kappa_grid, true_r: int):
    """Effective-dimension summary over a threshold grid.

    diagnostic_samples is an (M, p) array of per-replication diagnostics
    with M >= 1, and the grid is not empty. Returns a list of rows (kappa,
    mean, q05, q95, exact) where exact flags grid points whose mean equals
    the true dimension exactly.
    """
    samples = np.asarray(diagnostic_samples, dtype=np.float64)
    grid = np.asarray(kappa_grid, dtype=np.float64)
    # (M, K) counts, built one threshold at a time to hold M x p, not M x p x K
    counts = np.stack([(samples > kappa).sum(axis=1) for kappa in grid], axis=1)
    means = counts.mean(axis=0)
    q05, q95 = np.quantile(counts, [0.05, 0.95], axis=0)
    return [(float(kappa), float(mean), float(lo), float(hi), float(mean) == float(true_r))
            for kappa, mean, lo, hi in zip(grid, means, q05, q95)]


@dataclass(frozen=True)
class EstimationResult:
    """Everything one estimation run produces.

    ell_hat has length p with NaN at flagged indices; delta mirrors it
    with -inf; h_hat holds the top r entries for the dimension actually
    used (supplied or estimated); weights are the slope weights of the
    caller's scheme over the caller's octaves.
    """

    ell_hat: np.ndarray
    h_hat: np.ndarray
    delta: np.ndarray
    r_hat: int
    weights: np.ndarray


def octave_details(series: np.ndarray, filter_pair: FilterPair,
                   j1: int, j2: int) -> list:
    """The row-wise stage of estimate_series: the series checked with
    check_series, then its details at octaves j1..j2, each p x n_j. Each row
    of a detail array depends only on the same row of the series."""
    series = check_series(series)
    check_octave_range(series.shape[1], j1, j2, filter_pair.length)
    pyramid = pyramid_transform(series, filter_pair, j2, j_min=j1)
    return [pyramid.detail(j) for j in range(j1, j2 + 1)]


def estimate_octaves(details, j1: int, scheme: str, floor: float, kappa: float,
                     r: int | None) -> EstimationResult:
    """The whole-p stage of estimate_series, from the details at octaves j1
    onward: per-octave covariances, eigenvalues, regression, diagnostic
    and effective dimension."""
    covs = [wavelet_covariance(j, d) for j, d in enumerate(details, start=j1)]
    spectrum = log_eigen_spectrum(covs, floor=floor)
    weights = regression_weights(j1, j1 + len(covs) - 1, counts=spectrum.counts,
                                 scheme=scheme)
    ell = scaling_exponents(spectrum, weights)
    diag = scaling_diagnostic(spectrum, weights)
    r_est = effective_dimension(diag, kappa)
    h = hurst_exponents(ell, r if r is not None else r_est)
    return EstimationResult(ell_hat=ell, h_hat=h, delta=diag, r_hat=r_est,
                            weights=weights)


def estimate_series(series: np.ndarray, filter_pair: FilterPair,
                    j1: int, j2: int, scheme: str, floor: float, kappa: float,
                    r: int | None) -> EstimationResult:
    """Full pipeline: pyramid, per-octave covariances, eigenvalues,
    regression, diagnostic and effective dimension.

    When r is not None it fixes how many top exponent estimates are
    reported; otherwise the estimated dimension is used. The p x n series
    is checked here with check_series.
    """
    return estimate_octaves(octave_details(series, filter_pair, j1, j2), j1,
                            scheme=scheme, floor=floor, kappa=kappa, r=r)


def write_result_csv(result: EstimationResult, path) -> None:
    """CSV export with columns i, ell_hat, delta, flagged."""
    flagged = np.isnan(result.ell_hat)
    rows = ((i + 1, "" if flagged[i] else result.ell_hat[i], result.delta[i], int(flagged[i]))
            for i in range(result.ell_hat.size))
    write_csv(path, ["i", "ell_hat", "delta", "flagged"], rows)


def result_to_json(result: EstimationResult, analysis: dict) -> dict:
    """estimate.json: the result beside the analysis section it ran with."""
    return {
        "octaves": [analysis["j1"], analysis["j2"]],
        "weights": {
            "scheme": analysis["weights"],
            "w": [float(x) for x in result.weights],
        },
        "r_hat": result.r_hat,
        "kappa": analysis["kappa"],
        "h_hat": [float(x) for x in result.h_hat],
    }
