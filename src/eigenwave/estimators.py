"""Multiscale log-eigenvalue regression and effective-dimension estimation.

Per eigenvalue index i, a weighted linear regression of log2 eigenvalues
on the octave j produces the exponent estimate ell_hat_i; the top r of
these estimate the Hurst exponents of the latent process. A companion
per-index diagnostic delta_i (a log-eigenvalue slope normalized by the
octave) separates scaling directions, where it approaches 2h+1, from
noise directions, where it stays near zero; counting diagnostics above a
threshold kappa estimates the latent dimension.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import MultivariateSeries, write_json
from .spectrum import DEFAULT_EIGEN_FLOOR, LogEigenSpectrum, spectrum_from_pyramid
from .wavelets import FilterPair, pyramid_transform

WEIGHT_TOL = 1e-12
DEFAULT_KAPPA = 0.3

UNIFORM = "uniform"
COUNT_WEIGHTED = "count"


class OctaveRangeError(ValueError):
    """Requested octave range is infeasible for the series length."""

    def __init__(self, message: str, last_feasible: int):
        super().__init__(message)
        self.last_feasible = last_feasible

    def __reduce__(self):
        # worker processes pickle the exception back to the parent
        return type(self), (str(self), self.last_feasible)


@dataclass(frozen=True)
class RegressionWeights:
    """Regression weights w and diagnostic weights v over octaves j1..j2.

    w sums to zero and has unit first moment over j; v sums to one.
    """

    j1: int
    j2: int
    w: np.ndarray
    v: np.ndarray
    scheme: str

    def __post_init__(self):
        js = np.arange(self.j1, self.j2 + 1)
        w, v = np.asarray(self.w, float), np.asarray(self.v, float)
        if w.shape != js.shape or v.shape != js.shape:
            raise ValueError(f"weights must cover octaves {self.j1}..{self.j2}")
        if len(js) > 1:
            if abs(w.sum()) > WEIGHT_TOL or abs((js * w).sum() - 1.0) > WEIGHT_TOL:
                raise ValueError("regression weights violate the defining constraints")
        elif abs(w[0] - 1.0) > WEIGHT_TOL:
            raise ValueError("single-octave regression weight must be 1")
        if abs(v.sum() - 1.0) > WEIGHT_TOL:
            raise ValueError("diagnostic weights must sum to 1")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)

    @property
    def octaves(self) -> np.ndarray:
        return np.arange(self.j1, self.j2 + 1)


def regression_weights(j1: int, j2: int, counts=None,
                       scheme: str = COUNT_WEIGHTED) -> RegressionWeights:
    """Least-squares slope weights over the octave range j1..j2.

    The "uniform" scheme treats every octave equally; the "count" scheme
    weighs octave j by its coefficient count n_j, favoring the better
    populated fine scales. The diagnostic weights are v_j = j * w_j, except
    in the degenerate single-octave case where both reduce to 1.
    """
    if j1 > j2:
        raise ValueError(f"need j1 <= j2, got ({j1}, {j2})")
    if scheme not in (UNIFORM, COUNT_WEIGHTED):
        raise ValueError(f"unknown weight scheme {scheme!r}")
    js = np.arange(j1, j2 + 1, dtype=np.float64)
    if j1 == j2:
        return RegressionWeights(j1, j2, np.array([1.0]), np.array([1.0]), scheme)
    if scheme == UNIFORM:
        centered = js - js.mean()
        w = centered / (centered ** 2).sum()
    else:
        if counts is None:
            raise ValueError("count-weighted scheme requires per-octave counts")
        b = np.asarray(counts, dtype=np.float64)
        if b.shape != js.shape:
            raise ValueError(f"need {js.size} counts for octaves {j1}..{j2}, got {b.shape}")
        if np.any(b <= 0):
            raise ValueError(f"counts must be positive, got {b}")
        s0, s1, s2 = b.sum(), (b * js).sum(), (b * js * js).sum()
        w = b * (s0 * js - s1) / (s0 * s2 - s1 * s1)
    return RegressionWeights(j1, j2, w, js * w, scheme)


def _check_octaves(spectrum: LogEigenSpectrum, weights: RegressionWeights) -> None:
    if (spectrum.j1, spectrum.j2) != (weights.j1, weights.j2):
        raise ValueError(
            f"spectrum covers octaves {spectrum.j1}..{spectrum.j2}, "
            f"weights cover {weights.j1}..{weights.j2}"
        )


def scaling_exponents(spectrum: LogEigenSpectrum, weights: RegressionWeights) -> np.ndarray:
    """Per-index exponent estimates ell_hat from the weighted regression.

    Indices flagged as zero at any octave (rank-deficient or mixed-rank
    directions) get NaN rather than a number built from floored values.
    """
    _check_octaves(spectrum, weights)
    defined = ~spectrum.zero_flags.any(axis=0)
    log2lam = np.where(spectrum.zero_flags, 0.0, spectrum.log2_eigenvalues)
    ell = 0.5 * ((weights.w[:, None] * log2lam).sum(axis=0) - 1.0)
    return np.where(defined, ell, np.nan)


def hurst_exponents(ell: np.ndarray, r: int) -> np.ndarray:
    """Top-r exponent estimates (ascending eigenvalue index order)."""
    ell = np.asarray(ell, dtype=np.float64)
    p = ell.size
    if r < 0 or r > p:
        raise ValueError(f"need 0 <= r <= {p}, got r={r}")
    if r == 0:
        return np.empty(0)
    top = ell[p - r:]
    bad = int(np.isnan(top).sum())
    if bad:
        raise ValueError(
            f"r={r} exceeds the defined top of the spectrum: {bad} of the "
            f"top {r} exponent estimates are undefined (flagged eigenvalues)"
        )
    return top.copy()


def scaling_diagnostic(spectrum: LogEigenSpectrum, weights: RegressionWeights) -> np.ndarray:
    """Per-index diagnostic delta: octave-normalized log-eigenvalue slope.

    Approaches 2h+1 along scaling directions and 0 along noise directions.
    Flagged indices map to -inf so they can never exceed a positive
    threshold.
    """
    _check_octaves(spectrum, weights)
    js = weights.octaves.astype(np.float64)
    defined = ~spectrum.zero_flags.any(axis=0)
    log2lam = np.where(spectrum.zero_flags, 0.0, spectrum.log2_eigenvalues)
    diag = (weights.v[:, None] * log2lam / js[:, None]).sum(axis=0)
    return np.where(defined, diag, -np.inf)


def effective_dimension(diagnostic: np.ndarray, kappa: float) -> int:
    """Count of diagnostic entries strictly above the threshold kappa."""
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    return int((np.asarray(diagnostic) > kappa).sum())


def kappa_sweep(diagnostic_samples, kappa_grid, true_r: int | None = None):
    """Effective-dimension summary over a threshold grid.

    diagnostic_samples is an (M, p) array of per-replication diagnostics.
    Returns a list of rows (kappa, mean, q05, q95, exact) where exact
    flags grid points whose mean equals the supplied true dimension
    exactly; exact is None when no truth is given.
    """
    samples = np.asarray(diagnostic_samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 1:
        raise ValueError(f"need an (M, p) sample array, got shape {samples.shape}")
    grid = np.asarray(kappa_grid, dtype=np.float64)
    if grid.size < 1:
        raise ValueError("kappa grid is empty")
    rows = []
    for kappa in grid:
        counts = (samples > kappa).sum(axis=1)
        mean = float(counts.mean())
        q05 = float(np.quantile(counts, 0.05))
        q95 = float(np.quantile(counts, 0.95))
        exact = None if true_r is None else mean == float(true_r)
        rows.append((float(kappa), mean, q05, q95, exact))
    return rows


@dataclass(frozen=True)
class EstimationResult:
    """Everything one estimation run produces.

    ell_hat has length p with NaN at flagged indices; delta mirrors it
    with -inf; h_hat holds the top r entries for the dimension actually
    used (supplied or estimated).
    """

    ell_hat: np.ndarray
    h_hat: np.ndarray
    delta: np.ndarray
    r_hat: int
    kappa: float
    octaves: tuple
    weights: RegressionWeights

    @property
    def p(self) -> int:
        return self.ell_hat.size


def estimate_series(series: MultivariateSeries, filter_pair: FilterPair,
                    j1: int, j2: int, scheme: str = COUNT_WEIGHTED,
                    floor: float = DEFAULT_EIGEN_FLOOR,
                    kappa: float = DEFAULT_KAPPA,
                    r: int | None = None) -> EstimationResult:
    """Full pipeline: pyramid, per-octave covariances, eigenvalues,
    regression, diagnostic and effective dimension.

    When r is given it fixes how many top exponent estimates are reported;
    otherwise the estimated dimension is used.
    """
    if j1 < 1 or j1 > j2:
        raise ValueError(f"need 1 <= j1 <= j2, got ({j1}, {j2})")
    pyramid = pyramid_transform(series, filter_pair, j2)
    if pyramid.truncated or pyramid.max_octave < j2:
        feasible = pyramid.max_octave
        raise OctaveRangeError(
            f"octave {j2} infeasible for series length {series.n} with filter "
            f"length {filter_pair.length}; last feasible octave is {feasible}",
            last_feasible=feasible,
        )
    spectrum = spectrum_from_pyramid(pyramid, j1, j2, floor=floor)
    weights = regression_weights(j1, j2, counts=spectrum.counts, scheme=scheme)
    ell = scaling_exponents(spectrum, weights)
    diag = scaling_diagnostic(spectrum, weights)
    r_est = effective_dimension(diag, kappa)
    h = hurst_exponents(ell, r if r is not None else r_est)
    return EstimationResult(ell_hat=ell, h_hat=h, delta=diag, r_hat=r_est,
                            kappa=kappa, octaves=(j1, j2), weights=weights)


def write_result_csv(result: EstimationResult, path) -> None:
    """CSV export with columns i, ell_hat, delta, flagged."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("i,ell_hat,delta,flagged\n")
        for i in range(result.p):
            ell = result.ell_hat[i]
            flagged = bool(np.isnan(ell))
            ell_txt = "" if flagged else repr(float(ell))
            d = result.delta[i]
            d_txt = "-inf" if np.isinf(d) else repr(float(d))
            fh.write(f"{i + 1},{ell_txt},{d_txt},{int(flagged)}\n")


def result_to_json(result: EstimationResult) -> dict:
    return {
        "octaves": list(result.octaves),
        "weights": {
            "scheme": result.weights.scheme,
            "w": [float(x) for x in result.weights.w],
            "v": [float(x) for x in result.weights.v],
        },
        "r_hat": result.r_hat,
        "kappa": result.kappa,
        "h_hat": [float(x) for x in result.h_hat],
    }


def write_result_json(result: EstimationResult, path) -> None:
    write_json(result_to_json(result), path)
