"""Replication harness and distributional diagnostics.

Runs many independent realizations of the synthesis + estimation
pipeline with counter-based seeding (master seed, replication index), so
results are bit-identical no matter how the work is scheduled. Joint
Gaussianity of the exponent estimates is diagnosed with Gamma plots
(squared Mahalanobis distances against chi-square quantiles) and a
Kolmogorov-Smirnov decision.
"""
from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .estimators import (COUNT_WEIGHTED, DEFAULT_KAPPA, estimate_series,
                         kappa_sweep)
from .series import write_json
from .simulate import (CLIP_ENERGY_TOL, MixingSpec, NoiseSpec, OfBmSpec,
                       assemble_observations, cumulative_path,
                       make_mixing_matrix, synthesize_noise,
                       synthesize_ofbm_increments)
from .special import chi2_cdf, chi2_quantile
from .spectrum import DEFAULT_EIGEN_FLOOR
from .wavelets import make_filter_bank

KS_CRITICAL_COEFF = 1.358  # asymptotic 5% two-sided critical value coefficient
MAHALANOBIS_MIN_RATIO = 5  # refuse Gamma plots with fewer than 5r samples
CONDITION_LIMIT = 1e12

DEFAULT_KAPPA_GRID = tuple(round(0.025 * k, 6) for k in range(1, 40))


@dataclass(frozen=True)
class McConfig:
    """One Monte Carlo study: model, analysis settings and replication plan.

    p is the observation dimension and must be at least the latent dimension.
    """

    model: OfBmSpec
    mixing_kind: str
    noise: NoiseSpec
    n: int
    j1: int
    j2: int
    p: int
    replications: int
    master_seed: int
    family: str = "daubechies"
    n_vanishing: int = 2
    weight_scheme: str = COUNT_WEIGHTED
    eigen_floor: float = DEFAULT_EIGEN_FLOOR
    kappa: float = DEFAULT_KAPPA
    kappa_grid: tuple = DEFAULT_KAPPA_GRID
    mixing_matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError(f"need at least one replication, got {self.replications}")
        if self.j1 < 1 or self.j1 > self.j2:
            raise ValueError(f"need 1 <= j1 <= j2, got ({self.j1}, {self.j2})")
        if self.p < self.model.r:
            raise ValueError(
                f"observation dimension p={self.p} below latent dimension r={self.model.r}"
            )
        object.__setattr__(self, "kappa_grid", tuple(float(k) for k in self.kappa_grid))


@dataclass(frozen=True)
class ReplicationRecord:
    """Result of one replication; flagged runs failed synthesis admissibility."""

    index: int
    seed: tuple
    h_hat: tuple
    delta: tuple
    r_hat: int
    flagged: bool
    clipped_energy: float


def draw_observation(config: McConfig, index: int):
    """Draw realization `index` of the study's model, Y = P X + Z, from the
    generator seeded with (master seed, index).

    Returns (Y, X, Z, P, synthesis diagnostics).
    """
    rng = np.random.default_rng([config.master_seed, index])
    increments, diagnostics = synthesize_ofbm_increments(config.model, config.n, rng)
    latent = cumulative_path(increments)
    mixing_spec = MixingSpec(config.mixing_kind, config.p, config.model.r,
                             config.mixing_matrix)
    mixing = make_mixing_matrix(mixing_spec, rng)
    noise = synthesize_noise(config.noise, config.p, config.n, rng)
    observed = assemble_observations(mixing, latent, noise)
    return observed, latent, noise, mixing, diagnostics


def _replicate(config: McConfig, index: int) -> ReplicationRecord:
    observed, _, _, _, diagnostics = draw_observation(config, index)
    filter_pair = make_filter_bank(config.family, config.n_vanishing)
    est = estimate_series(observed, filter_pair, config.j1, config.j2,
                          scheme=config.weight_scheme, floor=config.eigen_floor,
                          kappa=config.kappa, r=config.model.r)
    return ReplicationRecord(
        index=index,
        seed=(config.master_seed, index),
        h_hat=tuple(float(x) for x in est.h_hat),
        delta=tuple(float(x) for x in est.delta),
        r_hat=est.r_hat,
        flagged=diagnostics.clipped_energy > CLIP_ENERGY_TOL,
        clipped_energy=diagnostics.clipped_energy,
    )


def run_replications(config: McConfig, workers: int = 1):
    """All replications of a study, in index order.

    Per-replication generators are seeded with (master seed, index), so the
    records do not depend on the worker count.
    """
    indices = range(config.replications)
    if workers <= 1:
        return [_replicate(config, i) for i in indices]
    chunk = max(1, config.replications // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_replicate, repeat(config), indices, chunksize=chunk))


def mahalanobis_sq(samples) -> np.ndarray:
    """Sorted squared Mahalanobis distances to the sample mean, under the
    sample covariance. Requires more samples than dimensions and a
    well-conditioned covariance."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"need an (M, r) sample matrix, got shape {x.shape}")
    m, r = x.shape
    if m <= r:
        raise ValueError(f"need more samples than dimensions, got M={m}, r={r}")
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (m - 1)
    cond = np.linalg.cond(cov)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise ValueError(
            f"sample covariance is singular or near-singular "
            f"(condition number {cond:.3e})"
        )
    solved = np.linalg.solve(cov, centered.T)
    d2 = np.einsum("mr,rm->m", centered, solved)
    return np.sort(d2)


def ks_statistic(d2, dof: int):
    """Kolmogorov-Smirnov statistic of a sample against the chi-square
    distribution, and the rejection decision at the 5% level."""
    d2 = np.sort(np.asarray(d2, dtype=np.float64))
    m = d2.size
    if m < 1:
        raise ValueError("empty sample")
    cdf = np.array([chi2_cdf(dof, float(x)) for x in d2])
    i = np.arange(1, m + 1)
    stat = float(np.max(np.maximum(i / m - cdf, cdf - (i - 1) / m)))
    return stat, stat > ks_critical(m)


def ks_critical(m: int) -> float:
    return KS_CRITICAL_COEFF / np.sqrt(m)


def ks_subset_average(d2, dof: int, n_subsets: int = 100,
                      subset_size: int = 1250, seed: int = 20220521) -> dict:
    """Average KS statistic and rejection rate over random subsamples,
    for parity with studies that report subset-averaged decisions."""
    d2 = np.asarray(d2, dtype=np.float64)
    if subset_size > d2.size:
        raise ValueError(
            f"subset size {subset_size} exceeds sample size {d2.size}"
        )
    rng = np.random.default_rng(seed)
    stats, decisions = [], []
    for _ in range(n_subsets):
        sub = rng.choice(d2, size=subset_size, replace=False)
        stat, reject = ks_statistic(sub, dof)
        stats.append(stat)
        decisions.append(reject)
    return {
        "n_subsets": n_subsets,
        "subset_size": subset_size,
        "seed": seed,
        "mean_statistic": float(np.mean(stats)),
        "rejection_rate": float(np.mean(decisions)),
    }


@dataclass(frozen=True)
class GammaPlotData:
    """Sorted squared Mahalanobis distances matched to chi-square quantiles."""

    d2: np.ndarray
    chi2_quantiles: np.ndarray
    dof: int
    ks_stat: float
    ks_reject: bool
    ks_critical: float

    def __post_init__(self):
        d2 = np.asarray(self.d2, dtype=np.float64)
        q = np.asarray(self.chi2_quantiles, dtype=np.float64)
        if d2.shape != q.shape or d2.ndim != 1:
            raise ValueError("distance and quantile sequences must have equal length")
        if np.any(np.diff(d2) < 0) or np.any(np.diff(q) < 0):
            raise ValueError("gamma plot sequences must be nondecreasing")
        object.__setattr__(self, "d2", d2)
        object.__setattr__(self, "chi2_quantiles", q)


def gamma_plot(samples) -> GammaPlotData:
    """Gamma plot of an (M, r) sample: empirical quantiles of squared
    Mahalanobis distance against chi-square quantiles at probabilities
    (m - 1/2)/M."""
    x = np.asarray(samples, dtype=np.float64)
    m, r = x.shape
    if m <= MAHALANOBIS_MIN_RATIO * r:
        raise ValueError(
            f"refusing a Gamma plot with M={m} samples in dimension r={r}; "
            f"need M > {MAHALANOBIS_MIN_RATIO}r for a stable covariance"
        )
    d2 = mahalanobis_sq(x)
    probs = (np.arange(1, m + 1) - 0.5) / m
    quantiles = np.array([chi2_quantile(r, float(pr)) for pr in probs])
    stat, reject = ks_statistic(d2, r)
    return GammaPlotData(d2=d2, chi2_quantiles=quantiles, dof=r,
                         ks_stat=stat, ks_reject=reject,
                         ks_critical=float(ks_critical(m)))


def summarize(records, kappa_grid=None, true_hurst=None) -> dict:
    """Per-coordinate statistics of the exponent estimates and the
    effective-dimension sweep. Flagged replications are counted but
    excluded from every statistic."""
    records = list(records)
    if not records:
        raise ValueError("no records to summarize")
    good = [rec for rec in records if not rec.flagged]
    out = {"replications": len(records), "flagged": len(records) - len(good)}
    if not good:
        return out
    h = np.array([rec.h_hat for rec in good])
    stats = {
        "mean": [float(x) for x in h.mean(axis=0)],
        "std": [float(x) for x in h.std(axis=0, ddof=1)] if len(good) > 1
               else [0.0] * h.shape[1],
        "q05": [float(x) for x in np.quantile(h, 0.05, axis=0)],
        "q95": [float(x) for x in np.quantile(h, 0.95, axis=0)],
    }
    true_r = None
    if true_hurst is not None:
        truth = np.asarray(true_hurst, dtype=np.float64)
        stats["bias"] = [float(x) for x in h.mean(axis=0) - truth]
        true_r = truth.size
    out["h"] = stats
    grid = np.asarray(DEFAULT_KAPPA_GRID if kappa_grid is None else kappa_grid)
    deltas = np.array([rec.delta for rec in good])
    out["rhat_sweep"] = kappa_sweep(deltas, grid, true_r=true_r)
    return out


def write_gamma_csv(plot: GammaPlotData, path) -> None:
    """CSV export with columns m, d2_empirical, chi2_quantile."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("m,d2_empirical,chi2_quantile\n")
        for m, (d, q) in enumerate(zip(plot.d2, plot.chi2_quantiles), start=1):
            fh.write(f"{m},{repr(float(d))},{repr(float(q))}\n")


def write_ks_json(plot: GammaPlotData, path, subset: dict | None = None) -> None:
    doc = {
        "statistic": plot.ks_stat,
        "critical": plot.ks_critical,
        "decision": "reject" if plot.ks_reject else "accept",
        "dof": plot.dof,
        "samples": int(plot.d2.size),
    }
    if subset is not None:
        doc["subset_average"] = subset
    write_json(doc, path)


def write_sweep_csv(rows, path) -> None:
    """CSV export with columns kappa, mean, q05, q95, exact_match."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("kappa,mean,q05,q95,exact_match\n")
        for kappa, mean, q05, q95, exact in rows:
            tail = "" if exact is None else str(int(exact))
            fh.write(f"{repr(kappa)},{repr(mean)},{repr(q05)},{repr(q95)},{tail}\n")


def write_records_ndjson(records, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for rec in records:
            doc = {
                "index": rec.index,
                "seed": list(rec.seed),
                "h_hat": list(rec.h_hat),
                "delta": [("-inf" if np.isinf(d) else d) for d in rec.delta],
                "r_hat": rec.r_hat,
                "flagged": rec.flagged,
                "clipped_energy": rec.clipped_energy,
            }
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
