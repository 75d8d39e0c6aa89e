"""Replication harness and distributional diagnostics.

Runs many independent realizations (simulate.draw_observation) and their
estimates, seeded by (master seed, replication index), so results are
bit-identical no matter how the work is scheduled. Joint Gaussianity of
the exponent estimates is diagnosed with Gamma plots (squared Mahalanobis
distances against chi-square quantiles) and a Kolmogorov-Smirnov decision.
"""
from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass

import numpy as np

from .config import McConfig
from .estimators import estimate_series, kappa_sweep
from .series import write_csv, write_json
from .simulate import draw_observation
from .special import chi2_cdf, chi2_quantile
from .wavelets import make_filter_bank

KS_CRITICAL_COEFF = 1.358  # asymptotic 5% two-sided critical value coefficient
MAHALANOBIS_MIN_RATIO = 5  # refuse Gamma plots with fewer than 5r samples
CONDITION_LIMIT = 1e12
# the subset KS plan: the subset count, the generator's seed, the largest subset
KS_SUBSETS = 100
KS_SUBSET_SEED = 20220521
KS_SUBSET_MAX = 1250


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


def _replicate(config: McConfig, index: int, executor=None) -> ReplicationRecord:
    observed, _, _, _, diagnostics = draw_observation(config, index, executor)
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
        flagged=diagnostics.warning is not None,
        clipped_energy=diagnostics.clipped_energy,
    )


def run_replications(config: McConfig, workers: int):
    """All replications of a study, in index order.

    Generators are seeded with (master seed, index), so the records do not
    depend on the worker count. They run on one executor of
    min(workers, replications) threads, each under the caller's
    floating-point error state, which is stopped before returning: with
    one thread, it shapes each draw's latent path while this thread draws
    the noise; with more, each thread runs whole replications. If this
    thread raises, as on Ctrl-C, those not yet started are cancelled.
    """
    from concurrent.futures import ThreadPoolExecutor  # at the first study, not on import

    indices = range(config.replications)
    workers = min(workers, config.replications)
    with ThreadPoolExecutor(max_workers=workers,
                            initializer=functools.partial(np.seterr, **np.geterr())) as pool:
        if workers <= 1:
            return [_replicate(config, i, pool) for i in indices]
        return list(pool.map(functools.partial(_replicate, config), indices))


def mahalanobis_sq(samples) -> np.ndarray:
    """Sorted squared Mahalanobis distances to the sample mean, under the
    sample covariance, which must be well conditioned: M <= r samples give
    a singular one."""
    x = np.asarray(samples, dtype=np.float64)
    m = x.shape[0]
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


def _ks_decision(cdf: np.ndarray):
    """KS statistic and 5% decision from the model CDF at a sorted sample."""
    m = cdf.size
    i = np.arange(1, m + 1)
    stat = float(np.max(np.maximum(i / m - cdf, cdf - (i - 1) / m)))
    return stat, stat > ks_critical(m)


def ks_statistic(d2, dof: int):
    """Kolmogorov-Smirnov statistic of a sample against the chi-square
    distribution, and the rejection decision at the 5% level."""
    d2 = np.sort(np.asarray(d2, dtype=np.float64))
    return _ks_decision(np.array([chi2_cdf(dof, float(x)) for x in d2]))


def ks_critical(m: int) -> float:
    return KS_CRITICAL_COEFF / np.sqrt(m)


def ks_subset_average(d2, dof: int, subset_size: int) -> dict:
    """Average KS statistic and rejection rate over KS_SUBSETS random
    subsamples of subset_size, for parity with studies that report
    subset-averaged decisions. The CDF is taken once per distance and
    shared by every subset."""
    d2 = np.asarray(d2, dtype=np.float64)
    if subset_size > d2.size:
        raise ValueError(
            f"subset size {subset_size} exceeds sample size {d2.size}"
        )
    cdf = np.array([chi2_cdf(dof, float(x)) for x in d2])
    rng = np.random.default_rng(KS_SUBSET_SEED)
    stats, decisions = [], []
    for _ in range(KS_SUBSETS):
        picked = rng.choice(d2.size, size=subset_size, replace=False)
        stat, reject = _ks_decision(cdf[picked][np.argsort(d2[picked])])
        stats.append(stat)
        decisions.append(reject)
    return {
        "n_subsets": KS_SUBSETS,
        "subset_size": subset_size,
        "seed": KS_SUBSET_SEED,
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
                         ks_stat=stat, ks_reject=reject)


def summarize(records, kappa_grid, true_hurst) -> dict:
    """Per-coordinate statistics of the exponent estimates against the true
    exponents, and the effective-dimension sweep. Flagged replications are
    counted but excluded from every statistic; a study with none left fails."""
    records = list(records)
    if not records:
        raise ValueError("no records to summarize")
    good = [rec for rec in records if not rec.flagged]
    if not good:
        raise ValueError("every replication was flagged by synthesis diagnostics")
    out = {"replications": len(records), "flagged": len(records) - len(good)}
    h = np.array([rec.h_hat for rec in good])
    stats = {
        "mean": [float(x) for x in h.mean(axis=0)],
        "std": [float(x) for x in h.std(axis=0, ddof=1)] if len(good) > 1
               else [0.0] * h.shape[1],
        "q05": [float(x) for x in np.quantile(h, 0.05, axis=0)],
        "q95": [float(x) for x in np.quantile(h, 0.95, axis=0)],
    }
    truth = np.asarray(true_hurst, dtype=np.float64)
    stats["bias"] = [float(x) for x in h.mean(axis=0) - truth]
    out["h"] = stats
    deltas = np.array([rec.delta for rec in good])
    out["rhat_sweep"] = kappa_sweep(deltas, kappa_grid, truth.size)
    return out


def write_gamma_csv(plot: GammaPlotData | None, path) -> None:
    """CSV export with columns m, d2_empirical, chi2_quantile; the header
    alone when plot is None (a study too small for a Gamma plot)."""
    rows = () if plot is None else zip(plot.d2, plot.chi2_quantiles)
    write_csv(path, ["m", "d2_empirical", "chi2_quantile"],
              ((m, d, q) for m, (d, q) in enumerate(rows, start=1)))


def write_ks_json(plot: GammaPlotData, path, subset: dict | None) -> None:
    doc = {
        "statistic": plot.ks_stat,
        "critical": float(ks_critical(plot.d2.size)),
        "decision": "reject" if plot.ks_reject else "accept",
        "dof": plot.dof,
        "samples": int(plot.d2.size),
    }
    if subset is not None:
        doc["subset_average"] = subset
    write_json(doc, path)


def write_sweep_csv(rows, path) -> None:
    """CSV export with columns kappa, mean, q05, q95, exact_match."""
    write_csv(path, ["kappa", "mean", "q05", "q95", "exact_match"],
              ((*stats, int(exact)) for *stats, exact in rows))


def write_records_ndjson(records, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for rec in records:
            doc = asdict(rec)
            doc["delta"] = [("-inf" if np.isinf(d) else d) for d in rec.delta]
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def write_study(records, config: McConfig, out, ks_subsets: bool) -> str | None:
    """Write a study's files into out, records.ndjson first, as summarize fails
    an all-flagged study; returns why a Gamma plot was refused, or None."""
    write_records_ndjson(records, out / "records.ndjson")
    summary = summarize(records, kappa_grid=config.kappa_grid, true_hurst=config.model.hurst)
    good = [rec for rec in records if not rec.flagged]
    skipped = None
    try:
        plot = gamma_plot(np.array([rec.h_hat for rec in good]))
    except ValueError as exc:
        skipped = str(exc)
        write_gamma_csv(None, out / "gamma_plot.csv")
        write_json({"skipped": skipped}, out / "ks.json")
    else:
        # gamma_plot refuses M <= 5r, so a quarter of M is at least 1
        size = min(KS_SUBSET_MAX, len(good) // 4)
        subset = ks_subset_average(plot.d2, plot.dof, size) if ks_subsets else None
        write_gamma_csv(plot, out / "gamma_plot.csv")
        write_ks_json(plot, out / "ks.json", subset=subset)
    write_sweep_csv(summary["rhat_sweep"], out / "rhat_sweep.csv")
    write_json(summary, out / "summary.json")
    return skipped
