"""Reference implementations the tests compare the library against.

Not collected by pytest (no test_ prefix); test modules import it as
`oracles`, since pytest puts this directory on the import path.
"""
import numpy as np

from eigenwave.montecarlo import ks_critical
from eigenwave.special import chi2_cdf


def jacobi_eigen(matrix: np.ndarray, tol: float = 1e-14, max_sweeps: int = 100):
    """Cyclic Jacobi eigendecomposition, the small-matrix cross-check for
    np.linalg.eigh. Independent of LAPACK; intended for p <= ~16."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    v = np.eye(n)
    scale = max(np.abs(a).max(), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * (np.triu(a, 1) ** 2).sum())
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:  # theta^2 would overflow
                    t = 0.5 / theta
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    lam = np.diag(a).copy()
    order = np.argsort(lam, kind="stable")
    return lam[order], v[:, order]


def circulant_spectrum_reference(hurst, point_cov, n: int):
    """The (n+1, r, r) spectral matrices of the length-2n circulant
    embedding, built lag array by lag array: fgn_cross_covariance per
    coordinate pair into an (n+1, r, r) array, its even extension to length
    2n, and one rfft along axis 0 over all r*r columns."""
    from eigenwave.simulate import fgn_cross_covariance
    r = len(hurst)
    lags = np.arange(n + 1)
    cov = np.empty((n + 1, r, r))
    for a in range(r):
        for b in range(a, r):
            g = fgn_cross_covariance(hurst[a], hurst[b], point_cov[a, b], lags)
            cov[:, a, b] = g
            cov[:, b, a] = g
    return np.fft.rfft(np.concatenate([cov, cov[1:-1][::-1]], axis=0), axis=0).real


def synthesize_ofbm_reference(spec, n: int, rng):
    """Circulant-embedding synthesis as written before the embedding root
    was cached: it factors the spectrum on every call, shapes the noise
    with the full mirrored (2n, r, r) array of roots and keeps the real
    part of a complex ifft. Same RNG order; eigenwave's
    synthesize_ofbm_increments shapes only the Hermitian half and takes an
    irfft, so it matches this to rounding, not bit for bit.

    Returns (increments as an (r, n) array, clipped energy, warning).
    """
    from eigenwave.simulate import CLIP_ENERGY_TOL
    r, m = spec.r, 2 * n
    lam, vec = np.linalg.eigh(circulant_spectrum_reference(spec.hurst, spec.point_cov, n))
    clipped = np.maximum(-lam, 0.0).sum()
    total = np.abs(lam).sum()
    clip_energy = float(clipped / total) if total > 0 else 0.0
    half = vec * np.sqrt(np.maximum(lam, 0.0))[:, None, :]
    roots = np.empty((m, r, r))
    roots[: n + 1] = half
    roots[n + 1:] = half[1:-1][::-1]
    noise_re = rng.standard_normal((m, r)) / np.sqrt(2.0)
    noise_im = rng.standard_normal((m, r)) / np.sqrt(2.0)
    shaped = (np.matmul(roots, noise_re[..., None])[..., 0]
              + 1j * np.matmul(roots, noise_im[..., None])[..., 0])
    increments = np.sqrt(2.0 * m) * np.fft.ifft(shaped, axis=0)[:n].real
    warning = None
    if clip_energy > CLIP_ENERGY_TOL:
        warning = (
            f"circulant embedding clipped {clip_energy:.3e} relative spectral "
            f"energy; output covariance is approximate"
        )
    return increments, clip_energy, warning


def kappa_sweep_reference(diagnostic_samples, kappa_grid, true_r):
    """The effective-dimension sweep as one loop over the threshold grid,
    with one quantile call per threshold and statistic."""
    samples = np.asarray(diagnostic_samples, dtype=np.float64)
    grid = np.asarray(kappa_grid, dtype=np.float64)
    rows = []
    for kappa in grid:
        counts = (samples > kappa).sum(axis=1)
        mean = float(counts.mean())
        q05 = float(np.quantile(counts, 0.05))
        q95 = float(np.quantile(counts, 0.95))
        rows.append((float(kappa), mean, q05, q95, mean == float(true_r)))
    return rows


def arma_noise_reference(eps, ar, ma):
    """The ARMA recursion x_t = eps_t + sum_i ar_i x_{t-i} + sum_i ma_i eps_{t-i}
    along each row of eps, started at rest, one interpreted step per time
    point, as synthesize_noise ran it before the block filter."""
    p, total = eps.shape
    x = np.zeros((p, total))
    for t in range(total):
        acc = eps[:, t].copy()
        for i, a in enumerate(ar, start=1):
            if t - i >= 0:
                acc += a * x[:, t - i]
        for i, b in enumerate(ma, start=1):
            if t - i >= 0:
                acc += b * eps[:, t - i]
        x[:, t] = acc
    return x


def analysis_step_reference(a, low, high):
    """One valid-only pyramid step as one strided pass per filter tap, as
    the pyramid ran it before the sliding-window product."""
    length = low.size
    count = (a.shape[1] - length) // 2 + 1
    if count <= 0:
        return None
    approx = np.zeros((a.shape[0], count))
    detail = np.zeros((a.shape[0], count))
    for i in range(length):
        window = a[:, i : i + 2 * count - 1 : 2]
        approx += low[i] * window
        detail += high[i] * window
    return approx, detail


def scaling_diagnostic_reference(spectrum, j1, scheme):
    """The diagnostic delta as computed before it was the exponent slope:
    the old slope weights w (the centered formula for "uniform", the count
    formula for "count"), the diagnostic weights v_j = j * w_j, then
    sum_j v_j log2 lambda_j / j, with -inf at flagged indices. The spectrum
    covers octaves j1, j1 + 1, ..., one per row."""
    js = np.arange(j1, j1 + len(spectrum.counts), dtype=np.float64)
    if scheme == "uniform":
        centered = js - js.mean()
        w = centered / (centered ** 2).sum()
    else:
        b = np.asarray(spectrum.counts, dtype=np.float64)
        s0, s1, s2 = b.sum(), (b * js).sum(), (b * js * js).sum()
        w = b * (s0 * js - s1) / (s0 * s2 - s1 * s1)
    v = js * w
    defined = ~spectrum.zero_flags.any(axis=0)
    log2lam = np.where(spectrum.zero_flags, 0.0, spectrum.log2_eigenvalues)
    diag = (v[:, None] * log2lam / js[:, None]).sum(axis=0)
    return np.where(defined, diag, -np.inf)


def ks_subset_average_reference(d2, dof: int, n_subsets: int = 100,
                                subset_size: int = 1250, seed: int = 20220521) -> dict:
    """The subset-averaged KS test as it ran before the CDF was shared by
    the subsets: each subset draws its values, sorts them and takes their
    CDF afresh."""
    def ks_statistic(d2, dof):
        d2 = np.sort(np.asarray(d2, dtype=np.float64))
        m = d2.size
        if m < 1:
            raise ValueError("empty sample")
        cdf = np.array([chi2_cdf(dof, float(x)) for x in d2])
        i = np.arange(1, m + 1)
        stat = float(np.max(np.maximum(i / m - cdf, cdf - (i - 1) / m)))
        return stat, stat > ks_critical(m)

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
