"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The statistical criteria
use fixed master seeds, so outcomes are reproducible; the Monte Carlo
protocols are desk-scaled versions of the published-scale studies.
"""
import json

import numpy as np

from eigenwave.cli import main
from eigenwave.config import build_mc_config, preset_config, resolve_config
from eigenwave.estimators import (COUNT_WEIGHTED, UNIFORM, estimate_series,
                                  kappa_sweep, regression_weights,
                                  scaling_diagnostic, scaling_exponents)
from eigenwave.montecarlo import gamma_plot, ks_critical, run_replications
from eigenwave.simulate import (OfBmSpec, cumulative_path,
                                fgn_cross_covariance,
                                synthesize_ofbm_increments)
from eigenwave.spectrum import LogEigenSpectrum
from eigenwave.wavelets import make_filter_bank, pyramid_transform, valid_count
from oracles import jacobi_eigen

# The analysis defaults of config.SCHEMA, for the direct estimate_series calls
ANALYSIS = {"scheme": COUNT_WEIGHTED, "floor": 1e-10, "kappa": 0.3}


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_weight_identities():
    worst = 0.0
    for j1 in range(1, 12):
        for j2 in range(j1 + 1, 13):
            js = np.arange(j1, j2 + 1)
            counts = [valid_count(2 ** 20, int(j), 4) for j in js]
            for scheme in (UNIFORM, COUNT_WEIGHTED):
                wts = regression_weights(j1, j2, counts=counts, scheme=scheme)
                worst = max(worst,
                            abs(wts.sum()),
                            abs((js * wts).sum() - 1.0))
    report(1, "weight identities", worst < 1e-12,
           f"max identity error {worst:.3e} over all ranges and both schemes (tol 1e-12)")


def test_criterion_02_vanishing_moments():
    n = 2 ** 12
    t = np.arange(n) / n
    coeffs = [1.0, -2.0, 3.0, -1.5, 0.75]
    worst = 0.0
    for n_vanishing in range(1, 6):
        poly = sum(c * t ** m for m, c in enumerate(coeffs[:n_vanishing]))
        scale = np.abs(poly).max()
        fp = make_filter_bank("daubechies", n_vanishing)
        pyr = pyramid_transform(poly[None, :], fp, 6)
        for details in pyr.octaves.values():
            worst = max(worst, np.abs(details).max() / scale)
    report(2, "vanishing moments", worst < 1e-8,
           f"max |detail|/scale {worst:.3e} for degree N-1 inputs, N=1..5 (tol 1e-8)")


def test_criterion_03_synthesis_oracle():
    reps, n, lags = 100, 2 ** 14, np.arange(11)
    worst_z = 0.0
    for h in (0.3, 0.7):
        spec = OfBmSpec(hurst=(h,), point_cov=np.eye(1))
        acfs = np.empty((reps, lags.size))
        for rep in range(reps):
            s, diag = synthesize_ofbm_increments(spec, n, np.random.default_rng([303, rep]))
            assert diag.clipped_energy == 0.0
            x = s[0]
            acfs[rep] = [np.dot(x[: n - k], x[k:]) / (n - k) for k in lags]
        target = fgn_cross_covariance(h, h, 1.0, lags)
        se = acfs.std(axis=0, ddof=1) / np.sqrt(reps)
        worst_z = max(worst_z, float(np.abs((acfs.mean(0) - target) / se).max()))
    # bivariate equal-H cross-covariance at lag zero
    spec2 = OfBmSpec(hurst=(0.6, 0.6), point_cov=np.array([[1.0, 0.5], [0.5, 1.0]]))
    cross = np.empty(reps)
    for rep in range(reps):
        s, _ = synthesize_ofbm_increments(spec2, n, np.random.default_rng([606, rep]))
        cross[rep] = np.dot(s[0], s[1]) / n
    z_cross = abs(cross.mean() - 0.5) / (cross.std(ddof=1) / np.sqrt(reps))
    worst_z = max(worst_z, float(z_cross))
    report(3, "synthesis oracle", worst_z < 3.0,
           f"max |z| {worst_z:.2f} over lags 0..10 (h=0.3, 0.7) and bivariate lag 0 (limit 3)")


def test_criterion_04_power_law_recovery_exact():
    j1, j2 = 3, 8
    js = np.arange(j1, j2 + 1)
    worst_ell, worst_delta = 0.0, 0.0
    for h in (0.1, 0.5, 0.9):
        lam = np.array([[2.0 ** (j * (2 * h + 1))] for j in js])
        with np.errstate(divide="ignore"):
            log2 = np.log2(lam)
        spec = LogEigenSpectrum(counts=tuple([64] * js.size), log2_eigenvalues=log2,
                                zero_flags=np.zeros_like(lam, dtype=bool))
        for scheme in (UNIFORM, COUNT_WEIGHTED):
            wts = regression_weights(j1, j2, counts=[512, 256, 128, 64, 32, 16],
                                     scheme=scheme)
            ell = scaling_exponents(spec, wts)[0]
            diag = scaling_diagnostic(spec, wts)[0]
            worst_ell = max(worst_ell, abs(ell - h))
            worst_delta = max(worst_delta, abs(diag - (2 * h + 1)))
    ok = worst_ell < 1e-12 and worst_delta < 1e-12
    report(4, "power-law recovery", ok,
           f"max |ell - h| {worst_ell:.2e}, max |delta - (2h+1)| {worst_delta:.2e} (tol 1e-12)")


def test_criterion_05_univariate_consistency():
    h, n, reps = 0.7, 2 ** 15, 100
    spec = OfBmSpec(hurst=(h,), point_cov=np.eye(1))
    fp = make_filter_bank("daubechies", 2)
    estimates = np.empty(reps)
    for rep in range(reps):
        incr, _ = synthesize_ofbm_increments(spec, n, np.random.default_rng([505, rep]))
        result = estimate_series(cumulative_path(incr), fp, 6, 9, **ANALYSIS, r=1)
        estimates[rep] = result.h_hat[0]
    bias = abs(estimates.mean() - h)
    spread = estimates.std(ddof=1)
    ok = bias <= 0.03 and spread <= 0.05
    report(5, "univariate consistency", ok,
           f"|mean - 0.7| = {bias:.4f} (limit 0.03), std = {spread:.4f} (limit 0.05)")


def preset_study(name: str, replications: int):
    """The study of a preset, built as the CLI builds it, with fewer replications."""
    doc = preset_config(name)
    doc["mc"]["replications"] = replications
    return build_mc_config(resolve_config(doc))


def test_criterion_06_separation():
    config = preset_study("fig1", 50)  # n = 2^16, octaves 6..9, seed 106
    hurst = config.model.hurst
    assert config.p == 32
    records = run_replications(config, workers=2)
    h = np.array([rec.h_hat for rec in records])
    bias = np.abs(h.mean(axis=0) - np.array(hurst)).max()
    deltas = np.array([rec.delta for rec in records])
    r = len(hurst)
    separated = np.mean([(d[:-r] < 0.5).all() and (d[-r:] > 0.5).all() for d in deltas])
    ok = bias <= 0.15 and separated >= 0.95
    report(6, "separation", ok,
           f"max |mean ell - h| = {bias:.3f} (limit 0.15), "
           f"separation rate = {separated:.2f} (need >= 0.95), p={config.p}")


def test_criterion_07_effective_dimension_plateau():
    config = preset_study("fig4", 200)  # n = 2^12, octaves 4..6, seed 41
    assert config.p == 32
    records = run_replications(config, workers=2)
    grid = np.array(config.kappa_grid)
    rows = kappa_sweep(np.array([rec.delta for rec in records]), grid, true_r=3)
    good = np.array([round(mean) == 3 and q05 == 3.0 and q95 == 3.0
                     for _, mean, q05, q95, _ in rows])
    best = 0.0
    i = 0
    while i < grid.size:
        if good[i]:
            j = i
            while j + 1 < grid.size and good[j + 1]:
                j += 1
            best = max(best, grid[j] - grid[i])
            i = j + 1
        else:
            i += 1
    report(7, "effective-dimension plateau", best >= 0.1,
           f"longest kappa plateau with mean rounding to 3 and 5-95% band {{3}}: "
           f"length {best:.3f} in (0, 1) (need >= 0.1)")


def test_criterion_08_gaussianity():
    config = preset_study("fig3", 500)  # n = 2^14, octaves 5..7, seed 314
    assert config.p == 64
    records = run_replications(config, workers=2)
    samples = np.array([rec.h_hat for rec in records])
    plot = gamma_plot(samples)
    m, r = samples.shape
    total = plot.d2.sum()
    identity_err = abs(total - r * (m - 1)) / (r * (m - 1))
    ratio = plot.ks_stat / ks_critical(m)
    ok = identity_err < 1e-8 and ratio <= 2.0
    report(8, "gaussianity", ok,
           f"sum d^2 identity relative error {identity_err:.2e} (tol 1e-8); "
           f"KS stat {plot.ks_stat:.4f} = {ratio:.2f} x critical (limit 2x); "
           f"decision at paper scale would be "
           f"{'reject' if plot.ks_reject else 'non-reject'} at this M")


def test_criterion_09_eigensolver():
    rng = np.random.default_rng(909)
    worst_resid, worst_orth = 0.0, 0.0
    for p in (5, 50, 500):
        a = rng.standard_normal((p, p))
        m = (a + a.T) / 2.0
        lam, vec = np.linalg.eigh(m)
        scale = np.linalg.norm(m, 2)
        worst_resid = max(worst_resid,
                          np.linalg.norm(m @ vec - vec * lam, 2) / scale)
        worst_orth = max(worst_orth, np.abs(vec.T @ vec - np.eye(p)).max())
    worst_gap = 0.0
    for p in (2, 3, 5, 8):
        a = rng.standard_normal((p, p))
        m = (a + a.T) / 2.0
        lam_l, _ = np.linalg.eigh(m)
        lam_j, _ = jacobi_eigen(m)
        scale = max(np.abs(lam_l).max(), 1.0)
        worst_gap = max(worst_gap, np.abs(lam_l - lam_j).max() / scale)
    ok = worst_resid < 1e-10 and worst_orth < 1e-10 and worst_gap < 1e-10
    report(9, "eigensolver", ok,
           f"max reconstruction residual {worst_resid:.2e}, orthogonality "
           f"{worst_orth:.2e}, Jacobi gap {worst_gap:.2e} (tol 1e-10 each)")


def test_criterion_10_determinism(tmp_path, capsys):
    doc = {
        "model": {
            "r": 2, "hurst": [0.4, 0.7],
            "mixing": {"kind": "random_unit_columns"},
            "noise": {"kind": "iid_gaussian", "variance": 1.0},
            "n": 1024,
        },
        "analysis": {"j1": 3, "j2": 5},
        "mc": {"replications": 12, "master_seed": 10, "ratio": 0.5},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    names = ("gamma_plot.csv", "ks.json", "rhat_sweep.csv", "records.ndjson",
             "summary.json")
    blobs, configs = {}, {}
    for label, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / label
        code = main(["mc", "--config", str(cfg_path), "--out", str(out),
                     "--workers", str(workers)])
        capsys.readouterr()
        assert code == 0
        blobs[label] = {name: (out / name).read_bytes() for name in names}
        # the effective config records the differing --out path by design;
        # normalize it before comparing
        cfg = json.loads((out / "effective_config.json").read_text())
        cfg["io"]["out_dir"] = "<out>"
        configs[label] = cfg
    rerun_ok = blobs["a"] == blobs["b"] and configs["a"] == configs["b"]
    workers_ok = blobs["a"] == blobs["c"] and configs["a"] == configs["c"]
    report(10, "determinism", rerun_ok and workers_ok,
           f"byte-identical outputs across reruns: {rerun_ok}, "
           f"across --workers 1 vs 4: {workers_ok} "
           f"({len(names)} data files + normalized effective config)")
