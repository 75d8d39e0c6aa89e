"""One Monte Carlo replication called layer by layer through eigenwave's
public functions, and a traced study built from it.

`replicate` repeats what `eigenwave.montecarlo` does for replication k, one
public call at a time, with a span around each layer. Without a span
recorder it is the untraced recomputation that the benchmark's output check
compares CLI records against. The spans live here, in the benchmark, so the
program under test carries no tracing code.

Run as a script, this file performs one traced study of a workload with the
same inputs the CLI gets, and writes its records plus every span as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py (--preset NAME | --config PATH) \
        --seed S --reps M --workers W --out DIR

Replications run serially for one worker, otherwise on a spawn-context pool
whose workers keep their spans in memory and return them with their results.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from itertools import repeat
from pathlib import Path

import numpy as np

from eigenwave.config import build_mc_config, preset_config, resolve_config
from eigenwave.estimators import (OctaveRangeError, effective_dimension,
                                  hurst_exponents, regression_weights,
                                  scaling_diagnostic, scaling_exponents)
from eigenwave.montecarlo import (ReplicationRecord, gamma_plot,
                                  ks_subset_average, summarize,
                                  write_gamma_csv, write_ks_json,
                                  write_records_ndjson, write_sweep_csv)
from eigenwave.simulate import (CLIP_ENERGY_TOL, MixingSpec,
                                assemble_observations, cumulative_path,
                                make_mixing_matrix, synthesize_noise,
                                synthesize_ofbm_increments)
from eigenwave.spectrum import log_eigen_spectrum, wavelet_covariance
from eigenwave.wavelets import make_filter_bank, pyramid_transform


def _untraced(name):
    return nullcontext()


class SpanRecorder:
    """Spans kept in memory as (name, wall_start, wall_end, cpu_start, cpu_end)
    in nanoseconds; CPU is the whole process's, BLAS threads included.

    The CPU clock is read inside the wall interval: reading it can yield the
    core to spinning BLAS threads, and that wait belongs to a layer, not to
    the gap between two layers."""

    def __init__(self):
        self.spans = []

    @contextmanager
    def __call__(self, name):
        w0 = time.perf_counter_ns()
        c0 = time.process_time_ns()
        try:
            yield
        finally:
            c1 = time.process_time_ns()
            self.spans.append((name, w0, time.perf_counter_ns(), c0, c1))


def load_config(preset, config_path, seed, reps) -> dict:
    """The effective config `eigenwave mc` resolves from the same flags."""
    if preset:
        doc = preset_config(preset)
    else:
        with open(config_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    cfg = resolve_config(doc)
    cfg["mc"]["master_seed"] = seed
    cfg["mc"]["replications"] = reps
    return cfg


def replicate(config, index, span=_untraced):
    """Replication `index` of an McConfig study.

    Returns the record, the number of floored eigenvalues and the pyramid's
    multiply-add count (p * sum_j n_j * 2L, computed from shapes).
    """
    with span("simulate.latent"):
        rng = np.random.default_rng([config.master_seed, index])
        increments, diagnostics = synthesize_ofbm_increments(config.model, config.n, rng)
    with span("simulate.assemble"):
        latent = cumulative_path(increments)
        mixing = make_mixing_matrix(
            MixingSpec(config.mixing_kind, config.p, config.model.r, config.mixing_matrix),
            rng)
    with span("simulate.noise"):
        noise = synthesize_noise(config.noise, config.p, config.n, rng)
    with span("simulate.assemble"):
        observed = assemble_observations(mixing, latent, noise)
    with span("wavelets.filter_bank"):
        filter_pair = make_filter_bank(config.family, config.n_vanishing)
    with span("wavelets.pyramid"):
        pyramid = pyramid_transform(observed, filter_pair, config.j2)
    if pyramid.truncated or pyramid.max_octave < config.j2:
        raise OctaveRangeError(f"octave {config.j2} infeasible", pyramid.max_octave)
    with span("spectrum.covariance"):
        covs = [wavelet_covariance(j, pyramid.detail(j))
                for j in range(config.j1, config.j2 + 1)]
    with span("spectrum.eigen"):
        spectrum = log_eigen_spectrum(covs, floor=config.eigen_floor)
    with span("estimators.regression"):
        weights = regression_weights(config.j1, config.j2, counts=spectrum.counts,
                                     scheme=config.weight_scheme)
        ell = scaling_exponents(spectrum, weights)
        delta = scaling_diagnostic(spectrum, weights)
        r_hat = effective_dimension(delta, config.kappa)
        h_hat = hurst_exponents(ell, config.model.r)
    record = ReplicationRecord(
        index=index,
        seed=(config.master_seed, index),
        h_hat=tuple(float(x) for x in h_hat),
        delta=tuple(float(x) for x in delta),
        r_hat=r_hat,
        flagged=diagnostics.clipped_energy > CLIP_ENERGY_TOL,
        clipped_energy=diagnostics.clipped_energy,
    )
    madds = config.p * sum(pyramid.counts.values()) * 2 * filter_pair.length
    return record, int(spectrum.zero_flags.sum()), madds


def traced_replicate(config, index):
    """One replication with its layer spans and its own enclosing span."""
    recorder = SpanRecorder()
    with recorder("montecarlo.replication"):
        record, floored, madds = replicate(config, index, recorder)
    return record, floored, madds, recorder.spans


def _run_traced(config, workers):
    indices = range(config.replications)
    if workers <= 1:
        return [traced_replicate(config, i) for i in indices]
    chunk = max(1, config.replications // (8 * workers))
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return list(pool.map(traced_replicate, repeat(config), indices, chunksize=chunk))


def traced_study(preset, config_path, seed, reps, workers, out: Path) -> dict:
    """The steps of `eigenwave mc`, each inside a study-level span."""
    recorder = SpanRecorder()
    with recorder("config.resolve"):
        cfg = load_config(preset, config_path, seed, reps)
        config = build_mc_config(cfg)
    with recorder("montecarlo.replications"):
        results = _run_traced(config, workers)
    records = [res[0] for res in results]
    with recorder("montecarlo.summarize"):
        summary = summarize(records, kappa_grid=config.kappa_grid,
                            true_hurst=cfg["model"]["hurst"])
    good = [rec for rec in records if not rec.flagged]
    plot = subset = None
    with recorder("montecarlo.gamma_plot"):
        try:
            plot = gamma_plot(np.array([rec.h_hat for rec in good]))
        except ValueError:
            pass  # too few replications; the CLI skips these outputs too
    if plot is not None and cfg["io"]["ks_subsets"]:
        with recorder("montecarlo.ks_subsets"):
            size = min(1250, max(1, len(good) // 4))
            subset = ks_subset_average(plot.d2, plot.dof, subset_size=size)
    out.mkdir(parents=True, exist_ok=True)
    with recorder("montecarlo.write"):
        if plot is not None:
            write_gamma_csv(plot, out / "gamma_plot.csv")
            write_ks_json(plot, out / "ks.json", subset=subset)
        write_sweep_csv(summary["rhat_sweep"], out / "rhat_sweep.csv")
        write_records_ndjson(records, out / "records.ndjson")
        with open(out / "summary.json", "w", encoding="ascii", newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
    return {
        "workers": workers,
        "study_spans": recorder.spans,
        "replications": [
            {"index": rec.index, "flagged": rec.flagged, "floored": floored,
             "madds": madds, "spans": spans}
            for rec, floored, madds, spans in results
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset")
    source.add_argument("--config")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    doc = traced_study(args.preset, args.config, args.seed, args.reps, args.workers, args.out)
    with open(args.out / "trace.json", "w", encoding="ascii") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
