"""Command line front-end: simulate, estimate and mc subcommands.

Every run writes an effective-config JSON (all defaults and overrides
resolved) that reproduces it bit-exactly. Exit codes: 0 on success, 2 on
rejected configs or unreadable inputs, 3 on numerical failures; `main`
alone maps errors to codes and reports them as a single JSON line on
standard error.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, build_mc_config, preset_config, resolve_config
from .estimators import OctaveRangeError, estimate_series, write_result_csv, write_result_json
from .montecarlo import (draw_observation, gamma_plot, ks_subset_average,
                         run_replications, summarize, write_gamma_csv,
                         write_ks_json, write_records_ndjson, write_sweep_csv)
from .series import (MultivariateSeries, read_series_binary, read_series_csv,
                     write_json, write_series_binary, write_series_csv)
from .wavelets import make_filter_bank

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fail(code: int, message: str, **extra) -> int:
    doc = {"code": code, "error": message}
    doc.update(extra)
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)
    return code


def _load_config(args) -> dict:
    if args.preset:
        if args.config:
            raise ConfigError("give either --preset or --config, not both")
        doc = preset_config(args.preset)
    elif args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    else:
        raise ConfigError("a --config file or a --preset is required")
    # an override flag's dest is the config path it writes; a document or
    # section that is not an object is left for the schema to reject
    for dest, value in vars(args).items():
        if "." in dest and value is not None and isinstance(doc, dict):
            section, key = dest.split(".")
            target = doc.setdefault(section, {})
            if isinstance(target, dict):
                target[key] = value
    return resolve_config(doc)


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["io"]["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_series(series: MultivariateSeries, stem: str, cfg: dict, out: Path) -> None:
    formats = cfg["io"]["formats"]
    if "csv" in formats:
        write_series_csv(series, out / f"{stem}.csv")
    if "binary" in formats:
        write_series_binary(series, out / f"{stem}.bin")


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    mc_config = build_mc_config(cfg)
    out = _out_dir(cfg)
    observed, latent, noise, mixing, diagnostics = draw_observation(mc_config, 0)
    if diagnostics.warning:
        print(json.dumps({"warning": diagnostics.warning}), file=sys.stderr)
    _write_series(observed, "series_y", cfg, out)
    if cfg["io"]["components"]:
        _write_series(latent, "series_x", cfg, out)
        _write_series(noise, "series_z", cfg, out)
        np.savetxt(out / "mixing_p.csv", mixing, delimiter=",")
    write_json(cfg, out / "effective_config.json")
    return 0


def _read_series(path: str) -> MultivariateSeries:
    reader = read_series_csv if path.endswith(".csv") else read_series_binary
    try:
        return reader(path)
    except OSError as exc:
        raise ConfigError(f"cannot read data: {exc}")


def cmd_estimate(args) -> int:
    cfg = _load_config(args)
    if args.data:
        series = _read_series(args.data)
    else:
        series = draw_observation(build_mc_config(cfg), 0)[0]
    out = _out_dir(cfg)
    analysis = cfg["analysis"]
    filter_pair = make_filter_bank(analysis["family"], analysis["n_vanishing"])
    result = estimate_series(
        series, filter_pair, analysis["j1"], analysis["j2"],
        scheme=analysis["weights"], floor=analysis["eigen_floor"],
        kappa=analysis["kappa"], r=analysis["r"],
    )
    write_result_csv(result, out / "estimate.csv")
    write_result_json(result, out / "estimate.json")
    write_json(cfg, out / "effective_config.json")
    return 0


def cmd_mc(args) -> int:
    cfg = _load_config(args)
    mc_config = build_mc_config(cfg)
    out = _out_dir(cfg)
    records = run_replications(mc_config, workers=args.workers)
    truth = cfg["model"]["hurst"]
    summary = summarize(records, kappa_grid=mc_config.kappa_grid, true_hurst=truth)
    good = [rec for rec in records if not rec.flagged]
    if not good:
        raise ValueError("every replication was flagged by synthesis diagnostics")
    try:
        plot = gamma_plot(np.array([rec.h_hat for rec in good]))
    except ValueError as exc:
        # too few replications for a stable Mahalanobis covariance: skip the
        # distributional outputs, keep the rest of the study
        print(json.dumps({"warning": str(exc)}), file=sys.stderr)
        with open(out / "gamma_plot.csv", "w", encoding="ascii", newline="\n") as fh:
            fh.write("m,d2_empirical,chi2_quantile\n")
        write_json({"skipped": str(exc)}, out / "ks.json")
    else:
        subset = None
        if cfg["io"]["ks_subsets"]:
            size = min(1250, max(1, len(good) // 4))
            subset = ks_subset_average(plot.d2, plot.dof, subset_size=size)
        write_gamma_csv(plot, out / "gamma_plot.csv")
        write_ks_json(plot, out / "ks.json", subset=subset)
    write_sweep_csv(summary["rhat_sweep"], out / "rhat_sweep.csv")
    write_records_ndjson(records, out / "records.ndjson")
    write_json(summary, out / "summary.json")
    write_json(cfg, out / "effective_config.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenwave",
        description="Hurst structure of high-dimensional series by wavelet "
                    "eigenvalue regression: synthesis, estimation and Monte "
                    "Carlo studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, reps=False, workers=False, data=False):
        p.add_argument("--config", metavar="PATH", help="run config JSON")
        p.add_argument("--seed", dest="mc.master_seed", type=int, metavar="U64",
                       help="sets mc.master_seed")
        p.add_argument("--kappa", dest="analysis.kappa", type=float, metavar="F",
                       help="sets analysis.kappa")
        p.add_argument("--out", dest="io.out_dir", metavar="DIR", help="sets io.out_dir")
        p.add_argument("--preset", choices=["fig1", "fig3", "fig4"],
                       help="named experiment preset")
        if reps:
            p.add_argument("--reps", dest="mc.replications", type=int, metavar="M",
                           help="sets mc.replications")
        if workers:
            p.add_argument("--workers", type=int, default=1, metavar="N",
                           help="parallel worker processes (default 1)")
        if data:
            p.add_argument("--data", metavar="PATH",
                           help="series file (.csv or binary) to estimate from")

    sim = sub.add_parser("simulate", help="synthesize one realization of the model")
    common(sim)
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="run the estimation pipeline")
    common(est, data=True)
    est.set_defaults(func=cmd_estimate)

    mc = sub.add_parser("mc", help="run a Monte Carlo study")
    common(mc, reps=True, workers=True)
    mc.set_defaults(func=cmd_mc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc), path=exc.path)
    except OctaveRangeError as exc:
        return _fail(EXIT_NUMERICAL,
                     f"{exc} (reduce analysis.j2 to {exc.last_feasible} or below)")
    except (ValueError, np.linalg.LinAlgError) as exc:
        return _fail(EXIT_NUMERICAL, str(exc))


if __name__ == "__main__":
    sys.exit(main())
