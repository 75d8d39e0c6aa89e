"""Command line front-end: simulate, estimate and mc subcommands.

Every run writes an effective-config JSON (all defaults and overrides
resolved) that reproduces it bit-exactly. Exit codes: 0 on success, 2 on
rejected command lines, configs or unreadable inputs, 3 on numerical
failures; `main` alone maps errors to codes and reports them as a single
JSON line on standard error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .config import PRESETS, ConfigError, build_mc_config, preset_config, resolve_config
from .estimators import OctaveRangeError, estimate_series, result_to_json, write_result_csv
from .montecarlo import run_replications, write_study
from .series import (check_series, read_series_binary, read_series_csv, write_json,
                     write_series_binary, write_series_csv)
from .simulate import draw_observation
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
        doc = preset_config(args.preset)
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    # an override flag's dest is the config path it writes; a document or
    # section that is not an object is left for the schema to reject
    for dest, value in vars(args).items():
        if "." in dest and value is not None and isinstance(doc, dict):
            section, key = dest.split(".")
            target = doc.setdefault(section, {})
            if isinstance(target, dict):
                target[key] = value
    cfg = resolve_config(doc)
    _check_out_dir(cfg)
    return cfg


def _check_out_dir(cfg: dict) -> None:
    """Reject an io.out_dir that is a file or a dangling link, lies under one,
    cannot be looked up, or whose nearest existing directory is not writable,
    creating nothing, so the check runs before any series is drawn or read."""
    out = Path(cfg["io"]["out_dir"])
    for path in (out, *out.parents):
        try:  # lstat, as mkdir does, finds a dangling link
            os.lstat(path)
        except (FileNotFoundError, NotADirectoryError, PermissionError):
            continue  # absent, as far as this process can tell: try the parent
        except (OSError, ValueError) as exc:  # a name too long, or a NUL byte
            raise ConfigError(f"io.out_dir: {exc}", path="io.out_dir")
        if not os.path.isdir(path):
            raise ConfigError(f"io.out_dir: {path} is not a directory", path="io.out_dir")
        if not os.access(path, os.W_OK | os.X_OK):
            raise ConfigError(f"io.out_dir: {path} is not writable", path="io.out_dir")
        return


def _out_dir(cfg: dict) -> Path:
    """Create io.out_dir and write the effective config into it. Commands
    call this after their draws and estimates, so a run that fails before
    then leaves no directory."""
    out = Path(cfg["io"]["out_dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"io.out_dir: {exc}", path="io.out_dir")
    write_json(cfg, out / "effective_config.json")
    return out


def _write_series(series: np.ndarray, stem: str, cfg: dict, out: Path) -> None:
    formats = cfg["io"]["formats"]
    if "csv" in formats:
        write_series_csv(series, out / f"{stem}.csv")
    if "binary" in formats:
        write_series_binary(series, out / f"{stem}.bin")


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    mc_config = build_mc_config(cfg)
    observed, latent, noise, mixing, diagnostics = draw_observation(mc_config, 0)
    # X and Z are finite when Y is, since P has unit-norm columns
    check_series(observed)
    out = _out_dir(cfg)
    if diagnostics.warning:
        print(json.dumps({"warning": diagnostics.warning}), file=sys.stderr)
    _write_series(observed, "series_y", cfg, out)
    if cfg["io"]["components"]:
        _write_series(latent, "series_x", cfg, out)
        _write_series(noise, "series_z", cfg, out)
        np.savetxt(out / "mixing_p.csv", mixing, delimiter=",")
    return 0


def _read_series(path: str) -> np.ndarray:
    reader = read_series_csv if path.lower().endswith(".csv") else read_series_binary
    try:
        return reader(path)
    except OSError as exc:
        raise ConfigError(f"cannot read data: {exc}")


def _check_r(r: int | None, p: int) -> None:
    """Reject an analysis.r above the dimension of the series to estimate."""
    if r is not None and r > p:
        raise ConfigError(f"analysis.r: {r} exceeds the series dimension p={p}",
                          path="analysis.r")


def cmd_estimate(args) -> int:
    cfg = _load_config(args)
    analysis = cfg["analysis"]
    if args.data:
        series = _read_series(args.data)
        _check_r(analysis["r"], series.shape[0])
    else:
        mc_config = build_mc_config(cfg)
        _check_r(analysis["r"], mc_config.p)
        series = draw_observation(mc_config, 0)[0]
    filter_pair = make_filter_bank(analysis["family"], analysis["n_vanishing"])
    result = estimate_series(
        series, filter_pair, analysis["j1"], analysis["j2"],
        scheme=analysis["weights"], floor=analysis["eigen_floor"],
        kappa=analysis["kappa"], r=analysis["r"],
    )
    out = _out_dir(cfg)
    write_result_csv(result, out / "estimate.csv")
    write_json(result_to_json(result, analysis), out / "estimate.json")
    return 0


def cmd_mc(args) -> int:
    cfg = _load_config(args)
    if cfg["analysis"]["r"] is not None:
        raise ConfigError("analysis.r: mc reports the model's r exponents; "
                          "analysis.r applies to estimate only", path="analysis.r")
    mc_config = build_mc_config(cfg)
    records = run_replications(mc_config, workers=args.workers)
    warning = write_study(records, mc_config, _out_dir(cfg), cfg["io"]["ks_subsets"])
    if warning:
        print(json.dumps({"warning": warning}), file=sys.stderr)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line like any other rejected input."""

    def error(self, message):
        raise ConfigError(message)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eigenwave",
        description="Hurst structure of high-dimensional series by wavelet "
                    "eigenvalue regression: synthesis, estimation and Monte "
                    "Carlo studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, text):
        p = sub.add_parser(name, help=text)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", metavar="PATH", help="run config JSON")
        source.add_argument("--preset", choices=sorted(PRESETS),
                            help="named experiment preset")
        p.add_argument("--seed", dest="mc.master_seed", type=int, metavar="U64",
                       help="sets mc.master_seed")
        p.add_argument("--kappa", dest="analysis.kappa", type=float, metavar="F",
                       help="sets analysis.kappa")
        p.add_argument("--out", dest="io.out_dir", metavar="DIR", help="sets io.out_dir")
        p.set_defaults(func=func)
        return p

    command("simulate", cmd_simulate, "synthesize one realization of the model")
    est = command("estimate", cmd_estimate, "run the estimation pipeline")
    est.add_argument("--data", metavar="PATH",
                     help="series file (.csv or binary) to estimate from")
    mc = command("mc", cmd_mc, "run a Monte Carlo study")
    mc.add_argument("--reps", dest="mc.replications", type=int, metavar="M",
                    help="sets mc.replications")
    mc.add_argument("--workers", type=positive_int, default=1, metavar="N",
                    help="threads that run replications, at least 1 (default 1)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # numpy's warnings would print before an overflowing run's one JSON
        # line; run_replications hands this state to each of its threads
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, str(exc), path=exc.path)
    except OctaveRangeError as exc:
        return _fail(EXIT_NUMERICAL,
                     f"{exc} (reduce analysis.j2 to {exc.last_feasible} or below)")
    except ValueError as exc:  # numpy's LinAlgError is one
        return _fail(EXIT_NUMERICAL, str(exc))


if __name__ == "__main__":
    sys.exit(main())
