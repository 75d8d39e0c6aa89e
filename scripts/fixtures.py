"""Fixed-seed fixtures: run them and list a digest of everything they write.

    python scripts/fixtures.py --out DIR [--src PATH]

Each fixture is one `python -m eigenwave.cli` run in a subprocess with
PYTHONPATH=PATH (default: the `src/` of this checkout), working directory
DIR and a relative `--out NAME`, so `effective_config.json` does not depend
on where DIR is. DIR must be empty or absent, and PATH must hold the
`eigenwave` package, or the runs would import an installed one instead.
The script prints one sorted `sha256  NAME/FILE` line per output file and
one `sha256  NAME stderr, exit CODE` line per run. Two sources behave alike
on the fixtures when their listings diff clean, e.g.

    python scripts/fixtures.py --out /tmp/a --src old/src > a.txt
    python scripts/fixtures.py --out /tmp/b > b.txt
    diff a.txt b.txt

The runs keep the embedding roots they factor in DIR/.cache (their
XDG_CACHE_HOME), outside every run directory, so the first run of each
model is always cold. The thirty-nine runs take about 12 s on two cores. This
is a tool for refactors that must keep every output byte; it is not part
of the test suite.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Floors eigenvalues (NaN ell_hat and -inf delta rows: p = 16 exceeds the six
# coefficients at octave 7) and writes binary and component files. The runs
# go in dict order, so simulate-floored writes the series the --data runs read.
FLOORED = {
    "model": {"r": 2, "hurst": [0.3, 0.7], "mixing": {"kind": "random_unit_columns"},
              "n": 1024, "p": 16},
    "analysis": {"j1": 3, "j2": 7},
    "mc": {"replications": 3},
    "io": {"formats": ["csv", "binary"], "components": True},
}

# Cross-covariance 0.99 between exponents 0.1 and 0.9 is not admissible, so
# the circulant embedding clips: simulate warns, and every mc replication is
# flagged, so the study exits 3 with only records.ndjson (each replication's
# clipped energy) and effective_config.json written.
CLIPPED = {
    "model": {"r": 2, "hurst": [0.1, 0.9], "point_cov": [[1.0, 0.99], [0.99, 1.0]],
              "mixing": {"kind": "canonical"}, "n": 1024, "p": 2},
    "analysis": {"j1": 2, "j2": 5},
    "io": {"components": True},
}

# A slope needs two octaves: j1 == j2 is rejected (exit 2 at analysis.j1).
ONE_OCTAVE = {**FLOORED, "analysis": {"j1": 5, "j2": 5}}

# Octave 9 is past the last one a length-1024 series reaches with db2, so
# simulate and mc exit 3 with the hint "reduce analysis.j2 to 8 or below",
# before any draw and without creating the output directory.
INFEASIBLE = {**FLOORED, "analysis": {"j1": 3, "j2": 9}}

# The fig4 preset with the subset-averaged KS test, the only run that
# reaches ks_subset_average.
KS_SUBSETS = {
    "model": {"r": 3, "hurst": [0.25, 0.5, 0.75], "mixing": {"kind": "random_unit_columns"},
              "noise": {"kind": "iid_gaussian", "variance": 1.0}, "n": 4096},
    "analysis": {"j1": 4, "j2": 6},
    "mc": {"replications": 5000, "master_seed": 41, "ratio": 0.5},
    "io": {"ks_subsets": True},
}

# ARMA(1,1) noise written beside Y: series_z pins the noise scaled in place
# before the ARMA filter, and that Y = P X + Z leaves Z as it was drawn.
ARMA_COMPONENTS = {
    "model": {"r": 2, "hurst": [0.4, 0.8], "mixing": {"kind": "random_unit_columns"},
              "noise": {"kind": "arma", "variance": 2.5, "ar": [0.6], "ma": [0.3]},
              "n": 1024, "p": 6},
    "analysis": {"j1": 3, "j2": 6},
    "io": {"formats": ["csv", "binary"], "components": True},
}

# Haar filters, uniform regression weights, an explicit mixing matrix and
# no noise, each reached by no other run: the rank-2 signal in p = 3 leaves
# one eigenvalue near 1e-13 at every octave, flagged below the 1e-10 floor.
NOISELESS_HAAR = {
    "model": {"r": 2, "hurst": [0.35, 0.75],
              "mixing": {"kind": "explicit", "matrix": [[0.6, 0.0], [0.8, 0.6], [0.0, 0.8]]},
              "noise": {"kind": "none"}, "n": 1024, "p": 3},
    "analysis": {"j1": 2, "j2": 6, "family": "haar", "weights": "uniform"},
    "mc": {"replications": 12},
}

# ARMA noise whose filter overflows: the draw's Y is not finite, so both
# runs exit 3 with one JSON line on stderr, no numpy warning before it, from
# the CLI's main thread or from a study's threads, and leave no output
# directory.
OVERFLOW = {**ARMA_COMPONENTS,
            "model": {**ARMA_COMPONENTS["model"],
                      "noise": {"kind": "arma", "variance": 1e300, "ma": [1e300]}}}

# The fig4 model with i.i.d. noise of variance 1e308: Y is finite, but its
# octave-4 covariance overflows, so estimate and mc exit 3 with the message
# that names the octave, and write nothing.
OVERFLOW_COV = {**KS_SUBSETS,
                "model": {**KS_SUBSETS["model"],
                          "noise": {"kind": "iid_gaussian", "variance": 1e308}},
                "mc": {**KS_SUBSETS["mc"], "replications": 4}, "io": {}}

# analysis.r = 17 exceeds the p = 16 of the FLOORED model: estimate exits 2
# at analysis.r before the draw, creating nothing.
R_ABOVE_P = {**FLOORED, "analysis": {"j1": 3, "j2": 7, "r": 17}}

# Series files with a NaN and an infinite value: the readers parse them, and
# estimate --data exits 3 with "series contains non-finite entries".
DATA = {
    "nan.csv": b"t,y_1,y_2\n0,1.5,2.5\n1,nan,0.5\n",
    "inf.bin": struct.pack("<4sIQ4d", b"MVS1", 2, 2, 1.0, 2.0, float("inf"), 3.0),
}

# One config per kind of schema rule, each rejected with exit 2: the listing
# pins the bytes of the path and message it reports. p-before-octaves has p
# below r and an infeasible octave range: model.p is reported, not the range.
REJECTED = {
    "type": {**FLOORED, "model": {**FLOORED["model"], "n": 1024.0}},
    "additional": {**FLOORED, "mc": {"replications": 3, "x": 1}},
    "min-items": {**FLOORED, "analysis": {"j1": 3, "j2": 7, "kappa_grid": []}},
    "one-of": {**FLOORED, "model": {**FLOORED["model"], "point_cov": "x"}},
    "required": {**FLOORED, "model": {k: v for k, v in FLOORED["model"].items() if k != "n"}},
    "p-before-octaves": {**INFEASIBLE, "model": {**FLOORED["model"], "p": 1}},
}

CONFIGS = {
    "floored.json": FLOORED,
    "clipped.json": CLIPPED,
    "one-octave.json": ONE_OCTAVE,
    "infeasible.json": INFEASIBLE,
    "ks-subsets.json": KS_SUBSETS,
    "arma-components.json": ARMA_COMPONENTS,
    "noiseless-haar.json": NOISELESS_HAAR,
    "overflow.json": OVERFLOW,
    "overflow-cov.json": OVERFLOW_COV,
    "r-above-p.json": R_ABOVE_P,
    **{f"rejected-{name}.json": doc for name, doc in REJECTED.items()},
}

FIXTURES = {
    "mc-fig4-w2": ["mc", "--preset", "fig4", "--reps", "60", "--seed", "41", "--workers", "2"],
    # the same study on one thread, which shapes each latent path on a
    # second, and on three threads, which split the 60 replications
    # unevenly: every file but effective_config.json equals mc-fig4-w2's
    "mc-fig4-w1": ["mc", "--preset", "fig4", "--reps", "60", "--seed", "41", "--workers", "1"],
    "mc-fig4-w3": ["mc", "--preset", "fig4", "--reps", "60", "--seed", "41", "--workers", "3"],
    "mc-fig4-ks": ["mc", "--config", "ks-subsets.json", "--reps", "60", "--seed", "41",
                   "--workers", "2"],
    "mc-arma-wide": ["mc", "--config", str(ROOT / "perfbench/workloads/arma-wide.json"),
                     "--reps", "4", "--seed", "3"],
    # the first fig1 run factors the embedding root into the empty cache, and
    # the next two load it: the warm run's files equal mc-fig1's, and the
    # two-thread study loads it from disk once for both threads
    "mc-fig1": ["mc", "--preset", "fig1", "--reps", "2", "--seed", "106"],
    "mc-fig1-warm": ["mc", "--preset", "fig1", "--reps", "2", "--seed", "106"],
    "mc-fig1-w2": ["mc", "--preset", "fig1", "--reps", "4", "--seed", "106", "--workers", "2"],
    "mc-fig4-no-gamma": ["mc", "--preset", "fig4", "--reps", "6", "--seed", "5"],
    "simulate-fig4": ["simulate", "--preset", "fig4"],
    "estimate-fig4": ["estimate", "--preset", "fig4"],
    "estimate-fig4-kappa": ["estimate", "--preset", "fig4", "--kappa", "0.9", "--seed", "5"],
    "estimate-floored": ["estimate", "--config", "floored.json"],
    "estimate-one-octave": ["estimate", "--config", "one-octave.json"],
    "estimate-r-above-p": ["estimate", "--config", "r-above-p.json"],
    "estimate-nan-csv": ["estimate", "--config", "floored.json", "--data", "nan.csv"],
    "estimate-inf-bin": ["estimate", "--config", "floored.json", "--data", "inf.bin"],
    "simulate-floored": ["simulate", "--config", "floored.json"],
    # read back what simulate-floored wrote, in both formats
    "estimate-floored-bin": ["estimate", "--config", "floored.json",
                             "--data", "simulate-floored/series_y.bin"],
    "estimate-floored-csv": ["estimate", "--config", "floored.json",
                             "--data", "simulate-floored/series_y.csv"],
    "mc-floored": ["mc", "--config", "floored.json"],
    # three replications on four requested workers: the study starts three threads
    "mc-floored-w4": ["mc", "--config", "floored.json", "--workers", "4"],
    "simulate-arma-components": ["simulate", "--config", "arma-components.json"],
    "estimate-noiseless-haar": ["estimate", "--config", "noiseless-haar.json"],
    "mc-noiseless-haar": ["mc", "--config", "noiseless-haar.json"],
    "simulate-clipped": ["simulate", "--config", "clipped.json"],
    "mc-clipped": ["mc", "--config", "clipped.json", "--reps", "3", "--workers", "2"],
    "simulate-infeasible": ["simulate", "--config", "infeasible.json"],
    "mc-infeasible": ["mc", "--config", "infeasible.json", "--workers", "2"],
    "simulate-overflow": ["simulate", "--config", "overflow.json"],
    "mc-overflow-w2": ["mc", "--config", "overflow.json", "--workers", "2"],
    "estimate-overflow-cov": ["estimate", "--config", "overflow-cov.json"],
    "mc-overflow-cov-w2": ["mc", "--config", "overflow-cov.json", "--workers", "2"],
    **{f"simulate-rejected-{name}": ["simulate", "--config", f"rejected-{name}.json"]
       for name in REJECTED},
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path, metavar="DIR",
                        help="working directory of the runs; must be empty or absent")
    parser.add_argument("--src", type=Path, default=ROOT / "src", metavar="PATH",
                        help="directory holding the eigenwave package (default: ./src)")
    args = parser.parse_args(argv)
    if not (args.src / "eigenwave" / "__init__.py").is_file():
        parser.error(f"no eigenwave package under {args.src}")
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    args.out.mkdir(parents=True, exist_ok=True)
    for name, doc in CONFIGS.items():
        (args.out / name).write_text(json.dumps(doc))
    for name, data in DATA.items():
        (args.out / name).write_bytes(data)
    env = {**os.environ, "PYTHONPATH": str(args.src.resolve()),
           "XDG_CACHE_HOME": str((args.out / ".cache").resolve())}
    lines = []
    for name, command in FIXTURES.items():
        proc = subprocess.run([sys.executable, "-m", "eigenwave.cli", *command, "--out", name],
                              cwd=args.out, env=env, capture_output=True)
        lines.append(f"{sha256(proc.stderr)}  {name} stderr, exit {proc.returncode}")
        run_dir = args.out / name
        files = sorted(run_dir.rglob("*")) if run_dir.is_dir() else []
        for path in files:
            if path.is_file():
                lines.append(f"{sha256(path.read_bytes())}  {path.relative_to(args.out)}")
    for line in sorted(lines, key=lambda line: line.split("  ", 1)[1]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
