"""Repeated benchmark runs, their spread, and the committed reference files.

    python3 perfbench/baseline.py runs [--seeds 1-10] [--workloads a,b] [--out FILE]
    python3 perfbench/baseline.py reference

`runs` runs `perfbench/run.py` once per workload and seed with tracing off,
then once per workload with tracing on at the default seed, prints every
metric of every workload, and gives each end-to-end metric's median and
the spread between its quartiles as a share of the median (the figure the
bounds in BENCHMARK.json are set against). With --out it writes all of it,
with the environment, as a BENCH file such as `perfbench/BENCH_baseline.json`.

`reference` rewrites `perfbench/reference/<workload>.json`: r_hat, flagged
and h_hat of every record of the CLI studies of a run at the default seed,
which the output check compares against. Run it only on a commit whose outputs are
known to be right.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=bench.ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def runs(args) -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"env": bench.environment(), "run_seconds": seconds, "seeds": args.seeds,
           "workloads": {}}
    for workload in workloads:
        results = []
        for seed in args.seeds:
            results.append(_bench(workload, seed, seconds, 0))
            values = {k: round(v["value"], 6) for k, v in results[-1]["metrics"].items()}
            print(f"{workload:12s} seed {seed:<4d} {json.dumps(values)}", flush=True)
        e2e = {name: spread([r["metrics"][name]["value"] for r in results]) for name in bounds}
        traced = _bench(workload, bench.DEFAULT_SEED, seconds, 1)
        doc["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": sum(r["attempted"] for r in results) + traced["attempted"],
            "failed": sum(r["failed"] for r in results) + traced["failed"],
        }
        for name, row in e2e.items():
            flag = "" if name == "setup_s" or row["iqr_share"] <= bounds[name] / 3 else "  WIDE"
            print(f"{workload:12s} {name:16s} median {row['median']:12.6g}  "
                  f"iqr/median {row['iqr_share']:.4f} (bound {bounds[name]}){flag}", flush=True)
        for name, value in doc["workloads"][workload]["per_layer"].items():
            print(f"{workload:12s} {name:34s} {value:12.6g}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def reference(args) -> int:
    sys.path.insert(0, str(bench.SRC))
    out_dir = bench.BENCH_DIR / "reference"
    out_dir.mkdir(exist_ok=True)
    for workload in bench.WORKLOADS:
        work = bench.WORK / "reference" / workload
        work.mkdir(parents=True, exist_ok=True)
        source = bench.source_args(workload, work)
        studies = {}
        for k in range(bench.SEEDS_PER_RUN):
            master = bench.study_seed(bench.DEFAULT_SEED, k)
            study = bench.run_study(workload, master, source, work / f"study{k}")
            if study.returncode != 0:
                raise SystemExit(f"{workload} seed {master}: exit code {study.returncode}")
            _, records = bench.read_records(study.out)
            studies[str(master)] = [[r["index"], r["r_hat"], r["flagged"], r["h_hat"]]
                                    for r in records]
        doc = {"seed": bench.DEFAULT_SEED, "studies": studies}
        (out_dir / f"{workload}.json").write_text(json.dumps(doc) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_runs = sub.add_parser("runs")
    p_runs.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p_runs.add_argument("--workloads")
    p_runs.add_argument("--out")
    p_runs.set_defaults(func=runs)
    sub.add_parser("reference").set_defaults(func=reference)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
