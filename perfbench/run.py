"""Study benchmark: whole `eigenwave mc` studies, timed as a user runs them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports eigenwave from `src/` there
and exits with code 2 if that is missing. Studies run one at a time (a
closed loop driven from this one process) as `python -m eigenwave.cli mc`
subprocesses. Study k gets `--seed` N + (k mod SEEDS_PER_RUN) * 2^32, so the
first gets N itself and a run covers SEEDS_PER_RUN distinct studies; repeats
of a seed must reproduce its records byte for byte. The benchmark sets no
BLAS or thread environment variable; it reports the ones it finds.

--trace 0 measures the end-to-end metrics: replications/s of the whole
process and CPU per replication, each pooled over all studies of the run
(replications over summed wall or CPU time: on fig4-pool single studies
scatter widely, and the pooled ratio is steadier than their median), the
median set-up time of fresh interpreters, the median peak RSS, and two
accuracy figures over the records of the SEEDS_PER_RUN distinct studies.
--trace 1 alternates untraced CLI studies with traced studies (`tracer.py`)
and reports per-layer self times and counts; the traced records must equal
the CLI records of the same seed bit for bit.

Every study's outputs are checked (see `Runner.check`); a failed check, a
nonzero exit or a missing file makes the study a failed run. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics. `perfbench/layers.json` says which end-to-end metric
each per-layer metric should move, on which workload.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
SEEDS_PER_RUN = 5
SETUP_REPEATS = 11
MIN_LAYER_COVERAGE = 0.95
REFERENCE_RTOL = 1e-10
REFERENCE_ATOL = 1e-12
OUTPUTS = ("records.ndjson", "summary.json", "rhat_sweep.csv", "gamma_plot.csv",
           "ks.json", "effective_config.json")


@dataclass(frozen=True)
class Workload:
    preset: str | None = None
    config: str | None = None  # relative to the checkout root
    io: dict = field(default_factory=dict)  # overrides on top of the preset
    reps: int = 1
    workers: int = 1


# Why each workload: see "workloads" in BENCHMARK.json.
WORKLOADS = {
    "fig1-latent": Workload(preset="fig1", reps=6, workers=1),
    "fig4-pool": Workload(preset="fig4", io={"ks_subsets": True}, reps=60, workers=2),
    "arma-wide": Workload(config="perfbench/workloads/arma-wide.json", reps=16, workers=1),
}

END_TO_END_UNITS = {
    "reps_per_s": "1/s", "setup_s": "s", "cpu_s_per_rep": "s",
    "peak_rss_mb": "MB", "h_rmse": "1", "rhat_exact_frac": "1",
}
REP_LAYERS = ("simulate.latent", "simulate.noise", "simulate.assemble",
              "wavelets.filter_bank", "wavelets.pyramid", "spectrum.covariance",
              "spectrum.eigen", "estimators.regression")
STUDY_LAYERS = ("config.resolve", "montecarlo.summarize", "montecarlo.gamma_plot",
                "montecarlo.ks_subsets", "montecarlo.write")
PER_LAYER_UNITS = {
    **{f"{name}{suffix}": "ms" for name in REP_LAYERS + STUDY_LAYERS
       for suffix in ("_ms", "_cpu_ms")},
    "simulate.flagged": "count",
    "spectrum.floored": "count",
    "wavelets.pyramid_mflop": "Mmadd_computed",
    "wavelets.pyramid_gflop_s": "Gmadd/s",
    "montecarlo.replication_ms.p50": "ms",
    "montecarlo.replication_ms.p90": "ms",
    "montecarlo.replication_other_ms": "ms",
    "montecarlo.pool_efficiency": "ratio",
    "trace.reps_per_s": "1/s",
    "trace.overhead_pct": "%",
}


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


@dataclass
class Study:
    out: Path
    returncode: int
    wall: float
    cpu: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv, log: Path):
    """Run argv to completion; returns (exit code, wall s, rusage of its tree).

    The child leads its own process group, so an interrupted benchmark
    kills it together with any pool workers it started."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT, start_new_session=True)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def source_args(name: str, work: Path) -> list:
    """The --preset/--config flags a user would give for this workload."""
    wl = WORKLOADS[name]
    if wl.config:
        return ["--config", str(ROOT / wl.config)]
    if not wl.io:
        return ["--preset", wl.preset]
    from eigenwave.config import preset_config
    doc = preset_config(wl.preset)
    doc.setdefault("io", {}).update(wl.io)
    path = work / "config.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return ["--config", str(path)]


def run_study(name: str, seed: int, source: list, out: Path) -> Study:
    wl = WORKLOADS[name]
    argv = [sys.executable, "-m", "eigenwave.cli", "mc", *source, "--seed", str(seed),
            "--reps", str(wl.reps), "--workers", str(wl.workers), "--out", str(out)]
    out.mkdir(parents=True, exist_ok=True)
    code, wall, usage = run_process(argv, out.with_suffix(".log"))
    return Study(out, code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


SETUP_CODE = """\
import json, sys
import eigenwave
from eigenwave.config import build_mc_config, preset_config, resolve_config
preset, config, seed, reps = json.loads(sys.argv[1])
if preset:
    doc = preset_config(preset)
else:
    with open(config, encoding="utf-8") as fh:
        doc = json.load(fh)
cfg = resolve_config(doc)
cfg["mc"].update(master_seed=seed, replications=reps)
build_mc_config(cfg)
"""


def setup_time(run) -> float:
    """Median wall of a fresh interpreter that imports eigenwave and builds
    the workload's McConfig."""
    spec = [run.preset, run.config_path, run.seed, run.workload.reps]
    log = run.work / "setup.log"
    walls = []
    for _ in range(SETUP_REPEATS):
        code, wall, _ = run_process([sys.executable, "-c", SETUP_CODE, json.dumps(spec)], log)
        if code != 0:
            raise BenchError(f"set-up failed: {log.read_text()}")
        walls.append(wall)
    return statistics.median(walls)


def record_doc(rec) -> dict:
    """A ReplicationRecord as `write_records_ndjson` writes it."""
    return {"index": rec.index, "seed": list(rec.seed), "h_hat": list(rec.h_hat),
            "delta": [("-inf" if d == float("-inf") else d) for d in rec.delta],
            "r_hat": rec.r_hat, "flagged": rec.flagged,
            "clipped_energy": rec.clipped_energy}


def summary_problem(summary: dict, records: list, config) -> str | None:
    """Whether summary.json agrees with the records it summarizes."""
    import numpy as np
    good = [rec for rec in records if not rec["flagged"]]
    if (summary["replications"], summary["flagged"]) != (len(records), len(records) - len(good)):
        return "summary.json counts disagree with records.ndjson"
    if not good:
        return None
    h = np.array([rec["h_hat"] for rec in good], dtype=np.float64)
    expected = {
        "mean": h.mean(axis=0),
        "std": h.std(axis=0, ddof=1) if len(good) > 1 else np.zeros(h.shape[1]),
        "q05": np.quantile(h, 0.05, axis=0),
        "q95": np.quantile(h, 0.95, axis=0),
        "bias": h.mean(axis=0) - np.asarray(config.model.hurst),
    }
    for key, value in expected.items():
        if not np.allclose(summary["h"][key], value, rtol=1e-12, atol=1e-15):
            return f"summary.json h.{key} disagrees with records.ndjson"
    deltas = np.array([[float(d) for d in rec["delta"]] for rec in good])
    sweep = summary["rhat_sweep"]
    if len(sweep) != len(config.kappa_grid):
        return "summary.json rhat_sweep has the wrong length"
    for row, kappa in zip(sweep, config.kappa_grid):
        mean = float((deltas > kappa).sum(axis=1).mean())
        if row[0] != kappa or row[1] != mean or row[4] != (mean == config.model.r):
            return f"summary.json rhat_sweep row at kappa={kappa} disagrees with records"
    return None


def study_seed(seed: int, k: int) -> int:
    """The master seed of study k of a run with benchmark seed `seed`."""
    return seed + (k % SEEDS_PER_RUN) * 2 ** 32


def reference_problem(name: str, master: int, records: list) -> str | None:
    """Whether default-seed records match the reference committed with the
    benchmark: r_hat and flagged exactly, h_hat to float64 rounding."""
    import numpy as np
    ref = json.loads((BENCH_DIR / "reference" / f"{name}.json").read_text())
    expected = ref["studies"].get(str(master))
    if ref["seed"] != DEFAULT_SEED or expected is None or len(expected) != len(records):
        return "reference does not cover this study"
    for rec, (index, r_hat, flagged, h_hat) in zip(records, expected):
        if (rec["index"], rec["r_hat"], rec["flagged"]) != (index, r_hat, flagged):
            return f"record {index}: r_hat/flagged differ from the committed reference"
        if not np.allclose(rec["h_hat"], h_hat, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL):
            return f"record {index}: h_hat differs from the committed reference"
    return None


def read_records(out: Path) -> tuple:
    text = (out / "records.ndjson").read_text()
    return text, [json.loads(line) for line in text.splitlines()]


class Runner:
    """One benchmark run of a workload: studies until the time is up, each
    checked; a study whose outputs are wrong is a failed run."""

    def __init__(self, name: str, seed: int, seconds: float, work: Path):
        from eigenwave.config import build_mc_config
        from tracer import load_config
        self.name, self.seed, self.seconds, self.work = name, seed, seconds, work
        self.workload = WORKLOADS[name]
        self.source = source_args(name, work)
        flag, value = self.source
        self.preset = value if flag == "--preset" else None
        self.config_path = value if flag == "--config" else None
        self.cfg = load_config(self.preset, self.config_path, seed, self.workload.reps)
        self.config = build_mc_config(self.cfg)
        self.verified = {}  # master seed -> (records text, problem or None)
        self.attempted = self.failed = 0
        self.good = []
        self.problems = []

    def fail(self, label: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {problem}")

    def study(self, k: int):
        """Run and check CLI study k; returns it if its outputs are right."""
        label = f"study{k}"
        master = study_seed(self.seed, k)
        study = run_study(self.name, master, self.source, self.work / label)
        self.attempted += 1
        problem = self.check(study, master)
        if problem:
            self.fail(label, problem)
            return None
        self.good.append(study)
        return study

    def check(self, study: Study, master: int) -> str | None:
        """None if the study's outputs are right, else what is wrong."""
        if study.returncode != 0:
            return f"exit code {study.returncode}"
        for fname in OUTPUTS:
            if not (study.out / fname).is_file():
                return f"missing {fname}"
        config = self.config
        try:
            text, records = read_records(study.out)
            if len(records) != config.replications:
                return f"records.ndjson holds {len(records)} records, expected {config.replications}"
            for i, rec in enumerate(records):
                if (rec["index"], rec["seed"]) != (i, [master, i]):
                    return f"record {i} has index/seed {rec['index']}/{rec['seed']}"
                if len(rec["h_hat"]) != config.model.r or len(rec["delta"]) != config.p:
                    return f"record {i} has the wrong h_hat/delta length"
            summary = json.loads((study.out / "summary.json").read_text())
            problem = summary_problem(summary, records, config)
            if problem:
                return problem
            if master not in self.verified:
                self.verified[master] = (text, self.verify(master, records))
            first, problem = self.verified[master]
            if text != first:
                return "records.ndjson differs from the first study of this seed"
            return problem
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed output: {exc!r}"

    def verify(self, master: int, records: list) -> str | None:
        """A replication drawn by the seed, recomputed in process through the
        public functions, must match its record exactly; at the default seed
        the committed reference must match too."""
        import dataclasses
        import numpy as np
        from tracer import replicate
        index = int(np.random.default_rng(master).integers(len(records)))
        config = dataclasses.replace(self.config, master_seed=master)
        recomputed, _, _ = replicate(config, index)
        if record_doc(recomputed) != records[index]:
            return f"record {index} differs from its in-process recomputation"
        if self.seed == DEFAULT_SEED:
            return reference_problem(self.name, master, records)
        return None

    def accuracy(self) -> tuple:
        """(h_rmse, rhat_exact_frac) over the records of the run's seeds."""
        import numpy as np
        records = [rec for master in sorted(self.verified)
                   for rec in map(json.loads, self.verified[master][0].splitlines())]
        h = np.array([rec["h_hat"] for rec in records])
        rmse = float(np.sqrt(np.mean((h - np.asarray(self.config.model.hurst)) ** 2)))
        exact = float(np.mean([rec["r_hat"] == self.config.model.r for rec in records]))
        return rmse, exact

    def until_deadline(self, step) -> None:
        """Call step(k) until the next call would overrun the run's seconds,
        at least once per seed of the run."""
        start, walls, k = time.perf_counter(), [], 0
        while True:
            t0 = time.perf_counter()
            step(k)
            walls.append(time.perf_counter() - t0)
            k += 1
            if k >= SEEDS_PER_RUN and (time.perf_counter() - start
                                     + statistics.median(walls) > self.seconds):
                return


def measure(run: Runner) -> dict:
    setup = setup_time(run)
    run.until_deadline(run.study)
    if run.failed:
        return {}
    done = run.workload.reps * len(run.good)
    h_rmse, exact = run.accuracy()
    return {
        "reps_per_s": done / sum(s.wall for s in run.good),
        "setup_s": setup,
        "cpu_s_per_rep": sum(s.cpu for s in run.good) / done,
        "peak_rss_mb": statistics.median(s.rss_mb for s in run.good),
        "h_rmse": h_rmse,
        "rhat_exact_frac": exact,
    }


def traced_study(run: Runner, k: int, cli: Study):
    """Traced study k as a subprocess; returns (trace doc, wall) if its
    records equal those of CLI study k bit for bit and its spans cover the
    replications, else None."""
    wl = run.workload
    out = run.work / f"traced{k}"
    argv = [sys.executable, str(BENCH_DIR / "tracer.py"), *run.source,
            "--seed", str(study_seed(run.seed, k)), "--reps", str(wl.reps),
            "--workers", str(wl.workers), "--out", str(out)]
    out.mkdir(parents=True, exist_ok=True)
    code, wall, _ = run_process(argv, out.with_suffix(".log"))
    run.attempted += 1
    if code != 0:
        problem = f"exit code {code}: {out.with_suffix('.log').read_text()[-2000:]}"
    elif read_records(out)[0] != read_records(cli.out)[0]:
        problem = "traced h_hat/delta differ from the untraced CLI records"
    else:
        doc = json.loads((out / "trace.json").read_text())
        problem = coverage_problem(doc)
    if problem:
        run.fail(f"traced{k}", problem)
        return None
    return doc, wall


def replication_times(spans) -> tuple:
    """((wall, cpu) of the replication span, {layer: (wall, cpu)}) in ns.
    Layer spans have no children, so their durations are self times."""
    layers = {}
    total = None
    for name, w0, w1, c0, c1 in spans:
        if name == "montecarlo.replication":
            total = (w1 - w0, c1 - c0)
        else:
            wall, cpu = layers.get(name, (0, 0))
            layers[name] = (wall + w1 - w0, cpu + c1 - c0)
    return total, layers


def coverage_problem(doc: dict) -> str | None:
    """A replication's wall time is its layers' self times plus its own;
    the layers must account for nearly all of it."""
    shares = []
    for rep in doc["replications"]:
        total, layers = replication_times(rep["spans"])
        shares.append(sum(wall for wall, _ in layers.values()) / total[0])
    if statistics.median(shares) < MIN_LAYER_COVERAGE:
        return (f"layer spans cover a median {statistics.median(shares):.3f} "
                f"of replication wall time, below {MIN_LAYER_COVERAGE}")
    return None


def per_layer(traced: list, untraced_rps: float, pool_wall: float, workers: int) -> dict:
    """Per-layer metrics from the traced studies of one run: medians over
    all their replications, or over the studies for study-level layers."""
    import numpy as np
    ms = 1e-6
    docs = [doc for doc, _ in traced]
    reps = [rep for doc in docs for rep in doc["replications"]]
    rows = [replication_times(rep["spans"]) for rep in reps]
    out = {}
    for layer in REP_LAYERS:
        out[f"{layer}_ms"] = statistics.median(r[1].get(layer, (0, 0))[0] * ms for r in rows)
        out[f"{layer}_cpu_ms"] = statistics.median(r[1].get(layer, (0, 0))[1] * ms for r in rows)
    for layer in STUDY_LAYERS:
        spans = [[s for s in doc["study_spans"] if s[0] == layer] for doc in docs]
        out[f"{layer}_ms"] = statistics.median(sum(s[2] - s[1] for s in ss) * ms for ss in spans)
        out[f"{layer}_cpu_ms"] = statistics.median(sum(s[4] - s[3] for s in ss) * ms for ss in spans)
    rep_walls = [total[0] * ms for total, _ in rows]
    other = [total[0] * ms - sum(w for w, _ in layers.values()) * ms for total, layers in rows]
    madds = statistics.median(rep["madds"] for rep in reps)
    serial = statistics.median(
        sum(replication_times(rep["spans"])[0][0] for rep in doc["replications"]) * 1e-9
        for doc in docs)
    traced_rps = len(reps) / sum(wall for _, wall in traced)
    out.update({
        "simulate.flagged": statistics.median(
            sum(rep["flagged"] for rep in doc["replications"]) for doc in docs),
        "spectrum.floored": statistics.fmean(rep["floored"] for rep in reps),
        "wavelets.pyramid_mflop": madds * 1e-6,
        "wavelets.pyramid_gflop_s": madds * 1e-9 / (out["wavelets.pyramid_ms"] * 1e-3),
        "montecarlo.replication_ms.p50": float(np.quantile(rep_walls, 0.5)),
        "montecarlo.replication_ms.p90": float(np.quantile(rep_walls, 0.9)),
        "montecarlo.replication_other_ms": statistics.median(other),
        "montecarlo.pool_efficiency": serial / (workers * pool_wall),
        "trace.reps_per_s": traced_rps,
        "trace.overhead_pct": 100.0 * (untraced_rps - traced_rps) / untraced_rps,
    })
    return out


def trace(run: Runner) -> dict:
    """Untraced CLI studies alternating with traced studies, then one timed
    untraced `run_replications` call for the pool efficiency."""
    from eigenwave.montecarlo import run_replications
    traced, untraced_walls = [], []

    def pair(k):
        study = run.study(k)
        if study is not None:
            untraced_walls.append(study.wall)
            result = traced_study(run, k, study)
            if result is not None:
                traced.append(result)

    run.until_deadline(pair)
    if run.failed:
        return {}
    wl = run.workload
    start = time.perf_counter()
    run_replications(run.config, workers=wl.workers)
    pool_wall = time.perf_counter() - start
    untraced_rps = wl.reps * len(untraced_walls) / sum(untraced_walls)
    return per_layer(traced, untraced_rps, pool_wall, wl.workers)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {key: value for key, value in sorted(os.environ.items())
                       if any(tag in key for tag in ("THREAD", "BLAS", "OMP_", "MKL_"))},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "eigenwave" / "__init__.py").is_file():
        print(f"perfbench: no eigenwave sources under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Runner(args.workload, args.seed, args.seconds, work)
        metrics = trace(run) if args.trace else measure(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(), sort_keys=True))
    for problem in run.problems:
        print(f"FAILED {problem}")
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for key, value in metrics.items():
        print(f"{args.workload:12s} {key:34s} {value:14.6g} {units[key]}")
    print(f"{args.workload:12s} {'error_rate':34s} "
          f"{run.failed / max(run.attempted, 1):14.6g} 1 ({run.failed}/{run.attempted} runs)")
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
