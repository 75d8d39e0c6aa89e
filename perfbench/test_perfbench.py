"""Self-tests of the benchmark at a tiny size.

    python3 -m pytest perfbench
"""
import json
from pathlib import Path

import pytest

import run

TINY = {
    "model": {"r": 2, "hurst": [0.3, 0.7], "mixing": {"kind": "random_unit_columns"},
              "n": 1024},
    "analysis": {"j1": 3, "j2": 5},
    "mc": {"ratio": 0.5},
    "io": {"ks_subsets": True},
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    monkeypatch.setitem(run.WORKLOADS, "tiny",
                        run.Workload(config=str(config), reps=12, workers=2))
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    return tmp_path


def bench(capsys, trace, seed=7):
    code = run.main(["--workload", "tiny", "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed(tiny, capsys, trace, section):
    code, table, result = bench(capsys, trace)
    assert code == 0, table
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.SEEDS_PER_RUN
    names = [m["name"] for m in SPEC[section]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.split()[1:2] == [metric["name"]] for line in table), metric["name"]
    assert any(line.split()[1:2] == ["error_rate"] for line in table)


def _drop_last_record(path: Path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _perturb_first_h_hat(path: Path):
    lines = path.read_text().splitlines(keepends=True)
    doc = json.loads(lines[0])
    doc["h_hat"][0] += 1e-9
    lines[0] = json.dumps(doc, sort_keys=True) + "\n"
    path.write_text("".join(lines))


def _truncate_mid_record(path: Path):
    text = path.read_text()
    path.write_text(text[: len(text) // 2])


@pytest.mark.parametrize("corrupt", [_drop_last_record, _perturb_first_h_hat,
                                     _truncate_mid_record])
def test_corrupted_records_count_as_failed_runs(tiny, capsys, monkeypatch, corrupt):
    real = run.run_study

    def corrupting(*args):
        study = real(*args)
        corrupt(study.out / "records.ndjson")
        return study

    monkeypatch.setattr(run, "run_study", corrupting)
    code, table, result = bench(capsys, 0)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.SEEDS_PER_RUN
    assert any(line.startswith("FAILED") for line in table)


def test_one_corrupted_study_among_good_ones_fails_alone(tiny, capsys, monkeypatch):
    real = run.run_study

    def corrupt_second(name, seed, source, out):
        study = real(name, seed, source, out)
        if out.name == "study1":
            _perturb_first_h_hat(study.out / "records.ndjson")
        return study

    monkeypatch.setattr(run, "run_study", corrupt_second)
    code, _, result = bench(capsys, 0)
    assert code != 0
    assert result["failed"] == 1


def test_traced_records_must_equal_cli_records(tiny, capsys, monkeypatch):
    real = run.run_process

    def perturb_traced(argv, log):
        result = real(argv, log)
        if argv[1].endswith("tracer.py"):
            _perturb_first_h_hat(Path(argv[argv.index("--out") + 1]) / "records.ndjson")
        return result

    monkeypatch.setattr(run, "run_process", perturb_traced)
    code, table, result = bench(capsys, 1)
    assert code != 0 and not result["correct"]
    assert result["failed"] >= 1
    assert all(line.startswith("FAILED traced") for line in table if line.startswith("FAILED"))


def test_reference_mismatch_fails(tiny, capsys, monkeypatch, tmp_path):
    bench_dir = tmp_path / "bench"
    (bench_dir / "reference").mkdir(parents=True)
    monkeypatch.setattr(run, "BENCH_DIR", bench_dir)
    wrong = [[i, 0, False, [0.5, 0.5]] for i in range(12)]
    (bench_dir / "reference" / "tiny.json").write_text(json.dumps(
        {"seed": run.DEFAULT_SEED,
         "studies": {str(run.study_seed(run.DEFAULT_SEED, k)): wrong
                     for k in range(run.SEEDS_PER_RUN)}}))
    code, table, result = bench(capsys, 0, seed=run.DEFAULT_SEED)
    assert code != 0 and result["failed"] == result["attempted"]
    assert any("reference" in line for line in table if line.startswith("FAILED"))


def test_missing_sources_exit_nonzero_without_a_result(tiny, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "nowhere")
    code = run.main(["--workload", "tiny", "--seed", "7", "--seconds", "0", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
