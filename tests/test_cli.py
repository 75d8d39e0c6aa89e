import contextlib
import copy
import errno
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import eigenwave
from eigenwave import cli, config, estimators
from eigenwave import series as series_module
from eigenwave.cli import main
from eigenwave.config import (PRESETS, SCHEMA, ConfigError, build_mc_config, preset_config,
                              resolve_config)
from eigenwave.montecarlo import gamma_plot, ks_subset_average
from eigenwave.series import (check_series, read_series_binary, read_series_csv,
                              write_series_binary, write_series_csv)
from eigenwave import rootcache
from eigenwave.simulate import _embedding_root, _factor_embedding_root, draw_observation

MINIMAL = {
    "model": {
        "r": 1,
        "hurst": [0.5],
        "mixing": {"kind": "canonical"},
        "noise": {"kind": "none"},
        "n": 1024,
        "p": 1,
    },
    "analysis": {"j1": 2, "j2": 5},
    "mc": {"replications": 4, "master_seed": 7, "ratio": 1.0},
    "io": {"formats": ["csv", "binary"]},
}


# Cross-covariance 0.99 between exponents 0.1 and 0.9 is not admissible:
# the circulant embedding clips, and every draw is flagged.
CLIPPED_MODEL = {
    "r": 2,
    "hurst": [0.1, 0.9],
    "point_cov": [[1.0, 0.99], [0.99, 1.0]],
    "mixing": {"kind": "canonical"},
    "n": 1024,
    "p": 2,
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# n = 1024 with the default length-4 filter reaches octave 8, not 12.
INFEASIBLE = {**MINIMAL, "analysis": {"j1": 2, "j2": 12}}


def assert_infeasible_creates_nothing(argv, out, capsys):
    code, _, err = run([*argv, "--out", str(out)], capsys)
    assert code == 3, err
    msg = json.loads(err.strip())
    assert msg["code"] == 3
    assert msg["error"].endswith("last feasible octave is 8 (reduce analysis.j2 to 8 or below)")
    assert not out.exists()


class TestSimulate:
    def test_minimal_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        code, _, err = run(["simulate", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0, err
        assert (out / "series_y.csv").exists()
        assert (out / "series_y.bin").exists()
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["analysis"]["kappa"] == 0.3  # default resolved
        series = read_series_csv(out / "series_y.csv")
        assert series.shape == (1, 1024)
        binary = read_series_binary(out / "series_y.bin")
        np.testing.assert_allclose(binary, series, atol=1e-12)

    def test_repeat_is_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run(["simulate", "--config", cfg, "--out", str(out)], capsys)
            assert code == 0
            outs.append((out / "series_y.bin").read_bytes())
        assert outs[0] == outs[1]

    def test_seed_changes_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}"
            code, _, _ = run(["simulate", "--config", cfg, "--seed", seed,
                              "--out", str(out)], capsys)
            assert code == 0
            blobs.append((out / "series_y.bin").read_bytes())
        assert blobs[0] != blobs[1]

    def test_components_written(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MINIMAL))
        doc["io"]["components"] = True
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code, _, _ = run(["simulate", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0
        for name in ("series_x.csv", "series_z.csv", "mixing_p.csv"):
            assert (out / name).exists()

    def test_clipped_model_warns_in_one_line(self, tmp_path, capsys):
        doc = {**MINIMAL, "model": CLIPPED_MODEL}
        out = tmp_path / "out"
        code, _, err = run(["simulate", "--config", write_config(tmp_path, doc),
                            "--out", str(out)], capsys)
        assert code == 0, err
        warning = draw_observation(build_mc_config(resolve_config(doc)), 0)[4].warning
        assert warning is not None
        assert err == json.dumps({"warning": warning}) + "\n"
        assert (out / "series_y.csv").exists()

    def test_p_below_r_is_config_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"].update({"r": 2, "hurst": [0.4, 0.6], "p": 1})
        cfg = write_config(tmp_path, doc)
        code, _, err = run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        doc = json.loads(err.strip())
        assert doc["code"] == 2
        assert "model.p" in doc["path"]

    def test_infeasible_octaves_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, INFEASIBLE)
        assert_infeasible_creates_nothing(["simulate", "--config", cfg], tmp_path / "o", capsys)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"]["hurts"] = [0.5]  # typo
        cfg = write_config(tmp_path, doc)
        code, _, err = run(["simulate", "--config", cfg], capsys)
        assert code == 2
        assert "hurts" in err


class TestEstimate:
    @pytest.fixture()
    def univariate_setup(self, tmp_path, capsys):
        doc = {
            "model": {
                "r": 1, "hurst": [0.7],
                "mixing": {"kind": "canonical"},
                "noise": {"kind": "none"},
                "n": 2 ** 15, "p": 1,
            },
            "analysis": {"j1": 6, "j2": 9, "r": 1},
            "mc": {"master_seed": 4242},
            "io": {"formats": ["binary"]},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code, _, err = run(["simulate", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0, err
        return cfg, out

    def test_univariate_against_independent_regression(self, univariate_setup, capsys):
        cfg, out = univariate_setup
        data = out / "series_y.bin"
        code, _, err = run(["estimate", "--config", cfg, "--data", str(data),
                            "--out", str(out)], capsys)
        assert code == 0, err
        result = json.loads((out / "estimate.json").read_text())
        h_cli = result["h_hat"][0]
        assert abs(h_cli - 0.7) < 0.1

        # independent univariate regression: full convolution per octave,
        # valid part only, log2 variance against j with the same weights
        y = read_series_binary(data)[0]
        lo = np.array([0.48296291314453414, 0.83651630373780791,
                       0.22414386804201338, -0.12940952255126038])
        hi = np.array([(-1.0) ** k * c for k, c in enumerate(lo[::-1])])
        approx = y
        vars_, counts = {}, {}
        for j in range(1, 10):
            det = np.convolve(approx, hi[::-1], mode="valid")[::2]
            approx = np.convolve(approx, lo[::-1], mode="valid")[::2]
            vars_[j] = (det ** 2).mean()
            counts[j] = det.size
        js = np.arange(6, 10)
        b = np.array([counts[j] for j in js], dtype=float)
        s0, s1, s2 = b.sum(), (b * js).sum(), (b * js ** 2).sum()
        w = b * (s0 * js - s1) / (s0 * s2 - s1 ** 2)
        h_ind = 0.5 * ((w * np.log2([vars_[j] for j in js])).sum() - 1.0)
        assert h_cli == pytest.approx(h_ind, abs=1e-10)

    def test_kappa_flag_overrides_config(self, univariate_setup, capsys):
        cfg, out = univariate_setup
        code, _, _ = run(["estimate", "--config", cfg, "--kappa", "0.9",
                          "--out", str(out)], capsys)
        assert code == 0
        result = json.loads((out / "estimate.json").read_text())
        assert result["kappa"] == 0.9
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["analysis"]["kappa"] == 0.9

    def test_r_override_absent_uses_estimate(self, tmp_path, capsys):
        doc = {
            "model": {
                "r": 1, "hurst": [0.8],
                "mixing": {"kind": "canonical"},
                "noise": {"kind": "none"},
                "n": 4096, "p": 1,
            },
            "analysis": {"j1": 3, "j2": 6},
            "mc": {"master_seed": 11},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code, _, err = run(["estimate", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0, err
        result = json.loads((out / "estimate.json").read_text())
        assert len(result["h_hat"]) == result["r_hat"]

    def test_infeasible_octaves_exit_3(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        code, _, err = run(["simulate", "--config", write_config(tmp_path, MINIMAL),
                            "--out", str(sim)], capsys)
        assert code == 0, err
        cfg = write_config(tmp_path, INFEASIBLE, "infeasible.json")
        for data in ([], ["--data", str(sim / "series_y.bin")]):
            assert_infeasible_creates_nothing(["estimate", "--config", cfg, *data],
                                              tmp_path / "o", capsys)


class TestMc:
    def test_smoke_emits_all_outputs(self, tmp_path, capsys):
        doc = {
            "model": {
                "r": 1, "hurst": [0.6],
                "mixing": {"kind": "canonical"},
                "noise": {"kind": "iid_gaussian", "variance": 1.0},
                "n": 1024,
            },
            "analysis": {"j1": 3, "j2": 5},
            "mc": {"replications": 8, "master_seed": 3, "ratio": 0.25},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        code, _, err = run(["mc", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0, err
        for name in ("gamma_plot.csv", "ks.json", "rhat_sweep.csv",
                      "records.ndjson", "summary.json", "effective_config.json"):
            assert (out / name).exists(), name
        records = [json.loads(line) for line in (out / "records.ndjson").read_text().splitlines()]
        assert len(records) == 8
        assert records[0]["seed"] == [3, 0]
        gamma = (out / "gamma_plot.csv").read_text().splitlines()
        assert gamma[0] == "m,d2_empirical,chi2_quantile"
        assert len(gamma) == 1 + 8

    def test_reps_flag_scales_preset(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run(["mc", "--preset", "fig4", "--reps", "20",
                            "--seed", "5", "--out", str(out),
                            "--workers", "2"], capsys)
        assert code == 0, err
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["mc"]["replications"] == 20
        assert effective["mc"]["master_seed"] == 5
        lines = (out / "records.ndjson").read_text().splitlines()
        assert len(lines) == 20

    @pytest.mark.parametrize("model, argv, expected", [
        (None, ["--preset", "fig4", "--reps", "4"], 0),
        # every replication is flagged, so the study fails after its threads
        (CLIPPED_MODEL, ["--reps", "3"], 3),
    ])
    def test_no_worker_outlives_a_pooled_study(self, tmp_path, capsys, model, argv, expected):
        if model is not None:
            argv = [*argv, "--config", write_config(tmp_path, {**MINIMAL, "model": model})]
        before = threading.active_count()
        code, _, err = run(["mc", *argv, "--workers", "2",
                            "--out", str(tmp_path / "out")], capsys)
        assert code == expected, err
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_all_flagged_study_keeps_its_records(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path, {**MINIMAL, "model": CLIPPED_MODEL})
        out = tmp_path / "out"
        code, _, err = run(["mc", "--config", cfg, "--reps", "3", "--workers", workers,
                            "--out", str(out)], capsys)
        assert code == 3, err
        assert err.count("\n") == 1, err
        assert json.loads(err) == {
            "code": 3, "error": "every replication was flagged by synthesis diagnostics"}
        assert sorted(os.listdir(out)) == ["effective_config.json", "records.ndjson"]
        records = [json.loads(line) for line in (out / "records.ndjson").read_text().splitlines()]
        assert [rec["index"] for rec in records] == [0, 1, 2]
        assert all(rec["flagged"] and rec["clipped_energy"] > 1e-6 for rec in records)
        assert json.loads((out / "effective_config.json").read_text())["mc"]["replications"] == 3

    def test_tiny_run_skips_gamma_outputs(self, tmp_path, capsys):
        # below the M > 5r covariance-stability cut the distributional
        # outputs are refused but the study still completes
        out = tmp_path / "out"
        code, _, err = run(["mc", "--preset", "fig4", "--reps", "6",
                            "--seed", "5", "--out", str(out)], capsys)
        assert code == 0
        assert "M > 5r" in err
        assert (out / "gamma_plot.csv").read_text() == "m,d2_empirical,chi2_quantile\n"
        assert "skipped" in json.loads((out / "ks.json").read_text())
        assert len((out / "records.ndjson").read_text().splitlines()) == 6

    def test_one_replication_is_a_study(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run(["mc", "--preset", "fig4", "--reps", "1", "--out", str(out)],
                           capsys)
        assert code == 0, err
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["replications"], summary["h"]["std"]) == (1, [0.0, 0.0, 0.0])
        assert list(json.loads((out / "ks.json").read_text())) == ["skipped"]
        assert (out / "gamma_plot.csv").read_text() == "m,d2_empirical,chi2_quantile\n"

    def test_ks_subsets_average_the_recorded_estimates(self, tmp_path, capsys):
        doc = preset_config("fig4")
        doc["io"] = {"ks_subsets": True}
        out = tmp_path / "out"
        code, _, err = run(["mc", "--config", write_config(tmp_path, doc), "--reps", "60",
                            "--out", str(out)], capsys)
        assert code == 0, err
        records = [json.loads(line) for line in (out / "records.ndjson").read_text().splitlines()]
        plot = gamma_plot(np.array([rec["h_hat"] for rec in records if not rec["flagged"]]))
        subset = json.loads((out / "ks.json").read_text())["subset_average"]
        # a quarter of the 60 replications
        assert subset == ks_subset_average(plot.d2, plot.dof, subset_size=15)
        assert (subset["subset_size"], subset["n_subsets"], subset["seed"]) == (15, 100, 20220521)

    def test_preset_and_config_conflict(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        code, _, err = run(["mc", "--preset", "fig4", "--config", cfg], capsys)
        assert code == 2

    def test_missing_config_and_preset(self, capsys):
        code, _, err = run(["mc"], capsys)
        assert code == 2

    def test_model_p_wins_over_ratio(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"]["p"] = 2  # mc.ratio 1.0 alone would give p = 1024 / 2^5 = 32
        doc["model"]["noise"] = {"kind": "iid_gaussian"}
        out = tmp_path / "out"
        code, _, err = run(["mc", "--config", write_config(tmp_path, doc),
                            "--out", str(out)], capsys)
        assert code == 0, err
        records = [json.loads(line) for line in (out / "records.ndjson").read_text().splitlines()]
        assert len(records) == 4
        assert all(len(rec["delta"]) == 2 for rec in records)

    def test_model_p_without_ratio(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MINIMAL))
        del doc["mc"]["ratio"]
        code, _, err = run(["mc", "--config", write_config(tmp_path, doc),
                            "--out", str(tmp_path / "out")], capsys)
        assert code == 0, err


@pytest.mark.parametrize("command", ["simulate", "mc"])
def test_explicit_matrix_row_count_is_config_error(tmp_path, capsys, command):
    doc = json.loads(json.dumps(MINIMAL))
    doc["model"].update({"p": 3, "mixing": {"kind": "explicit", "matrix": [[1.0], [0.0]]}})
    code, _, err = run([command, "--config", write_config(tmp_path, doc),
                        "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert json.loads(err.strip())["path"] == "model.mixing.matrix"


# Each entry breaks one model rule, and names the config path that reports it
# and a part of the message that says which rule.
INVALID_MODELS = {
    "non-unit explicit columns": (
        {"p": 2, "mixing": {"kind": "explicit", "matrix": [[1.0], [1.0]]}},
        "model.mixing.matrix", "mixing columns must have unit norm"),
    "explicit column count": (
        {"p": 2, "mixing": {"kind": "explicit", "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
        "model.mixing.matrix", "mixing matrix shape (2, 2), expected (2, 1)"),
    "explicit without matrix": ({"p": 2, "mixing": {"kind": "explicit"}}, "model.mixing",
                                "explicit mixing requires a matrix"),
    "canonical with matrix": (
        {"mixing": {"kind": "canonical", "matrix": [[1.0]]}}, "model.mixing.matrix",
        "matrix only valid for kind='explicit'"),
    "decreasing hurst": ({"r": 2, "hurst": [0.6, 0.4], "p": 2}, "model",
                         "Hurst exponents must be nondecreasing"),
    "non-PSD point_cov": (
        {"r": 2, "hurst": [0.4, 0.6], "p": 2, "point_cov": [[1.0, 2.0], [2.0, 1.0]]},
        "model", "point_cov is not positive semidefinite"),
    "zero point_cov diagonal": (
        {"r": 2, "hurst": [0.4, 0.6], "p": 2, "point_cov": [[0.0, 0.0], [0.0, 1.0]]},
        "model", "point_cov must have positive diagonal"),
    "point_cov shape": ({"point_cov": [[1.0, 0.0], [0.0, 1.0]]}, "model.point_cov",
                        "expected an 1 x 1 matrix"),
    "toeplitz row length": ({"point_cov": {"toeplitz": [1.0, 0.5]}},
                            "model.point_cov.toeplitz", "first row has 2 entries"),
    "ar under iid noise": (
        {"noise": {"kind": "iid_gaussian", "ar": [0.5]}}, "model.noise",
        "ar/ma coefficients only valid for kind='arma'"),
    "nonstationary AR": ({"noise": {"kind": "arma", "ar": [1.5]}}, "model.noise",
                         "nonstationary AR polynomial"),
    "hurst count": ({"hurst": [0.4, 0.6]}, "model.hurst", "expected 1 exponents for r=1"),
    "n not a power of two": ({"n": 1000}, "model.n", "must be a power of two"),
    "n written as a float": ({"n": 1024.0}, "model.n", "is not of type 'integer'"),
    "n beyond the float range": ({"n": 2 ** 1100}, "model.n",
                                 f"is greater than the maximum of {2 ** 32}"),
    "AR root within 1e-10 of the unit circle": (
        {"noise": {"kind": "arma", "ar": [0.9999999999]}}, "model.noise",
        "ARMA burn-in of 99999991736 samples exceeds the limit"),
}


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc"])
@pytest.mark.parametrize("case", sorted(INVALID_MODELS))
def test_invalid_model_is_config_error(tmp_path, capsys, command, case):
    update, path, message = INVALID_MODELS[case]
    doc = json.loads(json.dumps(MINIMAL))
    doc["model"].update(update)
    out = tmp_path / "out"
    code, _, err = run([command, "--config", write_config(tmp_path, doc),
                        "--out", str(out)], capsys)
    assert code == 2, err
    error = json.loads(err.strip())
    assert error["path"] == path
    assert error["error"].startswith(f"{path}: ") and message in error["error"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc"])
@pytest.mark.parametrize("j2", [8, 1024, 2000])
def test_ratio_derived_p_below_r_is_config_error(capsys, command, j2):
    # p = round(0.25 * 1024 / 2^j2): 1 at octave 8, and 0 at octaves past
    # the float range, where 2^j2 as a float would overflow
    doc = json.loads(json.dumps(MINIMAL))
    del doc["model"]["p"]
    doc["model"].update({"r": 3, "hurst": [0.2, 0.5, 0.8]})
    doc["analysis"] = {"j1": 2, "j2": j2}
    doc["mc"]["ratio"] = 0.25
    error = assert_rejected([command, "--config", "c.json", "--out", "out"],
                            {"c.json": json.dumps(doc).encode()}, capsys)
    assert (error["code"], error["path"]) == (2, "model.p")
    assert error["error"] == f"model.p: observation dimension {int(j2 == 8)} below latent r=3"


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc"])
@pytest.mark.parametrize("explicit_p", [True, False])
def test_n_beyond_the_float_range_is_config_error(capsys, command, explicit_p):
    # the ratio-derived p multiplies n by a float, and an explicit p let the
    # draw ask for an array of n samples
    doc = json.loads(json.dumps(MINIMAL))
    doc["model"]["n"] = 2 ** 1100
    if not explicit_p:
        del doc["model"]["p"]
    error = assert_rejected([command, "--config", "c.json", "--out", "out"],
                            {"c.json": json.dumps(doc).encode()}, capsys)
    assert (error["code"], error["path"]) == (2, "model.n")
    assert error["error"] == f"model.n: {2 ** 1100} is greater than the maximum of {2 ** 32}"


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc"])
def test_unbounded_arma_burn_in_is_config_error(capsys, command):
    # the AR root 1 + 1e-10 would need a burn-in of about 1e11 samples per row
    doc = json.loads(json.dumps(MINIMAL))
    doc["model"]["noise"] = {"kind": "arma", "ar": [0.9999999999]}
    error = assert_rejected([command, "--config", "c.json", "--out", "out"],
                            {"c.json": json.dumps(doc).encode()}, capsys)
    assert (error["code"], error["path"]) == (2, "model.noise")
    assert error["error"].startswith("model.noise: ARMA burn-in of 99999991736 samples "
                                     "exceeds the limit of 1048576")
    # a root 1e-5 outside the unit circle needs 1,000,011 samples, within the limit
    doc["model"]["noise"]["ar"] = [0.99999]
    assert build_mc_config(resolve_config(doc)).noise.ar == (0.99999,)


# Each override flag writes one config key and is checked like that key;
# --workers writes none, so its error has an empty path.
BAD_OVERRIDES = [
    ("mc", "--workers", "0", ""),
    ("mc", "--workers", "-1", ""),
    ("mc", "--reps", "0", "mc.replications"),
    ("mc", "--seed", "-1", "mc.master_seed"),
    ("estimate", "--kappa", "0", "analysis.kappa"),
    ("estimate", "--kappa", "-1", "analysis.kappa"),
    ("estimate", "--kappa", "nan", "analysis.kappa"),
    ("estimate", "--kappa", "inf", "analysis.kappa"),
    ("estimate", "--out", "", "io.out_dir"),
]


@pytest.mark.parametrize("command, flag, value, path", BAD_OVERRIDES)
def test_bad_override_is_config_error(tmp_path, capsys, monkeypatch, command, flag, value, path):
    monkeypatch.chdir(tmp_path)
    code, _, err = run([command, "--preset", "fig4", "--out", "out", flag, value], capsys)
    assert code == 2, err
    assert json.loads(err.strip())["path"] == path
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc"])
@pytest.mark.parametrize("out, message", [
    pytest.param("afile", "afile is not a directory", id="afile"),
    pytest.param("afile/sub", "afile is not a directory", id="afile/sub"),
    # the message mkdir would give
    pytest.param("x" * 300, str(OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG),
                                        "x" * 300)), id="name-too-long"),
    # only a config file can hold one, but main takes it in argv too
    pytest.param("a\0b", "embedded null byte", id="nul-byte"),
    # mkdir would find the link only after the run
    pytest.param("dang", "dang is not a directory", id="dangling-link"),
    pytest.param("dang/sub", "dang is not a directory", id="dangling-link/sub"),
])
def test_out_onto_a_file_is_config_error(capsys, monkeypatch, command, out, message):
    # rejected before any series is drawn
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a series before checking --out")
    monkeypatch.setattr("eigenwave.cli.draw_observation", no_draw)
    monkeypatch.setattr("eigenwave.cli.run_replications", no_draw)
    error = assert_rejected([command, "--preset", "fig4", "--out", out],
                            {"afile": b"x", "dang": Path("missing/x")}, capsys)
    assert error == {"code": 2, "error": f"io.out_dir: {message}", "path": "io.out_dir"}


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc"])
@pytest.mark.parametrize("out", ["link", "link/sub"])
def test_out_through_a_link_to_a_directory(tmp_path, capsys, monkeypatch, command, out):
    monkeypatch.chdir(tmp_path)
    Path("real").mkdir()
    os.symlink(tmp_path / "real", "link")
    code, _, err = run([command, "--config", write_config(tmp_path, MINIMAL), "--out", out],
                       capsys)
    assert code == 0, err
    assert (Path("real") / Path(out).relative_to("link") / "effective_config.json").is_file()


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc"])
def test_out_that_cannot_be_made_is_config_error(capsys, monkeypatch, command):
    # such as a full disk, found as the run's outputs are written
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), "out")

    def mkdir(self, *args, **kwargs):
        raise full
    monkeypatch.setattr(Path, "mkdir", mkdir)
    error = assert_rejected([command, "--config", "c.json", "--out", "out"],
                            {"c.json": json.dumps(MINIMAL).encode()}, capsys)
    assert error == {"code": 2, "error": f"io.out_dir: {full}", "path": "io.out_dir"}


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc"])
def test_unreadable_config_is_config_error(capsys, command):
    error = assert_rejected([command, "--config", "missing.json", "--out", "out"], {}, capsys)
    missing = OSError(errno.ENOENT, os.strerror(errno.ENOENT), "missing.json")
    assert error == {"code": 2, "error": f"cannot read config: {missing}", "path": ""}


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc"])
@pytest.mark.parametrize("out", ["locked", "locked/sub"])
def test_out_in_a_directory_it_cannot_write_is_config_error(tmp_path, capsys, monkeypatch,
                                                            command, out):
    # rejected before any series is drawn; os.access stands in for the
    # permission bits, which do not bind a process run as root
    locked = tmp_path / "locked"
    locked.mkdir()
    asked = []

    def access(path, mode):
        asked.append((Path(path), mode))
        return Path(path) != locked

    def no_draw(*args, **kwargs):
        raise AssertionError("drew a series before checking --out")
    monkeypatch.setattr(os, "access", access)
    monkeypatch.setattr("eigenwave.cli.draw_observation", no_draw)
    monkeypatch.setattr("eigenwave.cli.run_replications", no_draw)
    code, _, err = run([command, "--preset", "fig4", "--out", str(tmp_path / out)], capsys)
    assert code == 2, err
    assert json.loads(err) == {"code": 2, "error": f"io.out_dir: {locked} is not writable",
                               "path": "io.out_dir"}
    assert asked == [(locked, os.W_OK | os.X_OK)]
    assert not any(locked.iterdir())


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc"])
@pytest.mark.parametrize("j1, j2", [(4, 4), (5, 4)])
def test_octave_range_needs_two_octaves(capsys, command, j1, j2):
    config = json.dumps({**MINIMAL, "analysis": {"j1": j1, "j2": j2}}).encode()
    error = assert_rejected([command, "--config", "c.json", "--out", "out"],
                            {"c.json": config}, capsys)
    assert (error["code"], error["path"]) == (2, "analysis.j1")
    assert "two octaves" in error["error"]


@pytest.mark.parametrize("doc, path", [([1], "<root>"), ({**MINIMAL, "mc": 3}, "mc")])
def test_override_on_non_object_is_config_error(tmp_path, capsys, doc, path):
    code, _, err = run(["mc", "--config", write_config(tmp_path, doc), "--seed", "3",
                        "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert json.loads(err.strip())["path"] == path


@pytest.mark.parametrize("command", ["simulate", "mc"])
def test_missing_model_is_config_error(tmp_path, capsys, command):
    doc = {key: MINIMAL[key] for key in ("analysis", "mc")}
    out = tmp_path / "out"
    code, _, err = run([command, "--config", write_config(tmp_path, doc),
                        "--out", str(out)], capsys)
    assert code == 2, err
    assert json.loads(err.strip())["path"] == "model"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc"])
def test_model_without_p_or_ratio_is_config_error(tmp_path, capsys, command):
    doc = json.loads(json.dumps(MINIMAL))
    del doc["model"]["p"], doc["mc"]["ratio"]
    out = tmp_path / "out"
    code, _, err = run([command, "--config", write_config(tmp_path, doc),
                        "--out", str(out)], capsys)
    assert code == 2, err
    assert json.loads(err.strip())["path"] == "model.p"
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_mc_infeasible_octaves_give_the_hint(tmp_path, capsys, workers):
    assert_infeasible_creates_nothing(["mc", "--config", write_config(tmp_path, INFEASIBLE),
                                       "--workers", workers], tmp_path / "out", capsys)


def test_mc_rejects_analysis_r(tmp_path, capsys):
    doc = {**MINIMAL, "analysis": {**MINIMAL["analysis"], "r": 1}}
    out = tmp_path / "out"
    code, _, err = run(["mc", "--config", write_config(tmp_path, doc), "--out", str(out)],
                       capsys)
    assert code == 2, err
    msg = json.loads(err.strip())
    assert msg["path"] == "analysis.r"
    assert "applies to estimate only" in msg["error"]
    assert not out.exists()


# analysis.r = 9 contradicts the p = 4 series of this model, drawn or read
R_ABOVE_P = {**MINIMAL,
             "model": {**MINIMAL["model"], "r": 2, "hurst": [0.3, 0.7], "p": 4,
                       "noise": {"kind": "iid_gaussian"}},
             "analysis": {**MINIMAL["analysis"], "r": 9}}
R_ABOVE_P_ERROR = {"code": 2, "error": "analysis.r: 9 exceeds the series dimension p=4",
                   "path": "analysis.r"}


def test_estimate_rejects_r_above_the_drawn_p(capsys, monkeypatch):
    # rejected before the draw: p is the model's
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a series before checking analysis.r")
    monkeypatch.setattr("eigenwave.cli.draw_observation", no_draw)
    error = assert_rejected(["estimate", "--config", "c.json", "--out", "out"],
                            {"c.json": json.dumps(R_ABOVE_P).encode()}, capsys)
    assert error == R_ABOVE_P_ERROR


@pytest.mark.parametrize("suffix", ["csv", "bin"])
def test_estimate_rejects_r_above_the_read_p(tmp_path, capsys, monkeypatch, suffix):
    # rejected right after the read: p is the file's
    path = tmp_path / f"y.{suffix}"
    write = write_series_csv if suffix == "csv" else write_series_binary
    write(np.random.default_rng(3).standard_normal((4, 256)), path)

    def no_estimate(*args, **kwargs):
        raise AssertionError("estimated before checking analysis.r")
    monkeypatch.setattr("eigenwave.cli.estimate_series", no_estimate)
    files = {"c.json": json.dumps({"analysis": R_ABOVE_P["analysis"]}).encode(),
             path.name: path.read_bytes()}
    error = assert_rejected(["estimate", "--config", "c.json", "--data", path.name,
                             "--out", "out"], files, capsys)
    assert error == R_ABOVE_P_ERROR


def test_estimate_accepts_r_equal_to_p(tmp_path, capsys):
    doc = {**R_ABOVE_P, "analysis": {**R_ABOVE_P["analysis"], "r": 4}}
    out = tmp_path / "out"
    code, _, err = run(["estimate", "--config", write_config(tmp_path, doc),
                        "--out", str(out)], capsys)
    assert code == 0, err
    assert len(json.loads((out / "estimate.json").read_text())["h_hat"]) == 4


class TestEstimateData:
    @pytest.fixture()
    def series_path(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code, _, err = run(["simulate", "--config", write_config(tmp_path, MINIMAL),
                            "--out", str(out)], capsys)
        assert code == 0, err
        return out / "series_y.bin"

    def test_model_cross_field_rules_not_checked(self, tmp_path, capsys, series_path):
        bad = json.loads(json.dumps(MINIMAL))
        bad["model"]["hurst"] = [0.4, 0.6]  # two exponents for r = 1
        outs = []
        for name, doc in (("good", MINIMAL), ("bad", bad)):
            out = tmp_path / name
            cfg = write_config(tmp_path, doc, f"{name}.json")
            code, _, err = run(["estimate", "--config", cfg, "--data", str(series_path),
                                "--out", str(out)], capsys)
            assert code == 0, err
            outs.append((out / "estimate.json").read_bytes())
        assert outs[0] == outs[1]

    def test_analysis_section_is_enough(self, tmp_path, capsys, series_path):
        outs = []
        for name, doc in (("full", MINIMAL), ("analysis", {"analysis": MINIMAL["analysis"]})):
            out = tmp_path / name
            cfg = write_config(tmp_path, doc, f"{name}.json")
            code, _, err = run(["estimate", "--config", cfg, "--data", str(series_path),
                                "--out", str(out)], capsys)
            assert code == 0, err
            outs.append((out / "estimate.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("analysis", [{"family": "haar"}, {"n_vanishing": 2},
                                          {"n_vanishing": 6}])
    def test_csv_and_binary_give_the_same_bytes(self, tmp_path, capsys, analysis):
        # read_series_csv yields a column-major array, read_series_binary a
        # row-major one: the estimate must not depend on the layout.
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"].update({"r": 2, "hurst": [0.3, 0.8], "p": 6,
                             "mixing": {"kind": "random_unit_columns"},
                             "noise": {"kind": "arma", "ar": [0.6], "ma": [0.3]}})
        doc["analysis"].update(analysis)
        cfg = write_config(tmp_path, doc)
        sim = tmp_path / "sim"
        code, _, err = run(["simulate", "--config", cfg, "--out", str(sim)], capsys)
        assert code == 0, err
        assert not read_series_csv(sim / "series_y.csv").flags.c_contiguous
        outs = []
        for suffix in ("csv", "bin"):
            out = tmp_path / suffix
            code, _, err = run(["estimate", "--config", cfg, "--data",
                                str(sim / f"series_y.{suffix}"), "--out", str(out)], capsys)
            assert code == 0, err
            outs.append([(out / name).read_bytes() for name in ("estimate.json", "estimate.csv")])
        assert outs[0] == outs[1]

    def test_upper_case_csv_suffix_reads_as_csv(self, tmp_path, capsys, series_path):
        lower = series_path.with_suffix(".csv")
        upper = tmp_path / "Y.CSV"
        upper.write_bytes(lower.read_bytes())
        outs = []
        for name, data in (("lower", lower), ("upper", upper)):
            out = tmp_path / name
            code, _, err = run(["estimate", "--config", write_config(tmp_path, MINIMAL),
                                "--data", str(data), "--out", str(out)], capsys)
            assert code == 0, err
            outs.append([(out / f).read_bytes() for f in ("estimate.json", "estimate.csv")])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("suffix", ["csv", "bin"])
    @pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf],
                             ids=["finite", "nan", "+inf", "-inf"])
    def test_read_series_is_checked_once(self, tmp_path, capsys, monkeypatch, suffix, bad):
        # the readers only parse; estimate_series runs the finite rule once
        values = np.random.default_rng(4).standard_normal((2, 256))
        if bad is not None:
            values[1, 100] = bad
        path = tmp_path / f"y.{suffix}"
        (write_series_csv if suffix == "csv" else write_series_binary)(values, path)
        calls = []

        def spy(values):
            calls.append(values)
            return check_series(values)
        for module in (series_module, estimators, cli):
            monkeypatch.setattr(module, "check_series", spy)
        out = tmp_path / "out"
        code, _, err = run(["estimate", "--config", write_config(tmp_path, MINIMAL),
                            "--data", str(path), "--out", str(out)], capsys)
        assert len(calls) == 1
        if bad is None:
            assert code == 0, err
        else:
            assert (code, err) == (3, '{"code": 3, "error": "series contains non-finite '
                                      'entries"}\n')
            assert not out.exists()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run(["estimate", "--config", write_config(tmp_path, MINIMAL),
                            "--data", str(tmp_path / "missing.bin"), "--out", str(out)], capsys)
        assert code == 2
        assert "missing.bin" in json.loads(err.strip())["error"]
        assert not out.exists()

    def test_csv_row_of_the_wrong_width_is_numerical_error(self, tmp_path, capsys,
                                                           series_path):
        rows = series_path.with_suffix(".csv").read_text().splitlines()
        rows[5] += ",0.5"
        data = tmp_path / "y.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        code, _, err = run(["estimate", "--config", write_config(tmp_path, MINIMAL),
                            "--data", str(data), "--out", str(out)], capsys)
        assert code == 3, err
        assert json.loads(err.strip())["error"].endswith("row has 3 fields, expected 2")
        assert not out.exists()

    def test_trailing_byte_is_json_error(self, tmp_path, capsys, series_path):
        with open(series_path, "ab") as fh:
            fh.write(b"\0")
        code, _, err = run(["estimate", "--config", write_config(tmp_path, MINIMAL),
                            "--data", str(series_path), "--out", str(tmp_path / "o")], capsys)
        assert code == 3
        assert "header claims" in json.loads(err.strip())["error"]


class TestSharedDraw:
    def test_simulate_is_replication_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        out = tmp_path / "out"
        code, _, err = run(["simulate", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0, err
        observed = draw_observation(build_mc_config(resolve_config(MINIMAL)), 0)[0]
        assert read_series_binary(out / "series_y.bin").tobytes() == observed.tobytes()

    def test_estimate_draws_what_simulate_writes(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"].update({"r": 2, "hurst": [0.3, 0.8], "p": 4,
                             "mixing": {"kind": "random_unit_columns"},
                             "noise": {"kind": "iid_gaussian"}})
        cfg = write_config(tmp_path, doc)
        sim, drawn, read = (tmp_path / name for name in ("sim", "drawn", "read"))
        code, _, err = run(["simulate", "--config", cfg, "--out", str(sim)], capsys)
        assert code == 0, err
        code, _, err = run(["estimate", "--config", cfg, "--out", str(drawn)], capsys)
        assert code == 0, err
        code, _, err = run(["estimate", "--config", cfg, "--data", str(sim / "series_y.bin"),
                            "--out", str(read)], capsys)
        assert code == 0, err
        assert (drawn / "estimate.json").read_bytes() == (read / "estimate.json").read_bytes()


def run_cli_process(argv, cwd, cache):
    """`python -m eigenwave.cli argv` in cwd with XDG_CACHE_HOME=cache;
    returns the exit code, stderr and every output file's bytes."""
    env = {**os.environ, "XDG_CACHE_HOME": str(cache),
           "PYTHONPATH": str(Path(eigenwave.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "eigenwave.cli", *argv, "--out", "out"],
                          cwd=cwd, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stderr, output_files(cwd / "out")


def output_files(out):
    return {path.relative_to(out): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


class TestRootCache:
    """The embedding root's cache on disk changes no output byte, no stderr
    byte and no exit code, whether it is cold, warm or unusable."""

    def test_a_cache_home_that_is_a_file_changes_nothing(self, tmp_path):
        runs = {name: tmp_path / name for name in ("cold", "warm", "unusable")}
        for run_dir in runs.values():
            run_dir.mkdir()
        (tmp_path / "a-file").write_text("x")
        argv = ["simulate", "--preset", "fig4"]
        results = [run_cli_process(argv, runs["cold"], tmp_path / "cache"),
                   run_cli_process(argv, runs["warm"], tmp_path / "cache"),
                   run_cli_process(argv, runs["unusable"], tmp_path / "a-file")]
        assert len(list((tmp_path / "cache/eigenwave").iterdir())) == 1
        for code, stderr, files in results:
            assert (code, stderr) == (0, b"")
            assert files == results[0][2] and files
        assert (tmp_path / "a-file").read_text() == "x"

    def test_pool_workers_on_a_cold_cache_leave_one_entry(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        _embedding_root.cache_clear()  # the study must not find a root in memory
        argv = ["mc", "--preset", "fig4", "--reps", "4", "--seed", "41"]
        code, _, err = run([*argv, "--workers", "2", "--out", str(tmp_path / "w2")], capsys)
        assert code == 0, err
        [path] = (tmp_path / "cache/eigenwave").iterdir()
        with np.load(path) as stored:
            key = str(stored["key"])
        model = build_mc_config(resolve_config(preset_config("fig4"))).model
        half, clip_energy = _factor_embedding_root(model.hurst, model.point_cov.tobytes(),
                                                   4096)
        stored_half, stored_clip = rootcache.load(str(path), key, (4097, 3, 3))
        assert stored_half.tobytes() == half.tobytes() and stored_clip == clip_energy
        code, _, err = run([*argv, "--workers", "1", "--out", str(tmp_path / "w1")], capsys)
        assert code == 0, err
        _embedding_root.cache_clear()
        for name in ("records.ndjson", "summary.json"):
            assert (tmp_path / "w2" / name).read_bytes() == (tmp_path / "w1" / name).read_bytes()


# Models whose numbers overflow: the noise's ARMA filter, the embedding's
# rfft on a cold root cache, and the octave covariances. The finite check on
# Y or on the covariances ends each run in exit 3, and numpy's warnings, the
# the study threads' included, stay off stderr. The 1e308-variance noise itself
# is finite, so simulate writes its Y.
COVARIANCE_OVERFLOW = ("covariance at octave {} is not finite: the detail "
                       "coefficients' second moments overflow float64")
OVERFLOWING = {
    "arma-noise": ({"noise": {"kind": "arma", "variance": 1e300, "ma": [1e300]}},
                   "series contains non-finite entries"),
    "point-cov": ({"point_cov": [[1e307, 0], [0, 1e307]], "noise": {"kind": "none"}},
                  "series contains non-finite entries"),
    "iid-noise": ({"noise": {"kind": "iid_gaussian", "variance": 1e308}},
                  COVARIANCE_OVERFLOW.format(2)),
}


def overflowing_config(model):
    return {"model": {"r": 2, "hurst": [0.3, 0.7], "mixing": {"kind": "random_unit_columns"},
                      "n": 1024, "p": 4, **model},
            "analysis": {"j1": 2, "j2": 5}, "mc": {"replications": 4}}


@pytest.mark.parametrize("argv", [["simulate"], ["estimate"], ["mc"], ["mc", "--workers", "2"]],
                         ids=["simulate", "estimate", "mc", "mc-w2"])
@pytest.mark.parametrize("case", OVERFLOWING)
def test_overflow_ends_in_one_json_line(tmp_path, case, argv):
    model, message = OVERFLOWING[case]
    write_config(tmp_path, overflowing_config(model))
    code, stderr, files = run_cli_process([*argv, "--config", "config.json"], tmp_path,
                                          tmp_path / "cache")
    if case == "iid-noise" and argv == ["simulate"]:
        assert (code, stderr) == (0, b"")
        assert Path("series_y.csv") in files
        return
    assert code == 3, stderr
    assert json.loads(stderr) == {"code": 3, "error": message}
    # a run that fails in its work leaves no output directory behind
    assert not (tmp_path / "out").exists() and not files


@pytest.mark.parametrize("argv", [["estimate"], ["mc"], ["mc", "--workers", "2"]],
                         ids=["estimate", "mc", "mc-w2"])
def test_overflowing_covariance_is_numerical_error(tmp_path, capsys, argv):
    # Y is finite, but D D^T / n_j at octave 4 is not; its eigenvalues
    # would be NaN, which no floor flags
    doc = preset_config("fig4")
    doc["model"]["noise"] = {"kind": "iid_gaussian", "variance": 1e308}
    doc["mc"]["replications"] = 4
    out = tmp_path / "out"
    code, _, err = run([*argv, "--config", write_config(tmp_path, doc), "--out", str(out)],
                       capsys)
    assert code == 3, err
    assert json.loads(err) == {"code": 3, "error": COVARIANCE_OVERFLOW.format(4)}
    assert not out.exists()


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, expected", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"]),
])
def test_import_runs_blas_on_one_thread_unless_set(preset, expected):
    env = {key: value for key, value in os.environ.items()
           if key not in BLAS_THREAD_VARIABLES}
    env.update(preset, PYTHONPATH=str(Path(eigenwave.__file__).parent.parent))
    script = ("import os, eigenwave; "
              f"print(*(os.environ.get(key) for key in {BLAS_THREAD_VARIABLES!r}))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == expected


class TestPresets:
    @pytest.mark.parametrize("name", ["fig1", "fig3", "fig4"])
    def test_presets_resolve(self, name):
        cfg = resolve_config(preset_config(name))
        assert cfg["mc"]["replications"] == 5000
        assert cfg["analysis"]["family"] == "daubechies"

    def test_fig4_parameters(self):
        cfg = resolve_config(preset_config("fig4"))
        assert cfg["model"]["hurst"] == [0.25, 0.5, 0.75]
        assert cfg["model"]["n"] == 4096
        assert (cfg["analysis"]["j1"], cfg["analysis"]["j2"]) == (4, 6)
        assert cfg["mc"]["ratio"] == 0.5

    def test_unknown_preset(self, tmp_path, capsys, monkeypatch):
        # argparse rejections end like every other rejected input
        monkeypatch.chdir(tmp_path)
        for argv, error in (
                (["mc", "--preset", "fig9"], "argument --preset: invalid choice: 'fig9'"),
                (["mc", "--preset", "fig4", "--reps", "abc"],
                 "argument --reps: invalid int value: 'abc'"),
                (["mc", "--preset", "fig4", "--bogus"], "unrecognized arguments: --bogus"),
                ([], "the following arguments are required: command")):
            code, _, err = run(argv, capsys)
            assert code == 2, err
            assert err.count("\n") == 1
            msg = json.loads(err)
            assert msg["code"] == 2 and msg["path"] == ""
            assert msg["error"].startswith(error)
        assert not any(tmp_path.iterdir())


class TestResolveConfig:
    def test_defaults(self):
        doc = {"model": {"r": 1, "hurst": [0.5], "n": 1024}, "analysis": {"j1": 2, "j2": 5}}
        assert resolve_config(doc) == {
            "model": {
                "r": 1, "hurst": [0.5], "n": 1024,
                "mixing": {"kind": "canonical"},
                "noise": {"kind": "iid_gaussian", "variance": 1.0},
            },
            "analysis": {
                "j1": 2, "j2": 5,
                "family": "daubechies",
                "n_vanishing": 2,
                "weights": "count",
                "eigen_floor": 1e-10,
                "kappa": 0.3,
                "kappa_grid": [round(0.025 * k, 6) for k in range(1, 40)],
                "r": None,
            },
            "mc": {"replications": 100, "master_seed": 0},
            "io": {"out_dir": "out", "formats": ["csv"], "components": False,
                   "ks_subsets": False},
        }

    def test_haar_resolves_to_one_vanishing_moment(self):
        analysis = resolve_config({"analysis": {"j1": 2, "j2": 5, "family": "haar"}})["analysis"]
        assert analysis["n_vanishing"] == 1
        daubechies = {"j1": 2, "j2": 5, "family": "daubechies", "n_vanishing": 4}
        assert resolve_config({"analysis": daubechies})["analysis"]["n_vanishing"] == 4

    @pytest.mark.parametrize("section, key, value", [
        ("analysis", "j2", "5.0"), ("analysis", "n_vanishing", "2.0"),
        ("mc", "replications", "3.0"), ("mc", "master_seed", "7.0"),
        ("model", "r", "1.0"), ("model", "p", "true"),
        ("mc", "ratio", "1e400"),
        pytest.param("mc", "ratio", "1" + "0" * 400, id="mc-ratio-10**400"),
        ("model", "hurst", "[-1e999]")])
    def test_integers_are_true_integers_and_numbers_finite(self, section, key, value):
        # the values as json.load reads them: 1e400 overflows to a float inf
        doc = json.loads(json.dumps(MINIMAL))
        doc[section][key] = json.loads(value)
        with pytest.raises(ConfigError) as err:
            resolve_config(doc)
        assert err.value.path.startswith(f"{section}.{key}")

    def test_haar_rejects_other_vanishing_moments(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"analysis": {"j1": 2, "j2": 5, "family": "haar", "n_vanishing": 4}})
        assert err.value.path == "analysis.n_vanishing"


def assert_rejected(argv, files, capsys):
    """main, run in an empty directory holding only `files` (bytes, or a Path
    for a symbolic link to it), rejects argv with exit 2 or 3 and a single
    JSON line on stderr, and writes nothing; an exception escaping main
    fails the test. Returns the error line."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, data in files.items():
            if isinstance(data, Path):
                os.symlink(data, name)
            else:
                Path(name).write_bytes(data)
        code, _, err = run(argv, capsys)
        left = sorted(os.listdir())
    assert code in (2, 3), err
    assert err.count("\n") == 1, err
    assert json.loads(err)["code"] == code
    assert left == sorted(files)
    return json.loads(err)


def _paths(doc, prefix=()):
    """The path of every key and list entry in a JSON document."""
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


MINIMAL_PATHS = list(_paths(MINIMAL))
REQUIRED = [("analysis",), ("analysis", "j1"), ("analysis", "j2"), ("model",),
            ("model", "r"), ("model", "hurst"), ("model", "n"),
            ("model", "mixing", "kind"), ("model", "noise", "kind")]


def _wrong_values(value):
    """Values the loader or the schema rejects wherever `value` stands in
    MINIMAL; NaN and Infinity are written as their non-standard constants."""
    wrong = [[{}], float("nan"), float("-inf")]
    if not isinstance(value, str):
        wrong.append("1")
    if not isinstance(value, bool):
        wrong.append(True)
    if isinstance(value, int) and not isinstance(value, bool):
        wrong.append(float(value))
    return wrong


@st.composite
def broken_configs(draw):
    """Config file bytes that break MINIMAL in one way, or arbitrary bytes."""
    kind = draw(st.sampled_from(["replace", "unknown key", "drop", "truncate", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    doc = json.loads(json.dumps(MINIMAL))
    if kind == "replace":
        *parent, key = draw(st.sampled_from(MINIMAL_PATHS))
        target = _at(doc, parent)
        target[key] = draw(st.sampled_from(_wrong_values(target[key])))
    elif kind == "unknown key":
        objects = [()] + [path for path in MINIMAL_PATHS if isinstance(_at(MINIMAL, path), dict)]
        _at(doc, draw(st.sampled_from(objects)))["typo_" + draw(st.text())] = 1
    elif kind == "drop":
        *parent, key = draw(st.sampled_from(REQUIRED))
        del _at(doc, parent)[key]
    text = json.dumps(doc).encode()
    if kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


MINIMAL_TEXT = json.dumps(MINIMAL)
FUZZ = settings(max_examples=80, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("command", ["simulate", "estimate", "mc"])
@FUZZ
@given(config=broken_configs())
@example(config=MINIMAL_TEXT.replace('"n": 1024', '"n": 1024.0').encode())
@example(config=MINIMAL_TEXT.replace('"ratio": 1.0', '"ratio": Infinity').encode())
@example(config=MINIMAL_TEXT.replace('"j2": 5', '"j2": 5.0')
         .replace('"replications": 4', '"replications": 3.0').encode())
@example(config=MINIMAL_TEXT.replace('{"kind": "none"}',
                                     '{"kind": "iid_gaussian", "variance": Infinity}').encode())
@example(config=MINIMAL_TEXT.replace('"j1": 2', '"j1": 2, "n_vanishing": 2.0').encode())
@example(config=MINIMAL_TEXT.replace('[0.5]', '[NaN]').encode())
@example(config=MINIMAL_TEXT.replace('"ratio": 1.0', '"ratio": 1e400').encode())
@example(config=b"[" * 100_000)
@example(config=b"\xff")
def test_rejected_config_ends_in_one_json_line(capsys, command, config):
    assert_rejected([command, "--config", "c.json"], {"c.json": config}, capsys)


def _series_bytes(writer):
    series = np.arange(16.0).reshape(2, 8) / 7.0
    with tempfile.TemporaryDirectory() as tmp:
        writer(series, Path(tmp) / "y")
        return (Path(tmp) / "y").read_bytes()


@st.composite
def mutated(draw, data):
    """data with one byte replaced, cut short, or extended."""
    i = draw(st.integers(0, len(data) - 1))
    return draw(st.sampled_from([
        data[:i] + bytes([draw(st.integers(0, 255))]) + data[i + 1:],
        data[:i],
        data + draw(st.binary(min_size=1, max_size=64)),
    ]))


# Every readable series below is far too short to reach octave 12, so each
# example is rejected: by the reader, or by the octave-range rule.
DATA_CONFIG = json.dumps({"analysis": {"j1": 1, "j2": 12}}).encode()


@FUZZ
@given(name=st.sampled_from(["y.csv", "y.bin"]),
       data=st.one_of(st.binary(max_size=2048),
                      mutated(_series_bytes(write_series_binary)),
                      mutated(_series_bytes(write_series_csv))))
@example(name="y.csv", data=b"t,y_1\n0,nan\n")
@example(name="y.csv", data=b"t,y_1\n0,\xff\n")
@example(name="y.bin", data=b"MVS1" + bytes(12))
def test_rejected_data_ends_in_one_json_line(capsys, name, data):
    assert_rejected(["estimate", "--config", "c.json", "--data", name],
                    {"c.json": DATA_CONFIG, name: data}, capsys)


def _rejects(convert, valid=lambda value: True):
    """Flag values argparse cannot convert, or whose value the schema rejects."""
    def rejected(text):
        try:
            return not valid(convert(text))
        except ValueError:
            return True
    return st.text().filter(rejected)


BREAKERS = st.one_of(
    st.tuples(st.just("--reps"), _rejects(int, lambda v: v >= 1)),
    st.tuples(st.just("--seed"), _rejects(int, lambda v: v >= 0)),
    st.tuples(st.just("--workers"), _rejects(int, lambda v: v >= 1)),
    st.tuples(st.just("--kappa"), _rejects(float, lambda v: np.isfinite(v) and v > 0)),
    st.tuples(st.just("--preset"), st.text().filter(lambda t: t not in PRESETS)),
    st.tuples(st.just("--config"), st.just("missing.json")),
    st.tuples(st.just("--data"), st.just("missing.bin")),
    st.tuples(st.just("--out"), st.just("")),
    st.tuples(st.text().map(lambda t: "--no-such-" + t)),
    st.tuples(st.text(min_size=1).filter(lambda t: not t.startswith("-"))),
)
COMMANDS = [[], ["simulate", "--preset", "fig4"], ["estimate", "--preset", "fig4"],
            ["mc", "--preset", "fig4", "--reps", "2"]]


@FUZZ
@given(argv=st.tuples(st.sampled_from(COMMANDS), BREAKERS).map(lambda t: [*t[0], *t[1]]))
@example(argv=["mc", "--preset", "fig4", "--reps", "abc"])
@example(argv=["mc", "--preset", "fig9"])
@example(argv=["mc", "--preset", "fig4", "--bogus"])
@example(argv=[])
@example(argv=["estimate", "--preset", "fig4", "--kappa", "nan"])
def test_rejected_argv_ends_in_one_json_line(capsys, argv):
    assert_rejected(argv, {}, capsys)


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "fig4", "--reps", "3"],
    ["estimate", "--preset", "fig4", "--workers", "2"],
    ["mc", "--preset", "fig4", "--data", "x.bin"],
])
def test_flag_of_another_command_is_rejected(capsys, argv):
    error = assert_rejected(argv, {}, capsys)
    assert error["code"] == 2
    assert error["error"] == f"unrecognized arguments: {' '.join(argv[-2:])}"


# The config walker against jsonschema, which it replaced and which stays a
# test-only oracle, with the same integer and number rules restated: every
# rejected config keeps the path and message jsonschema gave it. The bounds
# keep jsonschema's own number type, which admits integers of any size.
DRAFT = jsonschema.Draft202012Validator
PLAIN = DRAFT({})


def _bound(keyword):
    check = DRAFT.VALIDATORS[keyword]
    return lambda validator, arg, value, rule: check(PLAIN, arg, value, rule)


ORACLE = jsonschema.validators.extend(
    DRAFT,
    validators={keyword: _bound(keyword) for keyword in
                ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")},
    type_checker=DRAFT.TYPE_CHECKER.redefine_many({
        "integer": lambda checker, x: type(x) is int,
        "number": lambda checker, x: type(x) in (int, float) and abs(x) <= sys.float_info.max,
    }),
)(SCHEMA)

ARMA_WIDE = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench/workloads/arma-wide.json").read_text())
BASES = [*PRESETS.values(), ARMA_WIDE]


def oracle_first(doc):
    """(path, message) of the error jsonschema reports first, or None."""
    errors = sorted(ORACLE.iter_errors(doc), key=lambda e: list(e.absolute_path))
    return (tuple(errors[0].absolute_path), errors[0].message) if errors else None


def walker_first(doc):
    errors = sorted(config._errors(doc, SCHEMA), key=lambda error: error[0])
    return errors[0] if errors else None


def _rules(rule):
    """Every rule in SCHEMA, into properties, items and oneOf branches."""
    yield rule
    for sub in [*rule.get("properties", {}).values(), *rule.get("oneOf", [])]:
        yield from _rules(sub)
    if "items" in rule:
        yield from _rules(rule["items"])


KEYS = sorted({name for rule in _rules(SCHEMA) for name in rule.get("properties", {})})
ENUMS = sorted({member for rule in _rules(SCHEMA) for member in rule.get("enum", [])})
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2 ** 17), st.sampled_from([10 ** 400, -10 ** 400]),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([0.0, 0.5, 0.9, 1.0, 1024.0]),
    st.sampled_from(ENUMS), st.text(max_size=3))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(KEYS + ["x"]), inner, max_size=2)),
    max_leaves=6)


@st.composite
def mutated_configs(draw):
    """A preset or the arma-wide workload with one to three values replaced,
    keys deleted or keys added; or a value that is not an object at all."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["replace", "replace", "replace", "delete", "add", "root"]))
        paths = list(_paths(doc)) if isinstance(doc, (dict, list)) else []
        if kind == "root" or not paths:
            return draw(st.one_of(VALUES, st.just([doc])))
        if kind == "add":
            objects = [()] + [path for path in paths if isinstance(_at(doc, path), dict)]
            key = draw(st.one_of(st.sampled_from(KEYS), st.text(max_size=4)))
            _at(doc, draw(st.sampled_from(objects)))[key] = draw(VALUES)
            continue
        *parent, key = draw(st.sampled_from(paths))
        if kind == "delete":
            del _at(doc, parent)[key]
        else:
            _at(doc, parent)[key] = draw(VALUES)
    return doc


def _preset_with(path, value, base="fig4"):
    """A preset with the value at path replaced, or deleted for KeyError."""
    doc = copy.deepcopy(PRESETS[base])
    *parent, key = path
    if value is KeyError:
        del _at(doc, parent)[key]
    else:
        _at(doc, parent)[key] = value
    return doc


UNKNOWN_BESIDE_MISSING = _preset_with(("model", "n"), KeyError)
UNKNOWN_BESIDE_MISSING["model"]["x"] = 1


@settings(max_examples=400, deadline=None)
@given(doc=mutated_configs())
def test_walker_reports_what_jsonschema_reports(doc):
    assert walker_first(doc) == oracle_first(doc)


@pytest.mark.parametrize("doc, error", [
    (_preset_with(("model", "n"), 1024.0), "model.n: 1024.0 is not of type 'integer'"),
    (_preset_with(("model", "n"), float("nan")), "model.n: nan is not of type 'integer'"),
    (_preset_with(("model", "r"), True), "model.r: True is not of type 'integer'"),
    (_preset_with(("mc", "ratio"), 1e400), "mc.ratio: inf is not of type 'number'"),
    (_preset_with(("analysis", "kappa"), float("-inf")),
     "analysis.kappa: -inf is not of type 'number'"),
    (_preset_with(("model", "hurst", 0), 1.0),
     "model.hurst.0: 1.0 is greater than or equal to the maximum of 1"),
    (_preset_with(("analysis", "kappa_grid"), []), "analysis.kappa_grid: [] should be non-empty"),
    (_preset_with(("analysis", "j1"), 0), "analysis.j1: 0 is less than the minimum of 1"),
    (_preset_with(("model", "n"), 2 ** 1100),
     f"model.n: {2 ** 1100} is greater than the maximum of {2 ** 32}"),
    (_preset_with(("model", "n"), -10 ** 400),
     f"model.n: {-10 ** 400} is less than the minimum of 4"),
    (_preset_with(("model", "point_cov"), "x"),
     "model.point_cov: 'x' is not valid under any of the given schemas"),
    (_preset_with(("model", "point_cov"), {"toeplitz": [1.0], "x": 1}, base="fig1"),
     "model.point_cov: {'toeplitz': [1.0], 'x': 1} is not valid under any of the given schemas"),
    (_preset_with(("mc", "x"), 1),
     "mc: Additional properties are not allowed ('x' was unexpected)"),
    (_preset_with(("model", "n"), KeyError), "model: 'n' is a required property"),
    (UNKNOWN_BESIDE_MISSING, "model: Additional properties are not allowed ('x' was unexpected)"),
])
def test_rejection_keeps_its_path_and_message(doc, error):
    with pytest.raises(ConfigError) as err:
        resolve_config(doc)
    assert (err.value.path, str(err.value)) == (error.split(":")[0], error)
    path, message = oracle_first(doc)
    assert error == f"{'.'.join(map(str, path))}: {message}"


def test_schema_uses_only_keywords_the_walker_implements():
    # a keyword the walker lacks raises instead of being skipped
    for rule in _rules(SCHEMA):
        for key, arg in rule.items():
            for probe in (None, 0, "", [], {}):
                list(config._errors(probe, {key: arg}))
        # `in` is JSON equality only for strings: it takes True for 1
        assert all(isinstance(member, str) for member in rule.get("enum", []))
        # branches of distinct types: no value is valid under two of them,
        # so the walker has only the "not valid under any" case of oneOf
        types = [branch["type"] for branch in rule.get("oneOf", [])]
        assert all(isinstance(name, str) for name in types)
        assert len(set(types)) == len(types)


@pytest.mark.parametrize("rule", [{"pattern": "^a"}, {"maxItems": 2},
                                  {"additionalProperties": {"type": "number"}}])
def test_walker_rejects_a_keyword_it_does_not_implement(rule):
    with pytest.raises(ValueError, match="unsupported keyword"):
        list(config._errors({}, rule))


def test_import_loads_no_module_only_the_root_cache_needs():
    # numpy itself loads zipfile and tempfile
    script = ("import sys, eigenwave.cli\n"
              "print('eigenwave.rootcache' in sys.modules or 'hashlib' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(eigenwave.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_config_loads_neither_the_study_harness_nor_its_statistics():
    script = ("import sys, eigenwave.config\n"
              "print(*(name for name in ('eigenwave.montecarlo', 'eigenwave.special')\n"
              "        if name in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(eigenwave.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "\n"), proc.stderr


def test_cli_loads_neither_jsonschema_nor_the_process_pool(tmp_path):
    # a study on two workers runs them as threads of this process
    script = (
        "import sys\n"
        "import eigenwave.cli\n"
        "from eigenwave.config import PRESETS, build_mc_config, preset_config, resolve_config\n"
        "for name in PRESETS:\n"
        "    build_mc_config(resolve_config(preset_config(name)))\n"
        "code = eigenwave.cli.main(['mc', '--preset', 'fig4', '--reps', '4', '--workers', '2',\n"
        "                           '--out', 'out'])\n"
        "loaded = ('jsonschema', 'multiprocessing', 'concurrent.futures.process')\n"
        "print(code, *(name for name in loaded if name in sys.modules))\n"
    )
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
           "PYTHONPATH": str(Path(eigenwave.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
    assert (tmp_path / "out/records.ndjson").read_text().count("\n") == 4


def test_an_interrupted_study_stops_at_once_and_leaves_nothing(tmp_path):
    # Executor.map cancels the replications not yet started when the main
    # thread raises, so Ctrl-C does not drain the study first
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "cache"),
           "PYTHONPATH": str(Path(eigenwave.__file__).parent.parent)}
    proc = subprocess.Popen([sys.executable, "-m", "eigenwave.cli", "mc", "--preset", "fig1",
                             "--reps", "400", "--workers", "2", "--out", "out"],
                            cwd=tmp_path, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    time.sleep(2.0)
    assert proc.poll() is None, "the study ended before the interrupt"
    os.killpg(proc.pid, signal.SIGINT)
    interrupted = time.monotonic()
    try:
        _, stderr = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert time.monotonic() - interrupted < 10
    assert proc.returncode == -signal.SIGINT
    assert b"KeyboardInterrupt" in stderr
    assert not (tmp_path / "out").exists()
    with pytest.raises(ProcessLookupError):  # nothing is left in its process group
        os.killpg(proc.pid, 0)
