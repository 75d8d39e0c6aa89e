import json

import numpy as np
import pytest

from eigenwave.cli import main
from eigenwave.config import ConfigError, build_mc_config, preset_config, resolve_config
from eigenwave.montecarlo import draw_observation
from eigenwave.series import read_series_binary, read_series_csv

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


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert (series.p, series.n) == (1, 1024)
        binary = read_series_binary(out / "series_y.bin")
        np.testing.assert_allclose(binary.values, series.values, atol=1e-12)

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

    def test_p_below_r_is_config_error(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MINIMAL))
        doc["model"].update({"r": 2, "hurst": [0.4, 0.6], "p": 1})
        cfg = write_config(tmp_path, doc)
        code, _, err = run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        doc = json.loads(err.strip())
        assert doc["code"] == 2
        assert "model.p" in doc["path"]

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
        y = read_series_binary(data).values[0]
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
        doc = json.loads(json.dumps(MINIMAL))
        doc["analysis"] = {"j1": 2, "j2": 12}
        cfg = write_config(tmp_path, doc)
        code, _, err = run(["estimate", "--config", cfg, "--out", str(tmp_path / "o")], capsys)
        assert code == 3
        msg = json.loads(err.strip())
        assert msg["code"] == 3
        assert "last feasible" in msg["error"]


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


# Each entry breaks one model rule and names the config path that reports it.
INVALID_MODELS = {
    "non-unit explicit columns": (
        {"p": 2, "mixing": {"kind": "explicit", "matrix": [[1.0], [1.0]]}},
        "model.mixing.matrix"),
    "explicit column count": (
        {"p": 2, "mixing": {"kind": "explicit", "matrix": [[1.0, 0.0], [0.0, 1.0]]}},
        "model.mixing.matrix"),
    "explicit without matrix": ({"p": 2, "mixing": {"kind": "explicit"}}, "model.mixing"),
    "canonical with matrix": (
        {"mixing": {"kind": "canonical", "matrix": [[1.0]]}}, "model.mixing.matrix"),
    "decreasing hurst": ({"r": 2, "hurst": [0.6, 0.4], "p": 2}, "model"),
    "non-PSD point_cov": (
        {"r": 2, "hurst": [0.4, 0.6], "p": 2, "point_cov": [[1.0, 2.0], [2.0, 1.0]]},
        "model"),
    "point_cov shape": ({"point_cov": [[1.0, 0.0], [0.0, 1.0]]}, "model.point_cov"),
    "ar under iid noise": (
        {"noise": {"kind": "iid_gaussian", "ar": [0.5]}}, "model.noise"),
    "nonstationary AR": ({"noise": {"kind": "arma", "ar": [1.5]}}, "model.noise"),
    "hurst count": ({"hurst": [0.4, 0.6]}, "model.hurst"),
    "n not a power of two": ({"n": 1000}, "model.n"),
}


@pytest.mark.parametrize("command", ["simulate", "mc"])
@pytest.mark.parametrize("case", sorted(INVALID_MODELS))
def test_invalid_model_is_config_error(tmp_path, capsys, command, case):
    update, path = INVALID_MODELS[case]
    doc = json.loads(json.dumps(MINIMAL))
    doc["model"].update(update)
    out = tmp_path / "out"
    code, _, err = run([command, "--config", write_config(tmp_path, doc),
                        "--out", str(out)], capsys)
    assert code == 2, err
    assert json.loads(err.strip())["path"] == path
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "mc"])
def test_ratio_derived_p_below_r_is_config_error(tmp_path, capsys, command):
    doc = json.loads(json.dumps(MINIMAL))
    del doc["model"]["p"]
    doc["model"].update({"r": 3, "hurst": [0.2, 0.5, 0.8]})
    doc["analysis"] = {"j1": 2, "j2": 8}
    doc["mc"]["ratio"] = 0.25  # p = round(0.25 * 1024 / 2^8) = 1
    out = tmp_path / "out"
    code, _, err = run([command, "--config", write_config(tmp_path, doc),
                        "--out", str(out)], capsys)
    assert code == 2, err
    assert json.loads(err.strip())["path"] == "model.p"
    assert not out.exists()


# Each override flag writes one config key and is checked like that key.
BAD_OVERRIDES = [
    ("mc", "--reps", "0", "mc.replications"),
    ("mc", "--seed", "-1", "mc.master_seed"),
    ("estimate", "--kappa", "0", "analysis.kappa"),
    ("estimate", "--kappa", "-1", "analysis.kappa"),
    ("estimate", "--out", "", "io.out_dir"),
]


@pytest.mark.parametrize("command, flag, value, path", BAD_OVERRIDES)
def test_bad_override_is_config_error(tmp_path, capsys, monkeypatch, command, flag, value, path):
    monkeypatch.chdir(tmp_path)
    code, _, err = run([command, "--preset", "fig4", "--out", "out", flag, value], capsys)
    assert code == 2, err
    assert json.loads(err.strip())["path"] == path
    assert not any(tmp_path.iterdir())


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_mc_infeasible_octaves_give_the_hint(tmp_path, capsys, workers):
    doc = json.loads(json.dumps(MINIMAL))
    doc["analysis"] = {"j1": 2, "j2": 12}
    code, _, err = run(["mc", "--config", write_config(tmp_path, doc),
                        "--workers", workers, "--out", str(tmp_path / "out")], capsys)
    assert code == 3
    assert "(reduce analysis.j2 to " in json.loads(err.strip())["error"]


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

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, err = run(["estimate", "--config", write_config(tmp_path, MINIMAL),
                            "--data", str(tmp_path / "missing.bin"), "--out", str(out)], capsys)
        assert code == 2
        assert "missing.bin" in json.loads(err.strip())["error"]
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
        assert read_series_binary(out / "series_y.bin").values.tobytes() == observed.values.tobytes()

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

    def test_unknown_preset(self, capsys):
        # argparse rejects the choice itself, also with exit status 2
        with pytest.raises(SystemExit) as err:
            main(["mc", "--preset", "fig9"])
        assert err.value.code == 2


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

    def test_haar_rejects_other_vanishing_moments(self):
        with pytest.raises(ConfigError) as err:
            resolve_config({"analysis": {"j1": 2, "j2": 5, "family": "haar", "n_vanishing": 4}})
        assert err.value.path == "analysis.n_vanishing"
