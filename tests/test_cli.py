import csv
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from spikestag import cli
from spikestag.checkpoint import load_model
from spikestag.data import SeriesDataset, load_csv, make_windows, synth_generate
from spikestag.model import ForecastModel, ModelConfig

from test_data import save_csv

# a model small enough that one train run takes a fraction of a second
TINY_FLAGS = ["--nodes", "4", "--input-len", "4", "--horizon", "2", "--emb-dim", "4",
              "--d1", "4", "--d2", "4", "--h-dim", "4", "--d-k", "4", "--ts", "2",
              "--batch-size", "2", "--max-batches", "1", "--synth-steps", "60"]


def read_run_config(outdir) -> dict:
    """Non-comment `key = value` lines of run_config.txt, values as text."""
    pairs = {}
    for line in (outdir / "run_config.txt").read_text().splitlines():
        if line and not line.startswith("#"):
            key, _, val = line.partition("=")
            pairs[key.strip()] = val.strip()
    return pairs


def run_train(tmp_path, name, *flags) -> dict:
    out = tmp_path / name
    assert cli.main(["train", *TINY_FLAGS, "--out", str(out), *flags]) == 0
    return read_run_config(out)


def write_config(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return str(path)


def test_explicit_flag_equal_to_default_beats_file(tmp_path):
    assert ModelConfig().epochs == 6
    cfg = write_config(tmp_path, "epochs = 3\n")
    got = run_train(tmp_path, "run", "--config", cfg, "--epochs", "6")
    assert got["epochs"] == "6"


def test_flag_overrides_a_file_value_that_alone_is_invalid(tmp_path):
    # file and flags merge before the config is checked, so the file's ts = 0
    # never stands on its own
    cfg = write_config(tmp_path, "ts = 0\n")
    got = run_train(tmp_path, "run", "--config", cfg, "--ts", "4")
    assert got["ts"] == "4"


def test_file_value_holds_without_flag(tmp_path):
    cfg = write_config(tmp_path, "epochs = 1\nseed = 3\nlr = 0.002\n")
    got = run_train(tmp_path, "run", "--config", cfg)
    assert (got["epochs"], got["seed"], got["lr"]) == ("1", "3", "0.002")


def test_unknown_file_key_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "epochs = 1\nnot_a_field = 3\n")
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert "unknown config key 'not_a_field'" in capsys.readouterr().err


def test_run_config_reproduces_config(tmp_path):
    first = run_train(tmp_path, "first", "--epochs", "1", "--lr", "0.003", "--seed", "16777217")
    assert first.keys() == asdict(ModelConfig()).keys()
    second = run_train(tmp_path, "second", "--config", str(tmp_path / "first" / "run_config.txt"))
    assert second == first
    assert (tmp_path / "first" / "run_config.txt").read_text().startswith("# data = synthetic")


def half_hourly_csv(path):
    """A four-node series sampled every 30 minutes."""
    ds = synth_generate(4, 60, 1)
    times = ds.timestamps[0] + np.arange(60) * np.timedelta64(1800, "s")
    save_csv(SeriesDataset(times, ds.values, 1800, ds.node_names), path)
    return str(path)


def test_minute_covariate_follows_the_data(tmp_path, capsys):
    cfg = write_config(tmp_path, "minute_covariate = true\n")
    assert run_train(tmp_path, "hourly", "--config", cfg)["minute_covariate"] == "False"
    assert "cov/minute" not in load_model(tmp_path / "hourly" / "checkpoint.stag").parameters()

    csv_path = half_hourly_csv(tmp_path / "half_hourly.csv")
    cfg = write_config(tmp_path, "minute_covariate = false\n")
    got = run_train(tmp_path, "half_hourly", "--config", cfg, "--data", csv_path)
    assert got["minute_covariate"] == "True"
    ckpt = tmp_path / "half_hourly" / "checkpoint.stag"
    assert "cov/minute" in load_model(ckpt).parameters()
    # the other way round from the bad-input case: sub-hourly model, hourly data
    capsys.readouterr()
    assert cli.main(["eval", str(ckpt), "--synth-steps", "60"]) == 2
    assert "trained on sub-hourly data" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "ckpt.stag", "--lr", "5"],
    ["predict", "ckpt.stag", "out.csv", "--nodes", "99"],
    ["energy", "ckpt.stag", "--ts", "77"],
    ["eval", "ckpt.stag", "--config", "cfg.txt"],
])
def test_checkpoint_commands_reject_model_flags(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_train_eval_predict_energy(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", *TINY_FLAGS, "--epochs", "1", "--out", str(out)]) == 0
    ckpt = str(out / "checkpoint.stag")
    assert load_model(ckpt).config.n_nodes == 4
    for name in ("metrics.csv", "summary.txt", "run_config.txt"):
        assert (out / name).is_file()
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and float(rows[0]["grad_norm"]) > 0.0
    out_text = capsys.readouterr().out
    assert "val_r2=" in out_text and "grad_norm=" in out_text
    assert "no validation window" not in out_text

    data = ["--synth-steps", "60"]
    assert cli.main(["eval", ckpt, *data]) == 0
    assert "R2" in capsys.readouterr().out

    forecast = tmp_path / "forecast.csv"
    assert cli.main(["predict", ckpt, str(forecast), *data]) == 0
    rows = forecast.read_text().splitlines()
    assert rows[0].split(",") == ["timestamp"] + [f"node_{i}" for i in range(4)]
    assert len(rows) == 1 + 2  # header + horizon

    assert cli.main(["energy", ckpt, *data, "--out", str(tmp_path / "energy"),
                     "--batch", "2"]) == 0
    assert (tmp_path / "energy" / "energy.txt").is_file()
    assert (tmp_path / "energy" / "energy.csv").is_file()


def test_train_without_a_val_window_says_so_once(tmp_path, capsys):
    # 40 steps: a val split of round(32) - round(28) = 4 steps, shorter than T + L = 6
    out = tmp_path / "run"
    assert cli.main(["train", *TINY_FLAGS, "--synth-steps", "40", "--epochs", "2",
                     "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    note = "  no validation window: the val split holds 4 steps, fewer than T + L = 6"
    assert lines.count(note) == 1
    epochs = [line for line in lines if line.startswith("  epoch ")]
    assert len(epochs) == 2 and not any("nan" in line or "val_" in line for line in epochs)
    with open(out / "metrics.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["epoch", "loss", "r2", "rse", "grad_norm"]


def test_checkpoint_commands_need_synth_steps_on_synthetic_data(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["train", *TINY_FLAGS, "--epochs", "1", "--out", str(out)]) == 0
    assert "# synth_steps = 60" in (out / "run_config.txt").read_text().splitlines()
    ckpt = str(out / "checkpoint.stag")
    capsys.readouterr()
    for argv in (["eval", ckpt], ["predict", ckpt, str(tmp_path / "f.csv")],
                 ["energy", ckpt, "--out", str(tmp_path / "energy")]):
        assert cli.main(argv) == 2
        assert "--synth-steps" in capsys.readouterr().err


def test_predict_normalizes_with_checkpoint_stats(tmp_path):
    """On data whose statistics differ from the training data, `predict`
    normalizes and de-normalizes with the same (the checkpoint's) statistics."""
    out = tmp_path / "run"
    assert cli.main(["train", *TINY_FLAGS, "--epochs", "1", "--out", str(out)]) == 0
    model = load_model(str(out / "checkpoint.stag"))
    cfg = model.config
    ds = synth_generate(cfg.n_nodes, 60, cfg.seed)
    shifted = SeriesDataset(ds.timestamps, ds.values + 100.0, ds.sample_rate_s, ds.node_names)
    save_csv(shifted, tmp_path / "shifted.csv")
    forecast = tmp_path / "forecast.csv"
    assert cli.main(["predict", str(out / "checkpoint.stag"), str(forecast),
                     "--data", str(tmp_path / "shifted.csv")]) == 0

    windows = make_windows(load_csv(tmp_path / "shifted.csv"), cfg.t_in, cfg.horizon,
                           stride=cfg.stride)
    windows.mean, windows.std = model.norm_mean, model.norm_std
    expected = model.predict(windows.batch([windows.test_starts[-1]]))
    rows = [line.split(",")[1:] for line in forecast.read_text().splitlines()[1:]]
    assert rows == [[f"{v:.6f}" for v in step] for step in expected]


def test_ablate_writes_every_variant(tmp_path):
    out = tmp_path / "ablate"
    assert cli.main(["ablate", *TINY_FLAGS, "--epochs", "1", "--seeds", "1",
                     "--out", str(out)]) == 0
    with open(out / "ablation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["variant"] for r in rows] == ["W1", "W2", "W3", "W4"]
    assert [r["best"] for r in rows].count("*") == 1
    assert all(r["best"] in ("", "*") for r in rows)


def test_sweep_ts_writes_rows_and_stability(tmp_path):
    out = tmp_path / "sweep"
    assert cli.main(["sweep-ts", *TINY_FLAGS, "--epochs", "1", "--ts-values", "1,2",
                     "--out", str(out)]) == 0
    with open(out / "sweep_ts.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["ts", "r2", "rse"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "stability_max_minus_min_r2"]
    r2s = [float(r[1]) for r in rows[1:3]]
    assert float(rows[3][1]) == pytest.approx(max(r2s) - min(r2s), abs=2e-6)


@pytest.mark.parametrize("grid", [["ablate", "--seeds", "1"], ["sweep-ts", "--ts-values", "1,2"]],
                         ids=["ablate", "sweep-ts"])
def test_grid_commands_echo_the_config_as_trained(tmp_path, grid):
    # the flags say 8 nodes; the CSV has 4, sampled every 30 minutes
    csv_path = half_hourly_csv(tmp_path / "half_hourly.csv")
    command, *grid_flags = grid
    runs = {"csv": ["--data", csv_path], "synthetic": []}
    for name, data in runs.items():
        out = tmp_path / name
        assert cli.main([command, *TINY_FLAGS, "--nodes", "8", "--epochs", "1", *grid_flags,
                         *data, "--out", str(out)]) == 0
        runs[name] = (read_run_config(out), (out / "run_config.txt").read_text().splitlines())
    got, lines = runs["csv"]
    assert (got["n_nodes"], got["minute_covariate"]) == ("4", "True")
    assert lines[0] == f"# data = {csv_path}" and not lines[1].startswith("# synth_steps")
    got, lines = runs["synthetic"]
    assert (got["n_nodes"], got["minute_covariate"]) == ("8", "False")
    assert lines[:2] == ["# data = synthetic", "# synth_steps = 60"]


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A tiny trained run on hourly data, a truncated copy of its checkpoint
    and one with bytes appended, a CSV with a non-numeric cell, two CSVs
    whose headers name a node twice or leave one unnamed, a CSV of six
    nodes, where the run has four, a CSV sampled every 30 minutes and a
    config file that sets a key twice."""
    root = tmp_path_factory.mktemp("inputs")
    assert cli.main(["train", *TINY_FLAGS, "--epochs", "1", "--out", str(root / "run")]) == 0
    blob = (root / "run" / "checkpoint.stag").read_bytes()
    (root / "truncated.stag").write_bytes(blob[:len(blob) // 2])
    (root / "appended.stag").write_bytes(blob + bytes(29))
    save_csv(synth_generate(4, 60, 1), root / "good.csv")
    lines = (root / "good.csv").read_text().splitlines()
    for name, header in (("twice", "timestamp,a,b,c,a"), ("unnamed", "timestamp,a,,c,d")):
        (root / f"{name}.csv").write_text("\n".join([header] + lines[1:]) + "\n")
    lines[5] = lines[5].rsplit(",", 1)[0] + ",x"
    (root / "bad.csv").write_text("\n".join(lines) + "\n")
    (root / "twice.txt").write_text("ts = 2\nepochs = 1\nts = 3\n")
    save_csv(synth_generate(6, 60, 1), root / "six_nodes.csv")
    half_hourly_csv(root / "half_hourly.csv")
    return root


CKPT = "{root}/run/checkpoint.stag"
FIXTURES = Path(__file__).parent / "data"
UPGRADE_HINT = "rewrite it with 'python3 tools/upgrade_checkpoint.py OLD NEW'"
BAD_INPUT_CASES = {
    "malformed_csv": (["train", *TINY_FLAGS, "--data", "{root}/bad.csv", "--out", "{root}/o"],
                      "non-numeric value"),
    "truncated_checkpoint": (["eval", "{root}/truncated.stag", "--synth-steps", "60"],
                             "truncated or corrupt checkpoint"),
    "eval_appended_checkpoint": (["eval", "{root}/appended.stag", "--synth-steps", "60"],
                                 "29 bytes after the last record"),
    "train_csv_node_named_twice": (["train", *TINY_FLAGS, "--data", "{root}/twice.csv",
                                    "--out", "{root}/o"],
                                   "header column 5: duplicate node name 'a'"),
    "train_csv_node_unnamed": (["train", *TINY_FLAGS, "--data", "{root}/unnamed.csv",
                                "--out", "{root}/o"], "header column 3: empty node name"),
    "train_config_key_twice": (["train", "--config", "{root}/twice.txt", "--out", "{root}/o"],
                               "twice.txt:3: duplicate key 'ts'"),
    "eval_v1_checkpoint": (["eval", str(FIXTURES / "checkpoint_v1.stag"), "--synth-steps", "60"],
                           UPGRADE_HINT),
    "predict_older_v2_checkpoint": (["predict", str(FIXTURES / "checkpoint_v2_gates.stag"),
                                     "{root}/f.csv", "--synth-steps", "60"], UPGRADE_HINT),
    "energy_v1_checkpoint": (["energy", str(FIXTURES / "checkpoint_v1.stag"), "--synth-steps",
                              "60", "--out", "{root}/o"], UPGRADE_HINT),
    "energy_e_mac_zero": (["energy", CKPT, "--synth-steps", "60", "--e-mac", "0",
                           "--out", "{root}/o"], "energy coefficients must be positive"),
    "energy_batch_zero": (["energy", CKPT, "--synth-steps", "60", "--batch", "0",
                           "--out", "{root}/o"], "argument --batch"),
    "energy_e_mac_inf": (["energy", CKPT, "--synth-steps", "60", "--e-mac", "inf",
                          "--out", "{root}/o"], "energy coefficients must be positive and finite"),
    "energy_no_window": (["energy", CKPT, "--synth-steps", "7", "--out", "{root}/o"],
                         "energy: no window to count"),
    "eval_no_test_window": (["eval", CKPT, "--synth-steps", "20"], "no windows to score"),
    "predict_no_test_window": (["predict", CKPT, "{root}/f.csv", "--synth-steps", "20"],
                               "no test window to forecast from"),
    "eval_other_node_count": (["eval", CKPT, "--data", "{root}/six_nodes.csv"],
                              "the series has 6 nodes, but the checkpoint's model was built for 4"),
    "predict_other_node_count": (["predict", CKPT, "{root}/f.csv", "--data",
                                  "{root}/six_nodes.csv"], "the series has 6 nodes"),
    "energy_other_node_count": (["energy", CKPT, "--data", "{root}/six_nodes.csv",
                                 "--out", "{root}/o"], "the series has 6 nodes"),
    "eval_other_sampling": (["eval", CKPT, "--data", "{root}/half_hourly.csv"],
                            "the series is sampled every 1800 s, but the checkpoint's model was "
                            "trained on hourly or coarser data"),
    "ablate_seeds_not_ints": (["ablate", *TINY_FLAGS, "--seeds", "abc", "--out", "{root}/o"],
                              "argument --seeds"),
    "train_seed_negative": (["train", *TINY_FLAGS, "--seed", "-1", "--out", "{root}/o"],
                            "seed must be non-negative"),
    "ablate_seed_negative": (["ablate", *TINY_FLAGS, "--seeds=-1", "--out", "{root}/o"],
                             "seed must be non-negative"),
    "sweep_ts_zero": (["sweep-ts", *TINY_FLAGS, "--ts-values", "2,0", "--out", "{root}/o"],
                      "ts must be positive"),
    "train_k2_zero": (["train", *TINY_FLAGS, "--k2", "0", "--seed", "2", "--out", "{root}/o"],
                      "k2 must be positive"),
    "train_no_train_window": (["train", *TINY_FLAGS, "--synth-steps", "7", "--out", "{root}/o"],
                              "no training window; the series has 7 steps"),
    "train_synth_steps_negative": (["train", *TINY_FLAGS, "--synth-steps", "-3",
                                    "--out", "{root}/o"], "steps must be at least 1, got -3"),
    "train_stride_zero": (["train", *TINY_FLAGS, "--stride", "0", "--out", "{root}/o"],
                          "stride must be positive"),
    "train_max_batches_negative": (["train", *TINY_FLAGS, "--max-batches", "-1",
                                    "--out", "{root}/o"], "must be non-negative"),
    "train_lr_negative": (["train", *TINY_FLAGS, "--lr", "-1", "--out", "{root}/o"],
                          "lr must be finite and non-negative"),
    "train_lr_nan": (["train", *TINY_FLAGS, "--lr", "nan", "--out", "{root}/o"],
                     "lr must be finite and non-negative"),
    "train_beta_two": (["train", *TINY_FLAGS, "--beta", "2", "--out", "{root}/o"],
                       "beta must be in (0, 1]"),
    "train_lam_inf": (["train", *TINY_FLAGS, "--lam", "inf", "--out", "{root}/o"],
                      "lam must be finite"),
    "train_u_th_inf": (["train", *TINY_FLAGS, "--u-th", "inf", "--out", "{root}/o"],
                       "u_th must be finite"),
    "train_alpha_inf": (["train", *TINY_FLAGS, "--alpha", "inf", "--out", "{root}/o"],
                        "alpha must be finite"),
    # argparse reads a bare "-inf" as an option, so the value is joined to its flag
    "train_u_reset_neg_inf": (["train", *TINY_FLAGS, "--u-reset=-inf", "--out", "{root}/o"],
                              "u_reset must be finite"),
}


@pytest.mark.parametrize("case", list(BAD_INPUT_CASES))
def test_bad_input_exits_2_before_any_forward(case, bad_inputs, capsys, monkeypatch):
    argv, message = BAD_INPUT_CASES[case]
    argv = [arg.format(root=bad_inputs) for arg in argv]

    def no_forward(*args, **kwargs):
        raise AssertionError("bad input reached a forward pass")

    monkeypatch.setattr(ForecastModel, "forward", no_forward)
    capsys.readouterr()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a malformed flag value itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("error:") == 1 and message in err, err
    assert "Traceback" not in err


def test_eval_on_constant_targets_exits_2(bad_inputs, capsys):
    ds = synth_generate(4, 60, 1)
    save_csv(SeriesDataset(ds.timestamps, ds.values * 0.0 + 1.0, ds.sample_rate_s,
                           ds.node_names), bad_inputs / "constant.csv")
    capsys.readouterr()
    code = cli.main(["eval", CKPT.format(root=bad_inputs),
                     "--data", str(bad_inputs / "constant.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "constant target" in err, err
    assert "Traceback" not in err


def test_diverging_train_exits_1_with_one_error_line(tmp_path, capsys):
    # lr = 1e12 overflows on purpose; training runs under its own errstate, so
    # the overflow warns nothing (pyproject.toml turns RuntimeWarnings into errors)
    capsys.readouterr()
    code = cli.main(["train", *TINY_FLAGS, "--lr", "1e12", "--epochs", "3",
                     "--out", str(tmp_path / "o")])
    lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "training diverged" in lines[0]
