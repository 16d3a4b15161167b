import csv
from dataclasses import asdict

import pytest

from spikestag import cli
from spikestag.checkpoint import load_model
from spikestag.data import SeriesDataset, load_csv, make_windows, save_csv, synth_generate
from spikestag.model import ModelConfig

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
