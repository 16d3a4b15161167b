from dataclasses import asdict

import pytest

from spikestag import cli
from spikestag.checkpoint import load_model
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
