"""Command-line front end.

Subcommands and the flags each takes:

    train      model flags, --config, --data, --synth-steps, --out
    ablate     as train, plus --seeds
    sweep-ts   as train, plus --ts-values
    eval       CHECKPOINT, --data, --synth-steps
    predict    CHECKPOINT OUT_FILE, --data, --synth-steps
    energy     CHECKPOINT, --data, --synth-steps, --out, --batch, --e-mac, --e-ac

The model flags and the config-file keys are derived from the fields of
`ModelConfig`: one flag per field, spelled `--<field-name>` with dashes
except `--nodes` (n_nodes) and `--input-len` (t_in), and one `key = value`
line per field name in the file given by `--config`.  minute_covariate has
no flag; training sets it from the data's sample rate.  A flag given on the
command line overrides the file, the file overrides the defaults, and an
unknown key is an error.  `train`, `ablate` and `sweep-ts` write the resolved
configuration to `run_config.txt` in the output directory, in exactly the
form `--config` accepts; run extras such as the data source go on `#` comment
lines, and `train` on synthetic data also records `# synth_steps`.  `eval`,
`predict` and `energy` take their configuration from the checkpoint; on
synthetic data they need `--synth-steps` (no default), since the series
length is in neither the checkpoint nor the config.

Bad input exits with status 2 and one `error: ...` line on stderr, with no
traceback: a malformed flag or config file, a malformed CSV, a missing or
corrupt checkpoint, energy coefficients that are not finite and positive, a
non-positive batch size, a zero sample budget (k1 or k2), a series too
short to hold a window of the split a command reads (for training, the train
split), a series whose node count is not the checkpoint's, test targets that
are constant, on which R2 and RSE are undefined, and a negative seed or a
learning rate, λ or LIF constant out of range; `ablate` and
`sweep-ts` check the config of every run before they train the first.
Training that diverges (a parameter turns non-finite) exits with status 1
and one `error: ...` line; training runs with numpy's overflow,
invalid-value and divide-by-zero warnings off, so nothing else is printed on
the way there.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import checkpoint as ckpt
from .data import SeriesDataset, load_csv, make_windows, synth_generate
from .energy import (OpCounter, check_coefficients, estimate_energy, write_report_csv,
                     write_report_text)
from .errors import (CheckpointFormatError, ContractError, DivergenceError, IngestionError,
                     UndefinedMetricError)
from .model import ABLATIONS, ForecastModel, ModelConfig, evaluate, train


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


# one caster per ModelConfig field type, shared by flags and config-file values
_CASTERS = {int: int, float: float, str: str, bool: _parse_bool}


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _int_list(text: str) -> list:
    """Comma-separated integers, e.g. '1,2,3'."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _add_data_flags(p: argparse.ArgumentParser, synth_steps: int | None = None) -> None:
    """--data and --synth-steps; without a default, synthetic data needs the flag."""
    p.add_argument("--data", type=str, default="synthetic",
                   help="dataset CSV path, or 'synthetic'")
    p.add_argument("--synth-steps", type=int, default=synth_steps,
                   help="length of the synthetic series"
                        + ("" if synth_steps else " (required with synthetic data)"))


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """--config, --out, the data flags and one flag per ModelConfig field.

    Field flags default to SUPPRESS, so only the flags actually given appear
    in the parsed namespace and override the config file.
    """
    p.add_argument("--config", type=str, default=None,
                   help="key=value config file; flags override it")
    _add_data_flags(p, synth_steps=2000)
    p.add_argument("--out", type=str, default="runs/latest", help="output directory")
    for f in fields(ModelConfig):
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        if flag is not None:
            p.add_argument(flag, dest=f.name, type=_CASTERS[type(f.default)],
                           default=argparse.SUPPRESS,
                           help=f"{f.metadata['help']} (default: {f.default})")


def _read_config_file(path: str) -> dict:
    kinds = {f.name: type(f.default) for f in fields(ModelConfig)}
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = (s.strip() for s in line.partition("="))
        if not sep:
            raise ContractError(f"{path}:{lineno}: expected key=value")
        if key not in kinds:
            raise ContractError(f"{path}:{lineno}: unknown config key '{key}'")
        try:
            values[key] = _CASTERS[kinds[key]](val)
        except ValueError as exc:
            raise ContractError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _build_config(args: argparse.Namespace) -> ModelConfig:
    cfg = ModelConfig()
    if args.config:
        cfg = replace(cfg, **_read_config_file(args.config))
    given = {f.name: getattr(args, f.name) for f in fields(ModelConfig) if hasattr(args, f.name)}
    cfg = replace(cfg, **given)
    cfg.validate()
    return cfg


def _load_dataset(args: argparse.Namespace, cfg: ModelConfig) -> SeriesDataset:
    if args.data == "synthetic":
        if args.synth_steps is None:
            raise ContractError("synthetic data needs --synth-steps, the series length the "
                                "model was trained on (the synth_steps line of run_config.txt)")
        return synth_generate(cfg.n_nodes, args.synth_steps, cfg.seed)
    return load_csv(args.data)


def _load_checkpoint(args: argparse.Namespace):
    """(model, dataset, windows), the data windowed by the checkpoint's own config.

    The windows normalize with the checkpoint's statistics when it carries
    them, the ones `predict` de-normalizes with, not with the new data's own.
    """
    model = ckpt.load_model(args.checkpoint)
    cfg = model.config
    dataset = _load_dataset(args, cfg)
    if dataset.n_nodes != cfg.n_nodes:
        raise ContractError(f"the series has {dataset.n_nodes} nodes, but the checkpoint's "
                            f"model was built for {cfg.n_nodes}")
    windows = make_windows(dataset, cfg.t_in, cfg.horizon, stride=cfg.stride)
    if model.norm_mean is not None:
        windows.mean, windows.std = model.norm_mean, model.norm_std
    return model, dataset, windows


def _validated(cfg: ModelConfig, **changes) -> ModelConfig:
    """`cfg` with `changes`, validated: a multi-run command builds every run's
    config this way before its first training, so a bad one trains nothing."""
    run_cfg = replace(cfg, **changes)
    run_cfg.validate()
    return run_cfg


def _echo_config(cfg: ModelConfig, outdir: Path, extra: dict | None = None) -> None:
    lines = [f"# {k} = {v}" for k, v in (extra or {}).items()]
    lines += [f"{k} = {v}" for k, v in asdict(cfg).items()]
    (outdir / "run_config.txt").write_text("\n".join(lines) + "\n")


def _write_metrics_csv(path: Path, report) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "r2", "rse", "grad_norm"])
        for e in report.epochs:
            writer.writerow([e.epoch, f"{e.loss:.8f}", f"{e.r2:.6f}", f"{e.rse:.6f}",
                             f"{e.grad_norm:.6f}"])


def _train_once(dataset: SeriesDataset, cfg: ModelConfig, quiet: bool = False):
    if dataset.sample_rate_s < 3600:
        cfg = replace(cfg, minute_covariate=True)
    cfg = replace(cfg, n_nodes=dataset.n_nodes)
    model = ForecastModel(cfg)
    log = None if quiet else (lambda e: print(
        f"  epoch {e.epoch}: loss={e.loss:.5f} val_r2={e.r2:.4f} val_rse={e.rse:.4f} "
        f"grad_norm={e.grad_norm:.4f}"))
    # a parameter that turns non-finite ends training with DivergenceError,
    # so the float warnings on the way there would only repeat that
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report, windows = train(model, dataset, log_fn=log)
    return model, report, windows


# -- subcommands ----------------------------------------------------------------


def cmd_train(args) -> int:
    cfg = _build_config(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    dataset = _load_dataset(args, cfg)
    model, report, _ = _train_once(dataset, cfg)
    ckpt.save_model(outdir / "checkpoint.stag", model)
    _write_metrics_csv(outdir / "metrics.csv", report)
    extra = {"data": args.data}
    if args.data == "synthetic":
        extra["synth_steps"] = args.synth_steps
    _echo_config(model.config, outdir, extra)
    summary = (f"test_r2 = {report.test_r2:.6f}\n"
               f"test_rse = {report.test_rse:.6f}\n")
    (outdir / "summary.txt").write_text(summary)
    print(f"test R2 {report.test_r2:.4f}  RSE {report.test_rse:.4f}")
    print(f"wrote {outdir / 'checkpoint.stag'}")
    return 0


def cmd_eval(args) -> int:
    model, _, windows = _load_checkpoint(args)
    r2, rse = evaluate(model, windows, windows.test_starts, model.config.batch_size)
    print(f"R2 {r2:.6f}")
    print(f"RSE {rse:.6f}")
    return 0


def cmd_predict(args) -> int:
    model, dataset, windows = _load_checkpoint(args)
    if not windows.test_starts:
        raise ContractError("predict: no test window to forecast from; the series is too "
                            "short for the test split to hold one window")
    batch = windows.batch([windows.test_starts[-1]])
    forecast = model.predict(batch)  # (L, N)
    out = Path(args.out_file)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + list(dataset.node_names))
        for step in range(model.config.horizon):
            iso = str(np.datetime_as_string(batch.target_times[0][step], unit="s")) + "+00:00"
            writer.writerow([iso] + [f"{v:.6f}" for v in forecast[step]])
    print(f"wrote {out}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _build_config(args)
    runs = {a: [_validated(cfg, ablation=a, seed=seed) for seed in args.seeds] for a in ABLATIONS}
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = {}
    for ablation, run_cfgs in runs.items():
        r2s, rses = [], []
        for run_cfg in run_cfgs:
            dataset = _load_dataset(args, run_cfg)
            _, report, _ = _train_once(dataset, run_cfg, quiet=True)
            r2s.append(report.test_r2)
            rses.append(report.test_rse)
        rows[ablation] = (statistics.median(r2s), statistics.median(rses))
        print(f"{ablation}: R2 {rows[ablation][0]:.4f}  RSE {rows[ablation][1]:.4f}")
    best = max(rows, key=lambda k: rows[k][0])
    with open(outdir / "ablation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "r2", "rse", "best"])
        for ablation, (r2, rse) in rows.items():
            writer.writerow([ablation, f"{r2:.6f}", f"{rse:.6f}",
                             "*" if ablation == best else ""])
    _echo_config(cfg, outdir, {"seeds": ",".join(map(str, args.seeds))})
    print(f"best variant: {best}")
    return 0


def cmd_sweep_ts(args) -> int:
    cfg = _build_config(args)
    run_cfgs = [_validated(cfg, ts=ts) for ts in args.ts_values]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for run_cfg in run_cfgs:
        dataset = _load_dataset(args, run_cfg)
        _, report, _ = _train_once(dataset, run_cfg, quiet=True)
        rows.append((run_cfg.ts, report.test_r2, report.test_rse))
        print(f"Ts={run_cfg.ts}: R2 {report.test_r2:.4f}  RSE {report.test_rse:.4f}")
    r2s = [r for (_, r, _) in rows]
    stability = max(r2s) - min(r2s)
    with open(outdir / "sweep_ts.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ts", "r2", "rse"])
        for ts, r2, rse in rows:
            writer.writerow([ts, f"{r2:.6f}", f"{rse:.6f}"])
        writer.writerow(["stability_max_minus_min_r2", f"{stability:.6f}", ""])
    _echo_config(cfg, outdir)
    print(f"R2 stability (max - min): {stability:.4f}")
    return 0


def cmd_energy(args) -> int:
    check_coefficients(args.e_mac, args.e_ac)
    model, _, windows = _load_checkpoint(args)
    starts = (windows.test_starts or windows.train_starts)[: args.batch]
    if not starts:
        raise ContractError("energy: no window to count; the series is too short for the "
                            "test or the train split to hold one window")
    batch = windows.batch(starts)
    counter = OpCounter()
    with ag.no_grad():
        model.forward(batch, counter=counter)
    report = estimate_energy(counter.counts, e_mac=args.e_mac, e_ac=args.e_ac)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_report_text(report, outdir / "energy.txt")
    write_report_csv(report, outdir / "energy.csv")
    print(f"Model            Param (M)  Ops (G)   Energy (mJ)  Energy Reduction")
    print(f"spiking          {report.param_millions:9.3f}  {report.ops_g:8.4f}  "
          f"{report.total_mj:11.6f}  {report.reduction_pct:6.2f}%")
    print(f"dense twin       {report.param_millions:9.3f}  {report.twin_ops_g:8.4f}  "
          f"{report.twin_total_mj:11.6f}       /")
    print(f"wrote {outdir / 'energy.txt'} and {outdir / 'energy.csv'}")
    return 0


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spikestag",
        description="Adaptive-graph spiking forecaster: training, evaluation and energy tooling",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, fn) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(fn=fn)
        return p

    _add_config_flags(command("train", "train a model and write a checkpoint", cmd_train))

    p_eval = command("eval", "evaluate a checkpoint on the test split", cmd_eval)
    p_eval.add_argument("checkpoint", type=str)
    _add_data_flags(p_eval)

    p_pred = command("predict", "write a forecast CSV from a checkpoint", cmd_predict)
    p_pred.add_argument("checkpoint", type=str)
    p_pred.add_argument("out_file", type=str)
    _add_data_flags(p_pred)

    p_abl = command("ablate", "train W1-W4 and compare", cmd_ablate)
    _add_config_flags(p_abl)
    p_abl.add_argument("--seeds", type=_int_list, default="1,2,3", help="comma-separated seeds")

    p_sweep = command("sweep-ts", "train across Ts values and compare", cmd_sweep_ts)
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--ts-values", type=_int_list, default="4,8,12,16",
                         help="comma-separated Ts values")

    p_en = command("energy", "count ops and estimate energy for a checkpoint", cmd_energy)
    p_en.add_argument("checkpoint", type=str)
    _add_data_flags(p_en)
    p_en.add_argument("--out", type=str, default="runs/latest", help="output directory")
    p_en.add_argument("--batch", type=_positive_int, default=8, help="windows in the counted batch")
    p_en.add_argument("--e-mac", type=float, default=4.6, help="pJ per multiply-accumulate")
    p_en.add_argument("--e-ac", type=float, default=0.9, help="pJ per accumulate")

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ContractError, IngestionError, CheckpointFormatError, UndefinedMetricError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
