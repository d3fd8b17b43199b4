"""Command-line front end: dataset generation, baseline training, post-tuning,
evaluation, and scatter export.

Configuration comes from an optional JSON file with "dataset", "train",
"recognizer" and "surrogate" sections layered over the desk presets; flags win
over file values. A single effective seed feeds every stream of randomness, so
rerunning a command with the same arguments reproduces its output files byte
for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .evaluation import (
    evaluate_model,
    export_scatter,
    format_summary,
    read_log_csv,
    relative_ted_improvement,
    write_log_csv,
    write_metrics_csv,
)
from .recognizer import RecognizerConfig, RecognizerNet, load_recognizer, save_recognizer
from .surrogate import SurrogateConfig, SurrogateNet
from .synth_data import DatasetConfig, sample_corpus, save_dataset, split_corpus
from .training import PhaseLogRecord, TrainConfig, pretrain_recognizer, run_post_tuning


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _effective_seed(file_cfg: dict, args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(file_cfg.get("seed", 0))


def _dataset_config(file_cfg: dict, args) -> DatasetConfig:
    values = DatasetConfig.desk().to_dict()
    values["seed"] = _effective_seed(file_cfg, args)
    values.update(file_cfg.get("dataset", {}))
    if getattr(args, "seed", None) is not None:
        values["seed"] = args.seed
    return DatasetConfig.from_dict(values)


def _train_config(file_cfg: dict, args) -> TrainConfig:
    values = TrainConfig.desk().to_dict()
    values["seed"] = _effective_seed(file_cfg, args)
    values.update(file_cfg.get("train", {}))
    overrides = {
        "seed": getattr(args, "seed", None),
        "mode": getattr(args, "mode", None),
        "epochs": getattr(args, "epochs", None),
        "lam": getattr(args, "lam", None),
    }
    values.update({name: flag for name, flag in overrides.items() if flag is not None})
    return TrainConfig.from_dict(values)


def _recognizer_net(dcfg: DatasetConfig, file_cfg: dict, seed: int) -> RecognizerNet:
    values = dict(
        alphabet_size=len(dcfg.alphabet),
        capacity=dcfg.capacity,
        image_height=dcfg.image_height,
        image_width=dcfg.image_width,
        seed=seed,
    )
    section = dict(file_cfg.get("recognizer", {}))
    section["channels"] = tuple(section.get("channels", RecognizerConfig.channels))
    values.update(section)
    return RecognizerNet(RecognizerConfig(**values))


def _surrogate_net(dcfg: DatasetConfig, file_cfg: dict, seed: int) -> SurrogateNet | None:
    section = dict(file_cfg.get("surrogate", {}))
    if not section:
        return None
    if "channels" in section:
        section["channels"] = tuple(section["channels"])
    return SurrogateNet(
        SurrogateConfig(
            alphabet_size=len(dcfg.alphabet), capacity=dcfg.capacity, seed=seed, **section
        )
    )


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_summary(out: Path, summary: str) -> None:
    (out / "summary.txt").write_text(summary + "\n", encoding="utf-8")
    print(summary)


def _pretrained_baseline(
    dcfg: DatasetConfig, file_cfg: dict, cfg: TrainConfig, split, logs=None
) -> RecognizerNet:
    net = _recognizer_net(dcfg, file_cfg, cfg.seed)
    pretrain_recognizer(split.train, net, cfg, dcfg, logs)
    return net


def _cmd_gen_data(args) -> int:
    file_cfg = _read_config(args.config)
    dcfg = _dataset_config(file_cfg, args)
    images = sample_corpus(dcfg)
    out = _out_dir(args)
    save_dataset(out, images, dcfg)
    print(f"wrote {len(images)} samples to {out}")
    return 0


def _cmd_train_baseline(args) -> int:
    file_cfg = _read_config(args.config)
    dcfg = _dataset_config(file_cfg, args)
    cfg = _train_config(file_cfg, args)
    split = split_corpus(sample_corpus(dcfg))
    logs: list[PhaseLogRecord] = []
    net = _pretrained_baseline(dcfg, file_cfg, cfg, split, logs)
    out = _out_dir(args)
    save_recognizer(out / "baseline.bin", net)
    write_log_csv(out / "log.csv", logs)
    report = evaluate_model(net, split.test, dcfg.alphabet, dataset_id="test")
    write_metrics_csv(out / "metrics.csv", report)
    _write_summary(out, format_summary(report))
    return 0


def _cmd_tune(args) -> int:
    file_cfg = _read_config(args.config)
    dcfg = _dataset_config(file_cfg, args)
    cfg = _train_config(file_cfg, args)
    split = split_corpus(sample_corpus(dcfg))
    if args.checkpoint is not None:
        net = load_recognizer(args.checkpoint)
    else:
        net = _pretrained_baseline(dcfg, file_cfg, cfg, split)
    base = evaluate_model(net, split.test, dcfg.alphabet, dataset_id="test")
    out = _out_dir(args)
    result = run_post_tuning(
        cfg, dcfg, split, net, _surrogate_net(dcfg, file_cfg, cfg.seed), out_dir=out
    )
    write_log_csv(out / "log.csv", result.logs)
    report = evaluate_model(result.recognizer, split.test, dcfg.alphabet, dataset_id="test")
    write_metrics_csv(out / "metrics.csv", report)
    rel = relative_ted_improvement(base.ted, report.ted)
    summary = format_summary(report) + (
        f"\nted {base.ted} -> {report.ted} (relative improvement {rel:+.4f})"
    )
    _write_summary(out, summary)
    return 0


def _cmd_evaluate(args) -> int:
    file_cfg = _read_config(args.config)
    dcfg = _dataset_config(file_cfg, args)
    split = split_corpus(sample_corpus(dcfg))
    images = getattr(split, args.split)
    report = evaluate_model(args.checkpoint, images, dcfg.alphabet, dataset_id=args.split)
    out = _out_dir(args)
    write_metrics_csv(out / "metrics.csv", report)
    _write_summary(out, format_summary(report))
    return 0


def _cmd_scatter(args) -> int:
    file_cfg = _read_config(args.config)
    cfg = _train_config(file_cfg, args)
    logs = read_log_csv(args.log)
    first = args.first_epoch
    last = args.last_epoch if args.last_epoch is not None else max(r.epoch for r in logs)
    out = _out_dir(args)
    export_scatter(out / "scatter.csv", logs, first, last, cfg.lam)
    print(f"wrote {out / 'scatter.csv'} for epochs [{first}, {last}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file layered over the desk presets")
    shared.add_argument("--seed", type=int, help="seed for every stream of randomness")
    shared.add_argument("--out", required=True, help="output directory")

    parser = argparse.ArgumentParser(
        prog="edsurrogate",
        description="train and probe an edit-distance-surrogate post-tuning run",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", parents=[shared], help="render a corpus to disk")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train-baseline", parents=[shared], help="cross-entropy pretraining")
    p.set_defaults(func=_cmd_train_baseline)

    p = sub.add_parser("tune", parents=[shared], help="surrogate post-tuning")
    p.add_argument("--mode", choices=("feds", "lsed"), help="filtered or unfiltered tuning")
    p.add_argument("--lambda", dest="lam", type=float, help="gate width")
    p.add_argument("--epochs", type=int, help="alternation count")
    p.add_argument("--checkpoint", help="recognizer to tune; pretrains one when omitted")
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("evaluate", parents=[shared], help="score a checkpoint on a split")
    p.add_argument("--checkpoint", required=True, help="recognizer checkpoint")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("scatter", parents=[shared], help="export (e, e_hat) pairs from a log")
    p.add_argument("--log", required=True, help="log CSV from a tune run")
    p.add_argument("--lambda", dest="lam", type=float, help="gate width metadata")
    p.add_argument("--first-epoch", type=int, default=1)
    p.add_argument("--last-epoch", type=int, default=None)
    p.set_defaults(func=_cmd_scatter)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Every package error type subclasses ValueError. A non-finite value
    # raises NumericError from the graph's own check, so numpy's
    # floating-point warnings would only repeat it on extra lines.
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
