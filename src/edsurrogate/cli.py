"""Command-line front end: dataset generation, baseline training, post-tuning,
evaluation, and scatter export; and run_experiment, the one desk-experiment
path that `tune`, the scripts and the acceptance tests share.

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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, reject_unknown_keys
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
from .surrogate import SurrogateConfig
from .synth_data import DatasetConfig, SplitCorpus, sample_corpus, save_dataset, split_corpus
from .text_metrics import MetricsReport
from .training import (
    PhaseLogRecord,
    PostTuningResult,
    TrainConfig,
    build_recognizer,
    build_surrogate,
    pretrain_recognizer,
    run_post_tuning,
)

# Config file sections and the keys each accepts.
SECTION_KEYS = {
    "dataset": list(DatasetConfig.desk().to_dict()),
    "train": list(TrainConfig.desk().to_dict()),
    "recognizer": [f.name for f in fields(RecognizerConfig)],
    "surrogate": [f.name for f in fields(SurrogateConfig)],
}


@dataclass
class ExperimentRun:
    baseline: MetricsReport  # test-split scores before post-tuning
    tuned: MetricsReport  # test-split scores after post-tuning
    result: PostTuningResult


def run_experiment(
    cfg: TrainConfig,
    dcfg: DatasetConfig,
    split: SplitCorpus,
    recognizer: RecognizerNet | None = None,
    file_cfg: dict | None = None,
    out_dir: str | Path | None = None,
) -> ExperimentRun:
    """The desk experiment: pretrain a recognizer unless one is given, score
    it on the test split, post-tune it in place, and score it again.

    file_cfg's "recognizer" and "surrogate" sections override the net
    presets. With out_dir, the epoch checkpoints, log.csv and the tuned
    net's metrics.csv are written there.
    """
    sections = file_cfg or {}
    surrogate = build_surrogate(dcfg, cfg.seed, sections.get("surrogate"))
    if recognizer is None:
        recognizer = build_recognizer(dcfg, cfg.seed, sections.get("recognizer"))
        pretrain_recognizer(split.train, recognizer, cfg, dcfg)
    baseline = evaluate_model(recognizer, split.test, dcfg.alphabet, dataset_id="test")
    result = run_post_tuning(cfg, dcfg, split, recognizer, surrogate, out_dir=out_dir)
    tuned = evaluate_model(result.recognizer, split.test, dcfg.alphabet, dataset_id="test")
    if out_dir is not None:
        write_log_csv(Path(out_dir) / "log.csv", result.logs)
        write_metrics_csv(Path(out_dir) / "metrics.csv", tuned)
    return ExperimentRun(baseline, tuned, result)


def _read_config(path: str | None) -> dict:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    reject_unknown_keys("config", data, ("seed", *SECTION_KEYS))
    # Every section is checked, whichever the command reads, so that any
    # command reports a misspelled key.
    for name, keys in SECTION_KEYS.items():
        if not isinstance(data.get(name, {}), dict):
            raise ConfigError(f"config section {name!r} must be a JSON object")
        reject_unknown_keys(name, data.get(name, {}), keys)
    return data


def _layered(preset: dict, file_cfg: dict, section: str, flags: dict) -> dict:
    """The desk preset, overridden in turn by the config file's seed, its
    section and the flags given on the command line."""
    values = {**preset, "seed": file_cfg.get("seed", 0), **file_cfg.get(section, {})}
    values.update({name: flag for name, flag in flags.items() if flag is not None})
    return values


def _dataset_config(file_cfg: dict, args) -> DatasetConfig:
    preset = DatasetConfig.desk().to_dict()
    return DatasetConfig.from_dict(_layered(preset, file_cfg, "dataset", {"seed": args.seed}))


def _train_config(file_cfg: dict, args) -> TrainConfig:
    flags = {name: getattr(args, name, None) for name in ("seed", "mode", "epochs", "lam")}
    return TrainConfig.from_dict(_layered(TrainConfig.desk().to_dict(), file_cfg, "train", flags))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_summary(out: Path, summary: str) -> None:
    (out / "summary.txt").write_text(summary + "\n", encoding="utf-8")
    print(summary)


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
    net = build_recognizer(dcfg, cfg.seed, file_cfg.get("recognizer"))
    pretrain_recognizer(split.train, net, cfg, dcfg, logs)
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
    net = None if args.checkpoint is None else load_recognizer(args.checkpoint)
    out = _out_dir(args)
    run = run_experiment(cfg, dcfg, split, net, file_cfg, out)
    rel = relative_ted_improvement(run.baseline.ted, run.tuned.ted)
    summary = format_summary(run.tuned) + (
        f"\nted {run.baseline.ted} -> {run.tuned.ted} (relative improvement {rel:+.4f})"
    )
    _write_summary(out, summary)
    return 0


def _cmd_evaluate(args) -> int:
    file_cfg = _read_config(args.config)
    dcfg = _dataset_config(file_cfg, args)
    net = load_recognizer(args.checkpoint)
    split = split_corpus(sample_corpus(dcfg))
    images = getattr(split, args.split)
    report = evaluate_model(net, images, dcfg.alphabet, dataset_id=args.split)
    out = _out_dir(args)
    write_metrics_csv(out / "metrics.csv", report)
    _write_summary(out, format_summary(report))
    return 0


def _cmd_scatter(args) -> int:
    file_cfg = _read_config(args.config)
    cfg = _train_config(file_cfg, args)
    logs = read_log_csv(args.log)
    if not logs:
        raise ValueError(f"{args.log} holds no log records")
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
