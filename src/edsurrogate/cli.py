"""Command-line front end: dataset generation, baseline training, post-tuning,
evaluation, and scatter export; and run_experiment, the one desk-experiment
path that `tune`, the scripts and the acceptance tests share.

Configuration comes from an optional JSON file with "dataset", "train",
"recognizer" and "surrogate" sections layered over the desk presets; flags win
over file values. Seeds layer the same way: the "dataset" or "train" section's
own seed overrides the file's top-level seed, and --seed overrides both; the
nets take the train seed unless their own section sets one. Every stream of
randomness draws from these seeds, so rerunning a command with the same
arguments reproduces its output files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
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
    net_config,
    pretrain_recognizer,
    run_post_tuning,
)

_SECTIONS = ("dataset", "train", "recognizer", "surrogate")  # of a config file


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


def _configs(args) -> tuple[dict, DatasetConfig, TrainConfig]:
    """The config file's contents, and the dataset and train configs: each
    desk preset overridden in turn by the file's seed, its section and the
    command's flags. Both net sections are built too, whichever the command
    reads, so that any command reports a misspelled key or a bad value."""
    data = {} if args.config is None else json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    reject_unknown_keys("config", data, ("seed", *_SECTIONS))
    for name in _SECTIONS:
        if not isinstance(data.get(name, {}), dict):
            raise ConfigError(f"config section {name!r} must be a JSON object")

    def layered(section: str, *flags: str) -> dict:
        given = {name: v for name in flags if (v := getattr(args, name, None)) is not None}
        return {"seed": data.get("seed", 0), **data.get(section, {}), **given}

    dcfg = DatasetConfig.desk(**layered("dataset", "seed"))
    cfg = TrainConfig.desk(**layered("train", "seed", "mode", "epochs", "lam"))
    for config_class, name in ((RecognizerConfig, "recognizer"), (SurrogateConfig, "surrogate")):
        net_config(config_class, name, dcfg, dcfg.seed, data.get(name))
    return data, dcfg, cfg


def _load_recognizer(path: str, dcfg: DatasetConfig) -> RecognizerNet:
    """The recognizer checkpoint at path, which must fit dcfg's images and alphabet."""
    net = load_recognizer(path)
    net_config(RecognizerConfig, f"checkpoint {path}", dcfg, net.config.seed, asdict(net.config))
    return net


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_summary(out: Path, summary: str) -> None:
    (out / "summary.txt").write_text(summary + "\n", encoding="utf-8")
    print(summary)


def _cmd_gen_data(args) -> int:
    _, dcfg, _ = _configs(args)
    images = sample_corpus(dcfg)
    out = _out_dir(args)
    save_dataset(out, images, dcfg)
    print(f"wrote {len(images)} samples to {out}")
    return 0


def _cmd_train_baseline(args) -> int:
    file_cfg, dcfg, cfg = _configs(args)
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
    file_cfg, dcfg, cfg = _configs(args)
    split = split_corpus(sample_corpus(dcfg))
    net = None if args.checkpoint is None else _load_recognizer(args.checkpoint, dcfg)
    out = _out_dir(args)
    run = run_experiment(cfg, dcfg, split, net, file_cfg, out)
    rel = relative_ted_improvement(run.baseline.ted, run.tuned.ted)
    summary = format_summary(run.tuned) + (
        f"\nted {run.baseline.ted} -> {run.tuned.ted} (relative improvement {rel:+.4f})"
    )
    _write_summary(out, summary)
    return 0


def _cmd_evaluate(args) -> int:
    _, dcfg, _ = _configs(args)
    net = _load_recognizer(args.checkpoint, dcfg)
    split = split_corpus(sample_corpus(dcfg))
    images = getattr(split, args.split)
    report = evaluate_model(net, images, dcfg.alphabet, dataset_id=args.split)
    out = _out_dir(args)
    write_metrics_csv(out / "metrics.csv", report)
    _write_summary(out, format_summary(report))
    return 0


def _cmd_scatter(args) -> int:
    _, _, cfg = _configs(args)
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
