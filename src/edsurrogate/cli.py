"""Command-line front end: dataset generation, baseline training, post-tuning,
evaluation, and scatter export; and run_experiment, the one desk-experiment
path that `tune`, the scripts and the acceptance tests share.

Every command builds its run from one training.RunSpec: an optional JSON file
with "dataset", "train", "recognizer" and "surrogate" sections over the desk
presets, and the flags over the file. RunSpec.read is the one place where seeds
layer: a "dataset" or "train" section's own seed overrides the file's top-level
seed, --seed overrides both, and the nets take the train seed unless their own
section sets one. Every stream of randomness draws from these seeds, so a rerun
with the same arguments reproduces its output files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
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
from .surrogate import SurrogateNet
from .synth_data import DatasetConfig, SplitCorpus, sample_corpus, save_dataset, split_corpus
from .text_metrics import MetricsReport
from .training import (
    PhaseLogRecord,
    PostTuningResult,
    RunSpec,
    net_config,
    pretrain_recognizer,
    run_post_tuning,
)


@dataclass
class ExperimentRun:
    baseline: MetricsReport  # test-split scores before post-tuning
    tuned: MetricsReport  # test-split scores after post-tuning
    result: PostTuningResult


def run_experiment(
    spec: RunSpec,
    split: SplitCorpus,
    recognizer: RecognizerNet | None = None,
    out_dir: str | Path | None = None,
) -> ExperimentRun:
    """The desk experiment: pretrain a recognizer of spec.recognizer unless
    one is given, score it on the test split, post-tune it in place against
    a fresh surrogate of spec.surrogate, and score it again. With out_dir,
    the epoch checkpoints, log.csv and the tuned net's metrics.csv go there."""
    dcfg, cfg = spec.dataset, spec.train
    surrogate = SurrogateNet(spec.surrogate)
    if recognizer is None:
        recognizer = RecognizerNet(spec.recognizer)
        pretrain_recognizer(split.train, recognizer, cfg, dcfg)
    baseline = evaluate_model(recognizer, split.test, dcfg.alphabet, dataset_id="test")
    result = run_post_tuning(cfg, dcfg, split, recognizer, surrogate, out_dir=out_dir)
    tuned = evaluate_model(result.recognizer, split.test, dcfg.alphabet, dataset_id="test")
    if out_dir is not None:
        write_log_csv(Path(out_dir) / "log.csv", result.logs)
        write_metrics_csv(Path(out_dir) / "metrics.csv", tuned)
    return ExperimentRun(baseline, tuned, result)


def _configs(args) -> RunSpec:
    """The run spec of the command's config file and flags, both net configs
    included whichever the command reads, so any command reports a bad key or value."""
    text = None if args.config is None else Path(args.config).read_text(encoding="utf-8")
    try:
        data = {} if text is None else json.loads(text)
    except RecursionError:  # from json.loads only: elsewhere it is a bug
        raise ConfigError(f"config file {args.config} nests too deeply") from None
    train = {k: v for k in ("mode", "epochs", "lam") if (v := getattr(args, k, None)) is not None}
    return RunSpec.read(data, args.seed, **train)


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
    dcfg = _configs(args).dataset
    images = sample_corpus(dcfg)
    out = _out_dir(args)
    save_dataset(out, images, dcfg)
    print(f"wrote {len(images)} samples to {out}")
    return 0


def _cmd_train_baseline(args) -> int:
    spec = _configs(args)
    split = split_corpus(sample_corpus(spec.dataset))
    logs: list[PhaseLogRecord] = []
    net = RecognizerNet(spec.recognizer)
    pretrain_recognizer(split.train, net, spec.train, spec.dataset, logs)
    out = _out_dir(args)
    save_recognizer(out / "baseline.bin", net)
    write_log_csv(out / "log.csv", logs)
    report = evaluate_model(net, split.test, spec.dataset.alphabet, dataset_id="test")
    write_metrics_csv(out / "metrics.csv", report)
    _write_summary(out, format_summary(report))
    return 0


def _cmd_tune(args) -> int:
    spec = _configs(args)
    split = split_corpus(sample_corpus(spec.dataset))
    net = None if args.checkpoint is None else _load_recognizer(args.checkpoint, spec.dataset)
    out = _out_dir(args)
    run = run_experiment(spec, split, net, out)
    rel = relative_ted_improvement(run.baseline.ted, run.tuned.ted)
    summary = format_summary(run.tuned) + (
        f"\nted {run.baseline.ted} -> {run.tuned.ted} (relative improvement {rel:+.4f})"
    )
    _write_summary(out, summary)
    return 0


def _cmd_evaluate(args) -> int:
    dcfg = _configs(args).dataset
    net = _load_recognizer(args.checkpoint, dcfg)
    split = split_corpus(sample_corpus(dcfg))
    images = getattr(split, args.split)
    report = evaluate_model(net, images, dcfg.alphabet, dataset_id=args.split)
    out = _out_dir(args)
    write_metrics_csv(out / "metrics.csv", report)
    _write_summary(out, format_summary(report))
    return 0


def _cmd_scatter(args) -> int:
    lam = _configs(args).train.lam
    logs = read_log_csv(args.log)
    if not logs:
        raise ValueError(f"{args.log} holds no log records")
    first = args.first_epoch
    last = args.last_epoch if args.last_epoch is not None else max(r.epoch for r in logs)
    out = _out_dir(args)
    export_scatter(out / "scatter.csv", logs, first, last, lam)
    print(f"wrote {out / 'scatter.csv'} for epochs [{first}, {last}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON config file layered over the desk presets")
    shared.add_argument(
        "--seed", type=int, help="overrides the config file's top-level seed and its dataset "
        "and train seeds; a recognizer or surrogate section's own seed still wins"
    )
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
