"""Run the desk experiment end to end and compare tuning arms.

Pretrains a cross-entropy baseline, then post-tunes two copies of it, one
with the filtered surrogate (feds) and one with the unfiltered arm (lsed).
Writes logs, metrics, checkpoints and a scatter export under --out and prints
a per-epoch in-band table plus the final scores.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from edsurrogate.cli import run_experiment
from edsurrogate.evaluation import (
    export_scatter,
    format_summary,
    in_band_fraction,
    relative_ted_improvement,
    write_metrics_csv,
)
from edsurrogate.recognizer import RecognizerNet, load_recognizer, save_recognizer
from edsurrogate.synth_data import sample_corpus, split_corpus
from edsurrogate.training import RunSpec, pretrain_recognizer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=5)
    parser.add_argument("--out", default="runs/desk")
    args = parser.parse_args(argv)

    spec = RunSpec.desk(args.seed, epochs=args.epochs)
    dcfg, cfg = spec.dataset, spec.train
    split = split_corpus(sample_corpus(dcfg))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    recognizer = RecognizerNet(spec.recognizer)
    pretrain_recognizer(split.train, recognizer, cfg, dcfg)
    save_recognizer(out / "baseline.bin", recognizer)
    runs = {}
    for mode in ("feds", "lsed"):
        arm = replace(spec, train=replace(cfg, mode=mode))
        runs[mode] = run_experiment(arm, split, load_recognizer(out / "baseline.bin"), out / mode)

    base = runs["feds"].baseline
    print(format_summary(base))
    write_metrics_csv(out / "baseline_metrics.csv", base)
    logs = runs["feds"].result.logs
    export_scatter(out / "feds" / "scatter.csv", logs, 1, cfg.epochs, cfg.lam)
    print("epoch  in_band")
    for epoch in range(1, cfg.epochs + 1):
        print(f"{epoch:>5}  {in_band_fraction(logs, epoch, epoch, cfg.lam):.3f}")
    for mode, run in runs.items():
        rel = relative_ted_improvement(base.ted, run.tuned.ted)
        print(
            f"{mode}: accuracy={run.tuned.accuracy:.3f} ned={run.tuned.ned:.3f} "
            f"ted {base.ted} -> {run.tuned.ted} ({rel:+.1%})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
