"""Sweep the desk experiment over seeds and summarize the tuning gain.

For each seed: pretrain a baseline, post-tune it with the filtered surrogate,
and report held-out TED before and after, the relative improvement, and the
early-vs-late in-band fraction. Ends with the win count and mean improvement.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from edsurrogate.cli import run_experiment
from edsurrogate.evaluation import in_band_fraction, relative_ted_improvement
from edsurrogate.synth_data import DatasetConfig, sample_corpus, split_corpus
from edsurrogate.training import TrainConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds, 0..N-1")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")

    wins = 0
    improvements = []
    for seed in range(args.seeds):
        t0 = time.perf_counter()
        dcfg = DatasetConfig.desk(seed=seed)
        cfg = TrainConfig.desk(seed=seed)
        run = run_experiment(cfg, dcfg, split_corpus(sample_corpus(dcfg)))
        base, tuned = run.baseline, run.tuned
        rel = relative_ted_improvement(base.ted, tuned.ted)
        improvements.append(rel)
        wins += tuned.ted <= base.ted
        early = in_band_fraction(run.result.logs, 1, 1, cfg.lam)
        late = in_band_fraction(run.result.logs, cfg.epochs - 1, cfg.epochs, cfg.lam)
        print(
            f"seed {seed}: acc={base.accuracy:.3f} ted {base.ted} -> {tuned.ted} "
            f"({rel:+.1%})  in_band {early:.3f} -> {late:.3f}  "
            f"[{time.perf_counter() - t0:.0f}s]",
            flush=True,
        )
    mean = sum(improvements) / len(improvements)
    print(f"wins: {wins}/{args.seeds}  mean relative improvement: {mean:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
