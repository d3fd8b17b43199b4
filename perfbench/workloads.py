"""The benchmark's workloads.

Each workload sets up its inputs from the workload seed (corpus rendering,
split, recognizer built or loaded) and then runs passes: one pass is the
sequence of library calls that `edsurrogate train-baseline` or
`edsurrogate tune --checkpoint` makes after its setup, output files included.
Calls go through the package's module attributes so that a tracer can
rebind them.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from edsurrogate import evaluation, recognizer, synth_data, training

import checks

DATA_DIR = Path(__file__).resolve().parent / "data"
BASELINE_RECORD = DATA_DIR / "baseline_seed0.json"


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str | None  # tuning mode; None pretrains from scratch
    corpus_size: int
    train: dict  # overrides of TrainConfig.desk

    def toy(self) -> "Workload":
        """Same calls at a size a unit test can afford."""
        if self.mode is None:
            train = dict(pretrain_iterations=3, batch_size=4)
        else:
            train = dict(i_a=2, i_b=2, epochs=2, batch_size=4)
        return replace(self, corpus_size=40, train=train)


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pretrain", None, 5000, dict(pretrain_iterations=150)),
        Workload("feds-tune", "feds", 5000, dict(i_a=3, i_b=3)),
        Workload("lsed-tune", "lsed", 500, dict(i_a=60, i_b=10, epochs=1)),
    )
}


@dataclass
class Setup:
    workload: Workload
    dcfg: synth_data.DatasetConfig
    cfg: training.TrainConfig
    split: synth_data.SplitCorpus
    recognizer: recognizer.RecognizerNet


@dataclass
class PassOutput:
    logs: list
    reports: dict  # evaluation name -> MetricsReport
    snapshots: dict  # checkpoint name -> the net as it was saved


def verified_baseline() -> Path:
    """The committed seed-0 baseline, after checking its recorded digest."""
    record = json.loads(BASELINE_RECORD.read_text(encoding="utf-8"))
    path = DATA_DIR / record["file"]
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != record["sha256"]:
        raise ValueError(f"{path.name} has sha256 {digest}, recorded {record['sha256']}")
    return path


def configs(w: Workload, seed: int):
    """The dataset and training configs the CLI would build for this seed."""
    dcfg = synth_data.DatasetConfig.desk(seed=seed, corpus_size=w.corpus_size)
    overrides = dict(w.train, seed=seed)
    if w.mode is not None:
        overrides["mode"] = w.mode
    return dcfg, training.TrainConfig.desk(**overrides)


def starting_net(w: Workload, dcfg, seed: int) -> recognizer.RecognizerNet:
    """A fresh net for pretraining, or the fixed baseline for tuning (as
    `tune --checkpoint`)."""
    if w.mode is not None:
        return recognizer.load_recognizer(verified_baseline())
    return recognizer.RecognizerNet(
        recognizer.RecognizerConfig(
            alphabet_size=len(dcfg.alphabet),
            capacity=dcfg.capacity,
            image_height=dcfg.image_height,
            image_width=dcfg.image_width,
            seed=seed,
        )
    )


def set_up(w: Workload, seed: int) -> Setup:
    """Render and split the corpus, then build or load the net."""
    dcfg, cfg = configs(w, seed)
    split = synth_data.split_corpus(synth_data.sample_corpus(dcfg))
    return Setup(w, dcfg, cfg, split, starting_net(w, dcfg, seed))


@contextmanager
def _snapshot_saves(snapshots: dict):
    """Keep a copy of each recognizer that post-tuning checkpoints, so the
    checkpoint can be compared with the net as it was when saved."""
    save = training.save_recognizer

    def save_and_snapshot(path, net):
        save(path, net)
        copy = recognizer.RecognizerNet(net.config)
        copy.params.load_arrays(net.params.to_arrays())
        snapshots[Path(path).name] = copy

    training.save_recognizer = save_and_snapshot
    try:
        yield
    finally:
        training.save_recognizer = save


def run_pass(s: Setup, out: Path) -> PassOutput:
    """The timed work on s's starting net: training, evaluation, and every
    file the CLI writes."""
    net, test, alphabet = s.recognizer, s.split.test, s.dcfg.alphabet
    if s.workload.mode is None:
        logs: list = []
        training.pretrain_recognizer(s.split.train, net, s.cfg, s.dcfg, logs)
        recognizer.save_recognizer(out / "baseline.bin", net)
        evaluation.write_log_csv(out / "log.csv", logs)
        after = evaluation.evaluate_model(net, test, alphabet, dataset_id="test")
        reports = {"after": after}
        summary = evaluation.format_summary(after)
        snapshots = {"baseline.bin": net}
    else:
        snapshots = {}
        before = evaluation.evaluate_model(net, test, alphabet, dataset_id="test")
        with _snapshot_saves(snapshots):
            result = training.run_post_tuning(s.cfg, s.dcfg, s.split, net, None, out_dir=out)
        logs, net = result.logs, result.recognizer
        evaluation.write_log_csv(out / "log.csv", logs)
        after = evaluation.evaluate_model(net, test, alphabet, dataset_id="test")
        reports = {"before": before, "after": after}
        rel = evaluation.relative_ted_improvement(before.ted, after.ted)
        summary = evaluation.format_summary(after) + (
            f"\nted {before.ted} -> {after.ted} (relative improvement {rel:+.4f})"
        )
    evaluation.write_metrics_csv(out / "metrics.csv", after)
    (out / "summary.txt").write_text(summary + "\n", encoding="utf-8")
    return PassOutput(logs, reports, snapshots)


def checkpoint_names(w: Workload, cfg) -> list[str]:
    if w.mode is None:
        return ["baseline.bin"]
    return [f"recognizer_epoch{e}.bin" for e in range(1, cfg.epochs + 1)]


def operations(w: Workload, cfg) -> list[tuple]:
    """What one pass attempts: optimizer steps, evaluations, checkpoints."""
    evals = ["after"] if w.mode is None else ["before", "after"]
    return (
        checks.expected_steps(cfg, w.mode)
        + [("eval", name) for name in evals]
        + [("checkpoint", name) for name in checkpoint_names(w, cfg)]
    )


def check_pass(s: Setup, po: PassOutput, out: Path) -> list[checks.Failure]:
    mode = s.workload.mode
    steps = checks.expected_steps(s.cfg, mode)
    failures = checks.check_finite(po.logs)
    failures += checks.check_record_counts(po.logs, steps, s.cfg.batch_size)
    if mode == "feds":
        failures += checks.check_closed_gate_zero_loss(po.logs)
    if mode == "lsed":
        failures += checks.check_gate_always_open(po.logs)
    for name, report in po.reports.items():
        failures += checks.check_eval_count(name, report, len(s.split.test))
    for name in checkpoint_names(s.workload, s.cfg):
        failures += checks.check_checkpoint(out / name, po.snapshots.get(name), s.split.test)
    return failures


def pass_facts(s: Setup, po: PassOutput, out: Path) -> dict:
    """Quality and size figures read from a pass's outputs."""
    logs = po.logs
    tune = [r for r in logs if r.phase == training.PHASE_RECOGNIZER]
    real = [
        r
        for r in logs
        if r.phase == training.PHASE_SURROGATE
        and r.sample_index != training.GENERATED_SAMPLE_INDEX
    ]
    facts = {
        "heldout_ted": po.reports["after"].ted,
        "gate_open_frac": sum(r.gate_open for r in tune) / len(tune) if tune else 0.0,
        "surrogate_real_samples": len(real),
        "checkpoint_bytes": sum(p.stat().st_size for p in out.glob("*.bin")),
        "log_bytes": (out / "log.csv").stat().st_size,
        "in_band_frac": 0.0,
    }
    if s.workload.mode is not None:
        last = s.cfg.epochs
        facts["in_band_frac"] = evaluation.in_band_fraction(
            logs, max(1, last - 1), last, s.cfg.lam
        )
    return facts


def output_digest(out: Path) -> str:
    """One digest over every file a pass wrote, for the rerun check."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()
