"""Output checks for one benchmark pass.

Each check returns the operations it failed. An operation is an optimizer
step ("step", phase, epoch, iteration), an evaluation ("eval", name) or a
recognizer checkpoint write ("checkpoint", file name). The benchmark's
failure count is the number of distinct failed operations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from edsurrogate.recognizer import forward, load_recognizer
from edsurrogate.training import PHASE_PRETRAIN, PHASE_RECOGNIZER, PHASE_SURROGATE


@dataclass(frozen=True)
class Failure:
    op: tuple
    message: str


def expected_steps(cfg, mode: str | None) -> list[tuple]:
    """Every optimizer step a pass must log; mode None is pretraining."""
    if mode is None:
        return [("step", PHASE_PRETRAIN, 0, i) for i in range(cfg.pretrain_iterations)]
    steps = []
    for epoch in range(1, cfg.epochs + 1):
        steps += [("step", PHASE_SURROGATE, epoch, i) for i in range(cfg.i_a)]
        steps += [("step", PHASE_RECOGNIZER, epoch, i) for i in range(cfg.i_b)]
    return steps


def _step(record) -> tuple:
    return ("step", record.phase, record.epoch, record.iteration)


def check_finite(logs) -> list[Failure]:
    """e, e_hat and loss are finite. Pretraining logs no e_hat (NaN by design)."""
    failures = []
    for r in logs:
        values = (r.e, r.loss) if r.phase == PHASE_PRETRAIN else (r.e, r.e_hat, r.loss)
        if not all(math.isfinite(v) for v in values):
            failures.append(Failure(_step(r), f"non-finite value in {r}"))
    return failures


def check_closed_gate_zero_loss(logs) -> list[Failure]:
    """A closed gate must contribute exactly nothing to the tuning loss."""
    return [
        Failure(_step(r), f"closed-gate record with loss {r.loss!r}")
        for r in logs
        if r.phase == PHASE_RECOGNIZER and not r.gate_open and r.loss != 0.0
    ]


def check_gate_always_open(logs) -> list[Failure]:
    """Unfiltered tuning trains on every sample."""
    return [
        Failure(_step(r), "closed gate in unfiltered tuning")
        for r in logs
        if r.phase == PHASE_RECOGNIZER and not r.gate_open
    ]


def check_record_counts(logs, steps: list[tuple], batch_size: int) -> list[Failure]:
    """One record per sample: batch_size records for each expected step."""
    counts = Counter(_step(r) for r in logs)
    failures = [
        Failure(op, f"{counts.get(op, 0)} records, expected {batch_size}")
        for op in steps
        if counts.get(op, 0) != batch_size
    ]
    expected = set(steps)
    failures += [
        Failure(op, f"{n} records for a step that should not exist")
        for op, n in counts.items()
        if op not in expected
    ]
    return failures


def check_eval_count(name: str, report, n_images: int) -> list[Failure]:
    if report.n_samples == n_images and len(report.rows) == n_images:
        return []
    return [
        Failure(
            ("eval", name),
            f"evaluation scored {report.n_samples} samples ({len(report.rows)} rows), "
            f"split has {n_images}",
        )
    ]


def _grid_bytes(net, images) -> bytes:
    """Every soft-max grid the net produces on images, as raw float64 bytes."""
    return b"".join(forward(image, net).values.tobytes() for image in images)


def check_checkpoint(path: Path, in_memory, images) -> list[Failure]:
    """The checkpoint reloads to a net whose outputs equal the in-memory
    net's bit for bit. in_memory is None when the pass never saved it."""
    op = ("checkpoint", path.name)
    if in_memory is None:
        return [Failure(op, f"{path.name} was not written")]
    try:
        reloaded = _grid_bytes(load_recognizer(path), images)
    except (ValueError, OSError) as exc:
        return [Failure(op, f"{path.name} does not reload to a usable net: {exc}")]
    if reloaded != _grid_bytes(in_memory, images):
        return [Failure(op, f"{path.name} reloads to different test-split outputs")]
    return []
