"""Model evaluation and the CSV surfaces: per-sample metrics, phase logs,
and the scatter export of (true ED, surrogate ED) pairs.

All writers are deterministic: same inputs give byte-identical files.
Floats are serialized with repr so every file round-trips losslessly.
"""

from __future__ import annotations

from pathlib import Path

from .blas import one_blas_thread
from .errors import ConfigError
from .recognizer import RecognizerNet, WordImage, forward
from .text_metrics import Alphabet, MetricsReport, decode_greedy, evaluate_set
from .training import PHASE_PRETRAIN, PHASE_RECOGNIZER, PHASE_SURROGATE, PhaseLogRecord

LOG_HEADER = "epoch,phase,iteration,sample_index,e,e_hat,loss,gate_open"
METRICS_HEADER = "sample_index,gt,pred,ed"
SCATTER_HEADER = "e,e_hat,iteration"

# Images per evaluation graph. A whole split in one graph would hold every
# intermediate activation at once; fixed chunks bound the peak memory.
EVAL_CHUNK = 32


@one_blas_thread()
def evaluate_model(
    net: RecognizerNet, images: list[WordImage], alphabet: Alphabet, dataset_id: str = ""
) -> MetricsReport:
    """Greedy-decode every image and score against its label."""
    if net.config.alphabet_size != len(alphabet):
        raise ConfigError(
            f"model alphabet size {net.config.alphabet_size} != dataset {len(alphabet)}"
        )
    if not images:
        raise ConfigError("empty evaluation split")
    preds = []
    for start in range(0, len(images), EVAL_CHUNK):
        chunk = images[start : start + EVAL_CHUNK]
        preds += decode_greedy(forward(chunk, net).values, len(chunk), alphabet)
    return evaluate_set(preds, [image.label for image in images], dataset_id)


def relative_ted_improvement(ted_base: int, ted_tuned: int) -> float:
    """(base - tuned) / base; 0 when the baseline is already perfect."""
    if ted_base == 0:
        return 0.0
    return (ted_base - ted_tuned) / ted_base


def format_summary(report: MetricsReport) -> str:
    return (
        f"dataset: {report.dataset_id}\n"
        f"samples: {report.n_samples}\n"
        f"accuracy: {report.accuracy:.4f}\n"
        f"ned: {report.ned:.4f}\n"
        f"ted: {report.ted}\n"
    )


def write_metrics_csv(path, report: MetricsReport) -> None:
    lines = [METRICS_HEADER]
    for index, (gt, pred, ed) in enumerate(report.rows):
        lines.append(f"{index},{gt},{pred},{ed}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_rows(path, header: str, parse) -> list:
    """parse(*fields) of each row after the file's header line. A row that
    does not parse raises ValueError naming path:line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: no header line, expected {header!r}")
    if lines[0] != header:
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    width, rows = header.count(",") + 1, []
    for number, line in enumerate(lines[1:], start=2):
        values = line.split(",")
        try:
            if len(values) != width:
                raise ValueError(f"expected {width} fields, got {len(values)}")
            rows.append(parse(*values))
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    return rows


def read_metrics_csv(path) -> list[tuple[int, str, str, int]]:
    def parse(index, gt, pred, ed):
        return int(index), gt, pred, int(ed)

    return _read_rows(path, METRICS_HEADER, parse)


def write_log_csv(path, records: list[PhaseLogRecord]) -> None:
    lines = [LOG_HEADER]
    for r in records:
        lines.append(
            f"{r.epoch},{r.phase},{r.iteration},{r.sample_index},"
            f"{int(r.e)},{r.e_hat!r},{r.loss!r},{int(r.gate_open)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_log_csv(path) -> list[PhaseLogRecord]:
    def parse(epoch, phase, iteration, sample_index, e, e_hat, loss, gate):
        if phase not in (PHASE_PRETRAIN, PHASE_SURROGATE, PHASE_RECOGNIZER):
            raise ValueError(f"unknown phase {phase!r}")
        if int(e) < 0:
            raise ValueError(f"edit distance e must be >= 0, got {e}")
        if gate not in ("0", "1"):
            raise ValueError(f"gate_open must be 0 or 1, got {gate!r}")
        return PhaseLogRecord(
            epoch=int(epoch),
            phase=phase,
            iteration=int(iteration),
            sample_index=int(sample_index),
            e=int(e),
            e_hat=float(e_hat),
            loss=float(loss),
            gate_open=gate == "1",
        )

    return _read_rows(path, LOG_HEADER, parse)


def scatter_rows(
    logs: list[PhaseLogRecord], first_epoch: int, last_epoch: int
) -> list[PhaseLogRecord]:
    """Recognizer-phase records with first_epoch <= epoch <= last_epoch."""
    if first_epoch > last_epoch:
        raise ValueError("empty epoch range")
    rows = [
        r
        for r in logs
        if r.phase == PHASE_RECOGNIZER and first_epoch <= r.epoch <= last_epoch
    ]
    if not rows:
        raise ValueError(f"no recognizer-phase records in epochs [{first_epoch}, {last_epoch}]")
    return rows


def export_scatter(
    path, logs: list[PhaseLogRecord], first_epoch: int, last_epoch: int, lam: float
) -> None:
    """One row per recognizer-phase sample; the gate band rides as metadata."""
    rows = scatter_rows(logs, first_epoch, last_epoch)
    lines = [f"# lambda={lam!r}", SCATTER_HEADER]
    for r in rows:
        lines.append(f"{int(r.e)},{r.e_hat!r},{r.iteration}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def in_band_fraction(
    logs: list[PhaseLogRecord], first_epoch: int, last_epoch: int, lam: float
) -> float:
    """Fraction of recognizer-phase samples with |e_hat - e| < lam."""
    rows = scatter_rows(logs, first_epoch, last_epoch)
    hits = sum(1 for r in rows if abs(r.e_hat - r.e) < lam)
    return hits / len(rows)
