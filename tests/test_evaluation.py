import numpy as np
import pytest

from edsurrogate.errors import ConfigError
from edsurrogate.evaluation import (
    evaluate_model,
    export_scatter,
    format_summary,
    in_band_fraction,
    read_log_csv,
    read_metrics_csv,
    relative_ted_improvement,
    scatter_rows,
    write_log_csv,
    write_metrics_csv,
)
from edsurrogate.recognizer import (
    RecognizerConfig,
    RecognizerNet,
    load_recognizer,
    save_recognizer,
)
from edsurrogate.synth_data import DatasetConfig, sample_corpus
from edsurrogate.text_metrics import MetricsReport
from edsurrogate.training import PhaseLogRecord

from .oracles import read_scatter_csv, recursive_edit_distance

DCFG = DatasetConfig.desk(corpus_size=20)
RCFG = RecognizerConfig(
    alphabet_size=9, capacity=8, image_height=12, image_width=32, channels=(8, 8)
)


def make_logs():
    records = []
    for epoch in (1, 2):
        for phase in ("surrogate", "recognizer"):
            for iteration in range(3):
                e_hat = 1.0 + 0.1 * iteration + (0.5 if epoch == 1 else 0.0)
                records.append(
                    PhaseLogRecord(
                        epoch=epoch,
                        phase=phase,
                        iteration=iteration,
                        sample_index=iteration,
                        e=1,
                        e_hat=e_hat,
                        loss=e_hat * 0.5,
                        gate_open=abs(e_hat - 1) < 0.25,
                    )
                )
    return records


def test_evaluate_model_on_perfect_predictions():
    report = evaluate_model(RecognizerNet(RCFG), sample_corpus(DCFG), DCFG.alphabet, "toy")
    assert report.n_samples == 20
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.ned <= 1.0
    assert report.ted == sum(ed for _, _, ed in report.rows)


def test_evaluate_model_scores_a_reloaded_checkpoint_alike(tmp_path):
    net = RecognizerNet(RCFG)
    path = tmp_path / "model.bin"
    save_recognizer(path, net)
    images = sample_corpus(DCFG)
    from_net = evaluate_model(net, images, DCFG.alphabet)
    from_path = evaluate_model(load_recognizer(path), images, DCFG.alphabet)
    assert from_net == from_path


def test_evaluate_model_rejects_alphabet_mismatch():
    with pytest.raises(ConfigError):
        evaluate_model(RecognizerNet(RCFG), sample_corpus(DCFG), "_ab")


def test_report_ted_matches_recursive_oracle():
    report = evaluate_model(RecognizerNet(RCFG), sample_corpus(DCFG), DCFG.alphabet)
    assert report.ted == sum(recursive_edit_distance(gt, pred) for gt, pred, _ in report.rows)


def test_relative_ted_improvement():
    assert relative_ted_improvement(100, 80) == pytest.approx(0.2)
    assert relative_ted_improvement(100, 120) == pytest.approx(-0.2)
    assert relative_ted_improvement(0, 5) == 0.0


def test_summary_format():
    report = MetricsReport("toy", 2, 0.5, 0.75, 3, [("ab", "ab", 0), ("cd", "ce", 3)])
    text = format_summary(report)
    assert "dataset: toy" in text
    assert "accuracy: 0.5000" in text
    assert "ted: 3" in text


def test_metrics_csv_round_trip(tmp_path):
    report = evaluate_model(RecognizerNet(RCFG), sample_corpus(DCFG), DCFG.alphabet)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, report)
    rows = read_metrics_csv(path)
    assert [(gt, pred, ed) for _, gt, pred, ed in rows] == report.rows
    assert [i for i, *_ in rows] == list(range(len(report.rows)))


def test_log_csv_round_trip(tmp_path):
    records = make_logs()
    records.append(
        PhaseLogRecord(0, "pretrain", 0, 5, 2, float("nan"), 0.123456789012345, False)
    )
    path = tmp_path / "log.csv"
    write_log_csv(path, records)
    back = read_log_csv(path)
    assert len(back) == len(records)
    for a, b in zip(back, records):
        if np.isnan(b.e_hat):
            assert np.isnan(a.e_hat)
            assert (a.epoch, a.phase, a.loss, a.gate_open) == (
                b.epoch,
                b.phase,
                b.loss,
                b.gate_open,
            )
        else:
            assert a == b


def test_log_csv_is_byte_stable(tmp_path):
    write_log_csv(tmp_path / "a.csv", make_logs())
    write_log_csv(tmp_path / "b.csv", make_logs())
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_scatter_export_round_trip(tmp_path):
    logs = make_logs()
    path = tmp_path / "scatter.csv"
    export_scatter(path, logs, 1, 2, lam=0.25)
    lam, rows = read_scatter_csv(path)
    expected = scatter_rows(logs, 1, 2)
    assert lam == 0.25
    assert rows == [(r.e, r.e_hat, r.iteration) for r in expected]
    assert all(r.phase == "recognizer" for r in expected)


def test_scatter_in_band_rows_are_gate_open_rows():
    logs = make_logs()
    rows = scatter_rows(logs, 1, 2)
    for r in rows:
        assert (abs(r.e_hat - r.e) < 0.25) == r.gate_open


def test_scatter_rejects_empty_range():
    logs = make_logs()
    with pytest.raises(ValueError):
        scatter_rows(logs, 2, 1)
    with pytest.raises(ValueError):
        scatter_rows(logs, 5, 9)


def test_in_band_fraction_improves_in_fake_logs():
    logs = make_logs()
    # epoch 1 e_hat offset 0.5 (all out of band), epoch 2 within 0.25 for early iters
    assert in_band_fraction(logs, 1, 1, 0.25) < in_band_fraction(logs, 2, 2, 0.25)


@pytest.mark.parametrize("reader", [read_log_csv, read_metrics_csv, read_scatter_csv])
@pytest.mark.parametrize("content", ["", "\n", "1,2,3\n", "# lambda=0.25\n"])
def test_readers_reject_empty_or_headerless_files(tmp_path, reader, content):
    path = tmp_path / "bad.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError):
        reader(path)
