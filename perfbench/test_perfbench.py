"""Tests for the benchmark harness itself.

Run from the repository root:  python3 -m pytest perfbench

Toy-size runs of every workload must report every metric BENCHMARK.json
names, with its unit; each output check must fire on a deliberately
corrupted output; a directory without the package source must fail.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from edsurrogate.params import load_checkpoint, save_checkpoint  # noqa: E402
from edsurrogate.recognizer import RecognizerConfig, RecognizerNet, save_recognizer  # noqa: E402
from edsurrogate.synth_data import DatasetConfig, sample_corpus  # noqa: E402
from edsurrogate.text_metrics import evaluate_set  # noqa: E402
from edsurrogate.training import (  # noqa: E402
    PHASE_RECOGNIZER,
    PHASE_SURROGATE,
    PhaseLogRecord,
    TrainConfig,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _toy_main(monkeypatch, tmp_path, capsys, workload, trace):
    monkeypatch.setattr(run, "OUT", tmp_path)
    toys = {name: w.toy() for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", toys)
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_reports_every_metric_with_its_unit(
    monkeypatch, tmp_path, capsys, workload, trace
):
    code, line = _toy_main(monkeypatch, tmp_path, capsys, workload, trace)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: metric["unit"] for name, metric in line["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in line["metrics"].values())


def test_corrupted_pass_is_counted_failed_and_exits_nonzero(monkeypatch, tmp_path, capsys):
    real_pass = workloads.run_pass

    def corrupting_pass(s, out):
        po = real_pass(s, out)
        po.logs[-1] = replace(po.logs[-1], e_hat=float("inf"))
        return po

    monkeypatch.setattr(workloads, "run_pass", corrupting_pass)
    code, line = _toy_main(monkeypatch, tmp_path, capsys, "feds-tune", 0)
    assert code != 0
    assert line["correct"] is False
    assert line["failed"] >= 1


def test_directory_without_package_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# --- each output check on a corrupted log -------------------------------------

CFG = TrainConfig.desk(i_a=2, i_b=2, epochs=2, batch_size=3)


def _clean_logs():
    return [
        PhaseLogRecord(epoch, phase, iteration, sample, 1, 1.1, 0.25, True)
        for _, phase, epoch, iteration in checks.expected_steps(CFG, "feds")
        for sample in range(CFG.batch_size)
    ]


def _corrupt(logs, phase, **changes):
    index = next(i for i, r in enumerate(logs) if r.phase == phase)
    logs[index] = replace(logs[index], **changes)
    return ("step", phase, logs[index].epoch, logs[index].iteration)


def test_clean_log_passes_every_log_check():
    logs = _clean_logs()
    steps = checks.expected_steps(CFG, "feds")
    assert checks.check_finite(logs) == []
    assert checks.check_record_counts(logs, steps, CFG.batch_size) == []
    assert checks.check_closed_gate_zero_loss(logs) == []
    assert checks.check_gate_always_open(logs) == []


@pytest.mark.parametrize("field", ["e_hat", "loss"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_value_fires(field, value):
    logs = _clean_logs()
    op = _corrupt(logs, PHASE_SURROGATE, **{field: value})
    assert [f.op for f in checks.check_finite(logs)] == [op]


def test_closed_gate_with_nonzero_loss_fires():
    logs = _clean_logs()
    op = _corrupt(logs, PHASE_RECOGNIZER, gate_open=False, loss=0.5)
    assert [f.op for f in checks.check_closed_gate_zero_loss(logs)] == [op]
    _corrupt(logs, PHASE_RECOGNIZER, gate_open=False, loss=0.0)
    assert checks.check_closed_gate_zero_loss(logs) == []


def test_closed_gate_in_unfiltered_tuning_fires():
    logs = _clean_logs()
    op = _corrupt(logs, PHASE_RECOGNIZER, gate_open=False, loss=0.0)
    assert [f.op for f in checks.check_gate_always_open(logs)] == [op]


def test_missing_and_unexpected_records_fire():
    steps = checks.expected_steps(CFG, "feds")
    logs = _clean_logs()
    dropped = logs.pop(0)
    assert [f.op for f in checks.check_record_counts(logs, steps, CFG.batch_size)] == [
        ("step", dropped.phase, dropped.epoch, dropped.iteration)
    ]
    logs = _clean_logs() + [PhaseLogRecord(9, PHASE_SURROGATE, 0, 0, 1, 1.0, 0.0, True)]
    assert [f.op for f in checks.check_record_counts(logs, steps, CFG.batch_size)] == [
        ("step", PHASE_SURROGATE, 9, 0)
    ]


def test_short_evaluation_fires():
    report = evaluate_set(["ab", "c"], ["ab", "cd"], "test")
    assert checks.check_eval_count("after", report, 2) == []
    assert [f.op for f in checks.check_eval_count("after", report, 3)] == [("eval", "after")]


@pytest.fixture
def toy_net_and_images():
    dcfg = DatasetConfig.desk(corpus_size=4)
    net = RecognizerNet(
        RecognizerConfig(
            alphabet_size=len(dcfg.alphabet),
            capacity=dcfg.capacity,
            image_height=dcfg.image_height,
            image_width=dcfg.image_width,
        )
    )
    return net, sample_corpus(dcfg)


def test_checkpoint_that_reloads_differently_fires(tmp_path, toy_net_and_images):
    net, images = toy_net_and_images
    path = tmp_path / "recognizer_epoch1.bin"
    save_recognizer(path, net)
    assert checks.check_checkpoint(path, net, images) == []
    header, arrays = load_checkpoint(path)
    arrays["head.bias"][0, 0] += 1e-12
    save_checkpoint(path, header, arrays)
    assert [f.op for f in checks.check_checkpoint(path, net, images)] == [
        ("checkpoint", path.name)
    ]


def test_checkpoint_that_does_not_reload_or_was_not_written_fires(
    tmp_path, toy_net_and_images
):
    net, images = toy_net_and_images
    path = tmp_path / "recognizer_epoch1.bin"
    save_recognizer(path, net)
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    assert len(checks.check_checkpoint(path, net, images)) == 1
    path.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0x01]))  # corrupts the image width
    assert len(checks.check_checkpoint(path, net, images)) == 1
    assert len(checks.check_checkpoint(path, None, images)) == 1


# --- tracer arithmetic ----------------------------------------------------------


def test_self_time_subtracts_child_spans_and_steps_split_at_optimizer_calls():
    S = tracer.Span
    spans = [
        S(tracer.PHASES["tune"], "", 0.0, 10.0, -1, "r", 100),
        S("recognizer.forward", "", 1.0, 3.0, 0, "r", 40),
        S(tracer.STEP, "", 3.0, 4.0, 0, "r", 10),
        S("recognizer.forward", "", 5.0, 6.0, 0, "r", 40),
        S(tracer.STEP, "", 6.0, 7.0, 0, "r", 10),
        S("recognizer.forward", "", 0.0, 99.0, -1, "other", 1),
    ]
    summary = tracer.summarize(spans, "r")
    assert summary.self_seconds["training"] == pytest.approx((10.0 - 5.0) + 2.0)
    assert summary.self_seconds["recognizer"] == pytest.approx(3.0)
    assert summary.calls[("recognizer.forward", "")] == 2
    assert summary.steps["tune"] == pytest.approx([4.0, 3.0])
    assert summary.step_count == 2 and summary.phase_nodes == 100


def test_tail_uses_highest_percentile_with_ten_samples_beyond():
    assert tracer.tail([float(i) for i in range(1, 201)])[1] == 95
    assert tracer.tail([float(i) for i in range(1, 41)])[1] == 75
    assert tracer.tail([1.0, 2.0]) == (2.0, 100)
