"""Smoke test of the desk scripts at toy size: the desk presets they read
are shrunk, so each script runs its whole path in seconds."""

import functools
import importlib.util
from pathlib import Path

import pytest

from edsurrogate.synth_data import DatasetConfig
from edsurrogate.training import TrainConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def toy_presets(monkeypatch):
    toy_data = functools.partial(DatasetConfig.desk, corpus_size=60)
    toy_train = functools.partial(
        TrainConfig.desk, epochs=2, i_a=2, i_b=2, batch_size=4, pretrain_iterations=20
    )
    monkeypatch.setattr(DatasetConfig, "desk", toy_data)
    monkeypatch.setattr(TrainConfig, "desk", toy_train)


def test_run_desk_writes_both_arms_and_prints_the_table(toy_presets, tmp_path, capsys):
    out = tmp_path / "desk"
    assert _load("run_desk").main(["--seed", "1", "--epochs", "2", "--out", str(out)]) == 0
    written = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    arm = {"log.csv", "metrics.csv"} | {
        f"{net}_epoch{e}.bin" for net in ("recognizer", "surrogate") for e in (1, 2)
    }
    assert written == (
        {"baseline.bin", "baseline_metrics.csv", "feds/scatter.csv"}
        | {f"feds/{name}" for name in arm}
        | {f"lsed/{name}" for name in arm}
    )
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["dataset: test", "samples: 6"]
    assert lines[6] == "epoch  in_band"
    assert [line.split()[0] for line in lines[7:9]] == ["1", "2"]
    assert [line.split(":")[0] for line in lines[9:]] == ["feds", "lsed"]


def test_seed_sweep_prints_a_line_per_seed_and_the_wins(toy_presets, capsys):
    assert _load("seed_sweep").main(["--seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["seed 0", "seed 1", "wins"]
    assert lines[2].startswith("wins: ") and "/2  mean relative improvement: " in lines[2]


def test_seed_sweep_rejects_fewer_than_one_seed(capsys):
    with pytest.raises(SystemExit) as exit_info:
        _load("seed_sweep").main(["--seeds", "0"])
    assert exit_info.value.code == 2
    assert "--seeds must be >= 1" in capsys.readouterr().err
