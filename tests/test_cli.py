"""End-to-end tests for the command-line front end at toy scale."""

import json

import numpy as np
import pytest

from edsurrogate.cli import _configs, build_parser, main
from edsurrogate.evaluation import (
    LOG_HEADER,
    read_log_csv,
    read_metrics_csv,
    write_log_csv,
)
from edsurrogate.params import load_checkpoint, save_checkpoint
from edsurrogate.recognizer import RecognizerConfig, RecognizerNet, save_recognizer

from .oracles import load_dataset, read_scatter_csv

TINY = {
    "seed": 3,
    "dataset": {"corpus_size": 60, "noise_std": 0.3},
    "train": {
        "pretrain_iterations": 30,
        "i_a": 4,
        "i_b": 4,
        "epochs": 2,
        "batch_size": 4,
    },
    "surrogate": {"embedding_dim": 16, "channels": [8, 8, 8, 8, 8], "hidden": 16},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny gen-data + train-baseline + tune run shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps(TINY), encoding="utf-8")
    cfg = str(config)
    assert main(["gen-data", "--config", cfg, "--out", str(root / "data")]) == 0
    assert main(["train-baseline", "--config", cfg, "--out", str(root / "base")]) == 0
    assert (
        main(
            [
                "tune",
                "--config",
                cfg,
                "--out",
                str(root / "tune"),
                "--checkpoint",
                str(root / "base" / "baseline.bin"),
            ]
        )
        == 0
    )
    return root


def test_gen_data_round_trip(workspace):
    images, cfg = load_dataset(workspace / "data")
    assert len(images) == TINY["dataset"]["corpus_size"]
    assert cfg.noise_std == TINY["dataset"]["noise_std"]
    assert cfg.seed == TINY["seed"]


def test_gen_data_is_deterministic(workspace, tmp_path):
    config = str(workspace / "config.json")
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "again")]) == 0
    for name in ("labels.tsv", "dataset.json", "img_00000.pgm"):
        assert (tmp_path / "again" / name).read_bytes() == (
            workspace / "data" / name
        ).read_bytes()


def test_train_baseline_outputs(workspace):
    out = workspace / "base"
    assert (out / "baseline.bin").exists()
    assert (out / "summary.txt").read_text(encoding="utf-8").startswith("dataset: test")
    rows = read_metrics_csv(out / "metrics.csv")
    assert len(rows) == 6
    records = read_log_csv(out / "log.csv")
    assert {r.phase for r in records} == {"pretrain"}


def test_tune_outputs(workspace):
    out = workspace / "tune"
    for epoch in (1, 2):
        assert (out / f"recognizer_epoch{epoch}.bin").exists()
        assert (out / f"surrogate_epoch{epoch}.bin").exists()
    records = read_log_csv(out / "log.csv")
    assert {r.phase for r in records} == {"surrogate", "recognizer"}
    assert "relative improvement" in (out / "summary.txt").read_text(encoding="utf-8")


def test_tune_is_deterministic(workspace, tmp_path):
    config = str(workspace / "config.json")
    args = ["--config", config, "--checkpoint", str(workspace / "base" / "baseline.bin")]
    assert main(["tune", "--out", str(tmp_path / "again"), *args]) == 0
    for name in ("log.csv", "metrics.csv", "recognizer_epoch2.bin"):
        assert (tmp_path / "again" / name).read_bytes() == (
            workspace / "tune" / name
        ).read_bytes()


def test_epochs_flag_wins_over_config(workspace, tmp_path):
    config = str(workspace / "config.json")
    out = tmp_path / "one"
    args = ["--config", config, "--checkpoint", str(workspace / "base" / "baseline.bin")]
    assert main(["tune", "--out", str(out), "--epochs", "1", *args]) == 0
    assert max(r.epoch for r in read_log_csv(out / "log.csv")) == 1
    assert not (out / "recognizer_epoch2.bin").exists()


def test_lsed_mode_keeps_every_gate_open(workspace, tmp_path):
    config = str(workspace / "config.json")
    out = tmp_path / "lsed"
    args = ["--config", config, "--checkpoint", str(workspace / "base" / "baseline.bin")]
    assert main(["tune", "--out", str(out), "--mode", "lsed", *args]) == 0
    records = [r for r in read_log_csv(out / "log.csv") if r.phase == "recognizer"]
    assert records and all(r.gate_open for r in records)


def test_seed_flag_wins_over_config(workspace, tmp_path):
    config = str(workspace / "config.json")
    assert main(["gen-data", "--config", config, "--seed", "9", "--out", str(tmp_path / "d")]) == 0
    _, cfg = load_dataset(tmp_path / "d")
    assert cfg.seed == 9


def test_seed_flag_overrides_dataset_and_train_seeds_but_not_a_net_section_seed(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "recognizer": {"seed": 3}}), encoding="utf-8")
    argv = ["tune", "--config", str(path), "--seed", "9", "--out", str(tmp_path / "t")]
    spec = _configs(build_parser().parse_args(argv))
    assert (spec.dataset.seed, spec.train.seed, spec.surrogate.seed) == (9, 9, 9)
    assert spec.recognizer.seed == 3


def test_evaluate_checkpoint(workspace, tmp_path):
    config = str(workspace / "config.json")
    out = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--config",
            config,
            "--out",
            str(out),
            "--checkpoint",
            str(workspace / "tune" / "recognizer_epoch2.bin"),
            "--split",
            "val",
        ]
    )
    assert code == 0
    assert (out / "summary.txt").read_text(encoding="utf-8").startswith("dataset: val")
    assert len(read_metrics_csv(out / "metrics.csv")) == 6


def test_evaluate_missing_checkpoint_fails(workspace, tmp_path, capsys):
    config = str(workspace / "config.json")
    code = main(
        [
            "evaluate",
            "--config",
            config,
            "--out",
            str(tmp_path / "eval"),
            "--checkpoint",
            str(tmp_path / "absent.bin"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_scatter_from_log(workspace, tmp_path):
    config = str(workspace / "config.json")
    out = tmp_path / "scatter"
    code = main(
        [
            "scatter",
            "--config",
            config,
            "--out",
            str(out),
            "--log",
            str(workspace / "tune" / "log.csv"),
            "--lambda",
            "0.5",
        ]
    )
    assert code == 0
    lam, rows = read_scatter_csv(out / "scatter.csv")
    assert lam == 0.5
    assert rows


def test_scatter_empty_epoch_range_fails(workspace, tmp_path, capsys):
    config = str(workspace / "config.json")
    code = main(
        [
            "scatter",
            "--config",
            config,
            "--out",
            str(tmp_path / "s"),
            "--log",
            str(workspace / "tune" / "log.csv"),
            "--first-epoch",
            "7",
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_non_object_config_fails(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text("[1, 2]", encoding="utf-8")
    code = main(["gen-data", "--config", str(config), "--out", str(tmp_path / "d")])
    assert code == 2
    assert "JSON object" in capsys.readouterr().err


def test_deeply_nested_config_is_one_error_line_naming_the_file(tmp_path, capsys):
    path = tmp_path / "deep.json"
    depth = 100_000
    path.write_text('{"train": ' + "[" * depth + "]" * depth + "}", encoding="utf-8")
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == f"error: config file {path} nests too deeply\n"
    assert not (tmp_path / "d").exists()


def test_unknown_mode_is_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["tune", "--mode", "unfiltered", "--out", str(tmp_path / "t")])


@pytest.mark.parametrize(
    "command,train,message",
    [
        pytest.param(
            "train-baseline",
            {"eta_pre": 1e300},
            "pretrain phase diverged at epoch 0, iteration ",
            id="pretrain",
        ),
        pytest.param(
            "tune",
            {"eta_a": 1e300},
            "surrogate phase diverged at epoch 1, iteration 1",
            id="surrogate",
        ),
        # lsed keeps every gate open; under feds this rate closes them all
        # and nothing diverges.
        pytest.param(
            "tune",
            {"eta_b": 1e300, "mode": "lsed"},
            "recognizer phase diverged at epoch 1, iteration 1",
            id="recognizer",
        ),
    ],
)
def test_divergence_is_one_error_line_naming_the_step(tmp_path, capsys, command, train, message):
    config = tmp_path / "diverge.json"
    train = {"pretrain_iterations": 5, "batch_size": 2, "i_a": 3, "i_b": 3, "epochs": 1, **train}
    config.write_text(
        json.dumps({"seed": 1, "dataset": {"corpus_size": 20}, "train": train}),
        encoding="utf-8",
    )
    code = main([command, "--config", str(config), "--out", str(tmp_path / "b")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "section,key,command",
    [
        ("train", "optimiser", "train-baseline"),
        ("train", "optimizer", "train-baseline"),  # an option that no longer exists
        ("train", "gate_mode", "tune"),  # an option that no longer exists
        ("train", "rho", "tune"),  # ADADELTA's rho and eps are fixed constants
        ("train", "eps", "train-baseline"),
        ("train", "w1", "tune"),  # the fit term's weight is fixed at 1
        ("train", "w1", "train-baseline"),
        ("dataset", "colour", "gen-data"),
        ("recognizer", "chanels", "train-baseline"),
        ("surrogate", "hiden", "tune"),
        # sections that the command itself does not read
        ("train", "optimiser", "gen-data"),
        ("recognizer", "chanels", "evaluate"),
    ],
)
def test_unknown_config_key_is_one_error_line(tmp_path, capsys, section, key, command):
    config = {"dataset": {"corpus_size": 20}, "train": {"pretrain_iterations": 1}}
    config.setdefault(section, {})[key] = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    extra = ["--checkpoint", str(tmp_path / "absent.bin")] if command == "evaluate" else []
    code = main([command, "--config", str(path), "--out", str(tmp_path / "out"), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown {section} key {key!r}\n"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "command,section,key,value",
    [
        ("train-baseline", "dataset", "corpus_size", 40.5),
        ("train-baseline", "train", "batch_size", 2.5),
        ("train-baseline", "train", "i_a", "3"),
        ("train-baseline", "dataset", "alphabet", 5),
        ("train-baseline", "dataset", "capacity", True),
        ("train-baseline", None, "seed", 2.5),
        ("train-baseline", "train", "lam", 10**400),
        ("tune", "dataset", "noise_std", NAN),
        ("tune", "train", "w2", NAN),
        ("tune", "train", "eta_a", NAN),
        ("tune", "train", "eta_b", INF),
        ("tune", "train", "eta_pre", -INF),
        ("tune", "surrogate", "slope", INF),
        ("tune", "surrogate", "slope", 1.5),
        ("tune", "recognizer", "channels", [8, 2.5]),
        # sections that the command itself does not build
        ("train-baseline", "surrogate", "slope", NAN),
        ("gen-data", "surrogate", "slope", NAN),
        ("gen-data", "train", "eta_a", NAN),
        ("gen-data", "recognizer", "kernel", 2.5),
        ("evaluate", "train", "batch_size", 2.5),
        ("scatter", "dataset", "noise_std", INF),
    ],
)
def test_config_value_of_wrong_type_is_one_error_line(
    tmp_path, capsys, command, section, key, value
):
    config = {"dataset": {"corpus_size": 20}, "train": {"pretrain_iterations": 1}}
    (config.setdefault(section, {}) if section else config)[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")  # NaN and Infinity as Python's json writes them
    # evaluate and scatter fail on an absent input with another message, so
    # these cases pass only if the config is checked first
    extra = {"evaluate": ["--checkpoint", "absent.bin"], "scatter": ["--log", "absent.csv"]}
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
    code = main(argv + extra.get(command, []))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"key {key!r}" in err


@pytest.mark.parametrize(
    "flags,train,message",
    [
        (["--epochs", "0"], {}, "train key 'epochs' must be >= 1, got 0"),
        (["--lambda", "-1"], {}, "train key 'lam' must be > 0, got -1.0"),
        ([], {"eta_b": 0}, "train key 'eta_b' must be > 0, got 0"),
        ([], {"batch_size": 0}, "train key 'batch_size' must be >= 1, got 0"),
        ([], {"w2": -0.5}, "train key 'w2' must be >= 0, got -0.5"),
    ],
    ids=["epochs-flag", "lambda-flag", "eta_b", "batch_size", "w2"],
)
def test_train_value_out_of_range_is_one_error_line_naming_key_and_value(
    tmp_path, capsys, flags, train, message
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dataset": {"corpus_size": 20}, "train": train}), encoding="utf-8")
    argv = ["tune", "--config", str(path), "--out", str(tmp_path / "t"), *flags]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize(
    "section,key,value,message",
    [
        ("dataset", "capacity", 0, "dataset key 'capacity' must be >= 1, got 0"),
        ("dataset", "image_height", 0, "dataset key 'image_height' must be >= 1, got 0"),
        ("dataset", "glyph_seed", -1, "dataset key 'glyph_seed' must be >= 0, got -1"),
        (
            "dataset",
            "alphabet",
            "_aa",
            "dataset key 'alphabet' must hold each symbol once, got '_aa'",
        ),
        ("dataset", "alphabet", "_", "dataset key 'alphabet' must hold at least 2 symbols, got '_'"),
        ("surrogate", "hidden", 0, "surrogate key 'hidden' must be >= 1, got 0"),
        ("surrogate", "seed", -1, "surrogate key 'seed' must lie in [0, 2**53], got -1"),
        (
            "recognizer",
            "kernel",
            2,
            "recognizer key 'kernel' must be odd and >= 1, so same-padding is exact, got 2",
        ),
        ("train", "mode", "x", "train key 'mode' must be one of ('feds', 'lsed'), got 'x'"),
    ],
    ids=[
        "dataset-capacity",
        "dataset-image_height",
        "dataset-glyph_seed",
        "dataset-alphabet-repeat",
        "dataset-alphabet-single",
        "surrogate-hidden",
        "surrogate-seed",
        "recognizer-kernel",
        "train-mode",
    ],
)
def test_config_value_out_of_range_is_one_error_line_naming_key_and_value(
    tmp_path, capsys, section, key, value, message
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("glyph_width", [0, -1])
def test_glyph_width_below_one_is_one_error_line(tmp_path, capsys, glyph_width):
    path = tmp_path / "config.json"
    config = {"dataset": {"corpus_size": 4, "glyph_width": glyph_width}}
    path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "glyph_width" in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "alphabet", ["_a,b\t", "_ab\t", "_a\rb", "_ab\n", "_a\u2028b", "_a\x85b", "_a\x1cb"]
)
def test_alphabet_holding_a_file_separator_is_one_error_line(tmp_path, capsys, alphabet):
    # metrics.csv splits on commas and labels.tsv on tabs, both by line, and
    # their readers split lines with str.splitlines.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"dataset": {"alphabet": alphabet}}), encoding="utf-8")
    assert main(["train-baseline", "--config", str(path), "--out", str(tmp_path / "b")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: dataset key 'alphabet' ") and err.count("\n") == 1
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("seed", [-1, 2**53 + 1])
@pytest.mark.parametrize("command", ["gen-data", "train-baseline", "tune"])
def test_seed_out_of_range_is_one_error_line_before_any_work(
    tmp_path, capsys, monkeypatch, command, seed
):
    def render(cfg):
        pytest.fail("rendered a corpus before rejecting the seed")

    monkeypatch.setattr("edsurrogate.cli.sample_corpus", render)
    assert main([command, "--seed", str(seed), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "key 'seed'" in err and str(seed) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "row",
    [
        "1,recognizer,0,3,1,0.5",
        "1,recognizer,0,3,x,0.5,0.25,1",
        "1,recognizer,0,3,-2,nan,0.0,0",
        "1,recognizr,0,3,1,0.5,0.25,1",
        "1,recognizer,0,3,1,0.5,0.25,2",
    ],
    ids=["six-fields", "non-numeric-e", "negative-e", "unknown-phase", "gate-two"],
)
def test_bad_log_row_is_one_error_line_naming_file_and_line(tmp_path, capsys, row):
    log = tmp_path / "log.csv"
    log.write_text(f"{LOG_HEADER}\n{row}\n", encoding="utf-8")
    code = main(["scatter", "--out", str(tmp_path / "s"), "--log", str(log)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}:2: ") and err.count("\n") == 1


def test_unknown_config_section_is_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"trian": {}}), encoding="utf-8")
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == "error: unknown config key 'trian'\n"


def test_scatter_on_header_only_log_says_it_has_no_records(tmp_path, capsys):
    log = tmp_path / "log.csv"
    write_log_csv(log, [])
    code = main(["scatter", "--out", str(tmp_path / "s"), "--log", str(log)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {log} holds no log records\n"


@pytest.mark.parametrize(
    "name,shape",
    [("meta.image_shape", (1,)), ("conv0.weight", (4,))],
)
def test_malformed_checkpoint_is_one_error_line(tmp_path, capsys, name, shape):
    net = RecognizerNet(
        RecognizerConfig(alphabet_size=9, capacity=8, image_height=12, image_width=32)
    )
    path = tmp_path / "bad.bin"
    save_recognizer(path, net)
    header, arrays = load_checkpoint(path)
    arrays[name] = np.ones(shape)
    save_checkpoint(path, header, arrays)
    code = main(["evaluate", "--checkpoint", str(path), "--out", str(tmp_path / "e")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: tensor {name!r} ")


@pytest.mark.parametrize("section", ["recognizer", "surrogate"])
def test_net_section_sized_for_another_dataset_is_one_error_line(tmp_path, capsys, section):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({section: {"capacity": 4}}), encoding="utf-8")
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == f"error: {section} has capacity 4, but the dataset has 8\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command", ["evaluate", "tune"])
def test_checkpoint_sized_for_another_dataset_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "baseline.bin"
    save_recognizer(
        path,
        RecognizerNet(
            RecognizerConfig(alphabet_size=9, capacity=8, image_height=12, image_width=32)
        ),
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "dataset": {"corpus_size": 20, "capacity": 4},
                "train": {"i_a": 1, "i_b": 1, "epochs": 1, "batch_size": 2},
            }
        ),
        encoding="utf-8",
    )
    argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
    code = main(argv + ["--checkpoint", str(path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: checkpoint {path} has capacity 8, but the dataset has 4\n"
    )
