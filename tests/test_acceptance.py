"""Acceptance gate: one test per shipped guarantee, one pass/fail line each.

The desk-scale post-tuning harness (five seeds, shared by the trend and
improvement tests) dominates the runtime; everything else is seconds.
"""

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import pytest

from edsurrogate import autodiff as ad
from edsurrogate.cli import main as cli_main
from edsurrogate.cli import run_experiment
from edsurrogate.evaluation import (
    MetricsReport,
    in_band_fraction,
    relative_ted_improvement,
    write_log_csv,
)
from edsurrogate.recognizer import (
    RecognizerConfig,
    RecognizerNet,
    WordImage,
    ce_loss,
    forward,
)
from edsurrogate.surrogate import (
    SurrogateConfig,
    SurrogateNet,
    distance_row,
    embed,
    surrogate_loss_parts,
)
from edsurrogate.synth_data import DatasetConfig, sample_corpus, split_corpus
from edsurrogate.text_metrics import (
    Alphabet,
    decode_greedy,
    edit_distance,
)
from edsurrogate.training import (
    OptimizerState,
    TrainConfig,
    build_recognizer,
    build_surrogate,
    pretrain_recognizer,
    run_post_tuning,
    train_surrogate_phase,
)

from .oracles import (
    LOSS_PARTS,
    CharGrid,
    encode_one_hot,
    grid_node,
    recursive_edit_distance,
    split_grids,
)


@contextmanager
def criterion(number: int, title: str):
    """Print a single machine-readable verdict line for each criterion."""
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_edit_distance_matches_exhaustive_recursion():
    with criterion(1, "edit distance oracle equivalence"):
        start = time.perf_counter()
        words = [""] + [
            "".join(p)
            for n in range(1, 6)
            for p in itertools.product("ab", repeat=n)
        ]
        for a in words:
            for b in words:
                assert edit_distance(a, b) == recursive_edit_distance(a, b)
        assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------- criterion 2

ALPHABET3 = Alphabet.from_string("_ab")
SUR_TINY = SurrogateConfig(
    alphabet_size=3,
    capacity=4,
    embedding_dim=8,
    channels=(4, 4, 4, 4, 4),
    kernel=3,
    hidden=8,
    seed=11,
)
REC_TINY = RecognizerConfig(
    alphabet_size=3,
    capacity=4,
    image_height=6,
    image_width=8,
    channels=(4, 4),
    seed=12,
)


def _random_grid(rng, alphabet_size=3, capacity=4) -> CharGrid:
    logits = rng.standard_normal((alphabet_size, capacity))
    p = np.exp(logits - logits.max(axis=0))
    return CharGrid(p / p.sum(axis=0))


def _fd_check_params(params, analytic_by_name, recompute, rng, picks_per_tensor=4):
    """Central differences on a few entries of every tensor, at the stated bound."""
    arrays = params.to_arrays()
    step = 1e-5
    for name in params.names():
        size = arrays[name].size
        flats = rng.choice(size, size=min(picks_per_tensor, size), replace=False)
        for flat in flats:
            bumped = {k: v.copy() for k, v in arrays.items()}
            bumped[name].flat[flat] += step
            up = recompute(bumped)
            bumped[name].flat[flat] -= 2 * step
            down = recompute(bumped)
            numeric = (up - down) / (2 * step)
            analytic = analytic_by_name[name].values.flat[flat]
            bound = max(1e-7, 1e-3 * abs(numeric))
            assert abs(analytic - numeric) <= bound, (
                f"{name}[{flat}]: analytic {analytic:.6e} vs numeric {numeric:.6e}"
            )


def test_criterion_2_gradients_match_central_differences():
    with criterion(2, "gradient correctness incl. second-order path"):
        rng = np.random.default_rng(21)

        # Cross-entropy through the recognizer.
        net = RecognizerNet(REC_TINY)
        image = WordImage(
            pixels=rng.random((REC_TINY.image_height, REC_TINY.image_width)), label="ab"
        )
        target = encode_one_hot("ab", ALPHABET3, REC_TINY.capacity)

        def ce_recompute(arrays):
            probe = RecognizerNet(REC_TINY)
            probe.params.load_arrays(arrays)
            return ad.sum_all(ce_loss(forward(image, probe), target.values, 1)).item()

        root = ad.sum_all(ce_loss(forward(image, net), target.values, 1))
        grads = dict(
            zip(net.params.names(), ad.backward(root, net.params.nodes()))
        )
        _fd_check_params(net.params, grads, ce_recompute, rng)

        # Embedding distance through the surrogate.
        snet = SurrogateNet(SUR_TINY)
        z, y = grid_node([_random_grid(rng)]), grid_node([_random_grid(rng)])

        def dist_recompute(arrays):
            probe = SurrogateNet(SUR_TINY)
            probe.params.load_arrays(arrays)
            return ad.sum_all(distance_row(z, embed(y, probe), probe)).item()

        root = ad.sum_all(distance_row(z, embed(y, snet), snet))
        grads = dict(
            zip(snet.params.names(), ad.backward(root, snet.params.nodes()))
        )
        _fd_check_params(snet.params, grads, dist_recompute, rng)

        # Both loss terms; the penalty differentiates a gradient norm.
        for term in ("fit", "penalty"):

            def term_recompute(arrays, term=term):
                probe = SurrogateNet(SUR_TINY)
                probe.params.load_arrays(arrays)
                parts = surrogate_loss_parts(z, y, [2], probe, 1.0, 0.1)
                return ad.sum_all(getattr(parts, term)).item()

            parts = surrogate_loss_parts(z, y, [2], snet, 1.0, 0.1)
            root = ad.sum_all(getattr(parts, term))
            grads = dict(
                zip(snet.params.names(), ad.backward(root, snet.params.nodes()))
            )
            _fd_check_params(snet.params, grads, term_recompute, rng)


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_gate_zeroes_recognizer_gradients():
    with criterion(3, "gate zeroing at and beyond lambda"):
        rng = np.random.default_rng(31)
        rnet = RecognizerNet(REC_TINY)
        snet = SurrogateNet(SUR_TINY)
        image = WordImage(
            pixels=rng.random((REC_TINY.image_height, REC_TINY.image_width)), label="ab"
        )
        z_node = forward(image, rnet)
        (decoded,) = decode_greedy(z_node.values, 1, ALPHABET3)

        def theta_grads(y_label: str, lam: float, gate_mode: str):
            y = grid_node([encode_one_hot(y_label, ALPHABET3, REC_TINY.capacity)])
            e = edit_distance(decoded, y_label)
            parts = LOSS_PARTS[gate_mode](forward(image, rnet), embed(y, snet), [e], snet, lam)
            grads = ad.backward(ad.sum_all(parts.loss), rnet.params.nodes())
            (gate_open,) = parts.gate_open
            return gate_open, dict(zip(rnet.params.names(), grads))

        # A far-off target puts the pair well outside any narrow band.
        far = "bbbb" if not decoded.startswith("b") else "aaaa"
        y = grid_node([encode_one_hot(far, ALPHABET3, REC_TINY.capacity)])
        e = edit_distance(decoded, far)
        e_hat = distance_row(grid_node([CharGrid(z_node.values)]), embed(y, snet), snet)
        gap = abs(e_hat.values.item() - e)
        assert gap >= 0.25
        for gate_mode in ("gated", "literal"):
            gate_open, grads = theta_grads(far, 0.25, gate_mode)
            assert not gate_open
            assert all(np.all(g.values == 0.0) for g in grads.values()), gate_mode

        # Widening the band past the measured gap opens the gate.
        for gate_mode in ("gated", "literal"):
            gate_open, grads = theta_grads(far, gap + 0.1, gate_mode)
            assert gate_open
            assert any(np.any(g.values != 0.0) for g in grads.values()), gate_mode


# ---------------------------------------------------------------- criterion 4


def _held_out_fit(images, recognizer, surrogate, dcfg) -> float:
    targets = {}
    gaps = []
    for image in images:
        if image.label not in targets:
            targets[image.label] = grid_node(
                [encode_one_hot(image.label, dcfg.alphabet, dcfg.capacity)]
            )
        (z,) = split_grids(forward([image], recognizer).values, 1)
        e = edit_distance(decode_greedy(z.values, 1, dcfg.alphabet)[0], image.label)
        e_hat = distance_row(grid_node([z]), embed(targets[image.label], surrogate), surrogate)
        gaps.append(abs(e_hat.values.item() - e))
    return float(np.mean(gaps))


def test_criterion_4_surrogate_fit_on_held_out_pairs():
    with criterion(4, "surrogate fit after one phase"):
        start = time.perf_counter()
        dcfg = DatasetConfig.desk(seed=0)
        assert dcfg.corpus_size == 5000
        split = split_corpus(sample_corpus(dcfg))
        # A half-trained recognizer leaves real error spread in the pairs.
        # A converged one decodes most samples exactly, and there a fresh
        # random embedding already scores near-zero |e_hat - e| for free,
        # leaving nothing for one phase to improve on held-out data.
        cfg = TrainConfig.desk(seed=0, i_a=500, pretrain_iterations=500)
        rnet = build_recognizer(dcfg, 0)
        pretrain_recognizer(split.train, rnet, cfg, dcfg)
        snet = build_surrogate(dcfg, 0)
        before = _held_out_fit(split.val, rnet, snet, dcfg)
        train_surrogate_phase(
            split.train, rnet, snet, cfg, dcfg, 1, OptimizerState(snet.params), []
        )
        after = _held_out_fit(split.val, rnet, snet, dcfg)
        elapsed = time.perf_counter() - start
        assert after <= 0.5, f"held-out fit {after:.3f}"
        assert after < before, f"{after:.3f} not below init {before:.3f}"
        assert elapsed <= 300.0, f"{elapsed:.0f}s"


# ----------------------------------------------------------- criteria 5 and 6


@dataclass(frozen=True)
class DeskRun:
    baseline: MetricsReport
    tuned: MetricsReport
    early_in_band: float
    late_in_band: float


@pytest.fixture(scope="module")
def desk_runs() -> list[DeskRun]:
    runs = []
    for seed in range(5):
        dcfg = DatasetConfig.desk(seed=seed)
        cfg = TrainConfig.desk(seed=seed)
        run = run_experiment(cfg, dcfg, split_corpus(sample_corpus(dcfg)))
        runs.append(
            DeskRun(
                baseline=run.baseline,
                tuned=run.tuned,
                early_in_band=in_band_fraction(run.result.logs, 1, 1, cfg.lam),
                late_in_band=in_band_fraction(run.result.logs, 4, 5, cfg.lam),
            )
        )
    return runs


def test_criterion_5_in_band_fraction_rises(desk_runs):
    with criterion(5, "in-band fraction rises across epochs"):
        run = desk_runs[0]
        assert run.late_in_band > run.early_in_band, (
            f"epochs 4-5 {run.late_in_band:.3f} vs epoch 1 {run.early_in_band:.3f}"
        )


def test_criterion_6_post_tuning_lowers_ted(desk_runs):
    with criterion(6, "post-tuning lowers held-out TED"):
        for run in desk_runs:
            assert run.baseline.accuracy >= 0.60, f"baseline {run.baseline.accuracy:.3f}"
        wins = sum(run.tuned.ted <= run.baseline.ted for run in desk_runs)
        rels = [
            relative_ted_improvement(run.baseline.ted, run.tuned.ted)
            for run in desk_runs
        ]
        assert wins >= 4, f"wins {wins}/5, improvements {rels}"
        assert float(np.mean(rels)) > 0.0, f"mean improvement {np.mean(rels):+.4f}"


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_unfiltered_arm_differs(tmp_path):
    with criterion(7, "unfiltered arm open gate and distinct trajectory"):
        dcfg = DatasetConfig.desk(corpus_size=300, seed=6)
        split = split_corpus(sample_corpus(dcfg))
        base_cfg = TrainConfig.desk(
            seed=6, epochs=2, i_a=10, i_b=10, batch_size=8, pretrain_iterations=100
        )
        rnet = build_recognizer(dcfg, 6)
        pretrain_recognizer(split.train, rnet, base_cfg, dcfg)
        arrays = rnet.params.to_arrays()

        logs = {}
        for mode in ("feds", "lsed"):
            cfg = replace(base_cfg, mode=mode)
            net = RecognizerNet(rnet.config)
            net.params.load_arrays(arrays)
            result = run_post_tuning(cfg, dcfg, split, net)
            write_log_csv(tmp_path / f"{mode}.csv", result.logs)
            logs[mode] = result.logs

        tuning = [r for r in logs["lsed"] if r.phase == "recognizer"]
        assert tuning and all(r.gate_open for r in tuning)
        feds_bytes = (tmp_path / "feds.csv").read_bytes()
        lsed_bytes = (tmp_path / "lsed.csv").read_bytes()
        assert feds_bytes != lsed_bytes


# ---------------------------------------------------------------- criterion 8

CLI_TINY = {
    "seed": 5,
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


def test_criterion_8_cli_outputs_are_byte_identical(tmp_path):
    with criterion(8, "CLI reruns reproduce byte-identical CSVs"):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(CLI_TINY), encoding="utf-8")

        def run(command, *extra):
            outs = []
            for attempt in ("first", "second"):
                out = tmp_path / command / attempt
                code = cli_main(
                    [command, "--config", str(config), "--out", str(out), *extra]
                )
                assert code == 0
                outs.append(out)
            return outs

        compare = {
            "gen-data": ("labels.tsv", "dataset.json", "img_00000.pgm"),
            "train-baseline": ("metrics.csv", "log.csv"),
            "tune": ("metrics.csv", "log.csv"),
        }
        for command, names in compare.items():
            first, second = run(command)
            for name in names:
                assert (first / name).read_bytes() == (second / name).read_bytes(), (
                    f"{command}/{name}"
                )

        checkpoint = str(tmp_path / "tune" / "first" / "recognizer_epoch2.bin")
        first, second = run("evaluate", "--checkpoint", checkpoint)
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()

        log = str(tmp_path / "tune" / "first" / "log.csv")
        first, second = run("scatter", "--log", log)
        assert (first / "scatter.csv").read_bytes() == (second / "scatter.csv").read_bytes()
