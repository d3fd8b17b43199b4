import numpy as np
import pytest

from edsurrogate.errors import CheckpointError
from edsurrogate.params import load_checkpoint, save_checkpoint
from edsurrogate.recognizer import (
    RecognizerConfig,
    RecognizerNet,
    WordImage,
    load_recognizer,
    recognize,
    save_recognizer,
)
from edsurrogate.surrogate import (
    SurrogateConfig,
    SurrogateNet,
    load_surrogate,
    save_surrogate,
    surrogate_distance,
)
from edsurrogate.text_metrics import CharGrid


def test_surrogate_round_trip_preserves_behavior(tmp_path):
    config = SurrogateConfig(
        alphabet_size=3, capacity=4, embedding_dim=8, channels=(4, 5, 4, 6, 4), hidden=7
    )
    net = SurrogateNet(config)
    path = tmp_path / "surrogate.bin"
    save_surrogate(path, net)

    loaded = load_surrogate(path)
    assert loaded.config.channels == config.channels
    assert loaded.config.hidden == config.hidden

    rng = np.random.default_rng(0)
    p = rng.random((3, 4))
    grid = CharGrid(p / p.sum(axis=0))
    q = rng.random((3, 4))
    other = CharGrid(q / q.sum(axis=0))
    before = surrogate_distance(grid, other, net).item()
    after = surrogate_distance(grid, other, loaded).item()
    assert before == after


def test_recognizer_round_trip_preserves_behavior(tmp_path):
    config = RecognizerConfig(
        alphabet_size=3, capacity=4, image_height=5, image_width=12, channels=(6, 7)
    )
    net = RecognizerNet(config)
    path = tmp_path / "recognizer.bin"
    save_recognizer(path, net)

    loaded = load_recognizer(path)
    assert loaded.config == RecognizerConfig(
        alphabet_size=3, capacity=4, image_height=5, image_width=12, channels=(6, 7)
    )
    image = WordImage(np.random.default_rng(1).random((5, 12)), "ab")
    assert recognize(image, net).values.tobytes() == recognize(image, loaded).values.tobytes()


def test_cross_family_load_fails(tmp_path):
    config = RecognizerConfig(alphabet_size=3, capacity=4, image_height=5, image_width=12)
    path = tmp_path / "rec.bin"
    save_recognizer(path, RecognizerNet(config))
    with pytest.raises(CheckpointError):
        load_surrogate(path)


def test_recognizer_with_non_default_slope_and_seed_reloads_bit_identical(tmp_path):
    config = RecognizerConfig(
        alphabet_size=3, capacity=4, image_height=5, image_width=12, slope=0.3, seed=4
    )
    net = RecognizerNet(config)
    path = tmp_path / "recognizer.bin"
    save_recognizer(path, net)
    loaded = load_recognizer(path)
    assert loaded.config == config
    # Negative conv features pass through the slope, so it shapes the output.
    image = WordImage(np.random.default_rng(2).random((5, 12)), "ab")
    assert recognize(image, net).values.tobytes() == recognize(image, loaded).values.tobytes()


def test_surrogate_with_non_default_slope_and_seed_reloads_bit_identical(tmp_path):
    config = SurrogateConfig(
        alphabet_size=3,
        capacity=4,
        embedding_dim=8,
        channels=(4, 4, 4, 4, 4),
        hidden=6,
        slope=0.2,
        seed=9,
    )
    net = SurrogateNet(config)
    path = tmp_path / "surrogate.bin"
    save_surrogate(path, net)
    loaded = load_surrogate(path)
    assert loaded.config == config
    rng = np.random.default_rng(3)
    p, q = rng.random((3, 4)), rng.random((3, 4))
    a, b = CharGrid(p / p.sum(axis=0)), CharGrid(q / q.sum(axis=0))
    assert surrogate_distance(a, b, net).item() == surrogate_distance(a, b, loaded).item()


def test_checkpoint_without_slope_and_seed_loads_with_defaults(tmp_path):
    config = RecognizerConfig(alphabet_size=3, capacity=4, image_height=5, image_width=12)
    net = RecognizerNet(config)
    path = tmp_path / "old.bin"
    save_recognizer(path, net)
    header, arrays = load_checkpoint(path)
    for name in ("meta.slope", "meta.seed"):
        del arrays[name]
    save_checkpoint(path, header, arrays)
    assert load_recognizer(path).config == config


def test_checkpoint_with_malformed_seed_is_rejected(tmp_path):
    config = RecognizerConfig(alphabet_size=3, capacity=4, image_height=5, image_width=12)
    path = tmp_path / "bad.bin"
    save_recognizer(path, RecognizerNet(config))
    header, arrays = load_checkpoint(path)
    arrays["meta.seed"] = np.array([0.5])
    save_checkpoint(path, header, arrays)
    with pytest.raises(CheckpointError):
        load_recognizer(path)
