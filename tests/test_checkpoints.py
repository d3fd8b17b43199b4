import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsurrogate.errors import (
    CapacityError,
    CheckpointError,
    ConfigError,
    EncodingError,
    NumericError,
    ShapeError,
)
from edsurrogate import recognizer as recognizer_module
from edsurrogate import surrogate as surrogate_module
from edsurrogate.params import load_checkpoint, save_checkpoint
from edsurrogate.recognizer import (
    RecognizerConfig,
    RecognizerNet,
    WordImage,
    forward,
    load_recognizer,
    save_recognizer,
)
from edsurrogate.surrogate import (
    SurrogateConfig,
    SurrogateNet,
    distance_row,
    embed,
    load_surrogate,
    save_surrogate,
)

from .oracles import CharGrid, grid_node


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
    z, y = grid_node([grid]), grid_node([other])
    before = distance_row(z, embed(y, net), net).values.item()
    after = distance_row(z, embed(y, loaded), loaded).values.item()
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
    assert forward([image], net).values.tobytes() == (
        forward([image], loaded).values.tobytes()
    )


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
    assert forward([image], net).values.tobytes() == (
        forward([image], loaded).values.tobytes()
    )


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
    z, y = grid_node([a]), grid_node([b])
    before = distance_row(z, embed(y, net), net).values.item()
    assert before == distance_row(z, embed(y, loaded), loaded).values.item()


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


def test_surrogate_with_malformed_conv_weight_is_rejected(tmp_path):
    config = SurrogateConfig(
        alphabet_size=3, capacity=4, embedding_dim=8, channels=(4, 4, 4, 4, 4), hidden=6
    )
    path = tmp_path / "bad.bin"
    save_surrogate(path, SurrogateNet(config))
    header, arrays = load_checkpoint(path)
    arrays["conv0.weight"] = np.ones(4)
    save_checkpoint(path, header, arrays)
    with pytest.raises(CheckpointError):
        load_surrogate(path)


@pytest.mark.parametrize("image_shape", [(12.9, 32), (12, 32.5), (2**31, 32), (1e30, 32)])
def test_recognizer_with_malformed_image_shape_is_rejected(tmp_path, image_shape):
    config = RecognizerConfig(alphabet_size=3, capacity=4, image_height=12, image_width=32)
    path = tmp_path / "bad.bin"
    save_recognizer(path, RecognizerNet(config))
    header, arrays = load_checkpoint(path)
    arrays["meta.image_shape"] = np.array(image_shape, dtype=np.float64)
    save_checkpoint(path, header, arrays)
    with pytest.raises(CheckpointError):
        load_recognizer(path)


def test_recognizer_with_empty_conv_weight_is_rejected_before_building(tmp_path):
    config = RecognizerConfig(
        alphabet_size=3, capacity=4, image_height=5, image_width=12, channels=(6, 7)
    )
    path = tmp_path / "bad.bin"
    save_recognizer(path, RecognizerNet(config))
    header, arrays = load_checkpoint(path)
    # No payload, yet the net would be built with 2^31 conv1 channels.
    arrays["conv1.weight"] = np.zeros((2**31, 0, 3))
    save_checkpoint(path, header, arrays)
    with pytest.raises(CheckpointError):
        load_recognizer(path)


def _never_built(config):
    raise AssertionError(f"net built from {config}")


@pytest.mark.parametrize(
    "name,shape",
    [
        ("conv1.weight", (7, 5, 3)),  # reads 5 channels, conv0 gives 6
        ("conv1.weight", (7, 6, 5)),  # kernel 5 after conv0's 3
        ("head.weight", (3, 6)),  # reads 6 channels, conv1 gives 7
    ],
)
def test_recognizer_with_broken_conv_chain_is_rejected_before_building(
    tmp_path, monkeypatch, name, shape
):
    config = RecognizerConfig(
        alphabet_size=3, capacity=4, image_height=5, image_width=12, channels=(6, 7)
    )
    path = tmp_path / "bad.bin"
    save_recognizer(path, RecognizerNet(config))
    header, arrays = load_checkpoint(path)
    arrays[name] = np.ones(shape)
    save_checkpoint(path, header, arrays)
    monkeypatch.setattr(recognizer_module, "RecognizerNet", _never_built)
    with pytest.raises(CheckpointError):
        load_recognizer(path)


@pytest.mark.parametrize(
    "name,shape",
    [
        ("conv2.weight", (4, 4, 3)),  # reads 4 channels, conv1 gives 5
        ("conv3.weight", (6, 4, 5)),  # kernel 5 after conv0's 3
        ("fc1.weight", (7, 6)),  # reads 6 channels, conv4 gives 4
        ("fc2.weight", (8, 6)),  # reads 6 rows, fc1 gives 7
    ],
)
def test_surrogate_with_broken_conv_chain_is_rejected_before_building(
    tmp_path, monkeypatch, name, shape
):
    config = SurrogateConfig(
        alphabet_size=3, capacity=4, embedding_dim=8, channels=(4, 5, 4, 6, 4), hidden=7
    )
    path = tmp_path / "bad.bin"
    save_surrogate(path, SurrogateNet(config))
    header, arrays = load_checkpoint(path)
    arrays[name] = np.ones(shape)
    save_checkpoint(path, header, arrays)
    monkeypatch.setattr(surrogate_module, "SurrogateNet", _never_built)
    with pytest.raises(CheckpointError):
        load_surrogate(path)


# --- corrupted bytes ----------------------------------------------------------

PACKAGE_ERRORS = (
    CapacityError,
    CheckpointError,
    ConfigError,
    EncodingError,
    NumericError,
    ShapeError,
)
LOADERS = {"recognizer": load_recognizer, "surrogate": load_surrogate}
U32_VALUES = st.sampled_from([0, 1, 2**31, 2**32 - 1]) | st.integers(0, 2**32 - 1)


@pytest.fixture(scope="module")
def tiny_checkpoints(tmp_path_factory):
    """The bytes of a small saved recognizer and surrogate, and a scratch path."""
    folder = tmp_path_factory.mktemp("fuzz")
    save_recognizer(
        folder / "recognizer.bin",
        RecognizerNet(
            RecognizerConfig(
                alphabet_size=3, capacity=2, image_height=3, image_width=4, channels=(2,)
            )
        ),
    )
    save_surrogate(
        folder / "surrogate.bin",
        SurrogateNet(
            SurrogateConfig(
                alphabet_size=3, capacity=2, embedding_dim=2, channels=(2,) * 5, hidden=2
            )
        ),
    )
    blobs = {family: (folder / f"{family}.bin").read_bytes() for family in LOADERS}
    return blobs, folder / "corrupt.bin"


@st.composite
def corrupted(draw, blob: bytes) -> bytes:
    """blob truncated, with one byte flipped, or with one u32 overwritten."""
    kind = draw(st.sampled_from(["truncate", "flip", "u32"]))
    if kind == "truncate":
        return blob[: draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    if kind == "flip":
        out[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
    else:
        at = draw(st.integers(0, len(blob) - 4))
        out[at : at + 4] = draw(U32_VALUES).to_bytes(4, "little")
    return bytes(out)


@pytest.mark.parametrize("family", sorted(LOADERS))
def test_checkpoint_with_slope_outside_unit_interval_is_rejected(tiny_checkpoints, family):
    blobs, path = tiny_checkpoints
    path.write_bytes(blobs[family])
    header, arrays = load_checkpoint(path)
    arrays["meta.slope"] = np.array([-0.5])
    save_checkpoint(path, header, arrays)
    with pytest.raises(ConfigError, match=f"{family} key 'slope' must lie in"):
        LOADERS[family](path)


@pytest.mark.parametrize("family", sorted(LOADERS))
@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_corrupted_checkpoint_raises_only_package_errors(tiny_checkpoints, family, data):
    blobs, path = tiny_checkpoints
    path.write_bytes(data.draw(corrupted(blobs[family])))
    try:
        LOADERS[family](path)
    except PACKAGE_ERRORS:
        pass
