import numpy as np
import pytest

from edsurrogate import autodiff as ad
from edsurrogate.errors import CheckpointError, ShapeError
from edsurrogate.params import (
    CheckpointHeader,
    ParamStore,
    load_checkpoint,
    save_checkpoint,
)
from edsurrogate.recognizer import RecognizerConfig, RecognizerNet, save_recognizer
from edsurrogate.surrogate import SurrogateConfig, SurrogateNet, save_surrogate
from edsurrogate.synth_data import DatasetConfig
from edsurrogate.training import net_config

from . import oracles

RNG = np.random.default_rng(7)


def make_store():
    store = ParamStore()
    store.add("conv.weight", RNG.standard_normal((3, 2, 3)))
    store.add("conv.bias", np.zeros((3, 1)))
    store.add("head.weight", RNG.standard_normal((4, 3)))
    return store


def test_names_unique_and_ordered():
    store = make_store()
    assert store.names() == ("conv.weight", "conv.bias", "head.weight")
    with pytest.raises(ValueError):
        store.add("conv.weight", np.ones(2))
    with pytest.raises(ValueError):
        store.add("", np.ones(2))


def test_assign_keeps_shape_and_swaps_leaf():
    store = make_store()
    before = store.node("conv.bias")
    store.assign("conv.bias", np.ones((3, 1)))
    after = store.node("conv.bias")
    assert after is not before
    assert np.all(after.values == 1.0)
    assert after.requires_grad
    with pytest.raises(ShapeError):
        store.assign("conv.bias", np.ones((4, 1)))


def test_graphs_built_before_assign_are_untouched():
    store = make_store()
    w = store.node("head.weight")
    out = ad.sum_all(ad.square(w))
    frozen = out.values.copy()
    store.assign("head.weight", np.zeros((4, 3)))
    assert out.values.tobytes() == frozen.tobytes()


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    store = make_store()
    header = CheckpointHeader(alphabet_size=37, capacity=8, embedding_dim=128)
    path = tmp_path / "model.bin"
    save_checkpoint(path, header, store.to_arrays())

    loaded_header, arrays = load_checkpoint(path)
    assert loaded_header == header
    assert tuple(arrays) == store.names()
    for name in store.names():
        assert arrays[name].tobytes() == store.node(name).values.tobytes()

    other = make_store()
    other.assign("conv.bias", np.full((3, 1), 9.0))
    other.load_arrays(arrays)
    assert other.node("conv.bias").values.tobytes() == store.node("conv.bias").values.tobytes()


def test_checkpoint_file_layout(tmp_path):
    path = tmp_path / "tiny.bin"
    save_checkpoint(
        path,
        CheckpointHeader(alphabet_size=3, capacity=4, embedding_dim=0),
        {"w": np.array([1.0, 2.0])},
    )
    blob = path.read_bytes()
    assert blob[:4] == b"FEDS"
    # version=1, |A|=3, L=4, d=0, name_len=1
    assert blob[4:24] == (1).to_bytes(4, "little") + (3).to_bytes(4, "little") + (
        4
    ).to_bytes(4, "little") + (0).to_bytes(4, "little") + (1).to_bytes(4, "little")
    assert blob[24:25] == b"w"
    assert blob[25:33] == (1).to_bytes(4, "little") + (2).to_bytes(4, "little")
    assert blob[33:] == np.array([1.0, 2.0]).astype("<f8").tobytes()


def test_load_rejects_corrupt_files(tmp_path):
    good = tmp_path / "good.bin"
    save_checkpoint(
        good,
        CheckpointHeader(alphabet_size=3, capacity=4, embedding_dim=8),
        {"w": np.ones((2, 2))},
    )
    blob = good.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "version.bin"
    bad_version.write_bytes(blob[:4] + (99).to_bytes(4, "little") + blob[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_version)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(blob[:-5])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)


def test_failed_save_leaves_the_earlier_file_whole(tmp_path):
    path = tmp_path / "model.bin"
    header = CheckpointHeader(alphabet_size=3, capacity=4, embedding_dim=0)
    save_checkpoint(path, header, {"w": np.array([1.0, 2.0])})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_checkpoint(path, header, {"w": np.array([3.0]), "x": np.array("not a number")})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


def test_load_arrays_requires_matching_names(tmp_path):
    store = make_store()
    arrays = store.to_arrays()
    del arrays["conv.bias"]
    arrays["stranger"] = np.ones(2)
    with pytest.raises(CheckpointError):
        store.load_arrays(arrays)


DESK = DatasetConfig.desk()
NET_CONFIGS = {
    "desk-recognizer": net_config(RecognizerConfig, "recognizer", DESK, 0),
    "desk-surrogate": net_config(SurrogateConfig, "surrogate", DESK, 0),
    "desk-recognizer-seed3": net_config(RecognizerConfig, "recognizer", DESK, 3),
    "desk-surrogate-seed3": net_config(SurrogateConfig, "surrogate", DESK, 3),
    "tiny-recognizer": RecognizerConfig(
        alphabet_size=3, capacity=2, image_height=3, image_width=4, channels=(2,)
    ),
    "tiny-recognizer-kernel5": RecognizerConfig(
        alphabet_size=3, capacity=4, image_height=5, image_width=12, channels=(6, 7), kernel=5,
        slope=0.2, seed=11,
    ),
    "tiny-surrogate": SurrogateConfig(
        alphabet_size=3, capacity=2, embedding_dim=2, channels=(2,) * 5, hidden=2
    ),
    "tiny-surrogate-kernel5": SurrogateConfig(
        alphabet_size=3, capacity=4, embedding_dim=8, channels=(4, 5, 4, 6, 4), kernel=5,
        hidden=7, slope=0.0, seed=9,
    ),
}


@pytest.mark.parametrize("config", NET_CONFIGS.values(), ids=NET_CONFIGS.keys())
def test_fresh_nets_and_checkpoints_equal_the_per_tensor_init_oracle(tmp_path, config):
    recognizer = isinstance(config, RecognizerConfig)
    net = RecognizerNet(config) if recognizer else SurrogateNet(config)
    expected = oracles.per_tensor_params(config)
    assert net.params.names() == expected.names()
    for name in expected.names():
        assert net.params.node(name).values.tobytes() == expected.node(name).values.tobytes()
    (save_recognizer if recognizer else save_surrogate)(tmp_path / "net.bin", net)
    oracles.save_per_tensor_net(tmp_path / "oracle.bin", config)
    assert (tmp_path / "net.bin").read_bytes() == (tmp_path / "oracle.bin").read_bytes()
