import numpy as np
import pytest

from edsurrogate import autodiff as ad
from edsurrogate.errors import ConfigError
from edsurrogate.recognizer import (
    RecognizerConfig,
    RecognizerNet,
    WordImage,
    ce_loss,
    forward,
    recognize,
)
from edsurrogate.text_metrics import Alphabet, CharGrid, decode_greedy, encode_one_hot

TINY = RecognizerConfig(
    alphabet_size=3,
    capacity=4,
    image_height=5,
    image_width=12,
    channels=(6, 6),
    seed=3,
)
ALPHABET = Alphabet.from_string("_ab")


def random_image(seed=0, config=TINY) -> WordImage:
    rng = np.random.default_rng(seed)
    return WordImage(rng.random((config.image_height, config.image_width)), "ab")


def test_config_validation():
    with pytest.raises(ConfigError):
        RecognizerConfig(alphabet_size=3, capacity=5, image_height=4, image_width=12)
    with pytest.raises(ConfigError):
        RecognizerConfig(alphabet_size=3, capacity=4, image_height=4, image_width=12, kernel=4)
    with pytest.raises(ValueError):
        WordImage(np.full((2, 2), 1.5), "a")


def test_output_columns_are_stochastic():
    (grid,) = recognize([random_image()], RecognizerNet(TINY))
    assert grid.values.shape == (3, 4)
    assert np.allclose(grid.values.sum(axis=0), 1.0, atol=1e-6)
    assert grid.values.min() >= 0.0


def test_identical_images_identical_grids():
    net = RecognizerNet(TINY)
    (a,) = recognize([random_image(7)], net)
    (b,) = recognize([random_image(7)], net)
    assert a.values.tobytes() == b.values.tobytes()


def test_untrained_outputs_near_uniform():
    net = RecognizerNet(TINY)
    (grid,) = recognize([random_image(1)], net)
    entropy = -np.sum(grid.values * np.log(grid.values), axis=0)
    assert np.all(entropy >= 0.9 * np.log(TINY.alphabet_size))


def test_image_shape_mismatch_rejected():
    net = RecognizerNet(TINY)
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        forward(WordImage(rng.random((5, 16)), "x"), net)


def test_ce_loss_zero_iff_exact():
    y = encode_one_hot("ab", ALPHABET, 4)
    assert ce_loss(ad.constant(y.values), [y]).values.item() == pytest.approx(0.0, abs=1e-12)
    almost = y.values * 0.9 + 0.1 / 3.0
    assert ce_loss(ad.constant(almost), [y]).values.item() > 0.0


def test_ce_loss_uniform_closed_form():
    y = encode_one_hot("ba", ALPHABET, 4)
    uniform = CharGrid(np.full((3, 4), 1.0 / 3.0))
    loss = ce_loss(ad.constant(uniform.values), [y]).values.item()
    assert loss == pytest.approx(np.log(3.0) / 3.0, rel=1e-12)


def test_ce_loss_requires_one_hot_target():
    uniform = CharGrid(np.full((3, 4), 1.0 / 3.0))
    with pytest.raises(ValueError):
        ce_loss(ad.constant(uniform.values), [uniform])


def test_ce_gradient_wrt_weights_matches_fd():
    net = RecognizerNet(TINY)
    image = random_image(5)
    target = encode_one_hot("ab", ALPHABET, 4)

    root = ad.sum_all(ce_loss(forward(image, net), [target]))
    grads = dict(zip(net.params.names(), ad.backward(root, net.params.nodes())))

    arrays = net.params.to_arrays()
    rng = np.random.default_rng(9)
    step = 1e-5
    for _ in range(10):
        names = net.params.names()
        name = names[rng.integers(len(names))]
        flat = int(rng.integers(arrays[name].size))

        def value_at(delta):
            bumped = {k: v.copy() for k, v in arrays.items()}
            bumped[name].flat[flat] += delta
            other = RecognizerNet(TINY)
            other.params.load_arrays(bumped)
            return ad.sum_all(ce_loss(forward(image, other), [target])).item()

        numeric = (value_at(step) - value_at(-step)) / (2 * step)
        analytic = grads[name].values.flat[flat]
        assert abs(analytic - numeric) <= max(1e-7, 1e-3 * abs(numeric))


def test_recognize_decodes_to_some_word():
    net = RecognizerNet(TINY)
    word = decode_greedy(recognize([random_image(2)], net)[0], ALPHABET)
    assert isinstance(word, str)
    assert len(word) <= 4
