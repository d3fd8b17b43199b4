import numpy as np
import pytest

from edsurrogate import autodiff as ad
from edsurrogate.errors import ConfigError, NumericError, ShapeError
from edsurrogate.recognizer import (
    RecognizerConfig,
    RecognizerNet,
    WordImage,
    ce_loss,
    forward,
)
from edsurrogate.text_metrics import Alphabet, decode_greedy

from .oracles import CharGrid, encode_one_hot, split_grids

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
    for slope in (-0.01, 1.5):
        with pytest.raises(ConfigError, match="key 'slope' must lie in"):
            RecognizerConfig(
                alphabet_size=3, capacity=4, image_height=4, image_width=12, slope=slope
            )
    with pytest.raises(ValueError):
        WordImage(np.full((2, 2), 1.5), "a")


@pytest.mark.parametrize(
    "pixels, error",
    [
        ([[np.nan, 0.5]], NumericError),
        ([[0.5, np.inf]], NumericError),
        ([[-np.inf, 0.5]], NumericError),
        ([[-5.0, np.nan]], NumericError),
        ([[np.nan, -5.0]], NumericError),
        ([[0.5, 1.5]], ValueError),
        ([[-0.1, 0.5]], ValueError),
        ([[-0.0, 0.0, 1.0]], None),
        ([0.5, 0.5], ShapeError),
        ([[[0.5]]], ShapeError),
    ],
    ids=["nan", "+inf", "-inf", "-5-nan", "nan--5", "1.5", "-0.1", "zeros-one", "1d", "3d"],
)
def test_word_image_raises_exactly_its_error_type(pixels, error):
    # NumericError and ShapeError subclass ValueError, so compare types exactly.
    if error is None:
        image = WordImage(np.array(pixels), "a")
        assert image.pixels.tobytes() == np.array(pixels).tobytes()
        return
    with pytest.raises(ValueError) as raised:
        WordImage(np.array(pixels), "a")
    assert type(raised.value) is error


def test_output_columns_are_stochastic():
    (grid,) = split_grids(forward([random_image()], RecognizerNet(TINY)).values, 1)
    assert grid.values.shape == (3, 4)
    assert np.allclose(grid.values.sum(axis=0), 1.0, atol=1e-6)
    assert grid.values.min() >= 0.0


def test_identical_images_identical_grids():
    net = RecognizerNet(TINY)
    (a,) = split_grids(forward([random_image(7)], net).values, 1)
    (b,) = split_grids(forward([random_image(7)], net).values, 1)
    assert a.values.tobytes() == b.values.tobytes()


def test_untrained_outputs_near_uniform():
    net = RecognizerNet(TINY)
    (grid,) = split_grids(forward([random_image(1)], net).values, 1)
    entropy = -np.sum(grid.values * np.log(grid.values), axis=0)
    assert np.all(entropy >= 0.9 * np.log(TINY.alphabet_size))


def test_image_shape_mismatch_rejected():
    net = RecognizerNet(TINY)
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        forward(WordImage(rng.random((5, 16)), "x"), net)


def test_ce_loss_zero_iff_exact():
    y = encode_one_hot("ab", ALPHABET, 4)
    loss = ce_loss(ad.constant(y.values), y.values, 1).values.item()
    assert loss == pytest.approx(0.0, abs=1e-12)
    almost = y.values * 0.9 + 0.1 / 3.0
    assert ce_loss(ad.constant(almost), y.values, 1).values.item() > 0.0


def test_ce_loss_uniform_closed_form():
    y = encode_one_hot("ba", ALPHABET, 4)
    uniform = CharGrid(np.full((3, 4), 1.0 / 3.0))
    loss = ce_loss(ad.constant(uniform.values), y.values, 1).values.item()
    assert loss == pytest.approx(np.log(3.0) / 3.0, rel=1e-12)


def test_ce_loss_requires_one_hot_target():
    uniform = CharGrid(np.full((3, 4), 1.0 / 3.0))
    with pytest.raises(ValueError):
        ce_loss(ad.constant(uniform.values), uniform.values, 1)
    # One soft target in the middle of an otherwise one-hot batch.
    targets = [encode_one_hot("ab", ALPHABET, 4), uniform, encode_one_hot("ba", ALPHABET, 4)]
    y = np.concatenate([t.values for t in targets], axis=1)
    with pytest.raises(ValueError, match="one-hot"):
        ce_loss(ad.constant(y), y, len(targets))


def test_ce_gradient_wrt_weights_matches_fd():
    net = RecognizerNet(TINY)
    image = random_image(5)
    target = encode_one_hot("ab", ALPHABET, 4)

    root = ad.sum_all(ce_loss(forward(image, net), target.values, 1))
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
            return ad.sum_all(ce_loss(forward(image, other), target.values, 1)).item()

        numeric = (value_at(step) - value_at(-step)) / (2 * step)
        analytic = grads[name].values.flat[flat]
        assert abs(analytic - numeric) <= max(1e-7, 1e-3 * abs(numeric))


def test_recognize_decodes_to_some_word():
    net = RecognizerNet(TINY)
    (word,) = decode_greedy(forward([random_image(2)], net).values, 1, ALPHABET)
    assert isinstance(word, str)
    assert len(word) <= 4
