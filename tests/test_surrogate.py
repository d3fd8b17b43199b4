import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsurrogate import autodiff as ad
from edsurrogate.errors import ConfigError
from edsurrogate.surrogate import (
    SurrogateConfig,
    SurrogateNet,
    distance_row,
    embed,
    surrogate_loss_parts,
)
from edsurrogate.text_metrics import Alphabet

from .oracles import (
    CharGrid,
    assert_gradients_close,
    encode_one_hot,
    finite_difference_gradient,
    grid_node,
)

TINY = SurrogateConfig(
    alphabet_size=3,
    capacity=4,
    embedding_dim=8,
    channels=(4, 4, 4, 4, 4),
    kernel=3,
    hidden=6,
    seed=11,
)
ALPHABET = Alphabet.from_string("_ab")


def random_grid(rng, alphabet_size=3, capacity=4) -> CharGrid:
    logits = rng.standard_normal((alphabet_size, capacity))
    p = np.exp(logits - logits.max(axis=0))
    return CharGrid(p / p.sum(axis=0))


def distance(a: CharGrid, b: CharGrid, net: SurrogateNet) -> float:
    """The surrogate distance of one pair, as a batch of one."""
    return distance_row(grid_node([a]), embed(grid_node([b]), net), net).values.item()


def test_config_validation():
    with pytest.raises(ConfigError):
        SurrogateConfig(alphabet_size=3, capacity=4, channels=(4, 4, 4))
    with pytest.raises(ConfigError):
        SurrogateConfig(alphabet_size=3, capacity=4, kernel=2)
    for slope in (-0.01, 1.5):
        with pytest.raises(ConfigError, match="key 'slope' must lie in"):
            SurrogateConfig(alphabet_size=3, capacity=4, slope=slope)


def test_embedding_shape_and_determinism():
    net = SurrogateNet(TINY)
    grid = random_grid(np.random.default_rng(0))
    first = embed(grid_node([grid]), net)
    second = embed(grid_node([grid]), net)
    assert first.shape == (TINY.embedding_dim, 1)
    assert first.values.tobytes() == second.values.tobytes()


def test_same_seed_same_weights():
    a, b = SurrogateNet(TINY), SurrogateNet(TINY)
    for name in a.params.names():
        assert a.params.node(name).values.tobytes() == b.params.node(name).values.tobytes()


def test_embed_rejects_wrong_shape():
    net = SurrogateNet(TINY)
    with pytest.raises(ConfigError):
        embed(grid_node([CharGrid(np.full((3, 5), 1.0 / 3.0))]), net)


def test_embed_gradient_wrt_grid_matches_fd():
    net = SurrogateNet(TINY)
    x0 = random_grid(np.random.default_rng(1)).values

    leaf = ad.variable(x0)
    (grad,) = ad.backward(ad.sum_all(embed(leaf, net)), [leaf])
    numeric = finite_difference_gradient(
        lambda v: ad.sum_all(embed(ad.variable(v), net)).item(), x0
    )
    assert_gradients_close(grad.values, numeric)


def test_self_distance_is_negligible():
    net = SurrogateNet(TINY)
    grid = random_grid(np.random.default_rng(2))
    assert distance(grid, grid, net) <= 1e-6


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_distance_symmetric_and_nonnegative(seed):
    net = SurrogateNet(TINY)
    rng = np.random.default_rng(seed)
    a, b = random_grid(rng), random_grid(rng)
    d_ab = distance(a, b, net)
    d_ba = distance(b, a, net)
    assert d_ab >= 0.0
    assert d_ab == pytest.approx(d_ba, abs=1e-12)


def test_loss_is_weighted_sum_of_its_parts():
    net = SurrogateNet(TINY)
    rng = np.random.default_rng(3)
    parts = surrogate_loss_parts(
        grid_node([random_grid(rng)]), grid_node([random_grid(rng)]), [2], net, 1.0, 0.1
    )
    assert parts.penalty is not None
    expected = 1.0 * parts.fit.values.item() + 0.1 * parts.penalty.values.item()
    assert parts.loss.values.item() == pytest.approx(expected, rel=1e-12)


def test_w2_zero_reduces_to_squared_error():
    net = SurrogateNet(TINY)
    rng = np.random.default_rng(4)
    z, y = random_grid(rng), random_grid(rng)
    parts = surrogate_loss_parts(grid_node([z]), grid_node([y]), [1], net, 1.0, 0.0)
    e_hat = distance(z, y, net)
    assert parts.penalty is None
    assert parts.loss.values.item() == pytest.approx((e_hat - 1.0) ** 2, rel=1e-12)


def test_one_hot_grids_accepted():
    net = SurrogateNet(TINY)
    y = encode_one_hot("ab", ALPHABET, TINY.capacity)
    z = encode_one_hot("ba", ALPHABET, TINY.capacity)
    loss = surrogate_loss_parts(grid_node([z]), grid_node([y]), [2], net, 1.0, 0.1).loss
    assert np.isfinite(loss.values.item())


def _loss_with_arrays(arrays, z, y, e, weights, term):
    net = SurrogateNet(TINY)
    net.params.load_arrays(arrays)
    parts = surrogate_loss_parts(grid_node([z]), grid_node([y]), [e], net, *weights)
    return ad.sum_all({"loss": parts.loss, "fit": parts.fit, "penalty": parts.penalty}[term])


@pytest.mark.parametrize(
    "weights,term,rel",
    [
        ((1.0, 0.0), "fit", 1e-4),  # (w1, w2)
        ((1.0, 0.1), "penalty", 1e-3),
        ((1.0, 0.1), "loss", 1e-3),
    ],
)
def test_loss_gradient_wrt_weights_matches_fd(weights, term, rel):
    """Spot-check 10 random parameter entries against central differences."""
    net = SurrogateNet(TINY)
    rng = np.random.default_rng(5)
    z, y = random_grid(rng), random_grid(rng)
    e = 2

    parts = surrogate_loss_parts(grid_node([z]), grid_node([y]), [e], net, *weights)
    root = ad.sum_all({"loss": parts.loss, "fit": parts.fit, "penalty": parts.penalty}[term])
    leaves = net.params.nodes()
    grads = ad.backward(root, leaves, create_graph=False)
    by_name = dict(zip(net.params.names(), grads))

    arrays = net.params.to_arrays()
    step = 1e-5
    picks = []
    names = net.params.names()
    while len(picks) < 10:
        name = names[rng.integers(len(names))]
        flat = int(rng.integers(arrays[name].size))
        picks.append((name, flat))
    for name, flat in picks:
        bumped = {k: v.copy() for k, v in arrays.items()}
        bumped[name].flat[flat] += step
        up = _loss_with_arrays(bumped, z, y, e, weights, term).item()
        bumped[name].flat[flat] -= 2 * step
        down = _loss_with_arrays(bumped, z, y, e, weights, term).item()
        numeric = (up - down) / (2 * step)
        analytic = by_name[name].values.flat[flat]
        bound = max(1e-7, rel * abs(numeric))
        assert abs(analytic - numeric) <= bound, (
            f"{name}[{flat}]: analytic {analytic:.6e} vs numeric {numeric:.6e}"
        )
