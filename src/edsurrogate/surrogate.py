"""Learned edit-distance surrogate: a char-level CNN embedding of grids
compared in Euclidean space, plus its regression-with-penalty training loss.

The network reads a grid as |A| channels over the length axis, applies five
same-padded conv layers with LeakyReLU, pools over length, and maps through
two fully connected layers to a fixed-size embedding. A batch of B grids runs
as one graph: the grids sit side by side as B column segments of width L, and
every per-sample quantity comes out as one entry of a (1, B) row.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffNode
from .errors import CheckpointError, ConfigError, ShapeError, check_config
from .params import (
    NET_ROWS,
    ParamStore,
    conv_chain,
    load_checkpoint,
    pop_network_meta,
    save_net,
    tensor_shape,
)

CONV_LAYERS = 5
_ROWS = (
    *NET_ROWS,
    ("channels", lambda v, c: len(v) == CONV_LAYERS, f"hold {CONV_LAYERS} counts"),
    *((key, lambda v, c: v >= 1, "be >= 1") for key in ("embedding_dim", "hidden")),
)


@dataclass(frozen=True)
class SurrogateConfig:
    alphabet_size: int
    capacity: int
    embedding_dim: int = 128
    channels: tuple[int, ...] = (64, 64, 64, 64, 64)
    kernel: int = 3
    hidden: int = 128
    slope: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_config("surrogate", self, _ROWS)


class SurrogateNet:
    """Five conv1d layers + two FC layers over one-hot or soft grids."""

    def __init__(self, config: SurrogateConfig):
        self.config = config
        self.params = ParamStore()
        rng = np.random.default_rng(config.seed)
        self.params.add_conv_stack(rng, config.alphabet_size, config.channels, config.kernel)
        self.params.add_layer("fc1", rng, (config.hidden, config.channels[-1]))
        self.params.add_layer("fc2", rng, (config.embedding_dim, config.hidden))


def _as_grid_node(node: DiffNode, config: SurrogateConfig) -> DiffNode:
    """node, once its shape is checked to hold B >= 1 grids side by side."""
    if (
        node.ndim != 2
        or node.shape[0] != config.alphabet_size
        or node.shape[1] == 0
        or node.shape[1] % config.capacity != 0
    ):
        raise ConfigError(
            f"grid shape {node.shape} does not hold grids of shape "
            f"{(config.alphabet_size, config.capacity)}"
        )
    return node


def embed(grids: DiffNode, net: SurrogateNet) -> DiffNode:
    """Deterministic (E, B) embedding of the B grids held side by side in an
    (|A|, B*L) node, one column each, differentiable in grids and weights."""
    config = net.config
    x = _as_grid_node(grids, config)
    batch = x.shape[1] // config.capacity
    for i in range(CONV_LAYERS):
        x = ad.leaky_relu(ad.conv1d(x, *net.params.layer(f"conv{i}"), batch), config.slope)
    pooled = ad.mul_const(ad.segment_sum(x, batch), 1.0 / config.capacity)
    weight, bias = net.params.layer("fc1")
    h = ad.leaky_relu(ad.linear(weight, pooled, bias), config.slope)
    weight, bias = net.params.layer("fc2")
    return ad.linear(weight, h, bias)


def distance_row(z_hat: DiffNode, y_embedding: DiffNode, net: SurrogateNet) -> DiffNode:
    """(1, B) row of Euclidean distances between the embeddings of the B
    grids in z_hat and the B columns of y_embedding."""
    diff = ad.sub(embed(z_hat, net), y_embedding)
    return ad.segment_norms(diff, diff.shape[1])


@dataclass(frozen=True)
class SurrogateLossParts:
    loss: DiffNode
    e_hat: DiffNode
    fit: DiffNode
    penalty: DiffNode | None


def surrogate_loss_parts(
    z_hat: DiffNode, y_hat: DiffNode, e: Sequence[int], net: SurrogateNet, w2: float
) -> SurrogateLossParts:
    """(1, B) rows of the loss (e_hat - e)^2 + w2*(||d e_hat/d z||_2 - 1)^2
    and its pieces, for B distances e, B predicted grids z_hat and B target
    grids y_hat, each given as embed takes them.

    The penalty gradient is taken w.r.t. the predicted grids only, with
    create_graph set so the loss stays differentiable in the weights;
    samples do not interact, so one backward of sum(e_hat) gives every
    sample's gradient as its own column block.
    """
    if len(e) == 0 or min(e) < 0:
        raise ValueError("edit distances must be a non-empty sequence of non-negative ints")
    z_node = ad.variable(_as_grid_node(z_hat, net.config).values)
    if z_node.shape[1] != len(e) * net.config.capacity:
        raise ShapeError(f"predicted grids {z_node.shape} do not hold {len(e)} samples")
    e_row = ad.constant(np.reshape(np.asarray(e, dtype=np.float64), (1, len(e))))
    e_hat = distance_row(z_node, embed(y_hat, net), net)
    loss = fit = ad.square(ad.sub(e_hat, e_row))
    penalty = None
    if w2 > 0:
        (grad_z,) = ad.backward(ad.sum_all(e_hat), [z_node], create_graph=True)
        penalty = ad.square(ad.add_scalar(ad.segment_norms(grad_z, len(e)), -1.0))
        loss = ad.add(fit, ad.mul_const(penalty, w2))
    return SurrogateLossParts(loss=loss, e_hat=e_hat, fit=fit, penalty=penalty)


def save_surrogate(path, net: SurrogateNet) -> None:
    save_net(path, net, net.config.embedding_dim, {})


def load_surrogate(path) -> SurrogateNet:
    """Rebuild a net from a checkpoint; layer sizes come from tensor shapes."""
    header, arrays = load_checkpoint(path)
    network = pop_network_meta(arrays)
    # Checked before the net is built, which sizes its tensors from these.
    channels, kernel = conv_chain(arrays, "surrogate", header.alphabet_size)
    hidden, fc1_in = tensor_shape(arrays, "fc1.weight", 2, "surrogate")
    out_dim, fc2_in = tensor_shape(arrays, "fc2.weight", 2, "surrogate")
    if out_dim != header.embedding_dim:
        raise CheckpointError(
            f"header embedding_dim {header.embedding_dim} != fc2 rows {out_dim}"
        )
    if (fc1_in, fc2_in) != (channels[-1], hidden):
        raise CheckpointError(
            f"fc1.weight reads {fc1_in} channels and fc2.weight {fc2_in}, "
            f"not {channels[-1]} and {hidden}"
        )
    config = SurrogateConfig(
        alphabet_size=header.alphabet_size,
        capacity=header.capacity,
        embedding_dim=header.embedding_dim,
        channels=channels,
        kernel=kernel,
        hidden=hidden,
        **network,
    )
    net = SurrogateNet(config)
    net.params.load_arrays(arrays)
    return net
