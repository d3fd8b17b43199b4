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
from .errors import CheckpointError, ConfigError, ShapeError, check_field_types
from .params import (
    CheckpointHeader,
    ParamStore,
    conv_chain,
    load_checkpoint,
    network_meta,
    pop_network_meta,
    save_checkpoint,
    tensor_shape,
)
from .text_metrics import CharGrid

CONV_LAYERS = 5


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
        check_field_types("surrogate", self)
        if self.alphabet_size < 2 or self.capacity < 1:
            raise ConfigError("alphabet_size >= 2 and capacity >= 1 required")
        if self.embedding_dim < 1 or self.hidden < 1:
            raise ConfigError("embedding_dim and hidden must be positive")
        if len(self.channels) != CONV_LAYERS:
            raise ConfigError(f"exactly {CONV_LAYERS} conv layers required")
        if any(c < 1 for c in self.channels):
            raise ConfigError("channel counts must be positive")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError("kernel must be odd so same-padding is exact")
        if not 0 <= self.slope <= 1:
            raise ConfigError(f"surrogate key 'slope' must lie in [0, 1], got {self.slope}")


class SurrogateNet:
    """Five conv1d layers + two FC layers over CharGrid inputs."""

    def __init__(self, config: SurrogateConfig):
        self.config = config
        self.params = ParamStore()
        rng = np.random.default_rng(config.seed)
        c_in = config.alphabet_size
        for i, c_out in enumerate(config.channels):
            fan_in = c_in * config.kernel
            self.params.add_uniform(f"conv{i}.weight", rng, (c_out, c_in, config.kernel), fan_in)
            self.params.add_uniform(f"conv{i}.bias", rng, (c_out, 1), fan_in)
            c_in = c_out
        hidden, out_dim = config.hidden, config.embedding_dim
        self.params.add_uniform("fc1.weight", rng, (hidden, c_in), c_in)
        self.params.add_uniform("fc1.bias", rng, (hidden, 1), c_in)
        self.params.add_uniform("fc2.weight", rng, (out_dim, hidden), hidden)
        self.params.add_uniform("fc2.bias", rng, (out_dim, 1), hidden)

    @property
    def embedding_dim(self) -> int:
        return self.config.embedding_dim


def _as_grid_node(grids, config: SurrogateConfig) -> DiffNode:
    """One node holding the grids side by side: a sequence of CharGrids, or
    a DiffNode that already holds B grids."""
    if isinstance(grids, DiffNode):
        node = grids
    elif isinstance(grids, Sequence) and grids and all(isinstance(g, CharGrid) for g in grids):
        node = ad.constant(np.concatenate([g.values for g in grids], axis=1))
    else:
        raise TypeError("expected a non-empty sequence of CharGrids, or a DiffNode")
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


def embed(grids, net: SurrogateNet) -> DiffNode:
    """Deterministic (E, B) embedding of B grids, one column each,
    differentiable in grids and weights. grids is a sequence of B CharGrids
    or a DiffNode holding B grids side by side."""
    config = net.config
    x = _as_grid_node(grids, config)
    batch = x.shape[1] // config.capacity
    for i in range(CONV_LAYERS):
        x = ad.conv1d(
            x, net.params.node(f"conv{i}.weight"), net.params.node(f"conv{i}.bias"), batch
        )
        x = ad.leaky_relu(x, config.slope)
    pooled = ad.mul_scalar(ad.segment_sum(x, batch), 1.0 / config.capacity)
    h = ad.leaky_relu(
        ad.linear(net.params.node("fc1.weight"), pooled, net.params.node("fc1.bias")),
        config.slope,
    )
    return ad.linear(net.params.node("fc2.weight"), h, net.params.node("fc2.bias"))


def distance_row(z_hat, y_embedding: DiffNode, net: SurrogateNet) -> DiffNode:
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
    z_hat, y_hat, e: Sequence[int], net: SurrogateNet, w1: float, w2: float
) -> SurrogateLossParts:
    """(1, B) rows of the loss w1*(e_hat - e)^2 + w2*(||d e_hat/d z||_2 - 1)^2
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
    fit = ad.square(ad.sub(e_hat, e_row))
    loss = ad.mul_scalar(fit, w1)
    penalty = None
    if w2 > 0:
        (grad_z,) = ad.backward(ad.sum_all(e_hat), [z_node], create_graph=True)
        penalty = ad.square(ad.add_scalar(ad.segment_norms(grad_z, len(e)), -1.0))
        loss = ad.add(loss, ad.mul_scalar(penalty, w2))
    return SurrogateLossParts(loss=loss, e_hat=e_hat, fit=fit, penalty=penalty)


def save_surrogate(path, net: SurrogateNet) -> None:
    config = net.config
    header = CheckpointHeader(
        alphabet_size=config.alphabet_size,
        capacity=config.capacity,
        embedding_dim=config.embedding_dim,
    )
    arrays = net.params.to_arrays()
    arrays.update(network_meta(config.slope, config.seed))
    save_checkpoint(path, header, arrays)


def load_surrogate(path) -> SurrogateNet:
    """Rebuild a net from a checkpoint; layer sizes come from tensor shapes."""
    header, arrays = load_checkpoint(path)
    network = pop_network_meta(arrays)
    # Checked before the net is built, which sizes its tensors from these.
    channels, kernel = conv_chain(arrays, "surrogate", header.alphabet_size, CONV_LAYERS)
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
