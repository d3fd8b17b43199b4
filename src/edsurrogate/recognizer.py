"""Small differentiable recognizer from word images to character grids.

The image is treated as a length-W sequence of H-dimensional columns.
A conv1d stack produces per-column features, non-overlapping average
pooling maps the W positions onto the L character slots, and a linear
head with column softmax yields the grid. A batch of B images runs as one
graph: the images sit side by side as B column segments of width W.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DiffNode
from .errors import CheckpointError, ConfigError, NumericError, ShapeError, check_config
from .params import (
    NET_ROWS,
    ParamStore,
    conv_chain,
    load_checkpoint,
    pop_network_meta,
    save_net,
    tensor_shape,
)
from .text_metrics import is_one_hot

META_IMAGE_SHAPE = "meta.image_shape"
_ROWS = (
    *NET_ROWS,
    ("channels", lambda v, c: len(v) >= 1, "hold at least one count"),
    *((key, lambda v, c: v >= 1, "be >= 1") for key in ("image_height", "image_width")),
    ("image_width", lambda v, c: v % c.capacity == 0, "be a multiple of capacity"),
)


@dataclass(frozen=True)
class WordImage:
    pixels: np.ndarray
    label: str

    def __post_init__(self):
        pixels = np.asarray(self.pixels, dtype=np.float64)
        if pixels.ndim != 2:
            raise ShapeError(f"image must be 2-d, got shape {pixels.shape}")
        if not (0.0 <= pixels.min() and pixels.max() <= 1.0):  # NaN fails both
            if not np.all(np.isfinite(pixels)):
                raise NumericError("image contains non-finite pixels")
            raise ValueError("pixels must lie in [0, 1]")
        pixels.setflags(write=False)
        object.__setattr__(self, "pixels", pixels)


@dataclass(frozen=True)
class RecognizerConfig:
    alphabet_size: int
    capacity: int
    image_height: int
    image_width: int
    channels: tuple[int, ...] = (16, 16)
    kernel: int = 3
    slope: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_config("recognizer", self, _ROWS)


class RecognizerNet:
    """Conv stack over image columns + per-position linear head."""

    def __init__(self, config: RecognizerConfig):
        self.config = config
        self.params = ParamStore()
        rng = np.random.default_rng(config.seed)
        self.params.add_conv_stack(rng, config.image_height, config.channels, config.kernel)
        self.params.add_layer("head", rng, (config.alphabet_size, config.channels[-1]))


def forward(images: WordImage | Sequence[WordImage], net: RecognizerNet) -> DiffNode:
    """Soft-max grids as one graph node, differentiable w.r.t. the weights.

    One image gives its (|A|, L) grid; a sequence of B images gives the
    (|A|, B*L) node whose b-th L-wide column block is image b's grid.
    """
    config = net.config
    batch = [images] if isinstance(images, WordImage) else list(images)
    if not batch:
        raise ConfigError("empty image batch")
    for image in batch:
        if image.pixels.shape != (config.image_height, config.image_width):
            raise ConfigError(
                f"image shape {image.pixels.shape} does not match net "
                f"({config.image_height}, {config.image_width})"
            )
    x = ad.constant(np.concatenate([image.pixels for image in batch], axis=1))
    for i in range(len(config.channels)):
        x = ad.leaky_relu(ad.conv1d(x, *net.params.layer(f"conv{i}"), len(batch)), config.slope)
    stride = config.image_width // config.capacity
    pooled = ad.mul_const(ad.segment_sum(x, len(batch) * config.capacity), 1.0 / stride)
    weight, bias = net.params.layer("head")
    logits = ad.linear(weight, pooled, bias)
    return ad.softmax_columns(logits)


def ce_loss(z_hat: DiffNode, y_values: np.ndarray, count: int) -> DiffNode:
    """(1, count) row of per-sample mean cross entropy -(1/(L|A|)) sum y log z,
    log clamped at 1e-12, for count one-hot target grids laid side by side in
    y_values like forward's output."""
    if not is_one_hot(y_values):
        raise ValueError("target grid must be one-hot")
    if z_hat.shape != y_values.shape:
        raise ShapeError(f"prediction shape {z_hat.shape} != target shape {y_values.shape}")
    logs = ad.log(ad.clamp_min(z_hat, 1e-12))
    products = ad.segment_sum(ad.mul(ad.constant(y_values), logs), count)
    return ad.mul_const(ad.sum_axis(products, 0), -count / y_values.size)


def save_recognizer(path, net: RecognizerNet) -> None:
    """Same tensor format as the surrogate; the image dims ride as one more
    meta tensor."""
    shape = [net.config.image_height, net.config.image_width]
    save_net(path, net, 0, {META_IMAGE_SHAPE: np.array(shape, dtype=np.float64)})


def load_recognizer(path) -> RecognizerNet:
    header, arrays = load_checkpoint(path)
    network = pop_network_meta(arrays)
    if tensor_shape(arrays, META_IMAGE_SHAPE, 1, "recognizer") != (2,):
        raise CheckpointError(f"tensor {META_IMAGE_SHAPE!r} must hold the image height and width")
    height, width = arrays.pop(META_IMAGE_SHAPE).tolist()
    conv_in = tensor_shape(arrays, "conv0.weight", 3, "recognizer")[1]
    # Checked before the net is built, which sizes its tensors from these.
    if height != conv_in or not width.is_integer():
        raise CheckpointError(f"image shape ({height!r}, {width!r}) does not fit conv0.weight")
    channels, kernel = conv_chain(arrays, "recognizer", conv_in)
    head_rows, head_in = tensor_shape(arrays, "head.weight", 2, "recognizer")
    if head_rows != header.alphabet_size:
        raise CheckpointError(f"header alphabet_size {header.alphabet_size} != head rows")
    if head_in != channels[-1]:
        raise CheckpointError(f"head.weight reads {head_in} channels, not {channels[-1]}")
    config = RecognizerConfig(
        alphabet_size=header.alphabet_size,
        capacity=header.capacity,
        image_height=int(height),
        image_width=int(width),
        channels=channels,
        kernel=kernel,
        **network,
    )
    net = RecognizerNet(config)
    net.params.load_arrays(arrays)
    return net
