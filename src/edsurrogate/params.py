"""Named parameter collections and their on-disk checkpoint format.

Parameters live as graph leaves; an update replaces the leaf with a fresh
node of the same shape, keeping every built graph immutable.

Checkpoint layout (all integers unsigned 32-bit little-endian):
magic b"FEDS", version, alphabet size, length capacity, embedding dim,
then per tensor: name length, UTF-8 name, ndim, dims, float64 LE values.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import DiffNode, variable
from .errors import CheckpointError, ShapeError

MAGIC = b"FEDS"
FORMAT_VERSION = 1

META_SLOPE = "meta.slope"
META_SEED = "meta.seed"
MAX_EXACT_SEED = 2**53  # largest seed a float64 tensor holds exactly
MAX_NDIM = 32  # the most dims every supported numpy gives an array

# (key, test, wanted) rows for errors.check_config: a seed a checkpoint holds
# exactly, and the ranges that both net configs check before their own
SEED_ROW = ("seed", lambda v, c: 0 <= v <= MAX_EXACT_SEED, "lie in [0, 2**53]")
NET_ROWS = (
    SEED_ROW,
    ("alphabet_size", lambda v, c: v >= 2, "be >= 2"),
    ("capacity", lambda v, c: v >= 1, "be >= 1"),
    ("channels", lambda v, c: all(n >= 1 for n in v), "hold counts >= 1"),
    ("kernel", lambda v, c: v >= 1 and v % 2 == 1, "be odd and >= 1, so same-padding is exact"),
    ("slope", lambda v, c: 0 <= v <= 1, "lie in [0, 1]"),
)


class ParamStore:
    """Ordered mapping of unique names to leaf DiffNodes with stable shapes."""

    def __init__(self):
        self._nodes: dict[str, DiffNode] = {}

    def add(self, name: str, values) -> DiffNode:
        if not name:
            raise ValueError("parameter name must be non-empty")
        if name in self._nodes:
            raise ValueError(f"duplicate parameter name {name!r}")
        node = variable(values)
        self._nodes[name] = node
        return node

    def add_layer(self, name: str, rng, shape) -> None:
        """name.weight of shape, then name.bias of (shape[0], 1), both drawn
        from U(-1/sqrt(fan_in), 1/sqrt(fan_in)) with fan_in = prod(shape[1:])."""
        bound = np.sqrt(1.0 / math.prod(shape[1:]))
        self.add(f"{name}.weight", rng.uniform(-bound, bound, size=shape))
        self.add(f"{name}.bias", rng.uniform(-bound, bound, size=(shape[0], 1)))

    def add_conv_stack(self, rng, c_in: int, channels, kernel: int) -> None:
        """Layers conv0, conv1, ... with channels[i] outputs, each reading the
        channels of the layer before (c_in for conv0)."""
        for i, c_out in enumerate(channels):
            self.add_layer(f"conv{i}", rng, (c_out, c_in, kernel))
            c_in = c_out

    def node(self, name: str) -> DiffNode:
        return self._nodes[name]

    def layer(self, name: str) -> tuple[DiffNode, DiffNode]:
        """The weight and bias nodes of the layer add_layer made as name."""
        return self._nodes[f"{name}.weight"], self._nodes[f"{name}.bias"]

    def names(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def nodes(self) -> list[DiffNode]:
        return list(self._nodes.values())

    def assign(self, name: str, values) -> DiffNode:
        """Replace a leaf with new values of the same shape."""
        old = self._nodes[name]
        node = variable(values)
        if node.shape != old.shape:
            raise ShapeError(
                f"parameter {name!r} shape {old.shape} cannot become {node.shape}"
            )
        self._nodes[name] = node
        return node

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {name: node.values.copy() for name, node in self._nodes.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        if set(arrays) != set(self._nodes):
            missing = set(self._nodes) - set(arrays)
            extra = set(arrays) - set(self._nodes)
            raise CheckpointError(
                f"parameter names do not match: missing {sorted(missing)}, "
                f"unexpected {sorted(extra)}"
            )
        for name in self._nodes:
            self.assign(name, arrays[name])


@dataclass(frozen=True)
class CheckpointHeader:
    alphabet_size: int
    capacity: int
    embedding_dim: int


def _write_u32(fh, value: int) -> None:
    fh.write(struct.pack("<I", value))


def _read(fh, size: int, end: int) -> bytes:
    """The next size bytes of fh, a file of end bytes; checked before reading."""
    if size > end - fh.tell():
        raise CheckpointError("truncated checkpoint")
    return fh.read(size)


def _read_u32(fh, end: int) -> int:
    return struct.unpack("<I", _read(fh, 4, end))[0]


def save_net(path, net, embedding_dim: int, extra: dict[str, np.ndarray]) -> None:
    """Save net's parameters, then the meta tensors of the config fields that
    tensor shapes do not carry (the LeakyReLU slope and the init seed), then
    extra, under a header of net's alphabet size and capacity."""
    config = net.config
    header = CheckpointHeader(config.alphabet_size, config.capacity, embedding_dim)
    arrays = {
        **net.params.to_arrays(),
        META_SLOPE: np.array([float(config.slope)]),
        META_SEED: np.array([float(config.seed)]),
        **extra,
    }
    save_checkpoint(path, header, arrays)


def pop_network_meta(arrays: dict[str, np.ndarray]) -> dict:
    """Remove the meta tensors written by save_net and return them as
    config fields. Files written before they existed lack them; the config
    defaults then apply."""
    fields = {}
    for name, field in ((META_SLOPE, "slope"), (META_SEED, "seed")):
        if name not in arrays:
            continue
        value = arrays.pop(name)
        if value.shape != (1,):
            raise CheckpointError(f"meta tensor {name!r} has shape {value.shape}")
        fields[field] = float(value[0])
    if "seed" in fields:
        seed = fields["seed"]
        if not (seed.is_integer() and 0 <= seed <= MAX_EXACT_SEED):
            raise CheckpointError(f"meta tensor {META_SEED!r} holds {seed!r}, not a seed")
        fields["seed"] = int(seed)
    return fields


def tensor_shape(arrays: dict[str, np.ndarray], name: str, ndim: int, family: str) -> tuple:
    """The shape of tensor name in a family checkpoint, which must be
    present with ndim dims, none of them empty."""
    if name not in arrays:
        raise CheckpointError(f"missing tensor {name!r} in {family} checkpoint")
    shape = arrays[name].shape
    if len(shape) != ndim or 0 in shape:
        raise CheckpointError(f"tensor {name!r} in {family} checkpoint has shape {shape}")
    return shape


def conv_chain(arrays: dict[str, np.ndarray], family: str, c_in: int) -> tuple:
    """Output channels and kernel of the weights conv0, conv1, ... of a
    family checkpoint, up to the first missing index, each of which must read
    the channels of the layer before (c_in for conv0) with conv0's kernel.
    Checked before a net is built, which sizes its tensors from these."""
    kernel = tensor_shape(arrays, "conv0.weight", 3, family)[2]
    channels = []
    while (name := f"conv{len(channels)}.weight") in arrays:
        shape = tensor_shape(arrays, name, 3, family)
        if shape[1:] != (c_in, kernel):
            raise CheckpointError(
                f"tensor {name!r} in {family} checkpoint has shape {shape}, "
                f"but follows {c_in} channels with kernel {kernel}"
            )
        c_in = shape[0]
        channels.append(c_in)
    return tuple(channels), kernel


def save_checkpoint(path, header: CheckpointHeader, arrays: dict[str, np.ndarray]) -> None:
    """Write to a temporary file beside path, then rename it over path, so a
    save that fails leaves any earlier file at path whole."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "wb") as fh:
            fh.write(MAGIC)
            _write_u32(fh, FORMAT_VERSION)
            _write_u32(fh, header.alphabet_size)
            _write_u32(fh, header.capacity)
            _write_u32(fh, header.embedding_dim)
            for name, values in arrays.items():
                encoded = name.encode("utf-8")
                _write_u32(fh, len(encoded))
                fh.write(encoded)
                values = np.ascontiguousarray(values, dtype=np.float64)
                _write_u32(fh, values.ndim)
                for dim in values.shape:
                    _write_u32(fh, dim)
                fh.write(values.astype("<f8").tobytes())
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple[CheckpointHeader, dict[str, np.ndarray]]:
    path = Path(path)
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}")
        version = _read_u32(fh, end)
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        header = CheckpointHeader(
            alphabet_size=_read_u32(fh, end),
            capacity=_read_u32(fh, end),
            embedding_dim=_read_u32(fh, end),
        )
        arrays: dict[str, np.ndarray] = {}
        while fh.tell() < end:
            raw_name = _read(fh, _read_u32(fh, end), end)
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"tensor name {raw_name[:32]!r} is not UTF-8") from None
            if name in arrays:
                raise CheckpointError(f"duplicate tensor name {name!r}")
            ndim = _read_u32(fh, end)
            if ndim > MAX_NDIM:
                raise CheckpointError(f"tensor {name!r} has {ndim} dims, more than {MAX_NDIM}")
            shape = struct.unpack(f"<{ndim}I", _read(fh, 4 * ndim, end))
            payload = _read(fh, 8 * math.prod(shape), end)  # exact ints, no overflow
            arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return header, arrays
