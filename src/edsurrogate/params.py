"""Named parameter collections and their on-disk checkpoint format.

Parameters live as graph leaves; an update replaces the leaf with a fresh
node of the same shape, keeping every built graph immutable.

Checkpoint layout (all integers unsigned 32-bit little-endian):
magic b"FEDS", version, alphabet size, length capacity, embedding dim,
then per tensor: name length, UTF-8 name, ndim, dims, float64 LE values.
"""

from __future__ import annotations

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

    def add_uniform(self, name: str, rng, shape, fan_in: int) -> DiffNode:
        """A parameter drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
        bound = np.sqrt(1.0 / fan_in)
        return self.add(name, rng.uniform(-bound, bound, size=shape))

    def node(self, name: str) -> DiffNode:
        return self._nodes[name]

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
    version: int = FORMAT_VERSION


def _write_u32(fh, value: int) -> None:
    fh.write(struct.pack("<I", value))


def _read_u32(fh) -> int:
    raw = fh.read(4)
    if len(raw) != 4:
        raise CheckpointError("truncated checkpoint")
    return struct.unpack("<I", raw)[0]


def network_meta(slope: float, seed: int) -> dict[str, np.ndarray]:
    """Meta tensors for the network config fields that tensor shapes do not
    carry: the LeakyReLU slope and the init seed."""
    if not 0 <= seed <= MAX_EXACT_SEED:
        raise CheckpointError(f"seed {seed} cannot be stored exactly")
    return {META_SLOPE: np.array([float(slope)]), META_SEED: np.array([float(seed)])}


def pop_network_meta(arrays: dict[str, np.ndarray]) -> dict:
    """Remove the meta tensors written by network_meta and return them as
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
    present with ndim dims."""
    if name not in arrays:
        raise CheckpointError(f"missing tensor {name!r} in {family} checkpoint")
    shape = arrays[name].shape
    if len(shape) != ndim:
        raise CheckpointError(f"tensor {name!r} in {family} checkpoint has shape {shape}")
    return shape


def save_checkpoint(path, header: CheckpointHeader, arrays: dict[str, np.ndarray]) -> None:
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        _write_u32(fh, header.version)
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


def load_checkpoint(path) -> tuple[CheckpointHeader, dict[str, np.ndarray]]:
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}")
        version = _read_u32(fh)
        if version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        header = CheckpointHeader(
            alphabet_size=_read_u32(fh),
            capacity=_read_u32(fh),
            embedding_dim=_read_u32(fh),
            version=version,
        )
        arrays: dict[str, np.ndarray] = {}
        while True:
            raw = fh.read(4)
            if not raw:
                break
            if len(raw) != 4:
                raise CheckpointError("truncated checkpoint")
            name_len = struct.unpack("<I", raw)[0]
            name = fh.read(name_len).decode("utf-8")
            if name in arrays:
                raise CheckpointError(f"duplicate tensor name {name!r}")
            ndim = _read_u32(fh)
            shape = tuple(_read_u32(fh) for _ in range(ndim))
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            payload = fh.read(count * 8)
            if len(payload) != count * 8:
                raise CheckpointError("truncated checkpoint")
            arrays[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
    return header, arrays
