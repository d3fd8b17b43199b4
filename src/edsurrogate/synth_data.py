"""Deterministic synthetic word images and random word pairs.

Each character owns a fixed pseudo-random binary glyph. A word is laid out
in stride-wide cells (stride = W / L) so character slots align with the
recognizer's pooling windows; Gaussian noise and a small horizontal shift
inside the cell slack make the task imperfectly solvable. Everything is a
pure function of (config, seed): sample index i draws from rng([seed, i]).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import CapacityError, ConfigError, check_field_types, reject_unknown_keys
from .params import MAX_EXACT_SEED
from .recognizer import WordImage
from .text_metrics import Alphabet, edit_distance

LABELS_FILE = "labels.tsv"
META_FILE = "dataset.json"
_GLYPH_TABLES: dict[tuple, np.ndarray] = {}  # _glyph_table's cache, at most 8 entries


@dataclass(frozen=True)
class DatasetConfig:
    alphabet: Alphabet
    capacity: int = 8
    image_height: int = 12
    image_width: int = 32
    glyph_width: int = 3
    corpus_size: int = 5000
    noise_std: float = 0.40
    shift_range: int = 1
    seed: int = 0
    glyph_seed: int = 7

    def __post_init__(self):
        check_field_types("dataset", self)
        if not 0 <= self.seed <= MAX_EXACT_SEED:
            raise ConfigError(f"dataset key 'seed' must lie in [0, 2**53], got {self.seed}")
        symbols = "".join(self.alphabet.symbols)
        if any(ch in symbols for ch in ",\t\r\n"):  # metrics.csv and labels.tsv separators
            raise ConfigError(f"dataset key 'alphabet' holds ',', tab, CR or LF: {symbols!r}")
        if self.capacity < 1 or self.corpus_size < 1 or self.glyph_width < 1:
            raise ConfigError("capacity, corpus_size and glyph_width must be positive")
        if self.image_width < self.capacity * self.glyph_width:
            raise ConfigError("image width must fit capacity * glyph_width")
        if self.image_width % self.capacity != 0:
            raise ConfigError("image width must be a multiple of the capacity")
        if not self.noise_std >= 0:
            raise ConfigError("noise_std must be >= 0")
        slack = self.image_width // self.capacity - self.glyph_width
        if not 0 <= self.shift_range <= slack:
            raise ConfigError(f"shift_range must lie in [0, {slack}]")

    @property
    def cell_width(self) -> int:
        return self.image_width // self.capacity

    @classmethod
    def desk(cls, /, **overrides) -> "DatasetConfig":
        """The desk preset; overrides are from_dict's keys, the alphabet a string."""
        return cls.from_dict({"alphabet": "_abcdefgh", **overrides})

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["alphabet"] = "".join(self.alphabet.symbols)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetConfig":
        data = dict(data)
        reject_unknown_keys("dataset", data, [f.name for f in fields(cls)])
        symbols = data.pop("alphabet")
        if not isinstance(symbols, str):
            raise ConfigError(f"dataset key 'alphabet' must be a string, got {symbols!r}")
        return cls(alphabet=Alphabet.from_string(symbols), **data)


@dataclass(frozen=True)
class PairSample:
    word_a: str
    word_b: str
    ed: int


@dataclass(frozen=True)
class SplitCorpus:
    train: list[WordImage]
    val: list[WordImage]
    test: list[WordImage]


def glyph_bitmap(char_index: int, cfg: DatasetConfig) -> np.ndarray:
    """Fixed binary glyph for one character; pad (index 0) renders blank."""
    if char_index == 0:
        return np.zeros((cfg.image_height, cfg.glyph_width))
    rng = np.random.default_rng([cfg.glyph_seed, char_index])
    return (rng.random((cfg.image_height, cfg.glyph_width)) < 0.5).astype(np.float64)


def _glyph_table(cfg: DatasetConfig) -> np.ndarray:
    """Read-only stack of every symbol's glyph_bitmap, drawn once per glyph-defining config."""
    key = (cfg.glyph_seed, cfg.image_height, cfg.glyph_width, len(cfg.alphabet))
    if key not in _GLYPH_TABLES:
        if len(_GLYPH_TABLES) == 8:
            _GLYPH_TABLES.clear()
        table = _GLYPH_TABLES[key] = np.stack([glyph_bitmap(i, cfg) for i in range(key[3])])
        table.setflags(write=False)
    return _GLYPH_TABLES[key]


def render_word(word: str, cfg: DatasetConfig, rng) -> WordImage:
    cfg.alphabet.validate_word(word)
    if len(word) > cfg.capacity:
        raise CapacityError(f"word {word!r} exceeds capacity {cfg.capacity}")
    canvas = np.zeros((cfg.image_height, cfg.image_width))
    shift = int(rng.integers(0, cfg.shift_range + 1)) if cfg.shift_range else 0
    glyphs = _glyph_table(cfg)
    for slot, char in enumerate(word):
        col = slot * cfg.cell_width + shift
        canvas[:, col : col + cfg.glyph_width] = glyphs[cfg.alphabet.index_of(char)]
    if cfg.noise_std > 0:
        canvas = canvas + rng.normal(0.0, cfg.noise_std, canvas.shape)
    return WordImage(np.clip(canvas, 0.0, 1.0), word)


def sample_word(cfg: DatasetConfig, rng) -> str:
    length = int(rng.integers(1, cfg.capacity + 1))
    letters = cfg.alphabet.symbols[1:]
    return "".join(letters[rng.integers(len(letters))] for _ in range(length))


def sample_corpus(cfg: DatasetConfig) -> list[WordImage]:
    """corpus_size labeled images; sample i is a pure function of (seed, i)."""
    images = []
    for index in range(cfg.corpus_size):
        rng = np.random.default_rng([cfg.seed, index])
        images.append(render_word(sample_word(cfg, rng), cfg, rng))
    return images


def split_corpus(images: list[WordImage]) -> SplitCorpus:
    """80/10/10 by index."""
    n = len(images)
    a, b = (8 * n) // 10, (9 * n) // 10
    return SplitCorpus(train=images[:a], val=images[a:b], test=images[b:n])


def mutate_word(word: str, k: int, cfg: DatasetConfig, rng) -> str:
    """Apply k random edits (insert/delete/substitute); edits may cancel.

    Substitutions prefer positions no earlier edit touched and always pick a
    different character, so the resulting edit distance stays close to k and
    every distance bucket up to capacity/2 remains well populated.
    """
    letters = cfg.alphabet.symbols[1:]
    chars = list(word)
    touched: set[int] = set()
    for _ in range(k):
        moves = []
        if len(chars) < cfg.capacity:
            moves.append("insert")
        if chars:
            moves.extend(("delete", "substitute"))
        move = moves[rng.integers(len(moves))]
        if move == "insert":
            pos = int(rng.integers(len(chars) + 1))
            chars.insert(pos, letters[rng.integers(len(letters))])
            touched = {t + 1 if t >= pos else t for t in touched}
            touched.add(pos)
        elif move == "delete":
            pos = int(rng.integers(len(chars)))
            chars.pop(pos)
            touched = {t - 1 if t > pos else t for t in touched if t != pos}
        else:
            fresh = [p for p in range(len(chars)) if p not in touched]
            pool = fresh if fresh else list(range(len(chars)))
            pos = pool[rng.integers(len(pool))]
            others = [c for c in letters if c != chars[pos]]
            chars[pos] = others[rng.integers(len(others))]
            touched.add(pos)
    return "".join(chars)


def random_pair_generator(cfg: DatasetConfig, rng) -> PairSample:
    """Word pair with its true edit distance, spread over [0, L/2]."""
    base = sample_word(cfg, rng)
    k = int(rng.integers(0, cfg.capacity // 2 + 1))
    edited = mutate_word(base, k, cfg, rng)
    return PairSample(base, edited, edit_distance(base, edited))


def _pgm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    return header + np.round(pixels * 255.0).astype(np.uint8).tobytes()


def _parse_pgm(blob: bytes) -> np.ndarray:
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    if fields[0] != b"P5" or fields[3] != b"255":
        raise ValueError("expected an 8-bit P5 graymap")
    w, h = int(fields[1]), int(fields[2])
    if w < 1 or h < 1:
        raise ValueError(f"graymap size {w}x{h} is not positive")
    raster = blob[pos + 1 : pos + 1 + w * h]
    if len(raster) != w * h:
        raise ValueError("truncated graymap raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w) / 255.0


def save_dataset(directory, images: list[WordImage], cfg: DatasetConfig) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["index\tfilename\ttranscription"]
    for index, image in enumerate(images):
        filename = f"img_{index:05d}.pgm"
        (directory / filename).write_bytes(_pgm_bytes(image.pixels))
        lines.append(f"{index}\t{filename}\t{image.label}")
    (directory / LABELS_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
    (directory / META_FILE).write_text(
        json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_dataset(directory) -> tuple[list[WordImage], DatasetConfig]:
    directory = Path(directory)
    cfg = DatasetConfig.from_dict(
        json.loads((directory / META_FILE).read_text(encoding="utf-8"))
    )
    images = []
    rows = (directory / LABELS_FILE).read_text(encoding="utf-8").splitlines()
    for row in rows[1:]:
        index, filename, word = row.split("\t")
        pixels = _parse_pgm((directory / filename).read_bytes())
        images.append(WordImage(pixels, word))
        if int(index) != len(images) - 1:
            raise ValueError("label rows out of order")
    return images, cfg
