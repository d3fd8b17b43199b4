"""Deterministic synthetic word images and random word pairs.

Each character owns a fixed pseudo-random binary glyph. A word is laid out
in stride-wide cells (stride = W / L) so character slots align with the
recognizer's pooling windows; Gaussian noise and a small horizontal shift
inside the cell slack make the task imperfectly solvable. Everything is a
pure function of (config, seed): sample index i draws from rng([seed, i]).
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import check_config, reject_unknown_keys
from .params import SEED_ROW
from .recognizer import WordImage
from .text_metrics import edit_distance, label_rows

LABELS_FILE = "labels.tsv"
META_FILE = "dataset.json"
# Images per block: 32 desk images are 96 KB, below glibc's 128 KB mmap threshold. A
# larger block is mmapped, and freeing it raises that threshold for the rest of the process.
_BLOCK_IMAGES = 32
# metrics.csv and labels.tsv split fields on ',' and tab, and lines on each
# line boundary of str.splitlines
SEPARATORS = ",\t\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029"
_ROWS = (
    ("alphabet", lambda v, c: len(v) >= 2, "hold at least 2 symbols"),
    ("alphabet", lambda v, c: len(set(v)) == len(v), "hold each symbol once"),
    ("alphabet", lambda v, c: set(v).isdisjoint(SEPARATORS), "hold no ',', tab or line boundary"),
    SEED_ROW,
    *((key, lambda v, c: v >= 1, "be >= 1")
      for key in ("capacity", "image_height", "corpus_size", "glyph_width")),
    ("glyph_seed", lambda v, c: v >= 0, "be >= 0"),
    ("image_width", lambda v, c: v >= c.capacity * c.glyph_width, "be >= capacity * glyph_width"),
    ("image_width", lambda v, c: v % c.capacity == 0, "be a multiple of capacity"),
    ("noise_std", lambda v, c: v >= 0, "be >= 0"),
    ("shift_range", lambda v, c: 0 <= v <= c.cell_width - c.glyph_width,
     "lie in [0, image_width / capacity - glyph_width]"),
)


@dataclass(frozen=True)
class DatasetConfig:
    alphabet: str  # distinct symbols, the pad first
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
        check_config("dataset", self, _ROWS)

    @property
    def cell_width(self) -> int:
        return self.image_width // self.capacity

    @classmethod
    def desk(cls, /, **overrides) -> "DatasetConfig":
        """The desk preset: alphabet "_abcdefgh" and the field defaults, each
        replaced by the override of the same name."""
        reject_unknown_keys("dataset", overrides, [f.name for f in fields(cls)])
        return cls(**{"alphabet": "_abcdefgh", **overrides})


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


@functools.lru_cache(maxsize=8)
def _glyph_table(cfg: DatasetConfig) -> np.ndarray:
    """Read-only stack of every symbol's glyph_bitmap, drawn once per config."""
    table = np.stack([glyph_bitmap(i, cfg) for i in range(len(cfg.alphabet))])
    table.setflags(write=False)
    return table


def sample_word(cfg: DatasetConfig, rng) -> str:
    length = int(rng.integers(1, cfg.capacity + 1))
    letters = cfg.alphabet[1:]
    return "".join([letters[k] for k in rng.integers(len(letters), size=length).tolist()])


def sample_corpus(cfg: DatasetConfig) -> list[WordImage]:
    """corpus_size labeled images; sample i is a pure function of (seed, i)."""
    images: list[WordImage] = []
    for start in range(0, cfg.corpus_size, _BLOCK_IMAGES):
        images += _render_block(cfg, range(start, min(start + _BLOCK_IMAGES, cfg.corpus_size)))
    return images


def _render_block(cfg: DatasetConfig, indices: range) -> list[WordImage]:
    """The images of indices as read-only rows of one block. Per image only its
    draws from rng([seed, i]): word, shift, then noise straight into its row.
    Then, once per block: every slot's glyph columns added with one fancy index
    (a pad slot adds the blank glyph, so + 0.0), one clip, one read-only flag."""
    shape = (cfg.image_height, cfg.image_width)
    pixels = np.zeros((len(indices), *shape))
    words, shifts = [], np.zeros(len(indices), dtype=np.intp)
    for row, index in enumerate(indices):
        rng = np.random.default_rng([cfg.seed, index])
        words.append(sample_word(cfg, rng))
        if cfg.shift_range:
            shifts[row] = rng.integers(0, cfg.shift_range + 1)
        if cfg.noise_std > 0:
            pixels[row] = rng.normal(0.0, cfg.noise_std, shape)
    width = np.arange(cfg.glyph_width)
    columns = np.arange(cfg.capacity)[:, None] * cfg.cell_width + width + shifts[:, None, None]
    rows = label_rows(words, cfg.alphabet, cfg.capacity)[:, :, None]
    pixels[np.arange(len(words))[:, None, None], :, columns] += _glyph_table(cfg)[rows, :, width]
    np.clip(pixels, 0.0, 1.0, out=pixels)
    pixels.setflags(write=False)
    return [WordImage(image, word) for image, word in zip(pixels, words)]


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
    letters = cfg.alphabet[1:]
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
        json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
