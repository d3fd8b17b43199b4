"""Independent reference implementations used only to check the package,
and the test-only forms that the package does not ship.

The oracles do not touch the library's own code paths: the edit-distance
oracles are top-down recursion over the three-way recurrence and the
two-row DP that the bit-parallel distance replaced, the gradient oracle is
central finite differences, the grid oracles check and decode one grid, and
one column, at a time, the kernel oracles are the np.where and
broadcast-copy forms of autodiff's leaky ReLU, tile and softmax shift, the
corpus oracles draw a word one letter at a time and render one image at a
time on its own canvas, and the PGM reader reads gen-data's files back.

The test-only forms: CharGrid, one checked grid, with grid_node to lay a
list of them side by side as the surrogate takes its input; the 37-symbol
default alphabet; l2_norm_eps, the whole-array norm that
autodiff.segment_norms takes per block; clip_max and abs_val; the paper's
literal filtered loss min(|e_hat - e|, lam), filter_value and
literal_loss_parts, set beside the shipped gated loss in LOSS_PARTS; and
read_scatter_csv, which reads the scatter export back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from edsurrogate import autodiff as ad
from edsurrogate.errors import CapacityError, ConfigError, ShapeError
from edsurrogate.evaluation import SCATTER_HEADER
from edsurrogate.recognizer import WordImage
from edsurrogate.surrogate import distance_row
from edsurrogate.synth_data import LABELS_FILE, META_FILE, DatasetConfig, glyph_bitmap
from edsurrogate.text_metrics import Alphabet, _checked, encode_batch
from edsurrogate.training import FilteredLossParts, filtered_str_loss_parts


def recursive_edit_distance(a: str, b: str, memo=None) -> int:
    """Top-down recursion over the insert/delete/substitute recurrence."""
    if memo is None:
        memo = {}
    key = (a, b)
    if key in memo:
        return memo[key]
    if not a:
        result = len(b)
    elif not b:
        result = len(a)
    else:
        result = min(
            recursive_edit_distance(a[:-1], b, memo) + 1,
            recursive_edit_distance(a, b[:-1], memo) + 1,
            recursive_edit_distance(a[:-1], b[:-1], memo) + (a[-1] != b[-1]),
        )
    memo[key] = result
    return result


def unmemoized_edit_distance(a: str, b: str) -> int:
    """Same recurrence with no caching at all; only for short strings."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        unmemoized_edit_distance(a[:-1], b) + 1,
        unmemoized_edit_distance(a, b[:-1]) + 1,
        unmemoized_edit_distance(a[:-1], b[:-1]) + (a[-1] != b[-1]),
    )


def two_row_edit_distance(a: str, b: str) -> int:
    """Levenshtein distance by the two-row DP over the shorter word."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def finite_difference_gradient(func, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.reshape(-1)
    base = x.copy()
    for i in range(x.size):
        plus = base.copy().reshape(-1)
        minus = base.copy().reshape(-1)
        plus[i] += step
        minus[i] -= step
        f_plus = func(plus.reshape(x.shape))
        f_minus = func(minus.reshape(x.shape))
        flat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def assert_gradients_close(analytic, numeric, abs_tol=1e-7, rel_tol=1e-4):
    """Check |analytic - numeric| <= max(abs_tol, rel_tol * |numeric|) per entry."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    assert analytic.shape == numeric.shape
    diff = np.abs(analytic - numeric)
    bound = np.maximum(abs_tol, rel_tol * np.abs(numeric))
    worst = np.max(diff - bound)
    assert worst <= 0.0, (
        f"gradient mismatch: max violation {worst:.3e}, "
        f"max abs diff {diff.max():.3e}"
    )


def per_grid_decode(values, count: int, alphabet, tol: float = 1e-6) -> list[str]:
    """Greedy decoding of count side-by-side grids, one grid at a time: each
    grid is checked on its own (finite, columns summing to 1 within tol, one
    row per symbol), then each column's first largest row is its symbol and
    the pad symbol is dropped. Raises ShapeError with the package's messages."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or count < 1 or values.shape[1] % count != 0:
        raise ShapeError(f"shape {values.shape} does not hold {count} grids")
    words = []
    for grid in np.split(values, count, axis=1):
        if not np.all(np.isfinite(grid)):
            raise ShapeError("grid contains non-finite entries")
        if any(abs(sum(column) - 1.0) > tol for column in grid.T.tolist()):
            raise ShapeError("grid columns must each sum to 1")
        if grid.shape[0] != len(alphabet):
            raise ShapeError("grid row count does not match alphabet size")
        rows = [max(range(len(column)), key=column.__getitem__) for column in grid.T.tolist()]
        words.append("".join(alphabet.symbols[r] for r in rows if r != alphabet.pad_index))
    return words


def grid_is_one_hot(grid) -> bool:
    """Whether each column of one grid holds exactly one 1.0 and zeros elsewhere."""
    columns = np.asarray(grid).T.tolist()
    return all(sorted(column) == [0.0] * (len(column) - 1) + [1.0] for column in columns)


def per_column_one_hot(word: str, alphabet, capacity: int) -> np.ndarray:
    """word's one-hot grid, one column at a time: the row of each character
    of word, then the pad row up to capacity."""
    values = np.zeros((len(alphabet), capacity))
    for col in range(capacity):
        row = alphabet.symbols.index(word[col]) if col < len(word) else alphabet.pad_index
        values[row, col] = 1.0
    return values


def default_alphabet() -> Alphabet:
    """Pad + 26 lowercase letters + 10 digits (37 symbols)."""
    return Alphabet.from_string("_abcdefghijklmnopqrstuvwxyz0123456789")


@dataclass(frozen=True)
class CharGrid:
    """|A| x L column-stochastic matrix: one column per character slot."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked(self.values))


def grid_node(grids: list[CharGrid]) -> ad.DiffNode:
    """The grids side by side in one constant node, as embed takes them."""
    return ad.constant(np.concatenate([g.values for g in grids], axis=1))


def split_grids(values: np.ndarray, count: int) -> list[CharGrid]:
    """Cut an (|A|, count*L) array of side-by-side grids into count grids."""
    return [CharGrid(block) for block in np.split(_checked(values, count), count, axis=1)]


def encode_one_hot(word: str, alphabet, capacity: int) -> CharGrid:
    """One-hot grid for `word`, right-padded with pad-hot columns."""
    return CharGrid(encode_batch([word], alphabet, capacity))


def l2_norm_eps(a, eps=ad.EPS_NORM):
    """sqrt(sum(a^2) + eps): Euclidean norm of a whole node, differentiable at 0."""
    return ad.sqrt(ad.add_scalar(ad.sum_all(ad.square(a)), eps))


def clip_max(a, ceiling):
    """min(a, ceiling); zero sub-gradient on the clipped region (incl. boundary)."""
    values = np.minimum(a.values, float(ceiling))
    return ad.DiffNode(values, _vjp_clip_max, (a,), meta=float(ceiling))


def _vjp_clip_max(node, g, needed):
    (a,) = node.parents
    return (ad.mul_const(g, (a.values < node.meta).astype(np.float64)),)


def abs_val(a):
    """|a| with sign sub-gradient (0 at the kink)."""
    return ad.DiffNode(np.abs(a.values), _vjp_abs_val, (a,))


def _vjp_abs_val(node, g, needed):
    (a,) = node.parents
    return (ad.mul_const(g, np.sign(a.values)),)


def filter_value(e, e_hat, lam: float):
    """min(|e_hat - e|, lam) for a (1, B) row e_hat and B distances e. The
    clipped branch, including the |err| = lam boundary, carries a zero
    sub-gradient."""
    if not lam > 0:
        raise ConfigError("lambda must be > 0")
    e_values = ad.constant(np.reshape(np.asarray(e, dtype=np.float64), e_hat.shape))
    return clip_max(abs_val(ad.sub(e_hat, e_values)), lam)


def literal_loss_parts(z_hat, y_embedding, e, net, lam: float) -> FilteredLossParts:
    """training.filtered_str_loss_parts with the paper's filter as written:
    the loss is filter_value's min(|e_hat - e|, lam), differentiated as is,
    in place of e_hat under a constant gate. Its gradient is exactly zero
    once |e_hat - e| >= lam, as the gated loss's is."""
    e_hat = distance_row(z_hat, y_embedding, net)
    loss = filter_value(e, e_hat, lam)
    gates = np.abs(e_hat.values - np.asarray(e, dtype=np.float64).reshape(1, -1)) < lam
    return FilteredLossParts(loss, e_hat, tuple(gates[0].tolist()))


# The tuning loss that training ships, and the literal oracle, by name.
LOSS_PARTS = {"gated": filtered_str_loss_parts, "literal": literal_loss_parts}


def read_scatter_csv(path) -> tuple[float, list[tuple[int, float, int]]]:
    """The lambda and the (e, e_hat, iteration) rows of an export_scatter file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 2 or not lines[0].startswith("# lambda=") or lines[1] != SCATTER_HEADER:
        raise ValueError(f"{path}: expected a lambda line and the header {SCATTER_HEADER!r}")
    rows = []
    for line in lines[2:]:
        e, e_hat, iteration = line.split(",")
        rows.append((int(e), float(e_hat), int(iteration)))
    return float(lines[0].split("=", 1)[1]), rows


def where_leaky_relu(a, slope=0.01):
    """autodiff.leaky_relu with np.where selecting a or slope*a, and a VJP
    whose mask np.where selects from 1.0 and slope."""
    values = np.where(a.values > 0, a.values, slope * a.values)
    return ad.DiffNode(values, _vjp_where_leaky_relu, (a,), meta=float(slope))


def _vjp_where_leaky_relu(node, g, needed):
    (a,) = node.parents
    return (ad.mul_const(g, np.where(a.values > 0, 1.0, node.meta)),)


def broadcast_tile_axis(a, axis, reps):
    """autodiff.tile_axis as a copy of np.broadcast_to."""
    shape = (reps, a.shape[1]) if axis == 0 else (a.shape[0], reps)
    return ad.DiffNode(np.broadcast_to(a.values, shape).copy(), ad._vjp_tile_axis, (a,), meta=axis)


def broadcast_softmax_columns(a):
    """autodiff.softmax_columns with its max shift a copy of np.broadcast_to."""
    shift = ad.DiffNode(np.broadcast_to(a.values.max(axis=0, keepdims=True), a.shape).copy())
    e = ad.exp(ad.sub(a, shift))
    return ad.div(e, ad.tile_axis(ad.sum_axis(e, 0), 0, a.shape[0]))


def sample_word(cfg: DatasetConfig, rng) -> str:
    """synth_data.sample_word with one rng.integers call per letter."""
    length = int(rng.integers(1, cfg.capacity + 1))
    letters = cfg.alphabet.symbols[1:]
    return "".join(letters[rng.integers(len(letters))] for _ in range(length))


def render_word(word: str, cfg: DatasetConfig, rng) -> WordImage:
    """One image on its own zero canvas: each character's glyph_bitmap in its
    shifted cell, then the noise drawn after the shift, then the clip."""
    cfg.alphabet.validate_word(word)
    if len(word) > cfg.capacity:
        raise CapacityError(f"word {word!r} exceeds capacity {cfg.capacity}")
    canvas = np.zeros((cfg.image_height, cfg.image_width))
    shift = int(rng.integers(0, cfg.shift_range + 1)) if cfg.shift_range else 0
    for slot, char in enumerate(word):
        col = slot * cfg.cell_width + shift
        canvas[:, col : col + cfg.glyph_width] = glyph_bitmap(cfg.alphabet.index_of(char), cfg)
    if cfg.noise_std > 0:
        canvas = canvas + rng.normal(0.0, cfg.noise_std, canvas.shape)
    return WordImage(np.clip(canvas, 0.0, 1.0), word)


def per_image_corpus(cfg: DatasetConfig) -> list[WordImage]:
    """synth_data.sample_corpus one image at a time: image i is
    render_word(sample_word(rng), rng) with rng = default_rng([seed, i])."""
    images = []
    for index in range(cfg.corpus_size):
        rng = np.random.default_rng([cfg.seed, index])
        images.append(render_word(sample_word(cfg, rng), cfg, rng))
    return images


def parse_pgm(blob: bytes) -> np.ndarray:
    """Pixels in [0, 1] of an 8-bit binary (P5) graymap; ValueError otherwise."""
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


def load_dataset(directory) -> tuple[list[WordImage], DatasetConfig]:
    """The images and config that synth_data.save_dataset wrote to directory."""
    directory = Path(directory)
    cfg = DatasetConfig.from_dict(
        json.loads((directory / META_FILE).read_text(encoding="utf-8"))
    )
    images = []
    rows = (directory / LABELS_FILE).read_text(encoding="utf-8").splitlines()
    for row in rows[1:]:
        index, filename, word = row.split("\t")
        pixels = parse_pgm((directory / filename).read_bytes())
        images.append(WordImage(pixels, word))
        if int(index) != len(images) - 1:
            raise ValueError("label rows out of order")
    return images, cfg
