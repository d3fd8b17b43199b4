"""Exact string metrics and character-grid encodings.

Everything here is the ground truth the learned components are measured
against: Levenshtein distance via dynamic programming, one-hot grid
encoding/decoding, and the Acc/NED/TED evaluation report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, EncodingError, ShapeError

PAD_CHAR = "_"
DEFAULT_SYMBOLS = PAD_CHAR + "abcdefghijklmnopqrstuvwxyz0123456789"

COLUMN_SUM_TOL = 1e-6


@dataclass(frozen=True)
class Alphabet:
    """Ordered character set with a reserved padding symbol at row 0."""

    symbols: tuple[str, ...]
    pad_index = 0  # a class constant, not a field: glyphs and grids assume row 0

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise EncodingError("alphabet needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise EncodingError("alphabet symbols must be unique")
        object.__setattr__(
            self, "_index", {c: i for i, c in enumerate(self.symbols)}
        )

    @classmethod
    def from_string(cls, symbols: str) -> "Alphabet":
        return cls(tuple(symbols))

    @classmethod
    def default(cls) -> "Alphabet":
        """Pad + 26 lowercase letters + 10 digits (37 symbols)."""
        return cls.from_string(DEFAULT_SYMBOLS)

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def pad_char(self) -> str:
        return self.symbols[self.pad_index]

    def index_of(self, char: str) -> int:
        try:
            return self._index[char]
        except KeyError:
            raise EncodingError(f"character {char!r} not in alphabet") from None

    def validate_word(self, word: str) -> None:
        """Raise EncodingError unless every character is a non-pad member."""
        for ch in word:
            if ch not in self._index:
                raise EncodingError(f"character {ch!r} not in alphabet")
            if self._index[ch] == self.pad_index:
                raise EncodingError("padding symbol not allowed inside a word")


@dataclass(frozen=True)
class CharGrid:
    """|A| x L column-stochastic matrix: one column per character slot."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ShapeError(f"grid must be 2-d, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ShapeError("grid contains non-finite entries")
        sums = values.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > COLUMN_SUM_TOL):
            raise ShapeError("grid columns must each sum to 1")
        object.__setattr__(self, "values", values)

    @property
    def alphabet_size(self) -> int:
        return self.values.shape[0]

    def is_one_hot(self) -> bool:
        ones_per_col = (self.values == 1.0).sum(axis=0)
        zeros_ok = np.isin(self.values, (0.0, 1.0)).all()
        return bool(zeros_ok and np.all(ones_per_col == 1))


def split_grids(values: np.ndarray, count: int) -> list[CharGrid]:
    """Cut an (|A|, count*L) array of side-by-side grids into count grids."""
    if values.ndim != 2 or count < 1 or values.shape[1] % count != 0:
        raise ShapeError(f"shape {values.shape} does not hold {count} grids")
    return [CharGrid(block) for block in np.split(values, count, axis=1)]


def encode_one_hot(word: str, alphabet: Alphabet, capacity: int) -> CharGrid:
    """One-hot grid for `word`, right-padded with pad-hot columns."""
    if len(word) > capacity:
        raise CapacityError(f"word of length {len(word)} exceeds capacity {capacity}")
    alphabet.validate_word(word)
    values = np.zeros((len(alphabet), capacity), dtype=np.float64)
    for col in range(capacity):
        row = alphabet.index_of(word[col]) if col < len(word) else alphabet.pad_index
        values[row, col] = 1.0
    return CharGrid(values)


def decode_greedy(grid: CharGrid, alphabet: Alphabet) -> str:
    """Per-column argmax (ties -> lowest row), padding symbols dropped."""
    if grid.alphabet_size != len(alphabet):
        raise ShapeError("grid row count does not match alphabet size")
    rows = np.argmax(grid.values, axis=0)
    return "".join(alphabet.symbols[r] for r in rows if r != alphabet.pad_index)


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance (insert/delete/substitute), two-row DP."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


@dataclass
class MetricsReport:
    """Acc/NED/TED over a prediction set, with per-sample rows."""

    dataset_id: str
    n_samples: int
    accuracy: float
    ned: float
    ted: int
    rows: list[tuple[str, str, int]] = field(default_factory=list)  # (gt, pred, ed)


def evaluate_set(preds: list[str], gts: list[str], dataset_id: str = "") -> MetricsReport:
    """Exact-match accuracy, mean normalized ED similarity, and total ED.

    NED for one sample is 1 - ed / max(|pred|, |gt|, 1), so higher is better.
    """
    if len(preds) != len(gts):
        raise ValueError("preds and gts must have equal length")
    if not preds:
        raise ValueError("evaluate_set needs at least one sample")
    rows = []
    hits = 0
    ned_sum = 0.0
    ted = 0
    for pred, gt in zip(preds, gts):
        ed = edit_distance(pred, gt)
        rows.append((gt, pred, ed))
        hits += pred == gt
        ned_sum += 1.0 - ed / max(len(pred), len(gt), 1)
        ted += ed
    n = len(preds)
    return MetricsReport(
        dataset_id=dataset_id,
        n_samples=n,
        accuracy=hits / n,
        ned=ned_sum / n,
        ted=ted,
        rows=rows,
    )
