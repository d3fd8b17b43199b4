"""Exact string metrics and character-grid encodings.

Everything here is the ground truth the learned components are measured
against: bit-parallel Levenshtein distance, one-hot grid encoding/decoding,
and the Acc/NED/TED evaluation report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, EncodingError, ShapeError

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

    def __len__(self) -> int:
        return len(self.symbols)

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


def _checked(values, count: int = 1) -> np.ndarray:
    """values as a float64 2-d array of count grids side by side, finite, columns summing to 1."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ShapeError(f"grid must be 2-d, got shape {values.shape}")
    if count < 1 or values.shape[1] % count != 0:
        raise ShapeError(f"shape {values.shape} does not hold {count} grids")
    if not np.all(np.isfinite(values)):
        raise ShapeError("grid contains non-finite entries")
    if np.any(np.abs(values.sum(axis=0) - 1.0) > COLUMN_SUM_TOL):
        raise ShapeError("grid columns must each sum to 1")
    return values


def is_one_hot(values: np.ndarray) -> bool:
    """Whether every column of a 2-d array holds one 1.0 and zeros elsewhere."""
    ones = values == 1.0
    return bool(np.all(ones | (values == 0.0)) and np.all(ones.sum(axis=0) == 1))


def label_rows(words: list[str], alphabet: Alphabet, capacity: int) -> np.ndarray:
    """(B, L) alphabet rows of the words' characters, each right-padded with the pad row."""
    rows = np.full((len(words), capacity), alphabet.pad_index, dtype=np.intp)
    for k, word in enumerate(words):
        if len(word) > capacity:
            raise CapacityError(f"word of length {len(word)} exceeds capacity {capacity}")
        alphabet.validate_word(word)
        rows[k, : len(word)] = [alphabet.index_of(ch) for ch in word]
    return rows


def encode_batch(words: list[str], alphabet: Alphabet, capacity: int) -> np.ndarray:
    """The words' one-hot grids side by side, each right-padded with pad-hot columns."""
    rows = label_rows(words, alphabet, capacity)
    values = np.zeros((len(alphabet), rows.size), dtype=np.float64)
    values[rows.ravel(), np.arange(rows.size)] = 1.0
    return values


def decode_greedy(values, count: int, alphabet: Alphabet) -> list[str]:
    """Words of count side-by-side grids: per-column argmax (ties -> lowest row), pad dropped."""
    values = _checked(values, count)
    if values.shape[0] != len(alphabet):
        raise ShapeError("grid row count does not match alphabet size")
    grids = np.argmax(values, axis=0).reshape(count, -1).tolist()
    return ["".join(alphabet.symbols[r] for r in g if r != alphabet.pad_index) for g in grids]


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance (insert/delete/substitute), bit-parallel over the
    shorter word (Myers 1999, in Hyyro's 2001 form): bit i of pv/mv says the
    DP column steps up/down at row i, and score tracks its last row."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | 1 << i
    top = 1 << (len(b) - 1)
    pv, mv, score = (top << 1) - 1, 0, len(b)
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & top:
            score += 1
        elif mh & top:
            score -= 1
        ph = ph << 1 | 1
        pv = mh << 1 | ~(xv | ph)
        mv = ph & xv
    return score


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
