"""Independent reference implementations used only to check the package.

Nothing in here touches the library's own code paths: the edit-distance
oracles are top-down recursion over the three-way recurrence and the
two-row DP that the bit-parallel distance replaced, the gradient oracle is
central finite differences, the grid oracles check and decode one grid, and
one column, at a time, and the kernel oracles are the np.where and
broadcast-copy forms of autodiff's leaky ReLU, tile and softmax shift.
"""

from __future__ import annotations

import numpy as np

from edsurrogate import autodiff as ad
from edsurrogate.errors import ShapeError
from edsurrogate.text_metrics import CharGrid, _checked, encode_batch


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


def split_grids(values: np.ndarray, count: int) -> list[CharGrid]:
    """Cut an (|A|, count*L) array of side-by-side grids into count grids."""
    return [CharGrid(block) for block in np.split(_checked(values, count), count, axis=1)]


def encode_one_hot(word: str, alphabet, capacity: int) -> CharGrid:
    """One-hot grid for `word`, right-padded with pad-hot columns."""
    return CharGrid(encode_batch([word], alphabet, capacity))


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
