import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsurrogate.errors import CapacityError, EncodingError, ShapeError
from edsurrogate.text_metrics import (
    Alphabet,
    decode_greedy,
    edit_distance,
    encode_batch,
    evaluate_set,
    is_one_hot,
)

from .oracles import (
    CharGrid,
    default_alphabet,
    encode_one_hot,
    grid_is_one_hot,
    per_column_one_hot,
    per_grid_decode,
    recursive_edit_distance,
    two_row_edit_distance,
    unmemoized_edit_distance,
)

ABC = Alphabet.from_string("_abc")

words = st.text(alphabet="ab", max_size=5)


def test_default_alphabet_has_37_symbols():
    alphabet = default_alphabet()
    assert len(alphabet) == 37
    assert alphabet.pad_index == 0
    assert alphabet.symbols[alphabet.pad_index] == "_"


def test_alphabet_rejects_duplicates_and_tiny_sets():
    with pytest.raises(EncodingError):
        Alphabet.from_string("aa")
    with pytest.raises(EncodingError):
        Alphabet.from_string("a")


def test_alphabet_index_roundtrip():
    alphabet = default_alphabet()
    for i, ch in enumerate(alphabet.symbols):
        assert alphabet.index_of(ch) == i


def test_encode_ab_layout():
    grid = encode_one_hot("ab", ABC, 3)
    expected = np.zeros((4, 3))
    expected[1, 0] = 1.0  # a
    expected[2, 1] = 1.0  # b
    expected[0, 2] = 1.0  # pad
    assert np.array_equal(grid.values, expected)
    assert is_one_hot(grid.values)


def test_encode_empty_word_is_all_pad():
    grid = encode_one_hot("", ABC, 2)
    assert np.array_equal(grid.values, np.array([[1.0, 1.0], [0, 0], [0, 0], [0, 0]]))


def test_encode_rejects_long_word_and_bad_chars():
    with pytest.raises(CapacityError):
        encode_one_hot("abcab", ABC, 3)
    with pytest.raises(EncodingError):
        encode_one_hot("xyz", ABC, 5)
    with pytest.raises(EncodingError):
        encode_one_hot("a_b", ABC, 5)


def test_decode_strips_padding():
    grid = encode_one_hot("cat", default_alphabet(), 5)
    assert decode_greedy(grid.values, 1, default_alphabet()) == ["cat"]


def test_decode_uniform_ties_resolve_to_pad():
    grid = CharGrid(np.full((4, 3), 0.25))
    assert decode_greedy(grid.values, 1, ABC) == [""]


def test_decode_soft_grid():
    alphabet = default_alphabet()
    grid = encode_one_hot("hey", alphabet, 4)
    soft = 0.6 * grid.values + 0.4 / len(alphabet)
    soft = soft / soft.sum(axis=0, keepdims=True)
    assert decode_greedy(CharGrid(soft).values, 1, alphabet) == ["hey"]


@given(words)
def test_encode_decode_roundtrip(word):
    grid = encode_one_hot(word, ABC, 5)
    assert decode_greedy(grid.values, 1, ABC) == [word]


FAULTS = (None, "non-finite", "column sum", "row count", "count")


@st.composite
def grid_batches(draw):
    """(values, count, alphabet, fault): count grids side by side, built from
    small integer columns so that ties are common, with all-pad columns and
    at most one fault."""
    size = draw(st.integers(2, 5))
    count = draw(st.integers(1, 4))
    width = draw(st.integers(0, 4))
    columns = []
    for _ in range(count * width):
        weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        if sum(weights) == 0:  # an all-pad column
            weights[0] = 1
        columns.append(np.asarray(weights, dtype=np.float64) / sum(weights))
    values = np.stack(columns, axis=1) if columns else np.zeros((size, 0))
    alphabet = Alphabet.from_string("_abcdefgh"[:size])
    fault = draw(st.sampled_from(FAULTS if values.size else (None, "row count")))
    if fault == "non-finite":
        values[draw(st.integers(0, size - 1)), draw(st.integers(0, values.shape[1] - 1))] = (
            draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        )
    elif fault == "column sum":
        values[:, draw(st.integers(0, values.shape[1] - 1))] *= draw(st.sampled_from([0.5, 1.01]))
    elif fault == "row count":
        other = draw(st.sampled_from([size + 1] + [size - 1] * (size > 2)))
        alphabet = Alphabet.from_string("_abcdefgh"[:other])
    elif fault == "count":
        count = draw(st.sampled_from([0, -1, values.shape[1] + 1]))
    return values, count, alphabet, fault


def outcome(decode, values, count, alphabet):
    """The decoded words, or the type and message of the error raised."""
    try:
        return decode(values, count, alphabet)
    except ValueError as exc:
        return type(exc), str(exc)


@given(grid_batches())
def test_batch_decode_matches_per_grid_oracle(batch):
    values, count, alphabet, fault = batch
    got = outcome(decode_greedy, values.copy(), count, alphabet)
    assert got == outcome(per_grid_decode, values, count, alphabet)
    assert isinstance(got, list) == (fault is None)


@st.composite
def target_batches(draw):
    """count one-hot grids side by side, with zero to two entries overwritten."""
    size, count, width = draw(st.integers(2, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rows = draw(st.lists(st.integers(0, size - 1), min_size=count * width, max_size=count * width))
    values = np.zeros((size, count * width))
    values[rows, np.arange(count * width)] = 1.0
    for _ in range(draw(st.integers(0, 2))):
        row, col = draw(st.integers(0, size - 1)), draw(st.integers(0, count * width - 1))
        values[row, col] = draw(st.sampled_from([0.0, -0.0, 1.0, 0.5, 2.0, -1.0, np.nan]))
    return values, count


@given(target_batches())
def test_batch_one_hot_check_matches_per_grid_oracle(batch):
    values, count = batch
    expected = all(grid_is_one_hot(g) for g in np.split(values, count, axis=1))
    assert is_one_hot(values) == expected


@given(st.lists(st.text(alphabet="abc", max_size=4), min_size=1, max_size=5))
def test_batch_encoding_matches_per_column_oracle(words):
    expected = np.concatenate([per_column_one_hot(w, ABC, 4) for w in words], axis=1)
    assert np.array_equal(encode_batch(words, ABC, 4), expected)


def test_batch_encoding_rejects_any_bad_word():
    with pytest.raises(CapacityError):
        encode_batch(["ab", "abcab"], ABC, 3)
    with pytest.raises(EncodingError):
        encode_batch(["ab", "a_b"], ABC, 3)


def test_grid_rejects_bad_columns():
    with pytest.raises(ShapeError):
        CharGrid(np.array([[0.5, 0.5], [0.4, 0.5]]))
    with pytest.raises(ShapeError):
        CharGrid(np.array([1.0, 0.0]))


def test_edit_distance_examples():
    assert edit_distance("abc", "abc") == 0
    assert edit_distance("", "abc") == 3
    # Frozen from the recursive oracle (recursive_edit_distance -> 3).
    assert edit_distance("kitten", "sitting") == 3
    assert recursive_edit_distance("kitten", "sitting") == 3


def all_short_words(max_len=5):
    out = [""]
    for n in range(1, max_len + 1):
        out.extend(
            "".join("ab"[(i >> k) & 1] for k in range(n)) for i in range(2**n)
        )
    return out


def test_dp_matches_exhaustive_recursion_on_two_letter_words():
    vocab = all_short_words(5)
    assert len(vocab) == 63
    for a in vocab:
        for b in vocab:
            assert edit_distance(a, b) == recursive_edit_distance(a, b)


def test_dp_matches_unmemoized_recursion_spot_checks():
    for a, b in [("abab", "bb"), ("aaa", "bbb"), ("ba", "ab"), ("", "abab")]:
        assert edit_distance(a, b) == unmemoized_edit_distance(a, b)


@st.composite
def word_pairs(draw):
    """Two words of length 0-16 over the desk letters or over letters that
    are not ASCII."""
    letters = draw(st.sampled_from(["abcdefgh", "a\u00e9\u00df\u4e2d\U0001f600"]))
    word = st.text(alphabet=letters, max_size=16)
    return draw(word), draw(word)


@settings(max_examples=400)
@given(word_pairs())
def test_bit_parallel_distance_matches_two_row_dp(pair):
    a, b = pair
    expected = two_row_edit_distance(a, b)
    assert edit_distance(a, b) == expected
    assert edit_distance(b, a) == expected


@given(words, words)
def test_edit_distance_symmetry(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)


@given(words, words, words)
def test_edit_distance_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


@given(words, words)
def test_edit_distance_length_bounds(a, b):
    d = edit_distance(a, b)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
    assert (d == 0) == (a == b)


def test_evaluate_set_perfect_predictions():
    report = evaluate_set(["abc", "ab"], ["abc", "ab"])
    assert report.accuracy == 1.0
    assert report.ned == 1.0
    assert report.ted == 0


def test_evaluate_set_single_substitution():
    report = evaluate_set(["hallo"], ["hello"])
    assert report.accuracy == 0.0
    assert report.ted == 1
    assert report.ned == pytest.approx(1 - 1 / 5)


def test_evaluate_set_ted_matches_oracle_sum():
    preds = ["ab", "ba", "aaa", "b", "", "abab", "bb", "a", "abba", "baab"]
    gts = ["ab", "ab", "aba", "bb", "a", "baba", "ab", "", "abab", "abab"]
    report = evaluate_set(preds, gts)
    oracle_ted = sum(recursive_edit_distance(p, g) for p, g in zip(preds, gts))
    assert report.ted == oracle_ted
    assert [row[2] for row in report.rows] == [
        recursive_edit_distance(p, g) for p, g in zip(preds, gts)
    ]


def test_evaluate_set_rejects_length_mismatch_and_empty():
    with pytest.raises(ValueError):
        evaluate_set(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        evaluate_set([], [])
