import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsurrogate import synth_data
from edsurrogate.errors import CapacityError, ConfigError
from edsurrogate.synth_data import (
    DatasetConfig,
    _parse_pgm,
    glyph_bitmap,
    load_dataset,
    mutate_word,
    random_pair_generator,
    render_word,
    sample_corpus,
    sample_word,
    save_dataset,
    split_corpus,
)
from edsurrogate.text_metrics import edit_distance

from .oracles import recursive_edit_distance

CFG = DatasetConfig.desk()
SMALL = DatasetConfig.desk(corpus_size=10)


def test_config_validation():
    with pytest.raises(ConfigError):
        DatasetConfig.desk(image_width=20)  # not a multiple of capacity
    with pytest.raises(ConfigError):
        DatasetConfig.desk(shift_range=2)  # exceeds cell slack
    with pytest.raises(ConfigError):
        DatasetConfig.desk(noise_std=-0.1)
    for glyph_width in (0, -1):  # no glyph, or numpy's negative dimension
        with pytest.raises(ConfigError, match="glyph_width"):
            DatasetConfig.desk(glyph_width=glyph_width)


def test_config_dict_round_trip():
    assert DatasetConfig.from_dict(CFG.to_dict()) == CFG


def test_render_deterministic():
    a = render_word("abc", CFG, np.random.default_rng(5))
    b = render_word("abc", CFG, np.random.default_rng(5))
    assert a.pixels.tobytes() == b.pixels.tobytes()
    assert a.label == "abc"


def test_render_without_noise_is_pure_glyph_composition():
    cfg = DatasetConfig.desk(noise_std=0.0, shift_range=0)
    image = render_word("ab", cfg, np.random.default_rng(0))
    expected = np.zeros((cfg.image_height, cfg.image_width))
    for slot, char in enumerate("ab"):
        col = slot * cfg.cell_width
        expected[:, col : col + cfg.glyph_width] = glyph_bitmap(
            cfg.alphabet.index_of(char), cfg
        )
    assert np.array_equal(image.pixels, expected)


def reference_corpus(cfg: DatasetConfig) -> list[tuple[str, bytes]]:
    """sample_corpus composed from glyph_bitmap per character, drawing the
    word, the shift and the noise in that order from rng([seed, i])."""
    samples = []
    for index in range(cfg.corpus_size):
        rng = np.random.default_rng([cfg.seed, index])
        word = sample_word(cfg, rng)
        canvas = np.zeros((cfg.image_height, cfg.image_width))
        shift = int(rng.integers(0, cfg.shift_range + 1)) if cfg.shift_range else 0
        for slot, char in enumerate(word):
            col = slot * cfg.cell_width + shift
            canvas[:, col : col + cfg.glyph_width] = glyph_bitmap(
                cfg.alphabet.index_of(char), cfg
            )
        canvas = canvas + rng.normal(0.0, cfg.noise_std, canvas.shape)
        samples.append((word, np.clip(canvas, 0.0, 1.0).tobytes()))
    return samples


def test_corpus_matches_glyph_by_glyph_reference_across_configs():
    base = DatasetConfig.desk(corpus_size=40)
    configs = [
        base,
        DatasetConfig.desk(corpus_size=40, glyph_seed=8),
        DatasetConfig.desk(corpus_size=40, image_height=10),
    ]
    for cfg in configs * 2:  # alternate, so each config also renders after the others
        rendered = [(w.label, w.pixels.tobytes()) for w in sample_corpus(cfg)]
        assert rendered == reference_corpus(cfg), cfg


def test_cached_glyphs_are_read_only_and_equal_the_definition():
    table = synth_data._glyph_table(CFG)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[1, 0, 0] = 0.5
    for index in range(len(CFG.alphabet)):
        assert np.array_equal(table[index], glyph_bitmap(index, CFG))


def test_render_rejects_overlong_word():
    with pytest.raises(CapacityError):
        render_word("a" * (CFG.capacity + 1), CFG, np.random.default_rng(0))


def test_pixel_mean_is_moderate():
    rng = np.random.default_rng(1)
    means = [
        render_word(sample_word(CFG, rng), CFG, rng).pixels.mean() for _ in range(100)
    ]
    assert 0.05 <= np.mean(means) <= 0.95


def test_corpus_cardinality_and_determinism():
    first = sample_corpus(SMALL)
    second = sample_corpus(SMALL)
    assert len(first) == 10
    assert [w.label for w in first] == [w.label for w in second]
    assert all(
        a.pixels.tobytes() == b.pixels.tobytes() for a, b in zip(first, second)
    )


def test_corpus_differs_across_seeds():
    a = sample_corpus(SMALL)
    b = sample_corpus(DatasetConfig.desk(corpus_size=10, seed=1))
    assert [w.label for w in a] != [w.label for w in b]


def test_split_is_80_10_10_by_index():
    images = sample_corpus(DatasetConfig.desk(corpus_size=100))
    split = split_corpus(images)
    assert (len(split.train), len(split.val), len(split.test)) == (80, 10, 10)
    assert split.train[0] is images[0]
    assert split.test[-1] is images[-1]


def test_character_frequency_roughly_uniform():
    # Labels only; rendering 10k images here would dominate the suite runtime.
    rng_labels = [
        sample_word(CFG, np.random.default_rng([0, i])) for i in range(10_000)
    ]
    counts = {c: 0 for c in CFG.alphabet.symbols[1:]}
    total = 0
    for word in rng_labels:
        for char in word:
            counts[char] += 1
            total += 1
    expected = total / len(counts)
    for char, count in counts.items():
        assert abs(count - expected) / expected <= 0.2, (char, count, expected)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=4))
def test_mutate_word_bounds_edit_distance(seed, k):
    rng = np.random.default_rng(seed)
    base = sample_word(CFG, rng)
    edited = mutate_word(base, k, CFG, rng)
    assert len(edited) <= CFG.capacity
    assert edit_distance(base, edited) <= k
    if k == 0:
        assert edited == base


def test_pair_labels_match_recursive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pair = random_pair_generator(CFG, rng)
        assert pair.ed == recursive_edit_distance(pair.word_a, pair.word_b)


def test_pair_ed_buckets_all_populated():
    rng = np.random.default_rng(4)
    eds = [random_pair_generator(CFG, rng).ed for _ in range(10_000)]
    counts = np.bincount(eds, minlength=5)
    assert counts[: CFG.capacity // 2 + 1].sum() == len(eds)
    for bucket in range(5):
        assert counts[bucket] / len(eds) >= 0.05, (bucket, counts)


def test_dataset_round_trip(tmp_path):
    images = sample_corpus(SMALL)
    save_dataset(tmp_path / "data", images, SMALL)

    loaded, cfg = load_dataset(tmp_path / "data")
    assert cfg == SMALL
    assert [w.label for w in loaded] == [w.label for w in images]
    for original, back in zip(images, loaded):
        assert np.max(np.abs(original.pixels - back.pixels)) <= 0.5 / 255.0 + 1e-12

    labels = (tmp_path / "data" / "labels.tsv").read_bytes()
    assert b"\r" not in labels
    assert labels.startswith(b"index\tfilename\ttranscription\n")


def test_dataset_files_are_byte_stable(tmp_path):
    images = sample_corpus(SMALL)
    save_dataset(tmp_path / "one", images, SMALL)
    save_dataset(tmp_path / "two", sample_corpus(SMALL), SMALL)
    for name in ["labels.tsv", "dataset.json", "img_00003.pgm"]:
        assert (tmp_path / "one" / name).read_bytes() == (
            tmp_path / "two" / name
        ).read_bytes()


@pytest.mark.parametrize("blob", [b"P5 0 3 255\n", b"P5 -1 -1 255\nx", b"P5 3 0 255\n"])
def test_parse_pgm_rejects_sizes_below_one(blob):
    with pytest.raises(ValueError, match="not positive"):
        _parse_pgm(blob)


def _parsed_or_rejected(blob: bytes):
    """The parsed pixels, or None when _parse_pgm raised its ValueError."""
    try:
        pixels = _parse_pgm(blob)
    except ValueError:
        return None
    assert pixels.ndim == 2 and pixels.size > 0
    assert pixels.min() >= 0.0 and pixels.max() <= 1.0
    return pixels


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.binary(max_size=64))
def test_parse_pgm_on_arbitrary_bytes_raises_only_value_error(blob):
    _parsed_or_rejected(blob)


@st.composite
def pgm_headers(draw) -> tuple[bytes, int, int]:
    """A P5 header with small or negative dims, then a raster that may be
    short, exact or long."""
    w, h = draw(st.integers(-2, 4)), draw(st.integers(-2, 4))
    sep = draw(st.sampled_from([b" ", b"\n", b"\t", b"\n# comment\n"]))
    size = draw(st.integers(0, max(w * h, 0) + 2))
    header = sep.join([b"P5", str(w).encode(), str(h).encode(), b"255"])
    return header + b"\n" + draw(st.binary(min_size=size, max_size=size)), w, h


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(pgm_headers())
def test_parse_pgm_on_well_formed_headers_returns_h_by_w_or_raises(case):
    blob, w, h = case
    pixels = _parsed_or_rejected(blob)
    if pixels is not None:
        assert pixels.shape == (h, w)
