import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edsurrogate import synth_data
from edsurrogate.errors import CapacityError, ConfigError
from edsurrogate.evaluation import (
    export_scatter,
    read_log_csv,
    read_metrics_csv,
    write_log_csv,
    write_metrics_csv,
)
from edsurrogate.synth_data import (
    DatasetConfig,
    glyph_bitmap,
    mutate_word,
    random_pair_generator,
    sample_corpus,
    sample_word,
    save_dataset,
    split_corpus,
)
from edsurrogate.text_metrics import edit_distance, evaluate_set
from edsurrogate.training import (
    GENERATED_SAMPLE_INDEX,
    PHASE_PRETRAIN,
    PHASE_RECOGNIZER,
    PHASE_SURROGATE,
    PhaseLogRecord,
)

from . import oracles
from .oracles import load_dataset, parse_pgm, read_scatter_csv, recursive_edit_distance

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
    assert DatasetConfig(**asdict(CFG)) == CFG


def test_render_deterministic(monkeypatch):
    monkeypatch.setattr(synth_data, "sample_word", lambda cfg, rng: "abc")
    a, b = sample_corpus(SMALL), sample_corpus(SMALL)
    assert [w.pixels.tobytes() for w in a] == [w.pixels.tobytes() for w in b]
    assert {w.label for w in a} == {"abc"}


def test_render_without_noise_is_pure_glyph_composition():
    cfg = DatasetConfig.desk(noise_std=0.0, shift_range=0, corpus_size=20)
    for image in sample_corpus(cfg):
        expected = np.zeros((cfg.image_height, cfg.image_width))
        for slot, char in enumerate(image.label):
            col = slot * cfg.cell_width
            expected[:, col : col + cfg.glyph_width] = glyph_bitmap(cfg.alphabet.index(char), cfg)
        assert np.array_equal(image.pixels, expected)


def reference_corpus(cfg: DatasetConfig) -> list[tuple[str, bytes]]:
    """The oracle's corpus: per letter word draws, one canvas per image."""
    return [(w.label, w.pixels.tobytes()) for w in oracles.per_image_corpus(cfg)]


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


@st.composite
def dataset_configs(draw) -> DatasetConfig:
    """Accepted configs of up to 4 slots, with any slack and letters drawn
    from all of Unicode but the separators that DatasetConfig rejects."""
    capacity, glyph_width = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    slack = draw(st.integers(0, 2))
    symbols = draw(
        st.lists(
            st.characters(exclude_characters=synth_data.SEPARATORS),
            min_size=2,
            max_size=6,
            unique=True,
        )
    )
    return DatasetConfig(
        alphabet="".join(symbols),
        capacity=capacity,
        image_height=draw(st.integers(1, 5)),
        image_width=capacity * (glyph_width + slack),
        glyph_width=glyph_width,
        corpus_size=draw(st.integers(1, 2 * synth_data._BLOCK_IMAGES + 5)),
        noise_std=draw(st.sampled_from([0.0, 0.05, 0.4, 3.0])),
        shift_range=draw(st.integers(0, slack)),
        seed=draw(st.integers(0, 2**53)),
        glyph_seed=draw(st.integers(0, 2**32)),
    )


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(dataset_configs())
@example(DatasetConfig.desk(corpus_size=1))
@example(DatasetConfig.desk(corpus_size=1, noise_std=0.0, shift_range=0))
@example(DatasetConfig.desk(corpus_size=2 * synth_data._BLOCK_IMAGES + 3))
@example(DatasetConfig.desk(capacity=1, image_width=5, shift_range=2, corpus_size=9))
@example(DatasetConfig.desk(alphabet="_aé中😀", noise_std=0.0, corpus_size=30))
def test_corpus_equals_the_per_image_oracle(cfg):
    rendered = [(w.label, w.pixels.tobytes()) for w in sample_corpus(cfg)]
    assert rendered == reference_corpus(cfg)


LOG_RECORDS = st.builds(
    PhaseLogRecord,
    epoch=st.integers(0, 9),
    phase=st.sampled_from([PHASE_PRETRAIN, PHASE_SURROGATE, PHASE_RECOGNIZER]),
    iteration=st.integers(0, 10**6),
    sample_index=st.integers(GENERATED_SAMPLE_INDEX, 10**6),
    e=st.integers(0, 10**6),
    e_hat=st.floats(),
    loss=st.floats(),
    gate_open=st.booleans(),
)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    dataset_configs(),
    st.lists(LOG_RECORDS, min_size=1, max_size=20),
    st.floats(min_value=0, exclude_min=True, allow_infinity=False),
)
@example(
    DatasetConfig.desk(alphabet="_aé中😀", corpus_size=5),
    [PhaseLogRecord(0, PHASE_PRETRAIN, 0, 5, 2, float("nan"), 0.5, False)],
    0.25,
)
def test_each_file_the_package_writes_reads_back(cfg, records, lam):
    """log.csv, metrics.csv, the scatter export and labels.tsv each return
    what was written, for any accepted dataset config. Floats compare by repr,
    so NaN matches NaN."""
    images = sample_corpus(cfg)
    labels = [image.label for image in images]
    report = evaluate_set([label[::-1] for label in labels[1:]] + [""], labels)
    # export_scatter writes the recognizer-phase records and needs at least one
    tuned = [replace(r, phase=PHASE_RECOGNIZER) for r in records[:1]] + records
    with tempfile.TemporaryDirectory() as folder:
        folder = Path(folder)
        write_log_csv(folder / "log.csv", tuned)
        assert repr(read_log_csv(folder / "log.csv")) == repr(tuned)
        write_metrics_csv(folder / "metrics.csv", report)
        assert read_metrics_csv(folder / "metrics.csv") == [
            (index, *row) for index, row in enumerate(report.rows)
        ]
        export_scatter(folder / "scatter.csv", tuned, 0, 9, lam)
        rows = [(r.e, r.e_hat, r.iteration) for r in tuned if r.phase == PHASE_RECOGNIZER]
        assert repr(read_scatter_csv(folder / "scatter.csv")) == repr((lam, rows))
        save_dataset(folder / "data", images, cfg)
        loaded, loaded_cfg = load_dataset(folder / "data")
    assert loaded_cfg == cfg
    assert [image.label for image in loaded] == labels
    for image, back in zip(images, loaded):
        assert np.max(np.abs(image.pixels - back.pixels)) <= 0.5 / 255.0 + 1e-12


def test_pair_generator_is_unchanged_with_the_per_letter_word_oracle(monkeypatch):
    def pairs():
        rng = np.random.default_rng(11)
        return [random_pair_generator(CFG, rng) for _ in range(300)], rng.integers(2**63)

    shipped = pairs()
    monkeypatch.setattr(synth_data, "sample_word", oracles.sample_word)
    assert pairs() == shipped


def test_corpus_pixels_are_read_only_through_every_view():
    for image in sample_corpus(SMALL):
        with pytest.raises(ValueError):
            image.pixels[0, 0] = 0.5
        assert image.pixels.base is not None  # a row of the corpus block
        with pytest.raises(ValueError):
            image.pixels.base[...] = 0.5


def test_cached_glyphs_are_read_only_and_equal_the_definition():
    table = synth_data._glyph_table(CFG)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[1, 0, 0] = 0.5
    for index in range(len(CFG.alphabet)):
        assert np.array_equal(table[index], glyph_bitmap(index, CFG))


def test_render_rejects_overlong_word(monkeypatch):
    monkeypatch.setattr(synth_data, "sample_word", lambda cfg, rng: "a" * (cfg.capacity + 1))
    with pytest.raises(CapacityError):
        sample_corpus(SMALL)


def test_pixel_mean_is_moderate():
    means = [image.pixels.mean() for image in sample_corpus(DatasetConfig.desk(corpus_size=100))]
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
    counts = {c: 0 for c in CFG.alphabet[1:]}
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
        parse_pgm(blob)


def _parsed_or_rejected(blob: bytes):
    """The parsed pixels, or None when parse_pgm raised its ValueError."""
    try:
        pixels = parse_pgm(blob)
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
