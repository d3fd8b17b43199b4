"""One B-wide graph against a loop of B batches of one through the same
functions: values, per-sample losses and parameter gradients of the batch
mean agree to 1e-10, and gates agree exactly. Covers the loss of each phase
(cross entropy, the surrogate fit with its gradient penalty, the filtered
tuning loss) and chunked evaluation."""

import math

import numpy as np
import pytest

from edsurrogate import autodiff as ad
from edsurrogate import blas
from edsurrogate.evaluation import EVAL_CHUNK, evaluate_model
from edsurrogate.recognizer import RecognizerConfig, RecognizerNet, ce_loss, forward
from edsurrogate.surrogate import (
    SurrogateConfig,
    SurrogateNet,
    distance_row,
    embed,
    surrogate_loss_parts,
)
from edsurrogate.synth_data import DatasetConfig, random_pair_generator, sample_corpus
from edsurrogate.text_metrics import decode_greedy, edit_distance
from edsurrogate.training import filtered_str_loss_parts

from .oracles import LOSS_PARTS, encode_one_hot, grid_node, split_grids

TOL = 1e-10
DCFG = DatasetConfig.desk(corpus_size=40, seed=4)
RCFG = RecognizerConfig(
    alphabet_size=9, capacity=8, image_height=12, image_width=32, channels=(8, 8), seed=1
)
SCFG = SurrogateConfig(
    alphabet_size=9, capacity=8, embedding_dim=16, channels=(8, 8, 8, 8, 8), hidden=16, seed=2
)
IMAGES = sample_corpus(DCFG)[:6]


def assert_close(batch, singles):
    batch, singles = np.asarray(batch), np.asarray(singles)
    assert batch.shape == singles.shape
    assert np.max(np.abs(batch - singles)) <= TOL


def batch_mean_grads(row, params):
    root = ad.mul_const(ad.sum_all(row), 1.0 / row.shape[1])
    return [g.values for g in ad.backward(root, params.nodes())]


def loop_mean_grads(rows, params, batch_size):
    """Mean over (1, 1) rows of their parameter gradients, one backward each."""
    per_sample = [[g.values for g in ad.backward(ad.sum_all(r), params.nodes())] for r in rows]
    return [sum(grads) / batch_size for grads in zip(*per_sample)]


def assert_grads_close(batch, loop):
    for a, b in zip(batch, loop, strict=True):
        assert_close(a, b)


def targets_of(images):
    return [encode_one_hot(image.label, DCFG.alphabet, DCFG.capacity) for image in images]


# --- recognizer and pretraining ------------------------------------------------


def test_forward_batch_blocks_equal_single_forwards():
    net = RecognizerNet(RCFG)
    batch = forward(IMAGES, net)
    assert batch.shape == (RCFG.alphabet_size, len(IMAGES) * RCFG.capacity)
    assert forward(IMAGES[0], net).shape == (RCFG.alphabet_size, RCFG.capacity)
    assert_close(batch.values, np.concatenate([forward(im, net).values for im in IMAGES], axis=1))
    grids = split_grids(forward(IMAGES, net).values, len(IMAGES))
    assert [g.values.tobytes() for g in grids] == [
        g.values.tobytes() for g in split_grids(batch.values, len(IMAGES))
    ]


def test_ce_loss_batch_equals_loop():
    net = RecognizerNet(RCFG)
    targets = targets_of(IMAGES)
    y_values = np.concatenate([t.values for t in targets], axis=1)
    row = ce_loss(forward(IMAGES, net), y_values, len(targets))
    singles = [ce_loss(forward(im, net), t.values, 1) for im, t in zip(IMAGES, targets)]
    assert row.shape == (1, len(IMAGES))
    assert_close(row.values[0], [s.values.item() for s in singles])
    assert_grads_close(
        batch_mean_grads(row, net.params), loop_mean_grads(singles, net.params, len(IMAGES))
    )


# --- surrogate phase -------------------------------------------------------------


def lsed_mix(rnet):
    """Real samples at even positions and generated pairs at odd ones, as the
    surrogate phase lays out an lsed batch."""
    rng = np.random.default_rng(7)
    z, y, e = [], [], []
    for position, image in enumerate(IMAGES):
        if position % 2:
            pair = random_pair_generator(DCFG, rng)
            z.append(encode_one_hot(pair.word_a, DCFG.alphabet, DCFG.capacity))
            y.append(encode_one_hot(pair.word_b, DCFG.alphabet, DCFG.capacity))
            e.append(pair.ed)
        else:
            (grid,) = split_grids(forward([image], rnet).values, 1)
            z.append(grid)
            y.append(encode_one_hot(image.label, DCFG.alphabet, DCFG.capacity))
            e.append(edit_distance(decode_greedy(grid.values, 1, DCFG.alphabet)[0], image.label))
    return z, y, e


def test_embed_batch_columns_equal_single_embeddings():
    net = SurrogateNet(SCFG)
    z, y, _ = lsed_mix(RecognizerNet(RCFG))
    grids = z + y
    batch = embed(grid_node(grids), net)
    assert batch.shape == (SCFG.embedding_dim, len(grids))
    columns = [embed(grid_node([g]), net).values for g in grids]
    assert_close(batch.values, np.concatenate(columns, axis=1))
    distances = distance_row(grid_node(z), embed(grid_node(y), net), net)
    singles = [
        distance_row(grid_node([a]), embed(grid_node([b]), net), net).values.item()
        for a, b in zip(z, y)
    ]
    assert_close(distances.values[0], singles)


@pytest.mark.parametrize("w2", [0.0, 0.1])
def test_surrogate_loss_batch_equals_loop_on_lsed_mix(w2):
    net = SurrogateNet(SCFG)
    z, y, e = lsed_mix(RecognizerNet(RCFG))
    batch = surrogate_loss_parts(grid_node(z), grid_node(y), e, net, w2)
    singles = [
        surrogate_loss_parts(grid_node([a]), grid_node([b]), [d], net, w2)
        for a, b, d in zip(z, y, e)
    ]
    terms = ("loss", "e_hat", "fit") + (("penalty",) if w2 > 0 else ())
    for term in terms:
        row = getattr(batch, term)
        assert row.shape == (1, len(IMAGES)), term
        assert_close(row.values[0], [getattr(s, term).values.item() for s in singles])
    assert (batch.penalty is None) == (w2 == 0)
    assert_grads_close(
        batch_mean_grads(batch.loss, net.params),
        loop_mean_grads([s.loss for s in singles], net.params, len(IMAGES)),
    )


# --- tuning phase ------------------------------------------------------------------


def tuning_batch():
    rnet, snet = RecognizerNet(RCFG), SurrogateNet(SCFG)
    grids = split_grids(forward(IMAGES, rnet).values, len(IMAGES))
    e = [
        edit_distance(decode_greedy(g.values, 1, DCFG.alphabet)[0], im.label)
        for g, im in zip(grids, IMAGES)
    ]
    return rnet, snet, targets_of(IMAGES), e


def approximation_errors(rnet, snet, y, e):
    probe = filtered_str_loss_parts(
        forward(IMAGES, rnet), embed(grid_node(y), snet), e, snet, math.inf
    )
    return np.abs(probe.e_hat.values[0] - np.asarray(e))


def mixed_band(errors):
    """A band halfway between two neighbouring errors, so no sample sits on
    its edge and about half the gates open."""
    ordered = np.sort(errors)
    middle = len(ordered) // 2
    assert ordered[middle] > ordered[middle - 1]
    return float(ordered[middle - 1] + ordered[middle]) / 2


@pytest.mark.parametrize(
    "gate_mode,band", [("gated", "mixed"), ("literal", "mixed"), ("gated", "infinite")]
)
def test_tuning_loss_batch_equals_loop(gate_mode, band):
    # An infinite band is how the lsed arm trains: every gate open.
    rnet, snet, y, e = tuning_batch()
    lam = math.inf if band == "infinite" else mixed_band(approximation_errors(rnet, snet, y, e))
    loss_parts = LOSS_PARTS[gate_mode]
    batch = loss_parts(
        forward(IMAGES, rnet), ad.constant(embed(grid_node(y), snet).values), e, snet, lam
    )
    singles = [
        loss_parts(
            forward(im, rnet), ad.constant(embed(grid_node([t]), snet).values), [d], snet, lam
        )
        for im, t, d in zip(IMAGES, y, e)
    ]
    assert batch.gate_open == sum((s.gate_open for s in singles), ())
    if band == "mixed":
        assert set(batch.gate_open) == {True, False}
    else:
        assert all(batch.gate_open)
    assert_close(batch.e_hat.values[0], [s.e_hat.values.item() for s in singles])
    assert_close(batch.loss.values[0], [s.loss.values.item() for s in singles])
    assert_grads_close(
        batch_mean_grads(batch.loss, rnet.params),
        loop_mean_grads([s.loss for s in singles], rnet.params, len(IMAGES)),
    )


@pytest.mark.parametrize("gate_mode", ["gated", "literal"])
def test_all_closed_batch_gives_exactly_zero_recognizer_gradient(gate_mode):
    rnet, snet, y, e = tuning_batch()
    errors = approximation_errors(rnet, snet, y, e)
    assert errors.min() > 0
    for lam in (errors.min() / 2, errors.min()):  # interior and exact boundary
        parts = LOSS_PARTS[gate_mode](
            forward(IMAGES, rnet), embed(grid_node(y), snet), e, snet, lam
        )
        assert not any(parts.gate_open)
        assert all(np.all(g == 0.0) for g in batch_mean_grads(parts.loss, rnet.params))


@pytest.mark.parametrize("gate_mode", ["gated", "literal"])
def test_mixed_batch_gradient_is_that_of_its_open_samples(gate_mode):
    rnet, snet, y, e = tuning_batch()
    lam = mixed_band(approximation_errors(rnet, snet, y, e))
    loss_parts = LOSS_PARTS[gate_mode]
    parts = loss_parts(forward(IMAGES, rnet), embed(grid_node(y), snet), e, snet, lam)
    open_losses = [
        loss_parts(forward(im, rnet), embed(grid_node([t]), snet), [d], snet, lam).loss
        for im, t, d, gate in zip(IMAGES, y, e, parts.gate_open)
        if gate
    ]
    assert 0 < len(open_losses) < len(IMAGES)
    assert_grads_close(
        batch_mean_grads(parts.loss, rnet.params),
        loop_mean_grads(open_losses, rnet.params, len(IMAGES)),
    )


# --- evaluation ------------------------------------------------------------------------


def test_chunked_evaluation_predicts_as_per_image_recognize():
    images = sample_corpus(DatasetConfig.desk(corpus_size=EVAL_CHUNK + 5, seed=8))
    assert len(images) % EVAL_CHUNK != 0
    net = RecognizerNet(RCFG)
    report = evaluate_model(net, images, DCFG.alphabet)
    expected = [
        decode_greedy(forward([image], net).values, 1, DCFG.alphabet)[0] for image in images
    ]
    assert [pred for _, pred, _ in report.rows] == expected


def test_one_blas_thread_pins_and_restores_the_thread_count():
    controls = blas._thread_controls()
    if controls is None:
        pytest.skip("numpy does not use its bundled OpenBLAS here")
    get_threads, _ = controls
    before = get_threads()
    with pytest.raises(KeyError):
        with blas.one_blas_thread():
            assert get_threads() == 1
            raise KeyError("leaves the block early")
    assert get_threads() == before
