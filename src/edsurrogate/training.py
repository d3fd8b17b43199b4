"""Alternating post-tuning: surrogate regression phases interleaved with
filtered recognizer tuning, plus the optimizer and the factories that size
fresh nets for a dataset.

Modes: "feds" gates each recognizer update on the surrogate's per-sample
approximation error; "lsed" trains without the gate and feeds the surrogate
extra randomly generated word pairs. Plain cross-entropy pretraining, the
baseline both modes start from, is pretrain_recognizer.

Every phase runs in one private step loop, _run_phase. It owns the BLAS pin,
the generator keyed by (seed, epoch, phase), the index draw, the log records,
the ADADELTA step on the batch mean and the naming of a diverged step. A phase
supplies only a step that builds one graph for its minibatch's (1, B) losses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import DiffNode
from .blas import one_blas_thread
from .errors import ConfigError, NumericError, ShapeError, check_config, reject_unknown_keys
from .params import SEED_ROW, ParamStore
from .recognizer import (
    RecognizerConfig,
    RecognizerNet,
    WordImage,
    ce_loss,
    forward,
    save_recognizer,
)
from .surrogate import (
    SurrogateConfig,
    SurrogateNet,
    distance_row,
    embed,
    save_surrogate,
    surrogate_loss_parts,
)
from .synth_data import DatasetConfig, SplitCorpus, random_pair_generator
from .text_metrics import decode_greedy, edit_distance, encode_batch

PHASE_PRETRAIN = "pretrain"
PHASE_SURROGATE = "surrogate"
PHASE_RECOGNIZER = "recognizer"

MODES = ("feds", "lsed")

GENERATED_SAMPLE_INDEX = -1

ADADELTA_RHO = 0.95  # decay of both running averages
ADADELTA_EPS = 1e-6

_ROWS = (
    SEED_ROW,
    *((key, lambda v, c: v >= 1, "be >= 1")
      for key in ("i_a", "i_b", "epochs", "batch_size", "pretrain_iterations")),
    *((key, lambda v, c: v > 0, "be > 0") for key in ("lam", "eta_a", "eta_b", "eta_pre")),
    ("w2", lambda v, c: v >= 0, "be >= 0"),
    ("mode", lambda v, c: v in MODES, f"be one of {MODES}"),
)


@dataclass(frozen=True)
class TrainConfig:
    i_a: int = 500
    i_b: int = 500
    epochs: int = 10
    eta_a: float = 1.0
    eta_b: float = 1.0
    eta_pre: float = 1.0
    lam: float = 0.25
    batch_size: int = 32
    mode: str = "feds"
    pretrain_iterations: int = 2000
    w2: float = 0.1  # weight of the surrogate loss's gradient-norm penalty
    seed: int = 0

    def __post_init__(self):
        check_config("train", self, _ROWS)

    @classmethod
    def desk(cls, /, **overrides) -> "TrainConfig":
        """Settings sized for a single CPU core.

        Short surrogate phases keep the approximation visibly improving
        across epochs instead of converging inside the first one; the light
        pretrain budget leaves the recognizer headroom that tuning can still
        claim; and the damped tuning rate keeps early, poorly gated updates
        from undoing the baseline. An unknown key raises ConfigError.
        """
        reject_unknown_keys("train", overrides, [f.name for f in fields(cls)])
        desk = dict(i_a=100, i_b=100, epochs=5, eta_b=0.5, batch_size=16, pretrain_iterations=800)
        return cls(**{**desk, **overrides})


@dataclass(frozen=True)
class PhaseLogRecord:
    epoch: int
    phase: str
    iteration: int
    sample_index: int
    e: float
    e_hat: float
    loss: float
    gate_open: bool


# --- filtering --------------------------------------------------------------

@dataclass(frozen=True)
class FilteredLossParts:
    loss: DiffNode
    e_hat: DiffNode
    gate_open: tuple[bool, ...]


def filtered_str_loss_parts(
    z_hat: DiffNode, y_embedding: DiffNode, e, net: SurrogateNet, lam: float
) -> FilteredLossParts:
    """Tuning loss: e_hat itself with the gate indicator |e_hat - e| < lam
    held constant, so the gradient is exactly zero once |e_hat - e| >= lam.

    B distances e, with B predicted grids side by side in z_hat and the
    (E, B) embedding of the B target grids under net, give (1, B) rows of
    loss and e_hat and a tuple of B gates.
    """
    if not lam > 0:
        raise ConfigError("lambda must be > 0")
    e_hat = distance_row(z_hat, y_embedding, net)
    e_values = np.asarray(e, dtype=np.float64).reshape(1, -1)
    if e_values.shape != e_hat.shape:
        raise ShapeError(f"{e_values.size} edit distances for {e_hat.shape[1]} samples")
    gates = np.abs(e_hat.values - e_values) < lam
    loss = ad.mul(e_hat, ad.constant(gates.astype(np.float64)))
    return FilteredLossParts(loss=loss, e_hat=e_hat, gate_open=tuple(gates[0].tolist()))


# --- optimizer ---------------------------------------------------------------

class OptimizerState:
    """Per-parameter accumulators; shapes are pinned at construction."""

    def __init__(self, params: ParamStore):
        self.square_avg = {n: np.zeros(params.node(n).shape) for n in params.names()}
        self.acc_delta = {n: np.zeros(params.node(n).shape) for n in params.names()}


def adadelta_step(
    params: ParamStore, grads: dict[str, np.ndarray], state: OptimizerState, lr: float = 1.0
) -> None:
    rho, eps = ADADELTA_RHO, ADADELTA_EPS
    for name in params.names():
        g = grads[name]
        sq = state.square_avg[name]
        acc = state.acc_delta[name]
        if g.shape != sq.shape:
            raise ShapeError(f"gradient shape {g.shape} != state shape {sq.shape}")
        sq *= rho
        sq += (1.0 - rho) * g * g
        delta = np.sqrt(acc + eps) / np.sqrt(sq + eps) * g
        acc *= rho
        acc += (1.0 - rho) * delta * delta
        params.assign(name, params.node(name).values - lr * delta)


def _gradients(step, indices, rng, cache, params):
    """Run step: the batch mean of its (1, B) loss row, that row as floats,
    its log columns and each parameter's gradient of the mean, with the
    step's graph gone on return."""
    losses, columns = step(indices, rng, cache)
    root = ad.mul_const(ad.sum_all(losses), 1.0 / losses.shape[1])
    grads = ad.backward(root, params.nodes())
    return root.values, losses.values[0].tolist(), columns, [g.values for g in grads]


def _edit_distances(z_values: np.ndarray, images: list[WordImage], alphabet) -> list[int]:
    """Edit distance from the greedy decoding of each grid in z_values to its image's label."""
    words = decode_greedy(z_values, len(images), alphabet)
    return [edit_distance(word, image.label) for word, image in zip(words, images)]


_STREAMS = {PHASE_PRETRAIN: 0, PHASE_SURROGATE: 1, PHASE_RECOGNIZER: 2}


def _run_phase(phase, epoch, iterations, images, cfg, params, state, lr, step, logs) -> None:
    """The step loop every phase shares. Each iteration draws batch_size
    indices from the phase's keyed generator; step(indices, rng, cache), given
    the phase's cache dict, returns the batch's (1, B) loss row and per-sample
    (index, e, e_hat, gate) columns, logged when logs is not None; params then
    descend at rate lr. The step's graph is built unchecked and silent, then
    its batch mean and gradients are checked once. A failed check or any
    ValueError replays the step with per-node checks from the saved generator
    state and cache, so the error names the op that first went non-finite. A
    NumericError is re-raised naming the phase, epoch and iteration."""
    if not images:
        raise ConfigError("empty training set")
    rng = np.random.default_rng([cfg.seed, epoch, _STREAMS[phase]])
    cache = {}
    with one_blas_thread():
        for iteration in range(iterations):
            indices = [int(index) for index in rng.integers(0, len(images), size=cfg.batch_size)]
            saved_rng, saved_cache = rng.bit_generator.state, dict(cache)
            try:
                try:
                    with ad.unchecked(), np.errstate(all="ignore"):
                        mean, losses, columns, grads = _gradients(step, indices, rng, cache, params)
                    if not all(map(ad.all_finite, [mean, *grads])):
                        raise NumericError("non-finite loss or gradient")
                except ValueError as exc:
                    rng.bit_generator.state = saved_rng
                    _gradients(step, indices, rng, saved_cache, params)
                    raise NumericError("non-finite loss or gradient") from exc
                if logs is not None:
                    logs.extend(
                        PhaseLogRecord(epoch, phase, iteration, index, e, e_hat, loss, gate)
                        for index, e, e_hat, gate, loss in zip(*columns, losses)
                    )
                adadelta_step(params, dict(zip(params.names(), grads)), state, lr)
            except NumericError as exc:
                raise NumericError(
                    f"{phase} phase diverged at epoch {epoch}, iteration {iteration}: {exc}"
                ) from exc


# --- phases -------------------------------------------------------------------

def pretrain_recognizer(
    images: list[WordImage],
    recognizer: RecognizerNet,
    cfg: TrainConfig,
    dcfg: DatasetConfig,
    logs: list[PhaseLogRecord] | None = None,
) -> None:
    """Plain cross-entropy training of the recognizer (the baseline). Without
    logs, nothing is decoded."""

    def step(indices, rng, cache):
        batch = [images[index] for index in indices]
        y_values = encode_batch([image.label for image in batch], dcfg.alphabet, dcfg.capacity)
        z_node = forward(batch, recognizer)
        losses = ce_loss(z_node, y_values, len(batch))
        if logs is None:
            return losses, None
        es = _edit_distances(z_node.values, batch, dcfg.alphabet)
        return losses, (indices, es, [math.nan] * len(batch), [False] * len(batch))

    _run_phase(
        PHASE_PRETRAIN, 0, cfg.pretrain_iterations, images, cfg, recognizer.params,
        OptimizerState(recognizer.params), cfg.eta_pre, step, logs,
    )


def train_surrogate_phase(
    images: list[WordImage],
    recognizer: RecognizerNet,
    surrogate_net: SurrogateNet,
    cfg: TrainConfig,
    dcfg: DatasetConfig,
    epoch: int,
    state: OptimizerState,
    logs: list[PhaseLogRecord],
) -> None:
    """i_a updates of the surrogate on (predicted grid, target grid, true ED)
    triples from the frozen recognizer. In lsed mode every odd batch position
    holds a pair from the random pair generator instead, drawn after the
    batch's indices."""
    generated = range(1, cfg.batch_size, 2) if cfg.mode == "lsed" else range(0)

    # cache: index -> (predicted grid, target grid, edit distance), the grids
    # column views of their miss batch's arrays
    def step(indices, rng, cache):
        pairs = {position: random_pair_generator(dcfg, rng) for position in generated}
        real = [index for position, index in enumerate(indices) if position not in pairs]
        misses = list(dict.fromkeys(index for index in real if index not in cache))
        if misses:
            missed = [images[index] for index in misses]
            z_values = forward(missed, recognizer).values
            y_values = encode_batch([im.label for im in missed], dcfg.alphabet, dcfg.capacity)
            es = _edit_distances(z_values, missed, dcfg.alphabet)
            z_cut, y_cut = (np.split(v, len(misses), axis=1) for v in (z_values, y_values))
            cache.update(zip(misses, zip(z_cut, y_cut, es)))
        if pairs:  # one encoding of every generated word, a and b alternating
            words = [word for pair in pairs.values() for word in (pair.word_a, pair.word_b)]
            grids = np.split(encode_batch(words, dcfg.alphabet, dcfg.capacity), len(words), axis=1)
            pairs = {
                p: (grids[2 * j], grids[2 * j + 1], pair.ed)
                for j, (p, pair) in enumerate(pairs.items())
            }
        samples = [pairs[p] if p in pairs else cache[i] for p, i in enumerate(indices)]
        z_grids, y_grids, es = zip(*samples)
        z_hat, y_hat = (ad.constant(np.concatenate(g, axis=1)) for g in (z_grids, y_grids))
        parts = surrogate_loss_parts(z_hat, y_hat, es, surrogate_net, cfg.w2)
        e_hats = parts.e_hat.values[0].tolist()
        logged = [GENERATED_SAMPLE_INDEX if p in pairs else i for p, i in enumerate(indices)]
        gates = [abs(e_hat - e) < cfg.lam for e_hat, e in zip(e_hats, es)]
        return parts.loss, (logged, es, e_hats, gates)

    _run_phase(
        PHASE_SURROGATE, epoch, cfg.i_a, images, cfg,
        surrogate_net.params, state, cfg.eta_a, step, logs,
    )


def tune_recognizer_phase(
    images: list[WordImage],
    recognizer: RecognizerNet,
    surrogate_net: SurrogateNet,
    cfg: TrainConfig,
    dcfg: DatasetConfig,
    epoch: int,
    state: OptimizerState,
    logs: list[PhaseLogRecord],
) -> None:
    """i_b updates of the recognizer against the frozen surrogate. FEDS mode
    gates each sample on |e_hat - e| < lambda; lsed mode trains ungated."""
    lam = math.inf if cfg.mode == "lsed" else cfg.lam  # an infinite band keeps every gate open

    # targets: label -> its target grid's embedding under the frozen surrogate
    def step(indices, rng, targets):
        batch = [images[index] for index in indices]
        new = list(dict.fromkeys(im.label for im in batch if im.label not in targets))
        if new:
            y_new = ad.constant(encode_batch(new, dcfg.alphabet, dcfg.capacity))
            targets.update(zip(new, embed(y_new, surrogate_net).values.T))
        y_embed = ad.constant(np.stack([targets[im.label] for im in batch], axis=1))
        z_node = forward(batch, recognizer)
        es = _edit_distances(z_node.values, batch, dcfg.alphabet)
        parts = filtered_str_loss_parts(z_node, y_embed, es, surrogate_net, lam)
        return parts.loss, (indices, es, parts.e_hat.values[0].tolist(), parts.gate_open)

    _run_phase(
        PHASE_RECOGNIZER, epoch, cfg.i_b, images, cfg,
        recognizer.params, state, cfg.eta_b, step, logs,
    )


@dataclass
class PostTuningResult:
    recognizer: RecognizerNet
    surrogate: SurrogateNet
    logs: list[PhaseLogRecord]


def net_config(config_class, source: str, dcfg: DatasetConfig, seed: int, values=None):
    """config_class sized for dcfg's images and alphabet and seeded with seed,
    overridden by values: the keys of a config file section, or a loaded
    net's config. A value that dcfg fixes must equal dcfg's; ConfigError
    names source otherwise, and for a key config_class does not have."""
    values = dict(values or {})
    reject_unknown_keys(source, values, [f.name for f in fields(config_class)])
    sizes = {name: getattr(dcfg, name) for name in ("capacity", "image_height", "image_width")}
    sizes["alphabet_size"] = len(dcfg.alphabet)
    for name in (f.name for f in fields(config_class) if f.name in sizes):
        value = values.setdefault(name, sizes[name])
        if value != sizes[name]:
            raise ConfigError(f"{source} has {name} {value}, but the dataset has {sizes[name]}")
    if isinstance(values.get("channels"), list):
        values["channels"] = tuple(values["channels"])
    return config_class(**{"seed": seed, **values})


def build_recognizer(
    dcfg: DatasetConfig, seed: int, overrides: dict | None = None
) -> RecognizerNet:
    """A fresh recognizer sized for dcfg's images and alphabet; overrides
    holds a config file's "recognizer" section."""
    return RecognizerNet(net_config(RecognizerConfig, "recognizer", dcfg, seed, overrides))


def build_surrogate(
    dcfg: DatasetConfig, seed: int, overrides: dict | None = None
) -> SurrogateNet:
    """A fresh surrogate for dcfg's grids; overrides holds a config file's
    "surrogate" section."""
    return SurrogateNet(net_config(SurrogateConfig, "surrogate", dcfg, seed, overrides))


def run_post_tuning(
    cfg: TrainConfig,
    dcfg: DatasetConfig,
    split: SplitCorpus,
    recognizer: RecognizerNet,
    surrogate_net: SurrogateNet | None = None,
    out_dir: str | Path | None = None,
) -> PostTuningResult:
    """epochs alternations of (surrogate phase, recognizer phase), starting
    from a pretrained recognizer and a freshly initialized surrogate."""
    if surrogate_net is None:
        surrogate_net = build_surrogate(dcfg, cfg.seed)
    logs: list[PhaseLogRecord] = []
    state_a = OptimizerState(surrogate_net.params)
    state_b = OptimizerState(recognizer.params)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    for epoch in range(1, cfg.epochs + 1):
        train_surrogate_phase(
            split.train, recognizer, surrogate_net, cfg, dcfg, epoch, state_a, logs
        )
        tune_recognizer_phase(
            split.train, recognizer, surrogate_net, cfg, dcfg, epoch, state_b, logs
        )
        if out_dir is not None:
            save_recognizer(out_dir / f"recognizer_epoch{epoch}.bin", recognizer)
            save_surrogate(out_dir / f"surrogate_epoch{epoch}.bin", surrogate_net)
    return PostTuningResult(recognizer=recognizer, surrogate=surrogate_net, logs=logs)
