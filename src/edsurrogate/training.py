"""Alternating post-tuning: surrogate regression phases interleaved with
filtered recognizer tuning, plus the optimizer, the filtering function and the
factories that size fresh nets for a dataset.

Modes: "feds" gates each recognizer update on the surrogate's per-sample
approximation error; "lsed" trains without the gate and feeds the surrogate
extra randomly generated word pairs. Plain cross-entropy pretraining, the
baseline both modes start from, is pretrain_recognizer.

Every optimizer step builds one graph for its whole minibatch: the per-sample
losses come out as a (1, B) row, and the step descends on their mean.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import DiffNode
from .blas import one_blas_thread
from .errors import ConfigError, NumericError, ShapeError, check_field_types, reject_unknown_keys
from .params import ParamStore
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
    SurrogateLossWeights,
    SurrogateNet,
    distance_row,
    embed,
    save_surrogate,
    surrogate_loss_parts,
)
from .synth_data import DatasetConfig, SplitCorpus, random_pair_generator
from .text_metrics import CharGrid, decode_greedy, edit_distance, encode_one_hot, split_grids

PHASE_PRETRAIN = "pretrain"
PHASE_SURROGATE = "surrogate"
PHASE_RECOGNIZER = "recognizer"

MODES = ("feds", "lsed")
GATE_MODES = ("gated", "literal")

GENERATED_SAMPLE_INDEX = -1


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
    rho: float = 0.95
    eps: float = 1e-6
    pretrain_iterations: int = 2000
    weights: SurrogateLossWeights = field(default_factory=SurrogateLossWeights)
    seed: int = 0

    def __post_init__(self):
        check_field_types("train", self)
        if self.i_a < 1 or self.i_b < 1 or self.epochs < 1:
            raise ConfigError("i_a, i_b and epochs must be >= 1")
        if not self.lam > 0:
            raise ConfigError("lambda must be > 0")
        if self.batch_size < 1 or self.pretrain_iterations < 1:
            raise ConfigError("batch_size and pretrain_iterations must be >= 1")
        if not (self.eta_a > 0 and self.eta_b > 0 and self.eta_pre > 0):
            raise ConfigError("learning rates must be positive")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if not (0 <= self.rho < 1 and self.eps > 0):
            raise ConfigError("rho must lie in [0, 1) and eps must be positive")

    @classmethod
    def desk(cls, **overrides) -> "TrainConfig":
        """Settings sized for a single CPU core.

        Short surrogate phases keep the approximation visibly improving
        across epochs instead of converging inside the first one; the light
        pretrain budget leaves the recognizer headroom that tuning can still
        claim; and the damped tuning rate keeps early, poorly gated updates
        from undoing the baseline.
        """
        desk = dict(
            i_a=100,
            i_b=100,
            epochs=5,
            eta_b=0.5,
            batch_size=16,
            pretrain_iterations=800,
        )
        desk.update(overrides)
        return cls(**desk)

    def to_dict(self) -> dict:
        """Flat dict: every field, with the loss weights as w1 and w2."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "weights"}
        out.update(asdict(self.weights))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        weight_names = [f.name for f in fields(SurrogateLossWeights)]
        known = [f.name for f in fields(cls) if f.name != "weights"] + weight_names
        reject_unknown_keys("train", data, known)
        weights = {name: data.pop(name) for name in weight_names if name in data}
        return cls(weights=SurrogateLossWeights(**weights), **data)


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

def filter_value(e, e_hat: DiffNode, lam: float) -> DiffNode:
    """min(|e_hat - e|, lam) for a (1, B) row e_hat and B distances e. The
    clipped branch, including the |err| = lam boundary, carries a zero
    sub-gradient."""
    if not lam > 0:
        raise ConfigError("lambda must be > 0")
    e_values = ad.constant(np.reshape(np.asarray(e, dtype=np.float64), e_hat.shape))
    return ad.clip_max(ad.abs_val(ad.sub(e_hat, e_values)), lam)


@dataclass(frozen=True)
class FilteredLossParts:
    loss: DiffNode
    e_hat: DiffNode
    gate_open: tuple[bool, ...]


def filtered_str_loss_parts(
    z_hat, y_embedding: DiffNode, e, net: SurrogateNet, lam: float, gate_mode: str = "gated"
) -> FilteredLossParts:
    """Tuning loss. Gated mode, the one training uses, trains on e_hat itself
    with the gate indicator held constant; literal mode differentiates
    min(|err|, lam) as written. Both give exactly zero gradient once
    |e_hat - e| >= lam.

    B distances e, with B predicted grids side by side in z_hat and the
    (E, B) embedding of the B target grids under net, give (1, B) rows of
    loss and e_hat and a tuple of B gates.
    """
    if not lam > 0:
        raise ConfigError("lambda must be > 0")
    if gate_mode not in GATE_MODES:
        raise ConfigError(f"gate_mode must be one of {GATE_MODES}")
    e_hat = distance_row(z_hat, y_embedding, net)
    e_values = np.asarray(e, dtype=np.float64).reshape(1, -1)
    if e_values.shape != e_hat.shape:
        raise ShapeError(f"{e_values.size} edit distances for {e_hat.shape[1]} samples")
    gates = np.abs(e_hat.values - e_values) < lam
    if gate_mode == "gated":
        loss = ad.mul(e_hat, ad.constant(gates.astype(np.float64)))
    else:
        loss = filter_value(e, e_hat, lam)
    return FilteredLossParts(loss=loss, e_hat=e_hat, gate_open=tuple(gates[0].tolist()))


# --- optimizer ---------------------------------------------------------------

class OptimizerState:
    """Per-parameter accumulators; shapes are pinned at construction."""

    def __init__(self, params: ParamStore):
        self.square_avg = {n: np.zeros(params.node(n).shape) for n in params.names()}
        self.acc_delta = {n: np.zeros(params.node(n).shape) for n in params.names()}


def adadelta_step(
    params: ParamStore,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    rho: float = 0.95,
    eps: float = 1e-6,
    lr: float = 1.0,
) -> None:
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


def _descend(params: ParamStore, losses: DiffNode, state, cfg: TrainConfig, lr: float):
    """One optimizer step on the batch mean of a (1, B) row of per-sample losses."""
    root = ad.mul_scalar(ad.sum_all(losses), 1.0 / losses.shape[1])
    grads = ad.backward(root, params.nodes())
    values = {name: g.values for name, g in zip(params.names(), grads)}
    adadelta_step(params, values, state, cfg.rho, cfg.eps, lr)


@contextmanager
def _naming_divergence(phase: str, epoch: int, iteration: int):
    """Re-raise a NumericError with the step it came from."""
    try:
        yield
    except NumericError as exc:
        raise NumericError(
            f"{phase} phase diverged at epoch {epoch}, iteration {iteration}: {exc}"
        ) from exc


def _edit_distances(grids: list[CharGrid], images: list[WordImage], alphabet) -> list[int]:
    """Edit distance between each greedily decoded grid and its image's label."""
    return [edit_distance(decode_greedy(g, alphabet), im.label) for g, im in zip(grids, images)]


def _log_step(logs, epoch, phase, iteration, indices, es, e_hats, losses, gates) -> None:
    """One record per sample of an optimizer step."""
    logs.extend(
        PhaseLogRecord(epoch, phase, iteration, int(index), e, e_hat, loss, gate)
        for index, e, e_hat, loss, gate in zip(indices, es, e_hats, losses, gates)
    )


# --- phases -------------------------------------------------------------------

@one_blas_thread()
def pretrain_recognizer(
    images: list[WordImage],
    recognizer: RecognizerNet,
    cfg: TrainConfig,
    dcfg: DatasetConfig,
    logs: list[PhaseLogRecord] | None = None,
) -> None:
    """Plain cross-entropy training of the recognizer (the baseline)."""
    if not images:
        raise ConfigError("empty training set")
    rng = np.random.default_rng([cfg.seed, 0, 0])
    state = OptimizerState(recognizer.params)
    targets = {}
    for iteration in range(cfg.pretrain_iterations):
        with _naming_divergence(PHASE_PRETRAIN, 0, iteration):
            indices = rng.integers(0, len(images), size=cfg.batch_size)
            batch = [images[index] for index in indices]
            for image in batch:
                if image.label not in targets:
                    targets[image.label] = encode_one_hot(
                        image.label, dcfg.alphabet, dcfg.capacity
                    )
            z_node = forward(batch, recognizer)
            losses = ce_loss(z_node, [targets[image.label] for image in batch])
            if logs is not None:
                es = _edit_distances(split_grids(z_node.values, len(batch)), batch, dcfg.alphabet)
                nans, closed = [math.nan] * len(batch), [False] * len(batch)
                row = losses.values[0].tolist()
                _log_step(logs, 0, PHASE_PRETRAIN, iteration, indices, es, nans, row, closed)
            _descend(recognizer.params, losses, state, cfg, cfg.eta_pre)


@one_blas_thread()
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
    holds a pair from the random pair generator instead."""
    if not images:
        raise ConfigError("empty training set")
    rng = np.random.default_rng([cfg.seed, epoch, 1])
    # index -> (predicted grid, target grid, edit distance), for this phase
    cache: dict[int, tuple[CharGrid, CharGrid, int]] = {}
    generated = range(1, cfg.batch_size, 2) if cfg.mode == "lsed" else range(0)
    for iteration in range(cfg.i_a):
        with _naming_divergence(PHASE_SURROGATE, epoch, iteration):
            indices = [int(index) for index in rng.integers(0, len(images), size=cfg.batch_size)]
            pairs = {position: random_pair_generator(dcfg, rng) for position in generated}
            real = [index for position, index in enumerate(indices) if position not in pairs]
            misses = list(dict.fromkeys(index for index in real if index not in cache))
            if misses:
                missed = [images[index] for index in misses]
                grids = split_grids(forward(missed, recognizer).values, len(misses))
                es = _edit_distances(grids, missed, dcfg.alphabet)
                for index, grid, e in zip(misses, grids, es):
                    y_grid = encode_one_hot(images[index].label, dcfg.alphabet, dcfg.capacity)
                    cache[index] = (grid, y_grid, e)
            samples = [
                (pairs[position].grid_a, pairs[position].grid_b, pairs[position].ed)
                if position in pairs
                else cache[index]
                for position, index in enumerate(indices)
            ]
            z_grids, y_grids, es = (list(column) for column in zip(*samples))
            parts = surrogate_loss_parts(z_grids, y_grids, es, surrogate_net, cfg.weights)
            e_hats = parts.e_hat.values[0].tolist()
            _log_step(
                logs,
                epoch,
                PHASE_SURROGATE,
                iteration,
                [GENERATED_SAMPLE_INDEX if p in pairs else i for p, i in enumerate(indices)],
                es,
                e_hats,
                parts.loss.values[0].tolist(),
                [abs(e_hat - e) < cfg.lam for e_hat, e in zip(e_hats, es)],
            )
            _descend(surrogate_net.params, parts.loss, state, cfg, cfg.eta_a)


@one_blas_thread()
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
    if not images:
        raise ConfigError("empty training set")
    rng = np.random.default_rng([cfg.seed, epoch, 2])
    lam = math.inf if cfg.mode == "lsed" else cfg.lam  # an infinite band keeps every gate open
    # label -> its target grid's embedding under the frozen surrogate
    targets: dict[str, np.ndarray] = {}
    for iteration in range(cfg.i_b):
        with _naming_divergence(PHASE_RECOGNIZER, epoch, iteration):
            indices = rng.integers(0, len(images), size=cfg.batch_size)
            batch = [images[int(index)] for index in indices]
            new = list(dict.fromkeys(im.label for im in batch if im.label not in targets))
            if new:
                y_new = [encode_one_hot(label, dcfg.alphabet, dcfg.capacity) for label in new]
                targets.update(zip(new, embed(y_new, surrogate_net).values.T))
            y_embed = ad.constant(np.stack([targets[im.label] for im in batch], axis=1))
            z_node = forward(batch, recognizer)
            es = _edit_distances(split_grids(z_node.values, len(batch)), batch, dcfg.alphabet)
            parts = filtered_str_loss_parts(z_node, y_embed, es, surrogate_net, lam)
            _log_step(
                logs,
                epoch,
                PHASE_RECOGNIZER,
                iteration,
                indices,
                es,
                parts.e_hat.values[0].tolist(),
                parts.loss.values[0].tolist(),
                parts.gate_open,
            )
            _descend(recognizer.params, parts.loss, state, cfg, cfg.eta_b)


@dataclass
class PostTuningResult:
    recognizer: RecognizerNet
    surrogate: SurrogateNet
    logs: list[PhaseLogRecord]


def _net_config(config_class, section: str, derived: dict, overrides: dict | None):
    """config_class built from derived values, overridden by the keys of a
    config file section."""
    values = dict(overrides or {})
    reject_unknown_keys(section, values, [f.name for f in fields(config_class)])
    if isinstance(values.get("channels"), list):
        values["channels"] = tuple(values["channels"])
    return config_class(**{**derived, **values})


def build_recognizer(
    dcfg: DatasetConfig, seed: int, overrides: dict | None = None
) -> RecognizerNet:
    """A fresh recognizer sized for dcfg's images and alphabet; overrides
    holds a config file's "recognizer" section."""
    derived = dict(
        alphabet_size=len(dcfg.alphabet),
        capacity=dcfg.capacity,
        image_height=dcfg.image_height,
        image_width=dcfg.image_width,
        seed=seed,
    )
    return RecognizerNet(_net_config(RecognizerConfig, "recognizer", derived, overrides))


def build_surrogate(
    dcfg: DatasetConfig, seed: int, overrides: dict | None = None
) -> SurrogateNet:
    """A fresh surrogate for dcfg's grids; overrides holds a config file's
    "surrogate" section."""
    derived = dict(alphabet_size=len(dcfg.alphabet), capacity=dcfg.capacity, seed=seed)
    return SurrogateNet(_net_config(SurrogateConfig, "surrogate", derived, overrides))


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
    for epoch in range(1, cfg.epochs + 1):
        train_surrogate_phase(
            split.train, recognizer, surrogate_net, cfg, dcfg, epoch, state_a, logs
        )
        tune_recognizer_phase(
            split.train, recognizer, surrogate_net, cfg, dcfg, epoch, state_b, logs
        )
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            save_recognizer(out_dir / f"recognizer_epoch{epoch}.bin", recognizer)
            save_surrogate(out_dir / f"surrogate_epoch{epoch}.bin", surrogate_net)
    return PostTuningResult(recognizer=recognizer, surrogate=surrogate_net, logs=logs)
