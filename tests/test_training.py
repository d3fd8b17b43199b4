import weakref
from collections import Counter, defaultdict

import numpy as np
import pytest

from edsurrogate import autodiff as ad
from edsurrogate import recognizer as recognizer_module
from edsurrogate import synth_data, training
from edsurrogate.errors import ConfigError, NumericError
from edsurrogate.evaluation import write_log_csv
from edsurrogate.params import ParamStore
from edsurrogate.recognizer import RecognizerConfig, RecognizerNet, forward
from edsurrogate.surrogate import SurrogateConfig, SurrogateNet, embed
from edsurrogate.synth_data import DatasetConfig, sample_corpus, split_corpus
from edsurrogate.training import (
    OptimizerState,
    RunSpec,
    TrainConfig,
    adadelta_step,
    filtered_str_loss_parts,
    pretrain_recognizer,
    run_post_tuning,
    train_surrogate_phase,
    tune_recognizer_phase,
)
from edsurrogate.text_metrics import decode_greedy, edit_distance
from perfbench.tracer import Tracer, summarize

from .oracles import (
    LOSS_PARTS,
    broadcast_softmax_columns,
    broadcast_tile_axis,
    encode_one_hot,
    filter_value,
    grid_node,
    literal_loss_parts,
    two_row_edit_distance,
    where_leaky_relu,
)

SPEC = RunSpec.read({"dataset": {"corpus_size": 60}})
DCFG = SPEC.dataset
RCFG = RecognizerConfig(
    alphabet_size=9, capacity=8, image_height=12, image_width=32, channels=(8, 8)
)
SCFG = SurrogateConfig(
    alphabet_size=9,
    capacity=8,
    embedding_dim=16,
    channels=(8, 8, 8, 8, 8),
    hidden=16,
    seed=2,
)


def small_config(**overrides) -> TrainConfig:
    base = dict(i_a=2, i_b=2, epochs=1, batch_size=4, pretrain_iterations=2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def snapshot(params: ParamStore) -> dict[str, bytes]:
    return {name: params.node(name).values.tobytes() for name in params.names()}


# --- config -------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lam=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(mode="other")
    with pytest.raises(ConfigError):
        TrainConfig(w2=-0.1)


@pytest.mark.parametrize("preset", [TrainConfig.desk, DatasetConfig.desk])
@pytest.mark.parametrize("key", ["optimiser", "rho", "cls"])
def test_desk_presets_reject_an_unknown_key(preset, key):
    with pytest.raises(ConfigError, match=f"unknown (train|dataset) key '{key}'"):
        preset(**{key: 1})


@pytest.mark.parametrize("preset", [TrainConfig.desk, DatasetConfig.desk])
def test_desk_presets_take_only_seeds_a_checkpoint_holds_exactly(preset):
    for seed in (-1, 2**53 + 1):
        with pytest.raises(ConfigError, match=f"key 'seed' must lie in .*, got {seed}"):
            preset(seed=seed)
    assert preset(seed=0).seed == 0 and preset(seed=2**53).seed == 2**53


def test_net_factories_size_nets_for_the_dataset_and_apply_overrides():
    spec = RunSpec.read(
        {"seed": 4, "recognizer": {"channels": [8]}, "surrogate": {"hidden": 16}}
    )
    assert spec.recognizer == RecognizerConfig(
        alphabet_size=9, capacity=8, image_height=12, image_width=32, channels=(8,), seed=4
    )
    assert spec.surrogate == SurrogateConfig(alphabet_size=9, capacity=8, hidden=16, seed=4)
    assert RunSpec.desk(4).surrogate == SurrogateConfig(alphabet_size=9, capacity=8, seed=4)


def test_default_lambda_in_stated_range():
    cfg = TrainConfig()
    assert 0.0 < cfg.lam < 0.5


# --- filter -------------------------------------------------------------------

def filtered(e: int, e_hat: float, lam: float) -> float:
    """filter_value of one sample, as a batch of one."""
    return filter_value([e], ad.constant([[e_hat]]), lam).values.item()


def test_filter_value_examples():
    assert filtered(2, 2.1, 0.25) == pytest.approx(0.1)
    assert filtered(2, 3.0, 0.25) == pytest.approx(0.25)
    assert filtered(0, 0.0, 0.25) == 0.0
    with pytest.raises(ConfigError):
        filtered(1, 1.0, 0.0)


def test_filter_value_clipped_branch_has_zero_gradient():
    e_hat = ad.variable([[3.0]])
    out = filter_value([2], e_hat, 0.25)
    assert out.values.item() == pytest.approx(0.25)
    (grad,) = ad.backward(ad.sum_all(out), [e_hat])
    assert grad.values.item() == 0.0

    inside = ad.variable([[2.1]])
    (grad_in,) = ad.backward(ad.sum_all(filter_value([2], inside, 0.25)), [inside])
    assert grad_in.values.item() == pytest.approx(1.0)


def test_filter_boundary_counts_as_closed():
    e_hat = ad.variable([[2.25]])
    out = filter_value([2], e_hat, 0.25)
    assert out.values.item() == pytest.approx(0.25)
    (grad,) = ad.backward(ad.sum_all(out), [e_hat])
    assert grad.values.item() == 0.0


# --- gate zeroing ----------------------------------------------------------------

def _tuning_sample():
    recognizer = RecognizerNet(RCFG)
    surrogate = SurrogateNet(SCFG)
    image = sample_corpus(DatasetConfig.desk(corpus_size=1))[0]
    z_node = forward(image, recognizer)
    y_grid = grid_node([encode_one_hot(image.label, DCFG.alphabet, DCFG.capacity)])
    e = edit_distance(decode_greedy(z_node.values, 1, DCFG.alphabet)[0], image.label)
    return recognizer, surrogate, z_node, y_grid, e


@pytest.mark.parametrize("gate_mode", ["gated", "literal"])
def test_closed_gate_gives_exactly_zero_theta_gradient(gate_mode):
    recognizer, surrogate, z_node, y_grid, e = _tuning_sample()
    probe = filtered_str_loss_parts(z_node, embed(y_grid, surrogate), [e], surrogate, lam=1e9)
    abs_err = abs(probe.e_hat.values.item() - e)
    assert abs_err > 0
    for lam in (abs_err / 2, abs_err):  # interior and exact boundary
        parts = LOSS_PARTS[gate_mode](z_node, embed(y_grid, surrogate), [e], surrogate, lam)
        assert parts.gate_open == (False,)
        grads = ad.backward(ad.sum_all(parts.loss), recognizer.params.nodes())
        assert all(np.all(g.values == 0.0) for g in grads)


@pytest.mark.parametrize("gate_mode", ["gated", "literal"])
def test_open_gate_gives_nonzero_theta_gradient(gate_mode):
    recognizer, surrogate, z_node, y_grid, e = _tuning_sample()
    probe = filtered_str_loss_parts(z_node, embed(y_grid, surrogate), [e], surrogate, lam=1e9)
    lam = abs(probe.e_hat.values.item() - e) + 1.0
    parts = LOSS_PARTS[gate_mode](z_node, embed(y_grid, surrogate), [e], surrogate, lam)
    assert parts.gate_open == (True,)
    grads = ad.backward(ad.sum_all(parts.loss), recognizer.params.nodes())
    assert any(np.any(g.values != 0.0) for g in grads)


def test_open_gate_gated_loss_gradient_equals_distance_gradient():
    recognizer, surrogate, z_node, y_grid, e = _tuning_sample()
    probe = filtered_str_loss_parts(z_node, embed(y_grid, surrogate), [e], surrogate, lam=1e9)
    lam = abs(probe.e_hat.values.item() - e) + 1.0
    parts = filtered_str_loss_parts(z_node, embed(y_grid, surrogate), [e], surrogate, lam)
    loss_grads = ad.backward(ad.sum_all(parts.loss), recognizer.params.nodes())
    ehat_grads = ad.backward(ad.sum_all(parts.e_hat), recognizer.params.nodes())
    for a, b in zip(loss_grads, ehat_grads):
        assert np.allclose(a.values, b.values)


def test_open_gate_literal_gradient_is_signed_distance_gradient():
    recognizer, surrogate, z_node, y_grid, e = _tuning_sample()
    probe = filtered_str_loss_parts(z_node, embed(y_grid, surrogate), [e], surrogate, lam=1e9)
    e_hat = probe.e_hat.values.item()
    sign = 1.0 if e_hat > e else -1.0
    lam = abs(e_hat - e) + 1.0
    parts = literal_loss_parts(z_node, embed(y_grid, surrogate), [e], surrogate, lam)
    loss_grads = ad.backward(ad.sum_all(parts.loss), recognizer.params.nodes())
    ehat_grads = ad.backward(ad.sum_all(parts.e_hat), recognizer.params.nodes())
    for a, b in zip(loss_grads, ehat_grads):
        assert np.allclose(a.values, sign * b.values)


def test_huge_lambda_opens_every_gate():
    recognizer, surrogate, z_node, y_grid, e = _tuning_sample()
    parts = filtered_str_loss_parts(z_node, embed(y_grid, surrogate), [e], surrogate, lam=1e9)
    assert parts.gate_open == (True,)
    assert parts.loss.values.item() == pytest.approx(parts.e_hat.values.item())


# --- optimizer -------------------------------------------------------------------

def test_adadelta_zero_gradient_is_fixed_point():
    params = ParamStore()
    params.add("w", np.array([1.0, -2.0]))
    state = OptimizerState(params)
    before = params.node("w").values.tobytes()
    adadelta_step(params, {"w": np.zeros(2)}, state)
    assert params.node("w").values.tobytes() == before


def test_adadelta_deterministic():
    def run():
        params = ParamStore()
        params.add("w", np.array([1.0, -2.0]))
        state = OptimizerState(params)
        for _ in range(5):
            adadelta_step(params, {"w": params.node("w").values * 2.0}, state)
        return params.node("w").values.tobytes()

    assert run() == run()


def test_adadelta_decreases_quadratic_monotonically():
    params = ParamStore()
    params.add("x", np.array(3.0))
    state = OptimizerState(params)
    values = [float(params.node("x").values)]
    for _ in range(100):
        x = params.node("x")
        (grad,) = ad.backward(ad.square(x), [x])
        adadelta_step(params, {"x": grad.values}, state, lr=1.0)
        values.append(float(params.node("x").values))
    objective = [v * v for v in values]
    assert all(b < a for a, b in zip(objective, objective[1:]))


# --- phases ------------------------------------------------------------------

def test_surrogate_phase_freezes_recognizer():
    split = split_corpus(sample_corpus(DCFG))
    recognizer, surrogate = RecognizerNet(RCFG), SurrogateNet(SCFG)
    cfg = small_config()
    before_theta = snapshot(recognizer.params)
    before_phi = snapshot(surrogate.params)
    logs = []
    train_surrogate_phase(
        split.train, recognizer, surrogate, cfg, DCFG, 1, OptimizerState(surrogate.params), logs
    )
    assert snapshot(recognizer.params) == before_theta
    assert snapshot(surrogate.params) != before_phi
    assert all(r.phase == "surrogate" for r in logs)
    assert all(r.gate_open == (abs(r.e_hat - r.e) < cfg.lam) for r in logs)


def test_recognizer_phase_freezes_surrogate():
    split = split_corpus(sample_corpus(DCFG))
    recognizer, surrogate = RecognizerNet(RCFG), SurrogateNet(SCFG)
    cfg = small_config()
    before_phi = snapshot(surrogate.params)
    logs = []
    tune_recognizer_phase(
        split.train, recognizer, surrogate, cfg, DCFG, 1, OptimizerState(recognizer.params), logs
    )
    assert snapshot(surrogate.params) == before_phi
    assert all(r.phase == "recognizer" for r in logs)
    assert all(r.gate_open == (abs(r.e_hat - r.e) < cfg.lam) for r in logs)


def test_lsed_mode_gate_always_open_and_trains_on_generated_pairs():
    split = split_corpus(sample_corpus(DCFG))
    recognizer, surrogate = RecognizerNet(RCFG), SurrogateNet(SCFG)
    cfg = small_config(mode="lsed")
    result = run_post_tuning(cfg, DCFG, split, recognizer, surrogate_net=surrogate)
    rec = [r for r in result.logs if r.phase == "recognizer"]
    sur = [r for r in result.logs if r.phase == "surrogate"]
    assert all(r.gate_open for r in rec)
    assert any(r.sample_index == -1 for r in sur)
    assert any(r.sample_index >= 0 for r in sur)


def test_feds_mode_never_uses_generated_pairs():
    split = split_corpus(sample_corpus(DCFG))
    result = run_post_tuning(
        small_config(), DCFG, split, RecognizerNet(RCFG), surrogate_net=SurrogateNet(SCFG)
    )
    assert all(r.sample_index >= 0 for r in result.logs)


def test_post_tuning_loop_accounting():
    split = split_corpus(sample_corpus(DCFG))
    cfg = small_config(i_a=1, i_b=1, batch_size=1)
    result = run_post_tuning(
        cfg, DCFG, split, RecognizerNet(RCFG), surrogate_net=SurrogateNet(SCFG)
    )
    assert len(result.logs) == 2
    assert [r.phase for r in result.logs] == ["surrogate", "recognizer"]


# --- the shared step loop ------------------------------------------------------

def test_traced_phases_split_into_one_step_per_iteration():
    # The tracer records public training functions only and splits each
    # phase's span at its adadelta_step children, so the shared step loop
    # must run inside the public phase calls without a span of its own.
    split = split_corpus(sample_corpus(DCFG))
    cfg = small_config(pretrain_iterations=3, i_a=2, i_b=3, epochs=2)
    tracer = Tracer()
    with tracer.recording("toy"):
        recognizer = RecognizerNet(RCFG)
        training.pretrain_recognizer(split.train, recognizer, cfg, DCFG)
        training.run_post_tuning(cfg, DCFG, split, recognizer, SurrogateNet(SCFG))
    steps = summarize(tracer.spans, "toy").steps
    assert {phase: len(durations) for phase, durations in steps.items()} == {
        "pretrain": cfg.pretrain_iterations,
        "surrogate": cfg.epochs * cfg.i_a,
        "tune": cfg.epochs * cfg.i_b,
    }


def test_each_phase_draws_its_indices_from_its_keyed_stream():
    # Feds mode, so that no generated pair takes a batch position.
    split = split_corpus(sample_corpus(DCFG))
    cfg = small_config(pretrain_iterations=3, i_a=2, i_b=3, epochs=2, seed=4)
    recognizer = RecognizerNet(RCFG)
    logs = []
    pretrain_recognizer(split.train, recognizer, cfg, DCFG, logs)
    logs += run_post_tuning(cfg, DCFG, split, recognizer, SurrogateNet(SCFG)).logs
    logged = defaultdict(list)
    for record in logs:
        logged[record.phase, record.epoch].append(record.sample_index)

    def draws(epoch, stream, iterations):
        rng = np.random.default_rng([cfg.seed, epoch, stream])
        size, n = cfg.batch_size, len(split.train)
        return [int(index) for _ in range(iterations) for index in rng.integers(0, n, size=size)]

    expected = {("pretrain", 0): draws(0, 0, cfg.pretrain_iterations)}
    for epoch in range(1, cfg.epochs + 1):
        expected["surrogate", epoch] = draws(epoch, 1, cfg.i_a)
        expected["recognizer", epoch] = draws(epoch, 2, cfg.i_b)
    assert logged == expected


# Graph nodes one desk-size feds step may build, cold caches included, so
# that a change cannot quietly grow the graph again.
SURROGATE_STEP_NODES = 302
TUNE_STEP_NODES = 152


def test_desk_steps_stay_within_their_graph_budget(monkeypatch):
    split = split_corpus(sample_corpus(DCFG))
    cfg = TrainConfig.desk(i_a=1, i_b=1, mode="feds")
    recognizer, surrogate_net = RecognizerNet(SPEC.recognizer), SurrogateNet(SPEC.surrogate)
    built = [0]
    init = ad.DiffNode.__init__

    def counting_init(node, *args, **kwargs):
        built[0] += 1
        init(node, *args, **kwargs)

    monkeypatch.setattr(ad.DiffNode, "__init__", counting_init)
    counts = []
    for phase, net in (
        (train_surrogate_phase, surrogate_net),
        (tune_recognizer_phase, recognizer),
    ):
        built[0] = 0
        phase(split.train, recognizer, surrogate_net, cfg, DCFG, 1, OptimizerState(net.params), [])
        counts.append(built[0])
    assert counts[0] <= SURROGATE_STEP_NODES
    assert counts[1] <= TUNE_STEP_NODES


def test_desk_steps_decode_and_check_their_batch_once(monkeypatch):
    # One logged step of each phase at B = 16 decodes its grids in one call,
    # and pretraining checks its targets for one-hotness in one call.
    split = split_corpus(sample_corpus(DCFG))
    cfg = TrainConfig.desk(pretrain_iterations=1, i_a=1, i_b=1, mode="feds")
    assert cfg.batch_size == 16
    recognizer, surrogate_net = RecognizerNet(SPEC.recognizer), SurrogateNet(SPEC.surrogate)
    calls = Counter()

    def count_calls(module, name):
        function = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count_calls(training, "decode_greedy")
    count_calls(recognizer_module, "is_one_hot")
    pretrain_recognizer(split.train, recognizer, cfg, DCFG, [])
    assert calls == {"decode_greedy": 1, "is_one_hot": 1}
    for phase, net in (
        (train_surrogate_phase, surrogate_net),  # cold cache: every real sample misses
        (tune_recognizer_phase, recognizer),
    ):
        calls.clear()
        phase(split.train, recognizer, surrogate_net, cfg, DCFG, 1, OptimizerState(net.params), [])
        assert calls == {"decode_greedy": 1}, phase.__name__


def test_desk_steps_check_finiteness_once_per_result(monkeypatch):
    # The step's graph is built unchecked: one check of the batch mean, one
    # of each parameter's gradient and one of each parameter it assigns.
    split = split_corpus(sample_corpus(DCFG))
    cfg = TrainConfig.desk(i_a=1, i_b=1, mode="feds")
    recognizer, surrogate_net = RecognizerNet(SPEC.recognizer), SurrogateNet(SPEC.surrogate)
    checks = [0]
    all_finite = ad.all_finite

    def counting_all_finite(values):
        checks[0] += 1
        return all_finite(values)

    monkeypatch.setattr(ad, "all_finite", counting_all_finite)
    for phase, net in (
        (train_surrogate_phase, surrogate_net),
        (tune_recognizer_phase, recognizer),
    ):
        checks[0] = 0
        phase(split.train, recognizer, surrogate_net, cfg, DCFG, 1, OptimizerState(net.params), [])
        assert checks[0] <= 1 + 2 * len(net.params.names()), phase.__name__


def test_each_step_releases_its_graph_before_the_next_backward(monkeypatch):
    # A weakref to each step's loss values, which live as long as its loss
    # node; at every backward, the loss of each earlier step must be gone.
    split = split_corpus(sample_corpus(DCFG))
    cfg = TrainConfig.desk(i_a=3, i_b=3, mode="feds")
    recognizer, surrogate_net = RecognizerNet(SPEC.recognizer), SurrogateNet(SPEC.surrogate)
    losses, live_earlier = [], []

    def watch(module, name):
        function = getattr(module, name)

        def watched(*args, **kwargs):
            losses.append(None)  # a new step starts
            parts = function(*args, **kwargs)
            losses[-1] = weakref.ref(parts.loss.values)
            return parts

        monkeypatch.setattr(module, name, watched)

    backward = ad.backward

    def watched_backward(*args, **kwargs):
        live_earlier.append(sum(ref() is not None for ref in losses[:-1]))
        return backward(*args, **kwargs)

    watch(training, "surrogate_loss_parts")
    watch(training, "filtered_str_loss_parts")
    monkeypatch.setattr(ad, "backward", watched_backward)
    for phase, net in (
        (train_surrogate_phase, surrogate_net),
        (tune_recognizer_phase, recognizer),
    ):
        phase(split.train, recognizer, surrogate_net, cfg, DCFG, 1, OptimizerState(net.params), [])
    assert len(losses) == cfg.i_a + cfg.i_b
    assert len(live_earlier) == 2 * cfg.i_a + cfg.i_b  # the surrogate's penalty backward too
    assert not any(live_earlier)


def _scaled_surrogate(factor) -> SurrogateNet:
    net = SurrogateNet(SCFG)
    for name in ("conv0.weight", "conv1.weight"):
        net.params.assign(name, net.params.node(name).values * factor)
    return net


@pytest.mark.parametrize("mode", training.MODES)
def test_replayed_step_names_the_op_behind_a_non_finite_cached_target(mode):
    # The failed unchecked attempt fills the target cache with non-finite
    # embeddings; the replay starts from the cache as it was before the step.
    split = split_corpus(sample_corpus(DCFG))
    recognizer, surrogate_net = RecognizerNet(RCFG), _scaled_surrogate(1e200)
    state = OptimizerState(recognizer.params)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
        tune_recognizer_phase(
            split.train, recognizer, surrogate_net, small_config(mode=mode), DCFG, 1, state, []
        )
    assert str(info.value) == (
        "recognizer phase diverged at epoch 1, iteration 0: "
        "non-finite values produced by op 'conv'"
    )


@pytest.mark.parametrize("logs", [None, []], ids=["unlogged", "logged"])
def test_replayed_pretrain_step_names_the_op_behind_a_diverged_update(logs):
    split = split_corpus(sample_corpus(DCFG))
    with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
        pretrain_recognizer(
            split.train, RecognizerNet(RCFG), small_config(eta_pre=1e300), DCFG, logs
        )
    assert str(info.value) == (
        "pretrain phase diverged at epoch 0, iteration 1: "
        "non-finite values produced by op 'conv'"
    )


def test_diverged_phase_restores_the_per_node_check():
    split = split_corpus(sample_corpus(DCFG))
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        pretrain_recognizer(split.train, RecognizerNet(RCFG), small_config(eta_pre=1e300), DCFG)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="op 'exp'"):
        ad.exp(ad.constant([1000.0]))


def test_replay_starts_from_the_saved_generator_state_and_cache():
    # The first attempt's loss is inf; the replay's is finite, so the step
    # still fails, and both attempts drew the same number from the same cache.
    params = ParamStore()
    params.add("w", [[1.0]])
    seen = []

    def step(indices, rng, cache):
        seen.append((rng.random(), dict(cache)))
        cache[len(seen)] = "filled"
        scale = ad.constant([[np.inf if len(seen) == 1 else 1.0]])
        return ad.mul(params.node("w"), scale), (indices, [0], [0.0], [True])

    cfg = small_config(batch_size=1)
    with pytest.raises(NumericError) as info:
        training._run_phase(
            "pretrain", 0, 1, [None], cfg, params, OptimizerState(params), 1.0, step, None
        )
    assert str(info.value) == (
        "pretrain phase diverged at epoch 0, iteration 0: non-finite loss or gradient"
    )
    assert len(seen) == 2 and seen[0] == seen[1]
    assert params.node("w").values.tolist() == [[1.0]]


def test_step_with_a_finite_loss_and_a_non_finite_gradient_names_its_op():
    # sqrt(0) is 0, but its gradient 0.5 / sqrt(0) is inf.
    params = ParamStore()
    params.add("w", [[0.0]])

    def step(indices, rng, cache):
        return ad.sqrt(params.node("w")), (indices, [0], [0.0], [True])

    cfg = small_config(batch_size=1)
    with np.errstate(all="ignore"), pytest.raises(NumericError) as info:
        training._run_phase(
            "pretrain", 0, 1, [None], cfg, params, OptimizerState(params), 1.0, step, None
        )
    assert str(info.value) == (
        "pretrain phase diverged at epoch 0, iteration 0: non-finite values produced by op 'div'"
    )


def test_step_with_an_absorbed_inf_completes():
    # w / exp(1000) is w / inf = 0: the inf never reaches the loss or the
    # gradient, so the step descends. A per-node check would have stopped it.
    params = ParamStore()
    params.add("w", [[1.0, -2.0]])
    logs = []

    def step(indices, rng, cache):
        w = params.node("w")
        absorbed = ad.div(w, ad.exp(ad.constant([[1000.0, 1000.0]])))
        losses = ad.add(ad.square(w), absorbed)
        return losses, (indices, [0, 0], [0.0, 0.0], [True, True])

    cfg = small_config(batch_size=2)
    training._run_phase(
        "pretrain", 0, 1, [None] * 3, cfg, params, OptimizerState(params), 1.0, step, logs
    )
    assert [record.loss for record in logs] == [1.0, 4.0]
    assert np.all(np.abs(params.node("w").values) < [[1.0, 2.0]])


def test_post_tuning_rejects_baseline_mode():
    # Pretraining is the baseline; no post-tuning config can name it.
    with pytest.raises(ConfigError, match="train key 'mode' must be one of"):
        small_config(mode="baseline")


def test_post_tuning_is_deterministic():
    split = split_corpus(sample_corpus(DCFG))

    def run():
        return run_post_tuning(
            small_config(epochs=2),
            DCFG,
            split,
            RecognizerNet(RCFG),
            surrogate_net=SurrogateNet(SCFG),
        )

    assert run().logs == run().logs


def test_post_tuning_writes_epoch_checkpoints(tmp_path):
    split = split_corpus(sample_corpus(DCFG))
    run_post_tuning(
        small_config(epochs=2),
        DCFG,
        split,
        RecognizerNet(RCFG),
        surrogate_net=SurrogateNet(SCFG),
        out_dir=tmp_path,
    )
    for epoch in (1, 2):
        assert (tmp_path / f"recognizer_epoch{epoch}.bin").exists()
        assert (tmp_path / f"surrogate_epoch{epoch}.bin").exists()


def _post_tuning_bytes(out_dir, mode) -> dict[str, bytes]:
    """Every checkpoint and the log of a two-epoch, B = 4 post-tuning run."""
    split = split_corpus(sample_corpus(DCFG))
    cfg = small_config(epochs=2, mode=mode)
    result = run_post_tuning(cfg, DCFG, split, RecognizerNet(RCFG), SurrogateNet(SCFG), out_dir)
    write_log_csv(out_dir / "log.csv", result.logs)
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("mode", training.MODES)
def test_post_tuning_writes_the_same_bytes_with_the_oracle_kernels(tmp_path, monkeypatch, mode):
    shipped = _post_tuning_bytes(tmp_path / "shipped", mode)
    for module, name, oracle in (
        (ad, "leaky_relu", where_leaky_relu),
        (ad, "tile_axis", broadcast_tile_axis),
        (ad, "softmax_columns", broadcast_softmax_columns),
        (training, "edit_distance", two_row_edit_distance),
        (synth_data, "edit_distance", two_row_edit_distance),
    ):
        monkeypatch.setattr(module, name, oracle)
    assert _post_tuning_bytes(tmp_path / "oracle", mode) == shipped


def test_pretrain_reduces_ce_loss():
    split = split_corpus(sample_corpus(DatasetConfig.desk(corpus_size=100)))
    recognizer = RecognizerNet(RCFG)
    cfg = small_config(pretrain_iterations=60, batch_size=8)
    logs = []
    pretrain_recognizer(split.train, recognizer, cfg, DCFG, logs)
    first = np.mean([r.loss for r in logs if r.iteration < 10])
    last = np.mean([r.loss for r in logs if r.iteration >= 50])
    assert last < first
    assert all(r.phase == "pretrain" and not r.gate_open for r in logs)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_surrogate_training_loss_decreases(seed):
    split = split_corpus(sample_corpus(DatasetConfig.desk(corpus_size=100, seed=seed)))
    recognizer = RecognizerNet(RCFG)
    surrogate = SurrogateNet(
        SurrogateConfig(
            alphabet_size=9,
            capacity=8,
            embedding_dim=16,
            channels=(8, 8, 8, 8, 8),
            hidden=16,
            seed=seed,
        )
    )
    cfg = small_config(i_a=200, batch_size=8, seed=seed)
    logs = []
    train_surrogate_phase(
        split.train, recognizer, surrogate, cfg, DCFG, 1, OptimizerState(surrogate.params), logs
    )
    early = np.mean([r.loss for r in logs if r.iteration < 50])
    late = np.mean([r.loss for r in logs if r.iteration >= 150])
    assert late < early


# --- desk-scale sanity ----------------------------------------------------------


@pytest.fixture(scope="module")
def desk_epoch_one():
    """Pretrained desk baseline plus the first phase pair of a tuning run."""
    dcfg = DatasetConfig.desk(seed=0)
    split = split_corpus(sample_corpus(dcfg))
    cfg = TrainConfig.desk(seed=0, pretrain_iterations=2000)
    recognizer = RecognizerNet(
        RecognizerConfig(
            alphabet_size=9, capacity=8, image_height=12, image_width=32, seed=0
        )
    )
    pretrain_recognizer(split.train, recognizer, cfg, dcfg)
    correct = sum(
        decode_greedy(forward(image, recognizer).values, 1, dcfg.alphabet) == [image.label]
        for image in split.test
    )
    surrogate = SurrogateNet(
        SurrogateConfig(alphabet_size=9, capacity=8, seed=0)
    )
    logs = []
    train_surrogate_phase(
        split.train, recognizer, surrogate, cfg, dcfg, 1, OptimizerState(surrogate.params), logs
    )
    tune_recognizer_phase(
        split.train, recognizer, surrogate, cfg, dcfg, 1, OptimizerState(recognizer.params), logs
    )
    return {"accuracy": correct / len(split.test), "logs": logs}


def test_pretraining_reaches_baseline_accuracy(desk_epoch_one):
    assert desk_epoch_one["accuracy"] >= 0.60


def test_first_phase_gate_fraction_strictly_inside_unit_interval(desk_epoch_one):
    opens = [r.gate_open for r in desk_epoch_one["logs"] if r.phase == "recognizer"]
    fraction = sum(opens) / len(opens)
    assert 0.0 < fraction < 1.0
