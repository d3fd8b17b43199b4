"""Spans around calls into the package's public functions, recorded from
outside the package.

While a recording is open, every public function of the layer modules is
rebound, in every package module that holds a reference to it, to a wrapper
that appends one span: name, tag, start, end, parent span id, run id and the
number of graph nodes (`DiffNode` constructions) made during the call.
Spans stay in memory and are written out once, after the measurement.

In `autodiff` only `backward`, `conv1d` and `linear` are wrapped. The other
autodiff functions are primitive ops called thousands of times per step;
their time stays in the self time of whichever span called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

PACKAGE = "edsurrogate"
LAYERS = (
    "synth_data",
    "text_metrics",
    "autodiff",
    "params",
    "recognizer",
    "surrogate",
    "training",
    "evaluation",
)
AUTODIFF_SPANS = ("backward", "conv1d", "linear")
NETWORK_LAYERS = {
    "recognizer": ("conv0", "conv1", "head"),
    "surrogate": ("conv0", "conv1", "conv2", "conv3", "conv4", "fc1", "fc2"),
}
PHASES = {
    "pretrain": "training.pretrain_recognizer",
    "surrogate": "training.train_surrogate_phase",
    "tune": "training.tune_recognizer_phase",
}
STEP = "training.adadelta_step"
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
STEP_PASSES = 3  # traced passes whose step times are pooled


class Span(NamedTuple):
    name: str
    tag: str  # network layer for conv1d/linear, "create_graph" for backward
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    run_id: str
    nodes: int


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        self.spans: list = []
        self.run_id = ""
        self.nodes = 0
        self._stack: list[int] = []
        self._weight_layer: dict[int, str] = {}
        self._origin = perf_counter()
        recognizer, surrogate = self.modules["recognizer"], self.modules["surrogate"]
        self._nets = {recognizer.RecognizerNet: "recognizer", surrogate.SurrogateNet: "surrogate"}

    @contextmanager
    def recording(self, run_id: str):
        """Trace every package call made inside the block under run_id."""
        undo = self._install()
        self.run_id = run_id
        try:
            yield
        finally:
            for target, attr, value in reversed(undo):
                setattr(target, attr, value)
            self._weight_layer.clear()

    def _install(self) -> list:
        wrappers = {}
        for layer, module in self.modules.items():
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and (layer != "autodiff" or attr in AUTODIFF_SPANS)
                ):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        undo = []
        package = [m for name, m in sys.modules.items() if name.startswith(PACKAGE + ".")]
        for module in package:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        node_class = self.modules["autodiff"].DiffNode
        init = node_class.__init__
        tracer = self

        def counting_init(node, *args, **kwargs):
            tracer.nodes += 1
            init(node, *args, **kwargs)

        undo.append((node_class, "__init__", init))
        node_class.__init__ = counting_init
        return undo

    def _register(self, net) -> None:
        prefix = self._nets[type(net)]
        for name in net.params.names():
            if name.endswith(".weight"):
                self._weight_layer[id(net.params.node(name))] = f"{prefix}.{name[:-7]}"

    def _tag(self, name: str, args, kwargs) -> str:
        if name == "autodiff.backward":
            create_graph = args[2] if len(args) > 2 else kwargs.get("create_graph", False)
            return "create_graph" if create_graph else ""
        if name == "autodiff.conv1d":
            weight = args[1] if len(args) > 1 else kwargs.get("weight")
            return self._weight_layer.get(id(weight), "")
        if name == "autodiff.linear":
            weight = args[0] if args else kwargs.get("weight")
            return self._weight_layer.get(id(weight), "")
        # Parameters are replaced on every step, so the weight -> layer map
        # is refreshed whenever a net is handed to a package function.
        for value in (*args, *kwargs.values()):
            if type(value) in self._nets:
                self._register(value)
        return ""

    def _wrap(self, name: str, fn):
        spans, stack, origin = self.spans, self._stack, self._origin
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tracer._tag(name, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            nodes = tracer.nodes
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(
                    name, tag, start - origin, end - origin, parent, tracer.run_id,
                    tracer.nodes - nodes,
                )

        return traced

    def write_csv(self, path) -> None:
        lines = ["span_id,run_id,name,tag,start_s,end_s,parent_id,nodes"]
        for i, s in enumerate(self.spans):
            lines.append(
                f"{i},{s.run_id},{s.name},{s.tag},{s.start!r},{s.end!r},{s.parent},{s.nodes}"
            )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


class RunSummary(NamedTuple):
    calls: Counter  # keyed by (name, tag)
    seconds: Counter
    nodes: Counter
    self_seconds: Counter  # keyed by layer
    steps: dict  # phase -> step durations in seconds
    step_count: int  # adadelta steps inside phase calls
    phase_nodes: int  # graph nodes made inside phase calls
    surrogate_forwards: int  # recognizer forwards made by the surrogate phase


def summarize(spans: list, run_id: str) -> RunSummary:
    chosen = [(i, s) for i, s in enumerate(spans) if s.run_id == run_id]
    covered = Counter()
    for _, s in chosen:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    calls, seconds, nodes, self_seconds = Counter(), Counter(), Counter(), Counter()
    step_ends = defaultdict(list)
    for i, s in chosen:
        key = (s.name, s.tag)
        calls[key] += 1
        seconds[key] += s.end - s.start
        nodes[key] += s.nodes
        self_seconds[s.name.split(".")[0]] += s.end - s.start - covered[i]
        if s.name == STEP and s.parent >= 0:
            step_ends[s.parent].append(s.end)
    steps = {phase: [] for phase in PHASES}
    phase_of = {name: phase for phase, name in PHASES.items()}
    step_count = phase_nodes = surrogate_forwards = 0
    for i, s in chosen:
        phase = phase_of.get(s.name)
        if phase is not None:
            ends = sorted(step_ends[i])
            steps[phase] += [b - a for a, b in zip([s.start] + ends, ends)]
            step_count += len(ends)
            phase_nodes += s.nodes
        elif (
            s.name == "recognizer.forward"
            and s.parent >= 0
            and spans[s.parent].name == PHASES["surrogate"]
        ):
            surrogate_forwards += 1
    return RunSummary(
        calls, seconds, nodes, self_seconds, steps, step_count, phase_nodes, surrogate_forwards
    )


def tail(values: list[float]) -> tuple[float, int]:
    """The highest listed percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
            return cut, pct
    return (max(values), 100) if values else (0.0, 0)


def per_layer_metrics(
    setups: list[RunSummary], passes: list[RunSummary], facts: dict
) -> tuple[dict, dict]:
    """Per-layer metrics from traced setups and traced passes.

    Counts come from the first traced pass (every pass does the same work);
    times are medians over traced passes; step timings pool the first
    STEP_PASSES traced passes. facts holds figures read from the first
    pass's outputs. Returns the metrics and, for each step tail, its
    percentile and step count.
    """
    first = passes[0]

    def median_of(fn) -> float:
        return statistics.median(fn(p) for p in passes)

    def count(name, tag=""):
        return first.calls[(name, tag)]

    def secs(name, tag=""):
        return float(median_of(lambda p: p.seconds[(name, tag)]))

    def nodes(name, tag=""):
        return first.nodes[(name, tag)]

    m = {
        "synth_data.sample_corpus_s": float(
            statistics.median(s.seconds[("synth_data.sample_corpus", "")] for s in setups)
        ),
        "synth_data.random_pair_generator_calls": count("synth_data.random_pair_generator"),
        "synth_data.random_pair_generator_s": secs("synth_data.random_pair_generator"),
        "text_metrics.edit_distance_calls": count("text_metrics.edit_distance"),
        "text_metrics.edit_distance_s": secs("text_metrics.edit_distance"),
        "text_metrics.decode_greedy_calls": count("text_metrics.decode_greedy"),
        "text_metrics.decode_greedy_s": secs("text_metrics.decode_greedy"),
        "recognizer.forward_calls": count("recognizer.forward"),
        "recognizer.forward_s": secs("recognizer.forward"),
        "recognizer.forward_nodes": nodes("recognizer.forward"),
        "recognizer.ce_loss_s": secs("recognizer.ce_loss"),
        "surrogate.embed_calls": count("surrogate.embed"),
        "surrogate.embed_s": secs("surrogate.embed"),
        "surrogate.embed_nodes": nodes("surrogate.embed"),
        "surrogate.loss_parts_calls": count("surrogate.surrogate_loss_parts"),
        "surrogate.loss_parts_s": secs("surrogate.surrogate_loss_parts"),
        "autodiff.backward_calls": count("autodiff.backward"),
        "autodiff.backward_s": secs("autodiff.backward"),
        "autodiff.backward_nodes": nodes("autodiff.backward"),
        "autodiff.backward_create_graph_calls": count("autodiff.backward", "create_graph"),
        "autodiff.backward_create_graph_s": secs("autodiff.backward", "create_graph"),
        "autodiff.backward_create_graph_nodes": nodes("autodiff.backward", "create_graph"),
        "autodiff.nodes_per_step": first.phase_nodes / max(first.step_count, 1),
    }
    for net, layers in NETWORK_LAYERS.items():
        for layer in layers:
            tag = f"{net}.{layer}"
            op = "autodiff.linear" if layer.startswith(("fc", "head")) else "autodiff.conv1d"
            m[f"{tag}.forward_s"] = secs(op, tag)
            m[f"{tag}.forward_nodes"] = nodes(op, tag)
    samples = {}
    for phase in PHASES:
        pooled = [d * 1000.0 for p in passes[:STEP_PASSES] for d in p.steps[phase]]
        cut, pct = tail(pooled)
        m[f"training.{phase}_step_ms"] = statistics.median(pooled) if pooled else 0.0
        m[f"training.{phase}_step_tail_ms"] = cut
        samples[f"training.{phase}_step_tail_ms"] = {"percentile": pct, "steps": len(pooled)}
    real = facts["surrogate_real_samples"]
    m.update(
        {
            "training.adadelta_step_s": secs(STEP),
            "training.gate_open_frac": facts["gate_open_frac"],
            "training.surrogate_forward_reuse_frac": (
                1.0 - first.surrogate_forwards / real if real else 0.0
            ),
            "training.in_band_frac": facts["in_band_frac"],
            "params.save_calls": count("params.save_checkpoint"),
            "params.save_s": secs("params.save_checkpoint"),
            "params.checkpoint_bytes": facts["checkpoint_bytes"],
            "params.load_s": float(
                statistics.median(s.seconds[("params.load_checkpoint", "")] for s in setups)
            ),
            "evaluation.evaluate_model_s": secs("evaluation.evaluate_model"),
            "evaluation.write_log_csv_s": secs("evaluation.write_log_csv"),
            "evaluation.log_bytes": facts["log_bytes"],
            "evaluation.heldout_ted": facts["heldout_ted"],
        }
    )
    for layer in LAYERS:
        m[f"{layer}.self_s"] = float(median_of(lambda p: p.self_seconds[layer]))
    return m, samples
