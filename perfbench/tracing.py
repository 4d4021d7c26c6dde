"""Layer spans recorded from outside the program.

:class:`Tracer` wraps public functions of each ``floodnowcast`` module where
their callers look them up (``floodnowcast.cli.forward``,
``floodnowcast.model.cheb_graph_conv``, ``RegionGraph.build``,
``Tape.backward``, ...), records one span per call (name, start, end,
parent) in memory, and restores every original on exit. Nothing in the
program changes; a run without a tracer executes no wrapper at all.

:func:`layer_metrics` turns the spans of one round into the per-layer
numbers named in ``BENCHMARK.json``. Times are seconds per round; a ``_self``
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import floodnowcast.cli as cli
import floodnowcast.graph as graph
import floodnowcast.model as model
import floodnowcast.pipeline as pipeline
import floodnowcast.tensor as tensor
import floodnowcast.training as training

# (module or class, attribute, span name); the same function may be bound in
# several modules, and each binding its callers use is wrapped
_SPANS = [
    (cli._COMMANDS, "prepare", "cli.prepare"),
    (cli._COMMANDS, "train", "cli.train"),
    (cli._COMMANDS, "evaluate", "cli.evaluate"),
    (cli._COMMANDS, "predict", "cli.predict"),
    (cli, "prepare_from_dir", "pipeline.prepare_from_dir"),
    (pipeline, "load_gauges", "pipeline.load_csv"),
    (pipeline, "load_events", "pipeline.load_csv"),
    (pipeline, "load_tile_map", "pipeline.load_csv"),
    (pipeline, "load_road_status", "pipeline.load_csv"),
    (graph, "load_nodes_csv", "pipeline.load_csv"),
    (cli, "load_nodes_csv", "pipeline.load_csv"),
    (pipeline, "build_feature_tensor", "pipeline.build_features"),
    (cli, "save_dataset", "pipeline.save_dataset"),
    (cli, "load_dataset", "pipeline.load_dataset"),
    (graph, "build_adjacency", "graph.adjacency"),
    (graph, "power_iteration_lambda_max", "graph.lambda_max"),
    (graph, "chebyshev_basis", "graph.chebyshev"),
    (cli, "train", "training.train"),
    (cli, "evaluate_windows", "training.evaluate_windows"),
    (training, "_eval_pass", "training.eval_pass"),
    (cli, "window_batch", "training.window_batch"),
    (training, "window_batch", "training.window_batch"),
    (training, "cross_entropy", "training.cross_entropy"),
    (model, "temporal_attention", "model.temporal_attention"),
    (model, "apply_temporal_attention", "model.apply_temporal_attention"),
    (model, "spatial_attention", "model.spatial_attention"),
    (model, "cheb_graph_conv", "model.cheb_graph_conv"),
    (model, "temporal_conv", "model.temporal_conv"),
    (tensor, "conv1d_same", "tensor.conv1d_same"),
    (tensor, "softmax", "tensor.softmax"),
    (tensor, "log_softmax", "tensor.log_softmax"),
    (tensor, "sigmoid", "tensor.sigmoid"),
    (tensor, "relu", "tensor.relu"),
]
_FORWARD_BINDINGS = (cli, training, model)


class Tracer:
    """Context manager that records spans while the program runs."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, name_of=None, on_call=None):
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = self._open(name_of(args, kwargs) if name_of else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        getter = owner.__getitem__ if isinstance(owner, dict) else owner.__dict__.get
        self._saved.append((owner, attr, getter(attr)))
        if isinstance(owner, dict):
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)

    # -- counters taken at the wrapped boundaries -----------------------------------

    def _count_matmul(self, args, kwargs) -> None:
        a, b = (np.shape(v.data if isinstance(v, tensor.Tensor) else v) for v in args[:2])
        m = a[-2] if len(a) > 1 else 1
        n = b[-1] if len(b) > 1 else 1
        batch = np.broadcast_shapes(a[:-2], b[:-2]) if len(a) > 1 and len(b) > 1 else \
            (a[:-2] if len(a) > 1 else b[:-2])
        self.counts["tensor.matmul_calls"] += 1
        self.counts["tensor.matmul_flop"] += 2.0 * float(np.prod(batch)) * m * a[-1] * n

    def _count_rows(self, fn):
        def wrapper(*args, **kwargs):
            rows = fn(*args, **kwargs)
            self.counts["pipeline.csv_rows"] += len(rows)
            return rows
        return wrapper

    def _count_call(self, fn, key: str):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _record_op(self, fn):
        tracer = self

        def record(tape, out, inputs, rule, op):
            name = f"tensor.backward_{op}"

            def timed_rule(g):
                idx = tracer._open(name)
                try:
                    return rule(g)
                finally:
                    tracer._close(idx)
            return fn(tape, out, inputs, timed_rule, op)
        return record

    def _backward(self, fn):
        tracer = self

        def backward(tape, output):
            tracer.counts["tensor.tape_ops"] += len(tape)
            idx = tracer._open("tensor.backward")
            try:
                return fn(tape, output)
            finally:
                tracer._close(idx)
        return backward

    # -- install / restore ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attr, name in _SPANS:
            fn = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            self._patch(owner, attr, self._wrap(fn, name))
        forward_name = (lambda args, kwargs: "model.forward_train"
                        if kwargs.get("training", args[3] if len(args) > 3 else False)
                        else "model.forward_eval")
        for owner in _FORWARD_BINDINGS:
            self._patch(owner, "forward", self._wrap(model.__dict__["forward"], None,
                                                     name_of=forward_name))
        self._patch(tensor, "matmul", self._wrap(tensor.matmul, "tensor.matmul",
                                                 on_call=self._count_matmul))
        self._patch(pipeline, "_read_csv", self._count_rows(pipeline._read_csv))
        self._patch(graph, "_matvec_sorted",
                    self._count_call(graph._matvec_sorted, "graph.lambda_max_matvecs"))
        build = graph.RegionGraph.__dict__["build"].__func__
        self._patch(graph.RegionGraph, "build",
                    classmethod(self._wrap(build, "graph.build")))
        self._patch(tensor.Tape, "backward", self._backward(tensor.Tape.backward))
        self._patch(tensor.Tape, "_record", self._record_op(tensor.Tape._record))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()


def _totals(spans: list[list]) -> tuple[dict, dict, dict]:
    """Inclusive time, self time and call count per span name."""
    inclusive, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    child_time = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        inclusive[name] += end - start
        self_time[name] += end - start - child_time[i]
        calls[name] += 1
    return inclusive, self_time, calls


def _child_time(spans: list[list], parent_name: str, prefix: str) -> float:
    """Time of spans named ``prefix*`` directly under spans named ``parent_name``."""
    return sum(end - start for name, start, end, parent in spans
               if parent >= 0 and spans[parent][0] == parent_name and name.startswith(prefix))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced round."""
    spans, counts = tracer.spans, tracer.counts
    inc, own, calls = _totals(spans)
    forward_s = inc["model.forward_train"] + inc["model.forward_eval"]
    stage_s = sum(_child_time(spans, f, "model.")
                  for f in ("model.forward_train", "model.forward_eval"))
    steps = sum(1 for name, _, _, parent in spans
                if name == "tensor.backward" and parent >= 0
                and spans[parent][0] == "training.train")
    return {
        "pipeline.load_csv_s": inc["pipeline.load_csv"],
        "pipeline.csv_rows": counts["pipeline.csv_rows"],
        "pipeline.build_features_s": inc["pipeline.build_features"],
        "pipeline.save_dataset_s": inc["pipeline.save_dataset"],
        "pipeline.load_dataset_s": inc["pipeline.load_dataset"],
        "pipeline.load_dataset_calls": calls["pipeline.load_dataset"],
        "graph.build_calls": calls["graph.build"],
        "graph.build_s": inc["graph.build"],
        "graph.adjacency_s": inc["graph.adjacency"],
        "graph.lambda_max_s": inc["graph.lambda_max"],
        "graph.lambda_max_matvecs": counts["graph.lambda_max_matvecs"],
        "graph.chebyshev_s": inc["graph.chebyshev"],
        "model.forward_train_s": inc["model.forward_train"],
        "model.forward_eval_s": inc["model.forward_eval"],
        "model.forward_calls": calls["model.forward_train"] + calls["model.forward_eval"],
        "model.temporal_attention_s": inc["model.temporal_attention"],
        "model.apply_temporal_attention_s": inc["model.apply_temporal_attention"],
        "model.spatial_attention_s": inc["model.spatial_attention"],
        "model.cheb_graph_conv_s": inc["model.cheb_graph_conv"],
        "model.temporal_conv_s": inc["model.temporal_conv"],
        "model.head_s": forward_s - stage_s,
        "tensor.backward_s": inc["tensor.backward"],
        "tensor.backward_conv1d_same_s": inc["tensor.backward_conv1d_same"],
        "tensor.backward_matmul_s": inc["tensor.backward_matmul"],
        "tensor.tape_ops_per_step": counts["tensor.tape_ops"] / max(1, calls["tensor.backward"]),
        "tensor.matmul_s": inc["tensor.matmul"],
        "tensor.matmul_calls": counts["tensor.matmul_calls"],
        "tensor.matmul_gflop": counts["tensor.matmul_flop"] / 1e9,
        "tensor.conv1d_same_s": inc["tensor.conv1d_same"],
        "tensor.softmax_s": inc["tensor.softmax"],
        "tensor.sigmoid_s": inc["tensor.sigmoid"],
        "tensor.relu_s": inc["tensor.relu"],
        "training.train_s": inc["training.train"],
        "training.steps": steps,
        "training.window_batch_s": inc["training.window_batch"],
        "training.cross_entropy_s": inc["training.cross_entropy"],
        "training.train_self_s": own["training.train"],
        "training.epoch_eval_s": _child_time(spans, "training.train", "training.eval_pass"),
        "training.evaluate_windows_s": inc["training.evaluate_windows"],
        "cli.prepare_s": inc["cli.prepare"],
        "cli.prepare_self_s": own["cli.prepare"],
        "cli.train_self_s": own["cli.train"],
        "cli.evaluate_self_s": own["cli.evaluate"],
        "cli.predict_self_s": own["cli.predict"],
    }
