"""Supervised training: windowing, weighted cross-entropy, Adam, tuning.

A training example is one time window: the model reads ``t_in`` consecutive
timesteps ending at index ``t`` and predicts the class at ``t + horizon``.
The timeline splits at a boundary index ``s``: windows whose label falls
before ``s`` are training material, windows whose input ends at or after
``s`` are test material, and the few windows that straddle the boundary
(inputs before, label after) are dropped from both sides so no label
information leaks across. The last 15% of the training span is carved off as
a validation stretch used only for checkpoint selection and hyperparameter
ranking; nothing from the test span ever reaches the optimizer.

Optimization is Adam with Glorot-initialized parameters; everything is
driven by one seeded generator, so a (config, dataset) pair reproduces its
weights bit for bit.

Training micro-batches and eval batches run on one thread pool with a worker
per usable core (see :func:`_parallel`). What each worker computes, and the
order its results are combined in, depend only on the batch and the model
shape, so outputs are bitwise independent of the worker count.
"""

from __future__ import annotations

import logging
import os
import threading
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, TrainingDiverged, UsageError, check_field_types
from .graph import RegionGraph, StaticFeatures, UnitNode
from .metrics import ConfusionMatrix, MetricsReport, confusion, macro_metrics
from .model import (
    ModelConfig,
    ModelParams,
    dropout_masks,
    forward,
    init_params,
    named_parameters,
    params_from_arrays,
)
from .pipeline import N_CLASSES, FeatureTensor
from . import tensor as tc
from .tensor import Tape, Tensor, _blas_threads, _single_threaded_blas

__all__ = [
    "TrainConfig",
    "GridConfig",
    "EpochStats",
    "TrainHistory",
    "cross_entropy",
    "inverse_frequency_weights",
    "make_windows",
    "fit_windows",
    "window_batch",
    "WindowPredictions",
    "eval_batch_windows",
    "predict_windows",
    "train",
    "evaluate_windows",
    "grid_configs",
    "tune",
    "model_gradient_check",
]

log = logging.getLogger(__name__)

# Working-set budget of one eval-mode forward call (one core's L2 cache). The
# per-window cost is flat while a batch's activations stay in cache and rises
# once they spill, so eval batches are sized to this budget, not to a count.
EVAL_BATCH_BYTES = 2 << 20


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of one training run."""

    learning_rate: float = 1e-3
    dropout_rate: float = 0.0
    epochs: int = 30
    batch_size: int = 24
    seed: int = 0
    patience: int = 0                           # 0 disables early stopping
    validation_fraction: float = 0.15

    def __post_init__(self):
        check_field_types(self)
        if self.learning_rate < 0 or not 0.0 <= self.dropout_rate < 1.0:
            raise UsageError(f"learning_rate ({self.learning_rate}) must be >= 0 and "
                             f"dropout_rate ({self.dropout_rate}) in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise UsageError("epochs and batch_size must be >= 1")
        if self.seed < 0 or self.patience < 0:
            raise UsageError(f"seed ({self.seed}) and patience ({self.patience}) "
                             f"must be >= 0")
        if not 0.0 < self.validation_fraction < 1.0:
            raise UsageError("validation_fraction must be in (0, 1)")


@dataclass(frozen=True)
class GridConfig:
    """The values ``tune`` tries; both must be non-empty, which
    :func:`grid_configs` checks along with each value's range."""

    learning_rates: tuple[float, ...] = (1e-3, 3e-3)
    dropout_rates: tuple[float, ...] = (0.0, 0.3)

    def __post_init__(self):
        check_field_types(self)


@dataclass(frozen=True)
class EpochStats:
    """Eval-mode scores after one epoch: ``train_*`` over the gradient windows
    the optimizer fits, ``val_*`` over the validation windows."""

    epoch: int
    train_loss: float
    train_acc: float
    val_macro_f1: float
    val_loss: float
    val_acc: float


@dataclass
class TrainHistory:
    """Per-epoch statistics plus the index of the checkpointed epoch."""

    rows: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            fh.write("epoch,train_loss,train_acc,val_macro_f1,val_loss,val_acc\n")
            for r in self.rows:
                fh.write(f"{r.epoch},{r.train_loss!r},{r.train_acc!r},{r.val_macro_f1!r},"
                         f"{r.val_loss!r},{r.val_acc!r}\n")


# -- loss ------------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels: np.ndarray,
                  class_weights: Optional[np.ndarray] = None) -> Tensor:
    """Mean over nodes (and batch) of ``w_y * (-log softmax(logits)_y)``."""
    labels = np.asarray(labels)
    if logits.shape[:-1] != labels.shape:
        raise UsageError(f"logits {logits.shape} do not match labels {labels.shape}")
    n_classes = logits.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise UsageError(f"labels must lie in [0, {n_classes})")
    logp = tc.log_softmax(logits, axis=-1)
    onehot = np.eye(n_classes)[labels]
    picked = (logp * Tensor(onehot)).sum(axis=-1)
    if class_weights is not None:
        class_weights = np.asarray(class_weights, dtype=float)
        picked = picked * Tensor(class_weights[labels])
    return -picked.mean()


def inverse_frequency_weights(labels: np.ndarray) -> np.ndarray:
    """Weights proportional to 1/count, normalized to mean 1 over present classes.

    Classes absent from ``labels`` get weight 0 (they cannot appear in the
    loss anyway). Perfectly balanced labels come out exactly uniform.
    """
    counts = np.bincount(np.asarray(labels).ravel(), minlength=N_CLASSES).astype(float)
    present = counts > 0
    weights = np.zeros(N_CLASSES)
    weights[present] = 1.0 / counts[present]
    weights[present] /= weights[present].mean()
    return weights


# -- windowing --------------------------------------------------------------------


def make_windows(dataset: FeatureTensor, t_in: int, horizon: int, split: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Train/test window end indices for a dataset.

    A window ends at ``t`` (inputs ``t - t_in + 1 .. t``) and is labeled at
    ``t + horizon``. Train windows keep their label strictly before ``split``;
    test windows end at or after ``split``. Windows that straddle the
    boundary belong to neither set.
    """
    n_steps = dataset.n_steps
    if horizon < 0:
        raise UsageError("horizon must be >= 0")
    if n_steps < t_in + horizon:
        raise UsageError(f"need at least {t_in + horizon} timesteps, got {n_steps}")
    if not 1 <= split <= n_steps:
        raise UsageError(f"split {split} outside [1, {n_steps}]")
    ends = np.arange(t_in - 1, n_steps - horizon)
    return ends[ends + horizon <= split - 1], ends[ends >= split]


def fit_windows(dataset: FeatureTensor, t_in: int, horizon: int, split: int,
                validation_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and validation window ends of the training span.

    The last ``validation_fraction`` of the span (at least one step) is the
    validation stretch: validation windows end inside it, gradient windows
    keep their label strictly before it, and windows straddling its start
    belong to neither set.
    """
    outer_train, _ = make_windows(dataset, t_in, horizon, split)
    val_boundary = split - max(1, int(round(validation_fraction * split)))
    return (outer_train[outer_train + horizon <= val_boundary - 1],
            outer_train[outer_train >= val_boundary])


def window_batch(dataset: FeatureTensor, ends: np.ndarray, t_in: int, horizon: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Materialize (B, N, C, t_in) inputs and (B, N) labels for window ends."""
    xs = np.stack([dataset.values[:, :, t - t_in + 1:t + 1] for t in ends])
    ys = np.stack([dataset.labels[:, t + horizon] for t in ends])
    return xs, ys


# -- optimizer ---------------------------------------------------------------------


class _Optimizer:
    """Adam (bias-corrected) over a fixed parameter list."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self, grads: Sequence[Optional[np.ndarray]]) -> None:
        """One update from ``grads``, in parameter order (None: no gradient)."""
        self.t += 1
        for i, (p, g) in enumerate(zip(self.params, grads, strict=True)):
            if g is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1.0 - self.beta2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _fresh_leaves(params: ModelParams) -> ModelParams:
    """The same weight arrays on new leaf tensors, so that a backward pass in a
    worker writes ``grad`` only on tensors no other thread touches."""
    return params_from_arrays(params.config, [t.data for _, t in named_parameters(params)])


def _batch_gradients(dataset: FeatureTensor, graph: RegionGraph, params: ModelParams,
                     chunk: np.ndarray, class_w: np.ndarray,
                     masks: Optional[list[np.ndarray]], ablation: str
                     ) -> list[Optional[np.ndarray]]:
    """Gradients of one optimizer batch's loss, in ``named_parameters`` order.

    The batch splits into micro-batches of at most :func:`eval_batch_windows`
    windows, with sizes that differ by at most one. Each runs forward (with
    its windows' rows of the dropout masks ``masks``) and backward on its own
    tape and leaf tensors, its loss scaled by its share of the batch; the
    gradients are summed in micro-batch order.
    """
    cfg = params.config
    micro = np.array_split(np.arange(len(chunk)),
                           -(-len(chunk) // eval_batch_windows(cfg)))

    def step(rows: np.ndarray) -> list[Optional[np.ndarray]]:
        xs, ys = window_batch(dataset, chunk[rows], cfg.t_in, cfg.horizon)
        local = _fresh_leaves(params)
        with Tape() as tape:
            logits, _ = forward(xs, graph, local, training=True, ablation=ablation,
                                masks=None if masks is None else [m[rows] for m in masks])
            loss = cross_entropy(logits, ys, class_w) * (len(rows) / len(chunk))
        tape.backward(loss)
        return [t.grad for _, t in named_parameters(local)]

    total: list[Optional[np.ndarray]] = [None] * len(named_parameters(params))

    def add(grads: list[Optional[np.ndarray]]) -> None:
        for j, g in enumerate(grads):
            if g is not None:
                total[j] = g if total[j] is None else total[j] + g

    _parallel(step, micro, add)
    return total


def _snapshot(params: ModelParams) -> list[np.ndarray]:
    return [t.data.copy() for _, t in named_parameters(params)]


# -- worker pool --------------------------------------------------------------------


def _workers() -> int:
    """Pool threads: one per usable core, or one if BLAS threads cannot be set."""
    return 1 if _blas_threads() is None else len(os.sched_getaffinity(0))


@lru_cache(maxsize=None)
def _executor(workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="floodnowcast")


_PARALLEL = threading.Lock()   # one parallel region at a time owns the BLAS setting


def _parallel(task: Callable, items: Sequence, consume: Callable) -> None:
    """``consume(task(item))`` for every item, in item order.

    Tasks run on the pool while BLAS runs one thread (the previous count is
    restored on exit); ``consume`` runs in the calling thread. With one
    worker, or under ``canonical_reductions`` (thread-local), every task
    runs in the calling thread instead. The first exception, in item order,
    propagates once every started task has finished and the rest are
    cancelled.
    """
    workers = min(_workers(), len(items))
    if workers <= 1 or tc._canonical():
        for item in items:
            consume(task(item))
        return
    with _PARALLEL, _single_threaded_blas():
        pool = _executor(_workers())
        pending = deque(pool.submit(task, item) for item in items)
        try:
            while pending:
                consume(pending.popleft().result())
        finally:
            for future in pending:
                future.cancel()
            wait(pending)


# -- evaluation ---------------------------------------------------------------------


class WindowPredictions(NamedTuple):
    """Eval-mode outputs of a set of windows, one row per window."""

    probs: np.ndarray    # (W, N, 3) class probabilities
    preds: np.ndarray    # (W, N) most probable class
    labels: np.ndarray   # (W, N) true class at window end + horizon
    nll: np.ndarray      # (W,) uniform-weight cross-entropy, mean over nodes


def eval_batch_windows(config: ModelConfig) -> int:
    """Windows per eval-mode ``forward`` call: as many as fit ``EVAL_BATCH_BYTES``
    with one (N, C, T) activation at the widest channel count plus one (N, N)
    spatial attention map per window, and at least one."""
    per_window = 8 * config.n_nodes * (
        max(config.in_channels, *config.channels) * config.t_in + config.n_nodes)
    return max(1, EVAL_BATCH_BYTES // per_window)


def predict_windows(dataset: FeatureTensor, graph: RegionGraph, params: ModelParams,
                    ends: np.ndarray, ablation: str = "none") -> WindowPredictions:
    """The single eval path: one eval-mode ``forward`` per window, in batches
    of :func:`eval_batch_windows` scored on the worker pool and concatenated
    in order. ``forward`` is bitwise independent of the batch size, so the
    batching moves no output. History, metrics, confusion
    matrices and prediction files are all read off the returned arrays."""
    if len(ends) == 0:
        raise UsageError("no windows to score")
    batch = eval_batch_windows(params.config)

    def score(chunk: np.ndarray) -> tuple:
        xs, ys = window_batch(dataset, chunk, params.config.t_in, params.config.horizon)
        logits, probs = forward(xs, graph, params, training=False, ablation=ablation)
        logp = tc.log_softmax(logits, axis=-1).data
        nll = -np.take_along_axis(logp, ys[..., None], axis=-1)[..., 0]
        return probs.data, np.argmax(probs.data, axis=-1), ys, nll.mean(axis=1)

    batches: list[tuple] = []
    _parallel(score, [ends[i:i + batch] for i in range(0, len(ends), batch)],
              batches.append)
    return WindowPredictions(*(np.concatenate(parts) for parts in zip(*batches)))


def _eval_pass(dataset: FeatureTensor, graph: RegionGraph, params: ModelParams,
               grad_ends: np.ndarray, val_ends: np.ndarray, ablation: str
               ) -> list[WindowPredictions]:
    """End-of-epoch scoring: gradient and validation windows, each forwarded once."""
    ends = np.union1d(grad_ends, val_ends)
    scored = predict_windows(dataset, graph, params, ends, ablation)
    return [WindowPredictions(*(a[mask] for a in scored))
            for mask in (np.isin(ends, grad_ends), np.isin(ends, val_ends))]


def evaluate_windows(dataset: FeatureTensor, graph: RegionGraph, params: ModelParams,
                     ends: np.ndarray, ablation: str = "none"
                     ) -> tuple[MetricsReport, ConfusionMatrix, float]:
    """Eval-mode metrics, confusion matrix and (uniform-weight) loss over windows."""
    scored = predict_windows(dataset, graph, params, ends, ablation)
    cm = confusion(scored.preds, scored.labels)
    return macro_metrics(cm), cm, float(scored.nll.mean())


# -- training -----------------------------------------------------------------------


def train(dataset: FeatureTensor, graph: RegionGraph, config: TrainConfig,
          model_config: Optional[ModelConfig] = None,
          ablation: str = "none") -> tuple[ModelParams, TrainHistory]:
    """Train a model and return the best-validation checkpoint plus history.

    The timeline splits at the dataset's ``train_steps``; ``model_config``
    (default: the default architecture for the dataset's nodes) must have the
    dataset's ``n_nodes``. Per-epoch history rows hold eval-mode
    loss and accuracy over the gradient windows and loss, accuracy and
    macro-F1 over the validation windows (see :func:`fit_windows`); the
    returned weights are those of the epoch with the highest validation
    macro-F1 (earliest on ties).
    """
    split = dataset.train_steps
    if model_config is None:
        model_config = ModelConfig(n_nodes=dataset.n_nodes)
    if model_config.n_nodes != dataset.n_nodes:
        raise UsageError(f"model config has {model_config.n_nodes} nodes, dataset has "
                         f"{dataset.n_nodes}")
    t_in, horizon = model_config.t_in, model_config.horizon

    grad_ends, val_ends = fit_windows(dataset, t_in, horizon, split,
                                      config.validation_fraction)
    if len(grad_ends) == 0:
        raise UsageError("training span too small: no gradient windows before "
                         "the validation stretch")
    if len(val_ends) == 0:
        warnings.warn("validation stretch holds no complete window; "
                      "falling back to the gradient windows for checkpointing")
        val_ends = grad_ends

    train_span_labels = dataset.labels[:, :split]
    if np.unique(train_span_labels).size < 2:
        warnings.warn("training span contains a single label class; "
                      "the model has nothing to separate")
    class_w = inverse_frequency_weights(dataset.labels[:, grad_ends + horizon])

    params = init_params(model_config, config.seed)
    opt = _Optimizer([t for _, t in named_parameters(params)], config.learning_rate)
    rng = np.random.default_rng(config.seed)

    history = TrainHistory()
    best_f1 = -1.0
    best_snap = _snapshot(params)
    epochs_since_best = 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(grad_ends))
        try:
            for i in range(0, len(order), config.batch_size):
                chunk = grad_ends[order[i:i + config.batch_size]]
                masks = dropout_masks(model_config, config.dropout_rate, len(chunk), rng) \
                    if config.dropout_rate > 0.0 else None
                opt.step(_batch_gradients(dataset, graph, params, chunk, class_w, masks,
                                          ablation))
        except DomainError as exc:
            raise TrainingDiverged(epoch, f"epoch {epoch}: {exc}") from exc

        fit, val = _eval_pass(dataset, graph, params, grad_ends, val_ends, ablation)
        val_report = macro_metrics(confusion(val.preds, val.labels))
        history.rows.append(EpochStats(
            epoch=epoch,
            train_loss=float(fit.nll.mean()),
            train_acc=float((fit.preds == fit.labels).mean()),
            val_macro_f1=val_report.macro_f1,
            val_loss=float(val.nll.mean()),
            val_acc=val_report.accuracy))
        if val_report.macro_f1 > best_f1:
            best_f1 = val_report.macro_f1
            best_snap = _snapshot(params)
            history.best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if config.patience > 0 and epochs_since_best >= config.patience:
                log.info("early stop at epoch %d (no val improvement for %d epochs)",
                         epoch, config.patience)
                break

    return params_from_arrays(model_config, best_snap), history


def grid_configs(base_config: TrainConfig, learning_rates: Sequence[float],
                 dropout_rates: Sequence[float]) -> list[TrainConfig]:
    """The learning rate x dropout grid over ``base_config``, in grid order;
    :class:`UsageError` for an empty grid or a value no ``TrainConfig`` takes."""
    if not learning_rates or not dropout_rates:
        raise UsageError("tuning grid must be non-empty")
    return [replace(base_config, learning_rate=lr, dropout_rate=dr)
            for lr in learning_rates for dr in dropout_rates]


def tune(dataset: FeatureTensor, graph: RegionGraph, base_config: TrainConfig,
         learning_rates: Sequence[float], dropout_rates: Sequence[float],
         model_config: Optional[ModelConfig] = None,
         ablation: str = "none") -> tuple[TrainConfig, list[dict]]:
    """Grid search over learning rate x dropout, ranked by validation macro-F1.

    Every combination trains with the same seed; ties break by lower
    validation loss, then grid order. Returns the winning config and the full
    leaderboard, sorted.
    """
    combos = grid_configs(base_config, learning_rates, dropout_rates)

    def run(cfg: TrainConfig) -> dict:
        _, history = train(dataset, graph, cfg, model_config, ablation)
        best = history.rows[history.best_epoch]
        return {"learning_rate": cfg.learning_rate, "dropout_rate": cfg.dropout_rate,
                "val_macro_f1": best.val_macro_f1, "val_loss": best.val_loss,
                "best_epoch": history.best_epoch}

    rows = [run(cfg) for cfg in combos]
    order = sorted(range(len(rows)),
                   key=lambda i: (-rows[i]["val_macro_f1"], rows[i]["val_loss"], i))
    leaderboard = []
    for rank, i in enumerate(order):
        row = dict(rows[i])
        row["rank"] = rank
        leaderboard.append(row)
    return combos[order[0]], leaderboard


# -- gradient verification ------------------------------------------------------------


def model_gradient_check(seed: int = 0) -> dict[str, float]:
    """Central-difference check of the loss gradient per parameter group.

    Builds a small random model (3 nodes, a 4-step window, one block of 4
    channels, K = 3) and window, compares analytic gradients of the
    cross-entropy loss against central differences, and returns the max
    relative error per group. Two situations are excluded because a central
    difference cannot interrogate them:

    - ReLU's subgradient at 0 is one-sided, so fixtures with a
      pre-activation within 1e-3 of the kink are redrawn (a 1e-5
      parameter bump cannot move a pre-activation across a 1e-3 margin, so
      screened fixtures stay smooth);
    - coordinates where analytic and finite-difference values are *both*
      below 1e-5 are skipped: float64 round-off of the loss
      leaves ~1e-10 of noise in the difference quotient, so near-zero
      quotients carry no information (temporal-attention biases always have
      a few such dead coordinates). A real bug still surfaces, since it
      makes one side large.
    """
    config = ModelConfig(n_nodes=3, channels=(4,), t_in=4, k=3)
    for attempt in range(50):
        s = seed + 100_000 * attempt
        rng = np.random.default_rng(s)
        nodes = []
        for i in range(config.n_nodes):
            nodes.append(UnitNode(
                id=f"n{i}", x=float(rng.uniform(0, 1000)), y=float(rng.uniform(0, 1000)),
                static=StaticFeatures(
                    in_floodplain=bool(rng.integers(0, 2)),
                    residential_ratio=float(rng.uniform(0, 1)),
                    watershed_id=f"w{rng.integers(0, 2)}",
                    dist_coast=float(rng.uniform(0, 5000)),
                    dist_stream=float(rng.uniform(0, 2000)))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            graph = RegionGraph.build(nodes, k=config.k)
        params = init_params(config, s)
        x = rng.normal(size=(config.n_nodes, config.in_channels, config.t_in))
        labels = rng.integers(0, N_CLASSES, size=config.n_nodes)

        def loss_value() -> float:
            logits, _ = forward(x, graph, params, training=False)
            return cross_entropy(logits, labels).item()

        with Tape(keep_inputs=["relu"]) as tape:
            logits, _ = forward(x, graph, params, training=False)
            loss = cross_entropy(logits, labels)
        pre_acts = [np.min(np.abs(t.data)) for t in tape.op_inputs("relu")]
        if pre_acts and min(pre_acts) <= 1e-3:
            continue
        tape.backward(loss)
        break
    else:
        raise DomainError("could not draw a fixture clear of the ReLU kink")

    errors: dict[str, float] = {}
    for name, t in named_parameters(params):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        errors[name] = tc.central_difference_error(loss_value, t.data, analytic,
                                                   dead_margin=1e-5)
    return errors
