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

Optimization is Adam by default (plain SGD behind a config switch) with
Glorot-initialized parameters; everything is driven by one seeded generator,
so a (config, dataset) pair reproduces its weights bit for bit.
"""

from __future__ import annotations

import json
import logging
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, TrainingDiverged, UsageError
from .graph import RegionGraph
from .metrics import ConfusionMatrix, MetricsReport, confusion, macro_metrics
from .model import (
    ModelConfig,
    ModelParams,
    forward,
    init_params,
    named_parameters,
)
from .pipeline import FeatureTensor
from . import tensor as tc
from .tensor import Tape, Tensor

__all__ = [
    "TrainConfig",
    "EpochStats",
    "TrainHistory",
    "cross_entropy",
    "inverse_frequency_weights",
    "make_windows",
    "fit_windows",
    "window_batch",
    "WindowPredictions",
    "predict_windows",
    "train",
    "evaluate_windows",
    "tune",
    "model_gradient_check",
]

log = logging.getLogger(__name__)

EVAL_BATCH = 128


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of one training run."""

    learning_rate: float = 1e-3
    dropout_rate: float = 0.0
    epochs: int = 30
    batch_size: int = 24
    class_weights: str = "inverse-frequency"   # or "none"
    seed: int = 0
    patience: int = 0                           # 0 disables early stopping
    split_step: Optional[int] = None            # None: use the dataset's train_steps
    optimizer: str = "adam"
    validation_fraction: float = 0.15

    def __post_init__(self):
        if self.learning_rate < 0:
            raise UsageError("learning_rate must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise UsageError("epochs and batch_size must be >= 1")
        if self.class_weights not in ("none", "inverse-frequency"):
            raise UsageError(f"unknown class_weights mode {self.class_weights!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise UsageError(f"unknown optimizer {self.optimizer!r}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise UsageError("validation_fraction must be in (0, 1)")
        if self.split_step is not None and (
                type(self.split_step) is not int or self.split_step < 1):
            raise UsageError(f"split_step must be an int >= 1, got {self.split_step!r}")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in (
            "learning_rate", "dropout_rate", "epochs", "batch_size", "class_weights",
            "seed", "patience", "split_step", "optimizer", "validation_fraction")}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


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


def inverse_frequency_weights(labels: np.ndarray, n_classes: int = 3) -> np.ndarray:
    """Weights proportional to 1/count, normalized to mean 1 over present classes.

    Classes absent from ``labels`` get weight 0 (they cannot appear in the
    loss anyway). Perfectly balanced labels come out exactly uniform.
    """
    counts = np.bincount(np.asarray(labels).ravel(), minlength=n_classes).astype(float)
    present = counts > 0
    weights = np.zeros(n_classes)
    weights[present] = 1.0 / counts[present]
    weights[present] /= weights[present].mean()
    return weights


# -- windowing --------------------------------------------------------------------


def _window_ends(n_steps: int, t_in: int, horizon: int, split: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    if horizon < 0:
        raise UsageError("horizon must be >= 0")
    if n_steps < t_in + horizon:
        raise UsageError(f"need at least {t_in + horizon} timesteps, got {n_steps}")
    if not 1 <= split <= n_steps:
        raise UsageError(f"split {split} outside [1, {n_steps}]")
    ends = np.arange(t_in - 1, n_steps - horizon)
    train = ends[ends + horizon <= split - 1]
    test = ends[ends >= split]
    return train, test


def make_windows(dataset: FeatureTensor, t_in: int, horizon: int, split: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Train/test window end indices for a dataset.

    A window ends at ``t`` (inputs ``t - t_in + 1 .. t``) and is labeled at
    ``t + horizon``. Train windows keep their label strictly before ``split``;
    test windows end at or after ``split``. Windows that straddle the
    boundary belong to neither set.
    """
    return _window_ends(dataset.n_steps, t_in, horizon, split)


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
    """Adam (bias-corrected) or plain SGD over a fixed parameter list."""

    def __init__(self, params: list[Tensor], lr: float, kind: str = "adam",
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.kind = kind
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        self.t += 1
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if self.kind == "sgd":
                p.data = p.data - self.lr * g
                continue
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1.0 - self.beta2 ** self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _snapshot(params: ModelParams) -> list[np.ndarray]:
    return [t.data.copy() for _, t in named_parameters(params)]


def _restore(config: ModelConfig, snap: list[np.ndarray]) -> ModelParams:
    fresh = init_params(config)
    for (_, t), data in zip(named_parameters(fresh), snap):
        t.data = data.copy()
    return fresh


# -- evaluation ---------------------------------------------------------------------


class WindowPredictions(NamedTuple):
    """Eval-mode outputs of a set of windows, one row per window."""

    probs: np.ndarray    # (W, N, 3) class probabilities
    preds: np.ndarray    # (W, N) most probable class
    labels: np.ndarray   # (W, N) true class at window end + horizon
    nll: np.ndarray      # (W,) uniform-weight cross-entropy, mean over nodes


def predict_windows(dataset: FeatureTensor, graph: RegionGraph, params: ModelParams,
                    ends: np.ndarray, ablation: str = "none") -> WindowPredictions:
    """The single eval path: one eval-mode ``forward`` per window, in batches
    of ``EVAL_BATCH``. History, metrics, confusion matrices and prediction
    files are all read off the returned arrays."""
    if len(ends) == 0:
        raise UsageError("no windows to score")
    batches = []
    for i in range(0, len(ends), EVAL_BATCH):
        xs, ys = window_batch(dataset, ends[i:i + EVAL_BATCH], params.config.t_in,
                              params.config.horizon)
        logits, probs = forward(xs, graph, params, training=False, ablation=ablation)
        z = logits.data - logits.data.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        nll = -np.take_along_axis(logp, ys[..., None], axis=-1)[..., 0]
        batches.append((probs.data, np.argmax(probs.data, axis=-1), ys, nll.mean(axis=1)))
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

    ``model_config`` fixes architecture hyperparameters; its seed and dropout
    are overridden by the train config. Per-epoch history rows hold eval-mode
    loss and accuracy over the gradient windows and loss, accuracy and
    macro-F1 over the validation windows (see :func:`fit_windows`); the
    returned weights are those of the epoch with the highest validation
    macro-F1 (earliest on ties).
    """
    split = config.split_step if config.split_step is not None else dataset.train_steps
    if model_config is None:
        model_config = ModelConfig(n_nodes=dataset.n_nodes)
    model_config = replace(model_config, n_nodes=dataset.n_nodes,
                           seed=config.seed, dropout_rate=config.dropout_rate)
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
    if config.class_weights == "inverse-frequency":
        grad_labels = dataset.labels[:, grad_ends + horizon]
        class_w = inverse_frequency_weights(grad_labels)
    else:
        class_w = None

    params = init_params(model_config)
    opt = _Optimizer([t for _, t in named_parameters(params)], config.learning_rate,
                     kind=config.optimizer)
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
                xs, ys = window_batch(dataset, chunk, t_in, horizon)
                with Tape() as tape:
                    logits, _ = forward(xs, graph, params, training=True, rng=rng,
                                        ablation=ablation)
                    loss = cross_entropy(logits, ys, class_w)
                tape.backward(loss)
                opt.step()
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

    return _restore(model_config, best_snap), history


def tune(dataset: FeatureTensor, graph: RegionGraph, base_config: TrainConfig,
         learning_rates: Sequence[float], dropout_rates: Sequence[float],
         model_config: Optional[ModelConfig] = None,
         ablation: str = "none") -> tuple[TrainConfig, list[dict]]:
    """Grid search over learning rate x dropout, ranked by validation macro-F1.

    Every combination trains with the same seed; ties break by lower
    validation loss, then grid order. Returns the winning config and the full
    leaderboard, sorted.
    """
    if not learning_rates or not dropout_rates:
        raise UsageError("tuning grid must be non-empty")
    combos = [replace(base_config, learning_rate=lr, dropout_rate=dr)
              for lr in learning_rates for dr in dropout_rates]

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


def model_gradient_check(n_nodes: int = 3, t_in: int = 4, channels: tuple = (4,),
                         k: int = 3, seed: int = 0, eps: float = 1e-5,
                         kink_margin: float = 1e-3,
                         dead_margin: float = 1e-5) -> dict[str, float]:
    """Central-difference check of the loss gradient per parameter group.

    Builds a small random model + window, compares analytic gradients of the
    cross-entropy loss against central differences, and returns the max
    relative error per group. Two situations are excluded because a central
    difference cannot interrogate them:

    - ReLU's subgradient at 0 is one-sided, so fixtures with a
      pre-activation within ``kink_margin`` of the kink are redrawn (a 1e-5
      parameter bump cannot move a pre-activation across a 1e-3 margin, so
      screened fixtures stay smooth);
    - coordinates where analytic and finite-difference values are *both*
      below ``dead_margin`` are skipped: float64 round-off of the loss
      leaves ~1e-10 of noise in the difference quotient, so near-zero
      quotients carry no information (temporal-attention biases always have
      a few such dead coordinates). A real bug still surfaces, since it
      makes one side large.
    """
    from .graph import StaticFeatures, UnitNode  # deferred: test-fixture helpers

    for attempt in range(50):
        s = seed + 100_000 * attempt
        rng = np.random.default_rng(s)
        nodes = []
        for i in range(n_nodes):
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
            graph = RegionGraph.build(nodes, k=k)
        config = ModelConfig(n_nodes=n_nodes, channels=channels, t_in=t_in, k=k, seed=s)
        params = init_params(config)
        x = rng.normal(size=(n_nodes, config.in_channels, t_in))
        labels = rng.integers(0, 3, size=n_nodes)

        def loss_value() -> float:
            logits, _ = forward(x, graph, params, training=False)
            return cross_entropy(logits, labels).item()

        with Tape() as tape:
            logits, _ = forward(x, graph, params, training=False)
            loss = cross_entropy(logits, labels)
        pre_acts = [np.min(np.abs(t.data)) for t in tape.op_inputs("relu")]
        if pre_acts and min(pre_acts) <= kink_margin:
            continue
        tape.backward(loss)
        break
    else:
        raise DomainError("could not draw a fixture clear of the ReLU kink")

    errors: dict[str, float] = {}
    for name, t in named_parameters(params):
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        errors[name] = tc.central_difference_error(loss_value, t.data, analytic,
                                                   eps, dead_margin)
    return errors
