import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from floodnowcast.errors import DomainError, TrainingDiverged, UsageError
from floodnowcast.graph import RegionGraph, StaticFeatures, UnitNode
from floodnowcast.model import (ModelConfig, dropout_masks, forward, init_params,
                                named_parameters)
from floodnowcast.pipeline import CHANNELS, TimeGrid, assemble
import floodnowcast.tensor as tensor
from floodnowcast.tensor import Tape, Tensor
import floodnowcast.training as training
from floodnowcast.training import (
    TrainConfig,
    cross_entropy,
    eval_batch_windows,
    evaluate_windows,
    fit_windows,
    inverse_frequency_weights,
    make_windows,
    model_gradient_check,
    predict_windows,
    train,
    tune,
    window_batch,
    _Optimizer,
)

T0 = 1_650_000_000.0


def _nodes(n, seed=0):
    rng = np.random.default_rng(seed)
    return [UnitNode(id=f"n{i}", x=float(rng.uniform(0, 2000)), y=float(rng.uniform(0, 2000)),
                     static=StaticFeatures(in_floodplain=bool(rng.integers(0, 2)),
                                           residential_ratio=float(rng.uniform(0, 1)),
                                           watershed_id=f"w{rng.integers(0, 2)}",
                                           dist_coast=float(rng.uniform(0, 8000)),
                                           dist_stream=float(rng.uniform(0, 2000))))
            for i in range(n)]


def _toy_dataset(n=5, t=60, train_steps=45, seed=0):
    """Labels at t+1 are a threshold function of channel 0 at t: learnable."""
    rng = np.random.default_rng(seed)
    signal = np.cumsum(rng.normal(scale=0.6, size=(n, t)), axis=1)
    signal = signal - signal.mean(axis=1, keepdims=True)
    labels = np.zeros((n, t), dtype=int)
    labels[:, 1:] = np.digitize(signal[:, :-1], [-0.8, 0.8])
    channels = {name: rng.normal(scale=0.05, size=(n, t)) for name in CHANNELS}
    channels["rain_2h"] = signal
    grid = TimeGrid(start=T0, count=t)
    ft = assemble([f"n{i}" for i in range(n)], channels, labels, grid, train_steps)
    return ft


def _toy_graph(n=5, seed=0, k=3):
    return RegionGraph.build(_nodes(n, seed), k=k)


def _model_cfg(n=5):
    return ModelConfig(n_nodes=n, channels=(8,), t_in=6, k=3, horizon=1)


# -- loss --------------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    loss = cross_entropy(Tensor(np.zeros((4, 3))), np.array([0, 1, 2, 0]))
    assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)


def test_cross_entropy_confident_logits_vanish():
    logits = np.full((3, 3), -50.0)
    logits[np.arange(3), [0, 1, 2]] = 50.0
    loss = cross_entropy(Tensor(logits), np.array([0, 1, 2]))
    assert loss.item() < 1e-12


def test_cross_entropy_mean_contract():
    la = cross_entropy(Tensor(np.array([[2.0, 0.0, -1.0]])), np.array([0])).item()
    lb = cross_entropy(Tensor(np.array([[0.0, 1.0, 3.0]])), np.array([2])).item()
    both = cross_entropy(Tensor(np.array([[2.0, 0.0, -1.0], [0.0, 1.0, 3.0]])),
                         np.array([0, 2])).item()
    assert both == pytest.approx((la + lb) / 2.0, abs=1e-12)


def test_cross_entropy_class_weights_scale_terms():
    logits = Tensor(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    unweighted = cross_entropy(logits, np.array([0, 1])).item()
    doubled = cross_entropy(logits, np.array([0, 1]),
                            class_weights=np.array([2.0, 2.0, 2.0])).item()
    assert doubled == pytest.approx(2.0 * unweighted, abs=1e-12)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(UsageError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_inverse_frequency_weights():
    balanced = inverse_frequency_weights(np.array([0, 1, 2, 0, 1, 2]))
    np.testing.assert_array_equal(balanced, [1.0, 1.0, 1.0])
    skewed = inverse_frequency_weights(np.array([0] * 8 + [1] * 2))
    assert skewed[0] == pytest.approx(skewed[1] / 4.0)
    assert skewed[2] == 0.0
    assert (skewed[0] + skewed[1]) / 2.0 == pytest.approx(1.0)


# -- windows ------------------------------------------------------------------


def test_make_windows_against_enumeration_oracle():
    ft = _toy_dataset(n=2, t=480, train_steps=288)
    train_ends, test_ends = make_windows(ft, t_in=12, horizon=1, split=288)
    # independent enumeration: walk every end index and classify it
    want_train, want_test = [], []
    for t in range(480):
        if t - 12 + 1 < 0 or t + 1 > 479:
            continue
        if t + 1 <= 287:
            want_train.append(t)
        elif t >= 288:
            want_test.append(t)
    np.testing.assert_array_equal(train_ends, want_train)
    np.testing.assert_array_equal(test_ends, want_test)
    assert train_ends.max() == 286
    assert (test_ends + 1).min() == 289  # first test label index


def test_make_windows_horizon_zero_allowed():
    ft = _toy_dataset(n=2, t=30, train_steps=20)
    train_ends, test_ends = make_windows(ft, t_in=6, horizon=0, split=20)
    assert train_ends.max() == 19
    assert test_ends.min() == 20


def test_make_windows_single_window():
    ft = _toy_dataset(n=2, t=13, train_steps=13)
    train_ends, test_ends = make_windows(ft, t_in=12, horizon=1, split=13)
    assert list(train_ends) == [11] and len(test_ends) == 0


def test_make_windows_too_small():
    ft = _toy_dataset(n=2, t=12, train_steps=10)
    with pytest.raises(UsageError):
        make_windows(ft, t_in=12, horizon=1, split=10)


def test_fit_windows_split_the_training_span():
    ft = _toy_dataset(n=2, t=480, train_steps=288)
    grad, val = fit_windows(ft, t_in=12, horizon=1, split=288, validation_fraction=0.15)
    outer, _ = make_windows(ft, t_in=12, horizon=1, split=288)
    boundary = 288 - round(0.15 * 288)        # 245: the validation stretch starts here
    np.testing.assert_array_equal(grad, [t for t in outer if t + 1 <= boundary - 1])
    np.testing.assert_array_equal(val, [t for t in outer if t >= boundary])
    # the window ending just before the boundary is labeled inside it: in neither set
    assert boundary - 1 not in grad and boundary - 1 not in val


def test_predict_windows_matches_forward_per_window():
    ft = _toy_dataset(seed=3)
    graph = _toy_graph(seed=3)
    params = init_params(_model_cfg(), 0)
    ends = np.arange(5, 59)
    scored = predict_windows(ft, graph, params, ends)
    for row in (0, 17, len(ends) - 1):
        x, y = window_batch(ft, ends[row:row + 1], 6, 1)
        logits, probs = forward(x, graph, params, training=False)
        np.testing.assert_allclose(scored.probs[row], probs.data[0], rtol=0, atol=1e-12)
        assert scored.nll[row] == pytest.approx(cross_entropy(logits, y).item(), abs=1e-12)
        np.testing.assert_array_equal(scored.labels[row], y[0])
    np.testing.assert_array_equal(scored.preds, scored.probs.argmax(axis=-1))


def test_predict_windows_is_bitwise_independent_of_the_batch_size(monkeypatch):
    ft = _toy_dataset(seed=3)
    graph = _toy_graph(seed=3)
    params = init_params(_model_cfg(), 0)
    ends = np.arange(5, 59)
    window_bytes = 8 * 5 * (8 * 6 + 5)   # 5 nodes, 8 channels x 6 steps + 5
    scored = {}
    for per_call in (1, 7, len(ends)):   # 7 leaves a partial last batch
        monkeypatch.setattr(training, "EVAL_BATCH_BYTES", per_call * window_bytes)
        assert eval_batch_windows(params.config) == per_call
        scored[per_call] = predict_windows(ft, graph, params, ends)
    for per_call in (7, len(ends)):
        for a, b in zip(scored[per_call], scored[1]):
            np.testing.assert_array_equal(a, b)


def test_eval_batch_rule():
    # 8 bytes x 50 nodes x (32 channels x 12 steps + 50) per window: 12 in 2 MiB
    assert eval_batch_windows(ModelConfig(n_nodes=50)) == 12
    assert eval_batch_windows(ModelConfig(n_nodes=256)) == 1
    # one window alone exceeds the budget: still one window per call
    assert eval_batch_windows(ModelConfig(n_nodes=2000)) == 1
    # the widest activation may be the input: 8 x 50 x (64 x 12 + 50) bytes
    assert eval_batch_windows(ModelConfig(n_nodes=50, in_channels=64, channels=(8,))) == 6


def test_window_batch_shapes_and_alignment():
    ft = _toy_dataset(n=3, t=40, train_steps=30)
    xs, ys = window_batch(ft, np.array([10, 20]), t_in=6, horizon=1)
    assert xs.shape == (2, 3, 6, 6) and ys.shape == (2, 3)
    np.testing.assert_array_equal(xs[0], ft.values[:, :, 5:11])
    np.testing.assert_array_equal(ys[1], ft.labels[:, 21])


# -- optimizer ------------------------------------------------------------------


def test_adam_step_decreases_frozen_batch_loss():
    ft = _toy_dataset()
    graph = _toy_graph()
    cfg = _model_cfg()
    params = init_params(cfg, 0)
    xs, ys = window_batch(ft, np.arange(6, 20), cfg.t_in, cfg.horizon)
    tensors = [t for _, t in named_parameters(params)]
    opt = _Optimizer(tensors, lr=1e-6)

    def batch_loss():
        logits, _ = forward(xs, graph, params, training=False)
        return cross_entropy(logits, ys)

    before = batch_loss().item()
    with Tape() as tape:
        loss = batch_loss()
    tape.backward(loss)
    opt.step([t.grad for t in tensors])
    after = batch_loss().item()
    assert after <= before + 1e-12


def test_zero_learning_rate_keeps_weights_bitwise():
    ft = _toy_dataset()
    graph = _toy_graph()
    cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=8, seed=3)
    params, _ = train(ft, graph, cfg, _model_cfg())
    fresh = init_params(ModelConfig(n_nodes=5, channels=(8,), t_in=6, k=3, horizon=1), 3)
    for (_, a), (_, b) in zip(named_parameters(params), named_parameters(fresh)):
        assert np.array_equal(a.data, b.data)


# -- training ---------------------------------------------------------------------


def test_train_config_rejects_a_negative_seed():
    with pytest.raises(UsageError, match="seed"):
        TrainConfig(seed=-1)


def test_train_rejects_a_model_config_for_another_node_count():
    with pytest.raises(UsageError, match="6 nodes, dataset has 5"):
        train(_toy_dataset(), _toy_graph(), TrainConfig(epochs=1),
              ModelConfig(n_nodes=6, channels=(8,), t_in=6))


def test_train_reduces_loss_on_learnable_signal():
    ft = _toy_dataset(seed=1)
    graph = _toy_graph(seed=1)
    cfg = TrainConfig(learning_rate=3e-3, epochs=30, batch_size=16, seed=1)
    params, history = train(ft, graph, cfg, _model_cfg())
    assert history.rows[-1].train_loss < history.rows[0].train_loss
    assert len(history.rows) == 30
    assert 0 <= history.best_epoch < 30


def test_train_is_seed_deterministic():
    ft = _toy_dataset(seed=2)
    graph = _toy_graph(seed=2)
    cfg = TrainConfig(learning_rate=1e-3, dropout_rate=0.3, epochs=3, batch_size=8, seed=9)
    p1, h1 = train(ft, graph, cfg, _model_cfg())
    p2, h2 = train(ft, graph, cfg, _model_cfg())
    assert h1 == h2
    for (_, a), (_, b) in zip(named_parameters(p1), named_parameters(p2)):
        assert np.array_equal(a.data, b.data)


def test_train_ignores_test_span_bitwise():
    ft_full = _toy_dataset(seed=4, t=60, train_steps=45)
    ft_cut = _toy_dataset(seed=4, t=60, train_steps=45)
    # wipe the test span entirely: labels and features past the boundary
    ft_cut.values[:, :, 45:] = 123.456
    ft_cut.labels[:, 45:] = 0
    graph = _toy_graph(seed=4)
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8, seed=4)
    p1, h1 = train(ft_full, graph, cfg, _model_cfg())
    p2, h2 = train(ft_cut, graph, cfg, _model_cfg())
    assert h1 == h2
    for (_, a), (_, b) in zip(named_parameters(p1), named_parameters(p2)):
        assert np.array_equal(a.data, b.data)


def test_checkpoint_matches_best_history_row():
    ft = _toy_dataset(seed=5)
    graph = _toy_graph(seed=5)
    cfg = TrainConfig(learning_rate=3e-3, epochs=6, batch_size=8, seed=5)
    mc = _model_cfg()
    params, history = train(ft, graph, cfg, mc)
    grad_ends, val_ends = fit_windows(ft, mc.t_in, mc.horizon, 45, cfg.validation_fraction)
    best = history.rows[history.best_epoch]
    report, _, loss = evaluate_windows(ft, graph, params, grad_ends)
    assert report.accuracy == pytest.approx(best.train_acc, abs=1e-12)
    assert loss == pytest.approx(best.train_loss, abs=1e-12)
    report, _, loss = evaluate_windows(ft, graph, params, val_ends)
    assert report.accuracy == pytest.approx(best.val_acc, abs=1e-12)
    assert report.macro_f1 == pytest.approx(best.val_macro_f1, abs=1e-12)
    assert loss == pytest.approx(best.val_loss, abs=1e-12)


def test_train_without_validation_windows_checkpoints_on_gradient_windows():
    ft = _toy_dataset(seed=5)
    # a one-step validation stretch holds no complete window at horizon 1
    cfg = TrainConfig(learning_rate=3e-3, epochs=2, batch_size=8, seed=5,
                      validation_fraction=0.01)
    with pytest.warns(UserWarning, match="no complete window"):
        _, history = train(ft, _toy_graph(seed=5), cfg, _model_cfg())
    for row in history.rows:
        assert (row.val_acc, row.val_loss) == (row.train_acc, row.train_loss)


def test_train_divergence_reports_epoch():
    ft = _toy_dataset(seed=6)
    graph = _toy_graph(seed=6)
    cfg = TrainConfig(learning_rate=1e200, epochs=3, batch_size=8, seed=6)
    with pytest.raises(TrainingDiverged) as err:
        train(ft, graph, cfg, _model_cfg())
    assert err.value.epoch == 0


def test_train_single_class_span_warns():
    ft = _toy_dataset(seed=7)
    ft.labels[:, :] = 0
    graph = _toy_graph(seed=7)
    cfg = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=8, seed=7)
    with pytest.warns(UserWarning, match="single label class"):
        train(ft, graph, cfg, _model_cfg())


def test_history_csv_format(tmp_path):
    ft = _toy_dataset(seed=8)
    graph = _toy_graph(seed=8)
    cfg = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8, seed=8)
    _, history = train(ft, graph, cfg, _model_cfg())
    path = tmp_path / "history.csv"
    history.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_macro_f1,val_loss,val_acc"
    assert len(lines) == 3
    assert lines[1].startswith("0,")


# -- worker pool -------------------------------------------------------------------

_WINDOW_BYTES = 8 * 5 * (8 * 6 + 5)   # eval_batch_windows' cost of one toy window


def _in_worker() -> bool:
    return threading.current_thread() is not threading.main_thread()


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_train_is_bitwise_independent_of_the_worker_count(monkeypatch, dropout):
    ft = _toy_dataset(seed=8)
    graph = _toy_graph(seed=8)
    cfg = TrainConfig(learning_rate=3e-3, dropout_rate=dropout, epochs=2, batch_size=8,
                      seed=8)
    # batches of 8 split into micro-batches of 3, 3 and 2
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", 3 * _WINDOW_BYTES)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(training, "_workers", lambda w=workers: w)
        runs.append(train(ft, graph, cfg, _model_cfg()))
    (serial, serial_history), (pooled, pooled_history) = runs
    for (name, a), (_, b) in zip(named_parameters(serial), named_parameters(pooled)):
        assert a.data.tobytes() == b.data.tobytes(), name
    assert pooled_history == serial_history


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_micro_batch_gradients_match_the_whole_batch(monkeypatch, dropout):
    ft = _toy_dataset(seed=11)
    graph = _toy_graph(seed=11)
    cfg = ModelConfig(n_nodes=5, channels=(8,), t_in=6, k=3, horizon=1)
    params = init_params(cfg, 0)
    chunk = np.arange(5, 13)
    class_w = np.array([0.5, 1.0, 2.0])
    masks = dropout_masks(cfg, dropout, len(chunk), np.random.default_rng(0)) \
        if dropout else None
    xs, ys = window_batch(ft, chunk, cfg.t_in, cfg.horizon)
    with Tape() as tape:
        logits, _ = forward(xs, graph, params, training=True, masks=masks)
        loss = cross_entropy(logits, ys, class_w)
    tape.backward(loss)
    reference = [t.grad for _, t in named_parameters(params)]

    whole = training._batch_gradients(ft, graph, params, chunk, class_w, masks, "none")
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", 3 * _WINDOW_BYTES)
    split = training._batch_gradients(ft, graph, params, chunk, class_w, masks, "none")
    for (name, _), ref, a, b in zip(named_parameters(params), reference, whole, split):
        assert a.tobytes() == ref.tobytes(), name   # one micro-batch: the unsplit step
        np.testing.assert_allclose(b, ref, rtol=1e-10, atol=1e-15, err_msg=name)


# sha256 of the float64 gradients below, in ``named_parameters`` order
_BATCH_GRADIENTS_SHA256 = "cebf35997753d7de7688cb5b4ec655f714b646fbafd9d6a865d0d279149952c7"


def test_batch_gradients_are_the_recorded_bytes(monkeypatch):
    # two blocks, dropout masks, and 8 windows in micro-batches of 3, 3 and 2
    ft = _toy_dataset(seed=12)
    graph = _toy_graph(seed=12)
    cfg = ModelConfig(n_nodes=5, channels=(8, 8), t_in=6, k=3, horizon=1)
    params = init_params(cfg, 12)
    chunk = np.arange(5, 13)
    masks = dropout_masks(cfg, 0.3, len(chunk), np.random.default_rng(12))
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", 3 * _WINDOW_BYTES)
    grads = training._batch_gradients(ft, graph, params, chunk, np.array([0.5, 1.0, 2.0]),
                                      masks, "none")
    digest = hashlib.sha256(b"".join(g.astype("<f8").tobytes() for g in grads))
    assert digest.hexdigest() == _BATCH_GRADIENTS_SHA256


def test_predict_windows_is_bitwise_the_same_pooled_and_serial(monkeypatch):
    ft = _toy_dataset(seed=3)
    graph = _toy_graph(seed=3)
    params = init_params(_model_cfg(), 0)
    ends = np.arange(5, 59)
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", 2 * _WINDOW_BYTES)
    scored = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads as often as the interpreter can
    try:
        for workers in (1, 2, 4):   # 4: more workers than this machine may have cores
            monkeypatch.setattr(training, "_workers", lambda w=workers: w)
            scored.append(predict_windows(ft, graph, params, ends))
    finally:
        sys.setswitchinterval(interval)
    for pooled in scored[1:]:
        for a, b in zip(pooled, scored[0]):
            assert a.tobytes() == b.tobytes()


def _blas_count():
    control = training._blas_threads()
    return None if control is None else control[0]()


def test_blas_runs_one_thread_in_the_pool_and_keeps_its_count_outside(monkeypatch):
    before = _blas_count()
    if before is None:
        pytest.skip("no OpenBLAS thread control in this process")
    seen = []

    def recording_forward(*args, **kwargs):
        seen.append((_in_worker(), _blas_count()))
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "forward", recording_forward)
    monkeypatch.setattr(training, "_workers", lambda: 2)
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", 3 * _WINDOW_BYTES)
    ft = _toy_dataset(seed=9)
    graph = _toy_graph(seed=9)
    params, _ = train(ft, graph, TrainConfig(epochs=1, batch_size=8, seed=9), _model_cfg())
    assert _blas_count() == before
    predict_windows(ft, graph, params, np.arange(5, 59))
    assert _blas_count() == before
    assert any(in_worker for in_worker, _ in seen)
    assert all(count == 1 for in_worker, count in seen if in_worker)


def test_a_worker_error_surfaces_with_its_epoch_and_the_pool_stays_usable(monkeypatch):
    ft = _toy_dataset(seed=10)
    graph = _toy_graph(seed=10)
    evaluated = threading.Event()

    def failing_forward(*args, **kwargs):
        if not kwargs.get("training"):
            evaluated.set()      # the first eval pass ends epoch 0
        elif evaluated.is_set() and _in_worker():
            raise DomainError("block 0: injected")
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "_workers", lambda: 2)
    monkeypatch.setattr(training, "EVAL_BATCH_BYTES", 3 * _WINDOW_BYTES)
    monkeypatch.setattr(training, "forward", failing_forward)
    before = _blas_count()
    with pytest.raises(TrainingDiverged) as err:
        train(ft, graph, TrainConfig(epochs=3, batch_size=8, seed=10), _model_cfg())
    assert err.value.epoch == 1 and "injected" in str(err.value)
    assert _blas_count() == before

    monkeypatch.setattr(training, "forward", forward)
    params = init_params(_model_cfg(), 0)
    pooled = predict_windows(ft, graph, params, np.arange(5, 59))
    monkeypatch.setattr(training, "_workers", lambda: 1)
    serial = predict_windows(ft, graph, params, np.arange(5, 59))
    for a, b in zip(pooled, serial):
        assert a.tobytes() == b.tobytes()


# -- tuning ------------------------------------------------------------------------


def test_tune_singleton_grid_returns_that_config():
    ft = _toy_dataset(seed=10)
    graph = _toy_graph(seed=10)
    base = TrainConfig(epochs=2, batch_size=8, seed=10)
    best, board = tune(ft, graph, base, [5e-3], [0.0], _model_cfg())
    assert best.learning_rate == 5e-3 and best.dropout_rate == 0.0
    assert len(board) == 1 and board[0]["rank"] == 0


def test_tune_duplicate_configs_tie_and_leaderboard_sorted():
    ft = _toy_dataset(seed=11)
    graph = _toy_graph(seed=11)
    base = TrainConfig(epochs=2, batch_size=8, seed=11)
    best, board = tune(ft, graph, base, [1e-3, 1e-3], [0.0], _model_cfg())
    assert board[0]["val_macro_f1"] == board[1]["val_macro_f1"]
    assert board[0]["val_loss"] == board[1]["val_loss"]
    f1s = [row["val_macro_f1"] for row in board]
    assert f1s == sorted(f1s, reverse=True)
    assert best.learning_rate == 1e-3


def test_tune_rejects_empty_grid():
    ft = _toy_dataset(seed=13)
    graph = _toy_graph(seed=13)
    with pytest.raises(UsageError):
        tune(ft, graph, TrainConfig(), [], [0.0], _model_cfg())


# -- whole-model gradient check ------------------------------------------------------


def test_model_gradient_check_all_groups_small():
    errors = model_gradient_check(seed=0)
    worst = max(errors.values())
    assert worst < 1e-4, f"worst group: {max(errors, key=errors.get)} = {worst}"


def test_gradient_checkers_catch_a_wrong_backward_rule(monkeypatch):
    def doubled_relu(t):
        mask = t.data > 0
        return tensor._make(np.maximum(t.data, 0.0), (t,), lambda g: (2.0 * g * mask,),
                            "relu", check=False)

    monkeypatch.setattr(tensor, "relu", doubled_relu)
    errors = model_gradient_check(seed=0)
    assert max(errors.values()) > 1e-2
    x = Tensor(np.random.default_rng(0).normal(size=16))
    assert tensor.gradient_check(lambda t: tensor.relu(t + 0.05).sum(), x) > 1e-2


def test_random_weights_score_near_chance_on_balanced_labels():
    # reported loosely, not asserted tightly: untrained model on ~balanced labels
    ft = _toy_dataset(seed=20)
    graph = _toy_graph(seed=20)
    params = init_params(ModelConfig(n_nodes=5, channels=(8,), t_in=6), 20)
    ends, _ = make_windows(ft, 6, 1, 45)
    report, _, _ = evaluate_windows(ft, graph, params, ends)
    print(f"random-weights accuracy on ~balanced labels: {report.accuracy:.3f}")
    assert 0.05 < report.accuracy < 0.7
