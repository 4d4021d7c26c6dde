import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import floodnowcast.training as training
from floodnowcast.cli import main
from floodnowcast.pipeline import load_dataset
from floodnowcast.training import fit_windows, make_windows, window_batch

SCENARIO_CFG = {
    "n_nodes": 12, "n_timesteps": 96, "n_gauges": 4, "seed": 7,
}
TRAIN_CFG = {
    "train": {"learning_rate": 3e-3, "epochs": 2, "batch_size": 8, "seed": 7},
    "model": {"channels": [6], "t_in": 6, "horizon": 1, "k": 3},
    "grid": {"learning_rates": [1e-3, 3e-3], "dropout_rates": [0.0]},
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scenario + prepared dataset + one trained checkpoint, shared per module."""
    root = tmp_path_factory.mktemp("cli")
    scen_cfg = root / "scenario.json"
    scen_cfg.write_text(json.dumps(SCENARIO_CFG))
    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps(TRAIN_CFG))

    assert main(["generate", "--config", str(scen_cfg), "--out", str(root / "scen")]) == 0
    assert main(["prepare", "--scenario", str(root / "scen"), "--train-steps", "60",
                 "--out", str(root / "data")]) == 0
    assert main(["train", "--dataset", str(root / "data"), "--config", str(train_cfg),
                 "--out", str(root / "run")]) == 0
    return root


def test_generate_writes_files_and_manifest(workspace):
    scen = workspace / "scen"
    for name in ("nodes.csv", "gauges.csv", "gauge_readings.csv", "events.csv",
                 "tiles.csv", "road_status.csv", "scenario_meta.json", "manifest.json"):
        assert (scen / name).exists(), name
    manifest = json.loads((scen / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["outputs"]  # digests recorded


def test_generate_is_reproducible_by_digest(workspace, tmp_path):
    cfg = workspace / "scenario.json"
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    da = json.loads((tmp_path / "a" / "manifest.json").read_text())["outputs"]
    db = json.loads((tmp_path / "b" / "manifest.json").read_text())["outputs"]
    assert da == db


def test_generate_missing_config_exits_2(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")]) == 2


def test_generate_bad_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"n_nodes": 1}))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    cfg.write_text(json.dumps({"not_a_field": 3}))
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_prepare_outputs(workspace):
    data = workspace / "data"
    for name in ("dataset.bin", "dataset.bin.json", "nodes.csv", "adjacency.csv",
                 "manifest.json"):
        assert (data / name).exists(), name
    sidecar = json.loads((data / "dataset.bin.json").read_text())
    assert sidecar["train_steps"] == 60
    assert sidecar["channels"][0] == "rain_2h"


def test_train_outputs_and_manifest(workspace):
    run = workspace / "run"
    for name in ("weights.bin", "history.csv", "metrics.json", "confusion.csv",
                 "manifest.json"):
        assert (run / name).exists(), name
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["seeds"]["ablation"] == "none"
    report = json.loads((run / "metrics.json").read_text())
    assert 0.0 <= report["macro_f1"] <= 1.0
    history = (run / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,train_acc,val_macro_f1,val_loss,val_acc"
    assert len(history) == 3  # 2 epochs


def test_train_ablation_flag_recorded_and_weights_differ(workspace, tmp_path):
    cfg = workspace / "train.json"
    out = tmp_path / "ablated"
    assert main(["train", "--dataset", str(workspace / "data"), "--config", str(cfg),
                 "--ablation", "attention-off", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"]["ablation"] == "attention-off"
    assert (out / "weights.bin").read_bytes() != (workspace / "run" / "weights.bin").read_bytes()


def test_train_graph_off_and_physics_only(workspace, tmp_path):
    cfg = workspace / "train.json"
    assert main(["train", "--dataset", str(workspace / "data"), "--config", str(cfg),
                 "--ablation", "graph-off", "--channels", "physics-only",
                 "--out", str(tmp_path / "g")]) == 0
    header = json.loads(Path(tmp_path / "g" / "weights.bin").read_bytes()
                        .split(b"\n", 1)[0])
    assert header["ablation"] == "graph-off"
    assert header["channels"] == "physics-only"
    # evaluation picks the recorded view back up
    assert main(["evaluate", "--dataset", str(workspace / "data"),
                 "--weights", str(tmp_path / "g" / "weights.bin"),
                 "--out", str(tmp_path / "ge")]) == 0


def test_evaluate_train_split_reproduces_history_row(workspace, tmp_path):
    out = tmp_path / "eval_train"
    assert main(["evaluate", "--dataset", str(workspace / "data"),
                 "--weights", str(workspace / "run" / "weights.bin"),
                 "--split", "train", "--out", str(out)]) == 0
    report = json.loads((out / "metrics.json").read_text())
    rows = (workspace / "run" / "history.csv").read_text().strip().splitlines()[1:]
    parsed = [tuple(float(v) for v in r.split(",")) for r in rows]
    best = max(parsed, key=lambda r: r[3])  # first max val_macro_f1 is the checkpoint
    assert abs(report["accuracy"] - best[2]) < 1e-12
    # the train split is the gradient windows only, as in history's train_acc
    grad_ends, _ = fit_windows(load_dataset(workspace / "data" / "dataset.bin"), 6, 1, 60, 0.15)
    assert sum(report["per_class"]["support"]) == len(grad_ends) * 12


def test_evaluate_deterministic_bytes(workspace, tmp_path):
    for name in ("e1", "e2"):
        assert main(["evaluate", "--dataset", str(workspace / "data"),
                     "--weights", str(workspace / "run" / "weights.bin"),
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "e1" / "metrics.json").read_bytes() == \
        (tmp_path / "e2" / "metrics.json").read_bytes()


def test_evaluate_shape_mismatch_exits_2(workspace, tmp_path):
    other_cfg = tmp_path / "scen2.json"
    other_cfg.write_text(json.dumps({**SCENARIO_CFG, "n_nodes": 8}))
    assert main(["generate", "--config", str(other_cfg), "--out", str(tmp_path / "s2")]) == 0
    assert main(["prepare", "--scenario", str(tmp_path / "s2"), "--train-steps", "60",
                 "--out", str(tmp_path / "d2")]) == 0
    assert main(["evaluate", "--dataset", str(tmp_path / "d2"),
                 "--weights", str(workspace / "run" / "weights.bin"),
                 "--out", str(tmp_path / "e")]) == 2


def test_evaluate_missing_weights_exits_3(workspace, tmp_path):
    assert main(["evaluate", "--dataset", str(workspace / "data"),
                 "--weights", str(tmp_path / "missing.bin"),
                 "--out", str(tmp_path / "e")]) == 3


def test_predict_csv_contract(workspace, tmp_path):
    out = tmp_path / "pred"
    assert main(["predict", "--dataset", str(workspace / "data"),
                 "--weights", str(workspace / "run" / "weights.bin"),
                 "--out", str(out)]) == 0
    lines = (out / "predictions.csv").read_text().strip().splitlines()
    assert lines[0] == "node_id,timestep,prob_no,prob_moderate,prob_severe,pred_class"
    # 96 steps, split 60, t_in 6, horizon 1: windows end at 60..94, 12 nodes each
    assert len(lines) - 1 == 35 * 12
    parts = lines[1].split(",")
    probs = [float(v) for v in parts[2:5]]
    assert abs(sum(probs) - 1.0) < 1e-9
    assert int(parts[5]) == int(np.argmax(probs))
    assert int(parts[1]) >= 61


def _window_keys(workspace, ends):
    xs, _ = window_batch(load_dataset(workspace / "data" / "dataset.bin"), ends, 6, 1)
    return [x.tobytes() for x in xs]


def _eval_forwards(monkeypatch, argv):
    """Run one command; count each window its eval-mode forward passes saw."""
    seen = Counter()
    real = training.forward

    def counting(x, *args, **kwargs):
        if not kwargs.get("training", False):
            seen.update(w.tobytes() for w in np.asarray(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(training, "forward", counting)
    assert main(argv) == 0
    return seen


def test_each_window_is_forwarded_once(workspace, tmp_path, monkeypatch):
    ft = load_dataset(workspace / "data" / "dataset.bin")
    _, test_ends = make_windows(ft, 6, 1, 60)
    test_keys = Counter(_window_keys(workspace, test_ends))
    assert len(test_keys) == len(test_ends)
    for command in ("evaluate", "predict"):
        seen = _eval_forwards(monkeypatch, [
            command, "--dataset", str(workspace / "data"),
            "--weights", str(workspace / "run" / "weights.bin"),
            "--out", str(tmp_path / command)])
        assert seen == test_keys, command

    seen = _eval_forwards(monkeypatch, [
        "train", "--dataset", str(workspace / "data"),
        "--config", str(workspace / "train.json"), "--out", str(tmp_path / "train")])
    grad_ends, val_ends = fit_windows(ft, 6, 1, 60, 0.15)
    epochs = TRAIN_CFG["train"]["epochs"]
    fit_keys = Counter(_window_keys(workspace, np.concatenate([grad_ends, val_ends])))
    # test windows once, for the test metrics; fit windows once per epoch
    assert seen == test_keys + Counter({k: epochs for k in fit_keys})


@pytest.mark.parametrize("run_dir", ["run", "eval"])
def test_confusion_matches_metrics(workspace, tmp_path, run_dir):
    out = workspace / "run"
    if run_dir == "eval":
        out = tmp_path / "eval"
        assert main(["evaluate", "--dataset", str(workspace / "data"),
                     "--weights", str(workspace / "run" / "weights.bin"),
                     "--out", str(out)]) == 0
    rows = (out / "confusion.csv").read_text().strip().splitlines()[1:]
    counts = np.array([[int(v) for v in r.split(",")[1:]] for r in rows])
    report = json.loads((out / "metrics.json").read_text())
    assert counts.sum() == 35 * 12          # test windows x nodes
    assert counts.trace() / counts.sum() == report["accuracy"]
    assert counts.sum(axis=1).tolist() == report["per_class"]["support"]


def _assert_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("change", [lambda b: b[:len(b) // 2], lambda b: b + b"\0" * 8])
def test_dataset_payload_length_mismatch_exits_2(workspace, tmp_path, capsys, change):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    container = data / "dataset.bin"
    container.write_bytes(change(container.read_bytes()))
    _assert_usage_error(capsys, ["evaluate", "--dataset", str(data), "--weights",
                                 str(workspace / "run" / "weights.bin"),
                                 "--out", str(tmp_path / "e")])


def test_weights_header_not_json_exits_2(workspace, tmp_path, capsys):
    weights = tmp_path / "weights.bin"
    payload = (workspace / "run" / "weights.bin").read_bytes().split(b"\n", 1)[1]
    weights.write_bytes(b"{not json\n" + payload)
    _assert_usage_error(capsys, ["evaluate", "--dataset", str(workspace / "data"),
                                 "--weights", str(weights), "--out", str(tmp_path / "e")])


@pytest.mark.parametrize("key", ["split_step", "validation_fraction"])
def test_weights_header_bad_split_exits_2(workspace, tmp_path, capsys, key):
    header, payload = (workspace / "run" / "weights.bin").read_bytes().split(b"\n", 1)
    weights = tmp_path / "weights.bin"
    weights.write_bytes(json.dumps({**json.loads(header), key: "x"}).encode() + b"\n" + payload)
    _assert_usage_error(capsys, ["evaluate", "--dataset", str(workspace / "data"),
                                 "--weights", str(weights), "--out", str(tmp_path / "e")])


def test_train_without_test_windows_exits_2_before_training(workspace, tmp_path, capsys):
    assert main(["prepare", "--scenario", str(workspace / "scen"), "--train-steps", "95",
                 "--out", str(tmp_path / "d")]) == 0
    _assert_usage_error(capsys, ["train", "--dataset", str(tmp_path / "d"), "--config",
                                 str(workspace / "train.json"), "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("model", [{"channels": [0]}, {"in_channels": 0},
                                   {"channels": [32, -1]}, {"kernel_width": -1}])
def test_model_config_out_of_range_exits_2(workspace, tmp_path, capsys, model):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**TRAIN_CFG, "model": {**TRAIN_CFG["model"], **model}}))
    err = _assert_usage_error(capsys, ["train", "--dataset", str(workspace / "data"),
                                       "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert "must be >= 1" in err


# 250.0 and 0 are also outside this 96-step dataset; 50.0 is inside it, where a
# float split used to reach the label slicing and raise TypeError
@pytest.mark.parametrize("split_step", [250.0, 50.0, 0])
def test_train_config_bad_split_step_exits_2(workspace, tmp_path, capsys, split_step):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**TRAIN_CFG, "train": {**TRAIN_CFG["train"],
                                                      "split_step": split_step}}))
    err = _assert_usage_error(capsys, ["train", "--dataset", str(workspace / "data"),
                                       "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert "split_step" in err


def test_evaluate_uses_the_split_recorded_by_train(workspace, tmp_path):
    cfg = tmp_path / "split.json"
    cfg.write_text(json.dumps({**TRAIN_CFG, "train": {
        **TRAIN_CFG["train"], "split_step": 50, "validation_fraction": 0.3}}))
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(workspace / "data"), "--config", str(cfg),
                 "--out", str(run)]) == 0
    for split in ("test", "train"):
        assert main(["evaluate", "--dataset", str(workspace / "data"),
                     "--weights", str(run / "weights.bin"), "--split", split,
                     "--out", str(tmp_path / split)]) == 0
    trained = json.loads((run / "metrics.json").read_text())
    evaluated = json.loads((tmp_path / "test" / "metrics.json").read_text())
    # 96 steps split at 50 (not the dataset's 60), t_in 6, horizon 1: 45 windows
    assert sum(evaluated["per_class"]["support"]) == 45 * 12
    assert evaluated == trained
    grad_ends, _ = fit_windows(load_dataset(workspace / "data" / "dataset.bin"), 6, 1, 50, 0.3)
    report = json.loads((tmp_path / "train" / "metrics.json").read_text())
    assert sum(report["per_class"]["support"]) == len(grad_ends) * 12


def test_gradcheck_zero_seeds_exits_2(capsys):
    _assert_usage_error(capsys, ["gradcheck", "--seeds", "0"])


def test_tune_leaderboard(workspace, tmp_path):
    out = tmp_path / "tuned"
    assert main(["tune", "--dataset", str(workspace / "data"),
                 "--config", str(workspace / "train.json"), "--out", str(out)]) == 0
    lines = (out / "leaderboard.csv").read_text().strip().splitlines()
    assert lines[0] == "rank,learning_rate,dropout_rate,val_macro_f1,val_loss,best_epoch"
    assert len(lines) == 3  # 2 learning rates x 1 dropout
    f1s = [float(line.split(",")[3]) for line in lines[1:]]
    assert f1s == sorted(f1s, reverse=True)
    best = json.loads((out / "best_config.json").read_text())
    assert best["train"]["learning_rate"] in (1e-3, 3e-3)


def test_train_divergence_exits_4(workspace, tmp_path):
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({**TRAIN_CFG,
                               "train": {**TRAIN_CFG["train"], "learning_rate": 1e200}}))
    assert main(["train", "--dataset", str(workspace / "data"), "--config", str(cfg),
                 "--out", str(tmp_path / "d")]) == 4


def test_gradcheck_single_seed(tmp_path):
    assert main(["gradcheck", "--seeds", "1", "--out", str(tmp_path / "gc")]) == 0
    result = json.loads((tmp_path / "gc" / "gradcheck.json").read_text())
    assert result["passed"] is True


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
