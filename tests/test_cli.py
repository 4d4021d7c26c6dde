import csv
import hashlib
import json
import shutil
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

import floodnowcast.training as training
from floodnowcast.cli import main
from floodnowcast.errors import UsageError, config_from, header_sha256
from floodnowcast.graph import RegionGraph, load_nodes_csv
from floodnowcast.pipeline import load_dataset, parse_utc
from floodnowcast.training import GridConfig, fit_windows, make_windows, window_batch

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
                 "graph.bin", "manifest.json"):
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


@pytest.mark.parametrize("command", ["evaluate", "predict"])
def test_dataset_payload_bit_flip_exits_4(workspace, tmp_path, capsys, command):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    container = data / "dataset.bin"
    raw = bytearray(container.read_bytes())
    raw[raw.index(b"\n") + 100] ^= 0x40
    container.write_bytes(bytes(raw))
    assert main([command, "--dataset", str(data), "--weights",
                 str(workspace / "run" / "weights.bin"), "--out", str(tmp_path / "e")]) == 4
    err = capsys.readouterr().err
    assert "checksum mismatch" in err and "Traceback" not in err


def _older_dataset(data, weights):
    container = data / "dataset.bin"
    raw = container.read_bytes()
    assert raw.startswith(b"FLOODNOWCAST-DATASET 3 ")
    container.write_bytes(raw.replace(b" 3 ", b" 1 ", 1))


def _older_json_header(path, version):
    """Relabel a version-``version`` file as version ``version - 1``."""
    header, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    assert header.pop("version") == version
    del header["header_sha256"]
    path.write_bytes(json.dumps({**header, "version": version - 1}).encode() + b"\n"
                     + payload)


# each container at the version before its current one
@pytest.mark.parametrize("name,rewrite,command,older", [
    ("dataset.bin", _older_dataset, "prepare", 1),
    ("graph.bin", lambda data, weights: _older_json_header(data / "graph.bin", 2),
     "prepare", 1),
    ("weights.bin", lambda data, weights: _older_json_header(weights, 6), "train", 5),
], ids=["dataset.bin", "graph.bin", "weights.bin"])
def test_older_container_version_exits_2(workspace, tmp_path, capsys, name, rewrite,
                                         command, older):
    data, weights = tmp_path / "data", tmp_path / "weights.bin"
    shutil.copytree(workspace / "data", data)
    shutil.copyfile(workspace / "run" / "weights.bin", weights)
    rewrite(data, weights)
    err = _assert_usage_error(capsys, ["evaluate", "--dataset", str(data), "--weights",
                                       str(weights), "--out", str(tmp_path / "e")])
    assert name in err and f"version-{older}" in err and f"`{command}`" in err


def test_weights_header_digit_flip_exits_4(workspace, tmp_path, capsys):
    weights = tmp_path / "weights.bin"
    raw = (workspace / "run" / "weights.bin").read_bytes()
    assert b'"horizon": 1' in raw
    weights.write_bytes(raw.replace(b'"horizon": 1', b'"horizon": 5', 1))   # one bit
    assert main(["evaluate", "--dataset", str(workspace / "data"), "--weights",
                 str(weights), "--out", str(tmp_path / "e")]) == 4
    err = capsys.readouterr().err
    assert "header checksum mismatch" in err and "Traceback" not in err


def test_weights_header_not_json_exits_2(workspace, tmp_path, capsys):
    weights = tmp_path / "weights.bin"
    payload = (workspace / "run" / "weights.bin").read_bytes().split(b"\n", 1)[1]
    weights.write_bytes(b"{not json\n" + payload)
    _assert_usage_error(capsys, ["evaluate", "--dataset", str(workspace / "data"),
                                 "--weights", str(weights), "--out", str(tmp_path / "e")])


@pytest.mark.parametrize("key,value", [("validation_fraction", "x")],
                         ids=["validation_fraction"])
def test_weights_header_bad_split_exits_2(workspace, tmp_path, capsys, key, value):
    header, payload = (workspace / "run" / "weights.bin").read_bytes().split(b"\n", 1)
    weights = tmp_path / "weights.bin"
    weights.write_bytes(json.dumps({**json.loads(header), key: value}).encode() + b"\n" + payload)
    _assert_usage_error(capsys, ["evaluate", "--dataset", str(workspace / "data"),
                                 "--weights", str(weights), "--out", str(tmp_path / "e")])


# each left an empty --out directory behind
@pytest.mark.parametrize("train_steps", ["0", "999"])
def test_prepare_train_steps_out_of_range_exits_2_and_writes_nothing(workspace, tmp_path,
                                                                     capsys, train_steps):
    err = _assert_usage_error(capsys, ["prepare", "--scenario", str(workspace / "scen"),
                                       "--train-steps", train_steps,
                                       "--out", str(tmp_path / "d")])
    assert "train_steps" in err
    assert not (tmp_path / "d").exists()


def test_train_without_test_windows_exits_2_before_training(workspace, tmp_path, capsys):
    assert main(["prepare", "--scenario", str(workspace / "scen"), "--train-steps", "95",
                 "--out", str(tmp_path / "d")]) == 0
    _assert_usage_error(capsys, ["train", "--dataset", str(tmp_path / "d"), "--config",
                                 str(workspace / "train.json"), "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("model", [{"channels": [0]}, {"k": 0},
                                   {"channels": [32, -1]}, {"kernel_width": -1}])
def test_model_config_out_of_range_exits_2(workspace, tmp_path, capsys, model):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**TRAIN_CFG, "model": {**TRAIN_CFG["model"], **model}}))
    err = _assert_usage_error(capsys, ["train", "--dataset", str(workspace / "data"),
                                       "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert "must be >= 1" in err and "section 'model'" in err
    assert not (tmp_path / "r").exists()


def _weights_config_with(key):
    """A weights file whose header ``config`` holds ``key``, resealed so its digest holds."""
    def edit(workspace, tmp_path):
        header, payload = (workspace / "run" / "weights.bin").read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["config"][key] = 1
        weights = tmp_path / "weights.bin"
        weights.write_bytes(json.dumps({**header, "header_sha256": header_sha256(header)}
                                       ).encode() + b"\n" + payload)
        return ["evaluate", "--dataset", str(workspace / "data"), "--weights", str(weights)]
    return edit


def _config_with(command, section, key):
    def edit(workspace, tmp_path):
        cfg = tmp_path / "bad.json"
        if section is None:
            cfg.write_text(json.dumps({**SCENARIO_CFG, key: 1}))
            return [command, "--config", str(cfg)]
        cfg.write_text(json.dumps(_changed(section, **{key: 1})))
        return [command, "--dataset", str(workspace / "data"), "--config", str(cfg)]
    return edit


# the model section's n_nodes and in_channels come from the dataset, seed and
# dropout_rate belong to the train section, the dataset's train_steps is the split,
# and a scenario's physics are fixed
@pytest.mark.parametrize("key,argv", [
    ("not_a_field", _config_with("generate", None, "not_a_field")),
    ("optimizer", _config_with("train", "train", "optimizer")),
    ("class_weights", _config_with("tune", "train", "class_weights")),
    ("epoch", _config_with("train", "train", "epoch")),
    ("in_channels", _config_with("train", "model", "in_channels")),
    ("n_nodes", _config_with("tune", "model", "n_nodes")),
    ("seed", _config_with("train", "model", "seed")),
    ("dropout_rate", _config_with("train", "model", "dropout_rate")),
    ("chanels", _config_with("train", "model", "chanels")),
    ("n_blocks", _weights_config_with("n_blocks")),
    ("split_step", _config_with("tune", "train", "split_step")),
    ("rain_gain", _config_with("generate", None, "rain_gain")),
], ids=["scenario", "train_optimizer", "train_class_weights", "train_misspelt",
        "model_in_channels", "model_n_nodes", "model_seed", "model_dropout_rate",
        "model_misspelt", "weights_header_config", "train_split_step", "scenario_physics"])
def test_config_unknown_key_exits_2(workspace, tmp_path, capsys, key, argv):
    err = _assert_usage_error(capsys, [*argv(workspace, tmp_path), "--out", str(tmp_path / "o")])
    assert f"takes no {key!r} key" in err
    assert not (tmp_path / "o").exists()


def _changed(section, **change):
    return {**TRAIN_CFG, section: {**TRAIN_CFG[section], **change}}


# most of these ended in a traceback (TypeError, IndexError or AttributeError);
# a string or bool patience was accepted
@pytest.mark.parametrize("command,config", [
    ("train", _changed("train", epochs=1.0)),
    ("train", _changed("train", batch_size=8.0)),
    ("train", _changed("train", seed=1.5)),
    ("train", _changed("train", dropout_rate="x")),
    ("train", _changed("train", patience="2")),
    ("train", _changed("train", patience=True)),
    ("train", [1, 2]),
    ("train", {**TRAIN_CFG, "model": [1]}),
    ("train", {**TRAIN_CFG, "train": "x"}),
    ("train", _changed("model", k=2.0)),
    ("train", _changed("model", channels=[8.0])),
    ("train", _changed("model", channels=8)),
    ("train", _changed("model", t_in=6.0)),
    ("train", _changed("model", horizon=1.0)),
    ("tune", {**TRAIN_CFG, "grid": [1]}),
    ("generate", {**SCENARIO_CFG, "n_nodes": 6.0}),
    ("generate", {**SCENARIO_CFG, "seed": 2.5}),
    ("generate", [1, 2]),
    ("tune", _changed("grid", learning_rates=5)),
    ("tune", _changed("grid", dropout_rates=0.3)),
    ("tune", {**TRAIN_CFG, "grid": {"learning_rate": [0.1]}}),
    ("train", _changed("train", seed=-1)),
    ("train", _changed("train", patience=-3)),
    ("generate", {**SCENARIO_CFG, "seed": -1}),
    ("tune", _changed("grid", dropout_rates=[1.5])),
    ("tune", _changed("grid", dropout_rates=[-0.1])),
    ("tune", _changed("grid", learning_rates=[-1e-3])),
    ("tune", _changed("grid", learning_rates=[])),
], ids=["epochs", "batch_size", "seed", "dropout_rate", "patience", "patience_bool",
        "top_level", "model_section", "train_section", "k", "channels_entry",
        "channels_scalar", "t_in", "horizon", "grid_section", "scenario_n_nodes",
        "scenario_seed", "scenario_top_level", "grid_learning_rates_scalar",
        "grid_dropout_rates_scalar", "grid_unknown_key", "negative_seed",
        "negative_patience", "scenario_negative_seed", "grid_dropout_above_1",
        "grid_negative_dropout", "grid_negative_learning_rate", "grid_empty"])
def test_config_of_the_wrong_type_exits_2(workspace, tmp_path, capsys, command, config):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "r"
    if command == "generate":
        argv = ["generate", "--config", str(cfg), "--out", str(out)]
    else:
        argv = [command, "--dataset", str(workspace / "data"), "--config", str(cfg),
                "--out", str(out)]
    err = _assert_usage_error(capsys, argv)
    assert not out.exists()
    if command == "tune" and isinstance(config["grid"], dict):
        assert str(cfg) in err and "section 'grid'" in err, err


def test_grid_section_fills_what_it_leaves_out_from_the_defaults():
    grid = config_from(GridConfig, {"learning_rates": [1]}, "section 'grid'")
    assert grid.learning_rates == (1,)
    assert grid.dropout_rates == GridConfig().dropout_rates == (0.0, 0.3)
    # a wrong value is quoted as the JSON list it was, not as the tuple it became
    with pytest.raises(UsageError, match=r"section 'grid': learning_rates must be a list "
                                         r"of numbers, got \['x'\]$"):
        config_from(GridConfig, {"learning_rates": ["x"]}, "section 'grid'")


def test_evaluate_uses_the_split_recorded_by_train(workspace, tmp_path):
    data = tmp_path / "data"
    assert main(["prepare", "--scenario", str(workspace / "scen"), "--train-steps", "50",
                 "--out", str(data)]) == 0
    cfg = tmp_path / "split.json"
    cfg.write_text(json.dumps({**TRAIN_CFG, "train": {
        **TRAIN_CFG["train"], "validation_fraction": 0.3}}))
    run = tmp_path / "run"
    assert main(["train", "--dataset", str(data), "--config", str(cfg),
                 "--out", str(run)]) == 0
    for split in ("test", "train"):
        assert main(["evaluate", "--dataset", str(data),
                     "--weights", str(run / "weights.bin"), "--split", split,
                     "--out", str(tmp_path / split)]) == 0
    trained = json.loads((run / "metrics.json").read_text())
    evaluated = json.loads((tmp_path / "test" / "metrics.json").read_text())
    # 96 steps split at the dataset's 50, t_in 6, horizon 1: 45 windows
    assert sum(evaluated["per_class"]["support"]) == 45 * 12
    assert evaluated == trained
    grad_ends, _ = fit_windows(load_dataset(data / "dataset.bin"), 6, 1, 50, 0.3)
    report = json.loads((tmp_path / "train" / "metrics.json").read_text())
    assert sum(report["per_class"]["support"]) == len(grad_ends) * 12


# weights trained at one split, evaluated on the same scenario re-prepared at
# another, scored windows inside the span they were fitted on and exited 0
def test_evaluate_weights_of_another_dataset_exits_2(tmp_path, capsys):
    scen_cfg, train_cfg = tmp_path / "scenario.json", tmp_path / "train.json"
    scen_cfg.write_text(json.dumps({**SCENARIO_CFG, "n_timesteps": 240}))
    train_cfg.write_text(json.dumps({**TRAIN_CFG, "train": {**TRAIN_CFG["train"],
                                                            "epochs": 1}}))
    assert main(["generate", "--config", str(scen_cfg), "--out", str(tmp_path / "scen")]) == 0
    for name, train_steps in (("data", "150"), ("data200", "200")):
        assert main(["prepare", "--scenario", str(tmp_path / "scen"), "--train-steps",
                     train_steps, "--out", str(tmp_path / name)]) == 0
    weights = tmp_path / "run" / "weights.bin"
    assert main(["train", "--dataset", str(tmp_path / "data"), "--config", str(train_cfg),
                 "--out", str(tmp_path / "run")]) == 0
    for command in ("evaluate", "predict"):
        assert main([command, "--dataset", str(tmp_path / "data"), "--weights", str(weights),
                     "--out", str(tmp_path / command)]) == 0
        err = _assert_usage_error(capsys, [command, "--dataset", str(tmp_path / "data200"),
                                           "--weights", str(weights),
                                           "--out", str(tmp_path / f"{command}200")])
        assert str(weights) in err and str(tmp_path / "data200" / "dataset.bin.json") in err
        assert not (tmp_path / f"{command}200").exists()


# weights evaluated with another graph.bin than the one they were trained with
# (here the edgeless graph) exited 0 with the predictions of another model
def test_evaluate_weights_of_another_graph_exits_2(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    RegionGraph.edgeless(load_nodes_csv(data / "nodes.csv")).save(data / "graph.bin")
    weights = workspace / "run" / "weights.bin"
    for command in ("evaluate", "predict"):
        err = _assert_usage_error(capsys, [command, "--dataset", str(data), "--weights",
                                           str(weights), "--out", str(tmp_path / command)])
        assert str(weights) in err and str(data / "graph.bin") in err
        assert not (tmp_path / command).exists()


def test_gradcheck_zero_seeds_exits_2(capsys):
    _assert_usage_error(capsys, ["gradcheck", "--seeds", "0"])


# a negative seed reached numpy's SeedSequence and ended in a ValueError traceback
@pytest.mark.parametrize("command", ["generate", "train", "gradcheck"])
def test_negative_seed_flag_exits_2(workspace, tmp_path, capsys, command):
    inputs = {"generate": ["--config", str(workspace / "scenario.json")],
              "train": ["--dataset", str(workspace / "data"),
                        "--config", str(workspace / "train.json")],
              "gradcheck": []}[command]
    err = _assert_usage_error(capsys, [command, *inputs, "--seed", "-1",
                                       "--out", str(tmp_path / "o")])
    assert "seed" in err


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


def test_train_divergence_exits_4(workspace, tmp_path, capsys):
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({**TRAIN_CFG,
                               "train": {**TRAIN_CFG["train"], "learning_rate": 1e200}}))
    capsys.readouterr()
    assert main(["train", "--dataset", str(workspace / "data"), "--config", str(cfg),
                 "--out", str(tmp_path / "d")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and err.count("epoch 0") == 1, err


def test_gradcheck_single_seed(tmp_path):
    assert main(["gradcheck", "--seeds", "1", "--out", str(tmp_path / "gc")]) == 0
    result = json.loads((tmp_path / "gc" / "gradcheck.json").read_text())
    assert result["passed"] is True


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# -- scenario CSV rows that do not convert --------------------------------------------


def _edit_first_row(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1] = edit(rows[1])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _set(column, value):
    return lambda row: row[:column] + [value] + row[column + 1:]


def _tweet(x, y, value):
    return lambda row: ["tweet", row[1], x, y, "", value]


# the first four and the last ended in a ValueError, TypeError or KeyError traceback
# (exit 1); a row's own DomainError (a non-finite coordinate or fraction) keeps exit 4
# and gains the line. A non-finite event or gauge coordinate and an in_floodplain of 7
# were accepted (exit 0), and a nan fraction was reported as a missing row. A nan or
# negative event value, a nan reading and a point event without x/y named no line
@pytest.mark.parametrize("command,name,edit,code", [
    ("prepare", "nodes.csv", _set(1, "abc"), 2),
    ("prepare", "gauge_readings.csv", _set(2, "n/a"), 2),
    ("prepare", "events.csv", lambda row: row[:2], 2),
    ("prepare", "tiles.csv", lambda row: row[:1], 2),
    ("prepare", "nodes.csv", _set(1, "nan"), 4),
    ("prepare", "events.csv", _set(2, "nan"), 4),
    ("prepare", "events.csv", _set(2, "inf"), 4),
    ("prepare", "events.csv", _set(3, "-inf"), 4),
    ("prepare", "gauges.csv", _set(1, "inf"), 4),
    ("prepare", "gauges.csv", _set(2, "nan"), 4),
    ("prepare", "nodes.csv", _set(3, "7"), 2),
    ("prepare", "road_status.csv", _set(2, "nan"), 4),
    ("prepare", "events.csv", _tweet("10.0", "10.0", "nan"), 4),
    ("prepare", "gauge_readings.csv", _set(2, "nan"), 4),
    ("prepare", "gauge_readings.csv", _set(3, "nan"), 4),
    ("prepare", "events.csv", _tweet("10.0", "10.0", "-1"), 4),
    ("prepare", "events.csv", _tweet("", "", "1"), 2),
    ("evaluate", "nodes.csv", _set(2, "abc"), 2),
], ids=["nodes_x", "rain_increment", "short_event_row", "short_tile_row", "nodes_x_nan",
        "event_x_nan", "event_x_inf", "event_y_minus_inf", "gauge_x_inf", "gauge_y_nan",
        "nodes_in_floodplain_7", "road_status_fraction_nan", "event_value_nan",
        "rain_increment_nan", "water_elevation_nan", "event_value_negative",
        "point_event_without_location", "evaluate_nodes_y"])
def test_scenario_csv_row_that_does_not_convert_exits_with_its_line(
        workspace, tmp_path, capsys, command, name, edit, code):
    if command == "prepare":
        shutil.copytree(workspace / "scen", tmp_path / "scen")
        _edit_first_row(tmp_path / "scen" / name, edit)
        argv = ["prepare", "--scenario", str(tmp_path / "scen")]
    else:
        shutil.copytree(workspace / "data", tmp_path / "data")
        _edit_first_row(tmp_path / "data" / name, edit)
        argv = ["evaluate", "--dataset", str(tmp_path / "data"),
                "--weights", str(workspace / "run" / "weights.bin")]
    assert main([*argv, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert f"{name} line 2: " in err and "Traceback" not in err


def test_road_status_row_repeating_a_node_and_time_exits_2(workspace, tmp_path, capsys):
    # the repeated row overwrote the first one (here "none" became "severe"), exit 0
    shutil.copytree(workspace / "scen", tmp_path / "scen")
    path = tmp_path / "scen" / "road_status.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "a", newline="") as fh:
        csv.writer(fh).writerow(rows[1][:2] + ["0.500000"])
    err = _assert_usage_error(capsys, ["prepare", "--scenario", str(tmp_path / "scen"),
                                       "--out", str(tmp_path / "o")])
    assert f"road_status.csv line {len(rows) + 1}: a second row for node {rows[1][0]}" in err


# a repeated gauge id replaced the first gauge (exit 0); a repeated reading exited 2
# naming no line
@pytest.mark.parametrize("name,repeat,message", [
    ("gauges.csv", lambda row: row[:1] + ["1.0"] + row[2:], "a second row for gauge "),
    ("gauge_readings.csv", lambda row: row[:2] + ["9.0", "9.0"], "a second reading of gauge "),
], ids=["gauge_id", "gauge_reading"])
def test_scenario_csv_row_repeating_a_key_exits_2(workspace, tmp_path, capsys, name, repeat,
                                                   message):
    shutil.copytree(workspace / "scen", tmp_path / "scen")
    path = tmp_path / "scen" / name
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "a", newline="") as fh:
        csv.writer(fh).writerow(repeat(rows[1]))
    err = _assert_usage_error(capsys, ["prepare", "--scenario", str(tmp_path / "scen"),
                                       "--out", str(tmp_path / "o")])
    assert f"{name} line {len(rows) + 1}: {message}{rows[1][0]}" in err


def test_road_status_missing_row_exits_2(workspace, tmp_path, capsys):
    # the missing pair exited 4 naming neither the file nor the timestamp
    shutil.copytree(workspace / "scen", tmp_path / "scen")
    path = tmp_path / "scen" / "road_status.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows[:1] + rows[2:])
    err = _assert_usage_error(capsys, ["prepare", "--scenario", str(tmp_path / "scen"),
                                       "--out", str(tmp_path / "o")])
    assert f"road_status.csv: no row for node {rows[1][0]} at {rows[1][1]}" in err


def _respace_road_status(path, seconds, offset):
    """Put the i-th distinct timestamp of road_status.csv ``i * seconds`` after the
    first, and move the second one by ``offset`` seconds more."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    stamps = sorted({parse_utc(row[1]) for row in rows[1:]})
    moved = {t: stamps[0] + i * seconds + (offset if i == 1 else 0.0)
             for i, t in enumerate(stamps)}
    for row in rows[1:]:
        row[1] = datetime.fromtimestamp(moved[parse_utc(row[1])], tz=timezone.utc).isoformat()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# each ended in a KeyError traceback (exit 1): 90 s and 20 s steps round to a grid
# of 2 and 0 minutes, and a 5 ms offset passes TimeGrid's evenness check
@pytest.mark.parametrize("seconds,offset", [(90, 0.0), (20, 0.0), (1800, 0.005)],
                         ids=["90s_steps", "20s_steps", "5ms_off_grid"])
def test_road_status_off_a_whole_minute_grid_exits_2(workspace, tmp_path, capsys,
                                                      seconds, offset):
    shutil.copytree(workspace / "scen", tmp_path / "scen")
    _respace_road_status(tmp_path / "scen" / "road_status.csv", seconds, offset)
    err = _assert_usage_error(capsys, ["prepare", "--scenario", str(tmp_path / "scen"),
                                       "--out", str(tmp_path / "o")])
    assert "road_status.csv" in err and "whole-minute" in err


# N and T swapped keep the payload length N*T*(8C+1) and its digest: the container
# loaded as a 96-unit, 12-step tensor
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_dataset_header_that_disagrees_with_its_sidecar_exits_2(workspace, tmp_path,
                                                                 capsys, command):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    raw = (data / "dataset.bin").read_bytes()
    assert raw.startswith(b"FLOODNOWCAST-DATASET 3 12 6 96\n")
    (data / "dataset.bin").write_bytes(raw.replace(b" 12 6 96", b" 96 6 12", 1))
    extra = (["--config", str(workspace / "train.json")] if command == "train"
             else ["--weights", str(workspace / "run" / "weights.bin")])
    err = _assert_usage_error(capsys, [command, "--dataset", str(data), *extra,
                                       "--out", str(tmp_path / "o")])
    assert "dataset.bin" in err and "sidecar" in err


# -- graph.bin: built once by `prepare`, loaded by every later command ------------------


def test_commands_after_prepare_do_not_rebuild_the_graph(workspace, tmp_path, monkeypatch):
    calls = Counter()
    build = RegionGraph.build.__func__

    def counting(cls, *args, **kwargs):
        calls[command] += 1
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(RegionGraph, "build", classmethod(counting))
    data, weights = workspace / "data", str(workspace / "run" / "weights.bin")
    for command, argv in [
            ("prepare", ["--scenario", str(workspace / "scen"), "--train-steps", "60"]),
            ("train", ["--dataset", str(data), "--config", str(workspace / "train.json")]),
            ("tune", ["--dataset", str(data), "--config", str(workspace / "train.json")]),
            ("evaluate", ["--dataset", str(data), "--weights", weights]),
            ("predict", ["--dataset", str(data), "--weights", weights])]:
        assert main([command, *argv, "--out", str(tmp_path / command)]) == 0
    assert calls == Counter({"prepare": 1})


def test_manifests_list_the_graph_checksum(workspace, tmp_path):
    graph_bin = str(workspace / "data" / "graph.bin")
    digest = hashlib.sha256((workspace / "data" / "graph.bin").read_bytes()).hexdigest()
    prepared = json.loads((workspace / "data" / "manifest.json").read_text())
    assert prepared["outputs"]["graph.bin"] == digest
    manifests = [workspace / "run" / "manifest.json"]
    for command in ("evaluate", "predict"):
        assert main([command, "--dataset", str(workspace / "data"), "--weights",
                     str(workspace / "run" / "weights.bin"),
                     "--out", str(tmp_path / command)]) == 0
        manifests.append(tmp_path / command / "manifest.json")
    for manifest in manifests:
        assert json.loads(manifest.read_text())["inputs"][graph_bin] == digest


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_missing_graph_bin_exits_2(workspace, tmp_path, capsys, command):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    (data / "graph.bin").unlink()
    extra = (["--config", str(workspace / "train.json")] if command == "train"
             else ["--weights", str(workspace / "run" / "weights.bin")])
    err = _assert_usage_error(capsys, [command, "--dataset", str(data), *extra,
                                       "--out", str(tmp_path / "o")])
    assert "graph.bin" in err and "prepare" in err


def test_graph_bin_payload_bit_flip_exits_4(workspace, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    raw = bytearray((data / "graph.bin").read_bytes())
    raw[raw.index(b"\n") + 100] ^= 0x01
    (data / "graph.bin").write_bytes(bytes(raw))
    assert main(["evaluate", "--dataset", str(data), "--weights",
                 str(workspace / "run" / "weights.bin"), "--out", str(tmp_path / "e")]) == 4
    err = capsys.readouterr().err
    assert "checksum mismatch" in err and "graph.bin" in err and "Traceback" not in err


def _truncate(data):
    (data / "graph.bin").write_bytes((data / "graph.bin").read_bytes()[:-8])


def _list_header(data):
    payload = (data / "graph.bin").read_bytes().split(b"\n", 1)[1]
    (data / "graph.bin").write_bytes(b"[1]\n" + payload)


def _other_node_ids(data):
    nodes = load_nodes_csv(data / "nodes.csv")
    RegionGraph.build(nodes[::-1]).save(data / "graph.bin")


@pytest.mark.parametrize("change", [_truncate, _list_header, _other_node_ids])
def test_malformed_graph_bin_exits_2(workspace, tmp_path, capsys, change):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    change(data)
    err = _assert_usage_error(capsys, ["evaluate", "--dataset", str(data), "--weights",
                                       str(workspace / "run" / "weights.bin"),
                                       "--out", str(tmp_path / "e")])
    assert "graph.bin" in err


# -- hand-edited sidecars and headers --------------------------------------------------


def _edit_sidecar(text):
    return lambda data, weights: (data / "dataset.bin.json").write_text(text(
        json.loads((data / "dataset.bin.json").read_text())))


def _edit_weights_config(config):
    def edit(data, weights):
        header, payload = weights.read_bytes().split(b"\n", 1)
        header = json.loads(header)
        header["config"] = config(header["config"])
        weights.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    return edit


@pytest.mark.parametrize("edit,where,key", [
    (_edit_sidecar(lambda s: "[1]"), "dataset.bin.json", "JSON object"),
    (_edit_sidecar(lambda s: "{not json"), "dataset.bin.json", "JSON"),
    (_edit_sidecar(lambda s: json.dumps({k: v for k, v in s.items() if k != "grid"})),
     "dataset.bin.json", "'grid'"),
    (_edit_weights_config(lambda c: {k: v for k, v in c.items() if k != "channels"}),
     "weights.bin", "'config.channels'"),
    (_edit_weights_config(lambda c: list(c)), "weights.bin", "config"),
], ids=["sidecar_list", "sidecar_not_json", "sidecar_without_grid",
        "config_without_channels", "config_list"])
def test_hand_edited_sidecar_or_header_exits_2(workspace, tmp_path, capsys, edit, where, key):
    data = tmp_path / "data"
    shutil.copytree(workspace / "data", data)
    weights = tmp_path / "weights.bin"
    shutil.copyfile(workspace / "run" / "weights.bin", weights)
    edit(data, weights)
    err = _assert_usage_error(capsys, ["evaluate", "--dataset", str(data), "--weights",
                                       str(weights), "--out", str(tmp_path / "e")])
    assert where in err and key in err
