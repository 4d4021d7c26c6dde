"""Each output check passes on real CLI outputs and fails on a corrupted copy.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import json
import shutil

import numpy as np
import pytest

import checks
import reference
from floodnowcast import cli
from floodnowcast.graph import RegionGraph, load_nodes_csv
from floodnowcast.model import forward, load_weights, named_parameters
from floodnowcast.tensor import Tape
from floodnowcast.training import cross_entropy

T_IN, HORIZON, TRAIN_STEPS, N_STEPS = 12, 1, 36, 60


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A tiny scenario taken through prepare, train, evaluate and predict."""
    root = tmp_path_factory.mktemp("chain")
    (root / "scenario.json").write_text(json.dumps(
        {"n_nodes": 10, "n_timesteps": N_STEPS, "seed": 5}))
    (root / "train.json").write_text(json.dumps(
        {"train": {"epochs": 1, "batch_size": 8, "seed": 5}, "model": {"channels": [4, 4]}}))
    commands = [
        ["generate", "--config", str(root / "scenario.json"), "--out", str(root / "scen")],
        ["prepare", "--scenario", str(root / "scen"), "--train-steps", str(TRAIN_STEPS),
         "--out", str(root / "data")],
        ["train", "--dataset", str(root / "data"), "--config", str(root / "train.json"),
         "--out", str(root / "model")],
        ["evaluate", "--dataset", str(root / "data"), "--weights",
         str(root / "model/weights.bin"), "--out", str(root / "eval")],
        ["predict", "--dataset", str(root / "data"), "--weights",
         str(root / "model/weights.bin"), "--out", str(root / "pred")],
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    values, labels, sidecar = checks.read_dataset(root / "data/dataset.bin")
    test_ends = np.arange(TRAIN_STEPS, N_STEPS - HORIZON)
    return {"root": root, "values": values, "labels": labels, "ids": sidecar["node_ids"],
            "test_ends": test_ends,
            "graph": RegionGraph.build(load_nodes_csv(root / "data/nodes.csv"))}


def _copy(run, tmp_path, rel):
    dst = tmp_path / rel.replace("/", "_")
    shutil.copyfile(run["root"] / rel, dst)
    return dst


def _fails(fn, *args, **kwargs):
    with pytest.raises(checks.CheckFailed):
        fn(*args, **kwargs)


def test_dataset_container(run, tmp_path):
    bad = _copy(run, tmp_path, "data/dataset.bin")
    shutil.copyfile(run["root"] / "data/dataset.bin.json", f"{bad}.json")
    raw = bad.read_bytes()
    bad.write_bytes(raw[:-1])
    _fails(checks.read_dataset, bad)
    bad.write_bytes(raw.replace(b"FLOODNOWCAST-DATASET", b"FLOODNOWCAST-DATASEX", 1))
    _fails(checks.read_dataset, bad)


def test_labels(run, tmp_path):
    road = run["root"] / "scen/road_status.csv"
    checks.check_labels(run["labels"], road, run["ids"])
    flipped = run["labels"].copy()
    flipped[3, 20] = (flipped[3, 20] + 1) % 3
    _fails(checks.check_labels, flipped, road, run["ids"])
    _fails(checks.check_labels, run["labels"][:, :-1], road, run["ids"])
    short = _copy(run, tmp_path, "scen/road_status.csv")
    lines = short.read_text().splitlines()
    short.write_text("\n".join(lines[:7] + lines[8:]) + "\n")
    _fails(checks.labels_from_road_status, short, run["ids"])


def test_normalization(run):
    checks.check_normalization(run["values"], TRAIN_STEPS)
    scaled = run["values"].copy()
    scaled[:, 1, :] *= 1.001
    _fails(checks.check_normalization, scaled, TRAIN_STEPS)
    shifted = run["values"].copy()
    shifted[:, 0, :] += 1e-6
    _fails(checks.check_normalization, shifted, TRAIN_STEPS)


def test_graph(run, tmp_path):
    nodes = run["root"] / "data/nodes.csv"
    adjacency = run["root"] / "data/adjacency.csv"
    graph = run["graph"]
    checks.check_graph(graph, adjacency, nodes)

    bad_csv = _copy(run, tmp_path, "data/adjacency.csv")
    lines = bad_csv.read_text().splitlines()
    i, j, w = lines[1].split(",")
    lines[1] = f"{i},{j},{float(w) * (1 + 1e-9)!r}"
    bad_csv.write_text("\n".join(lines) + "\n")
    _fails(checks.check_graph, graph, bad_csv, nodes)

    moved = graph.adjacency.copy()
    moved[0, 1] = moved[1, 0] = moved[0, 1] + 1e-9
    _fails(checks.check_graph, dataclasses.replace(graph, adjacency=moved), adjacency, nodes)

    # a wrong lambda_max with a scaled Laplacian and basis consistent with it
    lam = graph.lambda_max * 1.001
    eye = np.eye(graph.n_nodes)
    scaled = (2.0 / lam) * graph.laplacian - eye
    consistent = dataclasses.replace(graph, lambda_max=lam, scaled_laplacian=scaled,
                                     cheb_basis=(eye, scaled, 2.0 * scaled @ scaled - eye))
    _fails(checks.check_graph, consistent, adjacency, nodes)
    _fails(checks.check_graph,
           dataclasses.replace(graph, scaled_laplacian=graph.scaled_laplacian + 1e-9 * eye),
           adjacency, nodes)
    basis = list(graph.cheb_basis)
    basis[2] = basis[2] + 1e-8 * eye
    _fails(checks.check_graph, dataclasses.replace(graph, cheb_basis=tuple(basis)),
           adjacency, nodes)


def test_predictions(run, tmp_path):
    args = (run["ids"], run["test_ends"], HORIZON)
    checks.check_predictions(run["root"] / "pred/predictions.csv", *args)
    original = (run["root"] / "pred/predictions.csv").read_text().splitlines()

    def corrupt(edit):
        path = tmp_path / "predictions.csv"
        fields = original[5].split(",")
        edit(fields)
        path.write_text("\n".join(original[:5] + [",".join(fields)] + original[6:]) + "\n")
        return path

    def unnormalized(f):
        f[2] = repr(float(f[2]) + 1e-6)

    def not_argmax(f):
        f[5] = str((int(f[5]) + 1) % 3)

    def negative(f):
        # negates the smallest class and adds twice it to the largest: same sum and argmax
        p = [float(v) for v in f[2:5]]
        lo, hi = int(np.argmin(p)), int(np.argmax(p))
        p[hi] += 2 * p[lo]
        p[lo] = -p[lo]
        f[2:5] = [repr(v) for v in p]

    def wrong_step(f):
        f[1] = str(int(f[1]) + 1)

    def wrong_node(f):
        f[0] = "elsewhere"

    for edit in (unnormalized, not_argmax, negative, wrong_step, wrong_node):
        _fails(checks.check_predictions, corrupt(edit), *args)
    truncated = tmp_path / "truncated.csv"
    truncated.write_text("\n".join(original[:-1]) + "\n")
    _fails(checks.check_predictions, truncated, *args)
    renamed = tmp_path / "renamed.csv"
    renamed.write_text("\n".join([original[0].replace("pred_class", "class")] + original[1:])
                       + "\n")
    _fails(checks.check_predictions, renamed, *args)


def test_metrics(run, tmp_path):
    _, pred = checks.check_predictions(run["root"] / "pred/predictions.csv", run["ids"],
                                       run["test_ends"], HORIZON)
    labels = checks.labels_from_road_status(run["root"] / "scen/road_status.csv",
                                            run["ids"])[:, run["test_ends"] + HORIZON].T
    for rel in ("eval/metrics.json", "model/metrics.json"):
        checks.check_metrics(run["root"] / rel, pred, labels)
    bad = _copy(run, tmp_path, "eval/metrics.json")
    report = json.loads(bad.read_text())
    report["macro_f1"] += 1e-9
    bad.write_text(json.dumps(report))
    _fails(checks.check_metrics, bad, pred, labels)
    report = json.loads((run["root"] / "eval/metrics.json").read_text())
    report["per_class"]["support"][0] += 1
    bad.write_text(json.dumps(report))
    _fails(checks.check_metrics, bad, pred, labels)
    flipped = pred.copy()
    flipped[0, 0] = (flipped[0, 0] + 1) % 3
    _fails(checks.check_metrics, run["root"] / "eval/metrics.json", flipped, labels)


def test_weights(run, tmp_path):
    checks.check_weights(run["root"] / "model/weights.bin")
    bad = _copy(run, tmp_path, "model/weights.bin")
    raw = bytearray(bad.read_bytes())
    raw[-3] ^= 0x01
    bad.write_bytes(bytes(raw))
    _fails(checks.check_weights, bad)


def _reference_inputs(run):
    _, xy, numeric, sheds = reference.read_nodes(run["root"] / "data/nodes.csv")
    basis = reference.chebyshev(reference.laplacian(reference.adjacency(xy, numeric, sheds)), 3)
    _, weights = reference.read_weights(run["root"] / "model/weights.bin")
    return basis, weights


def test_reference_forward(run):
    basis, weights = _reference_inputs(run)
    probs, _ = checks.check_predictions(run["root"] / "pred/predictions.csv", run["ids"],
                                        run["test_ends"], HORIZON)
    ends = run["test_ends"][[0, 5]]
    x = np.stack([run["values"][:, :, t - T_IN + 1:t + 1] for t in ends])
    ref = reference.probabilities(x, weights, basis, 2)
    checks.check_close("predictions.csv", probs[[0, 5]], ref)
    params = load_weights(run["root"] / "model/weights.bin")
    _, single = forward(x[1], run["graph"], params, training=False)
    checks.check_close("nowcast", single.data, ref[1])
    _fails(checks.check_close, "predictions.csv", probs[[0, 6]], ref)
    swapped = {**weights, "block1.phi": weights["block1.phi"].transpose(0, 2, 1)}
    _fails(checks.check_close, "predictions.csv", probs[[0, 5]],
           reference.probabilities(x, swapped, basis, 2))


def test_gradients(run):
    basis, weights = _reference_inputs(run)
    params = load_weights(run["root"] / "model/weights.bin")
    x = np.stack([run["values"][:, :, t - T_IN + 1:t + 1] for t in (11, 14)])
    y = run["labels"][:, [12, 15]].T
    with Tape() as tape:
        logits, _ = forward(x, run["graph"], params, training=False)
        loss = cross_entropy(logits, y)
    tape.backward(loss)
    analytic = {name: t.grad for name, t in named_parameters(params)}

    def ref_loss(w):
        return reference.mean_nll(x, y, w, basis, 2)

    checks.check_gradients(analytic, weights, ref_loss, np.random.default_rng(0), coords=40)
    wrong = {k: v * (1.0 + 1e-3) for k, v in analytic.items()}
    _fails(checks.check_gradients, wrong, weights, ref_loss, np.random.default_rng(0),
           coords=40)
