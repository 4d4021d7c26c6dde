"""Output checks for the benchmark's CLI runs.

Every check compares an output with a computation made apart from the
program (labels from ``road_status.csv``, metrics from ``predictions.csv``,
the numpy reference of :mod:`reference`) or with a property the method must
have (row-stochastic probabilities, a z-scored training span, the spectral
definition of the Chebyshev basis). A failing check raises
:class:`CheckFailed` naming the output and the first mismatch.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime
from pathlib import Path

import numpy as np

import reference

NO_FLOOD_BELOW = 0.01    # documented class thresholds on the flooded-road fraction
SEVERE_ABOVE = 0.10


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- readers made apart from the program ----------------------------------------------


def read_dataset(path: str | Path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Values (N, C, T), labels (N, T) and sidecar of a dataset container."""
    raw = Path(path).read_bytes()
    line, _, payload = raw.partition(b"\n")
    magic, _version, n, c, t = line.decode().split()
    n, c, t = int(n), int(c), int(t)
    _require(magic == "FLOODNOWCAST-DATASET", f"{path}: bad magic {magic!r}")
    size = n * c * t * 8 + n * t
    _require(len(payload) == size, f"{path}: payload is {len(payload)} bytes, "
             f"header says {size}")
    values = np.frombuffer(payload[:n * c * t * 8], dtype="<f8").reshape(n, c, t)
    labels = np.frombuffer(payload[n * c * t * 8:], dtype=np.uint8).reshape(n, t)
    sidecar = json.loads(Path(f"{path}.json").read_text())
    return values, labels.astype(np.int64), sidecar


def labels_from_road_status(path: str | Path, node_ids: list[str]) -> np.ndarray:
    """(N, T) classes from flooded fractions: <0.01 none, <=0.10 moderate, else severe."""
    index = {nid: i for i, nid in enumerate(node_ids)}
    rows = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.append((index[row["node_id"]],
                         datetime.fromisoformat(row["timestamp"]).timestamp(),
                         float(row["flooded_fraction"])))
    stamps = sorted({r[1] for r in rows})
    col = {s: j for j, s in enumerate(stamps)}
    frac = np.full((len(node_ids), len(stamps)), np.nan)
    for i, s, f in rows:
        frac[i, col[s]] = f
    _require(not np.isnan(frac).any(), f"{path}: missing (node, step) rows")
    return np.where(frac < NO_FLOOD_BELOW, 0, np.where(frac <= SEVERE_ABOVE, 1, 2))


def read_predictions(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Node ids, timesteps, (rows, 3) probabilities and predicted classes."""
    with open(path) as fh:
        header = fh.readline().strip()
        _require(header == "node_id,timestep,prob_no,prob_moderate,prob_severe,pred_class",
                 f"{path}: header {header!r}")
        parts = [line.rstrip("\n").split(",") for line in fh]
    ids = [p[0] for p in parts]
    steps = np.array([int(p[1]) for p in parts], dtype=np.int64)
    probs = np.array([[float(v) for v in p[2:5]] for p in parts]).reshape(-1, 3)
    pred = np.array([int(p[5]) for p in parts], dtype=np.int64)
    return ids, steps, probs, pred


# -- checks -------------------------------------------------------------------------------


def check_labels(dataset_labels: np.ndarray, road_status: str | Path,
                 node_ids: list[str]) -> None:
    expected = labels_from_road_status(road_status, node_ids)
    _require(expected.shape == dataset_labels.shape,
             f"labels shape {dataset_labels.shape}, road_status gives {expected.shape}")
    bad = np.argwhere(expected != dataset_labels)
    _require(bad.size == 0, f"dataset label differs from road_status at (node, step) "
             f"{tuple(bad[0]) if bad.size else ()}")


def check_normalization(values: np.ndarray, train_steps: int, tol: float = 1e-9) -> None:
    """Each channel is z-scored over the training span, or constant there."""
    for c in range(values.shape[1]):
        span = values[:, c, :train_steps]
        if np.ptp(span) == 0.0:
            continue
        mean, std = float(span.mean()), float(span.std())
        _require(abs(mean) <= tol and abs(std - 1.0) <= tol,
                 f"channel {c}: training-span mean {mean:.3e}, std {std:.12f}")


def check_graph(graph, adjacency_csv: str | Path, nodes_csv: str | Path) -> None:
    """adjacency.csv matches the documented kernel; lambda_max and T_2 are spectral."""
    ids, xy, numeric, sheds = reference.read_nodes(nodes_csv)
    expected = reference.adjacency(xy, numeric, sheds)
    index = {nid: i for i, nid in enumerate(ids)}
    written = np.zeros_like(expected)
    with open(adjacency_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            i, j = index[row["id_i"]], index[row["id_j"]]
            written[i, j] = written[j, i] = float(row["weight"])
    err = float(np.abs(written - expected).max())
    _require(err <= 1e-12, f"adjacency.csv differs from the kernel formula by {err:.3e}")
    err = float(np.abs(graph.adjacency - expected).max())
    _require(err <= 1e-12, f"graph adjacency differs from the kernel formula by {err:.3e}")

    lap = np.asarray(graph.laplacian)
    lam = float(np.linalg.eigvalsh(lap)[-1])
    _require(abs(graph.lambda_max - lam) <= 1e-6 * lam,
             f"lambda_max {graph.lambda_max!r}, eigvalsh gives {lam!r}")
    n = lap.shape[0]
    scaled = (2.0 / graph.lambda_max) * lap - np.eye(n)
    err = float(np.abs(np.asarray(graph.scaled_laplacian) - scaled).max())
    _require(err <= 1e-12, f"scaled Laplacian differs from 2L/lambda - I by {err:.3e}")
    if len(graph.cheb_basis) > 2:
        t2 = 2.0 * scaled @ scaled - np.eye(n)
        err = float(np.abs(np.asarray(graph.cheb_basis[2]) - t2).max())
        _require(err <= 1e-10, f"T_2 differs from 2 L~^2 - I by {err:.3e}")


def check_predictions(path: str | Path, node_ids: list[str], ends: np.ndarray,
                      horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Row layout, row-stochastic probabilities and argmax classes.

    Returns probabilities (windows, N, 3) and predicted classes (windows, N).
    """
    ids, steps, probs, pred = read_predictions(path)
    n = len(node_ids)
    _require(ids == node_ids * len(ends),
             f"{path}: node ids are not {len(ends)} windows x {n} nodes in order")
    _require(np.array_equal(steps, np.repeat(ends + horizon, n)),
             f"{path}: timesteps do not follow the test windows")
    _require(np.all(probs >= 0.0), f"{path}: negative probability")
    worst = float(np.abs(probs.sum(axis=1) - 1.0).max())
    _require(worst <= 1e-9, f"{path}: a probability row sums to 1 {worst:+.3e}")
    _require(np.array_equal(pred, np.argmax(probs, axis=1)),
             f"{path}: pred_class is not the argmax of its row")
    return probs.reshape(len(ends), n, 3), pred.reshape(len(ends), n)


def macro_scores(pred: np.ndarray, labels: np.ndarray, m: int = 3) -> dict:
    """Confusion-matrix precision/recall/F1 per class and their macro means."""
    counts = np.zeros((m, m), dtype=np.int64)
    np.add.at(counts, (labels.ravel(), pred.ravel()), 1)
    tp = np.diag(counts).astype(float)
    col, row = counts.sum(axis=0), counts.sum(axis=1)
    prec = [tp[i] / col[i] if col[i] else 0.0 for i in range(m)]
    rec = [tp[i] / row[i] if row[i] else 0.0 for i in range(m)]
    f1 = [2 * p * r / (p + r) if p + r else 0.0 for p, r in zip(prec, rec)]
    return {"precision": prec, "recall": rec, "f1": f1, "support": row.tolist(),
            "macro_precision": sum(prec) / m, "macro_recall": sum(rec) / m,
            "macro_f1": sum(f1) / m, "accuracy": tp.sum() / counts.sum()}


def check_metrics(path: str | Path, pred: np.ndarray, labels: np.ndarray) -> None:
    """metrics.json equals the scores recomputed from predictions and labels."""
    got = json.loads(Path(path).read_text())
    want = macro_scores(pred, labels)
    pairs = [(got[k], want[k]) for k in ("macro_precision", "macro_recall", "macro_f1",
                                         "accuracy")]
    pairs += [(got["per_class"][k][i], want[k][i]) for k in ("precision", "recall", "f1")
              for i in range(3)]
    worst = max(abs(a - b) for a, b in pairs)
    _require(worst <= 1e-12, f"{path}: differs from recomputed scores by {worst:.3e}")
    _require(got["per_class"]["support"] == want["support"],
             f"{path}: support {got['per_class']['support']}, recomputed {want['support']}")


def check_weights(path: str | Path) -> None:
    try:
        reference.read_weights(path)
    except ValueError as exc:
        raise CheckFailed(str(exc)) from exc


def check_close(name: str, got: np.ndarray, want: np.ndarray, tol: float = 1e-7) -> None:
    err = float(np.abs(np.asarray(got) - np.asarray(want)).max())
    _require(err <= tol, f"{name}: differs from the reference by {err:.3e} (tolerance {tol})")


def check_gradients(analytic: dict[str, np.ndarray], weights: dict[str, np.ndarray],
                    loss, rng: np.random.Generator, coords: int = 16,
                    eps: float = 1e-6) -> None:
    """Tape gradients against central differences of the reference loss.

    ``loss(weights)`` is the reference loss; ``analytic`` the program's
    gradients by parameter name. Coordinates are drawn with ``rng``.
    """
    names = sorted(weights)
    for _ in range(coords):
        name = names[rng.integers(len(names))]
        flat = weights[name].reshape(-1)
        i = int(rng.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss(weights)
        flat[i] = orig - eps
        lo = loss(weights)
        flat[i] = orig
        fd = (hi - lo) / (2.0 * eps)
        a = float(analytic[name].reshape(-1)[i])
        _require(abs(a - fd) <= 1e-5 * max(abs(a), abs(fd)) + 1e-8,
                 f"gradient {name}[{i}]: tape {a:.10e}, central difference {fd:.10e}")
