"""floodnowcast benchmark: CLI workloads, end-to-end metrics, traced layers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload acceptance-50 --seed 1 --seconds 50 --trace 0

One process, closed loop, one caller: set-up generates the scenario five
times (``setup_s`` is the median), then whole rounds of ``prepare -> train
-> nowcasts -> evaluate -> nowcasts -> predict -> nowcasts`` run
in-process, the commands through ``floodnowcast.cli.main`` and the nowcasts
through ``model.forward`` on the round's weights, until the next round would
end past ``--seconds``, and at least twice. Each metric is the median over the run's samples, which are
spread over the run because the machine's speed drifts from second to
second. BLAS threads stay at the user's default.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one round
untraced, then traced rounds, and prints the per-layer metrics of
``BENCHMARK.json`` plus ``trace.overhead_pct``, the traced round's extra
wall time over the untraced one. Every run checks the outputs (see
``checks.py``) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Work files go to
``.perfbench/<workload>/`` under the repository root and are removed at the
end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
BURSTS = 3              # nowcast bursts per round, one after each command that follows train
MIN_ROUNDS = 2
T_IN, HORIZON, VALIDATION_FRACTION = 12, 1, 0.15    # the CLI's model/train defaults


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload; BENCHMARK.json says why each was chosen."""

    n_nodes: int
    n_steps: int
    train_steps: int
    epochs: int
    burst: int                         # batch-1 nowcast calls per burst
    scenario_seed: Optional[int] = None   # None: the scenario follows --seed


WORKLOADS = {
    "acceptance-50": Workload(
        n_nodes=50, n_steps=480, train_steps=288, epochs=1, burst=60),
    "tracts-256": Workload(
        n_nodes=256, n_steps=72, train_steps=40, epochs=1, burst=40, scenario_seed=0),
}


def _windows(w: Workload) -> tuple[np.ndarray, np.ndarray]:
    """Gradient-window count and test window ends, as documented in ``training``."""
    ends = np.arange(T_IN - 1, w.n_steps - HORIZON)
    val_span = max(1, int(round(VALIDATION_FRACTION * w.train_steps)))
    grad = ends[ends + HORIZON <= w.train_steps - val_span - 1]
    return grad, ends[ends >= w.train_steps]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """One benchmark run: set-up, timed rounds, output checks."""

    def __init__(self, name: str, seed: int, work: Path):
        from floodnowcast import cli
        self.cli = cli
        self.w, self.seed, self.work = WORKLOADS[name], seed, work
        self.grad_ends, self.test_ends = _windows(self.w)
        rng = np.random.default_rng(seed)
        self.nowcast_ends = rng.choice(self.test_ends, size=BURSTS * self.w.burst)
        self.attempted = self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.digests: Optional[dict] = None
        self.bytes_written = 0
        self.devnull = open(os.devnull, "w")

    def close(self) -> None:
        self.devnull.close()

    def _add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def _command(self, *argv: str) -> float:
        """Run one CLI command in-process; its wall time in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(self.devnull):
                code = self.cli.main(list(argv))
        except Exception as exc:     # a traceback out of the CLI is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            raise RuntimeError(f"`{' '.join(argv[:1])}` failed: {code}")
        return elapsed

    # -- set-up ----------------------------------------------------------------------

    def setup(self) -> None:
        w = self.w
        scenario_seed = self.seed if w.scenario_seed is None else w.scenario_seed
        config = self.work / "scenario.json"
        config.write_text(json.dumps({"n_nodes": w.n_nodes, "n_timesteps": w.n_steps,
                                      "seed": scenario_seed}))
        (self.work / "train.json").write_text(json.dumps({
            "train": {"learning_rate": 3e-3, "dropout_rate": 0.0, "epochs": w.epochs,
                      "batch_size": 16, "patience": 0, "seed": self.seed},
            "model": {"channels": [32, 32, 32], "k": 3, "t_in": T_IN, "horizon": HORIZON}}))
        times = []
        for _ in range(SETUP_REPEATS):
            out = self.work / "scenario"
            shutil.rmtree(out, ignore_errors=True)
            times.append(self._command("generate", "--config", str(config),
                                       "--out", str(out)))
        self.attempted -= SETUP_REPEATS      # set-up is not a measured operation
        self._add("setup_s", statistics.median(times))

    # -- one round -----------------------------------------------------------------------

    def round(self, index: int) -> None:
        from floodnowcast import graph, model, pipeline
        rd = self.work / f"round{index}"
        trained, evaluated, predicted = rd / "model", rd / "eval", rd / "pred"
        weights = str(trained / "weights.bin")
        data = rd / "data"
        self._command("prepare", "--scenario", str(self.work / "scenario"),
                      "--train-steps", str(self.w.train_steps), "--out", str(data))
        self._add("train_windows_per_s", len(self.grad_ends) * self.w.epochs / self._command(
            "train", "--dataset", str(data), "--config", str(self.work / "train.json"),
            "--out", str(trained)))

        # a nowcast session: parameters, features and graph loaded once
        params = model.load_weights(weights)
        ft = pipeline.load_dataset(data / "dataset.bin")
        region = graph.RegionGraph.build(graph.load_nodes_csv(data / "nodes.csv"))
        self.session = (params, ft, region)
        self.nowcast_probs = []
        self._nowcasts(0)
        self._add("evaluate_windows_per_s", len(self.test_ends) / self._command(
            "evaluate", "--dataset", str(data), "--weights", weights,
            "--out", str(evaluated)))
        self._nowcasts(1)
        self._add("predict_windows_per_s", len(self.test_ends) / self._command(
            "predict", "--dataset", str(data), "--weights", weights,
            "--out", str(predicted)))
        self._nowcasts(2)
        self.bytes_written = sum(p.stat().st_size for p in rd.rglob("*") if p.is_file())

        digests = {p: _sha256(rd / p) for p in ("data/dataset.bin", "model/weights.bin",
                                                 "eval/metrics.json", "pred/predictions.csv")}
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            raise RuntimeError(f"round {index} outputs differ from round 0: "
                               f"{sorted(k for k in digests if digests[k] != self.digests[k])}")
        self.last_round, self.last_data = rd, data

    def _nowcasts(self, burst: int) -> None:
        """One burst of batch-1 nowcasts: one window, all units, parameters loaded."""
        from floodnowcast import model
        params, ft, region = self.session
        for t in self.nowcast_ends[burst * self.w.burst:(burst + 1) * self.w.burst]:
            x = ft.values[:, :, t - T_IN + 1:t + 1]
            self.attempted += 1
            start = time.perf_counter()
            try:
                _, probs = model.forward(x, region, params, training=False)
            except Exception:
                self.failed += 1
                raise
            self._add("nowcast_ms", 1000.0 * (time.perf_counter() - start))
            self.nowcast_probs.append(probs.data)

    # -- output checks -------------------------------------------------------------------

    def check(self) -> None:
        import checks
        import reference
        from floodnowcast import model
        from floodnowcast.tensor import Tape
        from floodnowcast.training import cross_entropy

        rd, data = self.last_round, self.last_data
        params, ft, region = self.session
        values, labels, sidecar = checks.read_dataset(data / "dataset.bin")
        node_ids = sidecar["node_ids"]
        true_labels = checks.labels_from_road_status(
            self.work / "scenario/road_status.csv", node_ids)
        checks.check_labels(labels, self.work / "scenario/road_status.csv", node_ids)
        checks.check_normalization(values, sidecar["train_steps"])
        checks.check_graph(region, data / "adjacency.csv", data / "nodes.csv")
        checks.check_weights(rd / "model/weights.bin")
        probs, pred = checks.check_predictions(rd / "pred/predictions.csv", node_ids,
                                               self.test_ends, HORIZON)
        window_labels = true_labels[:, self.test_ends + HORIZON].T
        checks.check_metrics(rd / "eval/metrics.json", pred, window_labels)
        checks.check_metrics(rd / "model/metrics.json", pred, window_labels)

        _, xy, numeric, sheds = reference.read_nodes(data / "nodes.csv")
        basis = reference.chebyshev(reference.laplacian(
            reference.adjacency(xy, numeric, sheds)), k=3)
        _, ref_weights = reference.read_weights(rd / "model/weights.bin")
        blocks = len(params.config.channels)
        rng = np.random.default_rng(self.seed + 1)
        picks = rng.choice(len(self.test_ends), size=4, replace=False)
        x = np.stack([values[:, :, t - T_IN + 1:t + 1] for t in self.test_ends[picks]])
        checks.check_close("predictions.csv", probs[picks],
                           reference.probabilities(x, ref_weights, basis, blocks))
        now_x = np.stack([values[:, :, t - T_IN + 1:t + 1] for t in self.nowcast_ends[:4]])
        ref_now = reference.probabilities(now_x, ref_weights, basis, blocks)
        checks.check_close("batch-1 nowcasts", np.stack(self.nowcast_probs[:4]), ref_now)
        row = {t: i for i, t in enumerate(self.test_ends)}
        checks.check_close("nowcasts vs predictions.csv",
                           np.stack(self.nowcast_probs[:4]),
                           probs[[row[t] for t in self.nowcast_ends[:4]]])

        grad_x = np.stack([values[:, :, t - T_IN + 1:t + 1] for t in self.grad_ends[:2]])
        grad_y = true_labels[:, self.grad_ends[:2] + HORIZON].T
        with Tape() as tape:
            logits, _ = model.forward(grad_x, region, params, training=False)
            loss = cross_entropy(logits, grad_y)
        tape.backward(loss)
        analytic = {name: t.grad for name, t in model.named_parameters(params)}
        checks.check_gradients(
            analytic, ref_weights,
            lambda wts: reference.mean_nll(grad_x, grad_y, wts, basis, blocks), rng)


def _median_metrics(runner: Runner) -> dict[str, float]:
    s = runner.samples
    return {
        "setup_s": s["setup_s"][0],
        "train_windows_per_s": statistics.median(s["train_windows_per_s"]),
        "evaluate_windows_per_s": statistics.median(s["evaluate_windows_per_s"]),
        "predict_windows_per_s": statistics.median(s["predict_windows_per_s"]),
        "nowcast_p50_ms": statistics.median(s["nowcast_ms"]),
    }


UNITS = {"setup_s": "s", "train_windows_per_s": "windows/s",
         "evaluate_windows_per_s": "windows/s", "predict_windows_per_s": "windows/s",
         "nowcast_p50_ms": "ms", "peak_rss_mib": "MiB"}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"tensor.matmul_gflop": "GFLOP", "tensor.tape_ops_per_step": "ops/step",
            "cli.bytes_written": "bytes", "trace.overhead_pct": "%"}.get(name, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "floodnowcast" / "cli.py").is_file():
        print(f"error: no floodnowcast sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import floodnowcast
    if Path(floodnowcast.__file__).resolve().parent != (src / "floodnowcast").resolve():
        print(f"error: imported floodnowcast from {floodnowcast.__file__}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work)
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        runner.setup()
        rounds: list[float] = []
        traced: list[float] = []
        layers: list[dict] = []
        start = time.perf_counter()
        while True:
            trace_this = bool(args.trace) and len(rounds) > 0
            t0 = time.perf_counter()
            if trace_this:
                from tracing import Tracer, layer_metrics
                with Tracer() as tracer:
                    runner.round(len(rounds) + len(traced))
                traced.append(time.perf_counter() - t0)
                layers.append({**layer_metrics(tracer),
                               "cli.bytes_written": runner.bytes_written})
            else:
                runner.round(len(rounds) + len(traced))
                rounds.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            typical = statistics.median(traced or rounds)
            enough = traced if args.trace else len(rounds) >= MIN_ROUNDS
            if enough and elapsed + typical > args.seconds:
                break
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.check()
        if args.trace:
            metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(traced) / statistics.median(rounds) - 1.0)
            metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in metrics.items()}
        else:
            metrics = {**_median_metrics(runner), "peak_rss_mib": peak_rss}
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
        result = {"correct": True, "metrics": metrics}
        print(f"{args.workload}: {len(rounds)} untraced and {len(traced)} traced round(s)",
              file=sys.stderr)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        result["correct"] = False
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    result["attempted"], result["failed"] = runner.attempted, runner.failed
    result = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
