"""Command-line entry point wiring the library into reproducible runs.

Subcommands::

    generate   scenario config  -> scenario CSV directory
    prepare    scenario dir     -> dataset container + region graph (graph.bin)
    train      dataset + config -> checkpoint, history, test metrics
    tune       dataset + config -> leaderboard + best config
    evaluate   dataset + weights -> metrics report for one split
    predict    dataset + weights -> per-node class probabilities CSV
    gradcheck  (no inputs)      -> finite-difference gradient audit

Every run writes a ``manifest.json`` into its output directory recording the
command line, config paths, seeds, sha256 digests of inputs and outputs, the
tool version and wall-clock duration; identical inputs and seeds reproduce
identical output digests. Exit codes: 0 success, 2 usage/parse error, 3 I/O
failure, 4 numeric failure (non-finite values, divergence). Set the
``NOWCAST_LOG`` environment variable (debug/info/warning/error) to control
verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from . import __version__
from .errors import DomainError, UsageError, config_from, parse_header
from .graph import RegionGraph, graph_digest, load_nodes_csv, save_adjacency_csv
from .model import (
    ABLATIONS,
    ModelConfig,
    forward,  # unused here; kept importable where instrumentation wraps it
    load_weights,
    read_weights_header,
    save_weights,
)
from .pipeline import FeatureTensor, load_dataset, prepare_from_dir, save_dataset
from .scenario import ScenarioConfig, generate, physics_only
from .training import (
    GridConfig,
    TrainConfig,
    evaluate_windows,
    fit_windows,
    grid_configs,
    make_windows,
    model_gradient_check,
    predict_windows,
    train,
    tune,
    window_batch,  # unused here; kept importable where instrumentation wraps it
)

log = logging.getLogger(__name__)

CHANNEL_VIEWS = ("all", "physics-only")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_json(path: str | Path, what: str) -> dict:
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError as exc:
        raise UsageError(f"{what} file not found: {path}") from exc
    return parse_header(raw, {}, f"{what} file {path}")


def _section(cfg_all: dict, key: str) -> dict:
    section = cfg_all.get(key, {})
    if not isinstance(section, dict):
        raise UsageError(f"config section {key!r} must be a JSON object, got {section!r}")
    return section


class _Run:
    """Collects inputs/outputs and writes the manifest on success."""

    def __init__(self, command: str, out_dir: Path, argv: list[str],
                 config_paths: Optional[list[str]] = None,
                 seeds: Optional[dict] = None):
        self.command = command
        self.out_dir = out_dir
        self.argv = argv
        self.config_paths = config_paths or []
        self.seeds = seeds or {}
        self.inputs: dict[str, str] = {}
        self.started = time.time()

    def add_input(self, path: str | Path) -> None:
        path = Path(path)
        if path.is_file():
            self.inputs[str(path)] = _sha256(path)

    def add_input_dir(self, directory: str | Path) -> None:
        for path in sorted(Path(directory).glob("*")):
            if path.is_file():
                self.add_input(path)

    def finish(self) -> None:
        outputs = {}
        for path in sorted(self.out_dir.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                outputs[str(path.relative_to(self.out_dir))] = _sha256(path)
        manifest = {
            "command": self.command,
            "argv": self.argv,
            "config_paths": self.config_paths,
            "seeds": self.seeds,
            "inputs": self.inputs,
            "outputs": outputs,
            "version": __version__,
            "started_unix": self.started,
            "duration_seconds": time.time() - self.started,
        }
        with open(self.out_dir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed_flag(args) -> dict:
    return {} if args.seed is None else {"seed": args.seed}


def _load_features(dataset_dir: str, channels: str) -> FeatureTensor:
    directory = Path(dataset_dir)
    for name in ("dataset.bin", "graph.bin"):
        if not (directory / name).exists():
            raise UsageError(f"no {name} under {directory}; re-run `prepare` to write it")
    ft = load_dataset(directory / "dataset.bin")
    return physics_only(ft) if channels == "physics-only" else ft


def _dataset_digests(dataset_dir: str) -> dict:
    """The ``header_sha256`` of a dataset's sidecar and of its ``graph.bin``
    header, as the weights header records them; :func:`_load_features` checks
    the sidecar."""
    directory = Path(dataset_dir)
    return {"dataset_header_sha256": _load_json(directory / "dataset.bin.json",
                                                "dataset sidecar")["header_sha256"],
            "graph_header_sha256": graph_digest(directory / "graph.bin")}


def _load_graph(dataset_dir: str, ft: FeatureTensor, k: int, ablation: str) -> RegionGraph:
    directory = Path(dataset_dir)
    nodes = load_nodes_csv(directory / "nodes.csv")
    if [n.id for n in nodes] != ft.node_ids:
        raise UsageError("nodes.csv does not match the dataset's node ids")
    if ablation == "graph-off":
        return RegionGraph.edgeless(nodes, k=k)
    return RegionGraph.load(directory / "graph.bin", nodes, k=k)


# -- subcommands ----------------------------------------------------------------


def cmd_generate(args, argv) -> int:
    cfg = config_from(ScenarioConfig,
                      {**_load_json(args.config, "scenario config"), **_seed_flag(args)},
                      f"scenario config file {args.config}")
    out = _out_dir(args)
    run = _Run("generate", out, argv, [args.config], {"scenario": cfg.seed})
    run.add_input(args.config)
    dataset = generate(cfg, out)
    run.finish()
    print(f"scenario written to {out} (report correlation "
          f"{dataset.report_correlation:.3f}, attempt {dataset.attempt})")
    return 0


def cmd_prepare(args, argv) -> int:
    run = _Run("prepare", Path(args.out), argv)
    run.add_input_dir(args.scenario)
    ft = prepare_from_dir(args.scenario, train_steps=args.train_steps)
    out = _out_dir(args)   # only once the inputs have converted
    save_dataset(ft, out / "dataset.bin")
    src_nodes = Path(args.scenario) / "nodes.csv"
    if Path(args.scenario).resolve() != out.resolve():
        shutil.copyfile(src_nodes, out / "nodes.csv")
    graph = RegionGraph.build(load_nodes_csv(out / "nodes.csv"), k=ModelConfig.k)
    save_adjacency_csv(graph.node_ids, graph.adjacency, out / "adjacency.csv")
    graph.save(out / "graph.bin")
    run.finish()
    print(f"dataset prepared: {ft.n_nodes} nodes x {ft.n_steps} steps, "
          f"train span {ft.train_steps}")
    return 0


def _train_setup(args, cfg_all: dict):
    """The train config, dataset, model config and graph of `train` and `tune`.

    The dataset fixes the model's ``n_nodes`` and ``in_channels``.
    """
    source = f"train config file {args.config} section"
    train_cfg = config_from(TrainConfig, {**_section(cfg_all, "train"), **_seed_flag(args)},
                            f"{source} 'train'")
    ft = _load_features(args.dataset, args.channels)
    model_cfg = config_from(ModelConfig, _section(cfg_all, "model"), f"{source} 'model'",
                            n_nodes=ft.n_nodes, in_channels=ft.values.shape[1])
    graph = _load_graph(args.dataset, ft, model_cfg.k, args.ablation)
    return train_cfg, ft, model_cfg, graph


def cmd_train(args, argv) -> int:
    cfg_all = _load_json(args.config, "train config")
    train_cfg, ft, model_cfg, graph = _train_setup(args, cfg_all)
    digests = _dataset_digests(args.dataset)
    _, test_ends = make_windows(ft, model_cfg.t_in, model_cfg.horizon, ft.train_steps)
    if len(test_ends) == 0:
        raise UsageError("no test windows after the split; nothing to score")

    out = _out_dir(args)
    run = _Run("train", out, argv, [args.config],
               {"train": train_cfg.seed, "ablation": args.ablation,
                "channels": args.channels})
    run.add_input(args.config)
    run.add_input_dir(args.dataset)

    params, history = train(ft, graph, train_cfg, model_cfg, ablation=args.ablation)
    save_weights(params, out / "weights.bin",
                 extra={"ablation": args.ablation, "channels": args.channels,
                        "validation_fraction": train_cfg.validation_fraction,
                        **digests})
    history.to_csv(out / "history.csv")
    report, cm, _ = evaluate_windows(ft, graph, params, test_ends, ablation=args.ablation)
    report.to_json(out / "metrics.json")
    cm.to_csv(out / "confusion.csv")
    run.finish()
    print(f"best epoch {history.best_epoch}; test macro-F1 {report.macro_f1:.4f}, "
          f"accuracy {report.accuracy:.4f}")
    return 0


def cmd_tune(args, argv) -> int:
    cfg_all = _load_json(args.config, "train config")
    source = f"train config file {args.config} section 'grid'"
    grid = config_from(GridConfig, _section(cfg_all, "grid"), source)
    train_cfg, ft, model_cfg, graph = _train_setup(args, cfg_all)
    try:   # every grid config is checked before the output directory exists
        grid_configs(train_cfg, grid.learning_rates, grid.dropout_rates)
    except UsageError as exc:
        raise UsageError(f"{source}: {exc}") from exc

    out = _out_dir(args)
    run = _Run("tune", out, argv, [args.config],
               {"train": train_cfg.seed, "ablation": args.ablation,
                "channels": args.channels})
    run.add_input(args.config)
    run.add_input_dir(args.dataset)

    best, leaderboard = tune(ft, graph, train_cfg, grid.learning_rates,
                             grid.dropout_rates, model_cfg, ablation=args.ablation)
    with open(out / "leaderboard.csv", "w") as fh:
        fh.write("rank,learning_rate,dropout_rate,val_macro_f1,val_loss,best_epoch\n")
        for row in leaderboard:
            fh.write(f"{row['rank']},{row['learning_rate']!r},{row['dropout_rate']!r},"
                     f"{row['val_macro_f1']!r},{row['val_loss']!r},{row['best_epoch']}\n")
    with open(out / "best_config.json", "w") as fh:
        json.dump({"train": asdict(best), "model": _section(cfg_all, "model")}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    run.finish()
    top = leaderboard[0]
    print(f"best: lr={top['learning_rate']} dropout={top['dropout_rate']} "
          f"val macro-F1 {top['val_macro_f1']:.4f}")
    return 0


# the weights header entries `train` adds for `evaluate` and `predict`
_TRAIN_RECORD = {"ablation": "str", "channels": "str", "validation_fraction": "float",
                 "dataset_header_sha256": "str", "graph_header_sha256": "str"}


def _resolve_eval(args):
    """Dataset, graph, weights, window ends and ablation of `evaluate` and
    `predict`; the timeline splits at the dataset's ``train_steps``. Weights
    trained on another dataset or graph (another sidecar or ``graph.bin``
    digest) raise UsageError."""
    header = read_weights_header(args.weights, _TRAIN_RECORD)
    ablation, channels = header["ablation"], header["channels"]
    if ablation not in ABLATIONS or channels not in CHANNEL_VIEWS:
        raise UsageError(f"{args.weights} records ablation {ablation!r} and channels "
                         f"{channels!r}; expected one of {ABLATIONS} and {CHANNEL_VIEWS}")
    params = load_weights(args.weights)
    cfg = params.config
    ft = _load_features(args.dataset, channels)
    digests = _dataset_digests(args.dataset)
    for key, what, name in (("dataset_header_sha256", "dataset", "dataset.bin.json"),
                            ("graph_header_sha256", "graph", "graph.bin")):
        if header[key] != digests[key]:
            raise UsageError(f"{args.weights} was trained on another {what} than "
                             f"{Path(args.dataset) / name}; re-run `train` on it")
    graph = _load_graph(args.dataset, ft, cfg.k, ablation)
    if cfg.n_nodes != ft.n_nodes:
        raise UsageError(f"weights expect {cfg.n_nodes} nodes, dataset has {ft.n_nodes}")
    if args.split == "train":
        ends, _ = fit_windows(ft, cfg.t_in, cfg.horizon, ft.train_steps,
                              header["validation_fraction"])
    else:
        _, ends = make_windows(ft, cfg.t_in, cfg.horizon, ft.train_steps)
    if len(ends) == 0:
        raise UsageError(f"no {args.split} windows in this dataset")
    return ft, graph, params, ends, ablation


def cmd_evaluate(args, argv) -> int:
    ft, graph, params, ends, ablation = _resolve_eval(args)
    out = _out_dir(args)
    run = _Run("evaluate", out, argv, seeds={"split": args.split})
    run.add_input(args.weights)
    run.add_input_dir(args.dataset)
    report, cm, _ = evaluate_windows(ft, graph, params, ends, ablation=ablation)
    report.to_json(out / "metrics.json")
    cm.to_csv(out / "confusion.csv")
    run.finish()
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_predict(args, argv) -> int:
    ft, graph, params, ends, ablation = _resolve_eval(args)
    out = _out_dir(args)
    run = _Run("predict", out, argv, seeds={"split": args.split})
    run.add_input(args.weights)
    run.add_input_dir(args.dataset)
    scored = predict_windows(ft, graph, params, ends, ablation)
    with open(out / "predictions.csv", "w") as fh:
        fh.write("node_id,timestep,prob_no,prob_moderate,prob_severe,pred_class\n")
        for t_end, probs, preds in zip(ends, scored.probs.tolist(), scored.preds.tolist()):
            step = int(t_end + params.config.horizon)
            for node_id, (p0, p1, p2), k in zip(ft.node_ids, probs, preds):
                fh.write(f"{node_id},{step},{p0!r},{p1!r},{p2!r},{k}\n")
    run.finish()
    print(f"predictions for {len(ends)} windows written to {out / 'predictions.csv'}")
    return 0


def cmd_gradcheck(args, argv) -> int:
    if args.seeds < 1 or args.seed < 0:
        raise UsageError(f"--seeds must be >= 1 and --seed >= 0, got {args.seeds} "
                         f"and {args.seed}")
    worst_overall = 0.0
    results = {}
    for i in range(args.seeds):
        seed = args.seed + i
        errors = model_gradient_check(seed=seed)
        worst = max(errors.values())
        worst_group = max(errors, key=errors.get)
        results[str(seed)] = {"worst_group": worst_group, "max_relative_error": worst}
        worst_overall = max(worst_overall, worst)
        print(f"seed {seed}: max relative error {worst:.3e} ({worst_group})")
    ok = worst_overall < 1e-4
    print(f"gradient check {'PASSED' if ok else 'FAILED'} "
          f"(worst {worst_overall:.3e}, threshold 1e-4)")
    if args.out:
        out = _out_dir(args)
        run = _Run("gradcheck", out, argv, seeds={"base": args.seed, "count": args.seeds})
        with open(out / "gradcheck.json", "w") as fh:
            json.dump({"results": results, "passed": ok}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        run.finish()
    if not ok:
        raise DomainError(f"analytic/finite-difference mismatch {worst_overall:.3e}")
    return 0


# -- argument parsing ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodnowcast",
        description="Graph-based multi-class flood nowcasting: synthetic scenarios, "
                    "feature preparation, training, evaluation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic scenario directory")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True)

    p = sub.add_parser("prepare", help="turn scenario CSVs into the dataset container")
    p.add_argument("--scenario", required=True, help="scenario directory")
    p.add_argument("--train-steps", type=int, default=288,
                   help="timesteps in the training span (default 288)")
    p.add_argument("--out", required=True)

    for name in ("train", "tune"):
        p = sub.add_parser(name)
        p.add_argument("--dataset", required=True, help="prepared dataset directory")
        p.add_argument("--config", required=True, help="train config JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--ablation", choices=ABLATIONS, default="none")
        p.add_argument("--channels", choices=CHANNEL_VIEWS, default="all")
        p.add_argument("--out", required=True)

    for name in ("evaluate", "predict"):
        p = sub.add_parser(name)
        p.add_argument("--dataset", required=True)
        p.add_argument("--weights", required=True)
        p.add_argument("--split", choices=("train", "test"), default="test",
                       help="train: the training span's gradient windows")
        p.add_argument("--out", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference audit of model gradients")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds", type=int, default=5, help="number of seeds to audit")
    p.add_argument("--out", default=None)
    return parser


_COMMANDS = {
    "generate": cmd_generate,
    "prepare": cmd_prepare,
    "train": cmd_train,
    "tune": cmd_tune,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "gradcheck": cmd_gradcheck,
}


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(
        level=getattr(logging, os.environ.get("NOWCAST_LOG", "warning").upper(),
                      logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
