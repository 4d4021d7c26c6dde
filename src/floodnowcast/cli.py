"""Command-line entry point wiring the library into reproducible runs.

Subcommands::

    generate   scenario config  -> scenario CSV directory
    prepare    scenario dir     -> dataset container (+ graph inputs)
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
from pathlib import Path
from typing import Optional

from . import __version__
from .errors import DomainError, TrainingDiverged, UsageError
from .graph import RegionGraph, build_adjacency, load_nodes_csv, save_adjacency_csv
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
    TrainConfig,
    evaluate_windows,
    fit_windows,
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
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} file {path} is not valid JSON: {exc}") from exc


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


def _model_config(section: dict, n_nodes: int, seed: int) -> ModelConfig:
    fields = {"channels", "k", "kernel_width", "t_in", "horizon", "in_channels"}
    unknown = set(section) - fields
    if unknown:
        raise UsageError(f"unknown model config keys: {sorted(unknown)}")
    section = dict(section)
    if "channels" in section:
        section["channels"] = tuple(section["channels"])
    return ModelConfig(n_nodes=n_nodes, seed=seed, **section)


def _load_prepared(dataset_dir: str, channels: str, k: int, ablation: str
                   ) -> tuple[FeatureTensor, RegionGraph]:
    directory = Path(dataset_dir)
    container = directory / "dataset.bin"
    if not container.exists():
        raise UsageError(f"no dataset.bin under {directory}; run `prepare` first")
    ft = load_dataset(container)
    if channels == "physics-only":
        ft = physics_only(ft)
    nodes = load_nodes_csv(directory / "nodes.csv")
    if [n.id for n in nodes] != ft.node_ids:
        raise UsageError("nodes.csv does not match the dataset's node ids")
    if ablation == "graph-off":
        graph = RegionGraph.edgeless(nodes, k=k)
    else:
        graph = RegionGraph.build(nodes, k=k)
    return ft, graph


# -- subcommands ----------------------------------------------------------------


def cmd_generate(args, argv) -> int:
    cfg_dict = _load_json(args.config, "scenario config")
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    try:
        cfg = ScenarioConfig.from_dict(cfg_dict)
    except TypeError as exc:
        raise UsageError(f"bad scenario config: {exc}") from exc
    out = _out_dir(args)
    run = _Run("generate", out, argv, [args.config], {"scenario": cfg.seed})
    run.add_input(args.config)
    dataset = generate(cfg, out)
    run.finish()
    print(f"scenario written to {out} (report correlation "
          f"{dataset.report_correlation:.3f}, attempt {dataset.attempt})")
    return 0


def cmd_prepare(args, argv) -> int:
    out = _out_dir(args)
    run = _Run("prepare", out, argv)
    run.add_input_dir(args.scenario)
    ft = prepare_from_dir(args.scenario, train_steps=args.train_steps)
    save_dataset(ft, out / "dataset.bin")
    src_nodes = Path(args.scenario) / "nodes.csv"
    if Path(args.scenario).resolve() != out.resolve():
        shutil.copyfile(src_nodes, out / "nodes.csv")
    nodes = load_nodes_csv(out / "nodes.csv")
    save_adjacency_csv([n.id for n in nodes], build_adjacency(nodes), out / "adjacency.csv")
    run.finish()
    print(f"dataset prepared: {ft.n_nodes} nodes x {ft.n_steps} steps, "
          f"train span {ft.train_steps}")
    return 0


def _train_setup(args):
    cfg_all = _load_json(args.config, "train config")
    try:
        train_cfg = TrainConfig.from_dict(cfg_all.get("train", {}))
    except TypeError as exc:
        raise UsageError(f"bad train config: {exc}") from exc
    if args.seed is not None:
        train_cfg = TrainConfig.from_dict({**train_cfg.to_dict(), "seed": args.seed})
    return cfg_all, train_cfg, cfg_all.get("model", {})


def cmd_train(args, argv) -> int:
    cfg_all, train_cfg, model_section = _train_setup(args)
    mc_probe = _model_config(model_section, n_nodes=1, seed=train_cfg.seed)
    ft, graph = _load_prepared(args.dataset, args.channels, mc_probe.k, args.ablation)
    model_cfg = _model_config(model_section, n_nodes=ft.n_nodes, seed=train_cfg.seed)
    split = train_cfg.split_step if train_cfg.split_step is not None else ft.train_steps
    _, test_ends = make_windows(ft, model_cfg.t_in, model_cfg.horizon, split)
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
                        "split_step": split,
                        "validation_fraction": train_cfg.validation_fraction})
    history.to_csv(out / "history.csv")
    report, cm, _ = evaluate_windows(ft, graph, params, test_ends, ablation=args.ablation)
    report.to_json(out / "metrics.json")
    cm.to_csv(out / "confusion.csv")
    run.finish()
    print(f"best epoch {history.best_epoch}; test macro-F1 {report.macro_f1:.4f}, "
          f"accuracy {report.accuracy:.4f}")
    return 0


def cmd_tune(args, argv) -> int:
    cfg_all, train_cfg, model_section = _train_setup(args)
    grid = cfg_all.get("grid", {})
    lrs = grid.get("learning_rates", [1e-3, 3e-3])
    drops = grid.get("dropout_rates", [0.0, 0.3])
    mc_probe = _model_config(model_section, n_nodes=1, seed=train_cfg.seed)
    ft, graph = _load_prepared(args.dataset, args.channels, mc_probe.k, args.ablation)
    model_cfg = _model_config(model_section, n_nodes=ft.n_nodes, seed=train_cfg.seed)

    out = _out_dir(args)
    run = _Run("tune", out, argv, [args.config],
               {"train": train_cfg.seed, "ablation": args.ablation,
                "channels": args.channels})
    run.add_input(args.config)
    run.add_input_dir(args.dataset)

    best, leaderboard = tune(ft, graph, train_cfg, lrs, drops, model_cfg,
                             ablation=args.ablation)
    with open(out / "leaderboard.csv", "w") as fh:
        fh.write("rank,learning_rate,dropout_rate,val_macro_f1,val_loss,best_epoch\n")
        for row in leaderboard:
            fh.write(f"{row['rank']},{row['learning_rate']!r},{row['dropout_rate']!r},"
                     f"{row['val_macro_f1']!r},{row['val_loss']!r},{row['best_epoch']}\n")
    with open(out / "best_config.json", "w") as fh:
        json.dump({"train": best.to_dict(), "model": model_section}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    run.finish()
    top = leaderboard[0]
    print(f"best: lr={top['learning_rate']} dropout={top['dropout_rate']} "
          f"val macro-F1 {top['val_macro_f1']:.4f}")
    return 0


def _resolve_eval(args):
    header = read_weights_header(args.weights)
    ablation = header.get("ablation", "none")
    channels = header.get("channels", "all")
    params = load_weights(args.weights)
    k = params.config.k
    ft, graph = _load_prepared(args.dataset, channels, k, ablation)
    if params.config.n_nodes != ft.n_nodes:
        raise UsageError(f"weights expect {params.config.n_nodes} nodes, "
                         f"dataset has {ft.n_nodes}")
    # weights files written before the split was recorded fall back to the defaults
    split = header.get("split_step", ft.train_steps)
    fraction = header.get("validation_fraction", TrainConfig.validation_fraction)
    if not isinstance(split, int) or not isinstance(fraction, float):
        raise UsageError(f"{args.weights} records split_step {split!r} and "
                         f"validation_fraction {fraction!r}; expected an int and a float")
    cfg = params.config
    if args.split == "train":
        ends, _ = fit_windows(ft, cfg.t_in, cfg.horizon, split, fraction)
    else:
        _, ends = make_windows(ft, cfg.t_in, cfg.horizon, split)
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
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
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
    except TrainingDiverged as exc:
        print(f"numeric failure: {exc} (epoch {exc.epoch})", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
