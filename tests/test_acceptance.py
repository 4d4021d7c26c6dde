"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``python -m pytest tests/test_acceptance.py -v -s`` to see the
per-criterion PASS/FAIL lines. The ordering criterion (6) tunes and trains
18 models on the default synthetic scenario and dominates the runtime;
everything else finishes in seconds.
"""

import json
import time

import numpy as np
import pytest

from floodnowcast.graph import (
    RegionGraph,
    StaticFeatures,
    UnitNode,
    build_adjacency,
    chebyshev_basis,
    laplacian,
    load_nodes_csv,
    scaled_laplacian,
)
from floodnowcast.metrics import confusion, macro_metrics
from floodnowcast.model import (
    ModelConfig,
    ModelParams,
    forward,
    init_params,
    named_parameters,
    save_weights,
)
from floodnowcast.pipeline import (
    accumulate_rainfall,
    blend_gauge_channel,
    label_flood_class,
    nearest_two_gauges,
    prepare_from_dir,
    GaugeStation,
)
from floodnowcast.scenario import ScenarioConfig, generate, physics_only
from floodnowcast.tensor import canonical_reductions
from floodnowcast.training import (
    TrainConfig,
    evaluate_windows,
    make_windows,
    model_gradient_check,
    train,
    tune,
)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_nodes(n, seed):
    rng = np.random.default_rng(seed)
    return [UnitNode(id=f"n{i:02d}", x=float(rng.uniform(0, 20_000)),
                     y=float(rng.uniform(0, 20_000)),
                     static=StaticFeatures(
                         in_floodplain=bool(rng.integers(0, 2)),
                         residential_ratio=float(rng.uniform(0, 1)),
                         watershed_id=f"w{rng.integers(0, 3)}",
                         dist_coast=float(rng.uniform(0, 25_000)),
                         dist_stream=float(rng.uniform(0, 8_000))))
            for i in range(n)]


# -- criterion 1: gradient correctness -----------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    worst_group = ""
    for seed in range(5):
        errors = model_gradient_check(seed=seed)
        group = max(errors, key=errors.get)
        if errors[group] > worst:
            worst, worst_group = errors[group], group
    elapsed = time.perf_counter() - started
    _report(1, "gradient correctness",
            worst < 1e-4 and elapsed < 30.0,
            f"max rel err {worst:.2e} in {worst_group}, {elapsed:.1f}s")


# -- criterion 2: spectral oracle ------------------------------------------------


def _spectral_cheb(scaled, k):
    eigvals, u = np.linalg.eigh(scaled)
    polys = [np.ones_like(eigvals), eigvals]
    for _ in range(2, k):
        polys.append(2.0 * eigvals * polys[-1] - polys[-2])
    return [u @ np.diag(p) @ u.T for p in polys[:k]]


def test_criterion_2_spectral_oracle():
    started = time.perf_counter()
    max_dev = 0.0
    min_eig, max_eig = 0.0, 0.0
    rng = np.random.default_rng(2024)
    for i in range(10):
        n = int(rng.integers(4, 9))        # N <= 8
        k = int(rng.integers(2, 5))        # K <= 4
        adjacency = build_adjacency(_random_nodes(n, seed=300 + i))
        scaled, _ = scaled_laplacian(laplacian(adjacency))
        basis = chebyshev_basis(scaled, k)
        oracle = _spectral_cheb(scaled, k)
        for got, want in zip(basis, oracle):
            max_dev = max(max_dev, float(np.max(np.abs(got - want))))
        eigs = np.linalg.eigvalsh(scaled)
        min_eig = min(min_eig, float(eigs.min()))
        max_eig = max(max_eig, float(eigs.max()))
    elapsed = time.perf_counter() - started
    _report(2, "spectral oracle",
            max_dev < 1e-8 and min_eig >= -1.0 - 1e-9 and max_eig <= 1.0 + 1e-9
            and elapsed < 5.0,
            f"basis dev {max_dev:.2e}, spectrum [{min_eig:.10f}, {max_eig:.10f}], "
            f"{elapsed:.1f}s")


# -- criterion 3: metrics fixtures ------------------------------------------------


def test_criterion_3_metrics_fixtures():
    rep = macro_metrics(confusion(preds=[0, 1, 1, 2], labels=[0, 0, 1, 2]))
    exact = (
        abs(rep.macro_precision - (1.0 + 0.5 + 1.0) / 3.0) < 1e-12
        and abs(rep.macro_recall - (0.5 + 1.0 + 1.0) / 3.0) < 1e-12
        and abs(rep.macro_f1 - (2.0 / 3.0 + 2.0 / 3.0 + 1.0) / 3.0) < 1e-12
        and abs(rep.accuracy - 0.75) < 1e-12
    )
    swap = {0: 2, 1: 1, 2: 0}
    rng = np.random.default_rng(3)
    invariant = True
    for _ in range(100):
        labels = rng.integers(0, 3, size=50)
        preds = rng.integers(0, 3, size=50)
        base = macro_metrics(confusion(preds, labels))
        swapped = macro_metrics(confusion([swap[p] for p in preds],
                                          [swap[l] for l in labels]))
        invariant &= abs(base.macro_precision - swapped.macro_precision) < 1e-12
        invariant &= abs(base.macro_recall - swapped.macro_recall) < 1e-12
        invariant &= abs(base.macro_f1 - swapped.macro_f1) < 1e-12
        invariant &= base.accuracy == swapped.accuracy
    _report(3, "metrics fixtures", exact and invariant,
            f"macro p/r/F1 {rep.macro_precision:.4f}/{rep.macro_recall:.4f}/"
            f"{rep.macro_f1:.4f}, acc {rep.accuracy}, 100 permutations invariant")


# -- criterion 4: pipeline fixtures ------------------------------------------------


def test_criterion_4_pipeline_fixtures():
    gauges = [GaugeStation(id="a", x=1000.0, y=0.0, flood_threshold_elevation=3.0),
              GaugeStation(id="b", x=3000.0, y=0.0, flood_threshold_elevation=3.0)]
    (g1, w1), (g2, w2) = nearest_two_gauges((0.0, 0.0), gauges)
    blend = blend_gauge_channel(np.array([10.0]), np.array([20.0]), w1, w2)
    blend_ok = (g1.id, g2.id) == ("a", "b") and blend[0] == 12.5

    series = np.zeros(20)
    series[10] = 7.0
    rolled = accumulate_rainfall(series, 4)
    expected = np.zeros(20)
    expected[10:14] = 7.0
    impulse_ok = np.array_equal(rolled, expected)

    labels_ok = (label_flood_class(0.005) == 0 and label_flood_class(0.05) == 1
                 and label_flood_class(0.15) == 2)
    _report(4, "pipeline fixtures", blend_ok and impulse_ok and labels_ok,
            f"blend {blend[0]}, impulse window [10, 13], "
            f"labels (0.005, 0.05, 0.15) -> (0, 1, 2)")


# -- criterion 5: bitwise node-permutation equivariance ------------------------------


def test_criterion_5_equivariance_bitwise():
    n = 5
    cfg = ModelConfig(n_nodes=n, channels=(6, 5), t_in=6)
    nodes = _random_nodes(n, seed=55)
    params = init_params(cfg, 55)
    x = np.random.default_rng(56).normal(size=(n, 6, 6))
    perm = np.random.default_rng(57).permutation(n)
    p = np.eye(n)[perm]

    permuted = init_params(cfg, 55)
    for blk_out, blk_in in zip(permuted.blocks, params.blocks):
        blk_out.p_s.data = p @ blk_in.p_s.data @ p.T
        blk_out.b_s.data = p @ blk_in.b_s.data @ p.T
        blk_out.u1.data = p @ blk_in.u1.data
        blk_out.u2.data = p @ blk_in.u2.data
        for name in ("w1", "w2", "w3", "v_e", "b_e", "u3", "phi"):
            getattr(blk_out, name).data = getattr(blk_in, name).data.copy()
        for th_out, th_in in zip(blk_out.theta, blk_in.theta):
            th_out.data = th_in.data.copy()
    permuted.fc_w.data = params.fc_w.data.copy()
    permuted.fc_b.data = params.fc_b.data.copy()

    with canonical_reductions():
        graph = RegionGraph.build(nodes, k=cfg.k)
        graph_p = RegionGraph.build([nodes[i] for i in perm], k=cfg.k)
        base, _ = forward(x, graph, params)
        moved, _ = forward(x[perm], graph_p, permuted)
    bitwise = np.array_equal(moved.data, p @ base.data)
    _report(5, "node-permutation equivariance", bitwise,
            "logits bitwise-identical after reordering on the 5-node fixture")


# -- criteria 6 + 8: qualitative orderings and determinism ----------------------------

C6_SEEDS = (11, 22, 33)
C6_GRID_LRS = (1e-3, 3e-3)
C6_GRID_DROPS = (0.0, 0.3)
C6_TRAIN = dict(epochs=12, patience=3, batch_size=16)
SPLIT = 288


def _train_and_score(dataset, graph, cfg, model_cfg, test_ends):
    params, history = train(dataset, graph, cfg, model_cfg)
    report, _, _ = evaluate_windows(dataset, graph, params, test_ends)
    return params, report


def _run_seed(seed, scen_dir):
    generate(ScenarioConfig(seed=seed), scen_dir)
    ft = prepare_from_dir(scen_dir, train_steps=SPLIT)
    nodes = load_nodes_csv(scen_dir / "nodes.csv")
    graph = RegionGraph.build(nodes, k=3)
    model_cfg = ModelConfig(n_nodes=ft.n_nodes)
    base = TrainConfig(seed=seed, **C6_TRAIN)
    best_cfg, _ = tune(ft, graph, base, C6_GRID_LRS, C6_GRID_DROPS, model_cfg)
    _, test_ends = make_windows(ft, model_cfg.t_in, model_cfg.horizon, SPLIT)

    params_full, rep_full = _train_and_score(ft, graph, best_cfg, model_cfg, test_ends)
    _, rep_goff = _train_and_score(ft, RegionGraph.edgeless(nodes, k=3), best_cfg,
                                   model_cfg, test_ends)
    _, rep_phys = _train_and_score(physics_only(ft), graph, best_cfg, model_cfg,
                                   test_ends)
    return {
        "seed": seed,
        "best_cfg": best_cfg,
        "model_cfg": model_cfg,
        "params_full": params_full,
        "report_full": rep_full,
        "f1_full": rep_full.macro_f1,
        "f1_graph_off": rep_goff.macro_f1,
        "f1_physics_only": rep_phys.macro_f1,
    }


@pytest.fixture(scope="module")
def ordering_runs(tmp_path_factory):
    started = time.perf_counter()
    runs = [_run_seed(seed, tmp_path_factory.mktemp(f"scenario_{seed}"))
            for seed in C6_SEEDS]
    return {"runs": runs, "elapsed": time.perf_counter() - started,
            "root": tmp_path_factory}


@pytest.mark.slow
def test_criterion_6_qualitative_orderings(ordering_runs):
    runs = ordering_runs["runs"]
    graph_wins = sum(1 for r in runs if r["f1_full"] >= r["f1_graph_off"])
    channel_wins = sum(1 for r in runs if r["f1_full"] >= r["f1_physics_only"])
    detail = "; ".join(
        f"seed {r['seed']}: full {r['f1_full']:.3f} vs graph-off "
        f"{r['f1_graph_off']:.3f} vs physics-only {r['f1_physics_only']:.3f}"
        for r in runs)
    elapsed = ordering_runs["elapsed"]
    _report(6, "qualitative orderings on synthetic data",
            graph_wins >= 2 and channel_wins >= 2 and elapsed < 900.0,
            f"{detail}; graph ordering {graph_wins}/3, channel ordering "
            f"{channel_wins}/3, {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_7_overfit_sanity():
    started = time.perf_counter()
    hits = 0
    details = []
    for seed in (1, 2, 3):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            generate(ScenarioConfig(n_nodes=5, n_timesteps=60, n_gauges=3,
                                    seed=seed), d)
            ft = prepare_from_dir(d, train_steps=45)
            nodes = load_nodes_csv(f"{d}/nodes.csv")
        graph = RegionGraph.build(nodes, k=3)
        cfg = TrainConfig(learning_rate=5e-3, epochs=60, batch_size=16, seed=seed)
        _, history = train(ft, graph, cfg, ModelConfig(n_nodes=5))
        best_acc = max(r.train_acc for r in history.rows)
        hits += best_acc >= 0.95
        details.append(f"seed {seed}: {best_acc:.3f}")
    elapsed = time.perf_counter() - started
    _report(7, "overfit sanity", hits >= 2 and elapsed < 120.0,
            f"{'; '.join(details)}; {hits}/3 seeds reached 0.95, {elapsed:.0f}s")


@pytest.mark.slow  # shares the criterion-6 fixture
def test_criterion_8_determinism_of_best_run(ordering_runs, tmp_path):
    runs = ordering_runs["runs"]
    best = max(runs, key=lambda r: r["f1_full"])
    seed = best["seed"]

    scen = tmp_path / "rerun_scenario"
    generate(ScenarioConfig(seed=seed), scen)
    ft = prepare_from_dir(scen, train_steps=SPLIT)
    graph = RegionGraph.build(load_nodes_csv(scen / "nodes.csv"), k=3)
    _, test_ends = make_windows(ft, best["model_cfg"].t_in,
                                best["model_cfg"].horizon, SPLIT)
    params_again, report_again = _train_and_score(ft, graph, best["best_cfg"],
                                                  best["model_cfg"], test_ends)

    save_weights(best["params_full"], tmp_path / "first.bin")
    save_weights(params_again, tmp_path / "second.bin")
    weights_equal = (tmp_path / "first.bin").read_bytes() == \
        (tmp_path / "second.bin").read_bytes()
    report_equal = json.dumps(best["report_full"].to_dict(), sort_keys=True) == \
        json.dumps(report_again.to_dict(), sort_keys=True)
    _report(8, "determinism of the best run", weights_equal and report_equal,
            f"seed {seed}: weights bitwise equal {weights_equal}, "
            f"metrics bitwise equal {report_equal}")
