import math
import warnings

import numpy as np
import pytest

import floodnowcast.graph as graph_module
from floodnowcast.errors import UsageError
from floodnowcast.graph import (
    RegionGraph,
    StaticFeatures,
    UnitNode,
    build_adjacency,
    chebyshev_basis,
    laplacian,
    load_nodes_csv,
    pairwise_static_distance,
    power_iteration_lambda_max,
    save_adjacency_csv,
    scaled_laplacian,
    static_norm_stats,
)
from floodnowcast.scenario import ScenarioConfig, _make_nodes


def _feat(fp=False, rr=0.5, shed="w1", dc=1000.0, ds=500.0):
    return StaticFeatures(in_floodplain=fp, residential_ratio=rr, watershed_id=shed,
                          dist_coast=dc, dist_stream=ds)


def _random_nodes(n, seed, side=10_000.0):
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(n):
        nodes.append(UnitNode(
            id=f"n{i:03d}",
            x=float(rng.uniform(0, side)),
            y=float(rng.uniform(0, side)),
            static=_feat(
                fp=bool(rng.integers(0, 2)),
                rr=float(rng.uniform(0, 1)),
                shed=f"w{rng.integers(0, 3)}",
                dc=float(rng.uniform(0, 20_000)),
                ds=float(rng.uniform(0, 5_000)),
            ),
        ))
    return nodes


# -- static feature distance -------------------------------------------------


def test_static_distance_identical_is_zero():
    nodes = _random_nodes(6, seed=1)
    stats = static_norm_stats(nodes)
    f = nodes[0].static
    assert pairwise_static_distance(f, f, stats) == 0.0


def test_static_distance_watershed_only_mismatch():
    a = _feat(shed="w1")
    b = _feat(shed="w2")
    # stats from a population where numerics vary so nothing is dropped
    nodes = _random_nodes(8, seed=2)
    stats = static_norm_stats(nodes)
    assert pairwise_static_distance(a, b, stats) == 1.0


def test_static_distance_hand_euclidean():
    # craft stats with std 1 / mean 0 so z-deltas equal raw deltas: 3 and 4 -> 5
    stats = {"dist_coast": (0.0, 1.0), "dist_stream": (0.0, 1.0)}
    a = _feat(dc=3.0, ds=4.0)
    b = _feat(dc=0.0, ds=0.0)
    assert pairwise_static_distance(a, b, stats) == pytest.approx(5.0, abs=1e-12)


def test_static_stats_drop_constant_fields():
    nodes = [UnitNode(id=f"n{i}", x=float(i), y=0.0, static=_feat(rr=0.5)) for i in range(4)]
    stats = static_norm_stats(nodes)
    assert "residential_ratio" not in stats
    assert "in_floodplain" not in stats


# -- adjacency ----------------------------------------------------------------


def test_adjacency_collinear_hand_value():
    nodes = [
        UnitNode(id="a", x=0.0, y=0.0, static=_feat()),
        UnitNode(id="b", x=1.0, y=0.0, static=_feat()),
        UnitNode(id="c", x=2.0, y=0.0, static=_feat()),
    ]
    # identical static features: sigma_s = 0 falls back to 1 with a warning
    with pytest.warns(UserWarning):
        a = build_adjacency(nodes)
    sigma_d = math.sqrt(2.0 / 9.0)  # population std of {1, 1, 2}, by hand
    expected_01 = 0.9 * math.exp(-((1.0 / sigma_d) ** 2)) + 0.1
    assert a[0, 1] == pytest.approx(expected_01, abs=1e-12)
    assert a[0, 1] == pytest.approx(0.110, abs=5e-4)


def test_adjacency_coincident_pair_is_one():
    nodes = [
        UnitNode(id="a", x=5.0, y=5.0, static=_feat(dc=100.0)),
        UnitNode(id="b", x=5.0, y=5.0, static=_feat(dc=100.0)),
        UnitNode(id="c", x=99.0, y=0.0, static=_feat(dc=4000.0)),
    ]
    a = build_adjacency(nodes)
    assert a[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_adjacency_contract_properties():
    for seed in range(4):
        nodes = _random_nodes(7, seed=seed)
        a = build_adjacency(nodes)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0.0)
        assert np.all((a >= 0.0) & (a <= 1.0))


def test_adjacency_rejects_small_or_bad_weights():
    nodes = _random_nodes(5, seed=3)
    with pytest.raises(UsageError):
        build_adjacency(nodes[:1])
    with pytest.raises(UsageError):
        build_adjacency(nodes, w_dist=0.8, w_feat=0.1)


def test_adjacency_feature_weight_keeps_argmax_when_features_identical():
    base = [UnitNode(id=f"n{i}", x=float(i * i), y=0.0, static=_feat()) for i in range(5)]
    mats = []
    for w_feat in (0.0, 0.1, 0.4):
        with pytest.warns(UserWarning):
            mats.append(build_adjacency(base, w_dist=1.0 - w_feat, w_feat=w_feat, epsilon=0.0))
    ref = mats[0] + np.eye(5) * -1  # keep diagonal out of argmax
    for m in mats[1:]:
        got = m + np.eye(5) * -1
        assert np.array_equal(np.argmax(got, axis=1), np.argmax(ref, axis=1))


# -- laplacian ----------------------------------------------------------------


def test_laplacian_two_node():
    lap = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_zero_matrix():
    lap = laplacian(np.zeros((3, 3)))
    np.testing.assert_array_equal(lap, np.zeros((3, 3)))


def test_laplacian_rows_sum_to_zero_and_psd():
    for seed in range(4):
        a = build_adjacency(_random_nodes(6, seed=10 + seed))
        lap = laplacian(a)
        np.testing.assert_allclose(lap.sum(axis=1), 0.0, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(lap)) > -1e-10


def test_laplacian_rejects_asymmetric():
    with pytest.raises(UsageError):
        laplacian(np.array([[0.0, 1.0], [0.5, 0.0]]))


# -- scaled laplacian ----------------------------------------------------------


def test_scaled_laplacian_two_node_hand_value():
    lap = np.array([[1.0, -1.0], [-1.0, 1.0]])  # eigenvalues {0, 2}
    scaled, lam = scaled_laplacian(lap)
    assert lam == pytest.approx(2.0, rel=1e-8)
    np.testing.assert_allclose(scaled, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-8)


def test_scaled_laplacian_zero_fallback():
    with pytest.warns(UserWarning):
        scaled, lam = scaled_laplacian(np.zeros((3, 3)))
    assert lam == 2.0
    np.testing.assert_array_equal(scaled, -np.eye(3))


def test_power_iteration_matches_dense_eigensolver():
    for seed in range(6):
        a = build_adjacency(_random_nodes(6, seed=20 + seed))
        lap = laplacian(a)
        lam = power_iteration_lambda_max(lap)
        ref = float(np.max(np.linalg.eigvalsh(lap)))
        assert abs(lam - ref) / ref < 1e-8


def test_lambda_max_converges_on_a_slow_power_iteration_layout(monkeypatch):
    # the 200-unit layout of scenario seed 4, where plain power iteration hit
    # its 10,000-iteration cap short of tol
    cfg = ScenarioConfig(n_nodes=200, seed=4)
    nodes = _make_nodes(cfg, np.random.default_rng(np.random.SeedSequence(4, spawn_key=(0,))))
    lap = laplacian(build_adjacency(nodes))
    calls = []
    matvec = graph_module._matvec_sorted

    def counting_matvec(m, v):
        calls.append(1)
        return matvec(m, v)

    monkeypatch.setattr(graph_module, "_matvec_sorted", counting_matvec)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = power_iteration_lambda_max(lap)
    ref = float(np.max(np.linalg.eigvalsh(lap)))
    assert abs(lam - ref) / ref < 1e-12
    assert len(calls) <= len(nodes)


def test_scaled_spectrum_in_unit_interval():
    for seed in range(6):
        a = build_adjacency(_random_nodes(7, seed=30 + seed))
        scaled, _ = scaled_laplacian(laplacian(a))
        eigs = np.linalg.eigvalsh(scaled)
        assert eigs.min() >= -1.0 - 1e-9
        assert eigs.max() <= 1.0 + 1e-9


# -- chebyshev basis ------------------------------------------------------------


def test_chebyshev_k1_is_identity():
    basis = chebyshev_basis(-np.eye(4), 1)
    assert len(basis) == 1
    np.testing.assert_array_equal(basis[0], np.eye(4))


def test_chebyshev_two_node_hand_value():
    scaled = np.array([[0.0, -1.0], [-1.0, 0.0]])  # scaled^2 = I
    basis = chebyshev_basis(scaled, 3)
    np.testing.assert_allclose(basis[2], np.eye(2), atol=1e-15)


def test_chebyshev_rejects_bad_k():
    with pytest.raises(UsageError):
        chebyshev_basis(np.eye(3), 0)


def _spectral_cheb_oracle(scaled, k):
    """Eigendecomposition route: T_k(L~) = U T_k(Lambda) U^T with the scalar recurrence."""
    eigvals, u = np.linalg.eigh(scaled)
    polys = [np.ones_like(eigvals), eigvals]
    for _ in range(2, k):
        polys.append(2.0 * eigvals * polys[-1] - polys[-2])
    return [u @ np.diag(p) @ u.T for p in polys[:k]]


def test_chebyshev_matches_spectral_oracle():
    for seed in range(5):
        a = build_adjacency(_random_nodes(5, seed=40 + seed))
        scaled, _ = scaled_laplacian(laplacian(a))
        basis = chebyshev_basis(scaled, 4)
        oracle = _spectral_cheb_oracle(scaled, 4)
        for got, want in zip(basis, oracle):
            np.testing.assert_allclose(got, want, atol=1e-8)


def test_edgeless_basis_alternates_sign():
    graph = RegionGraph.edgeless(_random_nodes(4, seed=50), k=4)
    for j, t in enumerate(graph.cheb_basis):
        np.testing.assert_array_equal(t, ((-1.0) ** j) * np.eye(4))


# -- permutation equivariance ---------------------------------------------------


def test_graph_permutation_equivariance_bitwise():
    # the 48-node graph takes 46 Lanczos steps, each reorthogonalised against all before it
    for seed, n in enumerate((6, 6, 6, 48)):
        nodes = _random_nodes(n, seed=60 + seed)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        g1 = RegionGraph.build(nodes, k=4)
        g2 = RegionGraph.build([nodes[i] for i in perm], k=4)
        assert np.array_equal(g2.adjacency, p @ g1.adjacency @ p.T)
        assert np.array_equal(g2.laplacian, p @ g1.laplacian @ p.T)
        assert g2.lambda_max == g1.lambda_max
        for t2, t1 in zip(g2.cheb_basis, g1.cheb_basis):
            assert np.array_equal(t2, p @ t1 @ p.T)


# -- CSV round trip ---------------------------------------------------------------


def test_nodes_csv_round_trip(tmp_path):
    nodes = _random_nodes(5, seed=70)
    path = tmp_path / "nodes.csv"
    with open(path, "w") as fh:
        fh.write("id,x,y,in_floodplain,residential_ratio,watershed_id,dist_coast,dist_stream\n")
        for n in nodes:
            s = n.static
            fh.write(f"{n.id},{n.x!r},{n.y!r},{int(s.in_floodplain)},{s.residential_ratio!r},"
                     f"{s.watershed_id},{s.dist_coast!r},{s.dist_stream!r}\n")
    loaded = load_nodes_csv(path)
    assert [n.id for n in loaded] == [n.id for n in nodes]
    assert loaded[2].x == nodes[2].x
    assert loaded[3].static == nodes[3].static

    graph = RegionGraph.build(loaded)
    out = tmp_path / "adjacency.csv"
    save_adjacency_csv(graph.node_ids, graph.adjacency, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "id_i,id_j,weight"
    i0, j0, w0 = lines[1].split(",")
    i, j = graph.node_ids.index(i0), graph.node_ids.index(j0)
    assert float(w0) == graph.adjacency[i, j]
