import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from floodnowcast.errors import DomainError, UsageError
from floodnowcast import tensor as tc
from floodnowcast.graph import RegionGraph, StaticFeatures, UnitNode
from floodnowcast.model import (
    ModelConfig,
    ModelParams,
    apply_temporal_attention,
    cheb_graph_conv,
    dropout_masks,
    forward,
    init_params,
    load_weights,
    named_parameters,
    params_from_arrays,
    save_weights,
    spatial_attention,
    temporal_attention,
    temporal_conv,
)
from floodnowcast.tensor import Tape, Tensor, canonical_reductions, gradient_check


def _nodes(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(UnitNode(
            id=f"n{i}", x=float(rng.uniform(0, 5000)), y=float(rng.uniform(0, 5000)),
            static=StaticFeatures(
                in_floodplain=bool(rng.integers(0, 2)),
                residential_ratio=float(rng.uniform(0, 1)),
                watershed_id=f"w{rng.integers(0, 2)}",
                dist_coast=float(rng.uniform(100, 9000)),
                dist_stream=float(rng.uniform(10, 3000)),
            )))
    return out


def _setup(n=4, t_in=6, channels=(5,), seed=0, k=3):
    cfg = ModelConfig(n_nodes=n, channels=channels, t_in=t_in, k=k)
    graph = RegionGraph.build(_nodes(n, seed=seed), k=k)
    params = init_params(cfg, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=(n, 6, t_in))
    return cfg, graph, params, x


# -- attention -----------------------------------------------------------------


def test_spatial_attention_zero_gate_gives_uniform_rows():
    cfg, graph, params, x = _setup()
    blk = params.blocks[0]
    blk.p_s.data = np.zeros_like(blk.p_s.data)
    s = spatial_attention(Tensor(x[None]), blk)
    np.testing.assert_allclose(s.data, 1.0 / cfg.n_nodes, atol=1e-15)


def test_spatial_attention_rows_sum_to_one():
    _, _, params, x = _setup(n=5, seed=3)
    s = spatial_attention(Tensor(np.stack([x, x * 2.0])), params.blocks[0])
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(s.data >= 0.0)


def test_spatial_attention_permutation_property():
    _, _, params, x = _setup(n=4, seed=5)
    blk = params.blocks[0]
    rng = np.random.default_rng(9)
    perm = rng.permutation(4)
    p = np.eye(4)[perm]
    s = spatial_attention(Tensor(x[None]), blk).data[0]

    blk.p_s.data = p @ blk.p_s.data @ p.T
    blk.b_s.data = p @ blk.b_s.data @ p.T
    s_perm = spatial_attention(Tensor(x[perm][None]), blk).data[0]
    np.testing.assert_allclose(s_perm, p @ s @ p.T, atol=1e-12)


def test_temporal_attention_zero_gate_uniform_and_row_sums():
    cfg, _, params, x = _setup(t_in=5)
    blk = params.blocks[0]
    e = temporal_attention(Tensor(x[None]), blk)
    np.testing.assert_allclose(e.data.sum(axis=-1), 1.0, atol=1e-12)
    blk.v_e.data = np.zeros_like(blk.v_e.data)
    e = temporal_attention(Tensor(x[None]), blk)
    np.testing.assert_allclose(e.data, 1.0 / cfg.t_in, atol=1e-15)


def test_temporal_attention_singleton_window_is_identity():
    cfg, graph, params, x = _setup(t_in=1)
    blk = params.blocks[0]
    e = temporal_attention(Tensor(x[None]), blk)
    np.testing.assert_array_equal(e.data, [[[1.0]]])
    out = apply_temporal_attention(Tensor(x[None]), e)
    np.testing.assert_array_equal(out.data, x[None])


# -- chebyshev convolution -------------------------------------------------------


def test_cheb_conv_identity_filter():
    # K=1, all-ones gate, identity-width theta: output equals input
    n, c, t = 3, 4, 5
    x = np.random.default_rng(0).normal(size=(1, n, c, t))
    y = cheb_graph_conv(Tensor(x), [], Tensor(np.ones((1, n, n))), [Tensor(np.eye(c))])
    np.testing.assert_allclose(y.data, x, atol=1e-14)


def test_cheb_conv_without_terms_is_the_row_scaled_t0_term():
    # K=1 reads no matrix: Y[:, :, t] = diag(S) X[:, :, t] theta_0
    rng = np.random.default_rng(1)
    n, c, t = 4, 3, 5
    x, s, theta = rng.normal(size=(2, n, c, t)), rng.random((2, n, n)), rng.normal(size=(c, 2))
    y = cheb_graph_conv(Tensor(x), [], Tensor(s), [Tensor(theta)])
    want = np.einsum("bn,bnct,cd->bndt", np.diagonal(s, axis1=1, axis2=2), x, theta)
    np.testing.assert_allclose(y.data, want, atol=1e-13)


def test_cheb_conv_zero_input():
    n = 3
    y = cheb_graph_conv(Tensor(np.zeros((1, n, 2, 4))), [np.diag(np.arange(3.0))],
                        Tensor(np.ones((1, n, n))),
                        [Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2)))])
    np.testing.assert_array_equal(y.data, 0.0)


def test_cheb_conv_two_node_hand_case():
    # scaled laplacian [[0,-1],[-1,0]], uniform 0.5 attention, scalar channels
    t_1 = np.array([[0.0, -1.0], [-1.0, 0.0]])
    s = Tensor(np.full((1, 2, 2), 0.5))
    x = Tensor(np.array([1.0, 0.0]).reshape(1, 2, 1, 1))
    theta = [Tensor(np.array([[1.0]])), Tensor(np.array([[1.0]]))]
    y = cheb_graph_conv(x, [t_1], s, theta)
    np.testing.assert_allclose(y.data.reshape(2), [0.5, -0.5], atol=1e-15)


def _dense_cheb_oracle(x, basis, s, theta):
    """Naive per-timestep per-term evaluation of the gated filter sum."""
    b, n, c, t = x.shape
    c_out = theta[0].shape[1]
    out = np.zeros((b, n, c_out, t))
    for bi in range(b):
        for ti in range(t):
            for t_k, th in zip(basis, theta):
                out[bi, :, :, ti] += (t_k * s[bi]) @ x[bi, :, :, ti] @ th
    return out


def test_cheb_conv_matches_dense_oracle():
    rng = np.random.default_rng(8)
    _, graph, params, _ = _setup(n=5, k=3, seed=8)
    x = rng.normal(size=(2, 5, 6, 4))
    s = np.abs(rng.normal(size=(2, 5, 5)))
    s /= s.sum(axis=-1, keepdims=True)
    theta = [rng.normal(size=(6, 3)) for _ in range(3)]
    got = cheb_graph_conv(Tensor(x), graph.cheb_basis[1:], Tensor(s),
                          [Tensor(t) for t in theta])
    want = _dense_cheb_oracle(x, graph.cheb_basis, s, theta)
    np.testing.assert_allclose(got.data, want, atol=1e-12)


def test_cheb_conv_rejects_length_mismatch():
    # the terms are T_1 .. T_{K-1}: one fewer than theta
    for n_terms, n_theta in ((0, 2), (2, 2), (1, 3), (0, 0)):
        with pytest.raises(UsageError, match="theta needs one more"):
            cheb_graph_conv(Tensor(np.zeros((1, 2, 2, 2))), [np.eye(2)] * n_terms,
                            Tensor(np.ones((1, 2, 2))), [Tensor(np.eye(2))] * n_theta)


# -- temporal convolution ----------------------------------------------------------


def test_temporal_conv_identity_kernel_on_nonnegative():
    y = np.abs(np.random.default_rng(1).normal(size=(1, 3, 4, 6)))
    phi = np.zeros((3, 4, 4))
    phi[1] = np.eye(4)
    out = temporal_conv(Tensor(y), Tensor(phi))
    np.testing.assert_allclose(out.data, y, atol=1e-14)


def test_temporal_conv_zero_input():
    out = temporal_conv(Tensor(np.zeros((1, 2, 3, 5))), Tensor(np.zeros((3, 3, 3))))
    np.testing.assert_array_equal(out.data, 0.0)


def test_temporal_conv_dropout_train_vs_eval():
    y = np.abs(np.random.default_rng(2).normal(size=(1, 3, 4, 6))) + 0.1
    phi = np.zeros((3, 4, 4))
    phi[1] = np.eye(4)
    eval_out = temporal_conv(Tensor(y), Tensor(phi))
    np.testing.assert_allclose(eval_out.data, y, atol=1e-14)  # inference: identity
    cfg = ModelConfig(n_nodes=3, channels=(4,), t_in=6)
    mask, = dropout_masks(cfg, 0.5, 1, np.random.default_rng(0))
    keep = np.random.default_rng(0).random(y.shape) >= 0.5
    np.testing.assert_array_equal(mask, keep / 0.5)   # the inverted-dropout scale
    train_out = temporal_conv(Tensor(y), Tensor(phi), mask)
    assert np.any(train_out.data == 0.0)
    np.testing.assert_allclose(train_out.data, y * keep * 2.0, atol=1e-14)


def test_forward_applies_dropout_masks_in_training_mode_only():
    _, graph, params, x = _setup(n=4, seed=9)
    masks = dropout_masks(params.config, 0.3, 1, np.random.default_rng(10))
    eval_logits, _ = forward(x[None], graph, params)
    assert np.array_equal(forward(x[None], graph, params, masks=masks)[0].data,
                          eval_logits.data)
    train_logits, _ = forward(x[None], graph, params, training=True, masks=masks)
    assert not np.array_equal(train_logits.data, eval_logits.data)
    assert np.array_equal(forward(x[None], graph, params, training=True)[0].data,
                          eval_logits.data)


# -- forward -------------------------------------------------------------------------


def test_forward_zero_input_zero_biases_gives_uniform_probs():
    cfg, graph, params, _ = _setup(n=4, t_in=6, channels=(5, 5))
    for blk in params.blocks:
        blk.b_s.data = np.zeros_like(blk.b_s.data)
        blk.b_e.data = np.zeros_like(blk.b_e.data)
    params.fc_b.data = np.zeros_like(params.fc_b.data)
    logits, probs = forward(np.zeros((4, 6, 6)), graph, params)
    np.testing.assert_allclose(logits.data, 0.0, atol=1e-15)
    np.testing.assert_allclose(probs.data, 1.0 / 3.0, atol=1e-15)


def test_forward_probs_rows_sum_to_one():
    _, graph, params, x = _setup(n=4, t_in=6, channels=(5, 4), seed=2)
    _, probs = forward(np.stack([x, 2.0 * x]), graph, params)
    np.testing.assert_allclose(probs.data.sum(axis=-1), 1.0, atol=1e-12)


def test_forward_deterministic_bitwise():
    _, graph, params, x = _setup(n=4, seed=6)
    l1, _ = forward(x, graph, params)
    l2, _ = forward(x, graph, params)
    assert np.array_equal(l1.data, l2.data)


def test_forward_shape_validation():
    _, graph, params, x = _setup(n=4)
    with pytest.raises(UsageError):
        forward(x[:3], graph, params)
    with pytest.raises(UsageError):
        forward(x[:, :, :4], graph, params)
    with pytest.raises(UsageError):
        forward(x, graph, params, ablation="bogus")


def test_model_config_rejects_no_input_channels():
    with pytest.raises(UsageError, match="in_channels"):
        ModelConfig(n_nodes=4, in_channels=0)


def test_forward_batched_matches_single():
    _, graph, params, x = _setup(n=4, seed=7)
    x2 = np.random.default_rng(1).normal(size=x.shape)
    batched, _ = forward(np.stack([x, x2]), graph, params)
    single_a, _ = forward(x, graph, params)
    single_b, _ = forward(x2, graph, params)
    np.testing.assert_array_equal(batched.data[0], single_a.data)
    np.testing.assert_array_equal(batched.data[1], single_b.data)


def _permuted_params(params: ModelParams, p: np.ndarray) -> ModelParams:
    out = params_from_arrays(params.config,
                             [t.data.copy() for _, t in named_parameters(params)])
    for blk_out, blk_in in zip(out.blocks, params.blocks):
        blk_out.p_s.data = p @ blk_in.p_s.data @ p.T
        blk_out.b_s.data = p @ blk_in.b_s.data @ p.T
        blk_out.u1.data = p @ blk_in.u1.data
        blk_out.u2.data = p @ blk_in.u2.data
    return out


def test_forward_node_permutation_equivariance_bitwise_canonical():
    n = 5
    cfg = ModelConfig(n_nodes=n, channels=(4,), t_in=4)
    nodes = _nodes(n, seed=11)
    params = init_params(cfg, 11)
    x = np.random.default_rng(12).normal(size=(n, 6, 4))
    perm = np.random.default_rng(13).permutation(n)
    p = np.eye(n)[perm]

    graph = RegionGraph.build(nodes, k=cfg.k)
    graph_p = RegionGraph.build([nodes[i] for i in perm], k=cfg.k)
    params_p = _permuted_params(params, p)
    with canonical_reductions():
        base, _ = forward(x, graph, params)
        permuted, _ = forward(x[perm], graph_p, params_p)
    assert np.array_equal(permuted.data, p @ base.data)


def test_forward_node_permutation_equivariance_fast_path_close():
    n = 5
    cfg = ModelConfig(n_nodes=n, channels=(4,), t_in=4)
    nodes = _nodes(n, seed=21)
    params = init_params(cfg, 21)
    x = np.random.default_rng(22).normal(size=(n, 6, 4))
    perm = np.random.default_rng(23).permutation(n)
    p = np.eye(n)[perm]
    base, _ = forward(x, RegionGraph.build(nodes, k=cfg.k), params)
    permuted, _ = forward(x[perm], RegionGraph.build([nodes[i] for i in perm], k=cfg.k),
                          _permuted_params(params, p))
    np.testing.assert_allclose(permuted.data, p @ base.data, atol=1e-12)


def test_canonical_and_fast_forward_agree():
    _, graph, params, x = _setup(n=4, seed=30)
    fast, _ = forward(x, graph, params)
    with canonical_reductions():
        slow, _ = forward(x, graph, params)
    np.testing.assert_allclose(fast.data, slow.data, atol=1e-12)


def _stgcn_no_attention_oracle(x, graph, params):
    """Plain spectral-temporal computation: no Hadamard gate, no re-weighting."""
    h = x.copy()
    cfg = params.config
    for blk in params.blocks:
        b, n, c, t = h.shape
        c_out = blk.theta[0].shape[1]
        y = np.zeros((b, n, c_out, t))
        for bi in range(b):
            for ti in range(t):
                for t_k, th in zip(graph.cheb_basis[:cfg.k], blk.theta):
                    y[bi, :, :, ti] += t_k @ h[bi, :, :, ti] @ th.data
        inner = np.maximum(y, 0.0)
        pad = cfg.kernel_width // 2
        xp = np.pad(inner, [(0, 0), (0, 0), (0, 0), (pad, pad)])
        conv = np.zeros_like(y)
        for w in range(cfg.kernel_width):
            conv += np.einsum("bnit,io->bnot", xp[..., w:w + t], blk.phi.data[w])
        h = np.maximum(conv, 0.0)
    flat = h.reshape(h.shape[0], h.shape[1], -1)
    return flat @ params.fc_w.data + params.fc_b.data


def test_attention_off_equals_plain_stgcn_oracle():
    cfg = ModelConfig(n_nodes=4, channels=(5, 4), t_in=6)
    graph = RegionGraph.build(_nodes(4, seed=31), k=cfg.k)
    params = init_params(cfg, 31)
    x = np.random.default_rng(32).normal(size=(1, 4, 6, 6))
    got, _ = forward(x, graph, params, ablation="attention-off")
    want = _stgcn_no_attention_oracle(x, graph, params)
    np.testing.assert_allclose(got.data[None] if got.ndim == 2 else got.data,
                               want, atol=1e-10)


def test_forward_gradients_match_finite_differences_wrt_input():
    # cross-entropy of a 2-node single-block model as a function of the input
    cfg = ModelConfig(n_nodes=2, channels=(3,), t_in=3)
    graph = RegionGraph.build(_nodes(2, seed=41), k=cfg.k)
    params = init_params(cfg, 41)
    labels = np.array([0, 2])

    def loss_of_input(t: Tensor) -> Tensor:
        logits, _ = forward(t.reshape(2, 6, 3), graph, params)
        logp = tc.log_softmax(logits, axis=-1)
        onehot = np.eye(3)[labels]
        return -(logp * Tensor(onehot)).sum(axis=-1).mean()

    x = Tensor(np.random.default_rng(42).normal(size=(2, 6, 3)).ravel())
    assert gradient_check(loss_of_input, x) < 1e-4


# A tape that kept every op's output and inputs held 53.7 MiB here, at the
# benchmark's training micro-batch (8 windows of 50 units).
def test_a_training_tape_holds_only_what_backward_reads():
    graph = RegionGraph.build(_nodes(50, seed=70), k=3)
    params = init_params(ModelConfig(n_nodes=50), 70)
    x = np.random.default_rng(71).normal(size=(8, 50, 6, 12))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            logits, _ = forward(x, graph, params, training=True)
            loss = tc.log_softmax(logits, axis=-1).mean()
        del logits, _
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 0.55 * 53.7 * 2**20, f"{held / 2**20:.1f} MiB"
    tape.backward(loss)
    assert params.fc_w.grad is not None


def test_arrays_no_rule_reads_are_freed_during_forward(monkeypatch):
    # the ReLU inputs (Chebyshev sums, temporal conv outputs) and the attention
    # scores (sigmoid inputs, inside the attention kernels)
    freed = []

    def watching(op):
        def wrapped(t):
            a = t.data if isinstance(t, Tensor) else t
            freed.append(weakref.ref(a if a.base is None else a.base))
            return op(t)
        return wrapped

    monkeypatch.setattr(tc, "relu", watching(tc.relu))
    monkeypatch.setattr(tc, "_sigmoid_data", watching(tc._sigmoid_data))
    _, graph, params, x = _setup(n=5, seed=72, channels=(4, 4))
    with Tape() as tape:
        logits, _ = forward(x, graph, params, training=True)
        loss = logits.sum()
    assert len(freed) == 2 * 4 and all(ref() is None for ref in freed)
    tape.backward(loss)


def test_nan_locates_failing_block():
    _, graph, params, x = _setup(n=4, seed=50, channels=(5, 5))
    # block 0 emits large positive values; block 1's kernel then overflows there
    params.blocks[0].phi.data = np.full_like(params.blocks[0].phi.data, 1e5)
    params.blocks[1].phi.data = np.full_like(params.blocks[1].phi.data, 1e308)
    with pytest.raises(DomainError, match="block 1"):
        forward(np.abs(x) + 1.0, graph, params)


# -- persistence -----------------------------------------------------------------


def test_weights_round_trip_bitwise(tmp_path):
    _, graph, params, x = _setup(n=4, seed=60, channels=(5, 4))
    path = tmp_path / "weights.bin"
    save_weights(params, path)
    loaded = load_weights(path)
    for (name_a, ta), (name_b, tb) in zip(named_parameters(params),
                                          named_parameters(loaded)):
        assert name_a == name_b
        assert np.array_equal(ta.data, tb.data), name_a
    l1, _ = forward(x, graph, params)
    l2, _ = forward(x, graph, loaded)
    assert np.array_equal(l1.data, l2.data)
    # re-saving is byte-identical
    save_weights(loaded, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_weights_checksum_detects_corruption(tmp_path):
    _, _, params, _ = _setup(n=3, seed=61)
    path = tmp_path / "weights.bin"
    save_weights(params, path)
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(DomainError):
        load_weights(path)


def test_init_is_seed_deterministic():
    cfg = ModelConfig(n_nodes=4, channels=(5,), t_in=6)
    a, b = init_params(cfg, 7), init_params(cfg, 7)
    for (_, ta), (_, tb) in zip(named_parameters(a), named_parameters(b)):
        assert np.array_equal(ta.data, tb.data)
    c = init_params(ModelConfig(n_nodes=4, channels=(5,), t_in=6), 8)
    assert not np.array_equal(a.fc_w.data, c.fc_w.data)


# sha256 of the float64 LE bytes of every group, in named_parameters order, as
# drawn before the parameter layout was written down once: a change of draw
# order, shape, fan or name order changes it
INIT_SHA256 = "9e1f7c5f9e34337e5e804820bec16cf209d5da36331998eda3688b6af7e08312"


def test_init_params_draws_the_recorded_weights():
    params = init_params(ModelConfig(n_nodes=4, channels=(5, 3), t_in=6, k=3), 7)
    named = named_parameters(params)
    assert [name for name, _ in named[:3]] == ["block0.p_s", "block0.b_s", "block0.w1"]
    assert len(named) == 2 * (10 + 3 + 1) + 2   # per block: 10 groups, K theta, phi
    digest = hashlib.sha256(b"".join(t.data.astype("<f8").tobytes() for _, t in named))
    assert digest.hexdigest() == INIT_SHA256


def test_load_weights_draws_no_glorot_init(tmp_path, monkeypatch):
    _, _, params, _ = _setup(n=4, seed=62, channels=(5, 4))
    save_weights(params, tmp_path / "weights.bin")
    monkeypatch.setattr(np.random, "default_rng", None)   # any draw raises TypeError
    loaded = load_weights(tmp_path / "weights.bin")
    for (_, a), (_, b) in zip(named_parameters(params), named_parameters(loaded)):
        assert a.data.tobytes() == b.data.tobytes()
