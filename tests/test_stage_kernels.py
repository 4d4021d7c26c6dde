"""The fused block-stage kernels of ``floodnowcast.model`` against the
composite versions they replaced, built from public tensor ops.

Each kernel runs the same numpy arithmetic forward and replays the same
chain of backward rules, so its output and every input gradient must be
bitwise equal to the composite's, on the fast path and under
``canonical_reductions``. A finite-difference check per stage guards the
rules themselves.
"""

import numpy as np
import pytest

from floodnowcast import model
from floodnowcast import tensor as tc
from floodnowcast.graph import RegionGraph, StaticFeatures, UnitNode
from floodnowcast.model import ModelConfig, forward, init_params, named_parameters
from floodnowcast.tensor import Tape, Tensor, canonical_reductions, gradient_check


# -- the composite stages, as the model computed them before the kernels -----------


# shape ops the composites read that the model no longer does, with their rules
def transpose(x, axes):
    inv = tuple(np.argsort(axes))
    return tc._make(x.data.transpose(axes), (x,), lambda g: (g.transpose(inv),), "transpose",
                    check=False)


def swap_last2(x):
    return transpose(x, tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2))


def diagonal(x):
    """Main diagonal of the trailing two axes: (..., N, N) to (..., N)."""
    idx, shape = np.arange(x.shape[-1]), x.shape

    def rule(g):
        full = np.zeros(shape)
        full[..., idx, idx] = g
        return (full,)

    return tc._make(x.data[..., idx, idx], (x,), rule, "diagonal", check=False)


def oracle_spatial_attention(x, blk):
    b, n, c, t = x.shape
    x_w1 = tc.matmul(x, blk.w1.reshape(t, 1)).reshape(b, n, c)
    lhs = tc.matmul(x_w1, blk.w2)
    rhs = swap_last2(tc.matmul(blk.w3.reshape(1, c), x).reshape(b, n, t))
    score = tc.matmul(lhs, rhs) + blk.b_s
    return tc.softmax(blk.p_s * tc.sigmoid(score), axis=-1)


def oracle_temporal_attention(x, blk):
    b, n, c, t = x.shape
    xt = transpose(x, (0, 3, 2, 1))
    xt_u1 = tc.matmul(xt, blk.u1.reshape(n, 1)).reshape(b, t, c)
    lhs = tc.matmul(xt_u1, swap_last2(blk.u2))
    rhs = tc.matmul(blk.u3.reshape(1, c), x).reshape(b, n, t)
    score = tc.matmul(lhs, rhs) + blk.b_e
    return tc.softmax(blk.v_e * tc.sigmoid(score), axis=-1)


def oracle_apply_temporal_attention(x, e_norm):
    b, n, c, t = x.shape
    out = tc.matmul(x.reshape(b, n * c, t), swap_last2(e_norm))
    return out.reshape(b, n, c, t)


def oracle_cheb_graph_conv(x, terms, s_norm, theta):
    b, n, c, t = x.shape
    flat = transpose(x, (0, 1, 3, 2)).reshape(b, n, t * c)
    diag = diagonal(s_norm).reshape(s_norm.shape[:-1] + (1,))
    acc = tc.matmul((diag * flat).reshape(b, n, t, c), theta[0])
    for t_k, theta_k in zip(terms, theta[1:]):
        mixed = tc.matmul(Tensor(t_k) * s_norm, flat).reshape(b, n, t, c)
        acc = acc + tc.matmul(mixed, theta_k)
    return transpose(acc, (0, 1, 3, 2))


ORACLES = {
    "temporal_attention": oracle_temporal_attention,
    "apply_temporal_attention": oracle_apply_temporal_attention,
    "spatial_attention": oracle_spatial_attention,
    "cheb_graph_conv": oracle_cheb_graph_conv,
}


# -- fixtures --------------------------------------------------------------------------


def _nodes(n, seed):
    rng = np.random.default_rng(seed)
    return [UnitNode(id=f"n{i}", x=float(rng.uniform(0, 5000)), y=float(rng.uniform(0, 5000)),
                     static=StaticFeatures(in_floodplain=bool(rng.integers(0, 2)),
                                           residential_ratio=float(rng.uniform(0, 1)),
                                           watershed_id=f"w{rng.integers(0, 2)}",
                                           dist_coast=float(rng.uniform(100, 9000)),
                                           dist_stream=float(rng.uniform(10, 3000))))
            for i in range(n)]


def _stage_inputs(b, n, c, t, k, seed, x_grad=True, s_grad=True):
    """Fresh leaves for every stage: (x, block params, E, S, theta, terms)."""
    rng = np.random.default_rng(seed)
    params = init_params(ModelConfig(n_nodes=n, in_channels=c, channels=(5,), t_in=t, k=k),
                         seed)
    blk = params.blocks[0]
    x = Tensor(rng.normal(size=(b, n, c, t)), requires_grad=x_grad)
    e = rng.random((b, t, t))
    s = rng.random((b, n, n))
    e_norm = Tensor(e / e.sum(axis=-1, keepdims=True), requires_grad=True)
    s_norm = Tensor(s / s.sum(axis=-1, keepdims=True), requires_grad=s_grad)
    graph = RegionGraph.build(_nodes(n, seed), k=k)
    return x, blk, e_norm, s_norm, graph.cheb_basis[1:k]


def _run(stage, fn, inputs):
    """Output and (name -> gradient) of one stage call under a tape, with a
    fixed random cotangent, so every path of the rule is exercised."""
    x, blk, e_norm, s_norm, terms = inputs
    leaves = {"x": x, "e_norm": e_norm, "s_norm": s_norm,
              **{f.name: getattr(blk, f.name) for f in model.fields(model.STBlockParams)
                 if f.name != "theta"},
              **{f"theta{i}": th for i, th in enumerate(blk.theta)}}
    for leaf in leaves.values():
        leaf.grad = None
    with Tape() as tape:
        if stage in ("temporal_attention", "spatial_attention"):
            out = fn(x, blk)
        elif stage == "apply_temporal_attention":
            out = fn(x, e_norm)
        else:
            out = fn(x, terms, s_norm, blk.theta)
        cotangent = Tensor(np.random.default_rng(5).normal(size=out.shape))
        loss = (out * cotangent).sum()
    tape.backward(loss)
    return out.data, {name: leaf.grad for name, leaf in leaves.items() if leaf.grad is not None}


SHAPES = [(1, 4, 6, 5, 3), (3, 5, 4, 6, 3), (2, 6, 3, 4, 4), (2, 3, 2, 3, 1), (1, 50, 6, 12, 3)]


@pytest.mark.parametrize("canonical", [False, True], ids=["fast", "canonical"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("stage", sorted(ORACLES))
def test_stage_kernel_is_bitwise_equal_to_its_composite(stage, shape, canonical):
    b, n, c, t, k = shape
    for x_grad, s_grad in ((True, True), (False, True), (True, False)):
        inputs = _stage_inputs(b, n, c, t, k, seed=sum(shape), x_grad=x_grad, s_grad=s_grad)
        if canonical:
            with canonical_reductions():
                got, got_grads = _run(stage, getattr(model, stage), inputs)
                want, want_grads = _run(stage, ORACLES[stage], inputs)
        else:
            got, got_grads = _run(stage, getattr(model, stage), inputs)
            want, want_grads = _run(stage, ORACLES[stage], inputs)
        assert got.tobytes() == want.tobytes()
        assert sorted(got_grads) == sorted(want_grads)
        for name, grad in want_grads.items():
            assert got_grads[name].shape == grad.shape, name
            assert np.array_equal(got_grads[name], grad), name
            assert got_grads[name].tobytes() == np.ascontiguousarray(grad).tobytes(), name


def _oracle_forward(monkeypatch):
    for stage, fn in ORACLES.items():
        monkeypatch.setattr(model, stage, fn)


@pytest.mark.parametrize("ablation,training", [("none", True), ("none", False),
                                               ("attention-off", True)])
def test_forward_and_gradients_are_bitwise_equal_to_the_composite_model(
        monkeypatch, ablation, training):
    cfg = ModelConfig(n_nodes=6, channels=(5, 4), t_in=5)
    graph = RegionGraph.build(_nodes(6, 80), k=cfg.k)
    x = np.random.default_rng(81).normal(size=(3, 6, 6, 5))
    masks = model.dropout_masks(cfg, 0.3, 3, np.random.default_rng(82))
    runs = []
    for composite in (False, True):
        if composite:
            _oracle_forward(monkeypatch)
        params = init_params(cfg, 80)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            logits, probs = forward(xt, graph, params, training=training, ablation=ablation,
                                    masks=masks)
            loss = tc.log_softmax(logits, axis=-1).sum()
        tape.backward(loss)
        runs.append([probs.data, xt.grad] + [t.grad for _, t in named_parameters(params)])
    for got, want in zip(*runs):   # attention-off leaves the attention groups without one
        assert (got is None and want is None) or got.tobytes() == want.tobytes()
    assert runs[0][1] is not None and runs[0][-1] is not None


# -- finite differences ----------------------------------------------------------------


@pytest.mark.parametrize("stage", sorted(ORACLES))
def test_stage_kernel_gradients_match_finite_differences(stage):
    x, blk, e_norm, s_norm, terms = _stage_inputs(2, 4, 3, 4, 3, seed=90)
    w = Tensor(np.random.default_rng(91).normal(size=(2, 4, 3, 4)))
    calls = {
        "temporal_attention": lambda v: model.temporal_attention(v, blk),
        "spatial_attention": lambda v: model.spatial_attention(v, blk),
        "apply_temporal_attention": lambda v: model.apply_temporal_attention(v, e_norm),
        "cheb_graph_conv": lambda v: model.cheb_graph_conv(v, terms, s_norm, blk.theta),
    }

    def loss_of_x(flat):
        out = calls[stage](flat.reshape(x.shape))
        return (out * Tensor(np.resize(w.data, out.shape))).sum()

    assert gradient_check(loss_of_x, Tensor(x.data.ravel())) < 1e-4
    # the other input of the stages that take one
    if stage == "apply_temporal_attention":
        def loss_of_e(flat):
            out = model.apply_temporal_attention(x, flat.reshape(e_norm.shape))
            return (out * w).sum()
        assert gradient_check(loss_of_e, Tensor(e_norm.data.ravel())) < 1e-4
    if stage == "cheb_graph_conv":
        def loss_of_s(flat):
            return (model.cheb_graph_conv(x, terms, flat.reshape(s_norm.shape), blk.theta)
                    * Tensor(np.resize(w.data, (2, 4, 5, 4)))).sum()
        assert gradient_check(loss_of_s, Tensor(s_norm.data.ravel())) < 1e-4


def _square_sum(y):
    return (y * y).sum()


# the shape ops above, checked as tests/test_tensor.py checks the public ops
ORACLE_OPS = {
    "transpose": lambda t: (swap_last2(t.reshape(4, t.size // 4)) * 2.0).sum(),
    "diagonal": lambda t: _square_sum(diagonal(t.reshape(1, 4, 4))),
}


@pytest.mark.parametrize("name", sorted(ORACLE_OPS))
def test_oracle_shape_op_gradients_match_finite_differences(name):
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        x = Tensor(rng.normal(scale=0.8, size=16))
        assert gradient_check(ORACLE_OPS[name], x) < 1e-4, f"{name} seed {seed}"


def test_a_batch_one_forward_records_at_most_40_tape_entries():
    # the composite stages recorded 161 entries here
    graph = RegionGraph.build(_nodes(50, 93), k=3)
    params = init_params(ModelConfig(n_nodes=50), 93)
    x = np.random.default_rng(94).normal(size=(50, 6, 12))
    with Tape() as tape:
        forward(x, graph, params)
    assert len(tape) <= 40
