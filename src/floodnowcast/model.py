"""Attention-based spatial-temporal graph network for 3-class nowcasting.

The model stacks ``L`` spatial-temporal blocks over an input window of shape
``N x C x T`` (nodes x channels x timesteps) and finishes with a per-node
fully connected softmax head over the flattened block output. One block does,
in order:

1. temporal attention: a learned row-stochastic ``T x T`` matrix re-weights
   the window along time;
2. spatial attention: a learned row-stochastic ``N x N`` matrix scores
   node-node influence for the current window;
3. graph convolution: Chebyshev spectral filters, each basis matrix gated by
   the spatial attention through an elementwise (Hadamard) product;
4. temporal convolution: ReLU, then a same-padded width-3 channel-mixing
   filter along time, then ReLU, then (during training) dropout.

Stages 1-3 are kernels: each records one op on the autodiff tape of
:mod:`floodnowcast.tensor` (temporal attention two, one for the map and one
for applying it), whose forward runs the numpy arithmetic of the public
tensor ops it replaces and whose rule replays their backward rules in
reverse, through the array-level helpers those ops share. Outputs and
gradients are bitwise those of the composite of public ops. The temporal
convolution and the head are built from public ops.

Attention score contractions follow the stacked-window form

    S = P ⊙ sigmoid((X w1) W2 (w3 X)^T + B)

where ``w1`` contracts time, ``W2`` maps channels back to time and ``w3``
contracts channels, producing an ``N x N`` score (and the transposed
analogue over the time axis for temporal attention). Rows are normalized
with a softmax.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (DomainError, UsageError, check_field_types, check_payload,
                     config_from, read_sealed, write_sealed)
from .graph import RegionGraph
from .pipeline import N_CLASSES
from . import tensor as tc
from .tensor import Tensor

__all__ = [
    "ABLATIONS",
    "ModelConfig",
    "STBlockParams",
    "ModelParams",
    "param_layout",
    "params_from_arrays",
    "init_params",
    "spatial_attention",
    "temporal_attention",
    "apply_temporal_attention",
    "cheb_graph_conv",
    "temporal_conv",
    "dropout_masks",
    "forward",
    "named_parameters",
    "save_weights",
    "load_weights",
    "read_weights_header",
]

# "attention-off" freezes both attention maps to constants (spatial scores
# become all-ones, so the Hadamard gate is a no-op and the block reduces to a
# plain spectral-temporal convolution); "graph-off" is applied by handing the
# model an edgeless graph, not by a forward-pass switch.
ABLATIONS = ("none", "attention-off", "graph-off")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of one model instance: shapes only, no run settings."""

    n_nodes: int
    in_channels: int = 6
    channels: tuple[int, ...] = (32, 32, 32)   # one entry per ST block
    k: int = 3                                 # Chebyshev order
    kernel_width: int = 3                      # temporal kernel width (odd)
    t_in: int = 12                             # input window length
    horizon: int = 1                           # steps ahead of the window end

    def __post_init__(self):
        check_field_types(self)
        if self.n_nodes < 1 or self.t_in < 1 or self.k < 1 or not self.channels:
            raise UsageError("n_nodes, t_in, k must be >= 1 and channels non-empty")
        if self.in_channels < 1 or self.kernel_width < 1 or min(self.channels) < 1:
            raise UsageError(f"in_channels ({self.in_channels}), kernel_width "
                             f"({self.kernel_width}) and every channels entry "
                             f"({list(self.channels)}) must be >= 1")
        if self.kernel_width % 2 == 0:
            raise UsageError(f"kernel_width must be odd, got {self.kernel_width}")
        if self.horizon < 0:
            raise UsageError(f"horizon must be >= 0, got {self.horizon}")


@dataclass
class STBlockParams:
    """Learnable tensors of one spatial-temporal block (shapes: :func:`param_layout`)."""

    p_s: Tensor     # spatial attention gate
    b_s: Tensor     # spatial attention bias
    w1: Tensor      # time contraction
    w2: Tensor
    w3: Tensor      # channel contraction
    v_e: Tensor     # temporal attention gate
    b_e: Tensor     # temporal attention bias
    u1: Tensor      # node contraction
    u2: Tensor
    u3: Tensor
    theta: list[Tensor]   # K Chebyshev coefficient matrices
    phi: Tensor     # temporal kernel


@dataclass
class ModelParams:
    """All learnable state plus the configuration that shaped it."""

    config: ModelConfig
    blocks: list[STBlockParams]
    fc_w: Tensor
    fc_b: Tensor


def param_layout(config: ModelConfig
                 ) -> list[tuple[str, tuple[int, ...], tuple[int, int]]]:
    """``(name, shape, Glorot fans)`` of every parameter group, in the one
    order that is the init draw order, the ``named_parameters`` order and the
    ``weights.bin`` payload order: blocks in order, each block's groups in
    ``STBlockParams`` field order, the FC head last."""
    n, t, kw = config.n_nodes, config.t_in, config.kernel_width
    layout = []

    def group(name, shape, fans=None):
        layout.append((name, shape, fans or (shape[0], shape[-1])))

    c_in = config.in_channels
    for i, c_out in enumerate(config.channels):
        p = f"block{i}."
        for name, shape in (("p_s", (n, n)), ("b_s", (n, n)), ("w1", (t,)),
                            ("w2", (c_in, t)), ("w3", (c_in,)), ("v_e", (t, t)),
                            ("b_e", (t, t)), ("u1", (n,)), ("u2", (n, c_in)),
                            ("u3", (c_in,))):
            group(p + name, shape)
        for k in range(config.k):
            group(f"{p}theta{k}", (c_in, c_out))
        group(p + "phi", (kw, c_out, c_out), fans=(kw * c_out, kw * c_out))
        c_in = c_out
    group("fc.weight", (config.channels[-1] * t, N_CLASSES))
    group("fc.bias", (N_CLASSES,))
    return layout


def params_from_arrays(config: ModelConfig, arrays: Sequence[np.ndarray]) -> ModelParams:
    """``ModelParams`` over ``arrays``, given in :func:`param_layout` order, each
    on a new leaf tensor (the arrays themselves are not copied)."""
    leaves = iter([Tensor(a, requires_grad=True) for a in arrays])
    blocks = [STBlockParams(**{f.name: [next(leaves) for _ in range(config.k)]
                               if f.name == "theta" else next(leaves)
                               for f in fields(STBlockParams)})
              for _ in config.channels]
    return ModelParams(config, blocks, fc_w=next(leaves), fc_b=next(leaves))


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Seeded Glorot-uniform initialization, drawn in :func:`param_layout`
    order, so a seed pins every weight bit-for-bit."""
    rng = np.random.default_rng(seed)
    arrays = []
    for _, shape, (fan_in, fan_out) in param_layout(config):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        arrays.append(rng.uniform(-r, r, size=shape))
    return params_from_arrays(config, arrays)


def named_parameters(params: ModelParams) -> list[tuple[str, Tensor]]:
    """Parameter groups in :func:`param_layout` order."""
    tensors = []
    for blk in params.blocks:
        for value in vars(blk).values():
            tensors += value if isinstance(value, list) else [value]
    tensors += [params.fc_w, params.fc_b]
    return [(name, t) for (name, _, _), t in zip(param_layout(params.config), tensors,
                                                 strict=True)]


# -- block operations ---------------------------------------------------------


def _attention_map(lhs: np.ndarray, rhs: np.ndarray, bias: np.ndarray, gate: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """``softmax(gate ⊙ sigmoid(lhs @ rhs + bias))`` along the last axis, and
    the sigmoid it gated: the step both attention maps end with."""
    score = tc._finite(tc._matmul_data(lhs, rhs), "matmul")
    score = tc._finite(score + bias, "add")
    sg = tc._sigmoid_data(score)
    gated = tc._finite(gate * sg, "mul")
    return tc._finite(tc._softmax_data(gated, -1)[1], "softmax"), sg


def _attention_map_grads(g, out, sg, lhs, rhs, bias_shape, gate) -> tuple:
    """Gradients of :func:`_attention_map`'s ``(lhs, rhs, bias, gate)``, each
    op's rule applied in reverse."""
    g_gate, g_sg = tc._mul_grads(tc._softmax_grad(g, out, 2), gate, sg, gate.shape,
                                 sg.shape)
    g_score = tc._sigmoid_grad(g_sg, sg)
    g_lhs, g_rhs = tc._matmul_grads(g_score, lhs, rhs, lhs.shape, rhs.shape)
    return g_lhs, g_rhs, tc._unbroadcast(g_score, bias_shape), g_gate


def spatial_attention(x: Tensor, blk: STBlockParams) -> Tensor:
    """Row-stochastic node-node attention, shape (B, N, N).

    ``S = P ⊙ sigmoid((X w1) W2 (w3 X)^T + B)`` followed by a row softmax.
    """
    if x.ndim != 4:
        raise UsageError(f"expected (B, N, C, T) input, got {x.shape}")
    b, n, c, t = x.shape
    if c != blk.w2.shape[0] or t != blk.w1.shape[0]:
        raise UsageError(f"input {x.shape} does not match spatial attention params")
    xd, w2 = x.data, blk.w2.data
    w1 = blk.w1.data.reshape(t, 1)
    w3 = blk.w3.data.reshape(1, c)
    with np.errstate(over="ignore"):   # inf is caught by the finite checks
        m1 = tc._finite(tc._matmul_data(xd, w1), "matmul")          # (B, N, C, 1)
        x_w1 = m1.reshape(b, n, c)
        lhs = tc._finite(tc._matmul_data(x_w1, w2), "matmul")       # (B, N, T)
        m3 = tc._finite(tc._matmul_data(w3, xd), "matmul")          # (B, N, 1, T)
        rhs = m3.reshape(b, n, t).transpose((0, 2, 1))              # (B, T, N)
        out, sg = _attention_map(lhs, rhs, blk.b_s.data, blk.p_s.data)
    m1_shape, m3_shape, p_s = m1.shape, m3.shape, blk.p_s.data
    if not x.requires_grad:   # the x gradients read w1 and w3; without them, none
        w1 = w3 = None

    def rule(g):
        g_lhs, g_rhs, g_b, g_p = _attention_map_grads(g, out, sg, lhs, rhs, p_s.shape, p_s)
        g_w3, gx_w3 = tc._matmul_grads(g_rhs.transpose((0, 2, 1)).reshape(m3_shape), w3,
                                       xd, (1, c), xd.shape)
        g_x_w1, g_w2 = tc._matmul_grads(g_lhs, x_w1, w2, x_w1.shape, w2.shape)
        gx_w1, g_w1 = tc._matmul_grads(g_x_w1.reshape(m1_shape), xd, w1, xd.shape, (t, 1))
        return gx_w3, gx_w1, g_w1.reshape(t), g_w2, g_w3.reshape(c), g_b, g_p

    # x is listed once per path it is read along, in the order the public ops
    # would have added their gradients: the w3 product first, then the w1 one
    return tc._make(out, (x, x, blk.w1, blk.w2, blk.w3, blk.b_s, blk.p_s), rule,
                    "spatial_attention", check=False)


def temporal_attention(x: Tensor, blk: STBlockParams) -> Tensor:
    """Row-stochastic timestep-timestep attention, shape (B, T, T).

    The spatial form transposed onto the time axis:
    ``E = V ⊙ sigmoid((X^T u1) U2^T (u3 X) + B)`` with a row softmax.
    """
    if x.ndim != 4:
        raise UsageError(f"expected (B, N, C, T) input, got {x.shape}")
    b, n, c, t = x.shape
    if n != blk.u1.shape[0] or c != blk.u3.shape[0]:
        raise UsageError(f"input {x.shape} does not match temporal attention params")
    xd = x.data
    xt = xd.transpose((0, 3, 2, 1))                                 # (B, T, C, N)
    u1 = blk.u1.data.reshape(n, 1)
    u2t = blk.u2.data.transpose((1, 0))
    u3 = blk.u3.data.reshape(1, c)
    with np.errstate(over="ignore"):
        m1 = tc._finite(tc._matmul_data(xt, u1), "matmul")          # (B, T, C, 1)
        xt_u1 = m1.reshape(b, t, c)
        lhs = tc._finite(tc._matmul_data(xt_u1, u2t), "matmul")     # (B, T, N)
        m3 = tc._finite(tc._matmul_data(u3, xd), "matmul")          # (B, N, 1, T)
        rhs = m3.reshape(b, n, t)
        out, sg = _attention_map(lhs, rhs, blk.b_e.data, blk.v_e.data)
    m1_shape, m3_shape, v_e = m1.shape, m3.shape, blk.v_e.data
    if not x.requires_grad:   # as in spatial_attention
        u1 = u3 = None

    def rule(g):
        g_lhs, g_rhs, g_b, g_v = _attention_map_grads(g, out, sg, lhs, rhs, v_e.shape, v_e)
        g_u3, gx_u3 = tc._matmul_grads(g_rhs.reshape(m3_shape), u3, xd, (1, c), xd.shape)
        g_xt_u1, g_u2t = tc._matmul_grads(g_lhs, xt_u1, u2t, xt_u1.shape, u2t.shape)
        g_xt, g_u1 = tc._matmul_grads(g_xt_u1.reshape(m1_shape), xt, u1, xt.shape, (n, 1))
        gx_t = None if g_xt is None else g_xt.transpose((0, 3, 2, 1))
        return gx_u3, gx_t, g_u1.reshape(n), g_u2t.transpose((1, 0)), g_u3.reshape(c), \
            g_b, g_v

    # as in spatial_attention: the u3 product's gradient adds before the u1 one's
    return tc._make(out, (x, x, blk.u1, blk.u2, blk.u3, blk.b_e, blk.v_e), rule,
                    "temporal_attention", check=False)


def apply_temporal_attention(x: Tensor, e_norm: Tensor) -> Tensor:
    """Re-weight the window along time: out[..., t] = sum_j E[t, j] x[..., j]."""
    b, n, c, t = x.shape
    flat = x.data.reshape(b, n * c, t)
    e_t = e_norm.data.transpose((0, 2, 1))
    with np.errstate(over="ignore"):
        out = tc._finite(tc._matmul_data(flat, e_t), "matmul")     # (B, N*C, T)
    out_shape, e_shape = out.shape, e_t.shape
    flat_kept = flat if e_norm.requires_grad else None
    e_t = e_t if x.requires_grad else None

    def rule(g):
        g_flat, g_e = tc._matmul_grads(g.reshape(out_shape), flat_kept, e_t, (b, n * c, t),
                                       e_shape)
        return (None if g_flat is None else g_flat.reshape(b, n, c, t),
                None if g_e is None else g_e.transpose((0, 2, 1)))

    return tc._make(out.reshape(b, n, c, t), (x, e_norm), rule, "apply_temporal_attention",
                    check=False)


def cheb_graph_conv(x: Tensor, terms: Sequence[np.ndarray], s_norm: Tensor,
                    theta: Sequence[Tensor]) -> Tensor:
    """Spectral graph convolution with attention-gated Chebyshev filters.

    Per timestep: ``Y[:, :, t] = sum_k (T_k ⊙ S) X[:, :, t] theta_k``.
    ``terms`` are ``T_1 .. T_{K-1}``, one fewer than ``theta``: ``T_0 = I``
    reads no matrix, since its gated term is the row scaling ``diag(S) X``.
    That term is computed as one, which is exact (each output has a single
    nonzero product term), instead of as an N x N matrix product. A
    non-finite ``T_k`` shows as a non-finite gate, since ``S`` is a softmax.
    """
    if len(terms) != len(theta) - 1:
        raise UsageError(f"got {len(terms)} Chebyshev terms T_1.. and {len(theta)} "
                         f"theta matrices; theta needs one more, for T_0")
    b, n, c, t = x.shape
    s = s_norm.data
    terms = [np.asarray(t_k, dtype=np.float64) for t_k in terms]
    # fold time into the feature axis so each filter order is one batched matmul
    flat = x.data.transpose((0, 1, 3, 2)).reshape(b, n, t * c)     # (B, N, T*C)
    idx = np.arange(n)
    diag = s[..., idx, idx].reshape(s.shape[:-1] + (1,))            # (B or 1, N, 1)
    with np.errstate(over="ignore"):
        scaled = tc._finite(diag * flat, "mul").reshape(b, n, t, c)
        acc = tc._finite(tc._matmul_data(scaled, theta[0].data), "matmul")
        gates, mixed = [], []                                       # per term T_1 ..
        for t_k, theta_k in zip(terms, theta[1:]):
            gates.append(tc._finite(t_k * s, "mul"))                # (B or 1, N, N)
            mixed.append(tc._finite(tc._matmul_data(gates[-1], flat), "matmul")
                         .reshape(b, n, t, c))
            acc = tc._finite(acc + tc._finite(tc._matmul_data(mixed[-1], theta_k.data),
                                              "matmul"), "add")
    need_x, need_s = x.requires_grad, s_norm.requires_grad
    # keep what each op's rule reads: the gates and the diagonal for x's
    # gradient, flat and T_k for S's, theta only when either is needed
    kept_terms = terms if need_s else [None] * len(terms)
    diag_shape, flat_shape, s_shape = diag.shape, flat.shape, s.shape
    if not need_x:
        diag, gates = None, [None] * len(gates)
    flat = flat if need_s else None
    thetas = [th.data if need_x or need_s else None for th in theta]
    theta_shapes = [th.shape for th in theta]

    def rule(g):
        g_acc = g.transpose((0, 1, 3, 2))
        g_flat, g_s, g_theta = None, [], [None] * len(theta_shapes)
        for k in range(len(mixed) - 1, -1, -1):   # the reverse of recording order
            g_mixed, g_theta[k + 1] = tc._matmul_grads(g_acc, mixed[k], thetas[k + 1],
                                                       mixed[k].shape, theta_shapes[k + 1])
            g_gate = g_fk = None
            if g_mixed is not None:
                g_gate, g_fk = tc._matmul_grads(g_mixed.reshape(flat_shape), gates[k], flat,
                                                s_shape, flat_shape)
            if g_fk is not None:
                g_flat = g_fk if g_flat is None else g_flat + g_fk
            g_s.append(None if g_gate is None else
                       tc._mul_grads(g_gate, kept_terms[k], None, kept_terms[k].shape,
                                     s_shape)[1])
        g_scaled, g_theta[0] = tc._matmul_grads(g_acc, scaled, thetas[0], scaled.shape,
                                                theta_shapes[0])
        g_x = g_sd = None
        if g_scaled is not None:
            g_d, g_f0 = tc._mul_grads(g_scaled.reshape(flat_shape), diag, flat, diag_shape,
                                      flat_shape)
            if g_f0 is not None:
                g_flat = g_f0 if g_flat is None else g_flat + g_f0
                g_x = g_flat.reshape(b, n, t, c).transpose((0, 1, 3, 2))
            if g_d is not None:
                g_sd = np.zeros(s_shape)
                g_sd[..., idx, idx] = g_d.reshape(diag_shape[:-1])
        return (g_x, *g_s, g_sd, *g_theta)

    # S is listed once per gate, last term first, then once for the diagonal:
    # the order the public ops would have added its gradients in
    return tc._make(acc.transpose((0, 1, 3, 2)),
                    (x, *[s_norm] * len(terms), s_norm, *theta), rule, "cheb_graph_conv",
                    check=False)


def temporal_conv(y: Tensor, phi: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
    """ReLU, same-padded temporal convolution, ReLU, then dropout if a mask is given.

    The incoming ``y`` is the raw graph-convolution output; the inner ReLU is
    applied here so the graph convolution stays purely linear and testable.
    Dropout is inverted: ``mask``, of the output's shape, holds 0 for a
    dropped value and 1/(1-p) for a kept one (see :func:`dropout_masks`), so
    inference, which passes no mask, is the identity.
    """
    out = tc.relu(tc.conv1d_same(tc.relu(y), phi))
    return out if mask is None else out * Tensor(mask)


def dropout_masks(config: ModelConfig, rate: float, batch: int,
                  rng: np.random.Generator) -> list[np.ndarray]:
    """The inverted-dropout masks at ``rate``, one (batch, N, C_out, T) array
    per block, drawn from ``rng`` in block order: a value is kept (scaled by
    1/(1-rate)) where its uniform draw is at least ``rate``, else zeroed.
    Window ``i``'s masks are row ``i`` of each."""
    return [(rng.random((batch, config.n_nodes, c, config.t_in)) >= rate) / (1.0 - rate)
            for c in config.channels]


def forward(x, graph: RegionGraph, params: ModelParams, training: bool = False,
            ablation: str = "none",
            masks: Optional[Sequence[np.ndarray]] = None) -> tuple[Tensor, Tensor]:
    """Full model pass: (B, N, C, T) or (N, C, T) input to per-node logits.

    Returns ``(logits, class_probs)`` with shapes (B, N, 3); a rank-3 input is
    treated as a batch of one and returned with the batch axis squeezed.
    Training-mode dropout multiplies block ``i``'s output by ``masks[i]``
    (see :func:`dropout_masks`); without masks, or in eval mode, there is none.
    Raises :class:`DomainError` naming the block and stage if any layer
    produces a non-finite value.
    """
    if ablation not in ABLATIONS:
        raise UsageError(f"unknown ablation {ablation!r}; expected one of {ABLATIONS}")
    single = not isinstance(x, Tensor) and np.asarray(x).ndim == 3 or \
        (isinstance(x, Tensor) and x.ndim == 3)
    xt = x if isinstance(x, Tensor) else Tensor(x)
    if single:
        xt = xt.reshape(1, *xt.shape)
    cfg = params.config
    b, n, c, t = xt.shape
    if n != cfg.n_nodes or n != graph.n_nodes:
        raise UsageError(f"input nodes {n} do not match model ({cfg.n_nodes}) "
                         f"or graph ({graph.n_nodes})")
    if c != cfg.in_channels or t != cfg.t_in:
        raise UsageError(f"input {xt.shape} does not match config "
                         f"(C={cfg.in_channels}, T={cfg.t_in})")
    if len(graph.cheb_basis) < cfg.k:
        raise UsageError(f"graph basis order {len(graph.cheb_basis)} < K={cfg.k}")
    attention_on = ablation != "attention-off"
    s_norm = None if attention_on else Tensor(np.ones((1, n, n)))   # all-ones gate

    h = xt
    for i, blk in enumerate(params.blocks):
        try:
            if attention_on:
                e_norm = temporal_attention(h, blk)
                h = apply_temporal_attention(h, e_norm)
                s_norm = spatial_attention(h, blk)
            y = cheb_graph_conv(h, graph.cheb_basis[1:cfg.k], s_norm, blk.theta)
            mask = masks[i] if training and masks is not None else None
            h = temporal_conv(y, blk.phi, mask)
        except DomainError as exc:
            raise DomainError(f"block {i}: {exc}") from exc
    try:
        flat = h.reshape(b, n, params.config.channels[-1] * t)
        logits = tc.matmul(flat, params.fc_w) + params.fc_b
        probs = tc.softmax(logits, axis=-1)
    except DomainError as exc:
        raise DomainError(f"fully connected head: {exc}") from exc
    if single:
        logits = logits.reshape(n, N_CLASSES)
        probs = probs.reshape(n, N_CLASSES)
    return logits, probs


# -- weight persistence ---------------------------------------------------------

_WEIGHTS_FORMAT = "floodnowcast-weights"
_WEIGHTS_VERSION = 6   # 6: no `channel_order` (it was always range(in_channels))


def save_weights(params: ModelParams, path: str | Path,
                 extra: Optional[dict] = None) -> None:
    """Sealed container (see :func:`errors.seal`): float64 LE payloads.

    The header lists every parameter group with its shape, in payload order.
    ``extra`` entries (e.g. the ablation a checkpoint was trained under) are
    merged into the header.
    """
    named = named_parameters(params)
    payload = b"".join(t.data.astype("<f8").tobytes() for _, t in named)
    header = {
        "format": _WEIGHTS_FORMAT,
        "version": _WEIGHTS_VERSION,
        "config": asdict(params.config),
        "params": [{"name": name, "shape": list(t.shape)} for name, t in named],
    }
    if extra:
        overlap = set(extra) & {*header, "sha256", "header_sha256"}
        if overlap:
            raise UsageError(f"extra header keys collide with core keys: {sorted(overlap)}")
        header.update(extra)
    write_sealed(path, header, payload)


_WEIGHTS_SPEC = {
    "config": {f.name: "list[int]" if f.name == "channels" else f.type
               for f in fields(ModelConfig)},
    "params": [{"name": "str", "shape": "list[int]"}],
}


def read_weights_header(path: str | Path, extra: Optional[dict] = None) -> dict:
    """The checked header of a weights file; ``extra`` is the spec of the
    entries ``save_weights``' ``extra`` wrote."""
    return read_sealed(path, _WEIGHTS_FORMAT, _WEIGHTS_VERSION,
                       {**_WEIGHTS_SPEC, **(extra or {})}, "train")[0]


def load_weights(path: str | Path) -> ModelParams:
    header, payload = read_sealed(path, _WEIGHTS_FORMAT, _WEIGHTS_VERSION, _WEIGHTS_SPEC,
                                  "train")
    config = config_from(ModelConfig, header["config"], f"{path}: config")
    layout = param_layout(config)
    for spec, (name, shape, _) in zip(header["params"], layout):
        if (spec["name"], tuple(spec["shape"])) != (name, shape):
            raise UsageError(f"{path} lists parameter {spec['name']} {spec['shape']}; "
                             f"its config needs {name} {list(shape)}")
    if len(header["params"]) != len(layout):
        raise UsageError(f"{path} lists {len(header['params'])} parameter groups; "
                         f"its config needs {len(layout)}")
    sizes = [math.prod(shape) for _, shape, _ in layout]
    check_payload(payload, 8 * sum(sizes), header, path)
    arrays, offset = [], 0
    for (_, shape, _), size in zip(layout, sizes):
        arrays.append(np.frombuffer(payload, dtype="<f8", count=size,
                                    offset=offset).reshape(shape).copy())
        offset += 8 * size
    return params_from_arrays(config, arrays)
