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

Everything is built on the autodiff tensors from :mod:`floodnowcast.tensor`,
so training gradients come from the tape with no hand-derived backward pass.

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


def spatial_attention(x: Tensor, blk: STBlockParams) -> Tensor:
    """Row-stochastic node-node attention, shape (B, N, N).

    ``S = P ⊙ sigmoid((X w1) W2 (w3 X)^T + B)`` followed by a row softmax.
    """
    if x.ndim != 4:
        raise UsageError(f"expected (B, N, C, T) input, got {x.shape}")
    b, n, c, t = x.shape
    if c != blk.w2.shape[0] or t != blk.w1.shape[0]:
        raise UsageError(f"input {x.shape} does not match spatial attention params")
    x_w1 = tc.matmul(x, blk.w1.reshape(t, 1)).reshape(b, n, c)
    lhs = tc.matmul(x_w1, blk.w2)                        # (B, N, T)
    rhs = tc.matmul(blk.w3.reshape(1, c), x).reshape(b, n, t).swap_last2()  # (B, T, N)
    score = tc.matmul(lhs, rhs) + blk.b_s                # (B, N, N)
    gated = blk.p_s * tc.sigmoid(score)
    return tc.softmax(gated, axis=-1)


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
    xt = x.transpose((0, 3, 2, 1))                       # (B, T, C, N)
    xt_u1 = tc.matmul(xt, blk.u1.reshape(n, 1)).reshape(b, t, c)
    lhs = tc.matmul(xt_u1, blk.u2.swap_last2())          # (B, T, N)
    rhs = tc.matmul(blk.u3.reshape(1, c), x).reshape(b, n, t)  # (B, N, T)
    score = tc.matmul(lhs, rhs) + blk.b_e                # (B, T, T)
    gated = blk.v_e * tc.sigmoid(score)
    return tc.softmax(gated, axis=-1)


def apply_temporal_attention(x: Tensor, e_norm: Tensor) -> Tensor:
    """Re-weight the window along time: out[..., t] = sum_j E[t, j] x[..., j]."""
    b, n, c, t = x.shape
    flat = x.reshape(b, n * c, t)
    out = tc.matmul(flat, e_norm.swap_last2())           # (B, N*C, T)
    return out.reshape(b, n, c, t)


def cheb_graph_conv(x: Tensor, terms: Sequence[np.ndarray], s_norm: Tensor,
                    theta: Sequence[Tensor]) -> Tensor:
    """Spectral graph convolution with attention-gated Chebyshev filters.

    Per timestep: ``Y[:, :, t] = sum_k (T_k ⊙ S) X[:, :, t] theta_k``.
    ``terms`` are ``T_1 .. T_{K-1}``, one fewer than ``theta``: ``T_0 = I``
    reads no matrix, since its gated term is the row scaling ``diag(S) X``.
    That term is computed as one, which is exact (each output has a single
    nonzero product term), instead of as an N x N matrix product.
    """
    if len(terms) != len(theta) - 1:
        raise UsageError(f"got {len(terms)} Chebyshev terms T_1.. and {len(theta)} "
                         f"theta matrices; theta needs one more, for T_0")
    b, n, c, t = x.shape
    # fold time into the feature axis so each filter order is one batched matmul
    flat = x.transpose((0, 1, 3, 2)).reshape(b, n, t * c)   # (B, N, T*C)
    diag = tc.diagonal(s_norm).reshape(s_norm.shape[:-1] + (1,))  # (B or 1, N, 1)
    acc = tc.matmul((diag * flat).reshape(b, n, t, c), theta[0])  # (B, N, T, C_out)
    for t_k, theta_k in zip(terms, theta[1:]):
        gate = Tensor(t_k) * s_norm                      # (B or 1, N, N)
        mixed = tc.matmul(gate, flat).reshape(b, n, t, c)
        acc = acc + tc.matmul(mixed, theta_k)
    return acc.transpose((0, 1, 3, 2))                   # (B, N, C_out, T)


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
