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

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DomainError, UsageError
from .graph import RegionGraph
from . import tensor as tc
from .tensor import Tensor

__all__ = [
    "ABLATIONS",
    "ModelConfig",
    "STBlockParams",
    "ModelParams",
    "init_params",
    "spatial_attention",
    "temporal_attention",
    "apply_temporal_attention",
    "cheb_graph_conv",
    "temporal_conv",
    "forward",
    "named_parameters",
    "save_weights",
    "load_weights",
    "read_weights_header",
]

N_CLASSES = 3

# "attention-off" freezes both attention maps to constants (spatial scores
# become all-ones, so the Hadamard gate is a no-op and the block reduces to a
# plain spectral-temporal convolution); "graph-off" is applied by handing the
# model an edgeless graph, not by a forward-pass switch.
ABLATIONS = ("none", "attention-off", "graph-off")


@dataclass(frozen=True)
class ModelConfig:
    """Shapes and hyperparameters of one model instance."""

    n_nodes: int
    in_channels: int = 6
    channels: tuple[int, ...] = (32, 32, 32)   # one entry per ST block
    k: int = 3                                 # Chebyshev order
    kernel_width: int = 3                      # temporal kernel width (odd)
    t_in: int = 12                             # input window length
    horizon: int = 1                           # steps ahead of the window end
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1 or self.t_in < 1 or self.k < 1 or not self.channels:
            raise UsageError("n_nodes, t_in, k must be >= 1 and channels non-empty")
        if self.in_channels < 1 or self.kernel_width < 1 or min(self.channels) < 1:
            raise UsageError(f"in_channels ({self.in_channels}), kernel_width "
                             f"({self.kernel_width}) and every channels entry "
                             f"({list(self.channels)}) must be >= 1")
        if self.kernel_width % 2 == 0:
            raise UsageError(f"kernel_width must be odd, got {self.kernel_width}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise UsageError(f"dropout_rate {self.dropout_rate} outside [0, 1)")
        if self.horizon < 0:
            raise UsageError("horizon must be >= 0")

    @property
    def n_blocks(self) -> int:
        return len(self.channels)

    def to_dict(self) -> dict:
        return {
            "n_nodes": self.n_nodes, "in_channels": self.in_channels,
            "channels": list(self.channels), "k": self.k,
            "kernel_width": self.kernel_width, "t_in": self.t_in,
            "horizon": self.horizon, "dropout_rate": self.dropout_rate,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["channels"] = tuple(d["channels"])
        return cls(**d)


@dataclass
class STBlockParams:
    """Learnable tensors of one spatial-temporal block."""

    p_s: Tensor     # (N, N) spatial attention gate
    b_s: Tensor     # (N, N) spatial attention bias
    w1: Tensor      # (T,)  time contraction
    w2: Tensor      # (C_in, T)
    w3: Tensor      # (C_in,) channel contraction
    v_e: Tensor     # (T, T) temporal attention gate
    b_e: Tensor     # (T, T) temporal attention bias
    u1: Tensor      # (N,)  node contraction
    u2: Tensor      # (N, C_in)
    u3: Tensor      # (C_in,)
    theta: list[Tensor]   # K matrices (C_in, C_out), Chebyshev coefficients
    phi: Tensor     # (kernel_width, C_out, C_out) temporal kernel


@dataclass
class ModelParams:
    """All learnable state plus the configuration that shaped it."""

    config: ModelConfig
    blocks: list[STBlockParams]
    fc_w: Tensor    # (C_last * t_in, 3)
    fc_b: Tensor    # (3,)


def _glorot(rng: np.random.Generator, shape: tuple[int, ...],
            fans: Optional[tuple[int, int]] = None) -> Tensor:
    if fans is None:
        if len(shape) == 1:
            fans = (shape[0], shape[0])
        elif len(shape) == 2:
            fans = (shape[0], shape[1])
        else:
            raise UsageError(f"fans required for shape {shape}")
    r = np.sqrt(6.0 / (fans[0] + fans[1]))
    return Tensor(rng.uniform(-r, r, size=shape), requires_grad=True)


def init_params(config: ModelConfig) -> ModelParams:
    """Seeded Glorot-uniform initialization of every parameter group.

    Draw order is fixed (blocks in order, fields in declaration order, FC
    head last) so a seed pins every weight bit-for-bit.
    """
    rng = np.random.default_rng(config.seed)
    n, t = config.n_nodes, config.t_in
    blocks = []
    c_in = config.in_channels
    for c_out in config.channels:
        blocks.append(STBlockParams(
            p_s=_glorot(rng, (n, n)),
            b_s=_glorot(rng, (n, n)),
            w1=_glorot(rng, (t,)),
            w2=_glorot(rng, (c_in, t)),
            w3=_glorot(rng, (c_in,)),
            v_e=_glorot(rng, (t, t)),
            b_e=_glorot(rng, (t, t)),
            u1=_glorot(rng, (n,)),
            u2=_glorot(rng, (n, c_in)),
            u3=_glorot(rng, (c_in,)),
            theta=[_glorot(rng, (c_in, c_out)) for _ in range(config.k)],
            phi=_glorot(rng, (config.kernel_width, c_out, c_out),
                        fans=(config.kernel_width * c_out, config.kernel_width * c_out)),
        ))
        c_in = c_out
    fc_w = _glorot(rng, (config.channels[-1] * t, N_CLASSES))
    fc_b = _glorot(rng, (N_CLASSES,))
    return ModelParams(config=config, blocks=blocks, fc_w=fc_w, fc_b=fc_b)


def named_parameters(params: ModelParams) -> list[tuple[str, Tensor]]:
    """Parameter groups in their persistence (and init) order."""
    out = []
    for i, blk in enumerate(params.blocks):
        prefix = f"block{i}."
        out += [(prefix + "p_s", blk.p_s), (prefix + "b_s", blk.b_s),
                (prefix + "w1", blk.w1), (prefix + "w2", blk.w2),
                (prefix + "w3", blk.w3), (prefix + "v_e", blk.v_e),
                (prefix + "b_e", blk.b_e), (prefix + "u1", blk.u1),
                (prefix + "u2", blk.u2), (prefix + "u3", blk.u3)]
        out += [(f"{prefix}theta{k}", th) for k, th in enumerate(blk.theta)]
        out.append((prefix + "phi", blk.phi))
    out += [("fc.weight", params.fc_w), ("fc.bias", params.fc_b)]
    return out


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


def cheb_graph_conv(x: Tensor, cheb_basis: Sequence[np.ndarray], s_norm: Tensor,
                    theta: Sequence[Tensor]) -> Tensor:
    """Spectral graph convolution with attention-gated Chebyshev filters.

    Per timestep: ``Y[:, :, t] = sum_k (T_k ⊙ S) X[:, :, t] theta_k``.
    """
    if len(cheb_basis) != len(theta):
        raise UsageError(f"basis length {len(cheb_basis)} != theta length {len(theta)}")
    b, n, c, t = x.shape
    # fold time into the feature axis so each filter order is one batched matmul
    flat = x.transpose((0, 1, 3, 2)).reshape(b, n, t * c)   # (B, N, T*C)
    acc = None
    for t_k, theta_k in zip(cheb_basis, theta):
        gate = Tensor(t_k) * s_norm                      # (B or 1, N, N)
        mixed = tc.matmul(gate, flat).reshape(b, n, t, c)
        term = tc.matmul(mixed, theta_k)                 # (B, N, T, C_out)
        acc = term if acc is None else acc + term
    return acc.transpose((0, 1, 3, 2))                   # (B, N, C_out, T)


def temporal_conv(y: Tensor, phi: Tensor, dropout_rate: float, training: bool,
                  rng: Optional[np.random.Generator] = None) -> Tensor:
    """ReLU, same-padded temporal convolution, ReLU, then dropout if training.

    The incoming ``y`` is the raw graph-convolution output; the inner ReLU is
    applied here so the graph convolution stays purely linear and testable.
    Dropout is inverted (mask scaled by 1/(1-p)) so inference is the identity.
    """
    out = tc.relu(tc.conv1d_same(tc.relu(y), phi))
    if training and dropout_rate > 0.0:
        if rng is None:
            raise UsageError("training-mode dropout needs an RNG")
        keep = (rng.random(out.shape) >= dropout_rate) / (1.0 - dropout_rate)
        out = out * Tensor(keep)
    return out


def forward(x, graph: RegionGraph, params: ModelParams, training: bool = False,
            rng: Optional[np.random.Generator] = None,
            ablation: str = "none") -> tuple[Tensor, Tensor]:
    """Full model pass: (B, N, C, T) or (N, C, T) input to per-node logits.

    Returns ``(logits, class_probs)`` with shapes (B, N, 3); a rank-3 input is
    treated as a batch of one and returned with the batch axis squeezed.
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
    ones_gate = Tensor(np.ones((n, n)))

    h = xt
    for i, blk in enumerate(params.blocks):
        try:
            if attention_on:
                e_norm = temporal_attention(h, blk)
                h = apply_temporal_attention(h, e_norm)
                s_norm = spatial_attention(h, blk)
            else:
                s_norm = ones_gate.reshape(1, n, n)
            y = cheb_graph_conv(h, graph.cheb_basis[:cfg.k], s_norm, blk.theta)
            h = temporal_conv(y, blk.phi, cfg.dropout_rate, training, rng)
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
_WEIGHTS_VERSION = 1


def save_weights(params: ModelParams, path: str | Path,
                 extra: Optional[dict] = None) -> None:
    """Versioned container: one JSON header line, then float64 LE payloads.

    The header lists every parameter group with its shape, in payload order,
    plus a sha256 of the concatenated payload bytes. ``extra`` entries (e.g.
    the ablation a checkpoint was trained under) are merged into the header.
    """
    named = named_parameters(params)
    payload = b"".join(t.data.astype("<f8").tobytes() for _, t in named)
    header = {
        "format": _WEIGHTS_FORMAT,
        "version": _WEIGHTS_VERSION,
        "config": params.config.to_dict(),
        "channel_order": list(range(params.config.in_channels)),
        "params": [{"name": name, "shape": list(t.shape)} for name, t in named],
        "sha256": hashlib.sha256(payload).hexdigest(),
    }
    if extra:
        overlap = set(extra) & set(header)
        if overlap:
            raise UsageError(f"extra header keys collide with core keys: {sorted(overlap)}")
        header.update(extra)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(payload)


def _parse_weights_header(line: bytes, path: str | Path) -> dict:
    try:
        header = json.loads(line.decode())
    except ValueError as exc:     # JSONDecodeError and UnicodeDecodeError
        raise UsageError(f"{path} has no JSON weights header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _WEIGHTS_FORMAT:
        raise UsageError(f"{path} is not a weights file")
    return header


def read_weights_header(path: str | Path) -> dict:
    """The JSON header of a weights file, without loading the payload."""
    with open(path, "rb") as fh:
        return _parse_weights_header(fh.readline(), path)


def load_weights(path: str | Path) -> ModelParams:
    with open(path, "rb") as fh:
        header = _parse_weights_header(fh.readline(), path)
        payload = fh.read()
    if header.get("version") != _WEIGHTS_VERSION:
        raise UsageError(f"unsupported weights version {header.get('version')}")
    if hashlib.sha256(payload).hexdigest() != header["sha256"]:
        raise DomainError(f"weights payload checksum mismatch in {path}")
    config = ModelConfig.from_dict(header["config"])
    params = init_params(config)
    named = dict(named_parameters(params))
    offset = 0
    for spec in header["params"]:
        name, shape = spec["name"], tuple(spec["shape"])
        if name not in named:
            raise UsageError(f"unknown parameter group {name!r} in {path}")
        size = int(np.prod(shape)) * 8
        arr = np.frombuffer(payload[offset:offset + size], dtype="<f8").reshape(shape)
        if named[name].shape != shape:
            raise UsageError(f"parameter {name} has shape {shape}, expected {named[name].shape}")
        named[name].data = arr.copy()
        offset += size
    if offset != len(payload):
        raise DomainError(f"weights payload has {len(payload) - offset} trailing bytes")
    return params
