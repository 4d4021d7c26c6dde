"""Dense float64 tensors with tape-based reverse-mode automatic differentiation.

This is a deliberately small core: the only operations provided are the ones
the nowcasting model actually uses (elementwise arithmetic, matmul, axis
reductions, activations, softmax, a same-padded 1-D convolution along the
last axis). Values are always 64-bit floats and every public operation checks
its result for NaN/Inf, raising :class:`DomainError` as soon as a bad value
appears instead of letting it propagate.

Gradients are computed by recording operations on a :class:`Tape` and
replaying their backward rules in reverse recording order (which is a valid
reverse topological order, since an operation can only be recorded after its
inputs exist). A tape and the tensors recorded on it belong to one thread;
independent tapes may run concurrently in different threads.

Reduction order and reproducibility
-----------------------------------
Floating-point summation is not associative, so the result of a contraction
depends on the order its terms are added. Inside
:func:`canonical_reductions`, forward-pass reductions (matmul contractions,
``sum``/``mean``, softmax normalizers) add their terms in ascending value
order, which makes the result a function of the term *multiset* only. Code
that permutes rows/columns of its operands (e.g. relabeling graph nodes) then
reproduces bit-identical outputs. The canonical mode costs an O(n log n) sort
per reduction and materializes matmul products, so it is meant for
verification fixtures and small-scale inference, not training loops.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, UsageError

__all__ = [
    "Tensor",
    "Tape",
    "canonical_reductions",
    "matmul",
    "relu",
    "sigmoid",
    "softmax",
    "log_softmax",
    "conv1d_same",
    "sorted_sum",
    "sorted_matmul",
    "central_difference_error",
    "gradient_check",
]

_state = threading.local()


def _active_tape() -> Optional["Tape"]:
    return getattr(_state, "tape", None)


def _canonical() -> bool:
    return getattr(_state, "canonical", False)


@contextmanager
def canonical_reductions() -> Iterator[None]:
    """Make forward reductions order-canonical (sorted summation) in this thread."""
    prev = _canonical()
    _state.canonical = True
    try:
        yield
    finally:
        _state.canonical = prev


def sorted_sum(a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    """Sum with terms taken in ascending order; invariant to term permutation."""
    if axis is None:
        return np.sum(np.sort(a, axis=None), keepdims=keepdims)
    return np.sum(np.sort(a, axis=axis), axis=axis, keepdims=keepdims)


class Tensor:
    """Dense N-dimensional float64 array, optionally tracked for gradients.

    Data is validated to be finite at construction. Tensors are treated as
    immutable by all operations here; ``grad`` is written by
    :meth:`Tape.backward` and holds an array of the same shape.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor data contains NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        # internal fast path: arr already validated by the op that made it
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        t.grad = None
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() on tensor of size {self.data.size}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return _add(self, _as_tensor(other))

    def __radd__(self, other):
        return _add(_as_tensor(other), self)

    def __sub__(self, other):
        return _add(self, _neg(_as_tensor(other)))

    def __rsub__(self, other):
        return _add(_as_tensor(other), _neg(self))

    def __mul__(self, other):
        return _mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return _mul(_as_tensor(other), self)

    def __neg__(self):
        return _neg(self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    # -- shape ops -------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        out = self.data.reshape(shape)

        def rule(g):
            return (g.reshape(old),)

        return _make(out, (self,), rule, "reshape", check=False)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        axes = tuple(axes)
        if sorted(axes) != list(range(self.ndim)):
            raise UsageError(f"transpose axes {axes} invalid for rank {self.ndim}")
        inv = tuple(np.argsort(axes))
        out = self.data.transpose(axes)

        def rule(g):
            return (g.transpose(inv),)

        return _make(out, (self,), rule, "transpose", check=False)

    def swap_last2(self) -> "Tensor":
        """Transpose the trailing two axes (matrix transpose on batches)."""
        axes = tuple(range(self.ndim - 2)) + (self.ndim - 1, self.ndim - 2)
        return self.transpose(axes)

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, mean=False)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _reduce(self, axis, keepdims, mean=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(out_data: np.ndarray, inputs: tuple, rule: Callable, op: str,
          check: bool = True) -> Tensor:
    if check and not np.all(np.isfinite(out_data)):
        raise DomainError(f"{op} produced non-finite values")
    tape = _active_tape()
    track = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor._wrap(out_data, track)
    if track:
        tape._record(out, inputs, rule, op)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the pre-broadcast shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _add(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # inf is caught by the finite check
        out = a.data + b.data

    def rule(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _make(out, (a, b), rule, "add")


def _neg(a: Tensor) -> Tensor:
    def rule(g):
        return (-g,)

    return _make(-a.data, (a,), rule, "neg", check=False)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = a.data * b.data
    ad, bd = a.data, b.data

    def rule(g):
        return (_unbroadcast(g * bd, ad.shape) if a.requires_grad else None,
                _unbroadcast(g * ad, bd.shape) if b.requires_grad else None)

    return _make(out, (a, b), rule, "mul")


def _reduce(a: Tensor, axis, keepdims: bool, mean: bool) -> Tensor:
    if axis is not None:
        ax = axis if isinstance(axis, tuple) else (axis,)
        for i in ax:
            if not -a.ndim <= i < a.ndim:
                raise UsageError(f"reduction axis {i} out of range for rank {a.ndim}")
    if _canonical():
        out = sorted_sum(a.data, axis, keepdims=keepdims)
    else:
        out = np.sum(a.data, axis=axis, keepdims=keepdims)
    n = a.data.size if axis is None else int(np.prod([a.data.shape[i] for i in np.atleast_1d(axis)]))
    if mean:
        out = out / n
    shape = a.data.shape

    def rule(g):
        gb = np.asarray(g)
        if axis is not None and not keepdims:
            gb = np.expand_dims(gb, axis)
        gb = np.broadcast_to(gb, shape)
        return ((gb / n) if mean else (gb + 0.0),)

    return _make(np.asarray(out), (a,), rule, "mean" if mean else "sum")


# -- matmul ---------------------------------------------------------------


_SORTED_MATMUL_TERMS = 1 << 20   # product terms per chunk: 8 MB of float64


def sorted_matmul(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """Matrix product summing contraction terms in ascending value order.

    Both operands have at least two dimensions; leading axes broadcast.
    Materializes the product terms, so only suitable for modest shapes; the
    trailing output axis is chunked so a chunk holds about 8 MB of terms
    (more only when a single output column needs more). Each chunk lays the
    contraction axis last and sorts it in place, then adds the sorted terms
    one at a time, smallest first: ``np.sum`` along a contiguous axis would
    add them pairwise instead.
    """
    n, k = ad.shape[-2:]
    m = bd.shape[-1]
    batch = np.broadcast_shapes(ad.shape[:-2], bd.shape[:-2])
    out = np.empty(batch + (n, m))
    bt = np.swapaxes(bd, -1, -2)
    chunk = max(1, _SORTED_MATMUL_TERMS // max(1, math.prod(batch) * n * k))
    for j0 in range(0, m, chunk):
        prod = ad[..., :, None, :] * bt[..., None, j0:j0 + chunk, :]   # (..., n, chunk, k)
        prod.sort(axis=-1)
        acc = np.zeros(prod.shape[:-1])   # np.sum also starts from +0.0
        for i in range(k):
            acc += prod[..., i]
        out[..., j0:j0 + chunk] = acc
        del prod   # free this chunk's terms before the next chunk allocates its own
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy semantics on the trailing two axes.

    Both operands need at least two dimensions (reshape a vector to a row or
    a column); leading axes broadcast. Under :func:`canonical_reductions` the
    contraction sums terms in value order.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise UsageError(f"matmul needs operands of rank >= 2, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise UsageError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")

    with np.errstate(over="ignore"):
        out = sorted_matmul(ad, bd) if _canonical() else np.matmul(ad, bd)

    def rule(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)
        return (ga, gb)

    return _make(out, (a, b), rule, "matmul")


# -- activations ----------------------------------------------------------


def relu(t: Tensor) -> Tensor:
    """Elementwise max(x, 0); the subgradient at exactly 0 is defined as 0."""
    t = _as_tensor(t)
    mask = t.data > 0

    def rule(g):
        return (g * mask,)

    return _make(np.maximum(t.data, 0.0), (t,), rule, "relu", check=False)


def sigmoid(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    x = t.data
    # exp(-|x|) never overflows: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.where(x >= 0, 1.0 / d, e / d)

    def rule(g):
        return (g * out * (1.0 - out),)

    return _make(out, (t,), rule, "sigmoid", check=False)


def _check_axis(t: Tensor, axis: int, op: str) -> int:
    if not -t.ndim <= axis < t.ndim:
        raise UsageError(f"{op} axis {axis} out of range for rank {t.ndim}")
    return axis % t.ndim


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, stabilized by max subtraction.

    Slices along the axis are nonnegative and sum to 1 (within 1e-12 for
    inputs up to ~1e3 in magnitude).
    """
    t = _as_tensor(t)
    axis = _check_axis(t, axis, "softmax")
    shifted = t.data - np.max(t.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    if _canonical():
        denom = sorted_sum(e, axis, keepdims=True)
    else:
        denom = np.sum(e, axis=axis, keepdims=True)
    out = e / denom

    def rule(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (t,), rule, "softmax")


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    t = _as_tensor(t)
    axis = _check_axis(t, axis, "log_softmax")
    shifted = t.data - np.max(t.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    if _canonical():
        denom = sorted_sum(e, axis, keepdims=True)
    else:
        denom = np.sum(e, axis=axis, keepdims=True)
    out = shifted - np.log(denom)
    sm = e / denom

    def rule(g):
        return (g - sm * np.sum(g, axis=axis, keepdims=True),)

    return _make(out, (t,), rule, "log_softmax")


# -- temporal convolution ---------------------------------------------------


def conv1d_same(x: Tensor, kernel: Tensor) -> Tensor:
    """1-D convolution along the last axis with same-length zero padding.

    ``x`` has shape (..., C_in, T) and ``kernel`` (W, C_in, C_out) with W odd;
    output has shape (..., C_out, T):

        out[..., o, t] = sum_{w,i} kernel[w, i, o] * x[..., i, t + w - W//2]

    This is the channel-mixing temporal filter of the model's ST blocks; the
    contraction runs over the width/channel axes only, so node-batch
    dimensions pass through elementwise.
    """
    x = _as_tensor(x)
    kernel = _as_tensor(kernel)
    if kernel.ndim != 3:
        raise UsageError(f"kernel must be (width, C_in, C_out), got {kernel.shape}")
    width, c_in, c_out = kernel.shape
    if width % 2 == 0:
        raise UsageError(f"kernel width must be odd, got {width}")
    if x.ndim < 2 or x.shape[-2] != c_in:
        raise UsageError(f"input channels {x.shape} do not match kernel {kernel.shape}")
    tlen = x.shape[-1]
    pad = width // 2
    xp = np.pad(x.data, [(0, 0)] * (x.ndim - 1) + [(pad, pad)])
    kd = kernel.data
    # time-major layout (..., T + 2*pad, C_in) so each tap is one matmul
    xt = np.ascontiguousarray(np.swapaxes(xp, -1, -2))
    out_t = np.zeros(x.shape[:-2] + (tlen, c_out))
    with np.errstate(over="ignore"):
        for w in range(width):
            out_t += xt[..., w:w + tlen, :] @ kd[w]
    out = np.swapaxes(out_t, -1, -2)

    def rule(g):
        gt = np.ascontiguousarray(np.swapaxes(np.asarray(g), -1, -2))  # (..., T, C_out)
        gx = gk = None
        if x.requires_grad:
            gxt = np.zeros_like(xt)
            for w in range(width):
                gxt[..., w:w + tlen, :] += gt @ kd[w].T
            gx = np.ascontiguousarray(np.swapaxes(gxt, -1, -2)[..., pad:pad + tlen])
        if kernel.requires_grad:
            gk = np.zeros_like(kd)
            g2 = gt.reshape(-1, c_out)
            for w in range(width):
                sl = xt[..., w:w + tlen, :].reshape(-1, c_in)
                gk[w] = sl.T @ g2
        return (gx, gk)

    return _make(out, (x, kernel), rule, "conv1d_same")


# -- tape -------------------------------------------------------------------


class Tape:
    """Ordered record of operations for one reverse-mode pass.

    Usage::

        with Tape() as tape:
            loss = build_loss(...)
        tape.backward(loss)   # fills .grad on every requires_grad leaf

    Recording order is a topological order of the computation, so replaying
    the backward rules in reverse visits each operation after all of its
    consumers; every requires_grad leaf receives its gradient exactly once
    per backward call (``grad`` is replaced, not accumulated across calls).
    A tape is confined to the thread that created it.
    """

    def __init__(self):
        self._entries: list[tuple[Tensor, tuple, Callable, str]] = []

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise UsageError("a tape is already active in this thread")
        _state.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _state.tape = None

    def _record(self, out: Tensor, inputs: tuple, rule: Callable, op: str) -> None:
        self._entries.append((out, inputs, rule, op))

    def __len__(self) -> int:
        return len(self._entries)

    def op_inputs(self, op: str) -> list[Tensor]:
        """Input tensors of every recorded operation named ``op``."""
        return [inp for _, inputs, _, name in self._entries if name == op
                for inp in inputs]

    def backward(self, output: Tensor) -> None:
        """Backpropagate from a scalar output recorded on this tape."""
        if output.data.size != 1:
            raise UsageError("backward requires a scalar output")
        grads: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
        tensors: dict[int, Tensor] = {id(output): output}
        for out, inputs, rule, _ in reversed(self._entries):
            g = grads.pop(id(out), None)
            tensors.pop(id(out), None)
            if g is None:
                continue
            for t, gt in zip(inputs, rule(g)):
                if gt is None or not t.requires_grad:
                    continue
                key = id(t)
                if key in grads:
                    grads[key] = grads[key] + gt
                else:
                    grads[key] = np.asarray(gt, dtype=np.float64)
                    tensors[key] = t
        for key, g in grads.items():
            t = tensors[key]
            t.grad = np.broadcast_to(g, t.data.shape).copy() if g.shape != t.data.shape else g


# -- verification -----------------------------------------------------------


def central_difference_error(loss: Callable[[], float], x: np.ndarray,
                             analytic: np.ndarray, eps: float,
                             dead_margin: float = 0.0) -> float:
    """Largest relative error of ``analytic`` against central differences.

    Each coordinate of ``x`` is bumped in place by +eps and -eps around a
    ``loss()`` call, which must read ``x``, and then put back. The error at a
    coordinate is ``|analytic - fd| / max(|analytic|, |fd|, 1e-8)``; a
    coordinate is skipped only when both values are below ``dead_margin``.
    """
    worst = 0.0
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + eps
        hi = loss()
        x.flat[i] = orig - eps
        lo = loss()
        x.flat[i] = orig
        fd = (hi - lo) / (2.0 * eps)
        a = float(analytic.flat[i])
        if abs(a) < dead_margin and abs(fd) < dead_margin:
            continue
        worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-8))
    return worst


def gradient_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Compare analytic gradients of scalar ``f`` against central differences.

    Returns max over coordinates of
    ``|analytic - fd| / max(|analytic|, |fd|, 1e-8)``.
    """
    if not 0.0 < eps <= 1e-2:
        raise UsageError(f"eps must be in (0, 1e-2], got {eps}")
    leaf = Tensor(np.array(x.data, copy=True), requires_grad=True)
    with Tape() as tape:
        y = f(leaf)
    if not isinstance(y, Tensor) or y.data.size != 1:
        raise UsageError("gradient_check requires a scalar-valued function")
    tape.backward(y)
    analytic = leaf.grad if leaf.grad is not None else np.zeros(leaf.shape)
    return central_difference_error(lambda: f(Tensor(leaf.data)).item(), leaf.data,
                                    analytic, eps)
