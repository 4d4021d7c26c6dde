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

Importing this module fixes glibc's malloc thresholds and arena count for
the whole process (see ``_pin_malloc_thresholds``); it changes no value, only
where freed arrays go. The process-wide OpenBLAS thread count is read and set
here too (``_blas_threads``, ``_single_threaded_blas``).
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
import threading
from contextlib import contextmanager
from functools import lru_cache
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
    "diagonal",
    "conv1d_same",
    "sorted_sum",
    "sorted_matmul",
    "central_difference_error",
    "gradient_check",
]

_state = threading.local()

# glibc serves a block at or above its mmap threshold with a fresh mapping and
# raises that threshold only when such a block is freed; it also returns the
# heap top to the system above twice the threshold. A training step's 2-6 MB
# arrays would therefore be mapped (or trimmed) and faulted in again on every
# step. Fixing both thresholds, at glibc's own ceiling for the dynamic mmap
# threshold and twice that, keeps them in the heap for the whole process.
# Threads other than the main one would each get an arena of their own, whose
# freed blocks no other thread reuses; one arena keeps a single heap for all.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8   # <malloc.h>


def _pin_malloc_thresholds() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):   # no mallopt in this C library
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_ARENA_MAX, 1)


_pin_malloc_thresholds()


@lru_cache(maxsize=None)
def _blas_threads() -> Optional[tuple[Callable[[], int], Callable[[int], None]]]:
    """(get, set) of the loaded OpenBLAS's thread count, or None if there is
    no OpenBLAS in this process or it exposes no such control. The count is
    process-wide: OpenBLAS's thread-local setter changes it for every thread."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:   # not a loaded shared library
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, ()
                set_.restype, set_.argtypes = None, (ctypes.c_int,)
                return get, set_
    return None


@contextmanager
def _single_threaded_blas() -> Iterator[None]:
    """Run the body with OpenBLAS on one thread, then restore the previous count."""
    control = _blas_threads()
    if control is None:
        yield
        return
    get, set_ = control
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


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
    """Sum with terms taken in ascending order; invariant to term permutation.

    ``axis`` is None (every axis), an int or a tuple of ints, as for ``np.sum``;
    the terms of one output value are sorted together, and ``keepdims`` keeps
    each summed axis with length 1.
    """
    if axis is None or isinstance(axis, tuple):
        axes = tuple(range(a.ndim)) if axis is None else axis
        moved = np.moveaxis(a, axes, range(a.ndim - len(axes), a.ndim))
        terms = moved.reshape(moved.shape[:a.ndim - len(axes)] + (-1,))
        out = np.sum(np.sort(terms, axis=-1), axis=-1)
        return np.expand_dims(out, axes) if keepdims else out
    return np.sum(np.sort(a, axis=axis), axis=axis, keepdims=keepdims)


def _forward_sum(a: np.ndarray, axis, keepdims: bool) -> np.ndarray:
    """A forward-pass sum: :func:`sorted_sum` under :func:`canonical_reductions`,
    a plain ``np.sum`` otherwise."""
    if _canonical():
        return sorted_sum(a, axis, keepdims=keepdims)
    return np.sum(a, axis=axis, keepdims=keepdims)


class Tensor:
    """Dense N-dimensional float64 array, optionally tracked for gradients.

    Data is validated to be finite at construction. Tensors are treated as
    immutable by all operations here; ``grad`` is written by
    :meth:`Tape.backward` and holds an array of the same shape.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor data contains NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[tuple[int, int]] = None   # (tape serial, entry index)

    @classmethod
    def _wrap(cls, arr: np.ndarray, requires_grad: bool) -> "Tensor":
        # internal fast path: arr already validated by the op that made it
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = requires_grad
        t.grad = None
        t._node = None
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

    def sum(self, axis=None) -> "Tensor":
        return _reduce(self, axis, mean=False)

    def mean(self, axis=None) -> "Tensor":
        return _reduce(self, axis, mean=True)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    """``arr``, after checking that it holds no NaN or Inf."""
    if not np.isfinite(arr).all():
        raise DomainError(f"{op} produced non-finite values")
    return arr


def _make(out_data: np.ndarray, inputs: tuple, rule: Callable, op: str,
          check: bool = True) -> Tensor:
    if check:
        _finite(out_data, op)
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
    need_a, need_b = a.requires_grad, b.requires_grad
    a_shape, b_shape = a.data.shape, b.data.shape

    def rule(g):
        return (_unbroadcast(g, a_shape) if need_a else None,
                _unbroadcast(g, b_shape) if need_b else None)

    return _make(out, (a, b), rule, "add")


def _neg(a: Tensor) -> Tensor:
    def rule(g):
        return (-g,)

    return _make(-a.data, (a,), rule, "neg", check=False)


def _mul(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = a.data * b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    # each gradient reads the other operand: keep it only for an input that needs one
    ad, bd = (a.data if need_b else None), (b.data if need_a else None)
    a_shape, b_shape = a.data.shape, b.data.shape

    def rule(g):
        return _mul_grads(g, ad, bd, a_shape, b_shape)

    return _make(out, (a, b), rule, "mul")


def _mul_grads(g: np.ndarray, ad: Optional[np.ndarray], bd: Optional[np.ndarray],
               a_shape: tuple, b_shape: tuple) -> tuple:
    """Gradients of ``a * b``; ``ad`` is kept only when ``b`` needs a gradient
    and ``bd`` only when ``a`` does, so a None operand skips the other's."""
    return (_unbroadcast(g * bd, a_shape) if bd is not None else None,
            _unbroadcast(g * ad, b_shape) if ad is not None else None)


def _reduce(a: Tensor, axis, mean: bool) -> Tensor:
    if axis is not None:
        ax = axis if isinstance(axis, tuple) else (axis,)
        for i in ax:
            if not -a.ndim <= i < a.ndim:
                raise UsageError(f"reduction axis {i} out of range for rank {a.ndim}")
    out = _forward_sum(a.data, axis, keepdims=False)
    n = a.data.size if axis is None else int(np.prod([a.data.shape[i] for i in np.atleast_1d(axis)]))
    if mean:
        out = out / n
    shape = a.data.shape

    def rule(g):
        gb = np.asarray(g)
        if axis is not None:
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


def _matmul_per_leading_index(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """``ad @ bd`` for a batched ``ad`` and a 2-D ``bd``: one GEMM per index of
    the leading axis, the inner axes folded into rows, so ``out[i]`` depends
    on ``ad[i]`` alone and not on the batch size."""
    k, m = bd.shape
    out = np.empty(ad.shape[:-1] + (m,))
    for i in range(ad.shape[0]):
        np.matmul(ad[i].reshape(-1, k), bd, out=out[i].reshape(-1, m))
    return out


def _matmul_data(ad: np.ndarray, bd: np.ndarray) -> np.ndarray:
    """``ad @ bd`` as :func:`matmul` computes it forward: sorted terms under
    :func:`canonical_reductions`, else one GEMM per leading index of a
    batched ``ad`` times a 2-D ``bd``, else ``np.matmul``. Callers ignore
    overflow warnings around it: inf is caught by their finite checks."""
    if _canonical():
        return sorted_matmul(ad, bd)
    if ad.ndim > 2 and bd.ndim == 2:
        return _matmul_per_leading_index(ad, bd)
    return np.matmul(ad, bd)


def _matmul_grads(g: np.ndarray, ad: Optional[np.ndarray], bd: Optional[np.ndarray],
                  a_shape: tuple, b_shape: tuple) -> tuple:
    """Gradients of ``a @ b``, with :func:`_mul_grads`' convention for a None
    operand. A batched ``a`` times a 2-D ``b`` takes one 2-D GEMM over all
    folded rows for each gradient."""
    ga = gb = None
    if len(a_shape) > 2 and len(b_shape) == 2:
        g2 = g.reshape(-1, g.shape[-1])
        if bd is not None:
            ga = (g2 @ bd.T).reshape(a_shape)
        if ad is not None:
            gb = ad.reshape(-1, a_shape[-1]).T @ g2
        return (ga, gb)
    if bd is not None:
        ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), a_shape)
    if ad is not None:
        gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), b_shape)
    return (ga, gb)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy semantics on the trailing two axes.

    Both operands need at least two dimensions (reshape a vector to a row or
    a column); leading axes broadcast. Under :func:`canonical_reductions` the
    contraction sums terms in value order. Otherwise a batched left operand
    times a 2-D right one runs one GEMM per leading index forward, and one
    2-D GEMM over all folded rows for each gradient.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise UsageError(f"matmul needs operands of rank >= 2, got {ad.shape} @ {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise UsageError(f"matmul shape mismatch: {ad.shape} @ {bd.shape}")
    with np.errstate(over="ignore"):
        out = _matmul_data(ad, bd)
    a_shape, b_shape = ad.shape, bd.shape
    ad, bd = (ad if b.requires_grad else None), (bd if a.requires_grad else None)

    def rule(g):
        return _matmul_grads(g, ad, bd, a_shape, b_shape)

    return _make(out, (a, b), rule, "matmul")


# -- activations ----------------------------------------------------------


def relu(t: Tensor) -> Tensor:
    """Elementwise max(x, 0); the subgradient at exactly 0 is defined as 0."""
    t = _as_tensor(t)
    mask = t.data > 0

    def rule(g):
        return (g * mask,)

    return _make(np.maximum(t.data, 0.0), (t,), rule, "relu", check=False)


def _sigmoid_data(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _sigmoid_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    return g * out * (1.0 - out)


def sigmoid(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    out = _sigmoid_data(t.data)

    def rule(g):
        return (_sigmoid_grad(g, out),)

    return _make(out, (t,), rule, "sigmoid", check=False)


def _normalised_exp(x: np.ndarray, axis: int, op: str
                    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The step both softmaxes share: the axis (checked against ``x``), the
    max-shifted input, its exp and the sum of that exp along the axis."""
    if not -x.ndim <= axis < x.ndim:
        raise UsageError(f"{op} axis {axis} out of range for rank {x.ndim}")
    axis %= x.ndim
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return axis, shifted, e, _forward_sum(e, axis, keepdims=True)


def _softmax_data(x: np.ndarray, axis: int) -> tuple[int, np.ndarray]:
    """The checked axis and the softmax of ``x`` along it."""
    axis, _, e, denom = _normalised_exp(x, axis, "softmax")
    return axis, e / denom


def _softmax_grad(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    dot = np.sum(g * out, axis=axis, keepdims=True)
    return out * (g - dot)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, stabilized by max subtraction.

    Slices along the axis are nonnegative and sum to 1 (within 1e-12 for
    inputs up to ~1e3 in magnitude).
    """
    t = _as_tensor(t)
    axis, out = _softmax_data(t.data, axis)

    def rule(g):
        return (_softmax_grad(g, out, axis),)

    return _make(out, (t,), rule, "softmax")


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    t = _as_tensor(t)
    axis, shifted, e, denom = _normalised_exp(t.data, axis, "log_softmax")
    out = shifted - np.log(denom)
    sm = e / denom

    def rule(g):
        return (g - sm * np.sum(g, axis=axis, keepdims=True),)

    return _make(out, (t,), rule, "log_softmax")


def diagonal(t: Tensor) -> Tensor:
    """Main diagonal of the trailing two axes: (..., N, N) to (..., N)."""
    t = _as_tensor(t)
    if t.ndim < 2 or t.shape[-1] != t.shape[-2]:
        raise UsageError(f"diagonal needs square trailing axes, got {t.shape}")
    idx = np.arange(t.shape[-1])
    shape = t.data.shape

    def rule(g):
        full = np.zeros(shape)
        full[..., idx, idx] = g
        return (full,)

    return _make(t.data[..., idx, idx], (t,), rule, "diagonal", check=False)


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
    kd = kernel.data
    # zero-padded time-major layout (..., T + 2*pad, C_in) so each tap is one matmul
    xt = np.zeros(x.shape[:-2] + (tlen + 2 * pad, c_in))
    xt[..., pad:pad + tlen, :] = np.swapaxes(x.data, -1, -2)
    out_t = np.zeros(x.shape[:-2] + (tlen, c_out))
    with np.errstate(over="ignore"):
        for w in range(width):
            out_t += xt[..., w:w + tlen, :] @ kd[w]
    out = np.swapaxes(out_t, -1, -2)
    need_x, need_k = x.requires_grad, kernel.requires_grad
    xt_shape = xt.shape
    xt, kd = (xt if need_k else None), (kd if need_x else None)   # as in _mul

    def rule(g):
        gt = np.ascontiguousarray(np.swapaxes(np.asarray(g), -1, -2))  # (..., T, C_out)
        gx = gk = None
        if need_x:
            gxt = np.zeros(xt_shape)
            for w in range(width):
                gxt[..., w:w + tlen, :] += gt @ kd[w].T
            gx = np.swapaxes(gxt[..., pad:pad + tlen, :], -1, -2)
        if need_k:
            gk = np.zeros((width, c_in, c_out))
            g2 = gt.reshape(-1, c_out)
            for w in range(width):
                sl = xt[..., w:w + tlen, :].reshape(-1, c_in)
                gk[w] = sl.T @ g2
        return (gx, gk)

    return _make(out, (x, kernel), rule, "conv1d_same")


# -- tape -------------------------------------------------------------------


_TAPE_SERIALS = itertools.count()


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

    The tape holds no intermediate tensor. An entry is the output's node key
    (its index on this tape, also kept in the output's ``_node``), the input
    keys (an index, the requires_grad leaf itself, or None for an input that
    needs no gradient), the backward rule and the op name. A rule keeps only
    the arrays its own formula reads, so an array that no rule reads is freed
    as soon as forward drops it. ``keep_inputs`` names the ops whose input
    tensors the tape also holds, for :meth:`op_inputs`.
    """

    def __init__(self, keep_inputs: Sequence[str] = ()):
        self._serial = next(_TAPE_SERIALS)
        self._entries: list[tuple[int, tuple, Callable, str]] = []
        self._kept: dict[str, list[Tensor]] = {op: [] for op in keep_inputs}

    def __enter__(self) -> "Tape":
        if _active_tape() is not None:
            raise UsageError("a tape is already active in this thread")
        _state.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _state.tape = None

    def _key(self, t: Tensor):
        """``t``'s index if an op on this tape made it, else ``t`` itself if it
        is a requires_grad leaf, else None."""
        node = t._node
        if node is not None and node[0] == self._serial:
            return node[1]
        return t if t.requires_grad else None

    def _record(self, out: Tensor, inputs: tuple, rule: Callable, op: str) -> None:
        index = len(self._entries)
        self._entries.append((index, tuple(self._key(t) for t in inputs), rule, op))
        out._node = (self._serial, index)
        if op in self._kept:
            self._kept[op].extend(inputs)

    def __len__(self) -> int:
        return len(self._entries)

    def op_inputs(self, op: str) -> list[Tensor]:
        """Input tensors of every recorded operation named ``op``; the tape
        must have been made with ``op`` in ``keep_inputs``."""
        if op not in self._kept:
            raise UsageError(f"this tape keeps no {op} inputs; make it with "
                             f"Tape(keep_inputs=[{op!r}])")
        return list(self._kept[op])

    def backward(self, output: Tensor) -> None:
        """Backpropagate from a scalar output recorded on this tape (an output
        that no op on it recorded gets a gradient of ones)."""
        if output.data.size != 1:
            raise UsageError("backward requires a scalar output")
        root = self._key(output)
        if not isinstance(root, int):
            output.grad = np.ones_like(output.data)
            return
        grads: dict = {root: np.ones_like(output.data)}   # node index or leaf -> gradient
        for out, inputs, rule, _ in reversed(self._entries):
            g = grads.pop(out, None)
            if g is None:
                continue
            for key, gt in zip(inputs, rule(g)):
                if gt is None or key is None:
                    continue
                if key in grads:
                    grads[key] = grads[key] + gt
                else:
                    grads[key] = np.asarray(gt, dtype=np.float64)
        for t, g in grads.items():   # only leaves are left
            t.grad = np.broadcast_to(g, t.data.shape).copy() if g.shape != t.data.shape else g


# -- verification -----------------------------------------------------------


def central_difference_error(loss: Callable[[], float], x: np.ndarray,
                             analytic: np.ndarray, dead_margin: float = 0.0) -> float:
    """Largest relative error of ``analytic`` against central differences.

    Each coordinate of ``x`` is bumped in place by +1e-5 and -1e-5 around a
    ``loss()`` call, which must read ``x``, and then put back. The error at a
    coordinate is ``|analytic - fd| / max(|analytic|, |fd|, 1e-8)``; a
    coordinate is skipped only when both values are below ``dead_margin``.
    """
    worst, eps = 0.0, 1e-5
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


def gradient_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Compare analytic gradients of scalar ``f`` against central differences.

    Returns max over coordinates of
    ``|analytic - fd| / max(|analytic|, |fd|, 1e-8)``.
    """
    leaf = Tensor(np.array(x.data, copy=True), requires_grad=True)
    with Tape() as tape:
        y = f(leaf)
    if not isinstance(y, Tensor) or y.data.size != 1:
        raise UsageError("gradient_check requires a scalar-valued function")
    tape.backward(y)
    analytic = leaf.grad if leaf.grad is not None else np.zeros(leaf.shape)
    return central_difference_error(lambda: f(Tensor(leaf.data)).item(), leaf.data,
                                    analytic)
