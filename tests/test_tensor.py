import math
import platform
import threading
import weakref

import numpy as np
import pytest

from floodnowcast.errors import DomainError, UsageError
from floodnowcast.tensor import (
    Tape,
    Tensor,
    canonical_reductions,
    conv1d_same,
    diagonal,
    gradient_check,
    log_softmax,
    matmul,
    relu,
    sigmoid,
    softmax,
    sorted_matmul,
    sorted_sum,
)


def test_constructor_rejects_nonfinite():
    with pytest.raises(DomainError):
        Tensor([1.0, np.nan])
    with pytest.raises(DomainError):
        Tensor([np.inf])


def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = softmax(Tensor([1000.0, 1000.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_hand_value():
    # e^0 / (e^0 + e^ln3) = 1/4
    out = softmax(Tensor([0.0, math.log(3.0)]), axis=0)
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-14)


def test_softmax_rows_sum_to_one_up_to_1e3():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.uniform(-1e3, 1e3, size=(5, 7))
        out = softmax(Tensor(x), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out.data >= 0)


def test_softmax_axis_out_of_range():
    with pytest.raises(UsageError):
        softmax(Tensor([[1.0, 2.0]]), axis=2)


def test_relu_definition():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])
    out = relu(Tensor([[-3.0, -0.5], [-1e-9, -100.0]]))
    assert np.all(out.data == 0.0)


def test_relu_subgradient_zero_at_zero():
    x = Tensor([-1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = relu(x).sum()
    tape.backward(y)
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    x = Tensor([0.0], requires_grad=True)
    with Tape() as tape:
        y = relu(x).sum()
    tape.backward(y)
    np.testing.assert_array_equal(x.grad, [0.0])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        ref = np.zeros((8, 8))
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    ref[i, j] += a[i, k] * b[k, j]
        got = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(UsageError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    # vector operands are rejected, not promoted: reshape to a row or column
    with pytest.raises(UsageError):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))
    with pytest.raises(UsageError):
        matmul(Tensor(np.ones(2)), Tensor(np.ones((2, 3))))


def test_gradient_check_quadratic():
    # f(x) = sum x^2, grad = 2x
    err = gradient_check(lambda t: (t * t).sum(), Tensor([1.0, 2.0]))
    assert err < 1e-6
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = (x * x).sum()
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-14)


def test_gradient_check_linear_exact():
    err = gradient_check(lambda t: t.sum(), Tensor([0.3, -1.7, 4.0]))
    assert err < 1e-10


def test_gradient_check_rejects_nonscalar():
    with pytest.raises(UsageError):
        gradient_check(lambda t: t * 2.0, Tensor([1.0, 2.0]))


def test_tensor_reuse_chain_rule():
    # d/dx sum(x * x) = 2x via two uses of the same tensor
    x = Tensor([3.0, -2.0], requires_grad=True)
    with Tape() as tape:
        y = (x * x).sum()
    tape.backward(y)
    np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-15)


_CONST16 = np.linspace(-1.0, 1.0, 16)


def _square_sum(y):
    return (y * y).sum()

OPS = {
    "add": lambda t: (t + Tensor(_CONST16)).sum(),
    "add_broadcast": lambda t: (t.reshape(t.size, 1) + Tensor(np.arange(3.0))).sum(),
    "sub": lambda t: (t - 1.5).mean(),
    "mul": lambda t: (t * t * 0.5).sum(),
    "mul_broadcast": lambda t: (t.reshape(t.size, 1) * Tensor(np.arange(1.0, 4.0))).sum(),
    "neg": lambda t: (-t).sum(),
    "matmul": lambda t: matmul(t.reshape(4, t.size // 4), Tensor(np.arange(t.size // 4 * 2.0).reshape(t.size // 4, 2))).sum(),
    "matmul_batched": lambda t: matmul(t.reshape(2, 2, t.size // 4), Tensor(np.linspace(-1, 1, t.size // 4 * 3).reshape(t.size // 4, 3))).sum(),
    "transpose": lambda t: (t.reshape(4, t.size // 4).swap_last2() * 2.0).sum(),
    "reshape": lambda t: t.reshape(t.size).sum(),
    "sum_axis": lambda t: t.reshape(4, t.size // 4).sum(axis=1).mean(),
    "mean_axis": lambda t: (t.reshape(4, t.size // 4).mean(axis=0) * 3.0).sum(),
    "relu": lambda t: relu(t + 0.05).sum(),  # shift keeps coords away from the kink
    "sigmoid": lambda t: sigmoid(t).sum(),
    "softmax": lambda t: (softmax(t.reshape(4, t.size // 4), axis=1) * Tensor(np.arange(t.size, dtype=float).reshape(4, t.size // 4))).sum(),
    "log_softmax": lambda t: (log_softmax(t.reshape(4, t.size // 4), axis=1) * 0.25).sum(),
    "diagonal": lambda t: _square_sum(diagonal(t.reshape(1, 4, 4))),
    "conv1d_same": lambda t: conv1d_same(t.reshape(2, 2, t.size // 4), Tensor(np.linspace(-1, 1, 12).reshape(3, 2, 2))).sum(),
    # a 2-D left operand against a batched right one: the w3/u3 row of the attention code
    "matmul_row_batched": lambda t: _square_sum(matmul(t.reshape(1, t.size), Tensor(np.linspace(-1, 1, 2 * t.size * 3).reshape(2, t.size, 3)))),
    # a rank-4 batch against a 2-D weight, both differentiated: theta, the head
    "matmul_rank4_both": lambda t: _square_sum(matmul(t.reshape(2, 2, 2, 2), matmul(t.reshape(2, 8), Tensor(np.linspace(-1, 1, 24).reshape(8, 3))))),
    # the kernel's gradient (the differentiated tensor, mixed to 12 taps, is the kernel)
    "conv1d_same_kernel": lambda t: _square_sum(conv1d_same(Tensor(np.linspace(-2, 2, 20).reshape(2, 2, 5)), matmul(t.reshape(4, 4), Tensor(np.linspace(-1, 1, 12).reshape(4, 3))).reshape(3, 2, 2))),
    # a kernel wider than the window: width 5 on 3 steps, taps past both ends
    "conv1d_same_wide": lambda t: _square_sum(conv1d_same(matmul(t.reshape(8, 2), Tensor(np.linspace(-1, 1, 6).reshape(2, 3))).reshape(4, 2, 3), Tensor(np.linspace(-1, 1, 20).reshape(5, 2, 2)))),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_per_op_gradients_match_finite_differences(name):
    f = OPS[name]
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        x = Tensor(rng.normal(scale=0.8, size=16))  # <= 64 elements
        assert gradient_check(f, x) < 1e-4, f"{name} seed {seed}"


@pytest.mark.parametrize("shape", [(5, 7, 6), (5, 4, 7, 6)])
def test_batched_matmul_of_one_window_is_bitwise_that_of_the_batch(shape):
    rng = np.random.default_rng(4)
    x = rng.normal(size=shape)
    w = rng.normal(size=(6, 9))
    batch = matmul(Tensor(x), Tensor(w)).data
    for i in range(shape[0]):
        assert matmul(Tensor(x[i:i + 1]), Tensor(w)).data.tobytes() == batch[i:i + 1].tobytes()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc thresholds are glibc's")
def test_freed_step_sized_arrays_are_reused_without_page_faults():
    import resource   # Unix only

    def cycle():
        arrays = [np.ones(1 << 18) for _ in range(20)]   # 20 arrays of 2 MiB
        del arrays

    def cycle_in_a_thread():   # the arrays are allocated and freed in another thread
        worker = threading.Thread(target=cycle)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()

    for run in (cycle, cycle_in_a_thread):
        run()   # the first cycle grows the heap
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            run()
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 10 * 100, f"{run.__name__}: {faults / 10:.0f} minor faults per cycle"


def test_conv1d_same_identity_kernel():
    x = np.abs(np.random.default_rng(0).normal(size=(2, 3, 7)))
    kernel = np.zeros((3, 3, 3))
    kernel[1] = np.eye(3)
    out = conv1d_same(Tensor(x), Tensor(kernel))
    np.testing.assert_allclose(out.data, x, atol=1e-15)


def test_conv1d_same_shift_kernel():
    x = np.array([[[1.0, 2.0, 3.0, 4.0, 5.0]]])
    kernel = np.array([1.0, 0.0, 0.0]).reshape(3, 1, 1)
    out = conv1d_same(Tensor(x), Tensor(kernel))
    # out[t] = x[t-1], zero-padded at the left edge
    np.testing.assert_allclose(out.data, [[[0.0, 1.0, 2.0, 3.0, 4.0]]], atol=1e-15)


def test_conv1d_rejects_even_width():
    with pytest.raises(UsageError):
        conv1d_same(Tensor(np.ones((1, 2, 5))), Tensor(np.ones((2, 2, 2))))


def test_conv1d_rejects_channel_mismatch():
    with pytest.raises(UsageError):
        conv1d_same(Tensor(np.ones((1, 2, 5))), Tensor(np.ones((3, 4, 2))))


def test_nested_tape_rejected():
    with Tape():
        with pytest.raises(UsageError):
            with Tape():
                pass


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = x * 2.0
    with pytest.raises(UsageError):
        tape.backward(y)


def test_backward_on_an_unrecorded_output_gives_ones():
    leaf = Tensor([[2.0]], requires_grad=True)
    const = Tensor(5.0)
    with Tape() as tape:
        leaf * 3.0
    for t in (leaf, const):
        tape.backward(t)
        np.testing.assert_array_equal(t.grad, np.ones_like(t.data))


def test_a_tensor_recorded_on_another_tape_is_a_leaf():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape():
        y = x * 2.0
    with Tape() as tape:
        z = (y * y).sum()
    tape.backward(z)
    np.testing.assert_array_equal(y.grad, 2.0 * y.data)
    assert x.grad is None


def test_op_inputs_only_on_a_tape_that_keeps_them():
    x = Tensor([-1.0, 2.0], requires_grad=True)
    for keep in ([], ["relu"]):
        with Tape(keep_inputs=keep) as tape:
            h = x * 3.0
            y = relu(h).sum()
        if keep:
            assert [t is h for t in tape.op_inputs("relu")] == [True]
        else:
            with pytest.raises(UsageError, match="relu"):
                tape.op_inputs("relu")
        tape.backward(y)
        np.testing.assert_array_equal(x.grad, [0.0, 3.0])


@pytest.mark.parametrize("op", [
    lambda a: a + 1.0,
    lambda a: a * 2.0,
    lambda a: matmul(a, Tensor(np.ones((3, 2)))),
    lambda a: conv1d_same(a.reshape(1, 4, 3), Tensor(np.ones((1, 4, 2)))),
    relu,
    sigmoid,
    lambda a: softmax(a, axis=-1),
], ids=["add", "mul", "matmul", "conv1d_same", "relu", "sigmoid", "softmax"])
def test_an_input_no_gradient_reads_is_freed_before_backward(op):
    x = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
    with Tape() as tape:
        h = x * 1.5
        freed = weakref.ref(h.data)
        loss = op(h).sum()
        del h
    assert freed() is None
    tape.backward(loss)
    assert x.grad.shape == x.shape


def test_ops_raise_on_overflow_to_inf():
    big = Tensor([1e308])
    with pytest.raises(DomainError):
        big * 1e10


def test_canonical_reductions_match_fast_path():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 6, 4))
    b = rng.normal(size=(4, 5))
    with canonical_reductions():
        slow = matmul(Tensor(a), Tensor(b)).data
        s_slow = softmax(Tensor(a), axis=1).data
        sum_slow = Tensor(a).sum(axis=2).data
    fast = matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(slow, fast, atol=1e-12)
    np.testing.assert_allclose(s_slow, softmax(Tensor(a), axis=1).data, atol=1e-13)
    np.testing.assert_allclose(sum_slow, Tensor(a).sum(axis=2).data, atol=1e-12)


# Tensor.sum and Tensor.mean drop the reduced axes; sorted_sum, the canonical sum
# under both, keeps them on request, as the softmax normalizers ask
@pytest.mark.parametrize("keepdims", [False, True])
@pytest.mark.parametrize("axis", [None, 0, -1, (0, 2), (2, 0)])
def test_reductions_keep_their_shape_in_canonical_mode(axis, keepdims):
    a = np.random.default_rng(4).normal(size=(2, 3, 4))
    want = np.sum(a, axis=axis, keepdims=keepdims)
    assert np.shape(sorted_sum(a, axis, keepdims=keepdims)) == np.shape(want)
    np.testing.assert_allclose(sorted_sum(a, axis, keepdims=keepdims), want, rtol=1e-12)
    if keepdims:
        return
    for reduce in ("sum", "mean"):
        plain = getattr(Tensor(a), reduce)(axis=axis).data
        with canonical_reductions():
            canonical = getattr(Tensor(a), reduce)(axis=axis).data
        want = getattr(np, reduce)(a, axis=axis)
        assert np.shape(plain) == np.shape(canonical) == np.shape(want)
        np.testing.assert_allclose(canonical, want, rtol=1e-12)


def test_sorted_sum_over_a_tuple_axis_is_permutation_invariant_bitwise():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 4, 5)) * 10.0 ** rng.integers(-8, 8, size=(3, 4, 5))
    shuffled = a[:, rng.permutation(4)][:, :, rng.permutation(5)]
    assert sorted_sum(a, axis=(1, 2)).tobytes() == sorted_sum(shuffled, axis=(2, 1)).tobytes()


def test_canonical_matmul_is_permutation_invariant_bitwise():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5))
    x = rng.normal(size=(5, 4))
    perm = rng.permutation(5)
    p = np.eye(5)[perm]
    with canonical_reductions():
        direct = matmul(Tensor(p @ a @ p.T), Tensor(p @ x)).data
        expected = p @ matmul(Tensor(a), Tensor(x)).data
    assert np.array_equal(direct, expected)


def test_sigmoid_matches_two_branch_formula_bitwise():
    rng = np.random.default_rng(3)
    x = np.concatenate([[700.0, -700.0, 0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0],
                        rng.normal(scale=20.0, size=200)])
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    want[~pos] = np.exp(x[~pos]) / (1.0 + np.exp(x[~pos]))
    assert sigmoid(Tensor(x)).data.tobytes() == want.tobytes()


@pytest.mark.parametrize("a_shape, b_shape", [
    ((7, 5), (5, 3)),
    ((3, 1, 6, 9), (2, 9, 4)),      # broadcast leading axes
    ((200, 60), (60, 203)),         # 87 columns a chunk: the last chunk is partial
    ((4, 0), (0, 3)),
])
def test_sorted_matmul_matches_sort_then_sum_bitwise(a_shape, b_shape):
    rng = np.random.default_rng(9)
    a = rng.normal(size=a_shape) * 10.0 ** rng.integers(-6, 6, size=a_shape)
    a[..., : a_shape[-2] // 2, :] *= -0.0    # signed zeros: sums of zeros start from +0.0
    b = rng.normal(size=b_shape)
    # reference: all terms at once, sorted along the contraction axis, np.sum over
    # that (non-contiguous) axis, which adds them one by one from +0.0
    prod = a[..., :, :, None] * b[..., None, :, :]
    want = np.sum(np.sort(prod, axis=-2), axis=-2)
    got = sorted_matmul(a, b)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
