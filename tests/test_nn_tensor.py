"""Tests for the autograd engine, including finite-difference gradient checks."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, is_grad_enabled, no_grad


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn with respect to x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        up = fn(x)
        flat[i] = original - eps
        down = fn(x)
        flat[i] = original
        grad_flat[i] = (up - down) / (2.0 * eps)
    return grad


def check_gradient(build_loss, shape, seed=0, rtol=1e-4, atol=1e-6):
    """Compare autograd gradient against finite differences."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(0.0, 1.0, size=shape)

    def scalar_fn(values):
        t = Tensor(values.copy(), requires_grad=True)
        return build_loss(t).item()

    t = Tensor(x0.copy(), requires_grad=True)
    loss = build_loss(t)
    loss.backward()
    expected = numeric_grad(scalar_fn, x0.copy())
    np.testing.assert_allclose(t.grad, expected, rtol=rtol, atol=atol)


class TestBasicOps:
    def test_add_backward(self):
        check_gradient(lambda t: (t + 3.0).sum(), (4,))

    def test_sub_backward(self):
        check_gradient(lambda t: (5.0 - t).sum(), (3, 2))

    def test_mul_backward(self):
        check_gradient(lambda t: (t * t).sum(), (5,))

    def test_div_backward(self):
        check_gradient(lambda t: (t / 2.5).sum(), (4,))

    def test_rdiv_backward(self):
        check_gradient(lambda t: (1.0 / (t + 10.0)).sum(), (4,))

    def test_pow_backward(self):
        check_gradient(lambda t: (t ** 3).sum(), (6,))

    def test_neg_backward(self):
        check_gradient(lambda t: (-t).sum(), (3,))

    def test_matmul_backward(self):
        w = np.random.default_rng(1).normal(size=(4, 3))
        check_gradient(lambda t: (t @ Tensor(w)).sum(), (2, 4))

    def test_matmul_other_side(self):
        x = np.random.default_rng(2).normal(size=(3, 4))
        check_gradient(lambda t: (Tensor(x) @ t).sum(), (4, 2))

    def test_broadcast_add_bias(self):
        x = np.random.default_rng(3).normal(size=(5, 3))
        check_gradient(lambda t: ((Tensor(x) + t) ** 2).sum(), (3,))

    def test_broadcast_mul(self):
        x = np.random.default_rng(4).normal(size=(5, 3))
        check_gradient(lambda t: ((Tensor(x) * t) ** 2).sum(), (1, 3))


class TestElementwise:
    def test_exp(self):
        check_gradient(lambda t: t.exp().sum(), (4,))

    def test_log(self):
        check_gradient(lambda t: (t.exp() + 1.0).log().sum(), (4,))

    def test_sqrt(self):
        check_gradient(lambda t: (t * t + 1.0).sqrt().sum(), (4,))

    def test_tanh(self):
        check_gradient(lambda t: t.tanh().sum(), (5,))

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid().sum(), (5,))

    def test_relu(self):
        check_gradient(lambda t: (t.relu() * t.relu()).sum(), (6,), seed=7)

    def test_leaky_relu(self):
        check_gradient(lambda t: t.leaky_relu(0.1).sum(), (6,), seed=8)

    def test_clip_gradient_masked(self):
        t = Tensor(np.array([-2.0, 0.5, 2.0]), requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0, 0.0])

    def test_maximum(self):
        t = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        t.maximum(0.0).sum().backward()
        np.testing.assert_array_equal(t.grad, [0.0, 1.0])


class TestReductionsAndShapes:
    def test_sum_axis(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(), (3, 4))

    def test_sum_keepdims(self):
        check_gradient(lambda t: (t - t.sum(axis=1, keepdims=True)).sum(), (3, 4))

    def test_mean(self):
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(), (3, 4))

    def test_mean_all(self):
        check_gradient(lambda t: t.mean() * 3.0, (4, 2))

    def test_var(self):
        check_gradient(lambda t: t.var(axis=0).sum(), (6, 2))

    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(6) ** 2).sum(), (2, 3))

    def test_transpose(self):
        w = np.random.default_rng(5).normal(size=(2, 3))
        check_gradient(lambda t: (t.T * Tensor(w)).sum(), (3, 2))

    def test_getitem_rows(self):
        check_gradient(lambda t: (t[np.array([0, 2])] ** 2).sum(), (4, 3))

    def test_getitem_slice_columns(self):
        check_gradient(lambda t: (t[:, 1:3] ** 2).sum(), (4, 5))

    def test_getitem_repeated_indices_accumulate(self):
        t = Tensor(np.ones((3, 2)), requires_grad=True)
        (t[np.array([0, 0, 1])]).sum().backward()
        np.testing.assert_array_equal(t.grad[:, 0], [2.0, 1.0, 0.0])

    def test_concat(self):
        a = Tensor(np.random.default_rng(0).normal(size=(2, 3)), requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(2, 2)), requires_grad=True)
        out = Tensor.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        (out ** 2).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)
        np.testing.assert_allclose(b.grad, 2 * b.data)

    def test_log_softmax_rows_sum_to_one(self):
        t = Tensor(np.random.default_rng(2).normal(size=(4, 6)))
        probs = t.softmax(axis=-1).numpy()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-9)

    def test_log_softmax_gradient(self):
        target = np.zeros((3, 4))
        target[np.arange(3), [0, 1, 2]] = 1.0
        check_gradient(
            lambda t: -(t.log_softmax(axis=-1) * Tensor(target)).sum(), (3, 4), seed=11
        )


def _start(target):
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


class TestGradModeIsPerThread:
    """``no_grad`` in one thread leaves every other thread's mode alone
    (two backends can sample exact-mode models on two threads)."""

    TIMEOUT = 30

    def test_no_grad_in_another_thread_does_not_reach_this_one(self):
        inside, leave = threading.Event(), threading.Event()

        def sampler():
            with no_grad():
                inside.set()
                leave.wait(self.TIMEOUT)

        thread = _start(sampler)
        try:
            assert inside.wait(self.TIMEOUT)
            assert is_grad_enabled()
            assert Tensor(np.array([1.0]), requires_grad=True).requires_grad
        finally:
            leave.set()
            thread.join(self.TIMEOUT)
        assert not thread.is_alive()

    def test_overlapping_blocks_in_two_threads_leave_recording_on(self):
        # A enters, B enters, A exits, B exits: a process-wide flag would end
        # with B restoring the "off" it found on entry, for good.
        a_in, b_in, a_out, b_out = (threading.Event() for _ in range(4))

        def thread_a():
            with no_grad():
                a_in.set()
                b_in.wait(self.TIMEOUT)
            a_out.set()

        def thread_b():
            a_in.wait(self.TIMEOUT)
            with no_grad():
                b_in.set()
                a_out.wait(self.TIMEOUT)
            b_out.set()

        threads = [_start(thread_a), _start(thread_b)]
        for thread in threads:
            thread.join(self.TIMEOUT)
        assert not any(thread.is_alive() for thread in threads)
        assert all(event.is_set() for event in (a_in, b_in, a_out, b_out))
        assert is_grad_enabled()
        x = Tensor(np.array([3.0]), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])


class TestGraphMechanics:
    def test_backward_requires_scalar_or_grad(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        t = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            t.backward()

    def test_grad_accumulates_across_backwards(self):
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (t * 2).sum().backward()
        (t * 2).sum().backward()
        np.testing.assert_array_equal(t.grad, [4.0, 4.0])

    def test_zero_grad(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        (t * 3).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_detach_cuts_graph(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_no_grad_context(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        with no_grad():
            out = (t * 2).sum()
        assert not out.requires_grad

    def test_shared_subexpression(self):
        # y = (x*x) used twice; gradient must count both paths.
        t = Tensor(np.array([3.0]), requires_grad=True)
        sq = t * t
        (sq + sq).sum().backward()
        np.testing.assert_allclose(t.grad, [12.0])

    def test_diamond_graph(self):
        check_gradient(lambda t: ((t * 2) + (t ** 2)).sum(), (5,), seed=13)

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_linear_layer_gradient_property(self, n, d):
        rng = np.random.default_rng(n * 17 + d)
        x = rng.normal(size=(n, d))
        w0 = rng.normal(size=(d, 3))

        def loss(t):
            return ((Tensor(x) @ t) ** 2).mean()

        t = Tensor(w0.copy(), requires_grad=True)
        loss(t).backward()
        expected = numeric_grad(lambda v: ((x @ v) ** 2).mean(), w0.copy())
        np.testing.assert_allclose(t.grad, expected, rtol=1e-4, atol=1e-6)
