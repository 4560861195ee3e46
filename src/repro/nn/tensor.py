"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ``ndarray`` and records the operations applied to
it as a DAG.  Calling :meth:`Tensor.backward` on a scalar result walks the DAG
in reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``.

Design notes
------------
* All operations are whole-array numpy calls; no per-element Python loops.
* Broadcasting follows numpy semantics; gradients are "un-broadcast" by
  summing over the broadcast axes so shapes always round-trip.
* Gradient tracking can be suspended with the :func:`no_grad` context
  manager (used during sampling / evaluation), which skips graph
  construction entirely.  The mode is per thread, so a thread sampling
  under ``no_grad`` leaves another thread's training untouched.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

Array = np.ndarray
Scalar = Union[int, float]


class _GradMode(threading.local):
    enabled = True  # every thread starts with gradient recording on


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction in this thread (cheaper
    inference)."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def is_grad_enabled() -> bool:
    """Whether this thread records the graph (off inside :func:`no_grad`)."""
    return _grad_mode.enabled


def _unbroadcast(grad: Array, shape: Tuple[int, ...]) -> Array:
    """Reduce ``grad`` so it matches ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """True when ``index`` uses only ints/slices (no fancy/bool indexing)."""
    items = index if isinstance(index, tuple) else (index,)
    return all(isinstance(i, (int, np.integer, slice)) or i is Ellipsis for i in items)


def _as_array(value: Union["Tensor", Array, Scalar]) -> Array:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


class Tensor:
    """A numpy array with an autograd tape."""

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_prev", "name", "_grad_buffer"
    )
    __array_priority__ = 100  # make numpy defer to our reflected operators

    def __init__(
        self,
        data: Union[Array, Sequence, Scalar],
        requires_grad: bool = False,
        *,
        name: str = "",
    ) -> None:
        self.data: Array = np.asarray(data, dtype=np.float64)
        self.grad: Optional[Array] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[], None]] = None
        self._prev: Tuple["Tensor", ...] = ()
        self.name = name
        #: Optional pre-allocated gradient storage (set by an optimizer); the
        #: first accumulation of a backward pass fills it in place instead of
        #: allocating a fresh array.
        self._grad_buffer: Optional[Array] = None

    # -- construction helpers ----------------------------------------------
    @staticmethod
    def zeros(shape: Tuple[int, ...], requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape: Tuple[int, ...], requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    # -- basic properties ----------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> Array:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- graph bookkeeping ---------------------------------------------------
    def _make_result(
        self, data: Array, parents: Tuple["Tensor", ...]
    ) -> "Tensor":
        # Built without requires_grad, so ``__init__`` does not read the
        # per-thread grad mode a second time on every recorded op.
        out = Tensor(data)
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._prev = tuple(p for p in parents if p.requires_grad)
        return out

    def _accumulate(self, grad: Array) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            buffer = self._grad_buffer
            if buffer is not None and buffer.shape == grad.shape:
                np.copyto(buffer, grad)
                self.grad = buffer
            else:
                self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[Array] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 for scalar tensors; for non-scalar tensors an
        explicit upstream gradient must be supplied.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=np.float64))

        # Topological order over the DAG.
        topo: List[Tensor] = []
        visited: Set[int] = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other: Union["Tensor", Array, Scalar]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out = self._make_result(self.data + other_t.data, (self, other_t))
        if out.requires_grad:
            def _backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad)
                if other_t.requires_grad:
                    other_t._accumulate(out.grad)
            out._backward = _backward
        return out

    def __radd__(self, other: Union[Array, Scalar]) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out = self._make_result(-self.data, (self,))
        if out.requires_grad:
            def _backward() -> None:
                self._accumulate(-out.grad)
            out._backward = _backward
        return out

    def __sub__(self, other: Union["Tensor", Array, Scalar]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out = self._make_result(self.data - other_t.data, (self, other_t))
        if out.requires_grad:
            def _backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad)
                if other_t.requires_grad:
                    other_t._accumulate(-out.grad)
            out._backward = _backward
        return out

    def __rsub__(self, other: Union[Array, Scalar]) -> "Tensor":
        return Tensor(_as_array(other)).__sub__(self)

    def __mul__(self, other: Union["Tensor", Array, Scalar]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out = self._make_result(self.data * other_t.data, (self, other_t))
        if out.requires_grad:
            def _backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad * other_t.data)
                if other_t.requires_grad:
                    other_t._accumulate(out.grad * self.data)
            out._backward = _backward
        return out

    def __rmul__(self, other: Union[Array, Scalar]) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", Array, Scalar]) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out = self._make_result(self.data / other_t.data, (self, other_t))
        if out.requires_grad:
            def _backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad / other_t.data)
                if other_t.requires_grad:
                    other_t._accumulate(-out.grad * self.data / (other_t.data ** 2))
            out._backward = _backward
        return out

    def __rtruediv__(self, other: Union[Array, Scalar]) -> "Tensor":
        return Tensor(_as_array(other)).__truediv__(self)

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make_result(self.data ** exponent, (self,))
        if out.requires_grad:
            def _backward() -> None:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))
            out._backward = _backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out = self._make_result(self.data @ other_t.data, (self, other_t))
        if out.requires_grad:
            def _backward() -> None:
                if self.requires_grad:
                    self._accumulate(out.grad @ other_t.data.T)
                if other_t.requires_grad:
                    other_t._accumulate(self.data.T @ out.grad)
            out._backward = _backward
        return out

    # -- elementwise functions -------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)
        out = self._make_result(data, (self,))
        if out.requires_grad:
            def _backward() -> None:
                self._accumulate(out.grad * data)
            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make_result(np.log(self.data), (self,))
        if out.requires_grad:
            def _backward() -> None:
                self._accumulate(out.grad / self.data)
            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)
        out = self._make_result(data, (self,))
        if out.requires_grad:
            def _backward() -> None:
                self._accumulate(out.grad * 0.5 / np.maximum(data, 1e-12))
            out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)
        out = self._make_result(data, (self,))
        if out.requires_grad:
            def _backward() -> None:
                self._accumulate(out.grad * (1.0 - data ** 2))
            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))
        out = self._make_result(data, (self,))
        if out.requires_grad:
            def _backward() -> None:
                self._accumulate(out.grad * data * (1.0 - data))
            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make_result(self.data * mask, (self,))
        if out.requires_grad:
            def _backward() -> None:
                self._accumulate(out.grad * mask)
            out._backward = _backward
        return out

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        scale = np.where(self.data > 0, 1.0, negative_slope)
        out = self._make_result(self.data * scale, (self,))
        if out.requires_grad:
            def _backward() -> None:
                self._accumulate(out.grad * scale)
            out._backward = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient passes only through the un-clamped region."""
        mask = (self.data >= low) & (self.data <= high)
        out = self._make_result(np.clip(self.data, low, high), (self,))
        if out.requires_grad:
            def _backward() -> None:
                self._accumulate(out.grad * mask)
            out._backward = _backward
        return out

    # -- reductions --------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        out = self._make_result(data, (self,))
        if out.requires_grad:
            def _backward() -> None:
                grad = out.grad
                if not keepdims and axis is not None:
                    grad = np.expand_dims(grad, axis=axis)
                self._accumulate(np.broadcast_to(grad, self.data.shape))
            out._backward = _backward
        return out

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu) ** 2
        return sq.mean(axis=axis, keepdims=keepdims)

    # -- shape manipulation --------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out = self._make_result(self.data.reshape(shape), (self,))
        if out.requires_grad:
            def _backward() -> None:
                self._accumulate(out.grad.reshape(original))
            out._backward = _backward
        return out

    @property
    def T(self) -> "Tensor":
        out = self._make_result(self.data.T, (self,))
        if out.requires_grad:
            def _backward() -> None:
                self._accumulate(out.grad.T)
            out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = self._make_result(self.data[index], (self,))
        if out.requires_grad:
            basic = _is_basic_index(index)

            def _backward() -> None:
                grad = np.zeros_like(self.data)
                if basic:
                    # Basic (slice/int) indices cannot repeat positions, so a
                    # plain in-place add replaces the much slower np.add.at.
                    grad[index] += out.grad
                else:
                    np.add.at(grad, index, out.grad)
                self._accumulate(grad)
            out._backward = _backward
        return out

    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        """Concatenate tensors along ``axis`` with gradient routing."""
        tensors = list(tensors)
        data = np.concatenate([t.data for t in tensors], axis=axis)
        out = Tensor(data)
        if is_grad_enabled() and any(t.requires_grad for t in tensors):
            out.requires_grad = True
            out._prev = tuple(t for t in tensors if t.requires_grad)
            sizes = [t.data.shape[axis] for t in tensors]
            offsets = np.cumsum([0] + sizes)

            def _backward() -> None:
                for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                    if t.requires_grad:
                        slicer = [slice(None)] * out.grad.ndim
                        slicer[axis] = slice(int(start), int(stop))
                        t._accumulate(out.grad[tuple(slicer)])
            out._backward = _backward
        return out

    # -- numerically stable softmax helpers -------------------------------------
    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - log_sum
        out = self._make_result(data, (self,))
        if out.requires_grad:
            softmax = np.exp(data)

            def _backward() -> None:
                grad_sum = out.grad.sum(axis=axis, keepdims=True)
                self._accumulate(out.grad - softmax * grad_sum)
            out._backward = _backward
        return out

    def softmax(self, axis: int = -1) -> "Tensor":
        return self.log_softmax(axis=axis).exp()

    # -- comparison helpers (no gradient) ----------------------------------------
    def maximum(self, other: Scalar) -> "Tensor":
        mask = self.data > other
        out = self._make_result(np.maximum(self.data, other), (self,))
        if out.requires_grad:
            def _backward() -> None:
                self._accumulate(out.grad * mask)
            out._backward = _backward
        return out
