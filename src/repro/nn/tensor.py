"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps a float64 ``numpy.ndarray`` and records the
operations applied to it; :meth:`Tensor.backward` then walks the recorded
graph in reverse topological order accumulating gradients.  The op set is
exactly what the paper's models need — dense linear algebra, pointwise
nonlinearities, reductions, broadcasting arithmetic, and the
gather/scatter primitives that make message passing differentiable —
nothing more.  :meth:`Tensor.message_sum` fuses one message-passing
round's gather, edge weight and scatter into a single compiled loop.

Broadcasting follows numpy semantics; gradients of broadcast operands are
summed back over the broadcast axes (:func:`_unbroadcast`).

Inside :func:`no_grad` nothing is recorded: every op returns a bare result
that keeps no reference to its inputs, so an inference pass frees each
intermediate as soon as the next layer has consumed it.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list]


class _GradMode(threading.local):
    """Per-thread recording switch; every thread starts with recording on."""

    enabled = True


_GRAD_MODE = _GradMode()


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no autograd graph in this thread while the block runs.

    Mirrors ``torch.no_grad``: ops return tensors with ``requires_grad=False``
    and no parents or backward closure, while parameters keep their own
    ``requires_grad``.  The switch is thread-local, nests, and restores the
    previous state on exit, exceptions included.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size 1 in the original.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _is_basic_index(index) -> bool:
    """True for numpy *basic* indexing: ints, slices, ``...``, ``None``."""
    parts = index if isinstance(index, tuple) else (index,)
    return all(
        part is None
        or part is Ellipsis
        or isinstance(part, slice)
        or (isinstance(part, (int, np.integer)) and not isinstance(part, bool))
        for part in parts
    )


def segment_sum(values: np.ndarray, index: np.ndarray, num_segments: int) -> np.ndarray:
    """``out[s] = sum of values[e] with index[e] == s``, as one ``np.bincount``.

    The rows are flattened to cells ``index*width + column`` and summed in
    input order, the order ``np.add.at`` uses, so the result is bit-identical
    to ``np.add.at(zeros, index, values)`` at a fraction of its cost.
    """
    width = int(np.prod(values.shape[1:], dtype=np.int64))
    cells = (index[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(
        cells, weights=values.reshape(-1), minlength=num_segments * width
    )
    return out.reshape((num_segments,) + values.shape[1:])


def _compiled():
    """The compiled kernel module, or None (see ``repro.solver.kernel``,
    imported on the first message-passing sum, not with ``repro.nn``)."""
    from repro.solver import kernel

    return kernel.load()


def message_sum(
    values: np.ndarray,
    edge_source: np.ndarray,
    edge_target: np.ndarray,
    edge_weight: Optional[np.ndarray],
    num_targets: int,
) -> np.ndarray:
    """``out[t] = sum of edge_weight[e] * values[edge_source[e]]`` over the
    edges ``e`` with ``edge_target[e] == t``; no weight means unit weights.

    The compiled kernel runs it as one loop over the edges with the
    interpreter lock released.  Without the kernel, numpy runs the
    unfused chain: ``take``, the weight multiply, then
    :func:`segment_sum`.  Both add the same products in edge order, so
    their results are bit-identical.
    """
    edge_source = np.asarray(edge_source, dtype=np.int64)
    edge_target = np.asarray(edge_target, dtype=np.int64)
    num_edges = len(edge_source)
    if (
        edge_source.ndim != 1
        or edge_target.shape != (num_edges,)
        or (edge_weight is not None and np.shape(edge_weight) != (num_edges,))
    ):
        raise ValueError("edge arrays must be one-dimensional and of one length")
    module = _compiled()
    if module is None:
        rows = values.take(edge_source, axis=0)
        if edge_weight is not None:
            rows = rows * np.reshape(edge_weight, (-1,) + (1,) * (values.ndim - 1))
        return segment_sum(rows, edge_target, num_targets)
    out = np.zeros((num_targets,) + values.shape[1:])
    if not num_edges:
        return out
    ffi = module.ffi
    values = np.ascontiguousarray(values, dtype=np.float64)
    weights = (
        ffi.NULL
        if edge_weight is None
        else ffi.from_buffer(
            "double[]", np.ascontiguousarray(edge_weight, dtype=np.float64)
        )
    )
    code = module.lib.k_message_sum(
        ffi.from_buffer("double[]", values),
        values.shape[0],
        math.prod(values.shape[1:]),
        ffi.from_buffer("int64_t[]", np.ascontiguousarray(edge_source)),
        ffi.from_buffer("int64_t[]", np.ascontiguousarray(edge_target)),
        weights,
        num_edges,
        ffi.from_buffer("double[]", out),
        num_targets,
    )
    if code:
        raise IndexError("edge index out of range")
    return out


class Tensor:
    """A node in the autograd graph."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ):
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = np.asarray(data, dtype=np.float64)
        self.requires_grad: bool = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # -- helpers ----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad_tag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_tag})"

    @staticmethod
    def _lift(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor(data)
        if _GRAD_MODE.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad, self.data.shape))
            other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
            other._accumulate(
                _unbroadcast(-grad * self.data / (other.data**2), other.data.shape)
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return self._make(out_data, (self, other), backward)

    # -- shape ops ----------------------------------------------------------

    @property
    def T(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.T)

        return self._make(self.data.T, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(original))

        return self._make(self.data.reshape(*shape), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        basic = _is_basic_index(index)

        def backward(grad: np.ndarray) -> None:
            # Accumulate straight into this tensor's gradient: a basic index
            # (ints, slices) addresses each element at most once, so a slice
            # add suffices; fancy indices may repeat and need ``np.add.at``.
            if not self.requires_grad:
                return
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            if basic:
                self.grad[index] += grad
            else:
                np.add.at(self.grad, index, grad)

        return self._make(out_data, (self,), backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                out = np.expand_dims(out, axis)
            mask = self.data == out
            # Split gradient among ties, like numpy-compatible frameworks.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / counts)

        return self._make(out_data, (self,), backward)

    # -- pointwise nonlinearities ------------------------------------------

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (self.data > 0.0))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -700.0, 700.0))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return self._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * 0.5 / np.maximum(out_data, 1e-300))

        return self._make(out_data, (self,), backward)

    # -- graph primitives -------------------------------------------------

    def gather_rows(self, index: np.ndarray) -> "Tensor":
        """Rows ``self[index]`` with scatter-add backward (edge expansion)."""
        index = np.asarray(index, dtype=np.int64)
        out_data = self.data.take(index, axis=0)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(segment_sum(grad, index, self.data.shape[0]))

        return self._make(out_data, (self,), backward)

    def scatter_sum(self, index: np.ndarray, num_segments: int) -> "Tensor":
        """Per-segment sum of rows: out[s] = sum of self[e] with index[e]==s."""
        index = np.asarray(index, dtype=np.int64)
        out_data = segment_sum(self.data, index, num_segments)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.take(index, axis=0))

        return self._make(out_data, (self,), backward)

    def message_sum(
        self,
        edge_source: np.ndarray,
        edge_target: np.ndarray,
        edge_weight: Optional[np.ndarray],
        num_targets: int,
    ) -> "Tensor":
        """One message-passing sum over weighted edges (see
        :func:`message_sum`): bit-identical to
        ``gather_rows(edge_source) * weight`` then ``scatter_sum(edge_target)``.
        The weights are constants; the backward pass is the same sum with
        source and target swapped."""
        edge_source = np.asarray(edge_source, dtype=np.int64)
        edge_target = np.asarray(edge_target, dtype=np.int64)
        out_data = message_sum(
            self.data, edge_source, edge_target, edge_weight, num_targets
        )

        def backward(grad: np.ndarray) -> None:
            self._accumulate(
                message_sum(
                    grad, edge_target, edge_source, edge_weight, self.data.shape[0]
                )
            )

        return self._make(out_data, (self,), backward)

    # -- autograd driver -----------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (must be scalar unless ``grad`` given)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar tensor")
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()
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
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate_seed(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def _accumulate_seed(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=np.float64).copy()
        else:
            self.grad += grad


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack ``parts`` along axis 0; each part's gradient is its row slice."""
    bounds = np.cumsum([0] + [p.shape[0] for p in parts])

    def backward(grad: np.ndarray) -> None:
        for part, start, stop in zip(parts, bounds[:-1], bounds[1:]):
            part._accumulate(grad[start:stop])

    return Tensor._make(np.concatenate([p.data for p in parts]), parts, backward)


def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Factory mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape: int, requires_grad: bool = False) -> Tensor:
    """All-zeros tensor of the given shape."""
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape: int, requires_grad: bool = False) -> Tensor:
    """All-ones tensor of the given shape."""
    return Tensor(np.ones(shape), requires_grad=requires_grad)
