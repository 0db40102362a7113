"""Neural-network modules: parameter containers and standard layers.

:class:`Module` mirrors the familiar torch API surface — ``parameters()``
walks nested submodules and registered :class:`Tensor` parameters,
``state_dict``/``load_state_dict`` (de)serialize — so the model code in
:mod:`repro.models` reads like its PyTorch original.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.nn.tensor import Tensor


class Module:
    """Base class: anything with trainable parameters."""

    def parameters(self) -> List[Tensor]:
        """All trainable tensors of this module and its submodules."""
        params: List[Tensor] = []
        seen = set()
        for value in self.__dict__.values():
            for param in _collect(value):
                if id(param) not in seen:
                    seen.add(id(param))
                    params.append(param)
        return params

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- serialization -----------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple]:
        for key, value in sorted(self.__dict__.items()):
            name = f"{prefix}{key}"
            yield from _named(value, name)

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise ValueError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


def _collect(value) -> Iterator[Tensor]:
    if isinstance(value, Tensor):
        if value.requires_grad:
            yield value
    elif isinstance(value, Module):
        yield from value.parameters()
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _collect(item)


def _named(value, name: str) -> Iterator[tuple]:
    if isinstance(value, Tensor):
        if value.requires_grad:
            yield name, value
    elif isinstance(value, Module):
        for sub_name, param in value.named_parameters(prefix=f"{name}."):
            yield sub_name, param
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _named(item, f"{name}.{i}")


class Linear(Module):
    """Affine map ``y = x W + b`` with Glorot-uniform initialization."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        rng = rng or np.random.default_rng(0)
        bound = np.sqrt(6.0 / (in_features + out_features))
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(in_features, out_features)),
            requires_grad=True,
        )
        self.bias = (
            Tensor(np.zeros(out_features), requires_grad=True) if bias else None
        )
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


def relu(x: Tensor) -> Tensor:
    """Functional ReLU."""
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    """Functional sigmoid."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Functional tanh."""
    return x.tanh()


class MLP(Module):
    """Multi-layer perceptron with ReLU between hidden layers.

    ``dims = [in, h1, ..., out]``; no activation after the final layer
    (callers append sigmoid for probabilities).
    """

    def __init__(
        self,
        dims: Sequence[int],
        rng: Optional[np.random.Generator] = None,
        activation: Callable[[Tensor], Tensor] = relu,
    ):
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        rng = rng or np.random.default_rng(0)
        self.layers = [
            Linear(dims[i], dims[i + 1], rng=rng) for i in range(len(dims) - 1)
        ]
        self.activation = activation

    def forward(self, x: Tensor) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x)
            if i + 1 < len(self.layers):
                x = self.activation(x)
        return x

