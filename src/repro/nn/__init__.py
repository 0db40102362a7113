"""A small numpy-based autograd and neural-network framework.

The offline stand-in for PyTorch: reverse-mode autodiff
(:class:`~repro.nn.tensor.Tensor`), layers, the Adam optimizer, and the
BCE loss — exactly the operator set the paper's models require, at
float64.  :func:`~repro.nn.tensor.no_grad` turns graph recording off for
inference.
"""

from repro.nn.tensor import Tensor, concat_rows, no_grad, tensor, zeros, ones
from repro.nn.layers import Module, Linear, MLP, relu, sigmoid, tanh
from repro.nn.optim import Adam
from repro.nn.loss import bce_loss, bce_with_logits
from repro.nn.serialization import save_module, load_module

__all__ = [
    "Tensor",
    "concat_rows",
    "no_grad",
    "tensor",
    "zeros",
    "ones",
    "Module",
    "Linear",
    "MLP",
    "relu",
    "sigmoid",
    "tanh",
    "Adam",
    "bce_loss",
    "bce_with_logits",
    "save_module",
    "load_module",
]
