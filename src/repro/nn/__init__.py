"""A small numpy-based autograd and neural-network framework.

The offline stand-in for PyTorch: reverse-mode autodiff
(:class:`~repro.nn.tensor.Tensor`), layers, optimizers, and losses —
exactly the operator set the paper's models require, at float64.
"""

from repro.nn.tensor import Tensor, concat_rows, tensor, zeros, ones
from repro.nn.layers import (
    Module,
    Linear,
    MLP,
    LayerNorm,
    Sequential,
    relu,
    sigmoid,
    tanh,
)
from repro.nn.optim import Optimizer, SGD, Adam
from repro.nn.loss import bce_loss, bce_with_logits, mse_loss
from repro.nn.serialization import save_module, load_module
from repro.nn.schedulers import (
    Scheduler,
    ConstantLR,
    StepLR,
    CosineAnnealingLR,
    WarmupLR,
    EarlyStopping,
)

__all__ = [
    "Tensor",
    "concat_rows",
    "tensor",
    "zeros",
    "ones",
    "Module",
    "Linear",
    "MLP",
    "LayerNorm",
    "Sequential",
    "relu",
    "sigmoid",
    "tanh",
    "Optimizer",
    "SGD",
    "Adam",
    "bce_loss",
    "bce_with_logits",
    "mse_loss",
    "save_module",
    "load_module",
    "Scheduler",
    "ConstantLR",
    "StepLR",
    "CosineAnnealingLR",
    "WarmupLR",
    "EarlyStopping",
]
