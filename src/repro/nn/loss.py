"""Loss functions.

The paper optimizes binary cross-entropy on the policy label (Eq. 11).
Both the probability-space form and the numerically stable logit-space
form are provided; training uses the logit form.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def bce_loss(probability: Tensor, target: float, eps: float = 1e-12) -> Tensor:
    """Eq. (11): ``-(y log p + (1-y) log(1-p))`` for a scalar prediction.

    ``probability`` must already be in (0, 1); it is clamped away from the
    endpoints by ``eps`` for numerical safety (clamping is constant w.r.t.
    the graph, so gradients at the endpoints saturate rather than explode).
    """
    target = float(target)
    if not 0.0 <= target <= 1.0:
        raise ValueError("target must be in [0, 1]")
    p = probability
    # Clamp via data (outside the graph) to avoid log(0).
    p_data = np.clip(p.data, eps, 1.0 - eps)
    safe = Tensor(p_data)
    safe.requires_grad = p.requires_grad
    if p.requires_grad:
        safe._parents = (p,)

        def backward(grad: np.ndarray) -> None:
            inside = (p.data > eps) & (p.data < 1.0 - eps)
            p._accumulate(grad * inside)

        safe._backward = backward
    return -(target * safe.log() + (1.0 - target) * (1.0 - safe).log()).sum()


def bce_with_logits(logit: Tensor, target: float) -> Tensor:
    """Numerically stable BCE on a raw logit.

    Uses ``max(x, 0) - x*y + log(1 + exp(-|x|))`` which never overflows.
    """
    target = float(target)
    if not 0.0 <= target <= 1.0:
        raise ValueError("target must be in [0, 1]")
    x = logit
    relu_x = x.relu()
    abs_x = relu_x + (-x).relu()
    return (relu_x - x * target + (1.0 + (-abs_x).exp()).log()).sum()

