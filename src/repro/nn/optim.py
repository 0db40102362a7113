"""Adam, the paper's optimizer (learning rate 1e-4, Sec. 5.2)."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nn.tensor import Tensor


class Adam:
    """Adam with bias correction (Kingma & Ba), stepping on ``.grad``."""

    def __init__(
        self,
        parameters: List[Tensor],
        lr: float = 1e-4,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer got no parameters")
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for param in self.parameters:
            if param.grad is None:
                continue
            grad = param.grad
            key = id(param)
            m = self._m.get(key)
            v = self._v.get(key)
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = b1 * m + (1.0 - b1) * grad
            v = b2 * v + (1.0 - b2) * grad * grad
            self._m[key] = m
            self._v[key] = v
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
