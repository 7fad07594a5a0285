"""Optimizers over named parameter collections.

Adam is the default trainer (beta1=0.9, beta2=0.999, eps=1e-8); plain SGD
stays selectable. Both clear gradients after applying an update and raise if
any managed parameter is missing its gradient.
"""

import numpy as np


class MissingGradientError(RuntimeError):
    def __init__(self, name: str):
        super().__init__(f"parameter {name!r} has no gradient; run backward first")
        self.name = name


class Adam:
    """Standard Adam with bias correction; moments stored in float32."""

    def __init__(self, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        for name, p in self.params.items():
            if p.grad is None:
                raise MissingGradientError(name)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= (self.lr * update).astype(p.data.dtype)
            p.grad = None


class Sgd:
    """Plain gradient descent, kept selectable next to Adam."""

    def __init__(self, params: dict, lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0

    def step(self):
        for name, p in self.params.items():
            if p.grad is None:
                raise MissingGradientError(name)
        self.step_count += 1
        for p in self.params.values():
            p.data -= (self.lr * p.grad).astype(p.data.dtype)
            p.grad = None


def make_optimizer(kind: str, params: dict, lr: float):
    if kind == "adam":
        return Adam(params, lr=lr)
    if kind == "sgd":
        return Sgd(params, lr=lr)
    raise ValueError(f"unknown optimizer {kind!r} (expected 'adam' or 'sgd')")
