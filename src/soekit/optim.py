"""The optimizer over named parameter collections.

Adam, at Kingma & Ba's constants BETA1 = 0.9, BETA2 = 0.999, EPS = 1e-8,
steps every trainable parameter: the adapters, both pretraining phases and
the probe. It clears gradients after applying an update and raises if any
managed parameter is missing its gradient.
"""

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class MissingGradientError(RuntimeError):
    def __init__(self, name: str):
        super().__init__(f"parameter {name!r} has no gradient; run backward first")


class Adam:
    """Standard Adam with bias correction; moments stored in float32."""

    def __init__(self, params: dict, lr: float = 1e-3):
        self.params = dict(params)
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        for name, p in self.params.items():
            if p.grad is None:
                raise MissingGradientError(name)
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data -= (self.lr * update).astype(p.data.dtype)
            p.grad = None
