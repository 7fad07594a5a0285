"""Linear-beta noise schedule, forward noising, clean-latent reversion, DDIM.

The per-step variances beta_t in (0,1) interpolate linearly. The cumulative
noise level is beta_bar_t = 1 - prod_{s<=t}(1 - beta_s), from which
alpha_t = sqrt(1 - beta_bar_t) and sigma_t = sqrt(beta_bar_t), so
alpha_t^2 + sigma_t^2 = 1 at every step and the noising map
z_t = alpha_t z0 + sigma_t eps inverts in closed form to
z0 = (z_t - sigma_t eps) / alpha_t.

Timesteps are 1-based: t in {1, ..., T}; t = 0 means fully denoised.
"""

from dataclasses import dataclass

import numpy as np

from soekit import tensor as T
from soekit.tensor import ShapeError, Tensor

DEGENERATE_ALPHA = 1e-8


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable per-timestep coefficients; safe to share across threads."""

    T: int
    beta: np.ndarray       # (T,) per-step variances
    beta_bar: np.ndarray   # (T,) cumulative noise level, strictly increasing
    alpha_t: np.ndarray    # (T,) sqrt(1 - beta_bar)
    sigma_t: np.ndarray    # (T,) sqrt(beta_bar)

    def _check_t(self, t, ndim: int = 1) -> np.ndarray:
        """Range-checked 0-based index: a scalar for an int t; for a per-sample
        vector, a (B, 1, ...) column that broadcasts against `ndim`-axis latents."""
        t = np.asarray(t)
        bad = (t < 1) | (t > self.T)
        if bad.any():
            raise ValueError(f"timestep {t[bad].flat[0]} out of range [1, {self.T}]")
        return t - 1 if t.ndim == 0 else (t - 1).reshape((-1,) + (1,) * (ndim - 1))

    def alpha(self, t: int) -> float:
        return float(self.alpha_t[self._check_t(t)])

    def sigma(self, t: int) -> float:
        return float(self.sigma_t[self._check_t(t)])


def make_schedule(T: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    """Linear schedule over T steps; derived arrays computed in float64."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")
    beta = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    beta_bar = 1.0 - np.cumprod(1.0 - beta)
    return NoiseSchedule(
        T=T,
        beta=beta,
        beta_bar=beta_bar,
        alpha_t=np.sqrt(1.0 - beta_bar),
        sigma_t=np.sqrt(beta_bar),
    )


def add_noise(z0: Tensor, eps: Tensor, t, s: NoiseSchedule) -> Tensor:
    """Forward noising: alpha_t z0 + sigma_t eps, for an int t or one t per sample."""
    if z0.shape != eps.shape:
        raise ShapeError("add_noise", f"z0 {z0.shape} vs eps {eps.shape}")
    i = s._check_t(t, z0.ndim)
    return T.add(T.mul(z0, Tensor(s.alpha_t[i], dtype=z0.dtype)), T.mul(eps, Tensor(s.sigma_t[i], dtype=eps.dtype)))


def predict_z0(z_t: Tensor, eps_pred: Tensor, t, s: NoiseSchedule) -> Tensor:
    """Revert a noise prediction to the clean latent: (z_t - sigma_t eps) / alpha_t.

    Divides by multiplying with 1/alpha_t, taken in float64 and rounded to z_t's dtype.
    """
    if z_t.shape != eps_pred.shape:
        raise ShapeError("predict_z0", f"z_t {z_t.shape} vs eps_pred {eps_pred.shape}")
    i = s._check_t(t, z_t.ndim)
    a = np.asarray(s.alpha_t[i])
    bad = a < DEGENERATE_ALPHA
    if bad.any():
        raise ValueError(f"predict_z0: alpha_t={a[bad].flat[0]:.3e} at t={i[bad].flat[0] + 1} "
                         f"is degenerate (< {DEGENERATE_ALPHA})")
    return T.mul(T.sub(z_t, T.mul(eps_pred, Tensor(s.sigma_t[i], dtype=z_t.dtype))), Tensor(1.0 / a, dtype=z_t.dtype))


def ddim_step(z_t: Tensor, eps_pred: Tensor, t: int, t_prev: int, s: NoiseSchedule) -> Tensor:
    """One deterministic DDIM update from t to t_prev (t_prev = 0 denoises fully)."""
    if not 0 <= t_prev < t:
        raise ValueError(f"ddim_step: need 0 <= t_prev < t, got t={t}, t_prev={t_prev}")
    z0_hat = predict_z0(z_t, eps_pred, t, s)
    if t_prev == 0:
        return z0_hat
    return add_noise(z0_hat, eps_pred, t_prev, s)


def ddim_timesteps(T: int, steps: int) -> list:
    """Descending timesteps for a `steps`-step DDIM chain, ending at 0.

    Evenly spaced in t, always starting at T. Each consecutive pair
    (t, t_prev) is one ddim_step.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    steps = min(steps, T)
    ts = np.unique(np.linspace(0, T, steps + 1).round().astype(int))
    return list(ts[::-1])
