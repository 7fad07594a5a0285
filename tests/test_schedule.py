"""Noise schedule: cumulative products, inversion, DDIM chains."""

import numpy as np
import pytest

from soekit.schedule import add_noise, ddim_step, ddim_timesteps, make_schedule, predict_z0
from soekit.tensor import ShapeError, Tensor

S = make_schedule(1000, 1e-4, 0.02)


def latent(seed, shape=(1, 4, 8, 8)):
    return Tensor(np.random.default_rng(seed).standard_normal(shape).astype(np.float32))


def test_first_step_beta_bar_equals_beta():
    s = make_schedule(10, 1e-3, 0.1)
    assert abs(s.beta_bar[0] - s.beta[0]) < 1e-15


def test_beta_bar_matches_64bit_cumprod_oracle():
    beta = np.linspace(1e-4, 0.02, 1000, dtype=np.float64)
    prod = 1.0
    oracle = []
    for b in beta:
        prod *= 1.0 - b
        oracle.append(1.0 - prod)
    assert np.allclose(S.beta_bar, oracle, rtol=0, atol=1e-12)
    assert abs(S.beta_bar[-1] - oracle[-1]) < 1e-12


def test_alpha_sigma_identity_at_every_t():
    assert np.all(np.abs(S.alpha_t ** 2 + S.sigma_t ** 2 - 1.0) < 1e-6)


def test_beta_bar_strictly_increasing_in_unit_interval():
    assert np.all(np.diff(S.beta_bar) > 0)
    assert np.all((S.beta_bar > 0) & (S.beta_bar < 1))


def test_make_schedule_rejects_bad_ranges():
    with pytest.raises(ValueError):
        make_schedule(0, 1e-4, 0.02)
    with pytest.raises(ValueError):
        make_schedule(10, 0.0, 0.02)
    with pytest.raises(ValueError):
        make_schedule(10, 0.1, 0.01)
    with pytest.raises(ValueError):
        make_schedule(10, 0.1, 1.0)


def test_add_noise_limits():
    z0 = latent(0)
    eps = latent(1)
    # t=1 on a tiny-beta schedule: output ~ z0; near-degenerate checked via algebra
    lo = make_schedule(2, 1e-12, 1e-12)
    out = add_noise(z0, eps, 1, lo)
    assert np.allclose(out.data, z0.data, atol=1e-5)
    # pure-noise limit: beta ~ 1 drives beta_bar -> 1
    hi = make_schedule(2, 1.0 - 1e-12, 1.0 - 1e-12)
    out = add_noise(z0, eps, 2, hi)
    assert np.allclose(out.data, eps.data, atol=1e-5)


def test_add_noise_zero_latent_gives_scaled_noise():
    eps = latent(2)
    z0 = Tensor(np.zeros_like(eps.data))
    t = 400
    out = add_noise(z0, eps, t, S)
    assert np.allclose(out.data, S.sigma(t) * eps.data, atol=1e-6)


def test_add_noise_range_check():
    z0 = latent(0)
    with pytest.raises(ValueError):
        add_noise(z0, z0, 0, S)
    with pytest.raises(ValueError):
        add_noise(z0, z0, 1001, S)
    zb = latent(0, (2, 4, 8, 8))
    # per-sample vectors: 0 must not wrap to t = T, and T + 1 must not escape as IndexError
    for ts in ([5, 0], [1001, 5]):
        with pytest.raises(ValueError, match=r"out of range \[1, 1000\]"):
            add_noise(zb, zb, np.array(ts), S)
        with pytest.raises(ValueError, match=r"out of range \[1, 1000\]"):
            predict_z0(zb, zb, np.array(ts), S)
    with pytest.raises(ShapeError):
        add_noise(zb, zb, np.array([1, 2, 3]), S)


def test_vector_t_equals_per_row_int_calls():
    z0 = latent(20, (3, 4, 8, 8))
    eps = latent(21, (3, 4, 8, 8))
    ts = np.array([1, 517, 1000])
    noised = add_noise(z0, eps, ts, S)
    back = predict_z0(noised, eps, ts, S)
    for i, t in enumerate(ts.tolist()):
        row = (slice(i, i + 1),)
        assert np.array_equal(noised.data[row], add_noise(Tensor(z0.data[row]), Tensor(eps.data[row]), t, S).data)
        assert np.array_equal(back.data[row], predict_z0(Tensor(noised.data[row]), Tensor(eps.data[row]), t, S).data)


def test_predict_z0_inverts_add_noise():
    z0 = latent(3)
    eps = latent(4)
    # mid-schedule single case is tight; the full sweep tolerance is 1e-4
    back = predict_z0(add_noise(z0, eps, 500, S), eps, 500, S)
    assert np.abs(back.data - z0.data).max() < 1e-5
    for t in (1, 500, 1000):
        z_t = add_noise(z0, eps, t, S)
        back = predict_z0(z_t, eps, t, S)
        assert np.abs(back.data - z0.data).max() < 1e-4


def test_predict_z0_roundtrip_sweep_all_t():
    rng = np.random.default_rng(7)
    for t in range(1, 1001, 37):
        z0 = Tensor(rng.standard_normal((1, 4, 8, 8)).astype(np.float32))
        eps = Tensor(rng.standard_normal((1, 4, 8, 8)).astype(np.float32))
        back = predict_z0(add_noise(z0, eps, t, S), eps, t, S)
        assert np.abs(back.data - z0.data).max() < 1e-4


def test_predict_z0_with_zero_eps():
    z_t = latent(5)
    zero = Tensor(np.zeros_like(z_t.data))
    t = 10
    out = predict_z0(z_t, zero, t, S)
    assert np.allclose(out.data, z_t.data / S.alpha(t), atol=1e-6)


def test_predict_z0_degenerate_alpha_rejected():
    hi = make_schedule(2, 1.0 - 1e-13, 1.0 - 1e-13)
    z = latent(0)
    with pytest.raises(ValueError, match="degenerate"):
        predict_z0(z, z, 2, hi)
    zb = latent(0, (2, 4, 8, 8))
    with pytest.raises(ValueError, match="degenerate"):
        predict_z0(zb, zb, np.array([1, 2]), hi)


def test_ddim_final_step_equals_predict_z0():
    z_t = latent(6)
    eps = latent(7)
    a = ddim_step(z_t, eps, 100, 0, S)
    b = predict_z0(z_t, eps, 100, S)
    assert np.array_equal(a.data, b.data)


def test_ddim_rejects_bad_ordering():
    z = latent(0)
    with pytest.raises(ValueError):
        ddim_step(z, z, 10, 10, S)
    with pytest.raises(ValueError):
        ddim_step(z, z, 10, 11, S)


def _run_chain(z0, eps, steps):
    ts = ddim_timesteps(S.T, steps)
    z = add_noise(z0, eps, S.T, S)
    for t, t_prev in zip(ts[:-1], ts[1:]):
        z = ddim_step(z, eps, t, t_prev, S)
    return z


def test_ddim_chain_with_true_noise_recovers_z0():
    z0 = latent(8)
    eps = latent(9)
    out = _run_chain(z0, eps, 50)
    assert np.abs(out.data - z0.data).max() < 1e-4


def test_ddim_step_count_consistency():
    z0 = latent(10)
    eps = latent(11)
    fast = _run_chain(z0, eps, 50)
    full = _run_chain(z0, eps, 1000)
    assert np.abs(fast.data - full.data).max() < 1e-3


def test_monotone_noising_variance():
    # empirical per-element variance of add_noise output is non-decreasing in t
    rng = np.random.default_rng(12)
    z0 = Tensor(np.zeros((1, 1, 4, 4), np.float32))
    ts = [1, 50, 150, 300, 500, 700, 900, 1000]
    variances = []
    for t in ts:
        draws = []
        for _ in range(1200):
            eps = Tensor(rng.standard_normal((1, 1, 4, 4)).astype(np.float32))
            draws.append(add_noise(z0, eps, t, S).data)
        variances.append(float(np.var(np.stack(draws))))
    for lo, hi in zip(variances[:-1], variances[1:]):
        assert hi >= lo * 0.95


def test_ddim_timesteps_shape():
    ts = ddim_timesteps(1000, 4)
    assert ts[0] == 1000 and ts[-1] == 0 and len(ts) == 5
    assert all(a > b for a, b in zip(ts[:-1], ts[1:]))
