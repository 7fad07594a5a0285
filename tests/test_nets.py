"""VAE, U-Net, and condition embedder contracts."""

import numpy as np
import pytest

from helpers import numeric_grad, rel_error
from soekit import tensor as T
from soekit.config import LATENT_FACTOR, ConfigError, LoraSection, ModelSection, RunConfig
from soekit.lora import attach
from soekit.nets import ConditionEmbedder, MiniUnet, Vae, sinusoidal_time_embedding
from soekit.optim import Adam
from soekit.tensor import ShapeError, Tensor, backward

CFG = ModelSection(base_width=16, cond_dim=16, time_dim=16, groups=4)
SIDE = 32  # image side the CFG nets run at
TINY = ModelSection(base_width=8, depth=1, cond_dim=8, time_dim=8, groups=4)


def make_inputs(cfg, seed=0, batch=2):
    rng = np.random.default_rng(seed)
    side = SIDE // LATENT_FACTOR
    z = Tensor(rng.standard_normal((batch, cfg.latent_channels, side, side)).astype(np.float32))
    m = np.zeros((batch, 1, SIDE, SIDE), np.float32)
    m[:, :, 8:16, 8:16] = 1.0
    return z, Tensor(m)


def test_vae_shape_contract():
    vae = Vae(ModelSection(), seed=1)
    x = Tensor(np.random.default_rng(0).random((1, 3, 64, 64)).astype(np.float32))
    z = vae.encode(x)
    assert z.shape == (1, 4, 16, 16)
    out = vae.decode(z)
    assert out.shape == x.shape


def test_vae_rejects_indivisible_dims():
    vae = Vae(CFG, seed=1)
    with pytest.raises(ShapeError, match="divisible"):
        vae.encode(Tensor(np.zeros((1, 3, 30, 30), np.float32)))
    with pytest.raises(ShapeError, match="vae_decode"):
        vae.decode(Tensor(np.zeros((1, 3, 8, 8), np.float32)))


def test_vae_encode_deterministic():
    vae = Vae(CFG, seed=3)
    x = Tensor(np.random.default_rng(5).random((1, 3, 32, 32)).astype(np.float32))
    z1 = vae.encode(x)
    z2 = vae.encode(Tensor(x.data.copy()))
    assert np.array_equal(z1.data, z2.data)


def test_vae_decode_range():
    vae = Vae(CFG, seed=7)
    z = Tensor(np.random.default_rng(2).standard_normal((2, 4, 8, 8)).astype(np.float32) * 3)
    out = vae.decode(z).data
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_vae_reconstruction_improves_over_epochs():
    # pixelwise error decreases monotonically over the first training epochs
    cfg = CFG
    vae = Vae(cfg, seed=11)
    rng = np.random.default_rng(9)
    x = Tensor(rng.random((4, 3, 32, 32)).astype(np.float32))
    opt = Adam(vae.params(), lr=2e-3)
    errors = []
    for epoch in range(5):
        recon = vae.decode(vae.encode(x))
        errors.append(float(np.abs(recon.data - x.data).mean()))
        for _ in range(12):
            loss = T.huber(vae.decode(vae.encode(x)), x)
            backward(loss)
            opt.step()
    assert all(b < a for a, b in zip(errors[:-1], errors[1:])), errors


def test_unet_output_shape_matches_latent():
    unet = MiniUnet(CFG, seed=2)
    emb = ConditionEmbedder(CFG, seed=2)
    z, m = make_inputs(CFG)
    cond = emb.embed([0, 1], [2, 3], "color_label")
    out = unet.forward(z, [10, 500], cond, unet.latent_mask(m))
    assert out.shape == z.shape


def test_unet_rejects_non_binary_mask():
    unet = MiniUnet(CFG, seed=2)
    emb = ConditionEmbedder(CFG, seed=2)
    z, m = make_inputs(CFG)
    bad = Tensor(m.data * 0.5)
    cond = emb.embed([0, 1], [0, 0], "label_only")
    with pytest.raises(ValueError, match="binary"):
        unet.forward(z, 5, cond, unet.latent_mask(bad))


def test_unet_mid_block_is_4x4_at_default_scale():
    cfg = RunConfig()
    assert cfg.data.image_side // LATENT_FACTOR // (2 ** cfg.model.depth) == 4


def test_condition_embedding_deterministic_and_style_gated():
    emb = ConditionEmbedder(CFG, seed=4)
    a = emb.embed([1], [3], "color_label").data
    b = emb.embed([1], [3], "color_label").data
    assert np.array_equal(a, b)
    lo = emb.embed([1], [3], "label_only").data
    assert np.array_equal(lo[:, 0], np.zeros_like(lo[:, 0]))  # color token zeroed
    assert np.array_equal(lo[:, 1], a[:, 1])
    with pytest.raises(ValueError, match="style"):
        emb.embed([1], [3], "plain")


def test_condition_change_moves_output_after_one_step():
    unet = MiniUnet(CFG, seed=6)
    emb = ConditionEmbedder(CFG, seed=6)
    z, m = make_inputs(CFG, batch=1)
    params = {**unet.params(), **{f"emb.{k}": v for k, v in emb.params().items()}}
    opt = Adam(params, lr=1e-3)
    cond = emb.embed([0], [0], "color_label")
    loss = T.mean(T.mul(unet.forward(z, 100, cond, unet.latent_mask(m)), Tensor(np.ones(z.shape, np.float32))))
    backward(loss)
    opt.step()
    out_a = unet.forward(z, 100, emb.embed([0], [0], "color_label"), unet.latent_mask(m)).data
    out_b = unet.forward(z, 100, emb.embed([3], [5], "color_label"), unet.latent_mask(m)).data
    assert float(np.square(out_a - out_b).sum()) > 0.0


def test_attention_rows_sum_to_one_inside_net():
    unet = MiniUnet(CFG, seed=8)
    emb = ConditionEmbedder(CFG, seed=8)
    z, m = make_inputs(CFG, batch=1)
    cond = emb.embed([2], [4], "color_label")
    attn = unet.mid.attn
    b, c = 1, attn.wq.w.shape[0]
    side = SIDE // LATENT_FACTOR // (2 ** CFG.depth)
    x = Tensor(np.random.default_rng(1).standard_normal((b, c, side, side)).astype(np.float32))
    flat = T.transpose(T.reshape(attn.norm.forward(x), (b, c, side * side)), (0, 2, 1))
    q = attn.wq.forward(flat)
    k = attn.wk.forward(cond)
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 2, 1))), Tensor(np.asarray(1.0 / np.sqrt(c), np.float32)))
    rows = T.softmax(scores).data
    assert np.abs(rows.sum(axis=-1) - 1.0).max() < 1e-5


def test_unet_gradient_through_lora_factor_matches_fd():
    unet = MiniUnet(TINY, seed=10)
    emb = ConditionEmbedder(TINY, seed=10)
    adapters = attach(unet, LoraSection(rank=2, blocks=("mid",)), seed=10)
    # run the check in float64 so the FD oracle is 64-bit
    for p in list(unet.params().values()) + list(emb.params().values()) + list(adapters.params().values()):
        p.data = p.data.astype(np.float64)
    rng = np.random.default_rng(3)
    z = Tensor(rng.standard_normal((1, 4, 4, 4)), dtype=np.float64)
    m = np.zeros((1, 1, 16, 16), np.float32)
    m[:, :, 5:11, 5:11] = 1.0
    m = Tensor(m)

    target = adapters.adapters["mid.attn.wv"]
    for factor in (target.b, target.a):
        cond = emb.embed([1], [2], "color_label")
        loss = T.mean(unet.forward(z, 40, cond, unet.latent_mask(m)))
        backward(loss)
        analytic = factor.grad.copy()
        for p in adapters.params().values():
            p.grad = None

        def f(arrs):
            saved = factor.data
            factor.data = arrs[0]
            out = T.mean(unet.forward(z, 40, emb.embed([1], [2], "color_label"), unet.latent_mask(m))).item()
            factor.data = saved
            return out

        numeric = numeric_grad(f, [factor.data.copy()], 0, h=1e-3)
        assert rel_error(analytic, numeric) < 1e-3


def test_sinusoidal_embedding_shape_and_determinism():
    e1 = sinusoidal_time_embedding([1, 500, 1000], 16)
    e2 = sinusoidal_time_embedding([1, 500, 1000], 16)
    assert e1.shape == (3, 16)
    assert np.array_equal(e1, e2)
    assert not np.array_equal(e1[0], e1[1])


def test_model_config_validation():
    with pytest.raises(ConfigError, match="divisible"):
        RunConfig.from_dict({"data": {"image_side": 50}}).validate()
