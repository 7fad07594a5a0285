"""Adapter construction, factorised math, folding into an inference copy, trainability partition."""

import copy

import numpy as np
import pytest

from helpers import set_adapter_b
from soekit import tensor as T
from soekit.config import LoraSection, ModelSection, RunConfig
from soekit.lora import LoraAdapter, attach, placement
from soekit.nets import AttnBlock, ConditionEmbedder, Conv2d, Linear, MiniUnet
from soekit.optim import Adam
from soekit.rng import stream_rng
from soekit.tensor import Tensor, backward
from soekit.train import Bundle

CFG = ModelSection(base_width=16, cond_dim=16, time_dim=16, groups=4)


def fresh_setup(seed=0, blocks=("mid", "down1_up1", "down0_up3"), rank=4):
    unet = MiniUnet(CFG, seed=seed)
    base_copy = copy.deepcopy(unet)
    adapters = attach(unet, LoraSection(rank=rank, blocks=blocks), seed=seed)
    emb = ConditionEmbedder(CFG, seed=seed)
    return unet, base_copy, adapters, emb


def unet_inputs(seed=0):
    rng = np.random.default_rng(seed)
    z = Tensor(rng.standard_normal((2, 4, 8, 8)).astype(np.float32))
    m = np.zeros((2, 1, 32, 32), np.float32)
    m[:, :, 10:20, 10:20] = 1.0
    return z, Tensor(m)


def test_adapter_b_zero_after_construction():
    _, _, adapters, _ = fresh_setup()
    for ad in adapters.adapters.values():
        assert not ad.b.data.any()
        assert ad.a.data.any()


def test_same_seed_gives_bit_identical_a_matrices():
    _, _, a1, _ = fresh_setup(seed=42)
    _, _, a2, _ = fresh_setup(seed=42)
    for k in a1.adapters:
        assert a1.adapters[k].a.data.tobytes() == a2.adapters[k].a.data.tobytes()


def test_placement_names_each_adapter_by_its_linear_in_group_block_linear_order():
    unet, _, adapters, _ = fresh_setup(blocks=("down1_up1", "mid"))
    linears = ("res.time_proj", "attn.wq", "attn.wk", "attn.wv", "attn.wo")
    assert list(adapters.adapters) == [f"{block}.{path}" for block in ("down.1", "up.0", "mid") for path in linears]
    held = [(b.res.time_proj, b.attn.wq, b.attn.wk, b.attn.wv, b.attn.wo) for b in (unet.down[1], unet.up[0], unet.mid)]
    assert list(adapters.adapters.values()) == [linear.adapter for block in held for linear in block]
    assert placement(3) == {"mid": ("mid",), "down0_up3": ("down.0", "up.2"), "down1_up1": ("down.1", "up.1"),
                            "down2_up2": ("down.2", "up.0")}


# The array names of a default-depth student checkpoint, in file order; a teacher's are these less lora.*. A changed
# order changes the bytes of every checkpoint written.
_BUNDLE_NAMES = """
vae.enc1.w vae.enc1.b vae.enc2.w vae.enc2.b vae.enc3.w vae.enc3.b vae.dec1.w vae.dec1.b vae.dec2.w
vae.dec2.b vae.dec3.w vae.dec3.b vae.dec4.w vae.dec4.b
unet.in_conv.w unet.in_conv.b
unet.down.0.res.norm.gamma unet.down.0.res.norm.beta unet.down.0.res.conv.w unet.down.0.res.conv.b
unet.down.0.res.time_proj.w unet.down.0.res.time_proj.b unet.down.0.attn.norm.gamma
unet.down.0.attn.norm.beta unet.down.0.attn.wq.w unet.down.0.attn.wq.b unet.down.0.attn.wk.w
unet.down.0.attn.wk.b unet.down.0.attn.wv.w unet.down.0.attn.wv.b unet.down.0.attn.wo.w
unet.down.0.attn.wo.b
unet.down.1.res.norm.gamma unet.down.1.res.norm.beta unet.down.1.res.conv.w unet.down.1.res.conv.b
unet.down.1.res.time_proj.w unet.down.1.res.time_proj.b unet.down.1.attn.norm.gamma
unet.down.1.attn.norm.beta unet.down.1.attn.wq.w unet.down.1.attn.wq.b unet.down.1.attn.wk.w
unet.down.1.attn.wk.b unet.down.1.attn.wv.w unet.down.1.attn.wv.b unet.down.1.attn.wo.w
unet.down.1.attn.wo.b
unet.downsample.0.w unet.downsample.0.b
unet.downsample.1.w unet.downsample.1.b
unet.mid.res.norm.gamma unet.mid.res.norm.beta unet.mid.res.conv.w unet.mid.res.conv.b
unet.mid.res.time_proj.w unet.mid.res.time_proj.b unet.mid.attn.norm.gamma unet.mid.attn.norm.beta
unet.mid.attn.wq.w unet.mid.attn.wq.b unet.mid.attn.wk.w unet.mid.attn.wk.b unet.mid.attn.wv.w
unet.mid.attn.wv.b unet.mid.attn.wo.w unet.mid.attn.wo.b
unet.upsample.0.w unet.upsample.0.b
unet.upsample.1.w unet.upsample.1.b
unet.up.0.res.norm.gamma unet.up.0.res.norm.beta unet.up.0.res.conv.w unet.up.0.res.conv.b
unet.up.0.res.time_proj.w unet.up.0.res.time_proj.b unet.up.0.res.skip.w unet.up.0.res.skip.b
unet.up.0.attn.norm.gamma unet.up.0.attn.norm.beta unet.up.0.attn.wq.w unet.up.0.attn.wq.b
unet.up.0.attn.wk.w unet.up.0.attn.wk.b unet.up.0.attn.wv.w unet.up.0.attn.wv.b unet.up.0.attn.wo.w
unet.up.0.attn.wo.b
unet.up.1.res.norm.gamma unet.up.1.res.norm.beta unet.up.1.res.conv.w unet.up.1.res.conv.b
unet.up.1.res.time_proj.w unet.up.1.res.time_proj.b unet.up.1.res.skip.w unet.up.1.res.skip.b
unet.up.1.attn.norm.gamma unet.up.1.attn.norm.beta unet.up.1.attn.wq.w unet.up.1.attn.wq.b
unet.up.1.attn.wk.w unet.up.1.attn.wk.b unet.up.1.attn.wv.w unet.up.1.attn.wv.b unet.up.1.attn.wo.w
unet.up.1.attn.wo.b
unet.out_norm.gamma unet.out_norm.beta
unet.out_conv.w unet.out_conv.b
cond.label_table cond.color_table
lora.mid.res.time_proj.A lora.mid.res.time_proj.B lora.mid.attn.wq.A lora.mid.attn.wq.B
lora.mid.attn.wk.A lora.mid.attn.wk.B lora.mid.attn.wv.A lora.mid.attn.wv.B lora.mid.attn.wo.A
lora.mid.attn.wo.B
lora.down.1.res.time_proj.A lora.down.1.res.time_proj.B lora.down.1.attn.wq.A lora.down.1.attn.wq.B
lora.down.1.attn.wk.A lora.down.1.attn.wk.B lora.down.1.attn.wv.A lora.down.1.attn.wv.B
lora.down.1.attn.wo.A lora.down.1.attn.wo.B
lora.up.0.res.time_proj.A lora.up.0.res.time_proj.B lora.up.0.attn.wq.A lora.up.0.attn.wq.B
lora.up.0.attn.wk.A lora.up.0.attn.wk.B lora.up.0.attn.wv.A lora.up.0.attn.wv.B lora.up.0.attn.wo.A
lora.up.0.attn.wo.B
lora.down.0.res.time_proj.A lora.down.0.res.time_proj.B lora.down.0.attn.wq.A lora.down.0.attn.wq.B
lora.down.0.attn.wk.A lora.down.0.attn.wk.B lora.down.0.attn.wv.A lora.down.0.attn.wv.B
lora.down.0.attn.wo.A lora.down.0.attn.wo.B
lora.up.1.res.time_proj.A lora.up.1.res.time_proj.B lora.up.1.attn.wq.A lora.up.1.attn.wq.B
lora.up.1.attn.wk.A lora.up.1.attn.wk.B lora.up.1.attn.wv.A lora.up.1.attn.wv.B lora.up.1.attn.wo.A
lora.up.1.attn.wo.B
""".split()


def test_checkpoint_array_names_keep_their_order():
    cfg = RunConfig.from_dict({"model": {"base_width": 8, "cond_dim": 8, "time_dim": 8, "groups": 4}})
    assert list(Bundle.build(cfg, seed=0, role="student").params()) == _BUNDLE_NAMES
    assert list(Bundle.build(cfg, seed=0, role="teacher").params()) == [n for n in _BUNDLE_NAMES if n[:5] != "lora."]


def test_empty_or_unknown_block_selection_rejected():
    unet = MiniUnet(CFG, seed=0)
    with pytest.raises(ValueError, match="no blocks"):
        attach(unet, LoraSection(blocks=()), seed=0)
    with pytest.raises(ValueError, match="unknown"):
        attach(unet, LoraSection(blocks=("down7_up9",)), seed=0)
    # down2_up2 needs a third level; the default depth-2 net lacks it
    with pytest.raises(ValueError, match="unknown"):
        attach(unet, LoraSection(blocks=("down2_up2",)), seed=0)


def test_rank_must_be_below_min_dim():
    rng = stream_rng(0, "lora")
    with pytest.raises(ValueError, match="rank"):
        LoraAdapter("t", j=4, k=16, rank=4, alpha=1.0, init_std=0.01, rng=rng)


def test_adapter_param_count_formula_and_budget():
    unet = MiniUnet(ModelSection(), seed=1)
    base_params = sum(p.size for p in unet.params().values())
    adapters = attach(unet, LoraSection(rank=4), seed=1)
    expected = 0
    for ad in adapters.adapters.values():
        j, r = ad.b.shape
        _, k = ad.a.shape
        expected += r * (j + k)
    count = sum(p.size for p in adapters.params().values())
    assert count == expected
    assert count < 0.10 * base_params


def test_trainability_flags_after_attach():
    unet, _, adapters, _ = fresh_setup()
    assert all(not p.requires_grad for p in unet.params().values())
    assert all(p.requires_grad for p in adapters.params().values())


def adapted_matmul(x, w0, adapter):
    """x @ W0 plus the adapter's update, through Linear.forward (its bias is zero)."""
    lin = Linear(np.random.default_rng(0), *w0.shape)
    lin.w = w0
    lin.adapter = adapter
    return lin.forward(x)


def test_adapted_matmul_zero_init_is_exact():
    rng = stream_rng(1, "lora")
    ad = LoraAdapter("t", j=8, k=6, rank=2, alpha=1.0, init_std=0.01, rng=rng)
    x = Tensor(np.random.default_rng(0).standard_normal((3, 8)).astype(np.float32))
    w0 = Tensor(np.random.default_rng(1).standard_normal((8, 6)).astype(np.float32))
    out = adapted_matmul(x, w0, ad)
    assert np.array_equal(out.data, (x.data @ w0.data))


def test_adapted_matmul_matches_dense_materialisation():
    rng = stream_rng(2, "lora")
    ad = LoraAdapter("t", j=8, k=6, rank=2, alpha=0.7, init_std=0.01, rng=rng)
    gen = np.random.default_rng(3)
    ad.b.data = gen.standard_normal(ad.b.shape).astype(np.float32)
    ad.a.data = gen.standard_normal(ad.a.shape).astype(np.float32)
    x = Tensor(gen.standard_normal((5, 8)).astype(np.float32))
    w0 = Tensor(gen.standard_normal((8, 6)).astype(np.float32))
    dense = x.data @ (w0.data + 0.7 * (ad.b.data @ ad.a.data))
    assert np.abs(adapted_matmul(x, w0, ad).data - dense).max() < 1e-5


def test_adapted_matmul_alpha_zero_is_base():
    rng = stream_rng(4, "lora")
    ad = LoraAdapter("t", j=8, k=6, rank=2, alpha=0.0, init_std=0.01, rng=rng)
    gen = np.random.default_rng(5)
    ad.b.data = gen.standard_normal(ad.b.shape).astype(np.float32)
    x = Tensor(gen.standard_normal((3, 8)).astype(np.float32))
    w0 = Tensor(gen.standard_normal((8, 6)).astype(np.float32))
    assert np.array_equal(adapted_matmul(x, w0, ad).data, x.data @ w0.data)


def test_zero_init_student_output_bit_identical_to_base():
    unet, base_copy, _, emb = fresh_setup(seed=9)
    z, m = unet_inputs()
    cond = emb.embed([0, 1], [2, 3], "color_label")
    student = unet.forward(z, [7, 300], cond, unet.latent_mask(m))
    base = base_copy.forward(z, [7, 300], cond, base_copy.latent_mask(m))
    assert student.data.tobytes() == base.data.tobytes()


def _linear_adapters(net):
    """The adapter of every Linear of net that holds one."""
    return [mod.adapter for mod in net.modules() if isinstance(mod, Linear) and mod.adapter is not None]


def test_merge_of_fresh_adapters_is_bit_identical_to_base():
    unet, _, _, emb = fresh_setup(seed=12)
    copied = unet.inference_copy(emb.embed([0], [0], "color_label"))
    for name, p in unet.params().items():
        assert copied.params()[name].data.tobytes() == p.data.tobytes()


def test_merged_and_factorized_forward_agree():
    unet, _, adapters, emb = fresh_setup(seed=15)
    gen = np.random.default_rng(7)
    for ad in adapters.adapters.values():
        ad.b.data = (gen.standard_normal(ad.b.shape) * 0.05).astype(np.float32)
        ad.a.data = (gen.standard_normal(ad.a.shape) * 0.05).astype(np.float32)
    folded = unet.inference_copy(emb.embed([0], [0], "color_label"))
    for trial in range(10):
        rng = np.random.default_rng(100 + trial)
        z = Tensor(rng.standard_normal((1, 4, 8, 8)).astype(np.float32))
        m = np.zeros((1, 1, 32, 32), np.float32)
        m[:, :, 6:14, 6:14] = 1.0
        cond = emb.embed([trial % 5], [trial % 8], "color_label")
        t = 1 + (trial * 97) % 999
        a = unet.forward(z, t, cond, unet.latent_mask(Tensor(m))).data
        b = folded.forward(z, t, cond, folded.latent_mask(Tensor(m))).data
        assert np.abs(a - b).max() < 1e-5
        assert np.argmax(a) == np.argmax(b)


def test_merge_leaves_base_and_adapters_untouched():
    unet, _, adapters, emb = fresh_setup(seed=16)
    gen = np.random.default_rng(8)
    for ad in adapters.adapters.values():
        ad.b.data = (gen.standard_normal(ad.b.shape) * 0.05).astype(np.float32)
    before = {k: p.data.tobytes() for k, p in {**unet.params(), **adapters.params()}.items()}
    folded = unet.inference_copy(emb.embed([0], [0], "color_label"))
    # nothing prepared lands on the source net's modules
    assert all(getattr(mod, "rows", None) is None and getattr(mod, "kv", None) is None for mod in unet.modules())
    assert {k: p.data.tobytes() for k, p in {**unet.params(), **adapters.params()}.items()} == before
    base_adapters = _linear_adapters(unet)
    assert len(base_adapters) == len(adapters.adapters)
    assert {id(ad) for ad in base_adapters} == {id(ad) for ad in adapters.adapters.values()}
    assert not _linear_adapters(folded)
    folded_params, base_params = folded.params(), unet.params()
    for target in adapters.adapters:
        assert not np.array_equal(folded_params[f"{target}.w"].data, base_params[f"{target}.w"].data)


@pytest.mark.parametrize("batch", [1, 8])
def test_copy_of_an_inference_copy_forwards_byte_equal(batch):
    # a copy of a copy has no adapters left, so nothing is folded a second time
    unet, _, adapters, emb = fresh_setup(seed=18)
    set_adapter_b(adapters, seed=11)
    z, m, cond = _batch_inputs(emb, batch)
    first = unet.inference_copy(cond)
    second = first.inference_copy(cond)
    assert not _linear_adapters(first) and not _linear_adapters(second)
    ml = unet.latent_mask(m)
    for t in (1, 500):
        assert second.forward(z, t, cond, ml).data.tobytes() == first.forward(z, t, cond, ml).data.tobytes()


def _batch_inputs(emb, batch, seed=0):
    rng = np.random.default_rng(seed)
    z = Tensor(rng.standard_normal((batch, 4, 8, 8)).astype(np.float32))
    m = np.zeros((batch, 1, 32, 32), np.float32)
    m[:, :, 6:14, 10:20] = 1.0
    cond = emb.embed([i % 5 for i in range(batch)], [(3 * i) % 8 for i in range(batch)], "color_label")
    return z, Tensor(m), cond


def _unprepared_copy(net, cond):
    """An inference copy with every kernel's rows and every K, V set back to None: each forward makes them."""
    plain = net.inference_copy(cond)
    for mod in plain.modules():
        if isinstance(mod, Conv2d):
            mod.rows = None
        elif isinstance(mod, AttnBlock):
            mod.kv = None
    return plain


@pytest.mark.parametrize("adapted", [False, True], ids=["no-adapters", "adapters"])
@pytest.mark.parametrize("batch", [1, 8])
def test_prepared_copy_forward_is_byte_equal_to_unprepared(batch, adapted):
    unet, base_copy, adapters, emb = fresh_setup(seed=27)
    set_adapter_b(adapters, seed=9)
    base = unet if adapted else base_copy
    z, m, cond = _batch_inputs(emb, batch)
    prepared = base.inference_copy(cond)
    plain = _unprepared_copy(base, cond)
    convs = [mod for mod in prepared.modules() if isinstance(mod, Conv2d)]
    attns = [mod for mod in prepared.modules() if isinstance(mod, AttnBlock)]
    assert len(convs) == 11 and all(mod.rows is not None for mod in convs)
    assert len(attns) == 5 and all(mod.kv is not None for mod in attns)
    assert all(getattr(mod, "rows", None) is None and getattr(mod, "kv", None) is None for mod in plain.modules())
    ml = base.latent_mask(m)
    for t in (1, 333, 999):
        assert prepared.forward(z, t, cond, ml).data.tobytes() == plain.forward(z, t, cond, ml).data.tobytes()


def test_prepared_copy_computes_k_and_v_afresh_for_another_condition():
    unet, _, adapters, emb = fresh_setup(seed=28)
    set_adapter_b(adapters, seed=10)
    z, m, cond = _batch_inputs(emb, 2)
    ml = unet.latent_mask(m)
    other = emb.embed([4, 4], [7, 7], "color_label")
    prepared = unet.inference_copy(cond)
    plain = _unprepared_copy(unet, cond)

    def both(c):
        return prepared.forward(z, 50, c, ml).data.tobytes(), plain.forward(z, 50, c, ml).data.tobytes()

    assert both(cond)[0] != both(other)[0]
    for c in (other, Tensor(cond.data[::-1].copy())):  # another condition; the same rows in another order
        assert len(set(both(c))) == 1
    cond.data *= 2.0  # the prepared condition itself, written in place
    assert len(set(both(cond))) == 1


def test_training_step_moves_adapters_but_not_base():
    unet, _, adapters, emb = fresh_setup(seed=24)
    emb.set_trainable(False)
    base_bytes = {k: p.data.tobytes() for k, p in unet.params().items()}
    z, m = unet_inputs()
    opt = Adam(adapters.params(), lr=1e-2)
    before = {k: p.data.copy() for k, p in adapters.params().items()}
    cond = emb.embed([0, 1], [2, 3], "color_label")
    target = Tensor(np.random.default_rng(1).standard_normal(z.shape).astype(np.float32))
    loss = T.huber(unet.forward(z, [50, 200], cond, unet.latent_mask(m)), target)
    backward(loss)
    opt.step()
    assert all(unet.params()[k].data.tobytes() == v for k, v in base_bytes.items())
    changed = sum(int(not np.array_equal(before[k], p.data)) for k, p in adapters.params().items())
    assert changed >= 1
