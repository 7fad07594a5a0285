"""Trainer: teacher-view geometry, losses, step contracts, editing."""

import collections
import dataclasses
import inspect
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from helpers import set_adapter_b
from soekit import tensor as T
from soekit import train
from soekit.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from soekit.config import ConfigError, LoraSection, ModelSection, RunConfig
from soekit.data import build_split
from soekit.lora import attach
from soekit.nets import ConditionEmbedder, Linear, MiniUnet
from soekit.schedule import add_noise, make_schedule, predict_z0
from soekit.tensor import Tensor, backward, topo_order
from soekit.train import (
    ConfigurationError,
    Trainer,
    Bundle,
    batch_tensors,
    crop_resize_pair,
    denoise_loss,
    distill_loss,
    edit,
    edit_batch,
    load_bundle,
    mask_bbox,
    pretrain_teacher,
    save_bundle,
    total_loss,
    vae_recon_loss,
)
from soekit.nets import Vae


def tiny_cfg(**train_overrides):
    train = {
        "steps": 2, "batch_size": 2, "pretrain_vae_steps": 3, "pretrain_steps": 3,
        "crop_size": 32, **train_overrides,
    }
    return RunConfig.from_dict({
        "data": {"image_side": 64},
        "train": train,
        "eval": {"ddim_steps": 2},
    })


@pytest.fixture(scope="module")
def teacher_bundle():
    cfg = tiny_cfg()
    gen = build_split(1, "train-generic", 8)
    return pretrain_teacher(gen, cfg)


# -- crop/resize geometry -----------------------------------------------------------


def teacher_view(image, mask, s):
    """crop_resize_pair on a batch of one (H, W, 3) image and (H, W) mask, unstacked."""
    xp, mp = crop_resize_pair(Tensor(image.transpose(2, 0, 1)[None]), Tensor(mask[None, None]), s)
    return xp.data[0].transpose(1, 2, 0), mp.data[0, 0]


def test_crop_window_centred_and_mask_doubled_at_512():
    image = np.zeros((512, 512, 3), np.float32)
    mask = np.zeros((512, 512), np.float32)
    mask[236:276, 236:276] = 1.0  # 40-px mask centred at (256, 256)
    image[236:276, 236:276] = 1.0
    xp, mp = teacher_view(image, mask, 256)
    # window [128, 384): the mask lands centred in the crop and doubles to 80 px
    x0, y0, x1, y1 = mask_bbox(mp)
    assert (x1 - x0) == 80 and (y1 - y0) == 80
    assert (x0, y0) == ((236 - 128) * 2, (236 - 128) * 2)


def test_crop_window_clamped_at_border():
    image = np.zeros((512, 512, 3), np.float32)
    mask = np.zeros((512, 512), np.float32)
    mask[4:16, 4:16] = 1.0  # bbox centre (10, 10)
    xp, mp = teacher_view(image, mask, 256)
    # window translated to [0, 256): the 12-px mask maps to rows [8, 32)
    x0, y0, x1, y1 = mask_bbox(mp)
    assert (x0, y0) == (8, 8) and (x1 - x0) == 24


def test_mask_fraction_at_least_doubles_when_crop_small_enough():
    rng = np.random.default_rng(0)
    for _ in range(100):
        side = 64
        s = int(rng.choice([16, 24, 32]))
        msize = int(rng.integers(2, min(8, s // 2)))
        x0 = int(rng.integers(0, side - msize))
        y0 = int(rng.integers(0, side - msize))
        mask = np.zeros((side, side), np.float32)
        mask[y0 : y0 + msize, x0 : x0 + msize] = 1.0
        image = rng.random((side, side, 3)).astype(np.float32)
        _, mp = teacher_view(image, mask, s)
        bx0, by0, bx1, by1 = mask_bbox(mp)
        assert (bx1 - bx0) / side >= 2 * msize / side
        assert (by1 - by0) / side >= 2 * msize / side
        assert set(np.unique(mp)) <= {0.0, 1.0}


def test_crop_rejects_oversized_mask():
    mask = np.zeros((64, 64), np.float32)
    mask[0:40, 0:40] = 1.0
    with pytest.raises(ValueError, match="larger than crop"):
        teacher_view(np.zeros((64, 64, 3), np.float32), mask, 32)


def test_batched_teacher_views_equal_per_sample_rows():
    samples = build_split(4, "train-small", 5)
    x, m, _, _ = batch_tensors(samples)
    xp, mp = crop_resize_pair(x, m, 32)
    for i, s in enumerate(samples):
        xi, mi = teacher_view(s.image, s.mask(), 32)
        assert xp.data[i].tobytes() == np.ascontiguousarray(xi.transpose(2, 0, 1)).tobytes()
        assert mp.data[i, 0].tobytes() == mi.tobytes()


# -- losses -------------------------------------------------------------------------


def latent_mask(shape, lo, hi):
    m = np.zeros(shape, np.float32)
    m[:, :, lo:hi, lo:hi] = 1.0
    return Tensor(m)


def test_denoise_loss_zero_when_prediction_exact():
    rng = np.random.default_rng(0)
    eps = Tensor(rng.standard_normal((2, 4, 8, 8)).astype(np.float32))
    m = latent_mask((2, 1, 8, 8), 2, 6)
    assert denoise_loss(eps, Tensor(eps.data.copy()), m).item() == 0.0


def test_denoise_loss_gated_by_mask():
    rng = np.random.default_rng(1)
    eps = Tensor(rng.standard_normal((2, 4, 8, 8)).astype(np.float32))
    m = latent_mask((2, 1, 8, 8), 2, 6)
    pred = eps.data.copy()
    pred += rng.standard_normal(pred.shape).astype(np.float32) * (1 - m.data)
    assert denoise_loss(eps, Tensor(pred), m).item() == 0.0


def test_denoise_loss_matches_loop_oracle():
    rng = np.random.default_rng(2)
    eps = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
    pred = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
    m = latent_mask((2, 1, 8, 8), 1, 5)
    got = denoise_loss(Tensor(eps), Tensor(pred), m).item()
    total, count = 0.0, 0
    for b in range(2):
        for c in range(4):
            for i in range(8):
                for j in range(8):
                    if m.data[b, 0, i, j]:
                        r = pred[b, c, i, j] - eps[b, c, i, j]
                        total += 0.5 * r * r if abs(r) <= 1.0 else abs(r) - 0.5
                        count += 1
    assert abs(got - total / count) < 1e-6


def test_denoise_loss_empty_mask_is_degenerate():
    z = Tensor(np.zeros((1, 4, 8, 8), np.float32))
    with pytest.raises(ValueError, match="degenerate"):
        denoise_loss(z, z, Tensor(np.zeros((1, 1, 8, 8), np.float32)))


def test_distill_loss_zero_for_identical_crops():
    rng = np.random.default_rng(3)
    z = Tensor(rng.standard_normal((2, 4, 8, 8)).astype(np.float32))
    m = latent_mask((2, 1, 8, 8), 2, 6)
    assert distill_loss(z, m, Tensor(z.data.copy()), m).item() == 0.0


def test_distill_loss_constant_offset_quadratic_branch():
    rng = np.random.default_rng(4)
    z = Tensor(rng.standard_normal((1, 4, 8, 8)).astype(np.float32))
    m = latent_mask((1, 1, 8, 8), 0, 8)  # full mask: gating leaves values intact
    zp = Tensor(z.data + np.float32(0.1))
    loss = distill_loss(z, m, zp, m, loss_type="huber")
    assert abs(loss.item() - 0.005) < 1e-6


def test_distill_loss_mse_variant_and_bad_type():
    rng = np.random.default_rng(5)
    z = Tensor(rng.standard_normal((1, 4, 8, 8)).astype(np.float32))
    m = latent_mask((1, 1, 8, 8), 0, 8)
    zp = Tensor(z.data + np.float32(0.1))
    assert abs(distill_loss(z, m, zp, m, loss_type="mse").item() - 0.01) < 1e-5
    with pytest.raises(ValueError, match="loss type"):
        distill_loss(z, m, zp, m, loss_type="l1")


def test_distill_loss_empty_mask_rejected():
    z = Tensor(np.zeros((1, 4, 8, 8), np.float32))
    m_ok = latent_mask((1, 1, 8, 8), 2, 5)
    m_bad = Tensor(np.zeros((1, 1, 8, 8), np.float32))
    with pytest.raises(ValueError, match="degenerate"):
        distill_loss(z, m_bad, z, m_ok)
    with pytest.raises(ValueError, match="degenerate"):
        distill_loss(z, m_ok, z, m_bad)


def test_distill_gradient_reaches_student_only():
    cfg = ModelSection(base_width=8, depth=1, cond_dim=8, time_dim=8, groups=4)
    student = MiniUnet(cfg, seed=0)
    teacher = MiniUnet(cfg, seed=1)
    s_adapt = attach(student, LoraSection(rank=2, blocks=("mid",)), seed=0)
    t_adapt = attach(teacher, LoraSection(rank=2, blocks=("mid",)), seed=1)
    emb = ConditionEmbedder(cfg, seed=0)
    emb.set_trainable(False)
    sched = make_schedule(100)
    rng = np.random.default_rng(7)
    z0 = Tensor(rng.standard_normal((1, 4, 4, 4)).astype(np.float32))
    eps = Tensor(rng.standard_normal((1, 4, 4, 4)).astype(np.float32))
    m = np.zeros((1, 1, 16, 16), np.float32)
    m[:, :, 4:12, 4:12] = 1.0
    m = Tensor(m)
    cond = emb.embed([0], [0], "color_label")
    ts = np.array([50])
    z_t = add_noise(z0, eps, ts, sched)
    z0_hat = predict_z0(z_t, student.forward(z_t, ts, cond, student.latent_mask(m)), ts, sched)
    z0p_hat = predict_z0(z_t, teacher.forward(z_t, ts, cond, teacher.latent_mask(m)), ts, sched)
    ml = student.latent_mask(m)
    backward(distill_loss(z0_hat, ml, z0p_hat, ml))
    assert all(p.grad is None for p in t_adapt.params().values())
    assert any(p.grad is not None and np.abs(p.grad).sum() > 0 for p in s_adapt.params().values())


def test_vae_recon_loss_contracts():
    cfg = ModelSection(base_width=16, groups=4)
    vae = Vae(cfg, seed=0)
    vae.set_trainable(False)
    rng = np.random.default_rng(8)
    x = Tensor(rng.random((1, 3, 32, 32)).astype(np.float32))
    m = np.zeros((1, 1, 32, 32), np.float32)
    m[:, :, 10:20, 10:20] = 1.0
    z = vae.encode(x)
    loss = vae_recon_loss(x, z, vae, Tensor(m))
    assert loss.item() > 0
    with pytest.raises(ValueError, match="degenerate"):
        vae_recon_loss(x, z, vae, Tensor(np.zeros_like(m)))
    # comparison gating: the masked Huber reads masked pixels only; no mask reads every pixel
    recon = vae.decode(z)
    direct = T.huber(recon, x, Tensor(m)).item()
    assert abs(loss.item() - direct) < 1e-7
    assert vae_recon_loss(x, z, vae).item() == T.huber(recon, x).item()
    perturbed_recon = recon.data + rng.standard_normal(recon.shape).astype(np.float32) * (1 - m)
    perturbed_x = x.data + rng.standard_normal(x.shape).astype(np.float32) * (1 - m)
    again = T.huber(Tensor(perturbed_recon), Tensor(perturbed_x), Tensor(m)).item()
    assert again == direct


def test_vae_overfits_constant_image():
    # identity on a constant image: the loss trends towards zero
    cfg = tiny_cfg()
    from soekit.optim import Adam

    vae = Vae(cfg.model, seed=0)
    x = Tensor(np.full((1, 3, 64, 64), 0.35, np.float32))
    m = np.ones((1, 1, 64, 64), np.float32)
    opt = Adam(vae.params(), lr=3e-3)
    first = vae_recon_loss(x, vae.encode(x), vae, Tensor(m)).item()
    for _ in range(80):
        loss = vae_recon_loss(x, vae.encode(x), vae, Tensor(m))
        backward(loss)
        opt.step()
    final = vae_recon_loss(x, vae.encode(x), vae, Tensor(m)).item()
    assert final < 0.1 * first


def test_total_loss_arithmetic_and_flags():
    one = Tensor(np.asarray(1.0, np.float32))
    out = total_loss(one, one, one, distill_weight=0.01, vae_weight=1.0)
    assert abs(out.item() - 2.01) < 1e-7
    d = Tensor(np.asarray(0.5, np.float32))
    assert total_loss(d, Tensor(np.asarray(9.0, np.float32)), Tensor(np.asarray(9.0, np.float32)),
                      distill_weight=0.0, vae_weight=0.0).item() == d.item()
    with pytest.raises(ValueError, match="no active parts"):
        total_loss(None, None, None, 1.0, 1.0)


def test_inactive_distill_absent_from_graph():
    den = Tensor(np.asarray(0.5, np.float32), requires_grad=True)
    dist = Tensor(np.asarray(0.7, np.float32), requires_grad=True)
    out = total_loss(den, None, None, distill_weight=0.01, vae_weight=1.0)
    nodes = {id(t) for t in topo_order(out)}
    assert id(dist) not in nodes


# -- train_step contracts --------------------------------------------------------------


def test_train_step_freezes_teacher_and_untouched_vae(teacher_bundle):
    cfg = tiny_cfg(use_vae_tuning=False)
    small = build_split(2, "train-small", 8)
    tr = Trainer(cfg, small, teacher_bundle)
    # the student's base Tensors and the condition embedder are the teacher's own objects
    teacher_params = teacher_bundle.unet.params()
    assert all(p is teacher_params[k] for k, p in tr.student.params().items())
    assert tr.cond is teacher_bundle.cond
    teacher_bytes = {k: p.data.tobytes() for k, p in teacher_params.items()}
    cond_bytes = {k: p.data.tobytes() for k, p in tr.cond.params().items()}
    vae_bytes = {k: p.data.tobytes() for k, p in tr.vae.params().items()}
    base_bytes = {k: p.data.tobytes() for k, p in tr.student.params().items()}
    report = tr.train_step(0)
    assert report.total > 0
    assert all(teacher_bundle.unet.params()[k].data.tobytes() == v for k, v in teacher_bytes.items())
    assert all(teacher_bundle.cond.params()[k].data.tobytes() == v for k, v in cond_bytes.items())
    assert all(tr.vae.params()[k].data.tobytes() == v for k, v in vae_bytes.items())
    assert all(tr.student.params()[k].data.tobytes() == v for k, v in base_bytes.items())
    assert all(p is teacher_params[k] for k, p in tr.student.params().items())
    changed = [k for k, p in tr.adapters.params().items() if np.abs(p.data).sum() > 0 or p.data.any()]
    assert changed


def test_trainer_rejects_unfrozen_teacher(teacher_bundle):
    cfg = tiny_cfg()
    import copy

    unfrozen = copy.deepcopy(teacher_bundle)
    unfrozen.frozen = False
    with pytest.raises(ConfigurationError, match="teacher not frozen"):
        Trainer(cfg, build_split(2, "train-small", 4), unfrozen)


def test_trainer_rejects_nothing_to_train(teacher_bundle):
    cfg = tiny_cfg(use_adapters=False, use_vae_tuning=False)
    with pytest.raises(ConfigurationError, match="nothing to train"):
        Trainer(cfg, build_split(2, "train-small", 4), teacher_bundle)


def test_trainer_rejects_schedule_mismatch(teacher_bundle):
    cfg = tiny_cfg()
    cfg.schedule.timesteps = 500
    with pytest.raises(ConfigurationError, match="mismatch"):
        Trainer(cfg, build_split(2, "train-small", 4), teacher_bundle)


def test_nonpositive_huber_delta_fails_on_first_step(teacher_bundle):
    with pytest.raises(ConfigError, match=r"train\.huber_delta must be > 0"):
        Trainer(tiny_cfg(huber_delta=0, use_distill=False), build_split(2, "train-small", 4), teacher_bundle)


def test_vae_tuning_flag_moves_vae(teacher_bundle):
    cfg = tiny_cfg(use_vae_tuning=True, use_distill=False)
    small = build_split(3, "train-small", 8)
    tr = Trainer(cfg, small, teacher_bundle)
    vae_before = {k: p.data.copy() for k, p in tr.vae.params().items()}
    tr.train_step(0)
    moved = any(not np.array_equal(vae_before[k], p.data) for k, p in tr.vae.params().items())
    assert moved


def test_vae_tuning_encodes_each_view_once(teacher_bundle, monkeypatch):
    # the reconstruction decodes the step's own latent: x and the zoomed view, no third encode
    tr = Trainer(tiny_cfg(use_vae_tuning=True, use_distill=True), build_split(3, "train-small", 8), teacher_bundle)
    calls, encode = [], Vae.encode

    def counted(self, x):
        calls.append(x.shape)
        return encode(self, x)

    monkeypatch.setattr(Vae, "encode", counted)
    report = tr.train_step(0)
    assert len(calls) == 2 and report.vae > 0 and report.distill > 0


def test_loss_csv_written(teacher_bundle, tmp_path):
    cfg = tiny_cfg()
    small = build_split(4, "train-small", 8)
    csv = tmp_path / "loss.csv"
    tr = Trainer(cfg, small, teacher_bundle, loss_csv=csv)
    tr.run(2)
    lines = csv.read_text().splitlines()
    assert lines[0] == "step,L_denoise,L_distill,L_vae,L_total,wall_ms"
    assert len(lines) == 3


@pytest.mark.parametrize("value, shown", [(np.nan, "nan"), (1e30, "inf")], ids=["nan", "square-overflows"])
def test_non_finite_gradient_norm_stops_before_update(teacher_bundle, tmp_path, monkeypatch, value, shown):
    # every loss part is finite; one planted gradient is not, or squares past float32: no update, no row
    csv = tmp_path / "loss.csv"
    tr = Trainer(tiny_cfg(), build_split(4, "train-small", 8), teacher_bundle, loss_csv=csv)
    params = tr.optimizer.params
    before = {k: p.data.copy() for k, p in params.items()}
    backward = T.backward

    def planted(loss):
        backward(loss)
        params["lora.mid.attn.wq.B"].grad.fill(value)

    monkeypatch.setattr(T, "backward", planted)
    with pytest.raises(ConfigurationError, match=rf"^step 0: gradient norm is {shown}; no update applied$"):
        tr.train_step(0)
    assert all(np.array_equal(before[k], p.data) for k, p in params.items())
    assert tr.optimizer.step_count == 0
    assert csv.read_text().splitlines() == [train.LOSS_CSV_HEADER]


def test_no_teacher_views_without_distillation(teacher_bundle, monkeypatch):
    small = build_split(4, "train-small", 8)
    with_views = Trainer(tiny_cfg(use_distill=True), small, teacher_bundle).train_step(0)

    def refuse(*args):
        raise AssertionError("teacher views built without distillation")

    monkeypatch.setattr(train, "crop_resize_pair", refuse)
    without = Trainer(tiny_cfg(use_distill=False), small, teacher_bundle).train_step(0)
    assert without.distill == 0.0
    assert without.denoise == with_views.denoise  # the student's draws do not depend on the flag


def _steps(trainer, n):
    losses = [(r.denoise, r.distill, r.vae, r.total) for r in map(trainer.train_step, range(n))]
    return losses, {k: p.data.tobytes() for k, p in trainer.adapters.params().items()}


def test_teacher_on_the_worker_gives_the_inline_bytes(teacher_bundle, monkeypatch):
    small = build_split(4, "train-small", 8)
    threads, view = [], Trainer._zoomed_view

    def recorded(self, *args):
        threads.append(threading.get_ident())
        return view(self, *args)

    monkeypatch.setattr(Trainer, "_zoomed_view", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads' Python as finely as the interpreter allows
    try:
        on_worker = _steps(Trainer(tiny_cfg(), small, teacher_bundle), 3)
    finally:
        sys.setswitchinterval(interval)
    assert len(threads) == 3 and threading.get_ident() not in threads

    def inline(fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done

    monkeypatch.setattr(train, "_submit", inline)
    assert _steps(Trainer(tiny_cfg(), small, teacher_bundle), 3) == on_worker
    assert threads[3:] == [threading.get_ident()] * 3


def test_worker_error_is_raised_from_the_step(teacher_bundle):
    # the crop runs on the worker: its refusal comes back with its own type and message
    small = build_split(4, "train-small", 8)
    oversized = dataclasses.replace(small[0], bbox=(0, 0, 40, 40))
    tr = Trainer(tiny_cfg(), small, teacher_bundle)
    with pytest.raises(ValueError, match=r"^mask bbox 40x40 larger than crop size 32$"):
        tr.train_step(0, [oversized, small[1]])
    assert tr.optimizer.step_count == 0


def test_student_error_waits_for_the_teacher(teacher_bundle, monkeypatch):
    tr = Trainer(tiny_cfg(), build_split(4, "train-small", 8), teacher_bundle)
    started, finished, view = threading.Event(), [], Trainer._zoomed_view

    def slow_view(self, *args):
        started.set()
        time.sleep(0.05)
        out = view(self, *args)
        finished.append(True)
        return out

    def fail(*args, **kwargs):
        started.wait(5)
        raise RuntimeError("student failed")

    monkeypatch.setattr(Trainer, "_zoomed_view", slow_view)
    monkeypatch.setattr(train, "denoise_loss", fail)
    with pytest.raises(RuntimeError, match="^student failed$"):
        tr.train_step(0)
    assert finished == [True]


def test_repeated_step_on_a_fixed_batch_learns(teacher_bundle):
    # step 0 again and again: the same samples, timesteps and noise every time
    batch = build_split(6, "train-small", 2)

    def fit(**overrides):
        tr = Trainer(tiny_cfg(**overrides), batch, teacher_bundle)
        return [tr.train_step(0, batch) for _ in range(10)]

    default = fit()
    assert default[-1].denoise < default[0].denoise
    assert default[-1].distill < default[0].distill
    # a sign error in the distillation term would reverse this
    assert fit(distill_weight=1.0)[-1].distill < fit(distill_weight=0.0)[-1].distill


# -- pretraining ------------------------------------------------------------------------


def test_pretrain_rejects_empty_and_wrong_sized_data():
    cfg = tiny_cfg()
    with pytest.raises(ConfigurationError, match="empty"):
        pretrain_teacher([], cfg)
    small = build_split(5, "train-small", 2)
    with pytest.raises(ConfigurationError, match="generic"):
        pretrain_teacher(small, cfg)


def test_pretrain_loss_csv_has_one_row_per_step(tmp_path):
    cfg = tiny_cfg(pretrain_vae_steps=2, pretrain_steps=3)
    csv = tmp_path / "teacher.loss.csv"
    pretrain_teacher(build_split(1, "train-generic", 4), cfg, loss_csv=csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == "step,L_denoise,L_distill,L_vae,L_total,wall_ms"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(5))
    for _, den, dist, vae, total, _ in rows[:2]:  # phase A: the autoencoder alone
        assert vae == total and float(den) == float(dist) == 0.0
    for _, den, dist, vae, total, _ in rows[2:]:  # phase B: the denoiser alone
        assert den == total and float(dist) == float(vae) == 0.0


def test_pretraining_holds_no_graph_across_steps():
    # a loop whose caller keeps the previous step's graph alive overlaps it with
    # the next step's, so the peak grows with the step count (about 1.45x at this size)
    pool = build_split(1, "train-generic", 8)

    def traced_peak(pretrain_steps):
        cfg = RunConfig.from_dict({"model": {"base_width": 16, "groups": 4},
                                   "train": {"batch_size": 2, "pretrain_vae_steps": 1,
                                             "pretrain_steps": pretrain_steps}})
        tracemalloc.start()
        try:
            pretrain_teacher(pool, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = traced_peak(1), traced_peak(4)
    assert four <= 1.15 * one, four / one


def test_teacher_bundle_is_frozen(teacher_bundle):
    assert teacher_bundle.frozen
    assert teacher_bundle.role == "teacher"
    assert all(not p.requires_grad for p in teacher_bundle.unet.params().values())


def test_bundle_checkpoint_roundtrip_byte_identical(teacher_bundle, tmp_path):
    p1 = save_bundle(tmp_path / "a.soek", teacher_bundle)
    loaded = load_bundle(p1)
    p2 = save_bundle(tmp_path / "b.soek", loaded)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.frozen and loaded.role == "teacher"


@pytest.fixture
def student_file(teacher_bundle, tmp_path):
    tr = Trainer(tiny_cfg(), build_split(4, "train-small", 4), teacher_bundle)
    return save_bundle(tmp_path / "student.soek", tr.bundle(), tr.optimizer)


def test_student_checkpoint_roundtrip_byte_identical(student_file, tmp_path):
    loaded = load_bundle(student_file)
    assert loaded.adapters is not None and loaded.role == "student"
    assert save_bundle(tmp_path / "again.soek", loaded).read_bytes() == student_file.read_bytes()


@pytest.mark.parametrize("change, message", [
    (lambda a, b: a.update({"lora.mid.attn.wq.A": a["lora.mid.attn.wq.A"][:, :-1]}),
     r"array 'lora.mid.attn.wq.A' has shape"),
    (lambda a, b: a.update({"unet.bogus": np.zeros(3, np.float32)}), "unexpected array 'unet.bogus'"),
    (lambda a, b: a.update({"adam.lora.mid.attn.wq.A.m": np.zeros((4, 32), np.float32)}),
     "unexpected array 'adam.lora.mid.attn.wq.A.m'"),  # a student file that still holds Adam moments
    (lambda a, b: a.pop("lora.mid.attn.wq.B"), "missing array 'lora.mid.attn.wq.B'"),
    (lambda a, b: b.update({"frozen": "no"}), "frozen must be true or false, got 'no'"),
    (lambda a, b: b.update({"has_adapters": "no"}), "has_adapters must be true or false, got 'no'"),
])
def test_load_bundle_is_strict(student_file, change, message):
    arrays, blob = load_checkpoint(student_file)
    change(arrays, blob)
    save_checkpoint(student_file, arrays, blob)
    with pytest.raises(CheckpointError, match=f"{student_file}: {message}"):
        load_bundle(student_file)


# -- editing ---------------------------------------------------------------------------


def test_edit_preserves_pixels_outside_mask(teacher_bundle):
    val = build_split(6, "val-small", 2)
    s = val[0]
    out = edit(s.image, s.bbox, "square", "red", "color_label", teacher_bundle, steps=2, seed=3)
    x, y, w, h = s.bbox
    m = np.zeros((64, 64), bool)
    m[y : y + h, x : x + w] = True
    assert np.array_equal(out[~m], s.image[~m])
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_edit_deterministic_for_fixed_seed(teacher_bundle):
    val = build_split(6, "val-small", 1)
    s = val[0]
    a = edit(s.image, s.bbox, "circle", "blue", "label_only", teacher_bundle, steps=3, seed=11)
    b = edit(s.image, s.bbox, "circle", "blue", "label_only", teacher_bundle, steps=3, seed=11)
    assert a.tobytes() == b.tobytes()


def test_edit_step_counts_stay_in_range(teacher_bundle):
    val = build_split(6, "val-small", 1)
    s = val[0]
    for steps in (1, 50):
        out = edit(s.image, s.bbox, "ring", "cyan", "color_label", teacher_bundle, steps=steps, seed=0)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_edit_validations(teacher_bundle):
    val = build_split(6, "val-small", 1)
    s = val[0]
    with pytest.raises(ValueError, match="outside image"):
        edit(s.image, (60, 60, 10, 10), "circle", "red", "color_label", teacher_bundle, steps=1, seed=0)
    with pytest.raises(ValueError, match="steps"):
        edit(s.image, s.bbox, "circle", "red", "color_label", teacher_bundle, steps=0, seed=0)
    with pytest.raises(ValueError, match="label"):
        edit(s.image, s.bbox, "hexagon", "red", "color_label", teacher_bundle, steps=1, seed=0)


@pytest.mark.parametrize("bbox", [(0, 0, 1, 1), (3, 3, 3, 3)])
def test_edit_rejects_bbox_between_latent_samples(teacher_bundle, bbox):
    s = build_split(6, "val-small", 1)[0]
    with pytest.raises(ValueError, match=rf"bbox \({bbox[0]}, {bbox[1]}, .*no latent sample"):
        edit(s.image, bbox, "circle", "red", "color_label", teacher_bundle, steps=1, seed=0)


def test_edit_of_four_pixel_bbox_changes_the_box(teacher_bundle):
    s = build_split(6, "val-small", 1)[0]
    out = edit(s.image, (0, 0, 4, 4), "circle", "red", "color_label", teacher_bundle, steps=1, seed=0)
    assert not np.array_equal(out[:4, :4], s.image[:4, :4])
    assert np.array_equal(out[4:], s.image[4:]) and np.array_equal(out[:, 4:], s.image[:, 4:])


@pytest.fixture(scope="module")
def student_bundle(teacher_bundle):
    """An adapted student whose B factors are nonzero, so folding them changes weights."""
    bundle = Trainer(tiny_cfg(), build_split(4, "train-small", 4), teacher_bundle).bundle()
    set_adapter_b(bundle.adapters, seed=3)
    return bundle


def _edit_args(samples):
    return ([s.image for s in samples], [s.bbox for s in samples], [s.label for s in samples],
            [s.color for s in samples])


def test_edit_batch_rows_equal_single_edits(student_bundle):
    val = build_split(6, "val-small", 5)
    seeds = [20 + i for i in range(5)]
    outs = edit_batch(*_edit_args(val), "color_label", student_bundle, steps=3, seeds=seeds)
    assert len(outs) == 5
    for s, seed, out in zip(val, seeds, outs):
        alone = edit(s.image, s.bbox, s.label, s.color, "color_label", student_bundle, steps=3, seed=seed)
        assert out.tobytes() == alone.tobytes()


def test_edit_batch_input_checks(student_bundle):
    val = build_split(6, "val-small", 2)
    images, bboxes, labels, colors = _edit_args(val)
    with pytest.raises(ValueError, match="2 images, 1 bboxes"):
        edit_batch(images, bboxes[:1], labels, colors, "color_label", student_bundle, steps=1, seeds=[0, 1])
    with pytest.raises(ValueError, match="3 seeds"):
        edit_batch(images, bboxes, labels, colors, "color_label", student_bundle, steps=1, seeds=[0, 1, 2])
    with pytest.raises(ValueError, match="images differ in shape"):
        edit_batch([images[0], images[1][:32]], bboxes, labels, colors, "color_label", student_bundle,
                   steps=1, seeds=[0, 1])
    with pytest.raises(ValueError, match="image size mismatch: image is 32x32, data.image_side is 64"):
        edit_batch([image[:32, :32] for image in images], [(0, 0, 8, 8)] * 2, labels, colors, "color_label",
                   student_bundle, steps=1, seeds=[0, 1])
    with pytest.raises(ValueError, match=r"bbox \(3, 3, 3, 3\) covers no latent sample"):
        edit_batch(images, [bboxes[0], (3, 3, 3, 3)], labels, colors, "color_label", student_bundle,
                   steps=1, seeds=[0, 1])


def test_edit_leaves_bundle_untouched(student_bundle):
    s = build_split(6, "val-small", 1)[0]
    before = {k: p.data.tobytes() for k, p in student_bundle.params().items()}
    edit(s.image, s.bbox, s.label, s.color, "color_label", student_bundle, steps=2, seed=0)
    adapted = [mod.adapter for mod in student_bundle.unet.modules()
               if isinstance(mod, Linear) and mod.adapter is not None]
    assert len(adapted) == len(student_bundle.adapters.adapters)
    assert {id(ad) for ad in adapted} == {id(ad) for ad in student_bundle.adapters.adapters.values()}
    assert {k: p.data.tobytes() for k, p in student_bundle.params().items()} == before
    # kernel rows and K/V were prepared on the call's own copy, not on the bundle's modules
    assert all(getattr(mod, "rows", None) is None and getattr(mod, "kv", None) is None
               for mod in student_bundle.unet.modules())


@pytest.mark.parametrize("which", ["teacher_bundle", "student_bundle"])
def test_edit_batch_makes_kernel_rows_once_per_call(request, monkeypatch, which):
    # the count may not grow with the DDIM step count, with adapters or without
    bundle, calls, kernel_rows = request.getfixturevalue(which), [], T.kernel_rows

    def counted(k):
        calls.append(k.shape)
        return kernel_rows(k)

    monkeypatch.setattr(T, "kernel_rows", counted)
    val = build_split(6, "val-small", 2)
    counts = []
    for steps in (2, 10):
        calls.clear()
        edit_batch(*_edit_args(val), "color_label", bundle, steps=steps, seeds=[0, 1])
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("which", ["teacher_bundle", "student_bundle"])
def test_batch1_edit_makes_at_most_750_op_calls(request, monkeypatch, which):
    # a batch-1 edit is bound by op calls: every public tensor function counts,
    # nested calls included (1,483 per 10-step edit before the U-Net's fused ops)
    bundle, calls = request.getfixturevalue(which), []
    for name, fn in list(vars(T).items()):
        if inspect.isfunction(fn) and fn.__module__ == T.__name__ and not name.startswith("_"):
            monkeypatch.setattr(T, name, _counting(fn, calls))
    s = build_split(6, "val-small", 1)[0]
    edit(s.image, s.bbox, s.label, s.color, "color_label", bundle, steps=10, seed=0)
    assert 0 < len(calls) <= 750, collections.Counter(calls).most_common()


def test_edit_output_depends_on_adapters(teacher_bundle):
    s = build_split(6, "val-small", 1)[0]
    bundle = Trainer(tiny_cfg(), build_split(4, "train-small", 4), teacher_bundle).bundle()
    set_adapter_b(bundle.adapters, seed=3, std=0.5)
    adapted = edit(s.image, s.bbox, s.label, s.color, "color_label", bundle, steps=2, seed=0)
    set_adapter_b(bundle.adapters, seed=3, std=0.0)
    plain = edit(s.image, s.bbox, s.label, s.color, "color_label", bundle, steps=2, seed=0)
    assert not np.array_equal(adapted, plain)


def test_edit_batch_sees_an_in_place_kernel_write(student_bundle, tmp_path):
    # optimizers and checkpoint restores write parameters in place, so anything
    # prepared from a kernel must not outlive one edit_batch call
    path = save_bundle(tmp_path / "student.soek", student_bundle)
    val = build_split(6, "val-small", 2)

    def run(bundle):
        return edit_batch(*_edit_args(val), "color_label", bundle, steps=2, seeds=[4, 5])

    def write(bundle):
        kernel = bundle.unet.down[0].res.conv.w.data
        kernel *= 0.5

    bundle = load_bundle(path)
    before = run(bundle)
    write(bundle)
    after = run(bundle)
    fresh = load_bundle(path)
    write(fresh)
    assert any(not np.array_equal(a, b) for a, b in zip(before, after))
    assert [a.tobytes() for a in after] == [f.tobytes() for f in run(fresh)]


# -- end-to-end determinism ------------------------------------------------------------


def test_two_seeded_training_runs_give_identical_checkpoints(teacher_bundle, tmp_path):
    cfg = tiny_cfg()
    small = build_split(4, "train-small", 8)
    paths = []
    for name in ("a", "b"):
        tr = Trainer(cfg, small, teacher_bundle)
        tr.run(2)
        paths.append(save_bundle(tmp_path / f"{name}.soek", tr.bundle(), tr.optimizer))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_two_seeded_pretraining_runs_give_identical_checkpoints(tmp_path):
    cfg = tiny_cfg(pretrain_vae_steps=1, pretrain_steps=1)
    gen = build_split(1, "train-generic", 4)
    a = save_bundle(tmp_path / "a.soek", pretrain_teacher(gen, cfg))
    b = save_bundle(tmp_path / "b.soek", pretrain_teacher(gen, cfg))
    assert a.read_bytes() == b.read_bytes()
