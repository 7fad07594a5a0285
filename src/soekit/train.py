"""Cross-scale distillation trainer.

One training step follows the published recipe end to end: sample scenes,
build the teacher's crop-and-resized views (which at least double the mask's
relative size) for the whole batch, one boxed resample per image and mask,
encode both views with the shared VAE, noise both latents at a shared
per-sample timestep with independent noise draws, run the adapter-augmented
student on the original view and the frozen teacher on the zoomed view,
revert both predictions to clean-latent estimates, and add the masked
denoising loss to the weighted Huber distillation loss (teacher side
detached). Only the adapters train, with Adam; the student shares the
teacher's frozen VAE, U-Net weights and condition embedder. Teacher views
are built only when distilling.

The teacher's branch, from the crop to its clean-latent estimate, runs on the
process's one worker thread through `overlap` (which also edits the second
half of `metrics.evaluate`'s samples) while the calling thread runs the
student's forward and denoising loss; the distillation loss follows the join.
Its bytes are those of an inline run: every noise draw comes before the
split, the worker reads only its inputs and weights that nothing writes
before `_update`, and gradients accumulate only there, after the join. numpy
releases the interpreter lock in its kernels, so the branches share two
cores; the overlap is tuned for one BLAS thread per process.

Every gradient step, adapter or pretraining, ends in `_update`: the one place
that runs backward and the optimizer, and that refuses a non-finite loss or
global gradient norm.

Teacher, student and every loaded checkpoint share one architecture, so
`Bundle.build` makes all of their nets, from the run config's `ModelSection`.

Also hosts teacher pretraining (VAE phase, then denoiser phase, on
generic-sized objects) and mask-conditioned DDIM editing with latent and
pixel compositing: `edit_batch` edits a batch of images, one sample per
noise stream, on a per-call `MiniUnet.inference_copy` (adapters folded in,
the DDIM loop's constants made once), and `edit` is its batch of one.
"""

import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from soekit import tensor as T
from soekit.checkpoint import CheckpointError, load_checkpoint, restore, save_checkpoint, write_atomic
from soekit.config import LATENT_FACTOR, ConfigError, ModelSection, RunConfig
from soekit.data import COLOR_NAMES, LABELS, check_bbox, check_image_side, curation_filter
from soekit.lora import LoraAdapterSet, attach
from soekit.nets import ConditionEmbedder, MiniUnet, Vae
from soekit.optim import Adam
from soekit.rng import stream_rng
from soekit.schedule import NoiseSchedule, add_noise, ddim_step, ddim_timesteps, make_schedule, predict_z0
from soekit.tensor import Tensor

DISTILL_CROP_SIDE = 8  # latent-space side both mask crops are resized to

LOSS_CSV_HEADER = "step,L_denoise,L_distill,L_vae,L_total,wall_ms"


class ConfigurationError(RuntimeError):
    pass


def model_config(cfg: RunConfig) -> ModelSection:
    # kept only for perfbench's fresh_teacher, which builds its nets from this
    return cfg.model


# -- geometry -------------------------------------------------------------------


def mask_bbox(mask: np.ndarray) -> tuple:
    """Tight (x0, y0, x1, y1) of the nonzero region; half-open on the right."""
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        raise ValueError("mask is empty (degenerate sample)")
    return int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1


def crop_resize_pair(x: Tensor, m: Tensor, s: int):
    """Teacher views: per sample, an s x s window centred on the mask, blown up to full size.

    x holds (B, 3, H, W) images and m their (B, 1, H, W) masks. Each window is
    translated (never shrunk) to stay inside the image; the images upsample
    bilinearly, the masks with nearest so they stay binary. Returns
    (x', m') at the original resolution, one resample call each.
    """
    h, w = m.shape[2:]
    if s > min(h, w):
        raise ValueError(f"crop size {s} exceeds image side {min(h, w)}")
    boxes = []
    for mask in m.data[:, 0]:
        x0, y0, x1, y1 = mask_bbox(mask)
        if (x1 - x0) > s or (y1 - y0) > s:
            raise ValueError(f"mask bbox {(x1 - x0)}x{(y1 - y0)} larger than crop size {s}")
        cx = (x0 + x1) / 2.0
        cy = (y0 + y1) / 2.0
        wx = int(np.clip(round(cx - s / 2.0), 0, w - s))
        wy = int(np.clip(round(cy - s / 2.0), 0, h - s))
        boxes.append((wx, wy, wx + s, wy + s))
    return T.resize_bilinear(x, h, w, boxes), T.resize_nearest(m, h, w, boxes)


# -- losses -----------------------------------------------------------------------


def denoise_loss(eps: Tensor, eps_pred: Tensor, m_latent: Tensor, delta: float = 1.0) -> Tensor:
    """Masked Huber between true and predicted noise, mean over masked entries."""
    try:
        return T.huber(eps_pred, eps, m_latent, delta=delta)
    except ValueError as e:
        raise ValueError(f"denoise_loss: {e}") from None


def distill_loss(z0_hat: Tensor, m_latent: Tensor, z0p_hat: Tensor, mp_latent: Tensor,
                 delta: float = 1.0) -> Tensor:
    """Huber between the clean-latent crops of student and teacher under their masks.

    Each side's latent mask bbox is bilinearly resized to a common 8x8 before
    the distance, in one boxed resample per side. Every mask is a box, so the
    crop holds masked cells only. The teacher side is detached: gradient flows
    into the student path only.
    """
    s_boxes = [_latent_bbox(mask, "student") for mask in m_latent.data[:, 0]]
    t_boxes = [_latent_bbox(mask, "teacher") for mask in mp_latent.data[:, 0]]
    s_all = T.resize_bilinear(z0_hat, DISTILL_CROP_SIDE, DISTILL_CROP_SIDE, s_boxes)
    t_all = T.resize_bilinear(z0p_hat.detach(), DISTILL_CROP_SIDE, DISTILL_CROP_SIDE, t_boxes)
    return T.huber(s_all, t_all, delta=delta)


def _latent_bbox(mask2d: np.ndarray, who: str) -> tuple:
    try:
        return mask_bbox(mask2d)
    except ValueError:
        raise ValueError(f"distill_loss: {who} mask empty at latent resolution (degenerate sample)") from None


def vae_recon_loss(x: Tensor, z: Tensor, vae: Vae, delta: float = 1.0) -> Tensor:
    """Huber between the images x and the decoding of their latents z, over every pixel."""
    return T.huber(vae.decode(z), x, delta=delta)


def total_loss(denoise, distill, vae, distill_weight: float) -> Tensor:
    """Sum with the distillation part weighted; parts passed as None are absent from the graph entirely."""
    if distill is not None:
        distill = T.mul(distill, Tensor(np.asarray(distill_weight, distill.dtype), dtype=distill.dtype))
    parts = [part for part in (denoise, distill, vae) if part is not None]
    if not parts:
        raise ValueError("total_loss: no active parts")
    out = parts[0]
    for p in parts[1:]:
        out = T.add(out, p)
    return out


# -- model bundle + checkpoint glue -------------------------------------------------


@dataclass
class Bundle:
    """Everything a checkpoint holds: networks, adapters, schedule, metadata."""

    cfg: RunConfig
    vae: Vae
    unet: MiniUnet
    cond: ConditionEmbedder
    sched: NoiseSchedule
    adapters: LoraAdapterSet = None
    frozen: bool = False
    role: str = "student"
    step_count: int = 0

    @classmethod
    def build(cls, cfg: RunConfig, seed: int, role: str, step_count: int = 0) -> "Bundle":
        """Fresh trainable nets at `seed` from cfg.model and the schedule from cfg.schedule. The role is
        the kind: a "teacher" is frozen, a "student" carries low-rank adapters from cfg.lora on its U-Net."""
        unet = MiniUnet(cfg.model, seed=seed)
        sc = cfg.schedule
        return cls(
            cfg=cfg, vae=Vae(cfg.model, seed=seed), unet=unet, cond=ConditionEmbedder(cfg.model, seed=seed),
            sched=make_schedule(sc.timesteps, sc.beta_start, sc.beta_end),
            adapters=attach(unet, cfg.lora, seed=seed) if role == "student" else None,
            frozen=role == "teacher", role=role, step_count=step_count,
        )

    def params(self) -> dict:
        """Every saved Tensor by checkpoint name: vae.*, unet.*, cond.*, then lora.*."""
        out = {**self.vae.params("vae"), **self.unet.params("unet"), **self.cond.params("cond")}
        if self.adapters is not None:
            out.update(self.adapters.params())
        return out

    def config_blob(self, optimizer=None) -> dict:
        return {
            "config": self.cfg.to_dict(),
            "role": self.role,
            "optimizer_step_count": optimizer.step_count if optimizer else self.step_count,
        }


def save_bundle(path, bundle: Bundle, optimizer=None) -> Path:
    arrays = {name: p.data for name, p in bundle.params().items()}
    return save_checkpoint(path, arrays, bundle.config_blob(optimizer))


def load_bundle(path) -> Bundle:
    """The inert bundle saved at path. Its kind comes from the blob's role alone: the `frozen` and
    `has_adapters` keys that older files hold are ignored."""
    arrays, blob = load_checkpoint(path)
    role = blob.get("role")
    if role not in ("teacher", "student"):
        raise CheckpointError(f"{path} is not a teacher or student checkpoint (role {role!r})")
    if "config" not in blob:
        raise CheckpointError(f"{path}: {role} checkpoint has no 'config' key")
    try:
        cfg = RunConfig.from_dict(blob["config"]).validate()
    except ConfigError as e:
        raise CheckpointError(f"{path}: bad config in {role} checkpoint ({e})") from None
    step_count = blob.get("optimizer_step_count", 0)
    if type(step_count) is not int:
        raise CheckpointError(f"{path}: optimizer_step_count must be an integer, got {step_count!r}")
    try:
        bundle = Bundle.build(cfg, cfg.train.seed, role, step_count)
    except ValueError as e:  # a config that validates but that the nets refuse
        raise CheckpointError(f"{path}: {role} checkpoint config refused by the model ({e})") from None
    params = bundle.params()
    restore(path, params, arrays)
    # loaded models are inert; the Trainer re-establishes trainability itself
    for p in params.values():
        p.requires_grad = False
    return bundle


# -- batches -------------------------------------------------------------------------


def batch_tensors(samples):
    """One batch stacked: (images, masks, label ids, colour ids)."""
    x = Tensor(np.stack([s.image.transpose(2, 0, 1) for s in samples]))
    m = Tensor(np.stack([s.mask()[None] for s in samples]))
    return x, m, np.asarray([s.label_id for s in samples]), np.asarray([s.color_id for s in samples])


def _draw_batch(dataset, tc, step: int, tag: int) -> list:
    """One step's samples, drawn with replacement from the ("noise", step, tag) stream."""
    rng = stream_rng(tc.seed, "noise", step, tag)
    idx = rng.integers(0, len(dataset), size=tc.batch_size)
    return [dataset[int(i)] for i in idx]


@dataclass
class LossReport:
    step: int
    denoise: float
    distill: float
    vae: float
    total: float
    wall_ms: float

    def csv_line(self) -> str:
        return (
            f"{self.step},{self.denoise:.6f},{self.distill:.6f},"
            f"{self.vae:.6f},{self.total:.6f},{self.wall_ms:.3f}"
        )


def _start_loss_csv(loss_csv):
    """Write the loss CSV's header; returns its Path, or None when not logging."""
    if not loss_csv:
        return None
    return write_atomic(loss_csv, LOSS_CSV_HEADER + "\n")


# -- the gradient step ------------------------------------------------------------------


def _noise(rng, sched: NoiseSchedule, shape, n: int = 1):
    """One timestep per sample, then n noise Tensors of `shape`, in that draw order."""
    ts = rng.integers(1, sched.T + 1, size=shape[0])
    return ts, [Tensor(rng.standard_normal(shape).astype(np.float32)) for _ in range(n)]


def _predict(unet: MiniUnet, z: Tensor, eps: Tensor, ts, m: Tensor, cond: Tensor, sched: NoiseSchedule):
    """Noise z with eps at ts and predict the noise; returns (z_t, latent mask, eps_pred)."""
    z_t = add_noise(z, eps, ts, sched)
    m_lat = unet.latent_mask(m)
    return z_t, m_lat, unet.forward(z_t, ts, cond, m_lat)


@functools.cache
def worker() -> ThreadPoolExecutor:
    """The process's one worker thread, made on first use and kept, so its allocator arena is reused.

    It runs the train step's teacher branch and the second half of `metrics.evaluate`'s edits.
    """
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="soekit-worker")


os.register_at_fork(after_in_child=worker.cache_clear)  # a forked child has no worker thread


def overlap(there, here) -> tuple:
    """Run there() on `worker` while here() runs on the calling thread; returns (there(), here()).

    The one hand-off. It waits for there() on an error in here() too, so no
    worker work outlives the call, and then raises here()'s error; otherwise
    an error of there() is raised as it is.
    """
    future = worker().submit(there)
    try:
        mine = here()
    finally:
        wait([future])
    return future.result(), mine


def _grad_norm(params) -> float:
    """Global L2 norm of the gradients of params (Tensors), those without one skipped.

    One flat dot product per gradient, in its own dtype, summed as a Python
    float. A sum of squares that overflows gives inf, so a gradient too large
    to square counts as non-finite, as a NaN or infinite one does.
    """
    grads = [p.grad.reshape(-1) for p in params if p.grad is not None]
    with np.errstate(over="ignore"):  # an overflow is the answer here, not a warning
        return math.sqrt(sum(float(np.dot(g, g)) for g in grads))


def _update(optimizer, loss_csv, step: int, t0: float, denoise=None, distill=None, vae=None,
            distill_weight: float = 1.0) -> LossReport:
    """Weight the parts and step; a non-finite loss (checked before backward) or global gradient norm
    (before the optimizer) raises and logs no row."""
    loss = total_loss(denoise, distill, vae, distill_weight)
    values = [0.0 if part is None else float(part.item()) for part in (denoise, distill, vae, loss)]
    for column, value in zip(("L_denoise", "L_distill", "L_vae", "L_total"), values):
        if not np.isfinite(value):
            raise ConfigurationError(f"step {step}: {column} is {value}; no update applied")
    T.backward(loss)
    norm = _grad_norm(optimizer.params.values())
    if not math.isfinite(norm):
        raise ConfigurationError(f"step {step}: gradient norm is {norm}; no update applied")
    optimizer.step()
    report = LossReport(step, *values, (time.perf_counter() - t0) * 1000.0)
    if loss_csv:
        with open(loss_csv, "a") as fh:  # closed again after every step
            fh.write(report.csv_line() + "\n")
    return report


# -- trainer --------------------------------------------------------------------------


def check_config_matches(stored: RunConfig, cfg: RunConfig, who: str, keys=("schedule", "model")):
    """Refuse a run config that differs from a checkpoint's stored config at any of keys."""
    differ = [key for key in keys if attrgetter(key)(stored) != attrgetter(key)(cfg)]
    if differ:
        raise ConfigurationError(f"checkpoint/config mismatch: {who} and run config differ at {', '.join(differ)}")


class Trainer:
    """Owns all mutable training state for one adapter-tuning run."""

    def __init__(self, cfg: RunConfig, dataset, teacher: Bundle, loss_csv=None):
        cfg.validate()
        tc = cfg.train
        if not teacher.frozen:
            raise ConfigurationError("teacher not frozen")
        if not dataset:
            raise ConfigurationError("training dataset is empty")
        check_image_side(dataset, cfg.data.image_side)
        check_config_matches(teacher.cfg, cfg, "teacher")
        self.cfg = cfg
        self.dataset = list(dataset)
        self.sched = teacher.sched
        self.teacher_unet, self.vae, self.cond = teacher.unet, teacher.vae, teacher.cond
        for module in (self.teacher_unet, self.vae, self.cond):
            module.set_trainable(False)
        # only the adapters train, so the student's base Tensors are the teacher's own
        self.student = teacher.unet.copy_tree()
        self.adapters = attach(self.student, cfg.lora, seed=tc.seed)
        self.optimizer = Adam(self.adapters.params(), lr=tc.lr)
        self.loss_csv = _start_loss_csv(loss_csv)

    def train_step(self, step: int, samples=None) -> LossReport:
        """One gradient step on `samples`, or on step's own draw from the dataset.

        `_zoomed_view` runs on the worker through `overlap` (see the module docstring).
        """
        t0 = time.perf_counter()
        tc = self.cfg.train
        samples = samples if samples is not None else _draw_batch(self.dataset, tc, step, 0)
        x, m, label_ids, color_ids = batch_tensors(samples)
        # every draw precedes the split; the zoomed view's is made even when not distilling
        z_shape = (x.shape[0], self.cfg.model.latent_channels, *(n // LATENT_FACTOR for n in x.shape[2:]))
        ts, (eps, eps_p) = _noise(stream_rng(tc.seed, "noise", step, 1), self.sched, z_shape, 2)
        cond = self.cond.embed(label_ids, color_ids, tc.prompt_style)

        def student():
            z_t, m_lat, eps_pred = _predict(self.student, self.vae.encode(x), eps, ts, m, cond, self.sched)
            return z_t, m_lat, eps_pred, denoise_loss(eps, eps_pred, m_lat, delta=tc.huber_delta)

        if not tc.use_distill:
            return _update(self.optimizer, self.loss_csv, step, t0, student()[3])
        (zp0, mp_lat), (z_t, m_lat, eps_pred, den_part) = overlap(
            functools.partial(self._zoomed_view, x, m, eps_p, ts, cond), student)
        dist_part = distill_loss(predict_z0(z_t, eps_pred, ts, self.sched), m_lat, zp0, mp_lat, delta=tc.huber_delta)
        return _update(self.optimizer, self.loss_csv, step, t0, den_part, dist_part, distill_weight=tc.distill_weight)

    def _zoomed_view(self, x: Tensor, m: Tensor, eps: Tensor, ts, cond: Tensor) -> tuple:
        """The frozen teacher's clean-latent estimate on the zoomed view (crop, encode, U-Net), and its latent mask."""
        xp, mp = crop_resize_pair(x, m, self.cfg.train.crop_size)
        zp = self.vae.encode(xp).detach()
        zp_t, mp_lat, eps_pred = _predict(self.teacher_unet, zp, eps, ts, mp, cond, self.sched)
        return predict_z0(zp_t, eps_pred, ts, self.sched), mp_lat

    def run(self, steps=None) -> list:
        steps = steps if steps is not None else self.cfg.train.steps
        return [self.train_step(i) for i in range(steps)]

    def bundle(self) -> Bundle:
        return Bundle(
            cfg=self.cfg, vae=self.vae, unet=self.student, cond=self.cond,
            sched=self.sched, adapters=self.adapters, step_count=self.optimizer.step_count,
        )


# -- teacher pretraining ----------------------------------------------------------------


def pretrain_teacher(dataset, cfg: RunConfig, loss_csv=None) -> Bundle:
    """Train VAE then denoiser on generic-sized objects; returns a frozen bundle.

    Phase A fits the autoencoder with full-image reconstruction; phase B
    trains the U-Net and condition embedder with the masked denoising loss
    on the frozen autoencoder. Both phases step through `_update`; the loss
    CSV numbers their steps in one sequence.
    """
    cfg.validate()
    if not dataset:
        raise ConfigurationError("pretraining dataset is empty")
    check_image_side(dataset, cfg.data.image_side)
    for s in dataset:
        if not curation_filter(s, "train-generic"):
            raise ConfigurationError(f"sample {s.id} is not generic-sized (longer bbox side not a train-generic side)")
    tc = cfg.train
    bundle = Bundle.build(cfg, tc.seed, "teacher")
    vae, unet, cond, sched = bundle.vae, bundle.unet, bundle.cond, bundle.sched

    loss_csv = _start_loss_csv(loss_csv)

    # phase A: autoencoder
    opt_vae = Adam(vae.params("vae"), lr=tc.pretrain_lr)
    for step in range(tc.pretrain_vae_steps):
        t0 = time.perf_counter()
        x, *_ = batch_tensors(_draw_batch(dataset, tc, step, 2))
        _update(opt_vae, loss_csv, step, t0, vae=vae_recon_loss(x, vae.encode(x), vae, delta=tc.huber_delta))

    # phase B: denoiser on the frozen autoencoder
    vae.set_trainable(False)
    opt = Adam({**unet.params("unet"), **cond.params("cond")}, lr=tc.pretrain_lr)
    for step in range(tc.pretrain_steps):
        t0 = time.perf_counter()
        x, m, label_ids, color_ids = batch_tensors(_draw_batch(dataset, tc, step, 3))
        z = vae.encode(x).detach()
        ts, (eps,) = _noise(stream_rng(tc.seed, "noise", step, 4), sched, z.shape)
        _, ml, eps_pred = _predict(unet, z, eps, ts, m, cond.embed(label_ids, color_ids, tc.prompt_style), sched)
        _update(opt, loss_csv, tc.pretrain_vae_steps + step, t0,
                denoise=denoise_loss(eps, eps_pred, ml, delta=tc.huber_delta))

    for module in (vae, unet, cond):
        module.set_trainable(False)
    bundle.step_count = opt.step_count
    return bundle


# -- editing --------------------------------------------------------------------------


def edit(image: np.ndarray, bbox, label: str, color: str, style: str,
         bundle: Bundle, steps: int, seed: int) -> np.ndarray:
    """Inpaint the bbox with the prompted object; batch 1 of `edit_batch`."""
    return edit_batch([image], [bbox], [label], [color], style, bundle, steps, [seed])[0]


def edit_batch(images, bboxes, labels, colors, style: str, bundle: Bundle, steps: int, seeds) -> list:
    """Inpaint each image's bbox with its prompted object; outside pixels are preserved.

    The masked latent region starts from pure noise at t = T; every DDIM step
    re-composites the known region (original latent re-noised to the current
    level), and each decoded result is composited with its input in pixel
    space so content outside the mask is restored exactly. Images must be
    data.image_side square, the side the checkpoint was made for. A bbox
    between latent samples is rejected: nothing inside it would be
    regenerated.

    Sample i draws its noise from stream_rng(seeds[i], "eval") in the same
    order at any batch size, and every op is per sample, so each output is
    bit-equal to `edit` on that sample alone. Encoding, conditioning and the
    U-Net calls run once per batch, on this call's own
    `bundle.unet.inference_copy`: the adapters, if any, folded in, and each
    conv's kernel rows and each attention block's K and V for this call's
    condition made once rather than on every DDIM step. The copy goes with
    the call, so a write to bundle's parameters between calls is seen by the
    next one. Decoding runs per sample, because the memory-bound decoder is
    slower per sample, and far larger, at batch 8.
    """
    n = len(images)
    if not n or any(len(v) != n for v in (bboxes, labels, colors, seeds)):
        raise ValueError(f"edit_batch: need equal nonempty lists, got {n} images, {len(bboxes)} bboxes, "
                         f"{len(labels)} labels, {len(colors)} colors and {len(seeds)} seeds")
    ts = ddim_timesteps(bundle.sched.T, steps)
    side = bundle.cfg.data.image_side
    for image in images:
        h, w = image.shape[:2]
        if h != side or w != side:
            raise ValueError(f"image size mismatch: image is {w}x{h}, data.image_side is {side}")
    masks = np.zeros((n, 1, side, side), np.float32)
    for mask, bbox, label, color in zip(masks, bboxes, labels, colors):
        x0, y0, bw, bh = check_bbox(bbox, side, side)
        if label not in LABELS:
            raise ValueError(f"unknown label {label!r}; expected one of {LABELS}")
        if color not in COLOR_NAMES:
            raise ValueError(f"unknown color {color!r}; expected one of {COLOR_NAMES}")
        mask[0, y0 : y0 + bh, x0 : x0 + bw] = 1.0

    ml = bundle.unet.latent_mask(Tensor(masks))
    ml_np = ml.data
    for bbox, row in zip(bboxes, ml_np):
        if not row.any():
            raise ValueError(f"bbox {bbox} covers no latent sample; it would be left unedited")
    sched = bundle.sched
    x = Tensor(np.stack([image.transpose(2, 0, 1) for image in images]))

    z0 = bundle.vae.encode(x).detach()
    rngs = [stream_rng(seed, "eval") for seed in seeds]
    cond = bundle.cond.embed([LABELS.index(v) for v in labels], [COLOR_NAMES.index(v) for v in colors], style)
    unet = bundle.unet.inference_copy(cond)

    def draw():
        return Tensor(np.concatenate([r.standard_normal((1, *z0.shape[1:])).astype(np.float32) for r in rngs]))

    noise = draw()
    z = Tensor(ml_np * noise.data + (1.0 - ml_np) * add_noise(z0, noise, sched.T, sched).data)
    for t, t_prev in zip(ts[:-1], ts[1:]):
        eps_pred = unet.forward(z, t, cond, ml).detach()
        z_next = ddim_step(z, eps_pred, t, t_prev, sched)
        keep = add_noise(z0, draw(), t_prev, sched) if t_prev > 0 else z0
        z = Tensor(ml_np * z_next.data + (1.0 - ml_np) * keep.data)

    outs = []
    for image, mask, z_row in zip(images, masks, z.data):
        decoded = bundle.vae.decode(Tensor(z_row[None])).data[0].transpose(1, 2, 0)
        mask3 = mask[0, :, :, None]
        out = mask3 * decoded + (1.0 - mask3) * image
        outs.append(np.ascontiguousarray(np.clip(out, 0.0, 1.0).astype(np.float32)))
    return outs
