"""Desk-scale networks: mini VAE, mask-conditioned cross-attention U-Net,
and a lookup-table condition embedder standing in for a frozen text encoder.

Defaults target 64x64 images with a x4 latent downscale: latents are
16x16x4, the U-Net runs two down/up levels (mid block at 4x4), and every
level cross-attends from spatial positions to a 2-token condition sequence
(one color token, one label token).

Each net takes the run config's `ModelSection` and a seed; the condition
tables are sized by `data.LABELS` and `data.COLOR_NAMES`. `train.Bundle.build`
is the one place that builds all three for a run.
"""

import numpy as np

from soekit import tensor as T
from soekit.config import LATENT_FACTOR, ModelSection
from soekit.data import COLOR_NAMES, LABELS, PROMPT_STYLES
from soekit.rng import stream_rng
from soekit.tensor import ShapeError, Tensor


# -- module plumbing -----------------------------------------------------------


class Module:
    """Lightweight container walked by attribute. `named_modules` is the naming rule: a module's path is its
    attribute names from the root, with list items numbered (`down.0.res.time_proj`), and a parameter's name
    is its module's path and attribute name. Checkpoint array names and adapter targets are these paths."""

    def named_modules(self, prefix: str = ""):
        """(path, module) for this module, then every module under it, depth first in attribute order."""
        yield prefix, self
        for key, val in vars(self).items():
            named = [(f"{key}.{i}", v) for i, v in enumerate(val)] if isinstance(val, (list, tuple)) else [(key, val)]
            for name, item in named:
                if isinstance(item, Module):
                    yield from item.named_modules(f"{prefix}.{name}" if prefix else name)

    def params(self, prefix: str = "") -> dict:
        """Each module's own Tensors by name, modules in `named_modules` order."""
        return {f"{path}.{key}" if path else key: val for path, module in self.named_modules(prefix)
                for key, val in vars(module).items() if isinstance(val, Tensor)}

    def modules(self):
        """This module, then every module under it, depth first."""
        return (module for _, module in self.named_modules())

    def copy_tree(self):
        """A copy of this module and of every module under it; all else, parameter Tensors included, is shared."""
        new = object.__new__(type(self))
        for key, val in vars(self).items():
            if isinstance(val, Module):
                val = val.copy_tree()
            elif isinstance(val, (list, tuple)):
                val = type(val)(item.copy_tree() if isinstance(item, Module) else item for item in val)
            setattr(new, key, val)
        return new

    def set_trainable(self, flag: bool):
        for p in self.params().values():
            p.requires_grad = flag
            if not flag:
                p.grad = None
        return self


def _gauss(rng, shape, std):
    return (rng.standard_normal(shape) * std).astype(np.float32)


class Linear(Module):
    """Dense layer, row-vector convention: y = x @ w + b, w is (in, out).

    An attached low-rank adapter contributes alpha * ((x @ B) @ A) without
    ever materialising the dense update; `MiniUnet.inference_copy` folds it
    into w instead.
    """

    def __init__(self, rng, n_in: int, n_out: int):
        self.w = Tensor(_gauss(rng, (n_in, n_out), 1.0 / np.sqrt(n_in)), requires_grad=True)
        self.b = Tensor(np.zeros(n_out, np.float32), requires_grad=True)
        self.adapter = None  # set by soekit.lora.attach

    def forward(self, x: Tensor) -> Tensor:
        if self.adapter is None:
            return T.matmul(x, self.w, bias=self.b)
        return T.add(T.add(T.matmul(x, self.w), self.adapter.delta(x)), self.b)


class Conv2d(Module):
    def __init__(self, rng, c_in: int, c_out: int, k: int = 3, stride: int = 1, padding: int = 1):
        std = 1.0 / np.sqrt(c_in * k * k)
        self.w = Tensor(_gauss(rng, (c_out, c_in, k, k), std), requires_grad=True)
        self.b = Tensor(np.zeros(c_out, np.float32), requires_grad=True)
        self.stride = stride
        self.padding = padding
        self.rows = None  # w's kernel rows, set only on a MiniUnet.inference_copy

    def forward(self, x: Tensor, shift: Tensor = None, residual: Tensor = None) -> Tensor:
        return T.conv2d(x, self.w, stride=self.stride, padding=self.padding, bias=self.b, rows=self.rows,
                        shift=shift, residual=residual)


class ConvTranspose2d(Module):
    """Exact x2 upsampler: kernel 2 at stride 2, so taps are disjoint. ``T.conv2d_transpose`` runs
    it as one GEMM plus a depth-to-space reshape, and its backward as one GEMM per operand."""

    def __init__(self, rng, c_in: int, c_out: int):
        std = 1.0 / np.sqrt(c_in * 4)
        self.w = Tensor(_gauss(rng, (c_in, c_out, 2, 2), std), requires_grad=True)
        self.b = Tensor(np.zeros(c_out, np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.conv2d_transpose(x, self.w, bias=self.b)


class GroupNorm(Module):
    def __init__(self, channels: int, groups: int):
        self.gamma = Tensor(np.ones(channels, np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, np.float32), requires_grad=True)
        self.groups = groups

    def forward(self, x: Tensor, silu: bool = False) -> Tensor:
        return T.group_norm(x, self.gamma, self.beta, self.groups, silu=silu)


# -- condition embedder ----------------------------------------------------------


class ConditionEmbedder(Module):
    """Trainable (label, color) lookup producing a 2-token condition sequence.

    Token 0 carries color (zeroed under the label-only prompt style), token 1
    the label. Identical inputs always yield the identical embedding.
    """

    def __init__(self, cfg: ModelSection, seed: int):
        rng = stream_rng(seed, "init", 0)
        self.label_table = Tensor(_gauss(rng, (len(LABELS), cfg.cond_dim), 0.1), requires_grad=True)
        self.color_table = Tensor(_gauss(rng, (len(COLOR_NAMES), cfg.cond_dim), 0.1), requires_grad=True)
        self.cond_dim = cfg.cond_dim

    def embed(self, label_ids, color_ids, style: str) -> Tensor:
        if style not in PROMPT_STYLES:
            raise ValueError(f"unknown prompt style {style!r}; expected one of {PROMPT_STYLES}")
        label_ids = np.atleast_1d(np.asarray(label_ids, dtype=np.int64))
        color_ids = np.atleast_1d(np.asarray(color_ids, dtype=np.int64))
        lab = T.gather_rows(self.label_table, label_ids)
        col = T.gather_rows(self.color_table, color_ids)
        if style == "label_only":
            col = T.mul(col, Tensor(np.zeros(1, np.float32)))
        b = label_ids.shape[0]
        col = T.reshape(col, (b, 1, self.cond_dim))
        lab = T.reshape(lab, (b, 1, self.cond_dim))
        return T.concat([col, lab], axis=1)


# -- U-Net blocks -----------------------------------------------------------------


def sinusoidal_time_embedding(ts, dim: int) -> np.ndarray:
    """(B, dim) sin/cos features of integer timesteps."""
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = ts[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1).astype(np.float32)


class ResBlock(Module):
    """Norm+silu -> conv, whose epilogue adds a learned projection of the activated time embedding and the skip."""

    def __init__(self, rng, c_in: int, c_out: int, time_dim: int, groups: int):
        self.norm = GroupNorm(c_in, groups)
        self.conv = Conv2d(rng, c_in, c_out, 3, 1, 1)
        self.time_proj = Linear(rng, time_dim, c_out)
        self.skip = Conv2d(rng, c_in, c_out, 1, 1, 0) if c_in != c_out else None

    def forward(self, x: Tensor, t_act: Tensor) -> Tensor:
        """t_act is silu of the time embedding, computed once per U-Net forward."""
        res = x if self.skip is None else self.skip.forward(x)
        return self.conv.forward(self.norm.forward(x, silu=True), shift=self.time_proj.forward(t_act), residual=res)


def _fingerprint(t: Tensor) -> tuple:
    """Shape, dtype and bytes: equal exactly when an op sees the same input."""
    return t.shape, t.dtype, t.data.tobytes()


class AttnBlock(Module):
    """Cross-attention from spatial positions to the condition tokens."""

    def __init__(self, rng, channels: int, cond_dim: int, groups: int):
        self.norm = GroupNorm(channels, groups)
        self.wq = Linear(rng, channels, channels)
        self.wk = Linear(rng, cond_dim, channels)
        self.wv = Linear(rng, cond_dim, channels)
        self.wo = Linear(rng, channels, channels)
        self.kv = None  # (condition fingerprint, K, V), set only on a MiniUnet.inference_copy

    def keys_values(self, cond: Tensor) -> tuple:
        """K and V of cond: the prepared pair if it was made for these very bytes, else made afresh."""
        if self.kv is not None and self.kv[0] == _fingerprint(cond):
            return self.kv[1:]
        return self.wk.forward(cond), self.wv.forward(cond)

    def forward(self, x: Tensor, cond: Tensor) -> Tensor:
        q = self.wq.forward(T.tokens(self.norm.forward(x)))
        k, v = self.keys_values(cond)
        return T.untokens(self.wo.forward(T.cross_attention(q, k, v)), x)


class UnetBlock(Module):
    """One resolution level: residual conv + condition attention."""

    def __init__(self, rng, c_in: int, c_out: int, cfg: ModelSection):
        self.res = ResBlock(rng, c_in, c_out, cfg.time_dim, cfg.groups)
        self.attn = AttnBlock(rng, c_out, cfg.cond_dim, cfg.groups)

    def forward(self, x: Tensor, t_act: Tensor, cond: Tensor) -> Tensor:
        return self.attn.forward(self.res.forward(x, t_act), cond)


class MiniUnet(Module):
    """Noise predictor eps(z_t, t, cond, ml) on latents with mask conditioning.

    The caller nearest-downsamples the pixel mask by the latent factor once
    per batch (`latent_mask`); forward joins that latent mask ml to z_t as an
    extra channel. Skip connections pair down level i with up level
    depth-1-i; shapes match exactly by construction. `lora.attach` places
    the adapters on its blocks' Linears, by `lora.placement`;
    `inference_copy` folds them in.
    """

    def __init__(self, cfg: ModelSection, seed: int):
        rng = stream_rng(seed, "init", 1)
        self.cfg = cfg
        widths = [cfg.base_width * (2 ** i) for i in range(cfg.depth)]
        self.in_conv = Conv2d(rng, cfg.latent_channels + 1, widths[0], 3, 1, 1)
        self.down = [UnetBlock(rng, widths[i], widths[i], cfg) for i in range(cfg.depth)]
        self.downsample = [
            Conv2d(rng, widths[i], widths[min(i + 1, cfg.depth - 1)], 3, 2, 1)
            for i in range(cfg.depth)
        ]
        self.mid = UnetBlock(rng, widths[-1], widths[-1], cfg)
        self.upsample = []
        self.up = []
        ch = widths[-1]
        for j in range(cfg.depth):
            skip_w = widths[cfg.depth - 1 - j]
            self.upsample.append(ConvTranspose2d(rng, ch, ch))
            self.up.append(UnetBlock(rng, ch + skip_w, skip_w, cfg))
            ch = skip_w
        self.out_norm = GroupNorm(widths[0], cfg.groups)
        self.out_conv = Conv2d(rng, widths[0], cfg.latent_channels, 3, 1, 1)

    def latent_mask(self, m: Tensor) -> Tensor:
        """Nearest-downsampled binary mask at latent resolution, (B,1,h,w)."""
        vals = np.unique(m.data)
        if not np.all(np.isin(vals, (0.0, 1.0))):
            raise ValueError(f"mask must be binary in {{0,1}}, found values {vals[:5]}")
        if m.ndim != 4 or m.shape[1] != 1:
            raise ShapeError("latent_mask", f"mask must be (B,1,H,W), got {m.shape}")
        return T.resize_nearest(m.detach(), m.shape[2] // LATENT_FACTOR, m.shape[3] // LATENT_FACTOR)

    def forward(self, z_t: Tensor, t, cond: Tensor, ml: Tensor) -> Tensor:
        """eps prediction; ml is the (B,1,h,w) latent mask, from `latent_mask`."""
        b = z_t.shape[0]
        if z_t.shape[1] != self.cfg.latent_channels:
            raise ShapeError("unet", f"latent channels {z_t.shape} != {self.cfg.latent_channels}")
        if ml.shape[2:] != z_t.shape[2:]:
            raise ShapeError("unet", f"latent mask {ml.shape} does not match latent {z_t.shape}")
        ts = np.broadcast_to(np.atleast_1d(np.asarray(t, dtype=np.int64)), (b,))
        t_act = T.silu(Tensor(sinusoidal_time_embedding(ts, self.cfg.time_dim)))

        h = self.in_conv.forward(T.concat([z_t, ml], axis=1))
        skips = []
        for i in range(self.cfg.depth):
            h = self.down[i].forward(h, t_act, cond)
            skips.append(h)
            h = self.downsample[i].forward(h)
        h = self.mid.forward(h, t_act, cond)
        for j in range(self.cfg.depth):
            h = self.upsample[j].forward(h)
            h = T.concat([h, skips[self.cfg.depth - 1 - j]], axis=1)
            h = self.up[j].forward(h, t_act, cond)
        return self.out_conv.forward(self.out_norm.forward(h, silu=True))

    def inference_copy(self, cond: Tensor) -> "MiniUnet":
        """A copy of this net for the forwards of one inference pass under cond.

        Each adapter is folded into the Linear it sits on (W0 + alpha B A: one
        matmul instead of three) and cleared on the copy; then each conv's kernel
        rows and, from the folded weights, each attention block's K and V for
        cond are made once. Only the folded weights are new Tensors; every other
        parameter Tensor is shared with this net, which is left unchanged. The
        rows are a snapshot of kernels the copy shares, so the copy lives no
        longer than one batch of calls in which nothing writes them. A forward
        with another condition computes K and V afresh.
        """
        net = self.copy_tree()
        modules = list(net.modules())
        for module in modules:
            if isinstance(module, Linear) and module.adapter is not None:
                module.w, module.adapter = Tensor(module.w.data + module.adapter.dense_update()), None
        for module in modules:
            if isinstance(module, Conv2d):
                module.rows = T.kernel_rows(module.w.data)
            elif isinstance(module, AttnBlock):
                module.kv = (_fingerprint(cond), *module.keys_values(cond))
        return net


# -- VAE ---------------------------------------------------------------------------


class Vae(Module):
    """Deterministic convolutional autoencoder with the x4 spatial downscale f = LATENT_FACTOR.

    encode maps (B,3,H,W) -> (B,C,H/f,W/f); decode inverts the shape and
    squashes output through a sigmoid so pixels stay in [0,1].
    """

    def __init__(self, cfg: ModelSection, seed: int):
        rng = stream_rng(seed, "init", 2)
        self.cfg = cfg
        w = cfg.base_width
        half = max(w // 2, 4)
        self.enc1 = Conv2d(rng, 3, half, 3, 2, 1)
        self.enc2 = Conv2d(rng, half, w, 3, 2, 1)
        self.enc3 = Conv2d(rng, w, cfg.latent_channels, 3, 1, 1)
        self.dec1 = Conv2d(rng, cfg.latent_channels, w, 3, 1, 1)
        self.dec2 = ConvTranspose2d(rng, w, half)
        self.dec3 = ConvTranspose2d(rng, half, half)
        self.dec4 = Conv2d(rng, half, 3, 3, 1, 1)

    def encode(self, x: Tensor) -> Tensor:
        if x.ndim != 4 or x.shape[1] != 3:
            raise ShapeError("vae_encode", f"need (B,3,H,W), got {x.shape}")
        if x.shape[2] % LATENT_FACTOR or x.shape[3] % LATENT_FACTOR:
            raise ShapeError("vae_encode", f"spatial dims {x.shape[2:]} not divisible by {LATENT_FACTOR}")
        h = T.silu(self.enc1.forward(x))
        h = T.silu(self.enc2.forward(h))
        return self.enc3.forward(h)

    def decode(self, z: Tensor) -> Tensor:
        if z.ndim != 4 or z.shape[1] != self.cfg.latent_channels:
            raise ShapeError("vae_decode", f"need (B,{self.cfg.latent_channels},h,w), got {z.shape}")
        h = T.silu(self.dec1.forward(z))
        h = T.silu(self.dec2.forward(h))
        h = T.silu(self.dec3.forward(h))
        return T.sigmoid(self.dec4.forward(h))
