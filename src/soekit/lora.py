"""Low-rank adapters for the U-Net's dense and attention-projection weights.

An adapter holds the factor pair (A, B) of a rank-r update dW = B A for a
base weight W0 of shape (j, k) (row-vector convention, j in, k out): B is
(j, r) and zero-initialised, A is (r, k) and Gaussian-initialised, so the
update is exactly zero until training moves B. `attach` sets each adapter
on the `Linear` whose weight it updates, and training applies the update
factorised -- x B A --; inference materialises it once, folding it into W0
on a per-call copy of the U-Net (`MiniUnet.inference_copy`).

Where adapters go is SO-LoRA's placement rule, stated once as data here:
`BLOCK_LINEARS` names the Linears of a U-Net block that get one, and
`GROUPS` the blocks each selectable group adapts. Convolutions are never
adapted.
"""

from dataclasses import dataclass, field

import numpy as np

from soekit import tensor as T
from soekit.config import LoraSection
from soekit.nets import MiniUnet
from soekit.rng import stream_rng
from soekit.tensor import Tensor

# the adapted Linears of a UnetBlock, as paths under it
BLOCK_LINEARS = ("res.time_proj", "attn.wq", "attn.wk", "attn.wv", "attn.wo")
# group -> the down level it adapts, paired with the up level of the same resolution, up.{depth - 1 - k};
# "mid" is the mid block alone. Names follow a depth-4 reference net's ablation axes; a group exists only
# at a depth that has its down level.
GROUPS = {"mid": None, "down0_up3": 0, "down1_up1": 1, "down2_up2": 2}


def placement(depth: int) -> dict:
    """Each group a U-Net of this depth has, mapped to the paths of the blocks it adapts."""
    return {group: ("mid",) if k is None else (f"down.{k}", f"up.{depth - 1 - k}")
            for group, k in GROUPS.items() if k is None or k < depth}


class LoraAdapter:
    """One (A, B) factor pair bound to a named base weight."""

    def __init__(self, target: str, j: int, k: int, rank: int, alpha: float, init_std: float, rng):
        if rank >= min(j, k):
            raise ValueError(f"lora rank {rank} must be < min(j, k) = {min(j, k)} for {target!r}")
        self.alpha = alpha
        self.a = Tensor((rng.standard_normal((rank, k)) * init_std).astype(np.float32), requires_grad=True)
        self.b = Tensor(np.zeros((j, rank), np.float32), requires_grad=True)

    def delta(self, x: Tensor) -> Tensor:
        """Factorised update alpha * ((x @ B) @ A); never materialises B A."""
        return T.mul(T.matmul(T.matmul(x, self.b), self.a), Tensor(np.asarray(self.alpha, x.dtype), dtype=x.dtype))

    def dense_update(self) -> np.ndarray:
        """alpha * B A, materialised only for folding into W0."""
        return (self.alpha * (self.b.data @ self.a.data)).astype(np.float32)


@dataclass
class LoraAdapterSet:
    """Adapters keyed by target weight name, as `attach` set them on one model's Linears."""

    adapters: dict = field(default_factory=dict)

    def params(self) -> dict:
        out = {}
        for target, ad in self.adapters.items():
            out[f"lora.{target}.A"] = ad.a
            out[f"lora.{target}.B"] = ad.b
        return out


def attach(base: MiniUnet, cfg: LoraSection, seed: int) -> LoraAdapterSet:
    """Create an adapter on each `BLOCK_LINEARS` Linear of each block of the selected groups, in that order,
    finding each Linear by its `Module.named_modules` path.

    Base weights are flagged non-trainable; adapter factors are trainable.
    Same seed, same config => bit-identical A matrices.
    """
    if not cfg.blocks:
        raise ValueError("lora config selects no blocks")
    groups = placement(base.cfg.depth)
    unknown = [b for b in cfg.blocks if b not in groups]
    if unknown:
        raise ValueError(f"unknown adapter block(s) {unknown}; this net has {sorted(groups)}")
    rng = stream_rng(seed, "lora")
    modules = dict(base.named_modules())
    adapter_set = LoraAdapterSet()
    for group in cfg.blocks:
        for block in groups[group]:
            for name in (f"{block}.{path}" for path in BLOCK_LINEARS):
                linear = modules[name]
                j, k = linear.w.shape
                ad = LoraAdapter(name, j, k, cfg.rank, cfg.alpha, cfg.init_std, rng)
                linear.adapter = ad
                adapter_set.adapters[name] = ad
    base.set_trainable(False)
    return adapter_set

