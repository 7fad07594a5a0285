"""Low-rank adapters for the U-Net's dense and attention-projection weights.

An adapter holds the factor pair (A, B) of a rank-r update dW = B A for a
base weight W0 of shape (j, k) (row-vector convention, j in, k out): B is
(j, r) and zero-initialised, A is (r, k) and Gaussian-initialised, so the
update is exactly zero until training moves B. `attach` sets each adapter
on the `Linear` whose weight it updates, and training applies the update
factorised -- x B A --; inference materialises it once, folding it into W0
on a per-call copy of the U-Net (`MiniUnet.inference_copy`).

Selectable groups mirror a depth-4 reference net's ablation axes
("mid", "down2_up2", "down1_up1", "down0_up3") mapped onto the mini net's
levels; convolutions are never adapted.
"""

from dataclasses import dataclass, field

import numpy as np

from soekit import tensor as T
from soekit.config import LoraSection
from soekit.nets import MiniUnet
from soekit.rng import stream_rng
from soekit.tensor import Tensor


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
    """Create adapters on every dense/attention weight of the selected groups.

    Base weights are flagged non-trainable; adapter factors are trainable.
    Same seed, same config => bit-identical A matrices.
    """
    if not cfg.blocks:
        raise ValueError("lora config selects no blocks")
    groups = base.block_map()
    unknown = [b for b in cfg.blocks if b not in groups]
    if unknown:
        raise ValueError(f"unknown adapter block(s) {unknown}; this net has {sorted(groups)}")
    rng = stream_rng(seed, "lora")
    adapter_set = LoraAdapterSet()
    for group in cfg.blocks:
        for prefix, block in groups[group]:
            for name, linear in block.adaptable_linears(prefix).items():
                j, k = linear.w.shape
                ad = LoraAdapter(name, j, k, cfg.rank, cfg.alpha, cfg.init_std, rng)
                linear.adapter = ad
                adapter_set.adapters[name] = ad
    base.set_trainable(False)
    return adapter_set

