"""soekit: desk-scale small-object editing with latent diffusion.

A self-contained stack: a numpy-backed reverse-mode autodiff engine, a
linear-beta noise schedule with DDIM sampling, a mini VAE + cross-attention
U-Net, low-rank adapters placed by SO-LoRA's rule and folded into each
inference copy of the U-Net, a cross-scale distillation trainer, a
procedural shape dataset, and masked-region evaluation metrics.
"""

from soekit.tensor import Tensor

__all__ = ["Tensor"]
__version__ = "0.1.0"
