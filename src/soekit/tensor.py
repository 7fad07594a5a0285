"""Dense float32 tensors with reverse-mode automatic differentiation.

Data and gradients live in C-contiguous (row-major) numpy buffers, whatever
layout an op uses inside, so reductions over them add in one order. Every
operation that touches a tensor requiring gradients records itself on the
output (parent references plus a backward closure); ``backward`` replays the
chain rule over a topological ordering of that record. Tensors built with
``requires_grad=False`` never accumulate a gradient and record nothing.

Ops are module functions only (``mul(a, b)``, ``reshape(a, shape)``, ...);
``Tensor`` carries data, gradient and graph links, with no operator or op
method. The one Huber op, ``huber``, takes an optional mask.

Storage is float32. Constructing tensors as float64 is supported so tests can
run finite-difference oracles at higher precision; all ops preserve dtype.

conv2d and conv2d_transpose share one channel-major (C, B, H, W) im2col and
col2im. A GEMM over im2col columns gives conv2d's output, its weight gradient
and its stride-1 input gradient (a correlation with the flipped kernel), and
both of conv2d_transpose's gradients; col2im scatters a column product tap by
tap for conv2d's stride-2 input gradient and conv2d_transpose's output. Each
contraction runs in float64 and rounds once to the storage dtype: float32
products are exact in float64, so every result is bit-equal to a
direct-summation oracle whichever path, summation order or BLAS blocking
produced it.

resize_nearest and resize_bilinear resample a (B, C, H, W) map at half-pixel
centres, either whole or from one (x0, y0, x1, y1) box per sample, so a batch
of crop-and-resizes is one gather per tap.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided


class ShapeError(ValueError):
    """Raised when operand shapes do not conform to an op's shape rule."""

    def __init__(self, op: str, message: str):
        super().__init__(f"{op}: {message}")
        self.op = op


class Tensor:
    """N-dimensional dense array with optional gradient tracking.

    Attributes:
        data: C-contiguous numpy array (float32 unless built otherwise).
        requires_grad: whether backward accumulates into ``grad``.
        grad: numpy array of the same shape as ``data``, or None.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        self.data = np.ascontiguousarray(np.asarray(data, dtype=dtype))
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self._op = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def detach(self) -> "Tensor":
        """View of the same data with no graph linkage and no gradient."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)


# -- graph machinery ----------------------------------------------------------


def _make(data, parents, backward_fn, op: str) -> Tensor:
    """Wrap op output; record parents + backward only when a parent needs grad."""
    out = Tensor(data, requires_grad=False, dtype=data.dtype)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
        out._op = op
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=t.data.dtype, order="C")
    else:
        t.grad += g


def topo_order(root: Tensor) -> list:
    """Tensors reachable from root, every node after all of its producers."""
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Populate ``grad`` on every requires_grad tensor reachable from loss.

    Gradients accumulate additively, so a tensor used on several paths
    receives the sum of all path contributions.
    """
    if loss.size != 1:
        raise ShapeError("backward", f"loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss is not connected to any requires_grad tensor")
    order = topo_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


# -- broadcasting helpers ------------------------------------------------------


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum g over dims that were broadcast up from `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _broadcast(op: str, ufunc, a: Tensor, b: Tensor) -> np.ndarray:
    """ufunc(a.data, b.data), with numpy's broadcast error re-raised as a ShapeError naming op."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise ShapeError(op, f"shapes {a.shape} and {b.shape} do not broadcast") from None


# -- elementwise ops -----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast("add", np.add, a, b)

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(out, (a, b), bw, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast("sub", np.subtract, a, b)

    def bw(g):
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(out, (a, b), bw, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; also the mask-gating op (mask as non-grad tensor)."""
    out = _broadcast("mul", np.multiply, a, b)

    def bw(g):
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(out, (a, b), bw, "mul")


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp only ever sees non-positive arguments; the numerator is 1 where
    # x >= 0 (t + 1 clamped to 1) and t elsewhere, chosen without a branch
    t = np.exp(-np.abs(x))
    return np.minimum(t + (x >= 0), 1.0) / (1.0 + t)


def sigmoid(a: Tensor) -> Tensor:
    out = _stable_sigmoid(a.data)

    def bw(g):
        _accumulate(a, g * out * (1.0 - out))

    return _make(out, (a,), bw, "sigmoid")


def silu(a: Tensor) -> Tensor:
    s = _stable_sigmoid(a.data)
    out = a.data * s

    def bw(g):
        _accumulate(a, g * (s * (1.0 + a.data * (1.0 - s))))

    return _make(out, (a,), bw, "silu")


# -- reductions and reshaping ---------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape))
        else:
            gk = g if keepdims else np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(gk, a.shape))

    return _make(np.asarray(out), (a,), bw, "sum")


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    n = a.size if axis is None else a.size // np.asarray(out).size

    def bw(g):
        if axis is None:
            _accumulate(a, np.broadcast_to(g / n, a.shape))
        else:
            gk = g if keepdims else np.expand_dims(g, axis)
            _accumulate(a, np.broadcast_to(gk / n, a.shape))

    return _make(np.asarray(out), (a,), bw, "mean")


def reshape(a: Tensor, shape) -> Tensor:
    def bw(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), bw, "reshape")


def transpose(a: Tensor, axes=None) -> Tensor:
    axes_ = tuple(axes) if axes is not None else tuple(reversed(range(a.ndim)))
    inv = np.argsort(axes_)

    def bw(g):
        _accumulate(a, g.transpose(inv))

    return _make(np.ascontiguousarray(a.data.transpose(axes_)), (a,), bw, "transpose")


def gather_rows(table: Tensor, ids) -> Tensor:
    """Select rows of a 2-D table by integer ids; duplicates allowed.

    Backward scatter-adds, so repeated ids accumulate their gradients.
    """
    if table.ndim != 2:
        raise ShapeError("gather_rows", f"table must be 2-D, got {table.shape}")
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(f"gather_rows: ids out of range [0, {table.shape[0]})")
    out = table.data[ids]

    def bw(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        _accumulate(table, gt)

    return _make(np.ascontiguousarray(out), (table,), bw, "gather_rows")


def concat(tensors, axis: int = 1) -> Tensor:
    """Concatenate along `axis` (channel axis by default)."""
    shapes = [t.shape for t in tensors]
    base = list(shapes[0])
    for s in shapes[1:]:
        if len(s) != len(base) or any(s[i] != base[i] for i in range(len(base)) if i != axis % len(base)):
            raise ShapeError("concat", f"incompatible shapes {shapes} along axis {axis}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bw(g):
        for t, o0, o1 in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(o0, o1)
            _accumulate(t, g[tuple(sl)])

    return _make(out, tuple(tensors), bw, "concat")


# -- matmul and attention --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul", f"operands must be >= 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError("matmul", f"inner dims differ: {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def bw(g):
        _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(out, (a, b), bw, "matmul")


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; rows sum to one."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        _accumulate(a, out * (g - (g * out).sum(axis=-1, keepdims=True)))

    return _make(out, (a,), bw, "softmax")


def log_softmax(a: Tensor) -> Tensor:
    """Log of softmax over the last axis, computed without underflow."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def bw(g):
        _accumulate(a, g - soft * g.sum(axis=-1, keepdims=True))

    return _make(out, (a,), bw, "log_softmax")


def cross_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Scaled dot-product attention: softmax(q k^T / sqrt(d)) v.

    q: (B, Nq, d), k: (B, Nk, d), v: (B, Nk, dv). Composed from matmul and
    softmax so gradients flow through the recorded primitives.
    """
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError("cross_attention", f"q/k feature dims differ: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError("cross_attention", f"k/v sequence lengths differ: {k.shape} vs {v.shape}")
    scale = 1.0 / np.sqrt(q.shape[-1])
    scores = mul(matmul(q, transpose(k, (0, 2, 1))), Tensor(scale, dtype=q.dtype))
    return matmul(softmax(scores), v)


# -- convolutions ------------------------------------------------------------------


def _im2col(xc: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Columns (C*kh*kw, B*ho*wo), rows ordered (c, ky, kx), of a (C, B, H, W) buffer."""
    c, b = xc.shape[:2]
    sc, sb, sh, sw = xc.strides
    view = as_strided(xc, shape=(c, kh, kw, b, ho, wo), strides=(sc, sh, sw, sb, sh * stride, sw * stride))
    return view.reshape(c * kh * kw, b * ho * wo)


def _col2im(cols: np.ndarray, shape, stride: int) -> np.ndarray:
    """Scatter-add (C, kh, kw, B, ho, wo) columns into a zero (C, B, H, W) float64 buffer, tap by tap."""
    _, kh, kw, _, ho, wo = cols.shape
    out = np.zeros(shape, np.float64)
    for ky in range(kh):
        for kx in range(kw):
            out[:, :, ky : ky + ho * stride : stride, kx : kx + wo * stride : stride] += cols[:, ky, kx]
    return out


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation), NCHW input, (CO, CI, KH, KW) kernel.

    The output and the weight gradient are GEMMs over im2col columns. At
    stride 1 so is the input gradient: the output gradient, zero-padded by the
    kernel size less one, correlated with the flipped, channel-transposed
    kernel. At stride 2 the output gradient would first need zeros between its
    samples, so col2im scatters the column product w^T g tap by tap instead.
    Each contracts in float64 and rounds once to the storage dtype, making it
    bit-equal to direct summation.
    """
    if stride not in (1, 2):
        raise ShapeError("conv2d", f"stride must be 1 or 2, got {stride}")
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv2d", f"need 4-D input and kernel, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError("conv2d", f"channel mismatch: input {x.shape} vs kernel {w.shape}")
    b, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    if h + 2 * padding < kh or wd + 2 * padding < kw:
        raise ShapeError("conv2d", f"kernel {w.shape} larger than padded input {x.shape}")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1

    padded = (ci, b, h + 2 * padding, wd + 2 * padding)
    xp = np.zeros(padded, np.float64)
    xp[:, :, padding : padding + h, padding : padding + wd] = x.data.transpose(1, 0, 2, 3)
    cols = _im2col(xp, kh, kw, stride, ho, wo)
    wm = w.data.astype(np.float64).reshape(co, -1)
    out = (wm @ cols).reshape(co, b, ho, wo).transpose(1, 0, 2, 3).astype(x.dtype, order="C")
    cols = cols if w.requires_grad else None  # only the weight gradient reads it

    def bw(g):
        gm = np.ascontiguousarray(g.transpose(1, 0, 2, 3), np.float64).reshape(co, -1)
        if w.requires_grad:
            _accumulate(w, (gm @ cols.T).reshape(w.shape).astype(w.dtype))
        if x.requires_grad and stride == 1:
            # correlate g, zero-padded by the kernel size less one, with the flipped kernel
            gp = np.zeros((co, b, ho + 2 * kh - 2, wo + 2 * kw - 2), np.float64)
            gp[:, :, kh - 1 : kh - 1 + ho, kw - 1 : kw - 1 + wo] = gm.reshape(co, b, ho, wo)
            wf = np.ascontiguousarray(w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), np.float64)
            gx = wf.reshape(ci, -1) @ _im2col(gp[:, :, padding:, padding:], kh, kw, 1, h, wd)
            _accumulate(x, gx.reshape(ci, b, h, wd).transpose(1, 0, 2, 3).astype(x.dtype))
        elif x.requires_grad:
            gxp = _col2im((wm.T @ gm).reshape(ci, kh, kw, b, ho, wo), padded, stride)
            gx = gxp[:, :, padding : padding + h, padding : padding + wd].transpose(1, 0, 2, 3)
            _accumulate(x, gx.astype(x.dtype))

    return _make(out, (x, w), bw, "conv2d")


def conv2d_transpose(x: Tensor, w: Tensor, stride: int = 2) -> Tensor:
    """Transposed convolution, NCHW input, (CI, CO, KH, KW) kernel, stride 2, exact as conv2d."""
    if stride != 2:
        raise ShapeError("conv2d_transpose", f"stride must be 2, got {stride}")
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv2d_transpose", f"need 4-D input and kernel, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError("conv2d_transpose", f"channel mismatch: input {x.shape} vs kernel {w.shape}")
    b, ci, hi, wi = x.shape
    _, co, kh, kw = w.shape
    ho, wo = (hi - 1) * stride + kh, (wi - 1) * stride + kw

    xm = np.ascontiguousarray(x.data.transpose(1, 0, 2, 3), np.float64).reshape(ci, -1)
    wm = w.data.astype(np.float64).reshape(ci, -1)
    out64 = _col2im((wm.T @ xm).reshape(co, kh, kw, b, hi, wi), (co, b, ho, wo), stride)
    out = out64.transpose(1, 0, 2, 3).astype(x.dtype, order="C")
    xm = xm if w.requires_grad else None  # only the weight gradient reads it

    def bw(g):
        gcols = _im2col(np.ascontiguousarray(g.transpose(1, 0, 2, 3), np.float64), kh, kw, stride, hi, wi)
        if x.requires_grad:
            gx = (wm @ gcols).reshape(ci, b, hi, wi).transpose(1, 0, 2, 3)
            _accumulate(x, gx.astype(x.dtype))
        if w.requires_grad:
            _accumulate(w, (xm @ gcols.T).reshape(w.shape).astype(w.dtype))

    return _make(out, (x, w), bw, "conv2d_transpose")


# -- normalisation ------------------------------------------------------------------


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int, eps: float = 1e-5) -> Tensor:
    """Group normalisation over (channels/groups, H, W) per sample."""
    if x.ndim != 4:
        raise ShapeError("group_norm", f"need 4-D input, got {x.shape}")
    b, c, h, w = x.shape
    if c % groups:
        raise ShapeError("group_norm", f"{c} channels not divisible into {groups} groups")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("group_norm", f"gamma/beta must be ({c},), got {gamma.shape} and {beta.shape}")

    xg = x.data.reshape(b, groups, -1)
    d = xg - xg.mean(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt((d * d).sum(axis=2, keepdims=True) / xg.shape[2] + eps)
    d *= inv
    xhat = d.reshape(b, c, h, w)
    out = xhat * gamma.data.reshape(1, c, 1, 1)
    out += beta.data.reshape(1, c, 1, 1)

    def bw(g):
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=(0, 2, 3)))
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=(0, 2, 3)))
        if x.requires_grad:
            u = (g * gamma.data.reshape(1, c, 1, 1)).reshape(b, groups, -1)
            xh = xhat.reshape(b, groups, -1)
            mu_u = u.mean(axis=2, keepdims=True)
            mu_ux = (u * xh).mean(axis=2, keepdims=True)
            gx = inv * (u - mu_u - xh * mu_ux)
            _accumulate(x, gx.reshape(b, c, h, w).astype(x.dtype))

    return _make(out.astype(x.dtype, copy=False), (x, gamma, beta), bw, "group_norm")


# -- resampling ---------------------------------------------------------------------


def _axis_taps(lo, hi, n_out: int, bilinear: bool, dtype) -> list:
    """(source index, weight) taps along one axis, each (B, n_out), for per-sample spans [lo, hi).

    Half-pixel centres within each span, clamped to its edges. Nearest has one
    tap of weight 1 (exact in any float); bilinear has a floor and a ceiling tap.
    """
    lo, top = lo[:, None], (hi - lo - 1)[:, None]
    src = (np.arange(n_out) + 0.5) * ((top + 1) / n_out)
    if not bilinear:
        return [(lo + np.minimum(np.floor(src).astype(np.int64), top), np.ones(src.shape, dtype))]
    src = src - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = (src - i0).astype(dtype)
    return [(lo + np.minimum(np.maximum(i0, 0), top), 1 - frac), (lo + np.minimum(i0 + 1, top), frac)]


def _resample(x: Tensor, out_h: int, out_w: int, boxes, bilinear: bool, op: str) -> Tensor:
    """Resize each sample's box of a (B, C, H, W) map to out_h x out_w.

    One gather per tap serves the whole batch in forward, and one scatter-add
    per tap in backward, so repeated source pixels accumulate their gradients.
    """
    if x.ndim != 4:
        raise ShapeError(op, f"need 4-D input, got {x.shape}")
    b, c, h, w = x.shape
    box = np.array([(0, 0, w, h)] * b if boxes is None else boxes, np.int64)
    if box.shape != (b, 4):
        raise ShapeError(op, f"need {b} boxes (x0, y0, x1, y1), got shape {box.shape}")
    bad = ((box[:, :2] < 0) | (box[:, 2:] > (w, h)) | (box[:, 2:] <= box[:, :2])).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ShapeError(op, f"box {tuple(box[i].tolist())} of sample {i} is empty or outside map {h}x{w}")
    x0, y0, x1, y1 = box.T
    rows = _axis_taps(y0, y1, out_h, bilinear, x.dtype)
    cols = _axis_taps(x0, x1, out_w, bilinear, x.dtype)
    base = (np.arange(b)[:, None, None, None] * c + np.arange(c)[None, :, None, None]) * h
    taps = [((base + ii[:, None, :, None]) * w + jj[:, None, None, :], (wy[:, :, None] * wx[:, None, :])[:, None])
            for ii, wy in rows for jj, wx in cols]
    out = reduce(np.add, [x.data.reshape(-1)[flat] * wt for flat, wt in taps])

    def bw(g):
        ga = np.zeros(x.size, x.dtype)
        for flat, wt in taps:
            np.add.at(ga, flat.reshape(-1), (g * wt).reshape(-1))
        _accumulate(x, ga.reshape(x.shape))

    return _make(np.ascontiguousarray(out), (x,), bw, op)


def resize_nearest(x: Tensor, out_h: int, out_w: int, boxes=None) -> Tensor:
    """Nearest-neighbour resize of (B, C, H, W) to (B, C, out_h, out_w), half-pixel centres.

    Samples each (x0, y0, x1, y1) box of `boxes`, one per sample, or the whole map when None.
    """
    return _resample(x, out_h, out_w, boxes, False, "resize_nearest")


def resize_bilinear(x: Tensor, out_h: int, out_w: int, boxes=None) -> Tensor:
    """Bilinear resize of (B, C, H, W) to (B, C, out_h, out_w), half-pixel centres, edge clamp.

    Samples each (x0, y0, x1, y1) box of `boxes`, one per sample, or the whole map when None.
    """
    return _resample(x, out_h, out_w, boxes, True, "resize_bilinear")


# -- losses -------------------------------------------------------------------------


def huber(pred: Tensor, target: Tensor, mask: Tensor = None, delta: float = 1.0) -> Tensor:
    """Mean Huber loss: 0.5 r^2 below delta, delta(|r| - delta/2) beyond.

    With a mask, residuals are mask-gated and averaged over masked entries
    only. The mask broadcasts against pred (e.g. one channel over many); the
    normaliser counts masked entries after broadcast, so values outside the
    mask can never move the loss. No mask means every entry counts.
    """
    if pred.shape != target.shape:
        raise ShapeError("huber", f"pred {pred.shape} vs target {target.shape}")
    if delta <= 0:
        raise ValueError(f"huber: delta must be positive, got {delta}")
    if mask is None:
        mask = Tensor(np.ones((1,) * pred.ndim), dtype=pred.dtype)
    if mask.requires_grad:
        raise ValueError("huber: mask must not require gradients")
    try:
        m = np.broadcast_to(mask.data, pred.shape)
    except ValueError:
        raise ShapeError("huber", f"mask {mask.shape} does not broadcast to pred {pred.shape}") from None
    count = float(m.sum())
    if count == 0:
        raise ValueError("huber: mask selects no elements (degenerate sample)")
    r = (pred.data - target.data) * m
    quad = np.abs(r) <= delta
    elems = np.where(quad, 0.5 * r * r, delta * (np.abs(r) - 0.5 * delta))
    out = np.asarray(elems.sum() / count, dtype=pred.dtype)

    def bw(g):
        d = np.where(quad, r, delta * np.sign(r)) * m * (g / count)
        _accumulate(pred, d.astype(pred.dtype))
        _accumulate(target, (-d).astype(target.dtype))

    return _make(out, (pred, target), bw, "huber")


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error, composed from recorded primitives."""
    if pred.shape != target.shape:
        raise ShapeError("mse", f"pred {pred.shape} vs target {target.shape}")
    d = sub(pred, target)
    return mean(mul(d, d))
