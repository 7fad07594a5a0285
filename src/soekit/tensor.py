"""Dense float32 tensors with reverse-mode automatic differentiation.

Data and gradients live in C-contiguous (row-major) numpy buffers, whatever
layout an op uses inside, so reductions over them add in one order. Every op
hands ``_make`` its output and one gradient function per parent, mapping the
output gradient to that parent's gradient. Only the parents that require
gradients are recorded on the output, each with its function, and a frozen
parent's function is dropped unrun; ``backward`` replays the chain rule over
a topological ordering of that record. Tensors built with
``requires_grad=False`` never accumulate a gradient and record nothing.

A pass releases what it has spent. Each op output's gradient is dropped as
soon as its gradient function has run, and when the pass ends every op output
it reached is cut out of the graph: its parents are forgotten and its
gradient function raises. The pass keeps the leaves' gradients, which the
optimizers read, and every Tensor's data. So a caller holding an output of
one step keeps no graph alive into the next, and a second backward over a
spent graph fails instead of adding wrong gradients.

Ops are module functions only (``mul(a, b)``, ``reshape(a, shape)``, ...);
``Tensor`` carries data, gradient and graph links, with no operator or op
method. The one Huber op, ``huber``, takes an optional mask.

Storage is float32. Constructing tensors as float64 is supported so tests can
run finite-difference oracles at higher precision; all ops preserve dtype.

conv2d runs on one correlation core. It copies an input once per kernel
column (a slice per stride phase) into one zero float64 buffer
(``_windows``), whose views are each kernel row's (kw*C, ho*B*wo) window
matrix, and runs one GEMM per kernel row, accumulated in place. It gives
conv2d's output, its weight gradient and its stride-1 input gradient (the
output gradient correlated with the flipped kernel); the stride-2 input
gradient scatters a column product tap by tap instead. conv2d_transpose
takes only the 2x2, stride-2 kernel the nets build, whose taps are disjoint:
its output is one GEMM and a depth-to-space reshape, and its gradients are
the inverse reshape and one GEMM per operand. Each contraction runs in
float64 and rounds once to the storage dtype: float32 products are exact in
float64, so every result is bit-equal to a direct-summation oracle whichever
path, summation order or BLAS blocking produced it.

Fused ops run the small ops around the U-Net's large ones with the
expressions and rounding order of the ops they replace, so outputs and
gradients keep their bytes: conv2d's epilogue adds a (CO,) bias, a (B, CO)
``shift`` and a ``residual``, in that order; matmul takes a bias; group_norm
may end in SiLU; ``tokens``/``untokens`` lay a map out as attention tokens and
back onto a residual; cross_attention is one op. Their parents keep the order
the replaced ops reached them in (untokens: residual, then tokens), because
backward's depth-first order follows it, and sets the order in which a tensor
feeding several ops, the condition embedding among them, sums its gradients.

The kernel operand of that GEMM is the kernel's rows: the kernel relaid as
float64 (KH, O, KW*I) by ``kernel_rows``. conv2d makes them from ``w`` on
every call unless it is handed them as ``rows``, so a caller that runs one
unchanging kernel many times can make them once. Prepared rows are a
snapshot: they go stale when the kernel is written, so only a caller that
owns the kernel for their whole life may keep them.

resize_nearest and resize_bilinear resample a (B, C, H, W) map at half-pixel
centres, either whole or from one (x0, y0, x1, y1) box per sample, so a batch
of crop-and-resizes is one call. They gather by axis, rows then columns, so
no full-size index array is built in forward.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate

import numpy as np


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


def _make(data, parents, grads, op: str, pre=None) -> Tensor:
    """Wrap an op's output and record the parents that require gradients.

    ``grads`` holds one function per parent, mapping the output gradient to
    that parent's gradient. Only the pairs whose parent requires a gradient
    are kept: those parents become ``_parents``, and ``_backward_fn`` runs
    their functions and adds each result into the parent's ``grad``. The
    other functions are dropped unrun, with whatever only they hold. ``pre``,
    if given, maps the output gradient once to what every function takes.
    """
    out = Tensor(data, requires_grad=False, dtype=data.dtype)
    # plain loops: most calls outside training take the early return, and a
    # generator or comprehension here costs more than the small ops it wraps
    for p in parents:
        if p.requires_grad:
            break
    else:
        return out
    kept, fns = [], []
    for p, fn in zip(parents, grads):
        if p.requires_grad:
            kept.append(p)
            fns.append(fn)

    def backward_fn(g):
        if pre is not None:
            g = pre(g)
        for p, fn in zip(kept, fns):
            gp = fn(g)
            if p.grad is None:
                # copied, never adopted: add hands one array to both parents, and
                # reshape, transpose, concat, sum_ and mean hand views
                p.grad = np.array(gp, dtype=p.data.dtype, order="C")
            else:
                p.grad += gp

    out.requires_grad = True
    out._parents = tuple(kept)
    out._backward_fn = backward_fn
    out._op = op
    return out


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


_SPENT = "backward: this graph was released by an earlier backward; build it again"


def _spent(g):
    raise RuntimeError(_SPENT)


def backward(loss: Tensor):
    """Populate ``grad`` on every leaf tensor that requires grad and is reachable from loss.

    Gradients accumulate additively, so a tensor used on several paths
    receives the sum of all path contributions. The pass keeps the leaves'
    gradients and every Tensor's data, and releases the rest: each op
    output's gradient (the loss's included) as soon as it has been passed on,
    and at the end the graph itself. Every op output reached is left with no
    parents and a gradient function that raises, so a second backward through
    it fails with a RuntimeError, before any gradient has run.
    """
    if loss.size != 1:
        raise ShapeError("backward", f"loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss is not connected to any requires_grad tensor")
    order = topo_order(loss)
    if any(node._backward_fn is _spent for node in order):
        raise RuntimeError(_SPENT)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)
            node.grad = None
    for node in order:
        if node._backward_fn is not None:
            node._parents = ()
            node._backward_fn = _spent


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
    return _make(out, (a, b), (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)), "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = _broadcast("sub", np.subtract, a, b)
    return _make(out, (a, b), (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(-g, b.shape)), "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; also the mask-gating op (mask as non-grad tensor)."""
    out = _broadcast("mul", np.multiply, a, b)
    grads = (lambda g: _unbroadcast(g * b.data, a.shape), lambda g: _unbroadcast(g * a.data, b.shape))
    return _make(out, (a, b), grads, "mul")


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    # exp only ever sees non-positive arguments; the numerator is 1 where
    # x >= 0 (t + 1 clamped to 1) and t elsewhere, chosen without a branch
    t = np.exp(-np.abs(x))
    return np.minimum(t + (x >= 0), 1.0) / (1.0 + t)


def sigmoid(a: Tensor) -> Tensor:
    out = _stable_sigmoid(a.data)
    return _make(out, (a,), (lambda g: g * out * (1.0 - out),), "sigmoid")


def _silu(x: np.ndarray) -> tuple:
    """silu(x) and the map from its output gradient to x's: the silu op's, and group_norm's when it ends in SiLU."""
    s = _stable_sigmoid(x)
    return x * s, lambda g: g * (s * (1.0 + x * (1.0 - s)))


def silu(a: Tensor) -> Tensor:
    out, grad = _silu(a.data)
    return _make(out, (a,), (grad,), "silu")


# -- reductions and reshaping ---------------------------------------------------


def sum_(a: Tensor, axis=None, keepdims=False) -> Tensor:
    kept = a.data.sum(axis=axis, keepdims=True)  # a 1 at each reduced axis, whence the gradient broadcasts
    return _make(kept if keepdims else kept.squeeze(axis), (a,),
                 (lambda g: np.broadcast_to(g.reshape(kept.shape), a.shape),), "sum")


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    kept = a.data.mean(axis=axis, keepdims=True)  # as in sum_
    n = a.size // kept.size
    return _make(kept if keepdims else kept.squeeze(axis), (a,),
                 (lambda g: np.broadcast_to(g.reshape(kept.shape) / n, a.shape),), "mean")


def reshape(a: Tensor, shape) -> Tensor:
    return _make(a.data.reshape(shape), (a,), (lambda g: g.reshape(a.shape),), "reshape")


def transpose(a: Tensor, axes=None) -> Tensor:
    axes_ = tuple(axes) if axes is not None else tuple(reversed(range(a.ndim)))
    inv = np.argsort(axes_)
    return _make(np.ascontiguousarray(a.data.transpose(axes_)), (a,), (lambda g: g.transpose(inv),), "transpose")


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

    def table_grad(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return gt

    return _make(np.ascontiguousarray(out), (table,), (table_grad,), "gather_rows")


def concat(tensors, axis: int = 1) -> Tensor:
    """Concatenate along `axis` (channel axis by default)."""
    try:
        out = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError:
        raise ShapeError("concat", f"incompatible shapes {[t.shape for t in tensors]} along axis {axis}") from None
    offsets = list(accumulate([0] + [t.shape[axis] for t in tensors]))
    lead = (slice(None),) * (axis % out.ndim)
    grads = [lambda g, part=lead + (slice(o0, o1),): g[part] for o0, o1 in zip(offsets[:-1], offsets[1:])]
    return _make(out, tuple(tensors), grads, "concat")


# -- matmul and attention --------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: Tensor = None) -> Tensor:
    """a @ b, plus an optional (N,) bias added in place after the product: add(a @ b, bias) as one op."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul", f"operands must be >= 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError("matmul", f"inner dims differ: {a.shape} vs {b.shape}")
    out = a.data @ b.data
    grads = (lambda g: _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape),
             lambda g: _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))
    if bias is None:
        return _make(out, (a, b), grads, "matmul")
    if bias.shape != out.shape[-1:]:
        raise ShapeError("matmul", f"bias must be {out.shape[-1:]}, got {bias.shape}")
    out += bias.data
    return _make(out, (a, b, bias), grads + (lambda g: _unbroadcast(g, bias.shape),), "matmul")


def _softmax(x: np.ndarray) -> np.ndarray:
    """Over the last axis; each reduction is the ufunc's own, which ndarray.max and .sum reach through Python."""
    e = np.exp(x - np.maximum.reduce(x, -1, keepdims=True))
    return e / np.add.reduce(e, -1, keepdims=True)


def _softmax_grad(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    return out * (g - np.add.reduce(g * out, -1, keepdims=True))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; rows sum to one."""
    out = _softmax(a.data)
    return _make(out, (a,), (lambda g: _softmax_grad(out, g),), "softmax")


def log_softmax(a: Tensor) -> Tensor:
    """Log of softmax over the last axis, computed without underflow."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)
    return _make(out, (a,), (lambda g: g - soft * g.sum(axis=-1, keepdims=True),), "log_softmax")


def cross_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(q k^T / sqrt(d)) v as one op, by the expressions of the matmul, transpose, mul and
    softmax ops it replaces; backward goes back through v and the softmax once, for both q and k."""
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3 or k.shape[::2] != q.shape[::2] or v.shape[:2] != k.shape[:2]:
        raise ShapeError("cross_attention", f"need (B, Nq, d), (B, Nk, d), (B, Nk, dv); "
                                            f"got {q.shape}, {k.shape}, {v.shape}")
    scale = np.asarray(1.0 / np.sqrt(q.shape[-1]), q.dtype)
    kt = np.ascontiguousarray(k.data.transpose(0, 2, 1))
    p = _softmax(q.data @ kt * scale)

    def pre(g):  # the output gradient, and that of the unscaled scores q k^T
        return g, _softmax_grad(p, g @ np.swapaxes(v.data, -1, -2)) * scale

    grads = (lambda gs: gs[1] @ np.swapaxes(kt, -1, -2),
             lambda gs: (np.swapaxes(q.data, -1, -2) @ gs[1]).transpose(0, 2, 1),
             lambda gs: np.swapaxes(p, -1, -2) @ gs[0])
    return _make(p @ v.data, (q, k, v), grads, "cross_attention", pre)


def tokens(x: Tensor) -> Tensor:
    """A (B, C, H, W) map as (B, H*W, C) tokens, one per position."""
    b, c, h, w = x.shape
    out = np.ascontiguousarray(x.data.reshape(b, c, h * w).transpose(0, 2, 1))
    return _make(out, (x,), (lambda g: g.transpose(0, 2, 1).reshape(x.shape),), "tokens")


def untokens(att: Tensor, residual: Tensor) -> Tensor:
    """(B, H*W, C) tokens laid back out as the (B, C, H, W) map of ``residual``, added to it: residual + map."""
    b, c, h, w = residual.shape
    if att.shape != (b, h * w, c):
        raise ShapeError("untokens", f"tokens {att.shape} do not fit map {residual.shape}")
    out = residual.data + att.data.transpose(0, 2, 1).reshape(b, c, h, w)
    return _make(out, (residual, att), (lambda g: g, lambda g: g.reshape(b, c, h * w).transpose(0, 2, 1)), "untokens")


# -- convolutions ------------------------------------------------------------------


@lru_cache(maxsize=256)
def _window_plan(shape, kh: int, kw: int, stride: int, pad, out_hw) -> tuple:
    """_windows' shapes, slice copies (buffer index, input index) and views, made once per geometry."""
    b, c, h, w = shape
    (py, px), (ho, wo) = pad, out_hw
    hq = ho + (kh - 1) // stride
    copies, every = [], slice(None)
    for s in range(stride):
        q0, q1 = max(0, -((s - py) // stride)), min(hq, (h - 1 - s + py) // stride + 1)
        for kx in range(kw):
            j0, j1 = max(0, -((kx - px) // stride)), min(wo, (w - 1 - kx + px) // stride + 1)
            if q0 < q1 and j0 < j1:
                y, x = q0 * stride + s - py, j0 * stride + kx - px
                copies.append(((kx, every, s, slice(q0, q1), every, slice(j0, j1)),
                               (every, slice(y, y + stride * (q1 - q0), stride), every,
                                slice(x, x + stride * (j1 - j0), stride))))
    n = b * wo
    views = [(every, ky % stride, slice(ky // stride * n, (ky // stride + ho) * n)) for ky in range(kh)]
    return (kw, c, stride, hq, b, wo), (kw * c, stride, hq * b * wo), copies, views


def _windows(a: np.ndarray, kh: int, kw: int, stride: int, pad, out_hw) -> list:
    """Per kernel row, the (kw*C, ho*B*wo) window matrix of a (B, C, H, W) array.

    Row (kx, c), column (i, b, j) of kernel row ky's matrix holds the input at
    (b, c, i*stride + ky - py, j*stride + kx - px), zero outside it; pads may
    be negative, which crops. Every matrix is a unit-column-stride view of one
    zero (kw, C, stride, hq, B, wo) float64 buffer, filled by one slice copy
    per kernel column and stride phase.
    """
    shape, rows_shape, copies, views = _window_plan(a.shape, kh, kw, stride, pad, out_hw)
    buf = np.zeros(shape)
    src = a.transpose(1, 2, 0, 3)  # (C, H, B, W)
    for dst, part in copies:
        buf[dst] = src[part]
    rows = buf.reshape(rows_shape)
    return [rows[v] for v in views]


def kernel_rows(k: np.ndarray) -> np.ndarray:
    """An (O, I, KH, KW) kernel array as float64 (KH, O, KW*I), one GEMM operand per kernel row.

    What conv2d takes as ``rows``; the relayout is exact, since every float32 is a float64.
    """
    o, i, kh, kw = k.shape
    return np.ascontiguousarray(k.transpose(2, 0, 3, 1), np.float64).reshape(kh, o, kw * i)


def _correlate(kr: np.ndarray, wins: list) -> np.ndarray:
    """(O, ho*B*wo) correlation: kernel rows against their windows, accumulated in float64."""
    out = kr[0] @ wins[0]
    part = np.empty_like(out)
    for k, win in zip(kr[1:], wins[1:]):
        out += np.matmul(k, win, out=part)
    return out


def _kernel_grad(gm: np.ndarray, wins: list, shape) -> np.ndarray:
    """Gradient of an (O, I, KH, KW) kernel: per kernel row, gm (O, ho*B*wo) against its windows."""
    o, i, kh, kw = shape
    gk = np.empty((kh, o, kw * i))
    for ky, win in enumerate(wins):
        np.matmul(gm, win.T, out=gk[ky])
    return gk.reshape(kh, o, kw, i).transpose(1, 3, 0, 2)


def _chbw(a: np.ndarray) -> np.ndarray:
    """A (B, C, H, W) array as a C-contiguous float64 (C, H*B*W) matrix, columns ordered (h, b, w)."""
    return np.ascontiguousarray(a.transpose(1, 2, 0, 3), np.float64).reshape(a.shape[1], -1)


def _nchw(m: np.ndarray, b: int, hw, dtype) -> np.ndarray:
    """Inverse of _chbw: (C, H, B, W)-ordered float64 values as a (B, C, H, W) array of dtype, rounded once."""
    return m.reshape(m.shape[0], hw[0], b, hw[1]).transpose(2, 0, 1, 3).astype(dtype, order="C")


def _epilogue(op: str, out: np.ndarray, bias, shift=None, residual=None) -> tuple:
    """Add in place to a (B, C, H, W) output, in this order, those given of a (C,) bias, a per-sample
    (B, C) shift and a residual of its shape; they return as extra parents, with their gradients."""
    b, c = out.shape[:2]
    for name, t, shape in (("bias", bias, (c,)), ("shift", shift, (b, c)), ("residual", residual, out.shape)):
        if t is not None and t.shape != shape:
            raise ShapeError(op, f"{name} must be {shape}, got {t.shape}")
    parents, grads = (), ()
    if bias is not None:
        out += bias.data.reshape(1, c, 1, 1)
        parents, grads = (bias,), (_channel_sum,)
    if shift is not None:
        out += shift.data.reshape(b, c, 1, 1)
        parents, grads = parents + (shift,), grads + (lambda g: _unbroadcast(g, (b, c, 1, 1)).reshape(b, c),)
    if residual is not None:
        out += residual.data
        parents, grads = parents + (residual,), grads + (lambda g: g,)
    return parents, grads


def _channel_sum(g: np.ndarray) -> np.ndarray:
    """Gradient of a (C,) parameter added to every (B, C, H, W) position: g summed per channel."""
    return g.sum(axis=(0, 2, 3))


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0, bias: Tensor = None,
           rows: np.ndarray = None, shift: Tensor = None, residual: Tensor = None) -> Tensor:
    """2-D convolution (cross-correlation), NCHW input, (CO, CI, KH, KW) kernel, optional (CO,) bias.

    The output is the correlation core: one float64 GEMM per kernel row over
    the input's windows (``_windows``), accumulated in place. The kernel
    side of those GEMMs is ``rows`` when given, else ``kernel_rows(w.data)``
    made afresh; given rows must be ``kernel_rows(w.data)`` of the kernel as
    it is now. Only their shape is checked (a ShapeError if it is not
    (KH, CO, KW*CI)), and the gradients always read ``w``. Its weight
    gradient reads the same windows, transposed. At stride 1 the input
    gradient is the core again: the output gradient at pads (kh-1-p, kw-1-p),
    correlated with the flipped, channel-transposed kernel. At stride 2 the
    output gradient would first need zeros between its samples, so the
    column product w^T g is instead scattered into the input tap by tap.
    Each contracts in float64 and rounds once to the storage dtype, making it
    bit-equal to direct summation; the epilogue (``_epilogue``) follows it.

    A trainable kernel keeps the forward's window buffer, about kw float64
    copies of the input, until backward; a frozen one keeps no more than the
    output, since the input gradient recomputes from the kernel.
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

    if rows is None:
        rows = kernel_rows(w.data)
    elif rows.shape != (kh, co, kw * ci):
        raise ShapeError("conv2d", f"rows must be {(kh, co, kw * ci)} for kernel {w.shape}, got {rows.shape}")

    wins = _windows(x.data, kh, kw, stride, (padding, padding), (ho, wo))
    out = _nchw(_correlate(rows, wins), b, (ho, wo), x.dtype)
    extra, extra_grads = _epilogue("conv2d", out, bias, shift, residual)

    # only the weight gradient may name `wins`: _make drops that function for
    # a frozen kernel, and the window buffer goes with it
    def x_grad(g):
        if stride == 1:
            gwins = _windows(g, kh, kw, 1, (kh - 1 - padding, kw - 1 - padding), (h, wd))
            return _nchw(_correlate(kernel_rows(w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)), gwins),
                         b, (h, wd), x.dtype)
        cols = (w.data.astype(np.float64).reshape(co, -1).T @ _chbw(g)).reshape(ci, kh, kw, ho, b, wo)
        gxp = np.zeros((ci, h + 2 * padding, b, wd + 2 * padding))
        for ky in range(kh):
            for kx in range(kw):
                gxp[:, ky : ky + ho * stride : stride, :, kx : kx + wo * stride : stride] += cols[:, ky, kx]
        return _nchw(gxp[:, padding : padding + h, :, padding : padding + wd], b, (h, wd), x.dtype)

    grads = (x_grad, lambda g: _kernel_grad(_chbw(g), wins, w.shape).astype(w.dtype)) + extra_grads
    return _make(out, (x, w) + extra, grads, "conv2d")


def conv2d_transpose(x: Tensor, w: Tensor, bias: Tensor = None) -> Tensor:
    """x2 transposed convolution: NCHW input, (CI, CO, 2, 2) kernel, stride 2, optional (CO,) bias.

    At kernel 2 and stride 2 each input pixel's taps fill a 2x2 output block
    of their own, so no two products meet. The output is the sub-pixel
    layout: one float64 GEMM w^T x, then a depth-to-space reshape putting tap
    (ky, kx) of pixel (i, j) at (2i+ky, 2j+kx). The backward inverts that
    reshape and runs one GEMM per operand. Each GEMM sums in float64 and
    rounds once, so the op is exact as conv2d; the bias is added after.

    A trainable kernel keeps a float64 copy of the input until backward; a
    frozen one keeps no more than the output and a view of the kernel.
    """
    if x.ndim != 4 or w.ndim != 4 or w.shape[2:] != (2, 2):
        raise ShapeError("conv2d_transpose", f"need 4-D input and (CI, CO, 2, 2) kernel, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[0]:
        raise ShapeError("conv2d_transpose", f"channel mismatch: input {x.shape} vs kernel {w.shape}")
    b, ci, hi, wi = x.shape
    co = w.shape[1]

    xm, wm = _chbw(x.data), w.data.reshape(ci, co * 4)  # each GEMM promotes wm to float64, exactly
    blocks = (wm.T @ xm).reshape(co, 2, 2, hi, b, wi).transpose(4, 0, 3, 1, 5, 2)
    out = blocks.astype(x.dtype, order="C").reshape(b, co, 2 * hi, 2 * wi)
    extra, extra_grads = _epilogue("conv2d_transpose", out, bias)

    def gm(g):
        """The output gradient as float64 (CO*4, hi*B*wi): rows (co, ky, kx), columns (i, b, j) as xm's."""
        gb = g.reshape(b, co, hi, 2, wi, 2).transpose(1, 3, 5, 2, 0, 4)
        return np.ascontiguousarray(gb, np.float64).reshape(co * 4, -1)

    # only the weight gradient may name `xm`: _make drops that function for a
    # frozen kernel, and the float64 input copy goes with it
    grads = (lambda g: _nchw(wm @ gm(g), b, (hi, wi), x.dtype),
             lambda g: (xm @ gm(g).T).reshape(w.shape).astype(w.dtype)) + extra_grads
    return _make(out, (x, w) + extra, grads, "conv2d_transpose")


# -- normalisation ------------------------------------------------------------------


def _group_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=2, keepdims=True)`` by numpy's own two steps, without the Python layer around them."""
    m = np.add.reduce(a, 2, keepdims=True)
    return np.true_divide(m, np.intp(a.shape[2]), out=m, casting="unsafe")


def group_norm(x: Tensor, gamma: Tensor, beta: Tensor, groups: int, eps: float = 1e-5,
               silu: bool = False) -> Tensor:
    """Group normalisation over (channels/groups, H, W) per sample, then, if ``silu``, the silu op's
    expressions: its bytes, with the output gradient taken back through it once for all three inputs."""
    if x.ndim != 4:
        raise ShapeError("group_norm", f"need 4-D input, got {x.shape}")
    b, c, h, w = x.shape
    if c % groups:
        raise ShapeError("group_norm", f"{c} channels not divisible into {groups} groups")
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("group_norm", f"gamma/beta must be ({c},), got {gamma.shape} and {beta.shape}")

    xg = x.data.reshape(b, groups, -1)
    d = xg - _group_mean(xg)
    inv = 1.0 / np.sqrt(np.add.reduce(d * d, 2, keepdims=True) / xg.shape[2] + eps)
    d *= inv
    xhat = d.reshape(b, c, h, w)
    out = xhat * gamma.data.reshape(1, c, 1, 1)
    out += beta.data.reshape(1, c, 1, 1)
    out, pre = out.astype(x.dtype, copy=False), None
    if silu:
        out, pre = _silu(out)

    def x_grad(g):
        u = (g * gamma.data.reshape(1, c, 1, 1)).reshape(b, groups, -1)
        xh = xhat.reshape(b, groups, -1)
        mu_u = _group_mean(u)
        mu_ux = _group_mean(u * xh)
        gx = inv * (u - mu_u - xh * mu_ux)
        return gx.reshape(b, c, h, w).astype(x.dtype)

    grads = (x_grad, lambda g: (g * xhat).sum(axis=(0, 2, 3)), _channel_sum)
    return _make(out, (x, gamma, beta), grads, "group_norm", pre)


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

    Forward gathers by axis, rows then columns: one take per axis when every
    sample has the same box, else one per sample and axis; each tap is scaled
    by its weight product and the taps are summed in tap order. Backward
    scatter-adds once per tap through flat indices, so repeated source pixels
    accumulate their gradients.
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
    if (box == box[0]).all():  # every sample reads the same taps
        def take(a, idx, axis):
            return a.take(idx[0], axis=axis)
    else:
        def take(a, idx, axis):
            out = np.empty((*a.shape[:axis], idx.shape[1], *a.shape[axis + 1:]), a.dtype)
            for s, i, o in zip(a, idx, out):
                s.take(i, axis=axis - 1, out=o, mode="clip")  # in range by construction; "raise" buffers
            return out
    taps, picked = [], []
    for ii, wy in rows:
        by_row = take(x.data, ii, 2)
        for jj, wx in cols:
            wt = (wy[:, :, None] * wx[:, None, :])[:, None]
            taps.append((ii, jj, wt))
            picked.append(take(by_row, jj, 3) * wt)
    out = reduce(np.add, picked)

    def x_grad(g):
        ga = np.zeros(x.size, x.dtype)
        base = (np.arange(b)[:, None, None, None] * c + np.arange(c)[None, :, None, None]) * h
        for ii, jj, wt in taps:
            np.add.at(ga, ((base + ii[:, None, :, None]) * w + jj[:, None, None, :]).reshape(-1), (g * wt).reshape(-1))
        return ga.reshape(x.shape)

    return _make(np.ascontiguousarray(out), (x,), (x_grad,), op)


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

    def d(g):  # the gradient with respect to pred, in the working precision
        return np.where(quad, r, delta * np.sign(r)) * m * (g / count)

    grads = (lambda g: d(g).astype(pred.dtype), lambda g: (-d(g)).astype(target.dtype))
    return _make(out, (pred, target), grads, "huber")


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error, composed from recorded primitives."""
    if pred.shape != target.shape:
        raise ShapeError("mse", f"pred {pred.shape} vs target {target.shape}")
    d = sub(pred, target)
    return mean(mul(d, d))
