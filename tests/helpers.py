"""Shared test utilities: finite-difference gradient checking and oracles."""

from concurrent.futures import Future

import numpy as np
from numpy.lib.stride_tricks import as_strided

from soekit.tensor import Tensor, backward


def rel_error(a: np.ndarray, n: np.ndarray) -> float:
    """Max per-element relative error with a unit floor on the denominator.

    Losses in these checks are O(1), so a floor of 1 keeps near-zero
    gradient entries from inflating the ratio while staying far stricter
    than the 1e-3 budget for entries of ordinary magnitude.
    """
    a = np.asarray(a, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1.0)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def numeric_grad(f, arrays, index, h=1e-3):
    """Central finite differences of scalar f w.r.t. arrays[index], in float64."""
    base = [np.array(a, dtype=np.float64) for a in arrays]
    g = np.zeros_like(base[index])
    flat = base[index].reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(base)
        flat[i] = orig - h
        fm = f(base)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def gradcheck(build, arrays, wrt=None, h=1e-3, tol=1e-3, seed=0):
    """Compare reverse-mode gradients against 64-bit central differences.

    build(tensors) -> scalar Tensor, constructed from float64 leaf tensors so
    the analytic pass and the numeric oracle share one precision. Returns the
    worst relative error over all checked inputs.
    """
    wrt = list(range(len(arrays))) if wrt is None else list(wrt)
    tensors = [Tensor(a, requires_grad=(i in wrt), dtype=np.float64) for i, a in enumerate(arrays)]
    loss = build(tensors)
    backward(loss)

    def f(arrs):
        ts = [Tensor(a, requires_grad=False, dtype=np.float64) for a in arrs]
        return build(ts).item()

    worst = 0.0
    for i in wrt:
        assert tensors[i].grad is not None, f"input {i} received no gradient"
        ng = numeric_grad(f, arrays, i, h=h)
        err = rel_error(tensors[i].grad, ng)
        worst = max(worst, err)
        assert err < tol, f"input {i}: rel error {err:.2e} >= {tol}"
    return worst


def scalarize(t, weights):
    """Reduce an op output to a scalar sensitive to every element."""
    from soekit import tensor as T

    w = Tensor(weights, dtype=np.float64)
    return T.mean(T.mul(t, w))


def conv2d_direct(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Direct-summation convolution oracle, float64 accumulation in
    (ci, ky, kx) order, rounded once to float32."""
    b, c, h, wd = x.shape
    co, ci, kh, kw = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((b, co, ho, wo), np.float64)
    for bi in range(b):
        for o in range(co):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for cc in range(ci):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += float(xp[bi, cc, i * stride + ky, j * stride + kx]) * float(w[o, cc, ky, kx])
                    out[bi, o, i, j] = acc
    return out.astype(np.float32)


def conv2d_grads_direct(x: np.ndarray, w: np.ndarray, g: np.ndarray, stride: int, padding: int):
    """Direct-summation oracle for conv2d's input and weight gradients given
    the output gradient g: float64 accumulation, rounded once to float32."""
    b, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros_like(xp)
    gw = np.zeros(w.shape, np.float64)
    for bi in range(b):
        for o in range(co):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    gv = float(g[bi, o, i, j])
                    for cc in range(ci):
                        for ky in range(kh):
                            for kx in range(kw):
                                y, xx = i * stride + ky, j * stride + kx
                                gxp[bi, cc, y, xx] += gv * float(w[o, cc, ky, kx])
                                gw[o, cc, ky, kx] += gv * float(xp[bi, cc, y, xx])
    gx = gxp[:, :, padding : padding + h, padding : padding + wd]
    return gx.astype(np.float32), gw.astype(np.float32)


def conv2d_transpose_direct(x: np.ndarray, w: np.ndarray, g: np.ndarray, stride: int):
    """Direct-summation oracle for conv2d_transpose: the output, and the input
    and weight gradients given the output gradient g. Float64 accumulation,
    each rounded once to float32."""
    b, ci, hi, wi = x.shape
    _, co, kh, kw = w.shape
    out = np.zeros(g.shape, np.float64)
    gx = np.zeros(x.shape, np.float64)
    gw = np.zeros(w.shape, np.float64)
    for bi in range(b):
        for cc in range(ci):
            for i in range(hi):
                for j in range(wi):
                    xv = float(x[bi, cc, i, j])
                    for o in range(co):
                        for ky in range(kh):
                            for kx in range(kw):
                                y, xx = i * stride + ky, j * stride + kx
                                out[bi, o, y, xx] += xv * float(w[cc, o, ky, kx])
                                gx[bi, cc, i, j] += float(g[bi, o, y, xx]) * float(w[cc, o, ky, kx])
                                gw[cc, o, ky, kx] += xv * float(g[bi, o, y, xx])
    return out.astype(np.float32), gx.astype(np.float32), gw.astype(np.float32)


def conv2d_input_grad_col2im(w: np.ndarray, g: np.ndarray, x_shape, stride: int, padding: int) -> np.ndarray:
    """conv2d's input gradient as the column product w^T g scattered back tap by
    tap (col2im) into the padded input, float64 accumulation rounded once to w's dtype."""
    b, ci, h, wd = x_shape
    co, _, kh, kw = w.shape
    ho, wo = g.shape[2:]
    gm = g.transpose(1, 0, 2, 3).astype(np.float64).reshape(co, -1)
    cols = (w.astype(np.float64).reshape(co, -1).T @ gm).reshape(ci, kh, kw, b, ho, wo)
    gxp = np.zeros((ci, b, h + 2 * padding, wd + 2 * padding))
    for ky in range(kh):
        for kx in range(kw):
            gxp[:, :, ky : ky + ho * stride : stride, kx : kx + wo * stride : stride] += cols[:, ky, kx]
    return gxp[:, :, padding : padding + h, padding : padding + wd].transpose(1, 0, 2, 3).astype(w.dtype)


def im2col(xc: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int) -> np.ndarray:
    """Columns (C*kh*kw, B*ho*wo), rows ordered (c, ky, kx), of a (C, B, H, W) float64 buffer."""
    c, b = xc.shape[:2]
    sc, sb, sh, sw = xc.strides
    view = as_strided(xc, shape=(c, kh, kw, b, ho, wo), strides=(sc, sh, sw, sb, sh * stride, sw * stride))
    return view.reshape(c * kh * kw, b * ho * wo)


def _conv2d_cols(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """im2col columns of x zero-padded by `padding`, in float64."""
    b, c, h, wd = x.shape
    xp = np.zeros((c, b, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + wd] = x.transpose(1, 0, 2, 3)
    ho, wo = (h + 2 * padding - kh) // stride + 1, (wd + 2 * padding - kw) // stride + 1
    return im2col(xp, kh, kw, stride, ho, wo)


def conv2d_im2col(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """conv2d's output as one float64 GEMM over im2col columns, rounded once to x's dtype."""
    b, _, h, wd = x.shape
    co, _, kh, kw = w.shape
    ho, wo = (h + 2 * padding - kh) // stride + 1, (wd + 2 * padding - kw) // stride + 1
    out = w.astype(np.float64).reshape(co, -1) @ _conv2d_cols(x, kh, kw, stride, padding)
    return out.reshape(co, b, ho, wo).transpose(1, 0, 2, 3).astype(x.dtype)


def conv2d_weight_grad_im2col(x: np.ndarray, w_shape, g: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """conv2d's weight gradient as gm @ cols.T over im2col columns of x, rounded once to x's dtype."""
    co, _, kh, kw = w_shape
    gm = g.transpose(1, 0, 2, 3).astype(np.float64).reshape(co, -1)
    return (gm @ _conv2d_cols(x, kh, kw, stride, padding).T).reshape(w_shape).astype(x.dtype)


def conv2d_input_grad_im2col(w: np.ndarray, g: np.ndarray, x_shape, padding: int) -> np.ndarray:
    """conv2d's stride-1 input gradient as one im2col GEMM: g zero-padded by the kernel
    size less one, correlated with the flipped, channel-transposed kernel."""
    b, ci, h, wd = x_shape
    co, _, kh, kw = w.shape
    ho, wo = g.shape[2:]
    gp = np.zeros((co, b, ho + 2 * kh - 2, wo + 2 * kw - 2))
    gp[:, :, kh - 1 : kh - 1 + ho, kw - 1 : kw - 1 + wo] = g.transpose(1, 0, 2, 3)
    wf = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), np.float64)
    gx = wf.reshape(ci, -1) @ im2col(gp[:, :, padding:, padding:], kh, kw, 1, h, wd)
    return gx.reshape(ci, b, h, wd).transpose(1, 0, 2, 3).astype(w.dtype)


def conv2d_transpose_im2col(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    """conv2d_transpose at stride 2: the output as the column product w^T x scattered
    tap by tap, and the input and weight gradients as GEMMs over im2col columns of g.
    Float64, each rounded once to x's dtype."""
    b, ci, hi, wi = x.shape
    _, co, kh, kw = w.shape
    xm = x.transpose(1, 0, 2, 3).astype(np.float64).reshape(ci, -1)
    wm = w.astype(np.float64).reshape(ci, -1)
    cols = (wm.T @ xm).reshape(co, kh, kw, b, hi, wi)
    out = np.zeros((co, b, 2 * hi - 2 + kh, 2 * wi - 2 + kw))
    for ky in range(kh):
        for kx in range(kw):
            out[:, :, ky : ky + 2 * hi : 2, kx : kx + 2 * wi : 2] += cols[:, ky, kx]
    gcols = im2col(g.transpose(1, 0, 2, 3).astype(np.float64), kh, kw, 2, hi, wi)
    gx = (wm @ gcols).reshape(ci, b, hi, wi).transpose(1, 0, 2, 3)
    gw = (xm @ gcols.T).reshape(w.shape)
    return tuple(a.astype(x.dtype) for a in (out.transpose(1, 0, 2, 3), gx, gw))


def sigmoid_select(x: np.ndarray) -> np.ndarray:
    """Stable sigmoid as a select: 1/(1+t) where x >= 0, t/(1+t) elsewhere, t = exp(-|x|)."""
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def group_norm_var(x, gamma, beta, groups: int, g, eps: float = 1e-5):
    """group_norm with the variance from np.var: the output, and the x, gamma
    and beta gradients for the upstream gradient g."""
    b, c, h, w = x.shape
    xg = x.reshape(b, groups, -1)
    inv = 1.0 / np.sqrt(xg.var(axis=2, keepdims=True) + eps)
    xhat = ((xg - xg.mean(axis=2, keepdims=True)) * inv).reshape(x.shape)
    out = xhat * gamma.reshape(1, c, 1, 1) + beta.reshape(1, c, 1, 1)
    u = (g * gamma.reshape(1, c, 1, 1)).reshape(b, groups, -1)
    xh = xhat.reshape(b, groups, -1)
    gx = inv * (u - u.mean(axis=2, keepdims=True) - xh * (u * xh).mean(axis=2, keepdims=True))
    return out, gx.reshape(x.shape), (g * xhat).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))


def set_adapter_b(adapters, seed: int, std: float = 0.05):
    """Fill every adapter's B factor with Gaussian values, so merging changes weights."""
    gen = np.random.default_rng(seed)
    for ad in adapters.adapters.values():
        ad.b.data = (gen.standard_normal(ad.b.shape) * std).astype(np.float32)


def _resize_axis(n_in: int, n_out: int, bilinear: bool, dtype):
    """Per-axis source indices (and fractions) of a whole-map resize, half-pixel centres."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out)
    if not bilinear:
        return np.clip(np.floor(src).astype(np.int64), 0, n_in - 1), None, None
    src = src - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    return np.clip(i0, 0, n_in - 1), np.clip(i0 + 1, 0, n_in - 1), frac.astype(dtype)


def resize_per_sample(x: np.ndarray, out_h: int, out_w: int, boxes, bilinear: bool, g: np.ndarray):
    """Reference boxed resize, one sample at a time: numpy-slice each (x0, y0, x1, y1)
    box, resize it whole, and scatter the crop's gradient back into the map.

    Returns the (B, C, out_h, out_w) output and the input gradient for the
    output gradient g.
    """
    outs, gx = [], np.zeros_like(x)
    for i, (x0, y0, x1, y1) in enumerate(boxes):
        crop, gi = x[i : i + 1, :, y0:y1, x0:x1], g[i : i + 1]
        gc = np.zeros_like(crop)
        i0, i1, fy = _resize_axis(y1 - y0, out_h, bilinear, x.dtype)
        j0, j1, fx = _resize_axis(x1 - x0, out_w, bilinear, x.dtype)
        if not bilinear:
            outs.append(crop[..., i0[:, None], j0[None, :]])
            np.add.at(gc, (..., i0[:, None], j0[None, :]), gi)
        else:
            fy, fx = fy[:, None], fx[None, :]
            taps = [(i0, j0, (1 - fy) * (1 - fx)), (i0, j1, (1 - fy) * fx),
                    (i1, j0, fy * (1 - fx)), (i1, j1, fy * fx)]
            out = None
            for ii, jj, wt in taps:
                v = crop[..., ii[:, None], jj[None, :]] * wt
                out = v if out is None else out + v
                np.add.at(gc, (..., ii[:, None], jj[None, :]), gi * wt)
            outs.append(out)
        gx[i : i + 1, :, y0:y1, x0:x1] += gc
    return np.concatenate(outs), gx


class InlineWorker:
    """A stand-in for `train.worker`: the executor it makes runs each submitted call on the calling thread."""

    @staticmethod
    def submit(fn, *args) -> Future:
        done = Future()
        done.set_result(fn(*args))
        return done
