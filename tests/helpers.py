"""Shared test utilities: finite-difference gradient checking and oracles."""

import numpy as np

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
