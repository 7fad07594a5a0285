"""Op catalog: forward oracles, gradient checks, and graph contracts."""

import functools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    conv2d_direct, conv2d_grads_direct, conv2d_im2col, conv2d_input_grad_col2im, conv2d_input_grad_im2col,
    conv2d_transpose_direct, conv2d_transpose_im2col, conv2d_weight_grad_im2col, gradcheck, group_norm_var,
    resize_per_sample, scalarize, sigmoid_select,
)
from soekit import tensor as T
from soekit.config import LATENT_FACTOR, DataSection, ModelSection
from soekit.metrics import PROBE_CROP_SIDE, ProbeClassifier
from soekit.nets import ConditionEmbedder, MiniUnet, Vae
from soekit.tensor import ShapeError, Tensor, backward, topo_order

RNG = np.random.default_rng(20240501)


def r(*shape):
    return RNG.standard_normal(shape)


# -- forward oracles -----------------------------------------------------------


def test_matmul_matches_brute_force():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
    b = np.array([[5.0, 6.0], [7.0, 8.0]], np.float32)
    out = T.matmul(Tensor(a), Tensor(b)).data
    expect = np.zeros((2, 2), np.float32)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expect[i, j] += a[i, k] * b[k, j]
    assert np.array_equal(out, expect)
    assert np.array_equal(expect, np.array([[19.0, 22.0], [43.0, 50.0]], np.float32))


def test_conv2d_identity_kernel():
    x = RNG.standard_normal((2, 3, 6, 6)).astype(np.float32)
    w = np.zeros((3, 3, 1, 1), np.float32)
    for c in range(3):
        w[c, c, 0, 0] = 1.0
    out = T.conv2d(Tensor(x), Tensor(w)).data
    assert np.array_equal(out, x)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_exact_vs_direct_summation(stride, padding):
    # exact agreement on every shape up to 8x8 spatial, 4 channels
    rng = np.random.default_rng(7)
    for trial in range(40):
        b = int(rng.integers(1, 3))
        ci = int(rng.integers(1, 5))
        co = int(rng.integers(1, 5))
        h = int(rng.integers(1, 9))
        wd = int(rng.integers(1, 9))
        kh = int(rng.integers(1, 4))
        kw = int(rng.integers(1, 4))
        if h + 2 * padding < kh or wd + 2 * padding < kw:
            continue
        x = (rng.standard_normal((b, ci, h, wd)) * 3).astype(np.float32)
        w = rng.standard_normal((co, ci, kh, kw)).astype(np.float32)
        got = T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        expect = conv2d_direct(x, w, stride, padding)
        assert got.tobytes() == expect.tobytes()


def conv_sweep(padding):
    """The shape sweep of test_conv2d_exact_vs_direct_summation: 40 draws of
    batch 1-2, channels 1-4, spatial 1-8 and kernel 1-3, too-large kernels skipped."""
    rng = np.random.default_rng(7)
    for trial in range(40):
        b = int(rng.integers(1, 3))
        ci = int(rng.integers(1, 5))
        co = int(rng.integers(1, 5))
        h = int(rng.integers(1, 9))
        wd = int(rng.integers(1, 9))
        kh = int(rng.integers(1, 4))
        kw = int(rng.integers(1, 4))
        if h + 2 * padding < kh or wd + 2 * padding < kw:
            continue
        x = (rng.standard_normal((b, ci, h, wd)) * 3).astype(np.float32)
        yield x, rng.standard_normal((co, ci, kh, kw)).astype(np.float32)


def grads_for(op, x, w, g, **kwargs):
    """Output, input gradient and weight gradient of op with the upstream gradient g, in x's dtype."""
    xt, wt = Tensor(x, requires_grad=True, dtype=x.dtype), Tensor(w, requires_grad=True, dtype=x.dtype)
    y = op(xt, wt, **kwargs)
    backward(T.sum_(T.mul(y, Tensor(g, dtype=x.dtype))))
    return y.data, xt.grad, wt.grad


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_grads_exact_vs_direct_summation(stride, padding):
    rng = np.random.default_rng(8)
    for x, w in conv_sweep(padding):
        ho = (x.shape[2] + 2 * padding - w.shape[2]) // stride + 1
        wo = (x.shape[3] + 2 * padding - w.shape[3]) // stride + 1
        g = rng.standard_normal((x.shape[0], w.shape[0], ho, wo)).astype(np.float32)
        _, gx, gw = grads_for(T.conv2d, x, w, g, stride=stride, padding=padding)
        expect_gx, expect_gw = conv2d_grads_direct(x, w, g, stride, padding)
        assert gx.tobytes() == expect_gx.tobytes()
        assert gw.tobytes() == expect_gw.tobytes()


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_conv2d_with_prepared_rows_is_conv2d(stride, padding):
    for x, w in conv_sweep(padding):
        plain = T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        prepared = T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding, rows=T.kernel_rows(w)).data
        assert prepared.tobytes() == plain.tobytes() == conv2d_direct(x, w, stride, padding).tobytes()


def test_conv2d_refuses_rows_of_another_kernel_shape():
    x, w = Tensor(r(1, 3, 5, 5)), Tensor(r(4, 3, 3, 3))
    for other in (r(2, 3, 3, 3), r(4, 3, 1, 1), r(4, 3, 3, 1), r(4, 3, 3, 3).transpose(1, 0, 2, 3)):
        with pytest.raises(ShapeError, match=r"conv2d: rows must be \(3, 4, 9\) for kernel \(4, 3, 3, 3\)"):
            T.conv2d(x, w, padding=1, rows=T.kernel_rows(other))


def test_conv2d_transpose_exact_vs_direct_summation():
    # the sweep's inputs and channel counts, each with a (CI, CO, 2, 2) kernel
    rng = np.random.default_rng(8)
    for x, w in conv_sweep(0):
        w = rng.standard_normal((w.shape[1], w.shape[0], 2, 2)).astype(np.float32)
        b, _, hi, wi = x.shape
        g = rng.standard_normal((b, w.shape[1], 2 * hi, 2 * wi)).astype(np.float32)
        got = grads_for(T.conv2d_transpose, x, w, g)
        for a, e in zip(got, conv2d_transpose_direct(x, w, g, 2)):
            assert a.tobytes() == e.tobytes()


def convs_of_default_nets(batch: int) -> set:
    """(op, input shape, kernel shape, stride, padding) of every conv2d and
    conv2d_transpose that the default U-Net, VAE and probe run at this batch
    size, recorded by spies."""
    cfg, image_side, seen = ModelSection(), DataSection().image_side, set()
    conv2d, conv2d_transpose = T.conv2d, T.conv2d_transpose

    def spy(x, w, stride=1, padding=0, **kwargs):
        seen.add(("conv2d", x.shape, w.shape, stride, padding))
        return conv2d(x, w, stride=stride, padding=padding, **kwargs)

    def spy_transpose(x, w, **kwargs):
        seen.add(("conv2d_transpose", x.shape, w.shape, 2, 0))
        return conv2d_transpose(x, w, **kwargs)

    side = image_side // LATENT_FACTOR
    z = Tensor(np.zeros((batch, cfg.latent_channels, side, side), np.float32))
    ml = Tensor(np.ones((batch, 1, side, side), np.float32))
    cond = ConditionEmbedder(cfg, seed=0).embed([0] * batch, [0] * batch, "color_label")
    T.conv2d, T.conv2d_transpose = spy, spy_transpose
    try:
        MiniUnet(cfg, seed=0).forward(z, 10, cond, ml)
        vae = Vae(cfg, seed=0)
        vae.decode(vae.encode(Tensor(np.zeros((batch, 3, image_side, image_side), np.float32))))
        ProbeClassifier(0).forward(Tensor(np.zeros((batch, 3, PROBE_CROP_SIDE, PROBE_CROP_SIDE), np.float32)))
    finally:
        T.conv2d, T.conv2d_transpose = conv2d, conv2d_transpose
    return seen


def stride1_convs_of_default_nets(batch: int) -> set:
    """(input shape, kernel shape, padding) of every stride-1 conv2d that the
    default U-Net and VAE run at this batch size (the probe has none)."""
    return {(x, w, p) for op, x, w, stride, p in convs_of_default_nets(batch) if op == "conv2d" and stride == 1}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stride1_conv_input_grad_matches_col2im_at_net_shapes(dtype):
    # float32 products are exact in float64, so the two summation orders differ
    # far below float32 resolution and round to the same float32; float64
    # products are rounded, so in float64 the orders may differ by the summation
    # error bound, K ulps of the sum of |terms|
    convs = stride1_convs_of_default_nets(batch=4)
    assert {w_shape[2] for _, w_shape, _ in convs} == {1, 3}
    rng = np.random.default_rng(12)
    for x_shape, w_shape, padding in sorted(convs):
        x = Tensor(np.zeros(x_shape), requires_grad=True, dtype=dtype)
        w = Tensor(rng.standard_normal(w_shape) / np.sqrt(np.prod(w_shape[1:])), dtype=dtype)
        y = T.conv2d(x, w, stride=1, padding=padding)
        g = rng.standard_normal(y.shape).astype(dtype)
        backward(T.sum_(T.mul(y, Tensor(g, dtype=dtype))))
        expect = conv2d_input_grad_col2im(w.data, g, x_shape, 1, padding)
        if dtype == np.float32:
            assert x.grad.tobytes() == expect.tobytes(), (x_shape, w_shape)
        else:
            terms = conv2d_input_grad_col2im(np.abs(w.data), np.abs(g), x_shape, 1, padding)
            k = w_shape[0] * w_shape[2] * w_shape[3]
            assert np.all(np.abs(x.grad - expect) <= k * np.finfo(dtype).eps * terms), (x_shape, w_shape)


def im2col_oracles(op, x, w, g, stride, padding):
    """(output, input gradient, weight gradient) of op by the im2col/col2im
    oracles, each with the length of the sums that made it."""
    if op == "conv2d_transpose":
        b, _, hi, wi = x.shape
        _, co, kh, kw = w.shape
        return zip(conv2d_transpose_im2col(x, w, g), (x.shape[1] * kh * kw, co * kh * kw, b * hi * wi))
    b, _, ho, wo = g.shape
    co, ci, kh, kw = w.shape
    gx = (conv2d_input_grad_im2col(w, g, x.shape, padding) if stride == 1
          else conv2d_input_grad_col2im(w, g, x.shape, stride, padding))
    return zip((conv2d_im2col(x, w, stride, padding), gx, conv2d_weight_grad_im2col(x, w.shape, g, stride, padding)),
               (ci * kh * kw, co * kh * kw, b * ho * wo))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 4, 8])
def test_convs_match_im2col_at_net_shapes(batch, dtype):
    # the correlation core sums each output in another order than one im2col
    # GEMM: float32 must still be byte-equal, float64 within K ulps of the sum
    # of |terms|, K the number of terms in each sum
    convs = convs_of_default_nets(batch)
    assert {(op, stride) for op, _, _, stride, _ in convs} == {("conv2d", 1), ("conv2d", 2), ("conv2d_transpose", 2)}
    rng = np.random.default_rng(14)
    for op, x_shape, w_shape, stride, padding in sorted(convs):
        x = rng.standard_normal(x_shape).astype(dtype)
        w = (rng.standard_normal(w_shape) / np.sqrt(np.prod(w_shape[1:]))).astype(dtype)
        kwargs = {} if op == "conv2d_transpose" else {"stride": stride, "padding": padding}
        y = getattr(T, op)(Tensor(x, dtype=dtype), Tensor(w, dtype=dtype), **kwargs)
        g = rng.standard_normal(y.shape).astype(dtype)
        got = grads_for(getattr(T, op), x, w, g, **kwargs)
        expect = im2col_oracles(op, x, w, g, stride, padding)
        terms = im2col_oracles(op, np.abs(x), np.abs(w), np.abs(g), stride, padding)
        for name, a, (e, k), (t, _) in zip(("output", "input grad", "weight grad"), got, expect, terms):
            if dtype == np.float32:
                assert a.tobytes() == e.tobytes(), (op, x_shape, w_shape, name)
            else:
                assert np.all(np.abs(a - e) <= k * np.finfo(dtype).eps * t), (op, x_shape, w_shape, name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op, x_shape, w_shape, kwargs", [
    ("conv2d", (2, 3, 6, 5), (4, 3, 3, 2), {"stride": 1, "padding": 1}),
    ("conv2d", (2, 3, 7, 7), (4, 3, 3, 3), {"stride": 2, "padding": 1}),
    ("conv2d_transpose", (2, 3, 4, 3), (3, 4, 2, 2), {}),
])
def test_conv_bias_in_op_matches_separate_add(op, x_shape, w_shape, kwargs, dtype):
    # bias added after the conv's single rounding: the same bytes, output and
    # every gradient, as today's add of the reshaped bias
    rng = np.random.default_rng(15)
    arrays = [rng.standard_normal(s).astype(dtype) for s in (x_shape, w_shape, (w_shape[1 if op != "conv2d" else 0],))]
    fn = getattr(T, op)
    results = []
    for fused in (True, False):
        x, w, b = (Tensor(a, requires_grad=True, dtype=dtype) for a in arrays)
        y = fn(x, w, bias=b, **kwargs) if fused else T.add(fn(x, w, **kwargs), T.reshape(b, (1, -1, 1, 1)))
        g = np.random.default_rng(16).standard_normal(y.shape).astype(dtype)
        backward(T.sum_(T.mul(y, Tensor(g, dtype=dtype))))
        results.append([t.tobytes() for t in (y.data, x.grad, w.grad, b.grad)])
    assert results[0] == results[1]


def _composed_attention(q, k, v):
    """cross_attention as the matmul, transpose, mul and softmax ops it replaces."""
    scale = Tensor(np.asarray(1.0 / np.sqrt(q.shape[-1]), q.dtype), dtype=q.dtype)
    return T.matmul(T.softmax(T.mul(T.matmul(q, T.transpose(k, (0, 2, 1))), scale)), v)


def _attention_blocks(fused):
    """Two attention blocks as the U-Net runs them, sharing weights and one condition. The
    condition's gradient sums four K/V contributions in the order backward visits them, which
    the fused ops' parent order decides."""
    def build(t):
        h, cond, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo = t
        b, c, hh, ww = h.shape
        for _ in range(2):
            if fused:
                q = T.matmul(T.tokens(T.group_norm(h, gamma, beta, 2)), wq, bias=bq)
                att = T.cross_attention(q, T.matmul(cond, wk, bias=bk), T.matmul(cond, wv, bias=bv))
                h = T.untokens(T.matmul(att, wo, bias=bo), h)
            else:
                flat = T.transpose(T.reshape(T.group_norm(h, gamma, beta, 2), (b, c, hh * ww)), (0, 2, 1))
                att = _composed_attention(T.add(T.matmul(flat, wq), bq), T.add(T.matmul(cond, wk), bk),
                                          T.add(T.matmul(cond, wv), bv))
                att = T.add(T.matmul(att, wo), bo)
                h = T.add(h, T.reshape(T.transpose(att, (0, 2, 1)), (b, c, hh, ww)))
        return h
    return build


def fused_cases(b: int) -> dict:
    """name -> (fused op, the composition it replaces, input shapes) at batch b."""
    return {
        "matmul_bias": (lambda t: T.matmul(t[0], t[1], bias=t[2]), lambda t: T.add(T.matmul(t[0], t[1]), t[2]),
                        [(b, 5, 6), (6, 4), (4,)]),
        "matmul_bias_2d": (lambda t: T.matmul(t[0], t[1], bias=t[2]), lambda t: T.add(T.matmul(t[0], t[1]), t[2]),
                           [(b, 6), (6, 4), (4,)]),
        "conv2d_shift_residual": (
            lambda t: T.conv2d(t[0], t[1], padding=1, bias=t[2], shift=t[3], residual=t[4]),
            lambda t: T.add(T.add(T.conv2d(t[0], t[1], padding=1, bias=t[2]), T.reshape(t[3], (b, -1, 1, 1))), t[4]),
            [(b, 3, 6, 5), (4, 3, 3, 3), (4,), (b, 4), (b, 4, 6, 5)]),
        "group_norm_silu": (lambda t: T.group_norm(t[0], t[1], t[2], 2, silu=True),
                            lambda t: T.silu(T.group_norm(t[0], t[1], t[2], 2)), [(b, 4, 3, 5), (4,), (4,)]),
        "tokens": (lambda t: T.tokens(t[0]), lambda t: T.transpose(T.reshape(t[0], (b, 4, 15)), (0, 2, 1)),
                   [(b, 4, 3, 5)]),
        "untokens": (lambda t: T.untokens(t[0], t[1]),
                     lambda t: T.add(t[1], T.reshape(T.transpose(t[0], (0, 2, 1)), (b, 4, 3, 5))),
                     [(b, 15, 4), (b, 4, 3, 5)]),
        "cross_attention": (lambda t: T.cross_attention(*t), lambda t: _composed_attention(*t),
                            [(b, 9, 8), (b, 2, 8), (b, 2, 6)]),
        # the ResBlock: x feeds the norm and, as the residual, the conv's epilogue
        "resblock": (
            lambda t: T.conv2d(T.group_norm(t[0], t[1], t[2], 2, silu=True), t[3], padding=1, bias=t[4],
                               shift=T.matmul(t[5], t[6], bias=t[7]), residual=t[0]),
            lambda t: T.add(T.add(T.conv2d(T.silu(T.group_norm(t[0], t[1], t[2], 2)), t[3], padding=1, bias=t[4]),
                                  T.reshape(T.add(T.matmul(t[5], t[6]), t[7]), (b, -1, 1, 1))), t[0]),
            [(b, 4, 6, 5), (4,), (4,), (4, 4, 3, 3), (4,), (b, 7), (7, 4), (4,)]),
        "attention_blocks": (_attention_blocks(True), _attention_blocks(False),
                             [(b, 4, 3, 5), (b, 2, 6), (4,), (4,), (4, 4), (4,), (6, 4), (4,), (6, 4), (4,),
                              (4, 4), (4,)]),
    }


def _output_and_grads(build, arrays, g, dtype) -> list:
    ts = [Tensor(a, requires_grad=True, dtype=dtype) for a in arrays]
    y = build(ts)
    backward(T.sum_(T.mul(y, Tensor(g, dtype=dtype))))
    return [y.data.tobytes()] + [t.grad.tobytes() for t in ts]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 4])
@pytest.mark.parametrize("name", list(fused_cases(1)))
def test_fused_op_is_byte_equal_to_the_ops_it_replaces(name, batch, dtype):
    # the output and every input's gradient, rounded in the same order
    fused, composed, shapes = fused_cases(batch)[name]
    rng = np.random.default_rng(18)
    arrays = [rng.standard_normal(s).astype(dtype) for s in shapes]
    g = rng.standard_normal(composed([Tensor(a, dtype=dtype) for a in arrays]).shape).astype(dtype)
    assert _output_and_grads(fused, arrays, g, dtype) == _output_and_grads(composed, arrays, g, dtype)


def test_fused_epilogue_shapes_are_checked():
    x, w = Tensor(np.zeros((2, 3, 4, 4), np.float32)), Tensor(np.zeros((5, 3, 3, 3), np.float32))
    with pytest.raises(ShapeError, match=r"^conv2d: shift must be \(2, 5\), got \(5,\)$"):
        T.conv2d(x, w, padding=1, shift=Tensor(np.zeros(5, np.float32)))
    with pytest.raises(ShapeError, match=r"^conv2d: residual must be \(2, 5, 4, 4\), got \(2, 5, 4, 3\)$"):
        T.conv2d(x, w, padding=1, residual=Tensor(np.zeros((2, 5, 4, 3), np.float32)))
    with pytest.raises(ShapeError, match=r"^matmul: bias must be \(5,\), got \(2, 5\)$"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))), bias=Tensor(np.zeros((2, 5))))
    with pytest.raises(ShapeError, match=r"^untokens: tokens \(2, 15, 4\) do not fit map \(2, 4, 4, 4\)$"):
        T.untokens(Tensor(np.zeros((2, 15, 4))), Tensor(np.zeros((2, 4, 4, 4))))
    with pytest.raises(ShapeError, match=r"^cross_attention: need \(B, Nq, d\), .*; got \(2, 9, 8\), \(1, 2, 8\)"):
        T.cross_attention(Tensor(np.zeros((2, 9, 8))), Tensor(np.zeros((1, 2, 8))), Tensor(np.zeros((1, 2, 6))))


def test_conv_bias_shape_is_checked():
    x, w = Tensor(np.zeros((1, 3, 4, 4), np.float32)), Tensor(np.zeros((2, 3, 3, 3), np.float32))
    with pytest.raises(ShapeError, match=r"conv2d: bias must be \(2,\), got \(3,\)"):
        T.conv2d(x, w, padding=1, bias=Tensor(np.zeros(3, np.float32)))


def _retained_bytes(op, *args, **kwargs):
    """Bytes still allocated once op(*args, **kwargs) has returned, and its output."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = op(*args, **kwargs)
        return tracemalloc.get_traced_memory()[0] - before, y
    finally:
        tracemalloc.stop()


def test_conv_forward_retains_under_kw_plus_one_inputs():
    # the weight gradient keeps the forward's kw-shifted window buffer, about
    # kw times the input in float64; an im2col column buffer would be kh*kw times
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((4, 96, 16, 16)).astype(np.float32))
    w = Tensor(rng.standard_normal((32, 96, 3, 3)).astype(np.float32), requires_grad=True)
    retained, y = _retained_bytes(T.conv2d, x, w, stride=1, padding=1)
    assert y.requires_grad
    assert retained < (w.shape[3] + 1) * x.size * 8, retained / (x.size * 8)
    # a frozen kernel under a trainable input: no weight gradient will run, so
    # neither the window buffer nor conv2d_transpose's float64 input copy stays
    x.requires_grad, w.requires_grad = True, False
    wt = Tensor(rng.standard_normal((96, 32, 2, 2)).astype(np.float32))
    for op, kernel in ((T.conv2d, w), (T.conv2d_transpose, wt)):
        retained, y = _retained_bytes(op, x, kernel, **({"padding": 1} if op is T.conv2d else {}))
        assert y.requires_grad
        assert retained < y.data.nbytes + x.size * 8 // 2, (op.__name__, retained / (x.size * 8))


def test_bilinear_resize_of_constant_is_constant():
    x = Tensor(np.full((1, 1, 8, 8), 0.37, np.float32))
    out = T.resize_bilinear(x, 16, 16).data
    assert np.allclose(out, 0.37, atol=1e-7)
    assert out.shape == (1, 1, 16, 16)


def test_nearest_resize_integer_upscale_repeats_pixels():
    x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
    out = T.resize_nearest(x, 4, 4).data[0, 0]
    assert np.array_equal(out, np.repeat(np.repeat(x.data[0, 0], 2, 0), 2, 1))


def test_softmax_rows_sum_to_one():
    x = Tensor(r(3, 5, 7).astype(np.float32))
    out = T.softmax(x).data
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-5)
    assert (out >= 0).all()


def test_concat_and_slice_roundtrip():
    a = Tensor(r(2, 3, 4, 4).astype(np.float32))
    b = Tensor(r(2, 2, 4, 4).astype(np.float32))
    cat = T.concat([a, b], axis=1)
    assert cat.shape == (2, 5, 4, 4)
    assert np.array_equal(cat.data[:, :3], a.data)
    assert np.array_equal(cat.data[:, 3:], b.data)


def test_boxed_resize_to_box_size_is_the_crop():
    x = Tensor(r(1, 2, 8, 8).astype(np.float32))
    for op in (T.resize_nearest, T.resize_bilinear):
        assert np.array_equal(op(x, 3, 3, [(1, 2, 4, 5)]).data, x.data[:, :, 2:5, 1:4])


@pytest.mark.parametrize("op", [T.resize_nearest, T.resize_bilinear])
@pytest.mark.parametrize(
    "shape,boxes,message",
    [
        ((2, 1, 8, 8), [(0, 0, 8, 8), (0, 4, 9, 8)], r"box \(0, 4, 9, 8\) of sample 1 is empty or outside map 8x8"),
        ((2, 1, 8, 8), [(-1, 0, 4, 4), (0, 0, 8, 8)], r"box \(-1, 0, 4, 4\) of sample 0 is empty or outside"),
        ((2, 1, 8, 8), [(0, 0, 8, 8), (3, 2, 3, 6)], r"box \(3, 2, 3, 6\) of sample 1 is empty"),
        ((2, 1, 8, 8), [(0, 0, 4, 4)], r"need 2 boxes"),
        ((1, 8, 8), None, r"need 4-D input"),
    ],
)
def test_boxed_resize_rejects_bad_boxes(op, shape, boxes, message):
    with pytest.raises(ShapeError, match=rf"{op.__name__}: {message}"):
        op(Tensor(np.zeros(shape, np.float32)), 4, 4, boxes)


def _resize_and_grad(x, g, out_h, out_w, boxes, bilinear):
    xt = Tensor(x, requires_grad=True, dtype=x.dtype)
    out = (T.resize_bilinear if bilinear else T.resize_nearest)(xt, out_h, out_w, boxes)
    backward(T.sum_(T.mul(out, Tensor(g, dtype=g.dtype))))
    return out.data, xt.grad


def test_boxed_resize_matches_per_sample_oracle():
    # both modes and dtypes, boxes of mixed sizes (a repeated one when B > 1),
    # up- and downsampling, and the whole map (boxes=None) every eighth case
    rng = np.random.default_rng(31)
    for case in range(400):
        dtype = (np.float32, np.float64)[case % 2]
        bilinear = case % 4 < 2
        b, c = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        h, w = (int(v) for v in rng.integers(1, 13, size=2))
        boxes = []
        for _ in range(b):
            x0, x1 = sorted(int(v) for v in rng.choice(w + 1, 2, replace=False))
            y0, y1 = sorted(int(v) for v in rng.choice(h + 1, 2, replace=False))
            boxes.append((x0, y0, x1, y1))
        boxes[-1] = boxes[0]
        whole = case % 8 == 7
        if whole:
            boxes = [(0, 0, w, h)] * b
        out_h, out_w = (int(v) for v in rng.integers(1, 17, size=2))
        x = rng.standard_normal((b, c, h, w)).astype(dtype)
        g = rng.standard_normal((b, c, out_h, out_w)).astype(dtype)
        out, gx = _resize_and_grad(x, g, out_h, out_w, None if whole else boxes, bilinear)
        want, want_gx = resize_per_sample(x, out_h, out_w, boxes, bilinear, g)
        assert out.dtype == dtype and out.tobytes() == want.tobytes(), case
        assert gx.dtype == dtype and gx.tobytes() == want_gx.tobytes(), case


def _flat_gather_resize(x, out_h, out_w, boxes, bilinear):
    """The resampler's forward through full-size flat indices, one gather per tap, summed in tap order."""
    b, c, h, w = x.shape
    x0, y0, x1, y1 = np.array([(0, 0, w, h)] * b if boxes is None else boxes, np.int64).T
    base = (np.arange(b)[:, None, None, None] * c + np.arange(c)[None, :, None, None]) * h
    taps = [x.reshape(-1)[(base + ii[:, None, :, None]) * w + jj[:, None, None, :]]
            * (wy[:, :, None] * wx[:, None, :])[:, None]
            for ii, wy in T._axis_taps(y0, y1, out_h, bilinear, x.dtype)
            for jj, wx in T._axis_taps(x0, x1, out_w, bilinear, x.dtype)]
    return functools.reduce(np.add, taps)


@pytest.mark.parametrize("batch", [1, 4, 8])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bilinear", [False, True], ids=["nearest", "bilinear"])
def test_axis_gather_resize_equals_flat_gather(batch, dtype, bilinear):
    # random boxes, up- and downsampling, and the whole map every fourth case
    rng = np.random.default_rng(batch * 7 + bilinear)
    op = T.resize_bilinear if bilinear else T.resize_nearest
    for case in range(40):
        h, w = (int(v) for v in rng.integers(1, 40, size=2))
        boxes = None
        if case % 4:
            boxes = []
            for _ in range(batch):
                x0, x1 = sorted(int(v) for v in rng.choice(w + 1, 2, replace=False))
                y0, y1 = sorted(int(v) for v in rng.choice(h + 1, 2, replace=False))
                boxes.append((x0, y0, x1, y1))
        out_h, out_w = (int(v) for v in rng.integers(1, 70, size=2))
        x = rng.standard_normal((batch, 3, h, w)).astype(dtype)
        out = op(Tensor(x, dtype=dtype), out_h, out_w, boxes).data
        want = _flat_gather_resize(x, out_h, out_w, boxes, bilinear)
        assert out.dtype == want.dtype == dtype and out.tobytes() == want.tobytes(), case


SIGMOID_EDGES = [0.0, -0.0, 1e-45, -1e-45, 88.7, -88.7, 104.0, -104.0, 1e30, -1e30, np.inf, -np.inf]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_and_silu_match_select_form(dtype):
    rng = np.random.default_rng(13)
    draws = rng.standard_normal(10 ** 5) * rng.choice([1.0, 10.0, 100.0], 10 ** 5)
    x = np.concatenate([SIGMOID_EDGES, draws]).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    with np.errstate(invalid="ignore"):  # silu at -inf and its gradient at +-inf are nan
        s = sigmoid_select(x)
        expect = {T.sigmoid: (s, g * s * (1.0 - s)), T.silu: (x * s, g * (s * (1.0 + x * (1.0 - s))))}
        for op, (value, grad) in expect.items():
            xt = Tensor(x, requires_grad=True, dtype=dtype)
            y = op(xt)
            backward(T.sum_(T.mul(y, Tensor(g, dtype=dtype))))
            assert y.data.tobytes() == value.tobytes()
            assert xt.grad.tobytes() == grad.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 32, 16, 16), (4, 96, 16, 16), (4, 64, 8, 8), (1, 64, 4, 4)])
def test_group_norm_matches_var_form(shape, dtype):
    rng = np.random.default_rng(14)
    c = shape[1]
    x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
    gamma, beta = (rng.standard_normal(c) + 1).astype(dtype), rng.standard_normal(c).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    ts = [Tensor(a, requires_grad=True, dtype=dtype) for a in (x, gamma, beta)]
    y = T.group_norm(*ts, groups=8)
    backward(T.sum_(T.mul(y, Tensor(g, dtype=dtype))))
    got = [y.data] + [t.grad for t in ts]
    for a, e in zip(got, group_norm_var(x, gamma, beta, 8, g)):
        assert a.tobytes() == e.tobytes()


def test_huber_trivial_values():
    z = Tensor(np.zeros(4, np.float32))
    assert T.huber(z, z, delta=1.0).item() == 0.0
    p = Tensor(np.array([0.5], np.float32))
    t = Tensor(np.array([0.0], np.float32))
    assert abs(T.huber(p, t, delta=1.0).item() - 0.125) < 1e-7
    p3 = Tensor(np.array([3.0], np.float32))
    assert abs(T.huber(p3, t, delta=1.0).item() - 2.5) < 1e-7


def test_huber_rejects_mismatched_shapes_and_bad_delta():
    with pytest.raises(ShapeError, match="huber"):
        T.huber(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(ValueError):
        T.huber(Tensor(np.zeros(3)), Tensor(np.zeros(3)), delta=0.0)
    # (2,1,4,4) and (1,1,4,4) broadcast together, but the mask does not broadcast to pred's shape
    z = Tensor(np.zeros((1, 1, 4, 4), np.float32))
    with pytest.raises(ShapeError, match=r"^huber: mask \(2, 1, 4, 4\) does not broadcast to pred \(1, 1, 4, 4\)$"):
        T.huber(z, z, Tensor(np.ones((2, 1, 4, 4), np.float32)))


def test_shape_errors_name_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(4, 2\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError, match="conv2d"):
        T.conv2d(Tensor(np.zeros((1, 3, 4, 4), np.float32)), Tensor(np.zeros((2, 4, 3, 3), np.float32)))
    for w_shape, message in (((3, 4, 3, 3), r"\(CI, CO, 2, 2\) kernel.*\(3, 4, 3, 3\)"),
                             ((2, 4, 2, 2), r"channel mismatch.*\(1, 3, 4, 4\).*\(2, 4, 2, 2\)")):
        with pytest.raises(ShapeError, match=rf"^conv2d_transpose: .*{message}"):
            T.conv2d_transpose(Tensor(np.zeros((1, 3, 4, 4), np.float32)), Tensor(np.zeros(w_shape, np.float32)))
    for op in (T.add, T.sub, T.mul):
        with pytest.raises(ShapeError, match=rf"^{op.__name__}: shapes \(2, 3\) and \(4,\) do not broadcast$"):
            op(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))


def test_group_norm_normalises_groups():
    x = Tensor((r(2, 8, 4, 4) * 5 + 3).astype(np.float32))
    gamma = Tensor(np.ones(8, np.float32))
    beta = Tensor(np.zeros(8, np.float32))
    out = T.group_norm(x, gamma, beta, groups=4).data
    grouped = out.reshape(2, 4, -1)
    assert np.allclose(grouped.mean(axis=2), 0.0, atol=1e-5)
    assert np.allclose(grouped.var(axis=2), 1.0, atol=1e-3)


def test_cross_attention_shapes_and_rows():
    q = Tensor(r(2, 9, 8).astype(np.float32))
    k = Tensor(r(2, 2, 8).astype(np.float32))
    v = Tensor(r(2, 2, 6).astype(np.float32))
    out = T.cross_attention(q, k, v)
    assert out.shape == (2, 9, 6)


# -- determinism -----------------------------------------------------------------


def test_op_sequence_is_bit_deterministic():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        y = T.silu(T.conv2d(x, w, stride=2, padding=1))
        loss = T.mean(T.mul(y, y))
        backward(loss)
        return y.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

    assert run() == run()


def test_conv_and_norm_grads_are_c_contiguous():
    # reductions over a gradient add in an order set by its memory layout,
    # so a stored gradient's layout must not depend on the op that made it
    rng = np.random.default_rng(8)

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    x, w, wt = leaf(2, 3, 6, 6), leaf(4, 3, 3, 3), leaf(4, 2, 2, 2)
    gamma, beta = leaf(4), leaf(4)
    y = T.conv2d(x, w, stride=2, padding=1)
    y = T.group_norm(y, gamma, beta, groups=2)
    y = T.conv2d_transpose(y, wt)
    backward(T.mean(T.mul(y, y)))
    for t in (x, w, wt, gamma, beta):
        assert t.grad.flags.c_contiguous


# -- graph and backward contracts -------------------------------------------------


def test_mean_backward_is_uniform():
    w = Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
    loss = T.mean(w)
    backward(loss)
    assert np.array_equal(w.grad, np.full(4, 0.25, np.float32))


def test_backward_requires_scalar_loss():
    w = Tensor(np.ones(3), requires_grad=True)
    y = T.mul(w, w)
    with pytest.raises(ShapeError, match="scalar"):
        backward(y)


def test_no_grad_tensors_never_accumulate():
    a = Tensor(np.ones(3, np.float32), requires_grad=False)
    b = Tensor(np.ones(3, np.float32), requires_grad=True)
    loss = T.mean(T.mul(a, b))
    backward(loss)
    assert a.grad is None
    assert b.grad is not None
    # ops among non-grad tensors record nothing
    c = T.mul(a, a)
    assert c._parents == ()
    assert not c.requires_grad


def test_only_parents_requiring_grad_are_recorded():
    frozen = Tensor(np.ones(3, np.float32))
    trainable = Tensor(np.ones(3, np.float32), requires_grad=True)
    assert T.mul(frozen, trainable)._parents == (trainable,)


def test_frozen_parents_gradient_function_never_runs():
    frozen = Tensor(np.full(3, 2.0, np.float32))
    trainable = Tensor(np.ones(3, np.float32), requires_grad=True)

    def refuse(g):
        raise AssertionError("the gradient of a frozen parent was computed")

    out = T._make(frozen.data * trainable.data, (frozen, trainable), (refuse, lambda g: g * frozen.data), "mul")
    backward(T.sum_(out))
    assert frozen.grad is None
    assert np.array_equal(trainable.grad, frozen.data)


def test_grad_accumulates_across_multiple_uses():
    w = Tensor(np.array([2.0, -1.0]), requires_grad=True, dtype=np.float64)
    y = T.add(T.mul(w, w), w)  # w^2 + w -> dy/dw = 2w + 1
    loss = T.sum_(y)
    backward(loss)
    assert np.allclose(w.grad, 2 * w.data + 1)


def test_topo_order_puts_producers_first():
    a = Tensor(np.ones(2), requires_grad=True)
    b = T.mul(a, a)
    c = T.add(b, a)
    d = T.mean(c)
    order = topo_order(d)
    pos = {id(t): i for i, t in enumerate(order)}
    for node in order:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_backward_frees_what_only_the_graph_held():
    x = Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
    h = T.mul(x, x)
    out = T.mul(h, x)  # kept by the caller, as a training loop keeps its prediction
    loss = T.sum_(out)
    held = weakref.ref(h.data)  # owned by h alone, so it lives exactly as long as h
    del h
    backward(loss)
    assert held() is None
    assert out._parents == () and out.grad is None and loss.grad is None
    assert np.array_equal(out.data, np.arange(4, dtype=np.float32) ** 3)
    assert np.array_equal(x.grad, 3 * x.data ** 2)


def test_second_backward_over_a_spent_graph_raises():
    # replaying it would add the same gradients again: 2, then 6 instead of 4
    x = Tensor(np.ones((1, 1, 1), np.float32), requires_grad=True)
    loss = T.sum_(T.mul(x, x))
    backward(loss)
    assert x.grad.item() == 2.0
    with pytest.raises(RuntimeError, match=r"^backward: .*released") as exc:
        backward(loss)
    assert "\n" not in str(exc.value)
    assert x.grad.item() == 2.0


def test_new_graph_on_a_spent_op_output_raises():
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    h = T.mul(x, x)
    backward(T.sum_(h))
    with pytest.raises(RuntimeError, match=r"^backward: .*released"):
        backward(T.sum_(T.mul(h, x)))
    assert np.array_equal(x.grad, np.full(3, 2, np.float32))  # refused before any gradient ran


def test_detach_blocks_gradient_flow():
    w = Tensor(np.ones(3), requires_grad=True)
    y = T.mul(w, w).detach()
    z = T.mean(T.mul(y, y))
    assert not z.requires_grad
    assert y._parents == ()


# -- gradient checks against 64-bit finite differences ----------------------------


def test_grad_huber_of_linear_model():
    w = r(3, 2)
    x = r(2, 4)
    y = r(3, 4)

    def build(ts):
        return T.huber(T.matmul(ts[0], ts[1]), ts[2], delta=1.0)

    gradcheck(build, [w, x, y], wrt=[0, 1])


def test_grad_double_use_matches_fd():
    w = r(4)

    def build(ts):
        return T.mean(T.add(T.mul(ts[0], ts[0]), ts[0]))

    gradcheck(build, [w])


@pytest.mark.parametrize(
    "name",
    ["add", "sub", "mul", "sigmoid", "silu",
     "sum", "mean", "reshape", "transpose", "concat", "matmul",
     "matmul_batched", "softmax", "log_softmax", "cross_attention", "conv2d_s1",
     "conv2d_s2", "conv2d_transpose", "conv2d_s1_bias", "conv2d_s2_bias", "conv2d_transpose_bias",
     "group_norm", "resize_nearest",
     "resize_bilinear_up", "resize_bilinear_down", "huber", "masked_huber", "mse",
     "resize_nearest_boxed", "resize_bilinear_boxed", "sum_all", "concat_last",
     "matmul_bias", "conv2d_s1_shift_residual", "conv2d_s2_shift_residual", "group_norm_silu", "tokens",
     "untokens"],
)
def test_gradcheck_catalog(name):
    checks = catalog_gradchecks()
    build, arrays, wrt = checks[name]
    gradcheck(build, arrays, wrt=wrt)


def catalog_gradchecks():
    """One finite-difference case per catalog op (shared with acceptance).

    Every weight array used by the scalarizing reduction is drawn once here
    so the analytic pass and the numeric oracle see identical functions.
    """
    rng = np.random.default_rng(3)

    def rr(*shape):
        return rng.standard_normal(shape)

    def case(op, out_shape, arrays, wrt):
        w = rr(*out_shape)
        return (lambda ts: scalarize(op(ts), w), arrays, wrt)

    cases = {
        "add": case(lambda ts: T.add(ts[0], ts[1]), (2, 3, 4, 4), [rr(2, 3, 4, 4), rr(3, 1, 1)], [0, 1]),
        "sub": case(lambda ts: T.sub(ts[0], ts[1]), (3, 4), [rr(3, 4), rr(3, 4)], [0, 1]),
        "mul": case(lambda ts: T.mul(ts[0], ts[1]), (2, 3, 4, 4), [rr(2, 3, 4, 4), rr(1, 3, 1, 1)], [0, 1]),
        "sigmoid": case(lambda ts: T.sigmoid(ts[0]), (4, 4), [rr(4, 4)], [0]),
        "silu": case(lambda ts: T.silu(ts[0]), (4, 4), [rr(4, 4)], [0]),
        "sum": case(lambda ts: T.sum_(ts[0], axis=1), (3, 5), [rr(3, 4, 5)], [0]),
        "mean": case(lambda ts: T.mean(ts[0], axis=(2, 3), keepdims=True), (2, 3, 1, 1), [rr(2, 3, 4, 4)], [0]),
        "reshape": case(lambda ts: T.reshape(ts[0], (4, 6)), (4, 6), [rr(2, 3, 4)], [0]),
        "transpose": case(lambda ts: T.transpose(ts[0], (1, 0, 2)), (3, 2, 4), [rr(2, 3, 4)], [0]),
        "concat": case(lambda ts: T.concat([ts[0], ts[1]], axis=1), (2, 5, 3, 3), [rr(2, 3, 3, 3), rr(2, 2, 3, 3)], [0, 1]),
        "matmul": case(lambda ts: T.matmul(ts[0], ts[1]), (3, 5), [rr(3, 4), rr(4, 5)], [0, 1]),
        "matmul_batched": case(lambda ts: T.matmul(ts[0], ts[1]), (2, 3, 5), [rr(2, 3, 4), rr(4, 5)], [0, 1]),
        "softmax": case(lambda ts: T.softmax(ts[0]), (3, 4), [rr(3, 4)], [0]),
        "log_softmax": case(lambda ts: T.log_softmax(ts[0]), (3, 4), [rr(3, 4)], [0]),
        "cross_attention": case(
            lambda ts: T.cross_attention(ts[0], ts[1], ts[2]), (2, 5, 3),
            [rr(2, 5, 4), rr(2, 2, 4), rr(2, 2, 3)], [0, 1, 2],
        ),
        "conv2d_s1": case(
            lambda ts: T.conv2d(ts[0], ts[1], stride=1, padding=1), (2, 4, 5, 5),
            [rr(2, 3, 5, 5), rr(4, 3, 3, 3)], [0, 1],
        ),
        "conv2d_s2": case(
            lambda ts: T.conv2d(ts[0], ts[1], stride=2, padding=1), (2, 4, 3, 3),
            [rr(2, 3, 5, 5), rr(4, 3, 3, 3)], [0, 1],
        ),
        "conv2d_transpose": case(
            lambda ts: T.conv2d_transpose(ts[0], ts[1]), (2, 4, 8, 8),
            [rr(2, 3, 4, 4), rr(3, 4, 2, 2)], [0, 1],
        ),
        "group_norm": case(
            lambda ts: T.group_norm(ts[0], ts[1], ts[2], groups=2), (2, 4, 3, 3),
            [rr(2, 4, 3, 3), rr(4) + 1.5, rr(4)], [0, 1, 2],
        ),
        "resize_nearest": case(lambda ts: T.resize_nearest(ts[0], 6, 6), (1, 2, 6, 6), [rr(1, 2, 3, 3)], [0]),
        "resize_bilinear_up": case(lambda ts: T.resize_bilinear(ts[0], 7, 7), (1, 2, 7, 7), [rr(1, 2, 4, 4)], [0]),
        "resize_bilinear_down": case(lambda ts: T.resize_bilinear(ts[0], 3, 3), (1, 2, 3, 3), [rr(1, 2, 6, 6)], [0]),
        "huber": (lambda ts: T.huber(ts[0], ts[1], delta=0.8), [rr(4, 4), rr(4, 4)], [0, 1]),
        "masked_huber": (
            lambda ts: T.huber(ts[0], ts[1], Tensor(MASK_2344, dtype=np.float64), delta=1.0),
            [rr(2, 3, 4, 4), rr(2, 3, 4, 4)],
            [0, 1],
        ),
        "mse": (lambda ts: T.mse(ts[0], ts[1]), [rr(4, 4), rr(4, 4)], [0, 1]),
        "resize_nearest_boxed": case(
            lambda ts: T.resize_nearest(ts[0], 4, 4, [(0, 0, 2, 3), (1, 1, 5, 5)]), (2, 2, 4, 4),
            [rr(2, 2, 5, 5)], [0],
        ),
        "resize_bilinear_boxed": case(
            lambda ts: T.resize_bilinear(ts[0], 4, 3, [(1, 0, 4, 5), (0, 2, 6, 6)]), (2, 2, 4, 3),
            [rr(2, 2, 6, 6)], [0],
        ),
        "conv2d_s1_bias": case(
            lambda ts: T.conv2d(ts[0], ts[1], stride=1, padding=1, bias=ts[2]), (2, 4, 5, 5),
            [rr(2, 3, 5, 4), rr(4, 3, 3, 2), rr(4)], [0, 1, 2],
        ),
        "conv2d_s2_bias": case(
            lambda ts: T.conv2d(ts[0], ts[1], stride=2, padding=1, bias=ts[2]), (2, 4, 3, 3),
            [rr(2, 3, 5, 5), rr(4, 3, 3, 3), rr(4)], [0, 1, 2],
        ),
        "conv2d_transpose_bias": case(
            lambda ts: T.conv2d_transpose(ts[0], ts[1], bias=ts[2]), (2, 4, 8, 8),
            [rr(2, 3, 4, 4), rr(3, 4, 2, 2), rr(4)], [0, 1, 2],
        ),
        "matmul_bias": case(lambda ts: T.matmul(ts[0], ts[1], bias=ts[2]), (2, 3, 5),
                            [rr(2, 3, 4), rr(4, 5), rr(5)], [0, 1, 2]),
        "conv2d_s1_shift_residual": case(
            lambda ts: T.conv2d(ts[0], ts[1], padding=1, bias=ts[2], shift=ts[3], residual=ts[4]), (2, 4, 5, 5),
            [rr(2, 3, 5, 4), rr(4, 3, 3, 2), rr(4), rr(2, 4), rr(2, 4, 5, 5)], [0, 1, 2, 3, 4],
        ),
        "conv2d_s2_shift_residual": case(
            lambda ts: T.conv2d(ts[0], ts[1], stride=2, padding=1, shift=ts[2], residual=ts[3]), (2, 4, 3, 3),
            [rr(2, 3, 5, 5), rr(4, 3, 3, 3), rr(2, 4), rr(2, 4, 3, 3)], [0, 1, 2, 3],
        ),
        "group_norm_silu": case(
            lambda ts: T.group_norm(ts[0], ts[1], ts[2], groups=2, silu=True), (2, 4, 3, 3),
            [rr(2, 4, 3, 3), rr(4) + 1.5, rr(4)], [0, 1, 2],
        ),
        "tokens": case(lambda ts: T.tokens(ts[0]), (2, 6, 3), [rr(2, 3, 2, 3)], [0]),
        "untokens": case(lambda ts: T.untokens(ts[0], ts[1]), (2, 3, 2, 3), [rr(2, 6, 3), rr(2, 3, 2, 3)], [0, 1]),
        "sum_all": case(lambda ts: T.sum_(ts[0]), (), [rr(3, 4)], [0]),
        "concat_last": case(
            lambda ts: T.concat([ts[0], ts[1]], axis=-1), (2, 3, 5), [rr(2, 3, 2), rr(2, 3, 3)], [0, 1],
        ),
    }
    return cases


def _catalog_grads(build, arrays, trainable) -> dict:
    tensors = [Tensor(a, requires_grad=(i in trainable), dtype=np.float64) for i, a in enumerate(arrays)]
    backward(build(tensors))
    return {i: tensors[i].grad for i in trainable}


@pytest.mark.parametrize("name", [n for n, (_, _, wrt) in catalog_gradchecks().items() if len(wrt) > 1])
def test_catalog_grads_do_not_depend_on_frozen_operands(name):
    # LoRA training runs most ops with frozen operands: each input's gradient
    # with the others frozen is bit-equal to its gradient with all trainable
    build, arrays, wrt = catalog_gradchecks()[name]
    every = _catalog_grads(build, arrays, wrt)
    for i in wrt:
        assert _catalog_grads(build, arrays, [i])[i].tobytes() == every[i].tobytes(), f"input {i}"


MASK_2344 = (np.random.default_rng(11).random((2, 1, 4, 4)) > 0.5).astype(np.float64)
if MASK_2344.sum() == 0:
    MASK_2344[0, 0, 0, 0] = 1.0


# -- masked huber contracts ---------------------------------------------------------


def test_masked_huber_gates_outside_values():
    rng = np.random.default_rng(5)
    pred = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    target = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
    mask = np.zeros((2, 1, 4, 4), np.float32)
    mask[:, :, 1:3, 1:3] = 1.0
    base = T.huber(Tensor(pred), Tensor(target), Tensor(mask)).item()
    pred2 = pred + rng.standard_normal(pred.shape).astype(np.float32) * (1 - mask)
    moved = T.huber(Tensor(pred2), Tensor(target), Tensor(mask)).item()
    assert base == moved


def test_masked_huber_empty_mask_rejected():
    z = Tensor(np.zeros((1, 1, 2, 2), np.float32))
    with pytest.raises(ValueError, match="degenerate"):
        T.huber(z, z, Tensor(np.zeros((1, 1, 2, 2), np.float32)))


@pytest.mark.parametrize("delta", [0.0, -1.0])
def test_masked_huber_rejects_nonpositive_delta(delta):
    z = Tensor(np.zeros((1, 1, 2, 2), np.float32))
    with pytest.raises(ValueError, match="delta"):
        T.huber(z, z, Tensor(np.ones((1, 1, 2, 2), np.float32)), delta=delta)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_huber_without_mask_equals_all_ones_mask(dtype):
    rng = np.random.default_rng(9)
    pred = (rng.standard_normal((2, 3, 4, 4)) * 1.5).astype(dtype)
    target = rng.standard_normal((2, 3, 4, 4)).astype(dtype)
    runs = []
    for mask in (None, Tensor(np.ones((2, 1, 4, 4)), dtype=dtype)):
        p = Tensor(pred, requires_grad=True, dtype=dtype)
        t = Tensor(target, requires_grad=True, dtype=dtype)
        loss = T.huber(p, t, mask, delta=0.8)
        backward(loss)
        runs.append((loss.data.tobytes(), p.grad.tobytes(), t.grad.tobytes()))
    assert runs[0] == runs[1]


# -- property tests -----------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(2, 8), st.integers(0, 2 ** 31 - 1))
def test_conv_identity_property(b, c, side, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, c, side, side)).astype(np.float32)
    w = np.zeros((c, c, 1, 1), np.float32)
    w[np.arange(c), np.arange(c), 0, 0] = 1.0
    assert np.array_equal(T.conv2d(Tensor(x), Tensor(w)).data, x)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.sampled_from([1, 2]), st.integers(0, 2), st.data())
def test_conv2d_matches_direct_summation_property(kh, kw, stride, padding, data):
    # padding above kernel-1 makes the stride-1 input gradient's pads negative
    b, ci, co = (data.draw(st.integers(1, 2)) for _ in range(3))
    h = data.draw(st.integers(max(1, kh - 2 * padding), 6))
    wd = data.draw(st.integers(max(1, kw - 2 * padding), 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    x = (rng.standard_normal((b, ci, h, wd)) * 3).astype(np.float32)
    w = rng.standard_normal((co, ci, kh, kw)).astype(np.float32)
    ho, wo = (h + 2 * padding - kh) // stride + 1, (wd + 2 * padding - kw) // stride + 1
    g = rng.standard_normal((b, co, ho, wo)).astype(np.float32)
    y, gx, gw = grads_for(T.conv2d, x, w, g, stride=stride, padding=padding)
    expect_gx, expect_gw = conv2d_grads_direct(x, w, g, stride, padding)
    assert y.tobytes() == conv2d_direct(x, w, stride, padding).tobytes()
    assert gx.tobytes() == expect_gx.tobytes()
    assert gw.tobytes() == expect_gw.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_conv2d_transpose_matches_direct_summation_property(data):
    b, ci, co, hi, wi = (data.draw(st.integers(1, n)) for n in (2, 2, 2, 4, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31 - 1)))
    x = (rng.standard_normal((b, ci, hi, wi)) * 3).astype(np.float32)
    w = rng.standard_normal((ci, co, 2, 2)).astype(np.float32)
    g = rng.standard_normal((b, co, 2 * hi, 2 * wi)).astype(np.float32)
    got = grads_for(T.conv2d_transpose, x, w, g)
    for a, e in zip(got, conv2d_transpose_direct(x, w, g, 2)):
        assert a.tobytes() == e.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_huber_nonnegative_and_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)).astype(np.float32)
    b = rng.standard_normal((3, 3)).astype(np.float32)
    assert T.huber(Tensor(a), Tensor(b)).item() >= 0.0
    assert T.huber(Tensor(a), Tensor(a.copy())).item() == 0.0
