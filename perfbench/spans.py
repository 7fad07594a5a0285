"""Spans around soekit's layers, recorded from outside the program.

`install` swaps the public functions and methods of each layer for timing
wrappers and returns a `Patches` whose `undo` restores the originals. A
function is replaced under every name any loaded ``soekit`` module binds it
to, so ``from x import f`` call sites are caught too. Tensor ops also wrap
the ``_backward_fn`` of the Tensor they return, so backward time is charged
to the op that recorded it. A name that a layer no longer has is skipped, so
a refactor that moves a helper leaves its metric at zero rather than
breaking the run.

Span keys name a layer; per key the tracer keeps inclusive seconds (a span
nested in a span of the same key is not counted twice), self seconds (minus
the direct child spans) and calls. Nothing is recorded while `recording` is
false, and nothing is wrapped outside the traced units of a traced run.
"""

import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

TENSOR_OP_CATEGORY = {
    "conv2d": "conv2d",
    "conv2d_transpose": "conv2d_transpose",
    "group_norm": "group_norm",
    "matmul": "matmul",
    "cross_attention": "cross_attention",
    "resize_nearest": "resize",
    "resize_bilinear": "resize",
}
NOT_OPS = {"backward", "topo_order"}  # graph machinery, not ops

# Noising, reversion and DDIM helpers, wherever they live; missing names are skipped.
SCHEDULE_HELPERS = {
    "soekit.train": ("add_noise_batch", "predict_z0_batch", "add_noise_int", "_ddim_np", "_step_pairs"),
}


class Tracer:
    def __init__(self):
        self.recording = False
        self.stats = defaultdict(lambda: [0.0, 0.0, 0])  # key -> [inclusive s, self s, calls]
        self.counts = defaultdict(float)
        self.teacher_unets = set()  # ids of U-Nets that run as the frozen teacher
        self._stack = []  # per open span: seconds covered by its direct children
        self._open = defaultdict(int)

    def reset(self):
        self.stats.clear()
        self.counts.clear()

    @contextmanager
    def paused(self):
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def call(self, key, fn, *args, **kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        self._stack.append(0.0)
        self._open[key] += 1
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = self._stack.pop()
            self._open[key] -= 1
            st = self.stats[key]
            if not self._open[key]:
                st[0] += dt
            st[1] += dt - child
            st[2] += 1
            if self._stack:
                self._stack[-1] += dt


class Patches:
    def __init__(self):
        self._undo = []

    def function(self, module, name, make):
        orig = getattr(module, name, None)
        if not callable(orig):
            return
        new = make(orig)
        for mod in [m for n, m in sys.modules.items() if n == "soekit" or n.startswith("soekit.")]:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def method(self, cls, name, make):
        orig = cls.__dict__.get(name)
        if orig is None:
            return
        self._undo.append((cls, name, orig))
        setattr(cls, name, make(orig))

    def undo(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def _span(tracer, key):
    def make(fn):
        def wrapper(*args, **kwargs):
            return tracer.call(key, fn, *args, **kwargs)
        return wrapper
    return make


def _tensor_op(tracer, cat, counter=None):
    fwd, bwd = f"tensor.{cat}.fwd", f"tensor.{cat}.bwd"

    def make(fn):
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            out = tracer.call(fwd, fn, *args, **kwargs)
            tracer.counts["tensor.ops.calls"] += 1
            if counter is not None:
                counter(tracer.counts, out, *args, **kwargs)
            bw = getattr(out, "_backward_fn", None)
            if bw is not None and not getattr(bw, "traced", False):
                # a composite op returns its last inner op's node, already wrapped
                def traced_bw(g):
                    return tracer.call(bwd, bw, g)
                traced_bw.traced = True
                out._backward_fn = traced_bw
            return out
        return wrapper
    return make


def _conv2d_counts(counts, out, x, w, *args, **kwargs):
    b, co, ho, wo = out.shape
    _, ci, kh, kw = w.shape
    k_cols = b * ho * wo * ci * kh * kw
    counts["tensor.conv2d.gflop"] += 2.0 * co * k_cols / 1e9
    counts["tensor.conv2d.im2col_bytes"] += 8 * k_cols  # the float64 column buffer


def _optim_step(tracer):
    def make(fn):
        def wrapper(self, *args, **kwargs):
            if tracer.recording:
                tracer.counts["optim.scalars"] += sum(p.data.size for p in self.params.values())
            return tracer.call("optim.step", fn, self, *args, **kwargs)
        return wrapper
    return make


def _unet_forward(tracer):
    def make(fn):
        def wrapper(self, *args, **kwargs):
            key = "nets.unet_teacher" if id(self) in tracer.teacher_unets else "nets.unet_student"
            return tracer.call(key, fn, self, *args, **kwargs)
        return wrapper
    return make


def _checkpoint_save(tracer):
    def make(fn):
        def wrapper(*args, **kwargs):
            path = tracer.call("checkpoint.save", fn, *args, **kwargs)
            if tracer.recording:
                tracer.counts["checkpoint.bytes"] += path.stat().st_size
            return path
        return wrapper
    return make


def install(tracer) -> Patches:
    """Wrap every traced layer; returns the patches to undo."""
    from soekit import checkpoint, data, lora, metrics, nets, optim, schedule, tensor, train

    p = Patches()
    for name, fn in list(vars(tensor).items()):
        if (inspect.isfunction(fn) and fn.__module__ == tensor.__name__
                and not name.startswith("_") and name not in NOT_OPS):
            counter = _conv2d_counts if name == "conv2d" else None
            p.function(tensor, name, _tensor_op(tracer, TENSOR_OP_CATEGORY.get(name, "other"), counter))
    p.function(tensor, "backward", _span(tracer, "tensor.backward"))

    p.method(nets.Vae, "encode", _span(tracer, "nets.vae_encode"))
    p.method(nets.Vae, "decode", _span(tracer, "nets.vae_decode"))
    p.method(nets.MiniUnet, "forward", _unet_forward(tracer))
    p.method(nets.ConditionEmbedder, "embed", _span(tracer, "nets.cond_embed"))
    p.method(lora.LoraAdapter, "delta", _span(tracer, "lora.delta"))
    for cls in list(vars(optim).values()):
        if inspect.isclass(cls) and cls.__module__ == optim.__name__ and "step" in cls.__dict__:
            p.method(cls, "step", _optim_step(tracer))

    for name, fn in list(vars(schedule).items()):
        if inspect.isfunction(fn) and fn.__module__ == schedule.__name__:
            p.function(schedule, name, _span(tracer, "schedule"))
    for modname, names in SCHEDULE_HELPERS.items():
        for name in names:
            p.function(sys.modules[modname], name, _span(tracer, "schedule"))

    for name in ("batch_tensors", "distill_loss", "denoise_loss"):
        p.function(train, name, _span(tracer, f"train.{name}"))
    p.function(data, "build_split", _span(tracer, "data.build_split"))
    p.method(metrics.ProbeClassifier, "forward", _span(tracer, "metrics.probe_fwd"))
    p.function(metrics, "masked_crop", _span(tracer, "metrics.masked_crop"))
    p.function(metrics, "frechet_distance", _span(tracer, "metrics.frechet"))
    p.function(metrics, "train_probe", _span(tracer, "metrics.train_probe"))
    p.function(checkpoint, "save_checkpoint", _checkpoint_save(tracer))
    p.function(checkpoint, "load_checkpoint", _span(tracer, "checkpoint.load"))
    return p
