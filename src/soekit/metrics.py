"""Masked-region evaluation.

All metrics operate on bbox crops only, never the whole image: a small
frozen probe classifier supplies both the alignment score (probability the
crop matches the prompted shape/color) and the feature vectors behind a
Frechet distance between generated and reference crop distributions. A
crop is made once, by `masked_crop`, as the probe's (3, side, side) input;
images stay (H, W, 3).

The probe is trained once on independently generated scenes spanning small
through generic object sizes, and is versioned via the checkpoint format so
metric values are stable across runs.
"""

import csv
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from soekit import tensor as T
from soekit import train
from soekit.checkpoint import CheckpointError, load_checkpoint, restore, save_checkpoint
from soekit.data import (COLOR_NAMES, LABELS, MIN_OBJECT_SIDE, PROMPT_STYLES, check_bbox, check_image_side,
                         generate_scene)
from soekit.nets import Conv2d, Linear, Module
from soekit.optim import Adam
from soekit.rng import child_seed, stream_rng
from soekit.tensor import Tensor

PROBE_CROP_SIDE = 32
PROBE_FEATURE_DIM = 32
PROBE_DATA_SUBSTREAM = 9  # distinct from the dataset splits' substreams
# The most samples per edit_batch call. `evaluate` splits n samples into an even number of near-equal chunks of
# at most this many (36 -> 6 of 6) and edits the second half on the worker thread. A speed setting only, tuned
# with one BLAS thread per process: a sample's bytes do not depend on its chunk or its thread.
EVAL_BATCH_SIZE = 8


# -- cropping -----------------------------------------------------------------------


def masked_crop(image: np.ndarray, bbox, out_side: int = PROBE_CROP_SIDE) -> np.ndarray:
    """Bbox region of an (H, W, 3) image bilinearly resized to out_side^2: a (3, out_side, out_side) probe input."""
    x, y, bw, bh = check_bbox(bbox, image.shape[1], image.shape[0])
    chw = Tensor(image.transpose(2, 0, 1)[None])
    return T.resize_bilinear(chw, out_side, out_side, [(x, y, x + bw, y + bh)]).data[0]


# -- probe classifier ----------------------------------------------------------------


class ProbeClassifier(Module):
    """Small convnet: 32x32 crop -> (shape logits, color logits).

    The penultimate dense activations are the feature vector used by the
    Frechet metric. Frozen after training; identical input, identical output.
    """

    def __init__(self, seed: int):
        rng = stream_rng(seed, "probe", 0)
        self.conv1 = Conv2d(rng, 3, 16, 3, 2, 1)
        self.conv2 = Conv2d(rng, 16, 32, 3, 2, 1)
        self.conv3 = Conv2d(rng, 32, 32, 3, 2, 1)
        self.fc = Linear(rng, 32 * 4 * 4, PROBE_FEATURE_DIM)
        self.head_shape = Linear(rng, PROBE_FEATURE_DIM, len(LABELS))
        self.head_color = Linear(rng, PROBE_FEATURE_DIM, len(COLOR_NAMES))
        self.trained = False

    def forward(self, crops: Tensor):
        """crops: (B, 3, 32, 32). Returns (shape_logits, color_logits, features)."""
        h = T.silu(self.conv1.forward(crops))
        h = T.silu(self.conv2.forward(h))
        h = T.silu(self.conv3.forward(h))
        h = T.reshape(h, (h.shape[0], -1))
        feats = T.silu(self.fc.forward(h))
        return self.head_shape.forward(feats), self.head_color.forward(feats), feats

    def probabilities(self, crops) -> tuple:
        """Softmax (shape, color) probabilities for a list of `masked_crop` crops."""
        ls, lc, _ = self.forward(self._batch(crops))
        return T.softmax(ls).data, T.softmax(lc).data

    def features(self, crops) -> np.ndarray:
        return self.forward(self._batch(crops))[2].data

    def _batch(self, crops) -> Tensor:
        if not self.trained:
            raise RuntimeError("probe classifier is untrained; train or load it first")
        return Tensor(np.stack(crops))


def _cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    onehot = np.zeros(logits.shape, np.float32)
    onehot[np.arange(len(targets)), targets] = 1.0
    picked = T.sum_(T.mul(T.log_softmax(logits), Tensor(onehot)))
    return T.mul(picked, Tensor(np.asarray(-1.0 / len(targets), np.float32)))


def train_probe(seed: int, count: int = 1500, steps: int = 700, lr: float = 2e-3,
                image_side: int = 64) -> ProbeClassifier:
    """Fit the probe on freshly generated scenes over a wide size range, 32 crops a step."""
    probe = ProbeClassifier(seed)
    crops, shape_ids, color_ids = [], [], []
    sides = range(MIN_OBJECT_SIDE, image_side // 2 + 1)
    for i in range(count):
        s = generate_scene((seed, PROBE_DATA_SUBSTREAM, i), sides, image_side=image_side)
        crops.append(masked_crop(s.image, s.bbox))
        shape_ids.append(s.label_id)
        color_ids.append(s.color_id)
    crops = np.stack(crops)
    shape_ids = np.asarray(shape_ids)
    color_ids = np.asarray(color_ids)

    opt = Adam(probe.params(), lr=lr)
    rng = stream_rng(seed, "probe", 1)
    for _ in range(steps):
        idx = rng.integers(0, count, size=32)
        x = Tensor(crops[idx])
        ls, lc, _ = probe.forward(x)
        loss = T.add(_cross_entropy(ls, shape_ids[idx]), _cross_entropy(lc, color_ids[idx]))
        T.backward(loss)
        opt.step()
    probe.set_trainable(False)
    probe.trained = True
    return probe


def save_probe(path, probe: ProbeClassifier, seed: int) -> Path:
    arrays = {k: p.data for k, p in probe.params("probe").items()}
    return save_checkpoint(path, arrays, {"role": "probe", "probe_seed": seed})


def load_probe(path) -> ProbeClassifier:
    arrays, blob = load_checkpoint(path)
    if blob.get("role") != "probe":
        raise CheckpointError(f"{path} is not a probe checkpoint")
    if "probe_seed" not in blob:
        raise CheckpointError(f"{path}: probe checkpoint has no 'probe_seed' key")
    probe = ProbeClassifier(seed=int(blob["probe_seed"]))
    restore(path, probe.params("probe"), arrays)
    probe.set_trainable(False)
    probe.trained = True
    return probe


# -- Frechet distance -----------------------------------------------------------------


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(feats_a: np.ndarray, feats_b: np.ndarray) -> float:
    """2-Wasserstein distance between Gaussians fitted to two feature sets.

    ||mu_a - mu_b||^2 + Tr(Sa + Sb - 2 (Sa^1/2 Sb Sa^1/2)^1/2), covariances
    with 1/(N-1) normalisation, matrix roots by symmetric eigendecomposition
    with negative eigenvalues clamped to zero, and 1e-6 * I added to both
    covariances to stabilise near-singular small-sample fits.
    """
    a = np.asarray(feats_a, np.float64)
    b = np.asarray(feats_b, np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"feature sets must be (N,d)/(M,d), got {a.shape} and {b.shape}")
    n, d = a.shape
    m = b.shape[0]
    if n < 2 or m < 2:
        raise ValueError(f"need at least 2 samples per side, got {n} and {m}")
    if n <= d or m <= d:
        warnings.warn(
            f"sample counts ({n}, {m}) do not exceed feature dim {d}; covariance estimates are singular",
            stacklevel=2,
        )
    mu_a, mu_b = a.mean(axis=0), b.mean(axis=0)
    ca = np.cov(a, rowvar=False) + 1e-6 * np.eye(d)
    cb = np.cov(b, rowvar=False) + 1e-6 * np.eye(d)
    sqrt_a = _sym_sqrt(ca)
    inner = _sym_sqrt(sqrt_a @ cb @ sqrt_a)
    dist = float(np.sum((mu_a - mu_b) ** 2) + np.trace(ca) + np.trace(cb) - 2.0 * np.trace(inner))
    return max(dist, 0.0)


# -- alignment ----------------------------------------------------------------------


def alignment_score(crop: np.ndarray, prompted_label: str, prompted_color: str,
                    style: str, probe: ProbeClassifier) -> float:
    """Probe probability that the crop matches the prompt, in [0,1].

    Label-only style scores the label probability; color+label takes the
    geometric mean of label and color probabilities.
    """
    if style not in PROMPT_STYLES:
        raise ValueError(f"unknown prompt style {style!r}")
    ps, pc = probe.probabilities([crop])
    p_label = float(ps[0, LABELS.index(prompted_label)])
    if style == "label_only":
        return p_label
    p_color = float(pc[0, COLOR_NAMES.index(prompted_color)])
    return float(np.sqrt(p_label * p_color))


# -- effective area -----------------------------------------------------------------


def map_side(image_side: int, latent_factor: int, depth: int) -> float:
    """Side of the feature map at a U-Net depth: image_side / (latent_factor * 2^depth)."""
    for name, value in (("image_side", image_side), ("latent_factor", latent_factor)):
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    return image_side / (latent_factor * (2 ** depth))


def effective_area(image_side: int, mask_side: int, latent_factor: int, depth: int) -> int:
    """Feature-map footprint of a mask after latent + U-Net downsampling.

    round(map_side * mask_fraction) with half-away-from-zero rounding, where
    map_side is ``map_side(image_side, latent_factor, depth)``. Collapsing to
    <= 1 cell is the conditioning-starvation regime for small objects.
    """
    side = map_side(image_side, latent_factor, depth)
    if mask_side <= 0:
        raise ValueError(f"mask_side must be positive, got {mask_side}")
    if mask_side > image_side:
        raise ValueError(f"mask side {mask_side} exceeds image side {image_side}")
    raw = side * (mask_side / image_side)
    return max(int(np.floor(raw + 0.5)), 0)


# -- evaluation protocol ---------------------------------------------------------------


@dataclass
class StyleRow:
    style: str
    alignment_mean: float
    frechet: float
    n: int
    alignments: tuple = field(default=(), repr=False)  # per crop, in crop order


@dataclass
class SampleScore:
    id: str
    label: str
    color: str
    bbox_side: int  # the bbox's longer side, in pixels
    alignment: float


@dataclass
class MetricsReport:
    rows: list
    samples: list = field(default_factory=list)  # a SampleScore per evaluated sample, in id order

    def csv_text(self) -> str:
        lines = ["style,alignment_mean,frechet,n"]
        for r in self.rows:
            lines.append(f"{r.style},{r.alignment_mean:.6f},{r.frechet:.6f},{r.n}")
        return "\n".join(lines) + "\n"

    def details_csv_text(self) -> str:
        """One row per evaluated sample: id,label,color,bbox_side,alignment (6 decimals, as csv_text)."""
        out = io.StringIO()
        rows = csv.writer(out, lineterminator="\n")
        rows.writerow(["id", "label", "color", "bbox_side", "alignment"])
        rows.writerows([d.id, d.label, d.color, d.bbox_side, f"{d.alignment:.6f}"] for d in self.samples)
        return out.getvalue()


def metrics_from_crop_pairs(gen_crops, ref_crops, labels, colors, style, probe) -> StyleRow:
    """Alignment over generated crops + Frechet between the two crop sets."""
    scores = [
        alignment_score(c, lab, col, style, probe)
        for c, lab, col in zip(gen_crops, labels, colors)
    ]
    fd = frechet_distance(probe.features(gen_crops), probe.features(ref_crops))
    return StyleRow(style=style, alignment_mean=float(np.mean(scores)), frechet=fd, n=len(gen_crops),
                    alignments=tuple(scores))


def _chunk_bounds(n: int) -> list:
    """(start, stop) of near-equal chunks of at most EVAL_BATCH_SIZE covering range(n), in order.

    The chunk count is the least even one, or n where that is fewer.
    """
    k = -(-n // EVAL_BATCH_SIZE)
    k = min(k + k % 2, n)
    q, r = divmod(n, k)
    edges = [i * q + min(i, r) for i in range(k + 1)]
    return list(zip(edges, edges[1:]))


def _edit_crops(samples, bounds, style: str, bundle, ddim_steps: int, seed: int) -> list:
    """Edit samples[start:stop] for each (start, stop) of bounds through `edit_batch`; their bbox crops, in order."""
    crops = []
    for start, stop in bounds:
        chunk = samples[start:stop]
        outs = train.edit_batch([s.image for s in chunk], [s.bbox for s in chunk], [s.label for s in chunk],
                                [s.color for s in chunk], style, bundle, steps=ddim_steps,
                                seeds=[child_seed(seed, "eval", i) for i in range(start, stop)])
        crops += [masked_crop(out, s.bbox) for out, s in zip(outs, chunk)]
    return crops


def evaluate(bundle, val_samples, style: str, seed: int, probe: ProbeClassifier,
             ddim_steps: int = 10, max_samples: int = None) -> MetricsReport:
    """Edit every validation sample at its own bbox/prompt and score the crops.

    The id-sorted samples are split into an even number of near-equal chunks
    of at most `EVAL_BATCH_SIZE` (`_chunk_bounds`), each one `edit_batch` call.
    The second half of the chunks goes, in order, to the process's one
    worker thread through `train.overlap`, while the calling thread edits and
    crops the first half. numpy releases the interpreter lock in its
    kernels, so the halves share two cores; the overlap is tuned for one
    BLAS thread per process.

    The split cannot change a byte: sample i, in id order, draws its noise
    from child_seed(seed, "eval", i); every op in `edit_batch` is per sample,
    and each call makes its own inference copy. So the report and the crops
    are the same at every chunk size and on either thread, and reproducible
    regardless of evaluation count. Probe scoring and the Frechet distance
    run per crop on the calling thread, after the join, in sample order. The
    report's `samples` hold each sample's alignment.
    """
    if max_samples is not None and max_samples < 1:
        raise ValueError(f"max_samples must be >= 1, got {max_samples}")
    if not val_samples:
        raise ValueError("validation split is empty")
    samples = sorted(val_samples, key=lambda s: s.id)
    if max_samples is not None:
        samples = samples[:max_samples]
    check_image_side(samples, bundle.cfg.data.image_side)
    bounds = _chunk_bounds(len(samples))
    half = (len(bounds) + 1) // 2
    second, first = train.overlap(lambda: _edit_crops(samples, bounds[half:], style, bundle, ddim_steps, seed),
                                  lambda: _edit_crops(samples, bounds[:half], style, bundle, ddim_steps, seed))
    gen_crops = first + second
    ref_crops = [masked_crop(s.image, s.bbox) for s in samples]
    row = metrics_from_crop_pairs(gen_crops, ref_crops, [s.label for s in samples], [s.color for s in samples],
                                  style, probe)
    scores = [SampleScore(s.id, s.label, s.color, max(s.bbox[2:]), a) for s, a in zip(samples, row.alignments)]
    return MetricsReport(rows=[row], samples=scores)
