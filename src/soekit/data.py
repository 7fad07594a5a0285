"""Procedural small-object scenes: generation, curation, and on-disk format.

Each scene is a low-frequency noise background (RGB in [0.4, 0.6]) with one
anti-aliased shape drawn in a saturated palette color at a random in-bounds
position. Shapes fill their bounding box edge to edge, so the stored bbox is
tight. Pixels are quantised to 8 bits at generation time, which makes the
P6 PPM round trip bit-exact.

Splits are defined by object size, as COCO's "small" is (area below 32^2),
but relative to the image. An object of side s on an image of side n belongs to
  train-small    when 8*s < n            (area below (1/8)^2 of the image)
  val-small      when n < 8*s and 6*s <= n  (area in ((1/8)^2, (1/6)^2])
  train-generic  when n <= 4*s           (side at least 1/4 of the image)
and in every split MIN_OBJECT_SIDE <= s <= n // 2. A bbox is judged by its
longer side; `split_sides` lists the legal sides.

Objects are never drawn smaller than MIN_OBJECT_SIDE pixels per side, one more
than the VAE's x4 latent factor, so a nearest-downsampled mask can never
vanish at latent resolution.
"""

import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from soekit import tensor as T
from soekit.checkpoint import write_atomic
from soekit.rng import stream_rng

LABELS = ("circle", "square", "triangle", "cross", "ring")

# maximally separated palette: the corners of the RGB cube
PALETTE = (
    ("black", (0.0, 0.0, 0.0)),
    ("white", (1.0, 1.0, 1.0)),
    ("red", (1.0, 0.0, 0.0)),
    ("green", (0.0, 1.0, 0.0)),
    ("blue", (0.0, 0.0, 1.0)),
    ("yellow", (1.0, 1.0, 0.0)),
    ("magenta", (1.0, 0.0, 1.0)),
    ("cyan", (0.0, 1.0, 1.0)),
)
COLOR_NAMES = tuple(name for name, _ in PALETTE)

# how a prompt is worded: the label alone, or the colour and the label
PROMPT_STYLES = ("label_only", "color_label")

SPLITS = ("train-small", "train-generic", "val-small")
MIN_OBJECT_SIDE = 5  # config.LATENT_FACTOR + 1: any 4-pixel run holds a latent sample


@dataclass
class SoeSample:
    id: str
    image: np.ndarray          # (H, W, 3) float32 in [0,1], 8-bit quantised
    bbox: tuple                # (x, y, w, h) integer pixels, fully inside
    label: str
    color: str
    split: str
    captions: dict             # {"label_only": ..., "color_label": ...}

    @property
    def label_id(self) -> int:
        return LABELS.index(self.label)

    @property
    def color_id(self) -> int:
        return COLOR_NAMES.index(self.color)

    def mask(self) -> np.ndarray:
        """Binary (H, W) float32 mask of the bbox."""
        h, w = self.image.shape[:2]
        m = np.zeros((h, w), np.float32)
        x, y, bw, bh = self.bbox
        m[y : y + bh, x : x + bw] = 1.0
        return m


def check_bbox(bbox, w: int, h: int) -> tuple:
    """(x, y, bw, bh) as ints, for a bbox with positive sides lying inside a w x h image."""
    x, y, bw, bh = (int(v) for v in bbox)
    if bw <= 0 or bh <= 0:
        raise ValueError(f"degenerate bbox {bbox}: width and height must be positive")
    if not (0 <= x and 0 <= y and x + bw <= w and y + bh <= h):
        raise ValueError(f"bbox {bbox} outside image bounds {w}x{h}")
    return x, y, bw, bh


def check_image_side(samples, image_side: int):
    """Refuse the first sample that is not image_side x image_side."""
    for s in samples:
        h, w = s.image.shape[:2]
        if h != image_side or w != image_side:
            raise ValueError(f"image size mismatch: sample {s.id} is {w}x{h}, "
                             f"data.image_side is {image_side}")


def captions_for(label: str, color: str) -> dict:
    return {"label_only": f"a {label}", "color_label": f"a {color} {label}"}


# -- drawing ---------------------------------------------------------------------


def _shape_coverage(label: str, side: int, supersample: int = 4) -> np.ndarray:
    """(side, side) anti-aliased coverage in [0,1]; shapes touch the box edges."""
    n = side * supersample
    ax = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(ax, ax)
    cx = xx - 0.5
    cy = yy - 0.5
    r = np.sqrt(cx * cx + cy * cy)
    if label == "circle":
        inside = r <= 0.5
    elif label == "square":
        inside = np.ones_like(r, bool)
    elif label == "triangle":
        # apex at top centre, base along the bottom edge
        inside = (yy >= 2.0 * np.abs(cx)) & (yy <= 1.0)
    elif label == "cross":
        inside = (np.abs(cx) <= 1.0 / 6.0) | (np.abs(cy) <= 1.0 / 6.0)
    elif label == "ring":
        inside = (r <= 0.5) & (r >= 0.25)
    else:
        raise ValueError(f"unknown shape label {label!r}")
    cov = inside.astype(np.float64).reshape(side, supersample, side, supersample)
    return cov.mean(axis=(1, 3))


def generate_scene(seed, sides, image_side: int = 64, split: str = "train-small",
                   sample_id: str = None) -> SoeSample:
    """One scene from a counter-based substream; same seed => identical bytes.

    `seed` is either an int or a tuple (master, *split_indices); the object
    side is drawn uniformly from `sides`.
    """
    if not sides:
        raise ValueError("infeasible scene: no object side to draw from")
    if not 1 <= min(sides) <= max(sides) <= image_side:
        raise ValueError(f"invalid object sides {min(sides)}..{max(sides)} for image side {image_side}")
    seed = seed if isinstance(seed, tuple) else (seed,)
    rng = stream_rng(seed[0], "data", *seed[1:])

    bg = T.Tensor(0.4 + 0.2 * rng.random((1, 8, 8, 3)).transpose(0, 3, 1, 2), dtype=np.float64)
    img = np.ascontiguousarray(T.resize_bilinear(bg, image_side, image_side).data[0].transpose(1, 2, 0))

    s = int(rng.choice(sides))
    label = str(rng.choice(LABELS))
    color_name, color_rgb = PALETTE[int(rng.integers(len(PALETTE)))]
    x0 = int(rng.integers(0, image_side - s + 1))
    y0 = int(rng.integers(0, image_side - s + 1))

    cov = _shape_coverage(label, s)[:, :, None]
    patch = img[y0 : y0 + s, x0 : x0 + s]
    img[y0 : y0 + s, x0 : x0 + s] = cov * np.asarray(color_rgb) + (1.0 - cov) * patch

    quantised = np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    return SoeSample(
        id=sample_id or f"scene-{'-'.join(map(str, seed))}",
        image=(quantised.astype(np.float32) / 255.0),
        bbox=(x0, y0, s, s),
        label=label,
        color=color_name,
        split=split,
        captions=captions_for(label, color_name),
    )


# -- curation -----------------------------------------------------------------------


_SPLIT_RULES = {
    "train-small": lambda s, n: 8 * s < n,
    "val-small": lambda s, n: n < 8 * s and 6 * s <= n,
    "train-generic": lambda s, n: n <= 4 * s,
}


def split_sides(split: str, image_side: int) -> list:
    """Every legal object side of `split` on an image of side `image_side`, ascending."""
    if split not in _SPLIT_RULES:
        raise ValueError(f"unknown split {split!r}; expected one of {SPLITS}")
    legal = _SPLIT_RULES[split]
    sides = [s for s in range(MIN_OBJECT_SIDE, image_side // 2 + 1) if legal(s, image_side)]
    if not sides:
        raise ValueError(f"split {split!r} has no legal object side at image side {image_side}")
    return sides


def curation_filter(sample: SoeSample, target_split: str) -> bool:
    """Whether the sample's bbox, by its longer side, is legal in the target split."""
    h, w = sample.image.shape[:2]
    _, _, bw, bh = sample.bbox
    return max(bw, bh) in split_sides(target_split, max(h, w))


def build_split(master_seed: int, split: str, count: int, image_side: int = 64) -> list:
    """`count` curated samples; sample i draws from substream (seed, split, i)."""
    split_idx = SPLITS.index(split)
    sides = split_sides(split, image_side)
    samples = []
    for i in range(count):
        samples.append(generate_scene(
            (master_seed, split_idx, i),
            sides,
            image_side=image_side,
            split=split,
            sample_id=f"{split}-{i:05d}",
        ))
    return samples


# -- PPM + JSONL persistence -----------------------------------------------------------


def write_ppm(path, image: np.ndarray):
    """Binary P6, maxval 255."""
    h, w = image.shape[:2]
    data = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    write_atomic(path, f"P6\n{w} {h}\n255\n".encode() + data.tobytes())


# one P6 header token: whitespace and "#" comment lines before it, one whitespace byte after it
_PPM_TOKEN = re.compile(rb"(?:\s|#[^\n]*\n)*([^\s#]+)\s")


def read_ppm(path) -> np.ndarray:
    """Binary P6, maxval 255; header tokens may share a line or sit between comment lines."""
    raw, pos, tokens = Path(path).read_bytes(), 0, []
    while len(tokens) < 4 and (token := _PPM_TOKEN.match(raw, pos)):
        tokens.append(token[1])
        pos = token.end()
    magic = tokens[0] if tokens else b""
    if magic != b"P6":
        raise ValueError(f"{path}: not a binary P6 PPM (magic {magic!r})")
    try:
        w, h, maxval = (int(v) for v in tokens[1:])
    except ValueError:
        raise ValueError(f"{path}: malformed PPM header (expected width, height and maxval)") from None
    if w < 1 or h < 1:
        raise ValueError(f"{path}: malformed PPM header (image size {w}x{h})")
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    payload = raw[pos : pos + w * h * 3]
    if len(payload) != w * h * 3:
        raise ValueError(f"{path}: truncated pixel payload")
    return np.frombuffer(payload, np.uint8).reshape(h, w, 3).astype(np.float32) / 255.0


def write_dataset(samples, out_dir) -> Path:
    """Every sample's image, then the index: a dataset whose write stopped early has no index.

    The index holds one line per sample and ends with a record of each split's
    count, so an index cut at a line boundary lacks it and `read_dataset` refuses it.
    """
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    lines = []
    for s in samples:
        rel = f"images/{s.id}.ppm"
        write_ppm(out / rel, s.image)
        rec = {"id": s.id, "image": rel, "bbox": list(s.bbox), "label": s.label, "color": s.color,
               "split": s.split, "captions": s.captions}
        lines.append(json.dumps(rec, sort_keys=True) + "\n")
    lines.append(json.dumps({"counts": Counter(s.split for s in samples)}, sort_keys=True) + "\n")
    write_atomic(out / "index.jsonl", "".join(lines))
    return out


def read_dataset(dataset_dir, split: str = None) -> list:
    """Load samples (optionally one split), enforcing the bbox invariant and known labels and colors.

    Refuses an index without its split counts record, or with a split whose
    count differs from the record, naming the file and the split.
    """
    root = Path(dataset_dir)
    index = root / "index.jsonl"
    if not index.exists():
        raise FileNotFoundError(f"dataset index not found: {index}")
    samples, found, recorded = [], Counter(), None
    with open(index) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if "counts" in rec:
                    recorded = {name: int(n) for name, n in rec["counts"].items()}
                    continue
                sid = rec["id"]
                bbox = tuple(int(v) for v in rec["bbox"])
                label, color, rsplit = rec["label"], rec["color"], rec["split"]
                captions = rec["captions"]
                image_rel = rec["image"]
            except (json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{index}:{lineno}: malformed index line ({e})") from None
            for field, value, known in (("label", label, LABELS), ("color", color, COLOR_NAMES)):
                if value not in known:
                    raise ValueError(f"{index}:{lineno}: unknown {field} {value!r}")
            found[rsplit] += 1
            if split is not None and rsplit != split:
                continue
            image_path = root / image_rel
            if not image_path.exists():
                raise FileNotFoundError(f"{index}:{lineno}: missing image file {image_path}")
            image = read_ppm(image_path)
            h, w = image.shape[:2]
            try:
                check_bbox(bbox, w, h)
            except ValueError as e:
                raise ValueError(f"{index}:{lineno}: {e}") from None
            samples.append(
                SoeSample(id=sid, image=image, bbox=bbox, label=label, color=color,
                          split=rsplit, captions=captions)
            )
    if recorded is None:
        raise ValueError(f"{index}: no split counts record; the index is incomplete")
    for name in sorted(recorded.keys() | found.keys()):
        if recorded.get(name, 0) != found[name]:
            raise ValueError(f"{index}: split {name!r} has {found[name]} samples, "
                             f"but the index records {recorded.get(name, 0)}")
    return samples
