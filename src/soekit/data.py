"""Procedural small-object scenes: generation, curation, and on-disk format.

Each scene is a low-frequency noise background (RGB in [0.4, 0.6]) with one
anti-aliased shape drawn in a saturated palette color at a random in-bounds
position. Shapes fill their bounding box edge to edge, so the stored bbox is
tight. Pixels are quantised to 8 bits at generation time, which makes the
P6 PPM round trip bit-exact.

Split conventions (area fractions of the image):
  train-small   < (1/8)^2
  val-small     in ((1/8)^2, (1/6)^2]
  train-generic side fraction in [1/4, 1/2]

Objects are never drawn smaller than latent_factor + 1 pixels per side so a
nearest-downsampled mask can never vanish at latent resolution.
"""

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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

SPLITS = ("train-small", "train-generic", "val-small")
MIN_OBJECT_SIDE = 5  # latent_factor + 1 at the default x4 downscale


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


def captions_for(label: str, color: str) -> dict:
    return {"label_only": f"a {label}", "color_label": f"a {color} {label}"}


# -- drawing ---------------------------------------------------------------------


def _bilinear_up(img: np.ndarray, side: int) -> np.ndarray:
    """Half-pixel-centre bilinear upsample of an (h, w, 3) array."""
    h, w = img.shape[:2]

    def coords(n_in, n_out):
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        i0 = np.floor(src).astype(int)
        f = src - i0
        return np.clip(i0, 0, n_in - 1), np.clip(i0 + 1, 0, n_in - 1), f

    i0, i1, fy = coords(h, side)
    j0, j1, fx = coords(w, side)
    fy = fy[:, None, None]
    fx = fx[None, :, None]
    return (
        img[i0][:, j0] * (1 - fy) * (1 - fx)
        + img[i0][:, j1] * (1 - fy) * fx
        + img[i1][:, j0] * fy * (1 - fx)
        + img[i1][:, j1] * fy * fx
    )


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


def _candidate_sides(side_fraction_range, image_side: int, min_side: int) -> list:
    lo, hi = side_fraction_range
    if not (0.0 < lo < hi):
        raise ValueError(f"invalid side fraction range [{lo}, {hi})")
    sides = [
        s
        for s in range(min_side, image_side // 2 + 1)
        if lo <= s / image_side < hi
    ]
    if not sides:
        raise ValueError(
            f"infeasible side fraction range [{lo}, {hi}) at image side {image_side} "
            f"(minimum object side {min_side})"
        )
    return sides


def generate_scene(seed, side_fraction_range, palette=PALETTE, image_side: int = 64,
                   split: str = "train-small", sample_id: str = None,
                   min_side: int = MIN_OBJECT_SIDE) -> SoeSample:
    """One scene from a counter-based substream; same seed => identical bytes.

    `seed` is either an int or a tuple (master, *split_indices); the range is
    half-open in the side fraction, [lo, hi).
    """
    if isinstance(seed, tuple):
        rng = stream_rng(seed[0], "data", *seed[1:])
    else:
        rng = stream_rng(seed, "data")
    sides = _candidate_sides(side_fraction_range, image_side, min_side)

    bg = 0.4 + 0.2 * rng.random((8, 8, 3))
    img = _bilinear_up(bg, image_side)

    s = int(rng.choice(sides))
    label = str(rng.choice(LABELS))
    color_idx = int(rng.integers(len(palette)))
    color_name, color_rgb = palette[color_idx]
    x0 = int(rng.integers(0, image_side - s + 1))
    y0 = int(rng.integers(0, image_side - s + 1))

    cov = _shape_coverage(label, s)[:, :, None]
    patch = img[y0 : y0 + s, x0 : x0 + s]
    img[y0 : y0 + s, x0 : x0 + s] = cov * np.asarray(color_rgb) + (1.0 - cov) * patch

    quantised = np.round(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    return SoeSample(
        id=sample_id or f"scene-{seed if isinstance(seed, int) else '-'.join(map(str, seed))}",
        image=(quantised.astype(np.float32) / 255.0),
        bbox=(x0, y0, s, s),
        label=label,
        color=color_name,
        split=split,
        captions=captions_for(label, color_name),
    )


# -- curation -----------------------------------------------------------------------


def curation_filter(sample: SoeSample, target_split: str) -> bool:
    """Size-threshold acceptance for a target split."""
    h, w = sample.image.shape[:2]
    x, y, bw, bh = sample.bbox
    area_frac = (bw * bh) / (w * h)
    side_frac = max(bw, bh) / max(w, h)
    if target_split == "train-small":
        return area_frac < (1.0 / 8.0) ** 2
    if target_split == "val-small":
        return (1.0 / 8.0) ** 2 < area_frac <= (1.0 / 6.0) ** 2
    if target_split == "train-generic":
        return 0.25 <= side_frac <= 0.5
    raise ValueError(f"unknown split {target_split!r}; expected one of {SPLITS}")


def split_fraction_range(split: str, image_side: int) -> tuple:
    """Half-open generator range whose integer sides satisfy the split filter."""
    if split == "train-small":
        return (MIN_OBJECT_SIDE / image_side, 1.0 / 8.0)
    if split == "val-small":
        lo = (image_side // 8 + 1) / image_side
        hi = (int(image_side / 6) + 1) / image_side
        return (lo, hi)
    if split == "train-generic":
        return (0.25, (image_side // 2 + 1) / image_side)
    raise ValueError(f"unknown split {split!r}; expected one of {SPLITS}")


def build_split(master_seed: int, split: str, count: int, image_side: int = 64) -> list:
    """`count` curated samples; sample i draws from substream (seed, split, i)."""
    split_idx = SPLITS.index(split)
    frange = split_fraction_range(split, image_side)
    samples = []
    for i in range(count):
        s = generate_scene(
            (master_seed, split_idx, i),
            frange,
            image_side=image_side,
            split=split,
            sample_id=f"{split}-{i:05d}",
        )
        if not curation_filter(s, split):
            raise AssertionError(f"generated sample {s.id} violates its split filter")
        samples.append(s)
    return samples


# -- PPM + JSONL persistence -----------------------------------------------------------


def write_ppm(path, image: np.ndarray):
    """Binary P6, maxval 255."""
    h, w = image.shape[:2]
    data = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


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
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    with open(out / "index.jsonl", "w") as fh:
        for s in samples:
            rel = f"images/{s.id}.ppm"
            write_ppm(out / rel, s.image)
            fh.write(
                json.dumps(
                    {
                        "id": s.id,
                        "image": rel,
                        "bbox": list(s.bbox),
                        "label": s.label,
                        "color": s.color,
                        "split": s.split,
                        "captions": s.captions,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    return out


def read_dataset(dataset_dir, split: str = None) -> list:
    """Load samples (optionally one split), enforcing the bbox invariant and known labels and colors."""
    root = Path(dataset_dir)
    index = root / "index.jsonl"
    if not index.exists():
        raise FileNotFoundError(f"dataset index not found: {index}")
    samples = []
    with open(index) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                sid = rec["id"]
                bbox = tuple(int(v) for v in rec["bbox"])
                label, color, rsplit = rec["label"], rec["color"], rec["split"]
                captions = rec["captions"]
                image_rel = rec["image"]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
                raise ValueError(f"{index}:{lineno}: malformed index line ({e})") from None
            for field, value, known in (("label", label, LABELS), ("color", color, COLOR_NAMES)):
                if value not in known:
                    raise ValueError(f"{index}:{lineno}: unknown {field} {value!r}")
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
    return samples
