"""Scene generation, curation thresholds, and dataset persistence."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from soekit.data import (
    COLOR_NAMES,
    MIN_OBJECT_SIDE,
    PALETTE,
    SPLITS,
    SoeSample,
    build_split,
    curation_filter,
    generate_scene,
    read_dataset,
    read_ppm,
    split_sides,
    write_dataset,
    write_ppm,
)


def test_same_seed_gives_byte_identical_sample():
    a = generate_scene(123, split_sides("train-small", 64))
    b = generate_scene(123, split_sides("train-small", 64))
    assert a.image.tobytes() == b.image.tobytes()
    assert a.bbox == b.bbox and a.label == b.label and a.color == b.color


def test_generated_data_is_pinned():
    # every downstream digest depends on these bytes: a resampler or RNG change must move this on purpose
    h = hashlib.sha256()
    for split in SPLITS:
        for s in build_split(0, split, 8):
            h.update(s.image.tobytes())
            h.update(repr((s.bbox, s.label, s.color)).encode())
    assert h.hexdigest()[:16] == "227490c1c7ea2b49"


def test_generated_data_at_128px_is_pinned():
    h = hashlib.sha256()
    for split in SPLITS:
        for s in build_split(0, split, 8, image_side=128):
            h.update(s.image.tobytes())
            h.update(repr((s.bbox, s.label, s.color)).encode())
    assert h.hexdigest()[:16] == "33c2099e5c340291"


def test_side_fraction_range_is_half_open():
    for seed in range(200):
        s = generate_scene(seed, split_sides("train-small", 64))
        x, y, w, h = s.bbox
        assert (w * h) < (64 * 64) * (1 / 8) ** 2
        assert w / 64 >= 1 / 16


def test_bbox_always_inside_image():
    for seed in range(100):
        s = generate_scene(seed, split_sides("train-generic", 64))
        x, y, w, h = s.bbox
        assert x >= 0 and y >= 0 and x + w <= 64 and y + h <= 64


def test_infeasible_range_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        generate_scene(0, [])
    with pytest.raises(ValueError, match="invalid"):
        generate_scene(0, [0, 3])


def test_bbox_mean_color_decodes_to_drawn_palette_color():
    palette_arr = np.array([rgb for _, rgb in PALETTE])
    hits = 0
    n = 1000
    for seed in range(n):
        s = generate_scene((909, 0, seed), split_sides("train-small", 64))
        x, y, w, h = s.bbox
        mean = s.image[y : y + h, x : x + w].reshape(-1, 3).mean(axis=0)
        d = np.linalg.norm(palette_arr - mean[None, :], axis=1)
        if COLOR_NAMES[int(np.argmin(d))] == s.color:
            hits += 1
    assert hits / n >= 0.99


def test_min_object_side_floor():
    # every mask survives a x4 nearest downsample: side >= 5 pixels
    for seed in range(200):
        s = generate_scene(seed, split_sides("train-small", 64))
        assert s.bbox[2] >= 5 and s.bbox[3] >= 5
        latent = s.mask()[2::4, 2::4]
        assert latent.sum() >= 1


def test_curation_thresholds_on_64px_images():
    def sample_with_bbox(side):
        img = np.zeros((64, 64, 3), np.float32)
        return SoeSample(
            id="t", image=img, bbox=(0, 0, side, side), label="circle",
            color="red", split="train-small",
        )

    assert curation_filter(sample_with_bbox(7), "train-small")        # 0.0120 < 1/64
    assert not curation_filter(sample_with_bbox(8), "train-small")    # exactly (1/8)^2
    assert curation_filter(sample_with_bbox(9), "val-small")          # 0.0198 in range
    assert curation_filter(sample_with_bbox(10), "val-small")
    assert not curation_filter(sample_with_bbox(8), "val-small")      # lower bound exclusive
    assert not curation_filter(sample_with_bbox(12), "val-small")     # 0.0352 > (1/6)^2
    assert curation_filter(sample_with_bbox(16), "train-generic")
    assert curation_filter(sample_with_bbox(32), "train-generic")
    assert not curation_filter(sample_with_bbox(33), "train-generic")
    with pytest.raises(ValueError, match="unknown split"):
        curation_filter(sample_with_bbox(8), "test")


def test_build_split_sizes_and_disjoint_ids():
    small = build_split(5, "train-small", 20)
    generic = build_split(5, "train-generic", 20)
    val = build_split(5, "val-small", 20)
    for s in small:
        assert curation_filter(s, "train-small")
    for s in generic:
        assert curation_filter(s, "train-generic")
    for s in val:
        assert curation_filter(s, "val-small")
    ids = [s.id for s in small + generic + val]
    assert len(set(ids)) == len(ids)


def test_split_fraction_ranges_produce_expected_sides():
    sides = split_sides("val-small", 64)
    assert sides == [9, 10]
    sides = split_sides("train-small", 64)
    assert sides == [5, 6, 7]
    assert split_sides("train-generic", 64) == list(range(16, 33))


def _defined_sides(split, n):
    """The split's sides from its area and side-fraction definitions, with exact bounds."""
    small_area, val_area = Fraction(1, 64) * n * n, Fraction(1, 36) * n * n  # in pixels^2
    generic_lo, generic_hi = Fraction(1, 4) * n, Fraction(1, 2) * n
    legal = {
        "train-small": lambda s: s * s < small_area,
        "val-small": lambda s: small_area < s * s <= val_area,
        "train-generic": lambda s: generic_lo <= s <= generic_hi,
    }[split]
    return [s for s in range(MIN_OBJECT_SIDE, n + 1) if legal(s)]


def test_split_sides_match_the_area_and_side_definitions():
    for n in range(16, 1025):
        for split in SPLITS:
            expected = _defined_sides(split, n)
            if expected:
                assert split_sides(split, n) == expected, (split, n)
            else:
                with pytest.raises(ValueError, match="no legal object side"):
                    split_sides(split, n)


def test_split_sides_errors_name_the_split():
    with pytest.raises(ValueError, match="unknown split 'test'"):
        split_sides("test", 64)
    with pytest.raises(ValueError, match="split 'train-small' has no legal object side at image side 32"):
        split_sides("train-small", 32)


@pytest.mark.parametrize("sides", [[], [0], [5, 65]], ids=["empty", "zero", "above-image"])
def test_generate_scene_refuses_sides_it_cannot_draw(sides):
    with pytest.raises(ValueError) as exc:
        generate_scene(0, sides, image_side=64)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_write_ppm_refuses_non_finite_pixels_and_writes_nothing(tmp_path, value):
    image = np.full((4, 4, 3), value, np.float32) if np.isnan(value) else np.zeros((4, 4, 3), np.float32)
    image[1, 2, 0] = value
    path = tmp_path / "out.ppm"
    with pytest.raises(ValueError, match=f"^{path}: image has non-finite pixels"):
        write_ppm(path, image)
    assert list(tmp_path.iterdir()) == []


def test_ppm_roundtrip_bit_identical(tmp_path):
    s = generate_scene(55, split_sides("train-small", 64))
    p = tmp_path / "img.ppm"
    write_ppm(p, s.image)
    back = read_ppm(p)
    assert back.tobytes() == s.image.tobytes()


@pytest.mark.parametrize("header", [b"P6\n# a comment\n2 2\n255\n", b"P6 2 2 255\n"],
                         ids=["comment-line", "one-line"])
def test_read_ppm_accepts_valid_headers(tmp_path, header):
    # the payload opens with whitespace bytes: exactly one byte after maxval belongs to the header
    payload = bytes(range(10, 22))
    p = tmp_path / "img.ppm"
    p.write_bytes(header + payload)
    img = read_ppm(p)
    assert img.shape == (2, 2, 3)
    assert np.array_equal(np.round(img * 255).astype(np.uint8).tobytes(), payload)


def test_dataset_roundtrip(tmp_path):
    samples = build_split(9, "train-small", 6)
    write_dataset(samples, tmp_path / "ds")
    back = read_dataset(tmp_path / "ds")
    assert len(back) == len(samples)
    for a, b in zip(samples, back):
        assert a.id == b.id
        assert a.image.tobytes() == b.image.tobytes()
        assert a.bbox == b.bbox and a.label == b.label and a.color == b.color
        assert a.split == b.split


def test_read_rejects_out_of_bounds_bbox(tmp_path):
    samples = build_split(9, "train-small", 1)
    root = write_dataset(samples, tmp_path / "ds")
    lines = (root / "index.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    rec["bbox"] = [60, 60, 10, 10]
    (root / "index.jsonl").write_text(json.dumps(rec) + "\n")
    with pytest.raises(ValueError, match="bbox .* outside"):
        read_dataset(root)


def test_read_reports_line_number_on_malformed_index(tmp_path):
    samples = build_split(9, "train-small", 2)
    root = write_dataset(samples, tmp_path / "ds")
    lines = (root / "index.jsonl").read_text().splitlines()
    (root / "index.jsonl").write_text(lines[0] + "\n{bad json\n")
    with pytest.raises(ValueError, match=":2:"):
        read_dataset(root)


@pytest.mark.parametrize("field, value", [("label", "hexagon"), ("color", "mauve")])
def test_read_rejects_unknown_label_or_color(tmp_path, field, value):
    root = write_dataset(build_split(9, "train-small", 2), tmp_path / "ds")
    lines = (root / "index.jsonl").read_text().splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), field: value})
    (root / "index.jsonl").write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_dataset(root)
    assert str(exc.value) == f"{root / 'index.jsonl'}:2: unknown {field} {value!r}"


def test_read_reports_missing_image(tmp_path):
    samples = build_split(9, "train-small", 2)
    root = write_dataset(samples, tmp_path / "ds")
    (root / "images" / f"{samples[0].id}.ppm").unlink()
    with pytest.raises(FileNotFoundError, match=samples[0].id):
        read_dataset(root)


def test_read_filters_by_split(tmp_path):
    samples = build_split(3, "train-small", 3) + build_split(3, "val-small", 2)
    root = write_dataset(samples, tmp_path / "ds")
    assert len(read_dataset(root, split="val-small")) == 2
