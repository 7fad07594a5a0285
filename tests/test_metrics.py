"""Probe, Frechet distance, alignment, effective area, evaluation protocol."""

import dataclasses
import hashlib
import sys
import threading
import time

import numpy as np
import pytest

from helpers import InlineWorker, set_adapter_b
from soekit import metrics, train
from soekit.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from soekit.config import RunConfig
from soekit.data import build_split, generate_scene, split_sides
from soekit.metrics import (
    MetricsReport,
    ProbeClassifier,
    StyleRow,
    alignment_score,
    effective_area,
    evaluate,
    frechet_distance,
    load_probe,
    masked_crop,
    metrics_from_crop_pairs,
    save_probe,
    train_probe,
)
from soekit.rng import child_seed
from soekit.train import Trainer, pretrain_teacher


@pytest.fixture(scope="module")
def probe():
    return train_probe(seed=7, count=800, steps=400, image_side=64)


@pytest.fixture(scope="module")
def tiny_bundle():
    cfg = RunConfig.from_dict({
        "train": {"pretrain_vae_steps": 2, "pretrain_steps": 2, "batch_size": 2},
    })
    return pretrain_teacher(build_split(1, "train-generic", 6), cfg)


# -- masked crop ----------------------------------------------------------------------


def test_masked_crop_full_image_is_plain_resize():
    img = np.random.default_rng(0).random((64, 64, 3)).astype(np.float32)
    crop = masked_crop(img, (0, 0, 64, 64))
    assert crop.shape == (3, 32, 32)


def test_masked_crop_constant_region():
    img = np.zeros((64, 64, 3), np.float32)
    img[10:20, 10:20] = 0.7
    crop = masked_crop(img, (10, 10, 10, 10))
    assert np.allclose(crop, 0.7, atol=1e-6)


def test_masked_crop_rejects_bad_boxes():
    img = np.zeros((64, 64, 3), np.float32)
    with pytest.raises(ValueError, match="degenerate"):
        masked_crop(img, (5, 5, 0, 4))
    with pytest.raises(ValueError, match="outside"):
        masked_crop(img, (60, 60, 10, 10))
    for bad in ((3.9, 2, True, "5"), (5, 5, 4.0, 4), (5, 5, True, 4), (5, 5, 4, np.float32(4)), (5, 5, 4), "5,5,4,4"):
        with pytest.raises(ValueError, match=r"^bbox must be four integers \(x, y, w, h\), got "):
            masked_crop(img, bad)
    assert np.array_equal(masked_crop(img, np.array([5, 5, 4, 4])), masked_crop(img, (5, 5, 4, 4)))


def test_masked_crop_grids_align_between_generated_and_truth():
    # identical bboxes on two images produce crops sampled on the same grid:
    # a checkerboard probe survives subtraction exactly
    rng = np.random.default_rng(1)
    base = rng.random((64, 64, 3)).astype(np.float32)
    checker = np.indices((64, 64)).sum(axis=0) % 2
    a = base.copy()
    b = base + checker[:, :, None].astype(np.float32)
    bbox = (12, 8, 16, 16)
    ca = masked_crop(a, bbox, out_side=16)
    cb = masked_crop(b, bbox, out_side=16)
    assert np.allclose(cb - ca, checker[None, 8:24, 12:28], atol=1e-6)


# -- Frechet distance -----------------------------------------------------------------


def test_frechet_identical_sets_is_zero():
    feats = np.random.default_rng(2).standard_normal((40, 8))
    assert frechet_distance(feats, feats.copy()) < 1e-6


def test_frechet_univariate_closed_form():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((64, 1))
    a = (a - a.mean()) / a.std(ddof=1)  # fitted moments exactly (0, 1)
    b = a + 1.0                         # fitted moments exactly (1, 1)
    assert abs(frechet_distance(a, b) - 1.0) < 1e-4


def test_frechet_symmetry_and_permutation_invariance():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((30, 6))
    b = rng.standard_normal((25, 6)) + 0.3
    d1 = frechet_distance(a, b)
    d2 = frechet_distance(b, a)
    assert abs(d1 - d2) < 1e-6
    perm = rng.permutation(30)
    assert abs(frechet_distance(a[perm], b) - d1) < 1e-9


def test_frechet_input_validation_and_warning():
    a = np.zeros((1, 4))
    with pytest.raises(ValueError, match="at least 2"):
        frechet_distance(a, a)
    small = np.random.default_rng(5).standard_normal((3, 8))
    with pytest.warns(UserWarning, match="singular"):
        frechet_distance(small, small + 0.1)


def test_frechet_nonnegative():
    rng = np.random.default_rng(6)
    for trial in range(5):
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal((12, 4))
        assert frechet_distance(a, b) >= 0.0


# -- alignment -------------------------------------------------------------------------


def test_alignment_requires_trained_probe():
    raw = ProbeClassifier(seed=0)
    crop = np.zeros((32, 32, 3), np.float32)
    with pytest.raises(RuntimeError, match="untrained"):
        alignment_score(crop, "circle", "red", "label_only", raw)


def test_probe_gate_on_ground_truth_crops(probe):
    val = build_split(11, "val-small", 24)
    scores = [
        alignment_score(masked_crop(s.image, s.bbox), s.label, s.color, "color_label", probe)
        for s in val
    ]
    assert float(np.mean(scores)) >= 0.9


def test_probe_probabilities_are_distributions(probe):
    crops = [masked_crop(s.image, s.bbox) for s in build_split(12, "val-small", 4)]
    ps, pc = probe.probabilities(crops)
    assert np.all(ps >= 0) and np.all(ps <= 1)
    assert np.abs(ps.sum(axis=1) - 1).max() < 1e-5
    assert np.abs(pc.sum(axis=1) - 1).max() < 1e-5


def test_noise_crop_scores_near_chance(probe):
    from soekit.data import LABELS

    rng = np.random.default_rng(13)
    means = []
    for _ in range(8):
        noise = rng.random((32, 32, 3)).astype(np.float32).transpose(2, 0, 1)  # the probe's (3, 32, 32) layout
        scores = [alignment_score(noise, lab, "red", "label_only", probe) for lab in LABELS]
        means.append(np.mean(scores))
    assert float(np.mean(means)) <= 2.0 / len(LABELS)


def test_alignment_style_validation(probe):
    crop = np.zeros((32, 32, 3), np.float32)
    with pytest.raises(ValueError, match="style"):
        alignment_score(crop, "circle", "red", "both", probe)


def test_probe_scenes_are_pinned(monkeypatch):
    # the probe's training scenes span every object side from MIN_OBJECT_SIDE to half the image
    scenes, draw = [], metrics.generate_scene

    def recorded(*args, **kwargs):
        scenes.append(draw(*args, **kwargs))
        return scenes[-1]

    monkeypatch.setattr(metrics, "generate_scene", recorded)
    train_probe(seed=7, count=32, steps=0, image_side=64)
    h = hashlib.sha256()
    for s in scenes:
        h.update(s.image.tobytes())
        h.update(repr((s.bbox, s.label, s.color)).encode())
    assert len(scenes) == 32 and h.hexdigest()[:16] == "19a15d5bc5902b5d"


def test_probe_save_load_roundtrip(probe, tmp_path):
    p = save_probe(tmp_path / "probe.soek", probe, seed=7)
    back = load_probe(p)
    crop = masked_crop(generate_scene(99, split_sides("train-small", 64)).image, (10, 10, 12, 12))
    a = probe.probabilities([crop])
    b = back.probabilities([crop])
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@pytest.mark.parametrize("change, message", [
    (lambda a: a.pop("probe.conv1.b"), "missing array 'probe.conv1.b'"),
    (lambda a: a.update({"probe.conv1.b": a["probe.conv1.b"][:-1]}), r"array 'probe.conv1.b' has shape \(15,\)"),
])
def test_load_probe_is_strict(tmp_path, change, message):
    p = save_probe(tmp_path / "probe.soek", ProbeClassifier(0), seed=0)
    arrays, blob = load_checkpoint(p)
    change(arrays)
    save_checkpoint(p, arrays, blob)
    with pytest.raises(CheckpointError, match=f"{p}: {message}"):
        load_probe(p)


# -- effective area -------------------------------------------------------------------


def test_effective_area_paper_anchor_points():
    # 512 image, 64 mask, 8x8 map -> 1x1 footprint
    assert effective_area(512, 64, 8, 3) == 1
    # mask side 1/5 of the image on an 8x8 map -> round(8/5) = 2
    assert effective_area(640, 128, 5, 4) == 2
    # mask side 1/6 -> round(8/6) = 1
    assert effective_area(768, 128, 3, 5) == 1


def test_effective_area_rounds_half_away_from_zero():
    # map 8, fraction 3/16 -> raw 1.5 rounds to 2
    assert effective_area(512, 96, 8, 3) == 2


def test_effective_area_monotone_in_mask_side():
    prev = 0
    for mask_side in range(1, 513, 7):
        cur = effective_area(512, mask_side, 8, 3)
        assert cur >= prev
        prev = cur


def test_effective_area_validation():
    with pytest.raises(ValueError):
        effective_area(0, 1, 8, 3)
    with pytest.raises(ValueError, match="exceeds"):
        effective_area(64, 65, 4, 2)


# -- evaluation protocol -----------------------------------------------------------------


def test_self_evaluation_oracle(probe):
    val = build_split(14, "val-small", 24)
    crops = [masked_crop(s.image, s.bbox) for s in val]
    labels = [s.label for s in val]
    colors = [s.color for s in val]
    with pytest.warns(UserWarning):
        row = metrics_from_crop_pairs(crops, [c.copy() for c in crops], labels, colors, "color_label", probe)
    assert row.frechet < 1e-3
    baseline = np.mean([
        alignment_score(c, lab, col, "color_label", probe)
        for c, lab, col in zip(crops, labels, colors)
    ])
    assert abs(row.alignment_mean - baseline) < 1e-9


def test_metrics_ignore_content_outside_bbox(probe):
    val = build_split(15, "val-small", 12)
    rng = np.random.default_rng(0)

    def rows(samples):
        crops = [masked_crop(s.image, s.bbox) for s in samples]
        with pytest.warns(UserWarning):
            return metrics_from_crop_pairs(crops, crops, [s.label for s in samples],
                                           [s.color for s in samples], "label_only", probe)

    base = rows(val)
    for s in val:
        x, y, w, h = s.bbox
        outside = np.ones((64, 64), bool)
        outside[y : y + h, x : x + w] = False
        s.image[outside] = rng.random((int(outside.sum()), 3)).astype(np.float32)
    perturbed = rows(val)
    assert abs(base.alignment_mean - perturbed.alignment_mean) < 1e-6
    assert abs(base.frechet - perturbed.frechet) < 1e-6


def test_evaluate_deterministic_and_validated(probe, tiny_bundle):
    val = build_split(16, "val-small", 4)
    with pytest.warns(UserWarning):
        r1 = evaluate(tiny_bundle, val, "color_label", seed=5, probe=probe, ddim_steps=2)
    with pytest.warns(UserWarning):
        r2 = evaluate(tiny_bundle, val, "color_label", seed=5, probe=probe, ddim_steps=2)
    assert r1.rows[0] == r2.rows[0]
    assert r1.csv_text() == r2.csv_text()
    with pytest.raises(ValueError, match="empty"):
        evaluate(tiny_bundle, [], "color_label", seed=0, probe=probe)
    big = build_split(16, "val-small", 1, image_side=128)
    with pytest.raises(ValueError, match="mismatch"):
        evaluate(tiny_bundle, big, "color_label", seed=0, probe=probe)


def test_evaluate_is_batch_invariant(probe, tiny_bundle, monkeypatch):
    student = Trainer(tiny_bundle.cfg, build_split(4, "train-small", 4), tiny_bundle).bundle()
    set_adapter_b(student.adapters, seed=5)
    val = build_split(17, "val-small", 7)
    crops = []

    def spy(gen_crops, *args):
        crops.append(gen_crops)
        return metrics_from_crop_pairs(gen_crops, *args)

    monkeypatch.setattr(metrics, "metrics_from_crop_pairs", spy)
    reports = []
    for batch_size in (1, 3, 8):  # 7 samples: 7 chunks of 1, then 2-2-2-1 and 4-3, both ragged
        monkeypatch.setattr(metrics, "EVAL_BATCH_SIZE", batch_size)
        with pytest.warns(UserWarning):
            reports.append(evaluate(student, val, "color_label", seed=9, probe=probe, ddim_steps=2).csv_text())
    assert reports[0] == reports[1] == reports[2]
    for other in crops[1:]:
        assert [c.tobytes() for c in other] == [c.tobytes() for c in crops[0]]


@pytest.mark.parametrize("n, batch_size, sizes", [
    (36, 8, [6] * 6),
    (8, 8, [4, 4]),
    (8, 3, [2, 2, 2, 2]),
    (7, 3, [2, 2, 2, 1]),
    (5, 1, [1] * 5),
    (1, 8, [1]),
])
def test_chunks_are_even_in_number_near_equal_and_in_order(monkeypatch, n, batch_size, sizes):
    monkeypatch.setattr(metrics, "EVAL_BATCH_SIZE", batch_size)
    bounds = metrics._chunk_bounds(n)
    assert [stop - start for start, stop in bounds] == sizes
    assert [b[0] for b in bounds] == [0] + [b[1] for b in bounds[:-1]] and bounds[-1][1] == n


def _recorded_evaluate(monkeypatch, bundle, val, probe):
    """evaluate's report, its crops, and (thread name, sample indices) per edit_batch call."""
    calls, crops, edit, pairs = [], [], train.edit_batch, metrics.metrics_from_crop_pairs

    def spy_edit(*args, seeds, **kw):
        calls.append((threading.current_thread().name, [seeds_of.index(s) for s in seeds]))
        return edit(*args, seeds=seeds, **kw)

    def spy_pairs(gen_crops, *args):
        crops.append([c.tobytes() for c in gen_crops])
        return pairs(gen_crops, *args)

    seeds_of = [child_seed(9, "eval", i) for i in range(len(val))]
    monkeypatch.setattr(train, "edit_batch", spy_edit)
    monkeypatch.setattr(metrics, "metrics_from_crop_pairs", spy_pairs)
    with pytest.warns(UserWarning):
        report = evaluate(bundle, val, "color_label", seed=9, probe=probe, ddim_steps=2)
    return report, crops[0], calls


def test_evaluate_edits_the_second_half_on_the_worker(probe, tiny_bundle, monkeypatch):
    val = build_split(18, "val-small", 8)
    interval = sys.getswitchinterval()
    monkeypatch.setattr(metrics, "EVAL_BATCH_SIZE", 3)
    sys.setswitchinterval(1e-6)  # interleave the two threads' Python as finely as the interpreter allows
    try:
        report, crops, calls = _recorded_evaluate(monkeypatch, tiny_bundle, val, probe)
    finally:
        sys.setswitchinterval(interval)
    here = threading.current_thread().name
    assert [c for c in calls if c[0] == here] == [(here, [0, 1]), (here, [2, 3])]
    assert [c for c in calls if c[0] != here] == [("soekit-worker_0", [4, 5]), ("soekit-worker_0", [6, 7])]

    monkeypatch.setattr(train, "worker", InlineWorker)
    inline_report, inline_crops, inline_calls = _recorded_evaluate(monkeypatch, tiny_bundle, val, probe)
    assert [c[0] for c in inline_calls] == [here] * 4
    assert inline_report.csv_text() == report.csv_text()
    assert inline_report.samples == report.samples
    assert inline_crops == crops


def test_evaluate_of_one_sample_edits_it_here(probe, tiny_bundle, monkeypatch):
    # one crop is too few for a Frechet distance: that refusal comes after the edit, from this thread
    calls, edit = [], train.edit_batch

    def spy_edit(*args, **kw):
        calls.append(threading.current_thread().name)
        return edit(*args, **kw)

    monkeypatch.setattr(train, "edit_batch", spy_edit)
    with pytest.raises(ValueError, match=r"^need at least 2 samples per side, got 1 and 1$"):
        evaluate(tiny_bundle, build_split(18, "val-small", 3), "color_label", seed=9, probe=probe,
                 ddim_steps=2, max_samples=1)
    assert calls == [threading.current_thread().name]


def test_worker_error_is_raised_from_evaluate(probe, tiny_bundle):
    # the last sample in id order is edited on the worker: its refusal comes back with its own type and message
    val = build_split(18, "val-small", 4)
    val[-1] = dataclasses.replace(val[-1], bbox=(3, 3, 3, 3))
    with pytest.raises(ValueError, match=r"^bbox \(3, 3, 3, 3\) covers no latent sample; it would be left unedited$"):
        evaluate(tiny_bundle, val, "color_label", seed=9, probe=probe, ddim_steps=2)


def test_error_on_the_first_half_waits_for_the_worker(probe, tiny_bundle, monkeypatch):
    started, finished, edit = threading.Event(), [], train.edit_batch

    def spy_edit(*args, **kw):
        if threading.current_thread() is threading.main_thread():
            started.wait(5)
            raise RuntimeError("first half failed")
        started.set()
        time.sleep(0.05)
        out = edit(*args, **kw)
        finished.append(True)
        return out

    monkeypatch.setattr(train, "edit_batch", spy_edit)
    with pytest.raises(RuntimeError, match="^first half failed$"):
        evaluate(tiny_bundle, build_split(18, "val-small", 4), "color_label", seed=9, probe=probe, ddim_steps=2)
    assert finished == [True]


def test_report_holds_each_samples_alignment(probe, tiny_bundle):
    val = build_split(19, "val-small", 5)
    with pytest.warns(UserWarning):
        report = evaluate(tiny_bundle, val, "label_only", seed=3, probe=probe, ddim_steps=2)
    assert [(d.id, d.label, d.color, d.bbox_side) for d in report.samples] == [
        (s.id, s.label, s.color, max(s.bbox[2:])) for s in sorted(val, key=lambda s: s.id)]
    assert np.mean([d.alignment for d in report.samples]) == report.rows[0].alignment_mean
    lines = report.details_csv_text().splitlines()
    assert lines[0] == "id,label,color,bbox_side,alignment" and len(lines) == 6
    first = report.samples[0]
    assert lines[1] == f"{first.id},{first.label},{first.color},{first.bbox_side},{first.alignment:.6f}"


@pytest.mark.parametrize("max_samples", [0, -2])
def test_evaluate_refuses_max_samples_below_one(probe, tiny_bundle, max_samples):
    val = build_split(17, "val-small", 3)
    with pytest.raises(ValueError, match=f"max_samples must be >= 1, got {max_samples}"):
        evaluate(tiny_bundle, val, "color_label", seed=9, probe=probe, max_samples=max_samples)


def test_metrics_csv_schema():
    report = MetricsReport(rows=[StyleRow("label_only", 0.5, 1.25, 8)])
    text = report.csv_text()
    assert text.splitlines()[0] == "style,alignment_mean,frechet,n"
    assert text.splitlines()[1] == "label_only,0.500000,1.250000,8"
