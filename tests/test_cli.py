"""CLI: verbs, exit codes, artifact layout, tiny end-to-end pipeline."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soekit.checkpoint import load_checkpoint, save_checkpoint
from soekit.cli import main
from soekit.config import RunConfig
from soekit.data import build_split, read_dataset, read_ppm, write_dataset, write_ppm
from soekit.metrics import ProbeClassifier, save_probe
from soekit.train import load_bundle

TINY_CONFIG = {
    "data": {"train_small_count": 8, "train_generic_count": 8, "val_small_count": 3},
    "train": {"steps": 2, "batch_size": 2, "pretrain_vae_steps": 2, "pretrain_steps": 2},
    "eval": {"ddim_steps": 2, "samples": 3, "probe_train_count": 60, "probe_steps": 10},
}


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, config_path):
    """The tiny pipeline, run once through the CLI: dataset, teacher, student, one eval and an input image.

    Every test that reads these artifacts takes this fixture, so each passes alone and in any order.
    """
    root, cfg = tmp_path_factory.mktemp("cli"), config_path
    assert main(["gen-data", "--config", cfg, "--out", str(root / "ds"), "--seed", "3"]) == 0
    assert main(["pretrain-teacher", "--config", cfg, "--data", str(root / "ds"),
                 "--out", str(root / "teacher.soek")]) == 0
    assert main(["train", "--config", cfg, "--data", str(root / "ds"),
                 "--teacher", str(root / "teacher.soek"), "--out", str(root / "student.soek")]) == 0
    with pytest.warns(UserWarning, match="covariance estimates are singular"):  # 3 samples against 32 features
        assert main(["eval", "--checkpoint", str(root / "student.soek"), "--config", cfg,
                     "--data", str(root / "ds"), "--style", "color_label", "--seed", "4",
                     "--out", str(root / "eval")]) == 0
    write_ppm(root / "in.ppm", read_dataset(root / "ds", split="val-small")[0].image)
    return root, cfg


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen-data"])  # missing required --out
    assert exc.value.code == 2


def test_help_lists_all_verbs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for verb in ["gen-data", "pretrain-teacher", "train", "edit", "eval", "analyze-effective-area"]:
        assert verb in out


def test_subcommand_help_documents_flags(capsys):
    with pytest.raises(SystemExit):
        main(["edit", "--help"])
    out = capsys.readouterr().out
    for flag in ["--checkpoint", "--image", "--bbox", "--label", "--color", "--style", "--steps", "--seed", "--out"]:
        assert flag in out


def test_analyze_effective_area_anchor_row(capsys, tmp_path):
    csv = tmp_path / "area.csv"
    rc = main([
        "analyze-effective-area", "--image-side", "512", "--latent-factor", "8",
        "--depths", "3", "--mask-sides", "64", "--out", str(csv),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "64,1" in out.splitlines()
    assert "64,1" in csv.read_text().splitlines()


def _refuse_replace(src, dst):
    raise OSError("replace refused")


def test_analyze_effective_area_whose_write_fails_keeps_the_old_file(monkeypatch, capsys, tmp_path):
    csv = tmp_path / "area.csv"
    csv.write_text("old\n")
    monkeypatch.setattr(os, "replace", _refuse_replace)
    assert main(["analyze-effective-area", "--out", str(csv)]) == 1
    assert capsys.readouterr().err == "error: replace refused\n"
    assert csv.read_text() == "old\n"
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("flag, value, named", [
    ("--latent-factor", "0", "latent_factor"),
    ("--depths", "2,x", "--depths"),
    ("--mask-sides", "0", "mask_side"),
    ("--image-side", "-64", "image_side"),
])
def test_analyze_effective_area_rejects_bad_input_in_one_line(capsys, flag, value, named):
    assert main(["analyze-effective-area", flag, value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0], err


def test_pipeline_gen_data(config_path, tmp_path):
    rc = main(["gen-data", "--config", config_path, "--out", str(tmp_path / "ds"), "--seed", "3"])
    assert rc == 0
    samples = read_dataset(tmp_path / "ds")
    assert len(samples) == 8 + 8 + 3
    assert (tmp_path / "ds" / "config.json").exists()


def test_pipeline_pretrain_train_eval_edit(workdir):
    # the fixture ran gen-data, pretrain-teacher, train and eval, each exiting 0
    root, _ = workdir
    assert (root / "teacher.loss.csv").exists()
    teacher = load_bundle(root / "teacher.soek")
    assert teacher.frozen

    student = load_bundle(root / "student.soek")
    assert student.adapters is not None
    loss_lines = (root / "student.loss.csv").read_text().splitlines()
    assert loss_lines[0] == "step,L_denoise,L_distill,L_vae,L_total,wall_ms"
    assert len(loss_lines) == 1 + TINY_CONFIG["train"]["steps"]

    metrics = (root / "eval" / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "style,alignment_mean,frechet,n"
    assert metrics[1].startswith("color_label,")

    sample = read_dataset(root / "ds", split="val-small")[0]
    img_path = root / "in.ppm"
    bbox = ",".join(map(str, sample.bbox))
    assert main(["edit", "--checkpoint", str(root / "student.soek"), "--image", str(img_path),
                 "--bbox", bbox, "--label", "circle", "--color", "red", "--steps", "2",
                 "--seed", "5", "--out", str(root / "out.ppm")]) == 0
    out_img = read_ppm(root / "out.ppm")
    assert out_img.shape == sample.image.shape


def test_edit_without_steps_runs_the_checkpoint_eval_ddim_steps(workdir, tmp_path):
    root, _ = workdir
    bbox = ",".join(map(str, read_dataset(root / "ds", split="val-small")[0].bbox))
    edit = ["edit", "--checkpoint", str(root / "student.soek"), "--image", str(root / "in.ppm"), "--bbox", bbox,
            "--label", "circle", "--color", "red", "--seed", "5"]
    steps = str(TINY_CONFIG["eval"]["ddim_steps"])
    assert main([*edit, "--out", str(tmp_path / "default.ppm")]) == 0
    assert main([*edit, "--steps", steps, "--out", str(tmp_path / "stated.ppm")]) == 0
    assert (tmp_path / "default.ppm").read_bytes() == (tmp_path / "stated.ppm").read_bytes()


def test_eval_without_style_scores_the_checkpoint_prompt_style(workdir, tmp_path):
    root, _ = workdir
    config = tmp_path / "label-only.json"
    config.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], "prompt_style": "label_only"}}))
    student = tmp_path / "student.soek"
    assert main(["train", "--config", str(config), "--data", str(root / "ds"), "--teacher", str(root / "teacher.soek"),
                 "--out", str(student)]) == 0
    with pytest.warns(UserWarning, match="covariance estimates are singular"):
        assert main(["eval", "--checkpoint", str(student), "--data", str(root / "ds"),
                     "--out", str(tmp_path / "eval")]) == 0
    assert (tmp_path / "eval" / "metrics.csv").read_text().splitlines()[1].startswith("label_only,")


@pytest.mark.parametrize("verb, flags, out, made", [
    ("gen-data", ["--config", "{cfg}", "--split", "val-small"], "ds", "ds/index.jsonl"),
    ("pretrain-teacher", ["--config", "{cfg}", "--data", "{root}/ds"], "teacher.soek", "teacher.soek"),
    ("train", ["--config", "{cfg}", "--data", "{root}/ds", "--teacher", "{root}/teacher.soek"], "student.soek",
     "student.soek"),
    ("edit", ["--checkpoint", "{root}/student.soek", "--image", "{root}/in.ppm", "--bbox", "{bbox}",
              "--label", "circle", "--color", "red"], "x.ppm", "x.ppm"),
    ("eval", ["--checkpoint", "{root}/student.soek", "--data", "{root}/ds"], "eval", "eval/metrics.csv"),
    ("analyze-effective-area", [], "area.csv", "area.csv"),
], ids=["gen-data", "pretrain-teacher", "train", "edit", "eval", "analyze-effective-area"])
def test_every_verb_writes_into_a_new_directory(workdir, tmp_path, verb, flags, out, made):
    root, cfg = workdir
    bbox = ",".join(map(str, read_dataset(root / "ds", split="val-small")[0].bbox))
    new = tmp_path / "new" / "dir"
    argv = [verb, *(f.format(root=root, cfg=cfg, bbox=bbox) for f in flags), "--out", str(new / out)]
    if verb == "eval":
        with pytest.warns(UserWarning, match="covariance estimates are singular"):
            assert main(argv) == 0
    else:
        assert main(argv) == 0
    assert (new / made).is_file()


def test_eval_trains_a_new_probe_for_new_probe_settings(workdir, tmp_path):
    root, cfg = workdir
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**TINY_CONFIG, "eval": {**TINY_CONFIG["eval"], "probe_seed": 8}}))
    out = tmp_path / "eval"
    for config in (cfg, str(other), cfg):
        with pytest.warns(UserWarning, match="covariance estimates are singular"):
            assert main(["eval", "--checkpoint", str(root / "student.soek"), "--config", config,
                         "--data", str(root / "ds"), "--out", str(out)]) == 0
    assert len(list(out.glob("probe-*.soek"))) == 2


def test_eval_writes_one_row_per_sample(workdir):
    root, _ = workdir
    rows = [line.split(",") for line in (root / "eval" / "details.csv").read_text().splitlines()]
    assert rows[0] == ["id", "label", "color", "bbox_side", "alignment"]
    val = sorted(read_dataset(root / "ds", split="val-small"), key=lambda s: s.id)
    assert [row[:4] for row in rows[1:]] == [[s.id, s.label, s.color, str(max(s.bbox[2:]))] for s in val]
    mean = float((root / "eval" / "metrics.csv").read_text().splitlines()[1].split(",")[1])
    assert np.mean([float(row[4]) for row in rows[1:]]) == pytest.approx(mean, abs=1e-6)  # both at 6 decimals


def test_eval_whose_write_fails_keeps_the_old_metrics(workdir, monkeypatch, capsys):
    root, cfg = workdir
    out = root / "eval"
    before = {name: (out / name).read_bytes() for name in ("metrics.csv", "details.csv")}
    monkeypatch.setattr(os, "replace", _refuse_replace)
    with pytest.warns(UserWarning, match="singular"):
        assert main(["eval", "--checkpoint", str(root / "student.soek"), "--config", cfg, "--data", str(root / "ds"),
                     "--style", "label_only", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: replace refused\n"
    assert {name: (out / name).read_bytes() for name in before} == before
    assert not list(out.glob("*.tmp"))


def _probe_file(root):
    return save_probe(root / "probe.soek", ProbeClassifier(0), seed=0)


def _truncated_student(root):
    raw = (root / "student.soek").read_bytes()
    (root / "cut.soek").write_bytes(raw[: len(raw) // 2])
    return root / "cut.soek"


def _student_blob(root, name, rewrite):
    arrays, blob = load_checkpoint(root / "student.soek")
    return save_checkpoint(root / name, arrays, rewrite(blob))


def _student_without_config(root):
    return _student_blob(root, "noconfig.soek", lambda b: {k: v for k, v in b.items() if k != "config"})


def _student_with_list_blob(root):
    return _student_blob(root, "listblob.soek", lambda b: [b])


def _student_with_extra_config_section(root):
    return _student_blob(root, "bogus.soek", lambda b: {**b, "config": {**b["config"], "bogus": {}}})


def _student_with_text_step_count(root):
    return _student_blob(root, "stepx.soek", lambda b: {**b, "optimizer_step_count": "x"})


def _student_with_config_value(root, name, section, key, value):
    def rewrite(b):
        return {**b, "config": {**b["config"], section: {**b["config"][section], key: value}}}
    return _student_blob(root, name, rewrite)


def _student_with_image_side_66(root):
    return _student_with_config_value(root, "side66.soek", "data", "image_side", 66)


def _student_with_crop_size_8(root):
    return _student_with_config_value(root, "crop8.soek", "train", "crop_size", 8)


def _student_with_vae_tuning_key(root):
    # a checkpoint made while the config still had the key
    return _student_with_config_value(root, "vaetuning.soek", "train", "use_vae_tuning", False)


def _student_with_nan(root):
    raw = bytearray((root / "student.soek").read_bytes())
    name = b"lora.down.0.attn.wo.B"
    at = raw.index(struct.pack("<H", len(name)) + name) + 2 + len(name)  # then dtype, ndim, dims, payload
    first = at + 2 + 4 * raw[at + 1]
    raw[first : first + 4] = np.float32(np.nan).tobytes()
    (root / "nan.soek").write_bytes(bytes(raw))
    return root / "nan.soek"


@pytest.mark.parametrize("make, message", [
    (_probe_file, "is not a teacher or student checkpoint"),
    (_truncated_student, "truncated or corrupt"),
    (_student_without_config, "has no 'config' key"),
    (_student_with_list_blob, "must be a JSON object"),
    (_student_with_extra_config_section, "unknown config section(s): ['bogus']"),
    (_student_with_text_step_count, "optimizer_step_count must be an integer, got 'x'"),
    (_student_with_image_side_66, "data.image_side 66 not divisible by 16"),
    (_student_with_crop_size_8, "crop_size 8 must be >= 2x"),
    (_student_with_vae_tuning_key, "unknown key(s) in section 'train': ['use_vae_tuning']"),
    (_student_with_nan, "array 'lora.down.0.attn.wo.B' has non-finite values"),
])
def test_edit_rejects_unusable_checkpoint_in_one_line(workdir, capsys, make, message):
    root, _ = workdir
    path = make(root)
    rc = main(["edit", "--checkpoint", str(path), "--image", str(root / "in.ppm"), "--bbox", "8,8,8,8",
               "--label", "circle", "--color", "red", "--out", str(root / "x.ppm")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and message in err
    assert "\n" not in err.strip()


def test_eval_rejects_cached_probe_without_seed_in_one_line(workdir, capsys, tmp_path):
    root, cfg = workdir
    cached = next((root / "eval").glob("probe-*.soek"))
    arrays, blob = load_checkpoint(cached)
    del blob["probe_seed"]
    path = save_checkpoint(tmp_path / cached.name, arrays, blob)
    rc = main(["eval", "--checkpoint", str(root / "student.soek"), "--config", cfg,
               "--data", str(root / "ds"), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and "has no 'probe_seed' key" in err
    assert "\n" not in err.strip()


def test_train_rejects_non_frozen_teacher(workdir, capsys):
    root, cfg = workdir
    rc = main(["train", "--config", cfg, "--data", str(root / "ds"),
               "--teacher", str(root / "student.soek"), "--out", str(root / "student2.soek")])
    assert rc == 1
    assert "teacher not frozen" in capsys.readouterr().err


def test_train_refuses_a_student_file_marked_frozen(workdir, capsys, tmp_path):
    # the kind is the role alone: a student blob claiming "frozen" still carries adapters
    root, cfg = workdir
    arrays, blob = load_checkpoint(root / "student.soek")
    fake = save_checkpoint(tmp_path / "fake-teacher.soek", arrays, {**blob, "frozen": True})
    out = tmp_path / "student2.soek"
    rc = main(["train", "--config", cfg, "--data", str(root / "ds"), "--teacher", str(fake), "--out", str(out)])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "teacher not frozen" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("verb, section, key, value, refusal", [
    ("train", "lora", "alpha", float("nan"), "step 0: L_denoise is nan"),
    ("train", "train", "huber_delta", float("nan"), "step 0: L_denoise is nan"),
    ("train", "train", "distill_weight", float("inf"), "step 0: L_total is inf"),
    ("train", "train", "lr", float("nan"), "step 1: L_denoise is nan"),
    ("pretrain-teacher", "train", "pretrain_lr", float("nan"), "step 1: L_vae is nan"),
], ids=["lora-alpha", "huber-delta", "distill-weight", "lr", "pretrain-lr"])
def test_non_finite_loss_stops_before_update(workdir, capsys, tmp_path, verb, section, key, value, refusal):
    # the step that first meets a non-finite loss refuses it: no update, no row, no checkpoint
    root, _ = workdir
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**TINY_CONFIG, section: {**TINY_CONFIG.get(section, {}), key: value}}))
    out = tmp_path / "model.soek"
    teacher = ["--teacher", str(root / "teacher.soek")] if verb == "train" else []
    rc = main([verb, "--config", str(config), "--data", str(root / "ds"), *teacher, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {refusal}; no update applied\n"
    assert not out.exists()
    rows = out.with_suffix(".loss.csv").read_text().splitlines()[1:]
    assert len(rows) == int(refusal.split()[1].rstrip(":"))  # one row per step before the refused one
    assert np.isfinite(np.asarray([row.split(",") for row in rows], float)).all()


@pytest.mark.parametrize("verb, section, key, value, rule", [
    ("pretrain-teacher", "model", "depth", 0, ">= 1"),
    ("pretrain-teacher", "model", "depth", -1, ">= 1"),
    ("eval", "eval", "samples", -2, ">= 1"),
    ("eval", "eval", "samples", 0, ">= 1"),
    ("pretrain-teacher", "model", "groups", 0, ">= 1"),
    ("train", "train", "crop_size", "32", "an integer"),
    ("train", "train", "batch_size", 0, ">= 1"),
    ("pretrain-teacher", "model", "base_width", 0, ">= 1"),
    ("train", "lora", "rank", -1, ">= 1"),
    ("pretrain-teacher", "schedule", "timesteps", 0, ">= 1"),
    ("train", "lora", "rank", 0, ">= 1"),
    ("train", "train", "steps", -1, ">= 1"),
    ("train", "train", "lr", -1, "> 0"),
    ("pretrain-teacher", "train", "pretrain_lr", 0, "> 0"),
    ("pretrain-teacher", "train", "pretrain_steps", 0, ">= 1"),
    ("pretrain-teacher", "train", "pretrain_vae_steps", -3, ">= 1"),
], ids=["depth-0", "depth-negative", "samples-negative", "samples-0", "groups-0", "crop-size-text",
        "batch-size-0", "base-width-0", "rank-negative", "timesteps-0", "rank-0", "steps-negative", "lr-negative",
        "pretrain-lr-0", "pretrain-steps-0", "pretrain-vae-steps-negative"])
def test_config_below_one_is_refused_by_name(workdir, capsys, tmp_path, verb, section, key, value, rule):
    root, _ = workdir
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**TINY_CONFIG, section: {**TINY_CONFIG.get(section, {}), key: value}}))
    out = tmp_path / "out"
    source = {"eval": ["--checkpoint", str(root / "student.soek")],
              "train": ["--teacher", str(root / "teacher.soek")]}.get(verb, [])
    rc = main([verb, *source, "--config", str(config), "--data", str(root / "ds"), "--out", str(out)])
    out_text, err = capsys.readouterr()
    assert rc == 1 and out_text == ""
    assert err == f"error: {section}.{key} must be {rule}, got {value!r}\n"
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("verb, split", [("pretrain-teacher", "train-generic"), ("train", "train-small")])
def test_dataset_at_another_image_side_is_refused(workdir, capsys, tmp_path, verb, split):
    # the run config keeps the default 64 px; the dataset holds 128 px images
    root, cfg = workdir
    ds = write_dataset(build_split(3, split, 2, image_side=128), tmp_path / "ds")
    out = tmp_path / "model.soek"
    teacher = ["--teacher", str(root / "teacher.soek")] if verb == "train" else []
    rc = main([verb, "--config", cfg, "--data", str(ds), *teacher, "--out", str(out)])
    out_text, err = capsys.readouterr()
    assert rc == 1 and out_text == ""
    assert err == f"error: image size mismatch: sample {split}-00000 is 128x128, data.image_side is 64\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


def test_train_rejects_unknown_color_in_index_in_one_line(workdir, capsys, tmp_path):
    root, cfg = workdir
    ds = write_dataset(build_split(3, "train-small", 2), tmp_path / "ds")
    lines = (ds / "index.jsonl").read_text().splitlines()
    (ds / "index.jsonl").write_text("\n".join([lines[0], json.dumps({**json.loads(lines[1]), "color": "mauve"})]) + "\n")
    out = tmp_path / "student.soek"
    rc = main(["train", "--config", cfg, "--data", str(ds), "--teacher", str(root / "teacher.soek"), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ds / 'index.jsonl'}:2: unknown color 'mauve'")
    assert "\n" not in err.strip()
    assert not out.exists() and not out.with_suffix(".loss.csv").exists()


_INSIDE = "image must be a relative path inside the dataset directory, got"
_BBOX = "bbox must be a list of four integers, got"


@pytest.mark.parametrize("verb, field, value, message", [
    ("train", "image", ["images/x.ppm"], f"{_INSIDE} ['images/x.ppm']"),
    ("train", "image", "../x.ppm", f"{_INSIDE} '../x.ppm'"),
    ("train", "split", ["train-small"], "unknown split ['train-small']"),
    ("train", "split", "test", "unknown split 'test'"),
    ("eval", "id", 0, "id must be a string unique in the index, got 0"),
    ("eval", "id", "val-small-00000", "id must be a string unique in the index, got 'val-small-00000'"),
    ("train", "bbox", [3.9, 29, True, "5"], f"{_BBOX} [3.9, 29, True, '5']"),
    ("train", "bbox", [3, 29, 5], f"{_BBOX} [3, 29, 5]"),
    ("eval", "bbox", "3,29,5,5", f"{_BBOX} '3,29,5,5'"),
], ids=["image-list", "image-outside", "split-list", "split-unknown", "id-int", "id-repeated", "bbox-not-ints",
        "bbox-three", "bbox-string"])
def test_index_field_of_the_wrong_type_or_domain_is_refused_by_line(workdir, capsys, tmp_path, verb, field, value,
                                                                    message):
    root, cfg = workdir
    split = {"train": "train-small", "eval": "val-small"}[verb]
    ds = write_dataset(build_split(3, split, 2), tmp_path / "ds")
    lines = (ds / "index.jsonl").read_text().splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), field: value}) + "\n"
    (ds / "index.jsonl").write_text("".join(lines))
    source = {"train": ["--teacher", str(root / "teacher.soek")],
              "eval": ["--checkpoint", str(root / "student.soek")]}
    out = tmp_path / "out"
    rc = main([verb, *source[verb], "--config", cfg, "--data", str(ds), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {ds / 'index.jsonl'}:2: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]


def _json_type(value) -> str:
    return {bool: "boolean", int: "number", float: "number", str: "string", list: "array", dict: "object"}.get(
        type(value), "null")


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 40, 2 ** 40), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12), st.lists(st.integers(-2, 70), max_size=5),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2))


def _sample_rows(samples) -> list:
    return [(s.id, s.bbox, s.label, s.color, s.split, s.image.tobytes()) for s in samples]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_sample_field_of_another_json_type_reads_the_same_or_is_refused_by_line(workdir, data):
    root, _ = workdir
    ds = root / "retyped"
    if not ds.exists():
        ds.mkdir()
        (ds / "images").symlink_to(root / "ds" / "images")
    lines = (root / "ds" / "index.jsonl").read_text().splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 2), label="line")  # the last line is the counts record
    rec = json.loads(lines[i])
    field = data.draw(st.sampled_from(sorted(rec)), label="field")
    rec[field] = data.draw(_JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(rec[field])), label="value")
    (ds / "index.jsonl").write_text("".join(lines[:i] + [json.dumps(rec) + "\n"] + lines[i + 1:]))
    split = data.draw(st.sampled_from([None, "train-small", "val-small"]), label="split")
    try:
        samples = read_dataset(ds, split=split)
    except (ValueError, OSError) as e:
        assert str(e).startswith(f"{ds / 'index.jsonl'}:{i + 1}: "), e
    else:
        assert _sample_rows(samples) == _sample_rows(read_dataset(root / "ds", split=split))


@pytest.mark.parametrize("key, value", [("optimizer", "adam"), ("distill_loss", "huber"), ("use_vae_tuning", False),
                                        ("vae_weight", 1.0), ("use_adapters", True)])
def test_train_refuses_a_deleted_recipe_key_by_name(workdir, capsys, tmp_path, key, value):
    # each held a value the recipe no longer varies, so naming it is a mistake to report
    root, _ = workdir
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**TINY_CONFIG, "train": {**TINY_CONFIG["train"], key: value}}))
    rc = main(["train", "--config", str(config), "--data", str(root / "ds"), "--teacher", str(root / "teacher.soek"),
               "--out", str(tmp_path / "student.soek")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: unknown key(s) in section 'train': ['{key}']\n"
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("keep, message", [
    (slice(0, 2), "no split counts record; the index is incomplete"),
    (slice(1, 3), "split 'train-small' has 1 samples, but the index records 2"),
], ids=["cut-at-a-line", "sample-line-gone"])
def test_train_refuses_an_index_that_lost_lines(workdir, capsys, tmp_path, keep, message):
    # two samples, then the counts record: a cut at a line boundary loses the record
    root, cfg = workdir
    ds = write_dataset(build_split(3, "train-small", 2), tmp_path / "ds")
    lines = (ds / "index.jsonl").read_text().splitlines(keepends=True)
    (ds / "index.jsonl").write_text("".join(lines[keep]))
    out = tmp_path / "student.soek"
    rc = main(["train", "--config", cfg, "--data", str(ds), "--teacher", str(root / "teacher.soek"), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {ds / 'index.jsonl'}: {message}\n"
    assert not out.exists() and not out.with_suffix(".loss.csv").exists()


def test_runtime_error_exits_1(capsys, tmp_path):
    rc = main(["eval", "--checkpoint", str(tmp_path / "missing.soek"),
               "--data", str(tmp_path), "--out", str(tmp_path / "m")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "\n" not in err.strip()


def test_bad_bbox_flag(workdir, capsys):
    root, cfg = workdir
    for bbox in ("1,2,3", "1,a,3,4"):
        rc = main(["edit", "--checkpoint", str(root / "teacher.soek"), "--image", str(root / "in.ppm"),
                   "--bbox", bbox, "--label", "circle", "--color", "red",
                   "--out", str(root / "x.ppm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bbox" in err and err.count("\n") == 1, err


_EDIT_FLAGS = ["--image", "{root}/in.ppm", "--bbox", "8,8,8,8", "--label", "circle", "--color", "red"]


@pytest.mark.parametrize("argv, named", [
    (["edit", "--checkpoint", "{tmp}/dir", *_EDIT_FLAGS, "--out", "{tmp}/x.ppm"], "dir"),
    (["eval", "--checkpoint", "{tmp}/dir", "--data", "{root}/ds", "--out", "{tmp}/eval"], "dir"),
    (["gen-data", "--config", "{tmp}/dir", "--out", "{tmp}/ds"], "dir"),
    (["gen-data", "--config", "{cfg}", "--out", "{tmp}/file"], "file"),
    (["analyze-effective-area", "--out", "{tmp}/file/x.csv"], "file"),
], ids=["edit-checkpoint-dir", "eval-checkpoint-dir", "gen-data-config-dir", "gen-data-out-file",
        "analyze-out-under-file"])
def test_a_path_of_the_wrong_kind_fails_in_one_line(workdir, capsys, tmp_path, argv, named):
    root, cfg = workdir
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    assert main([a.format(root=root, cfg=cfg, tmp=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path / named) in err, err


@pytest.mark.parametrize("header", [b"P6\n64\n255\n", b"P6\n64 x\n255\n"], ids=["one-token", "not-an-int"])
def test_edit_rejects_malformed_ppm_header_in_one_line(workdir, capsys, tmp_path, header):
    root, cfg = workdir
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(header + bytes(64 * 64 * 3))
    rc = main(["edit", "--checkpoint", str(root / "teacher.soek"), "--image", str(bad), "--bbox", "8,8,8,8",
               "--label", "circle", "--color", "red", "--out", str(tmp_path / "x.ppm")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: malformed PPM header")
    assert "\n" not in err.strip()


@pytest.mark.parametrize("side", [52, 128])
def test_edit_refuses_an_image_at_another_side_in_one_line(workdir, capsys, tmp_path, side):
    root, _ = workdir
    image = tmp_path / "in.ppm"
    write_ppm(image, np.zeros((side, side, 3), np.float32))
    out = tmp_path / "x.ppm"
    rc = main(["edit", "--checkpoint", str(root / "teacher.soek"), "--image", str(image), "--bbox", "8,8,8,8",
               "--label", "circle", "--color", "red", "--out", str(out)])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"error: image size mismatch: image is {side}x{side}, data.image_side is 64"]
    assert not out.exists()


def test_gen_data_refuses_a_directory_that_holds_a_dataset(config_path, capsys, tmp_path):
    cfg = config_path
    out = tmp_path / "ds"
    assert main(["gen-data", "--config", cfg, "--out", str(out), "--split", "train-generic"]) == 0
    index = (out / "index.jsonl").read_bytes()
    capsys.readouterr()
    rc = main(["gen-data", "--config", cfg, "--out", str(out), "--split", "val-small"])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {out} already holds a dataset")
    assert (out / "index.jsonl").read_bytes() == index


@pytest.mark.parametrize(
    "flags,named",
    [(["--count", "0"], "--count"), (["--count", "-3"], "--count"), (["--seed", "-1"], "--seed must be >= 0, got -1")],
    ids=["count-0", "count-negative", "seed-negative"],
)
def test_gen_data_rejects_bad_input_in_one_line(config_path, capsys, tmp_path, flags, named):
    out = tmp_path / "ds"
    rc = main(["gen-data", "--config", str(config_path), "--out", str(out), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "\n" not in err.strip()
    assert not out.exists()


def _gen_data_with(section, key, value):
    def make(root, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, section: {**TINY_CONFIG.get(section, {}), key: value}}))
        return ["gen-data", "--config", str(config), "--count", "1"], tmp_path / "ds"
    return make


def _edit_with_stored_latent_factor(root, tmp_path):
    arrays, blob = load_checkpoint(root / "teacher.soek")
    blob["config"]["model"]["latent_factor"] = 4
    path = save_checkpoint(tmp_path / "lf.soek", arrays, blob)
    return ["edit", "--checkpoint", str(path), "--image", str(root / "in.ppm"), "--bbox", "8,8,8,8",
            "--label", "circle", "--color", "red"], tmp_path / "x.ppm"


@pytest.mark.parametrize("make, named", [
    (_gen_data_with("data", "image_side", 32), "data.image_side 32"),  # no train-small side below 1/8
    (_gen_data_with("data", "image_side", 40), "data.image_side 40"),
    (_gen_data_with("data", "image_side", 72), "data.image_side 72"),  # the U-Net's last level would be 4.5 cells
    (_gen_data_with("data", "image_side", 48), None),
    (_gen_data_with("data", "image_side", 64), None),
    (_gen_data_with("model", "latent_factor", 4), "['latent_factor']"),
    (_gen_data_with("train", "unmasked_vae_loss", False), "['unmasked_vae_loss']"),
    (_gen_data_with("eval", "batch_size", 8), "section 'eval': ['batch_size']"),
    (_edit_with_stored_latent_factor, "lf.soek: bad config in teacher checkpoint"),
    (_gen_data_with("model", "groups", 3), "model.base_width 32 must be divisible by model.groups 3"),
    (_gen_data_with("schedule", "beta_start", 0.5), "schedule.beta_start 0.5 must be <= schedule.beta_end 0.02"),
], ids=["side-32", "side-40", "side-72", "side-48", "side-64", "latent-factor", "unmasked-vae-loss",
        "eval-batch-size", "stored-latent-factor", "groups-not-dividing-base-width", "beta-start-above-beta-end"])
def test_image_side_and_removed_keys_by_name(workdir, capsys, tmp_path, make, named):
    root, _ = workdir
    argv, out = make(root, tmp_path)
    rc = main([*argv, "--out", str(out)])
    out_text, err = capsys.readouterr()
    if named is None:
        assert rc == 0 and out.exists(), err
        return
    assert rc == 1 and out_text == "" and not out.exists()
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0], err


# one bad value per config key: a wrong type, or a value outside the key's declared rule
BAD_VALUES = [
    ("data", "image_side", 0, ">= 1"),
    ("data", "train_small_count", 2.0, "an integer"),
    ("data", "train_generic_count", True, "an integer"),
    ("data", "val_small_count", 0, ">= 1"),
    ("data", "seed", -1, ">= 0"),
    ("schedule", "timesteps", "1000", "an integer"),
    ("schedule", "beta_start", -1, "> 0"),
    ("schedule", "beta_end", 1, "< 1"),
    ("model", "latent_channels", 0, ">= 1"),
    ("model", "base_width", 32.0, "an integer"),
    ("model", "depth", None, "an integer"),
    ("model", "cond_dim", -4, ">= 1"),
    ("model", "time_dim", [32], "an integer"),
    ("model", "groups", "8", "an integer"),
    ("lora", "rank", 4.5, "an integer"),
    ("lora", "alpha", 0, "> 0"),
    ("lora", "blocks", "mid", "a list of strings"),
    ("lora", "init_std", 0, "> 0"),
    ("train", "steps", 0, ">= 1"),
    ("train", "batch_size", "2", "an integer"),
    ("train", "lr", "fast", "a number"),
    ("train", "crop_size", 0, ">= 1"),
    ("train", "distill_weight", -1, ">= 0"),
    ("train", "huber_delta", 0, "> 0"),
    ("train", "use_distill", "no", "a boolean"),
    ("train", "prompt_style", "plain", "one of ['label_only', 'color_label']"),
    ("train", "pretrain_vae_steps", 1.5, "an integer"),
    ("train", "pretrain_steps", False, "an integer"),
    ("train", "pretrain_lr", -1, "> 0"),
    ("train", "seed", -3, ">= 0"),
    ("eval", "ddim_steps", 0, ">= 1"),
    ("eval", "samples", "3", "an integer"),
    ("eval", "probe_seed", -1, ">= 0"),
    ("eval", "probe_train_count", 60.0, "an integer"),
    ("eval", "probe_steps", 0, ">= 1"),
    ("eval", "probe_lr", -1, "> 0"),
    ("eval", "seed", -1, ">= 0"),
]
_VERB_FOR = {"data": "gen-data", "schedule": "pretrain-teacher", "model": "pretrain-teacher",
             "lora": "train", "train": "train", "eval": "eval"}


def test_bad_value_table_covers_every_key():
    keys = [(section, key) for section, body in RunConfig().to_dict().items() for key in body]
    assert [(section, key) for section, key, _, _ in BAD_VALUES] == keys


@pytest.mark.parametrize("section, key, value, rule", BAD_VALUES, ids=[f"{s}.{k}" for s, k, _, _ in BAD_VALUES])
def test_every_key_refuses_a_bad_value_by_name(workdir, capsys, tmp_path, section, key, value, rule):
    root, _ = workdir
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**TINY_CONFIG, section: {**TINY_CONFIG.get(section, {}), key: value}}))
    verb = _VERB_FOR[section]
    source = {"eval": ["--checkpoint", str(root / "student.soek"), "--data", str(root / "ds")],
              "train": ["--teacher", str(root / "teacher.soek"), "--data", str(root / "ds")],
              "pretrain-teacher": ["--data", str(root / "ds")]}.get(verb, [])
    rc = main([verb, *source, "--config", str(config), "--out", str(tmp_path / "out")])
    out_text, err = capsys.readouterr()
    assert rc == 1 and out_text == ""
    assert err == f"error: {section}.{key} must be {rule}, got {value!r}\n"
    assert list(tmp_path.iterdir()) == [config]


def _eval_config(section, key, value):
    def make(root, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**TINY_CONFIG, section: {**TINY_CONFIG.get(section, {}), key: value}}))
        return ["--config", str(config), "--data", str(root / "ds")]
    return make


def _eval_val_set_at_128(root, tmp_path):
    return ["--data", str(write_dataset(build_split(3, "val-small", 2, image_side=128), tmp_path / "ds"))]


@pytest.mark.parametrize("make, message", [
    (_eval_config("data", "image_side", 128), "and run config differ at data.image_side"),
    (_eval_config("model", "base_width", 16), "and run config differ at model"),
    (_eval_val_set_at_128, "image size mismatch: sample val-small-00000 is 128x128, data.image_side is 64"),
], ids=["config-image-side", "config-base-width", "val-set-image-side"])
def test_eval_refuses_what_its_checkpoint_did_not_train_on(workdir, capsys, tmp_path, make, message):
    root, _ = workdir
    inputs = make(root, tmp_path)
    out = tmp_path / "eval"
    rc = main(["eval", "--checkpoint", str(root / "student.soek"), *inputs, "--out", str(out)])
    out_text, err = capsys.readouterr()
    assert rc == 1 and out_text == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], err
    assert not out.exists()

