"""CLI: verbs, exit codes, artifact layout, tiny end-to-end pipeline."""

import json

import numpy as np
import pytest

from soekit.checkpoint import load_checkpoint, save_checkpoint
from soekit.cli import main
from soekit.data import build_split, read_dataset, read_ppm, write_dataset
from soekit.metrics import ProbeClassifier, save_probe
from soekit.train import load_bundle

TINY_CONFIG = {
    "data": {"train_small_count": 8, "train_generic_count": 8, "val_small_count": 3},
    "train": {"steps": 2, "batch_size": 2, "pretrain_vae_steps": 2, "pretrain_steps": 2},
    "eval": {"ddim_steps": 2, "samples": 3, "probe_train_count": 60, "probe_steps": 10},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    return root, str(cfg)


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


def test_pipeline_gen_data(workdir):
    root, cfg = workdir
    rc = main(["gen-data", "--config", cfg, "--out", str(root / "ds"), "--seed", "3"])
    assert rc == 0
    samples = read_dataset(root / "ds")
    assert len(samples) == 8 + 8 + 3
    assert (root / "ds" / "config.json").exists()


def test_pipeline_pretrain_train_eval_edit(workdir, capsys):
    root, cfg = workdir
    assert main(["pretrain-teacher", "--config", cfg, "--data", str(root / "ds"),
                 "--out", str(root / "teacher.soek")]) == 0
    assert (root / "teacher.loss.csv").exists()
    teacher = load_bundle(root / "teacher.soek")
    assert teacher.frozen

    assert main(["train", "--config", cfg, "--data", str(root / "ds"),
                 "--teacher", str(root / "teacher.soek"), "--out", str(root / "student.soek")]) == 0
    student = load_bundle(root / "student.soek")
    assert student.adapters is not None
    loss_lines = (root / "student.loss.csv").read_text().splitlines()
    assert loss_lines[0] == "step,L_denoise,L_distill,L_vae,L_total,wall_ms"
    assert len(loss_lines) == 1 + TINY_CONFIG["train"]["steps"]

    assert main(["eval", "--checkpoint", str(root / "student.soek"), "--config", cfg,
                 "--data", str(root / "ds"), "--style", "color_label", "--seed", "4",
                 "--out", str(root / "eval")]) == 0
    metrics = (root / "eval" / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "style,alignment_mean,frechet,n"
    assert metrics[1].startswith("color_label,")

    sample = read_dataset(root / "ds", split="val-small")[0]
    img_path = root / "in.ppm"
    from soekit.data import write_ppm

    write_ppm(img_path, sample.image)
    bbox = ",".join(map(str, sample.bbox))
    assert main(["edit", "--checkpoint", str(root / "student.soek"), "--image", str(img_path),
                 "--bbox", bbox, "--label", "circle", "--color", "red", "--steps", "2",
                 "--seed", "5", "--out", str(root / "out.ppm")]) == 0
    out_img = read_ppm(root / "out.ppm")
    assert out_img.shape == sample.image.shape


def test_eval_trains_a_new_probe_for_new_probe_settings(workdir, tmp_path):
    root, cfg = workdir
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**TINY_CONFIG, "eval": {**TINY_CONFIG["eval"], "probe_seed": 8}}))
    out = tmp_path / "eval"
    for config in (cfg, str(other), cfg):
        assert main(["eval", "--checkpoint", str(root / "student.soek"), "--config", config,
                     "--data", str(root / "ds"), "--out", str(out)]) == 0
    assert len(list(out.glob("probe-*.soek"))) == 2


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


@pytest.mark.parametrize("make, message", [
    (_probe_file, "is not a teacher or student checkpoint"),
    (_truncated_student, "truncated or corrupt"),
    (_student_without_config, "has no 'config' key"),
    (_student_with_list_blob, "must be a JSON object"),
    (_student_with_extra_config_section, "unknown config section(s): ['bogus']"),
    (_student_with_text_step_count, "optimizer_step_count must be an integer, got 'x'"),
    (_student_with_image_side_66, "image side 66 not divisible by latent factor 4"),
    (_student_with_crop_size_8, "crop_size 8 must be >= 2x"),
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


def test_eval_rejects_zero_batch_size_in_one_line(workdir, capsys, tmp_path):
    root, _ = workdir
    config = tmp_path / "bs0.json"
    config.write_text(json.dumps({**TINY_CONFIG, "eval": {**TINY_CONFIG["eval"], "batch_size": 0}}))
    rc = main(["eval", "--checkpoint", str(root / "student.soek"), "--config", str(config),
               "--data", str(root / "ds"), "--out", str(tmp_path / "eval")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: eval.batch_size") and "got 0" in err
    assert "\n" not in err.strip()


def test_train_rejects_non_frozen_teacher(workdir, capsys):
    root, cfg = workdir
    rc = main(["train", "--config", cfg, "--data", str(root / "ds"),
               "--teacher", str(root / "student.soek"), "--out", str(root / "student2.soek")])
    assert rc == 1
    assert "teacher not frozen" in capsys.readouterr().err


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


def test_runtime_error_exits_1(capsys, tmp_path):
    rc = main(["eval", "--checkpoint", str(tmp_path / "missing.soek"),
               "--data", str(tmp_path), "--out", str(tmp_path / "m")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "\n" not in err.strip()


def test_seed_env_fallback(workdir, monkeypatch, tmp_path):
    root, cfg = workdir
    monkeypatch.setenv("SOEKIT_SEED", "3")
    rc = main(["gen-data", "--config", cfg, "--out", str(tmp_path / "ds-env"),
               "--split", "val-small", "--count", "2"])
    assert rc == 0
    a = read_dataset(tmp_path / "ds-env", split="val-small")
    b = read_dataset(root / "ds", split="val-small")
    assert a[0].image.tobytes() == b[0].image.tobytes()


def test_bad_bbox_flag(workdir, capsys):
    root, cfg = workdir
    rc = main(["edit", "--checkpoint", str(root / "teacher.soek"), "--image", str(root / "in.ppm"),
               "--bbox", "1,2,3", "--label", "circle", "--color", "red",
               "--out", str(root / "x.ppm")])
    assert rc == 1
    assert "bbox" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "flags,seed_env,config,named",
    [(["--count", "0"], None, None, "--count"), (["--count", "-3"], None, None, "--count"),
     ([], "abc", None, "SOEKIT_SEED"),
     ([], None, {"model": {"latent_factor": 0}}, "model.latent_factor must be >= 1, got 0")],
    ids=["count-0", "count-negative", "seed-env-not-int", "latent-factor-0"],
)
def test_gen_data_rejects_bad_input_in_one_line(workdir, capsys, monkeypatch, tmp_path, flags, seed_env, config,
                                                named):
    root, cfg = workdir
    if config is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, **config}))
    if seed_env is not None:
        monkeypatch.setenv("SOEKIT_SEED", seed_env)
    out = tmp_path / "ds"
    rc = main(["gen-data", "--config", str(cfg), "--out", str(out), *flags])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "\n" not in err.strip()
    assert not out.exists()
