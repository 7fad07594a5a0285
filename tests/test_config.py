"""Run-config parsing, defaults, validation, round trips."""

import json
from dataclasses import fields

import pytest

from soekit.config import _SECTIONS, ConfigError, RunConfig


def test_defaults_are_complete():
    cfg = RunConfig()
    d = cfg.to_dict()
    assert set(d) == {"data", "schedule", "model", "lora", "train", "eval"}
    assert d["schedule"]["timesteps"] == 1000
    assert d["schedule"]["beta_start"] == 1e-4
    assert d["schedule"]["beta_end"] == 0.02
    assert d["train"]["distill_weight"] == 0.01
    assert d["train"]["vae_weight"] == 1.0
    assert d["train"]["crop_size"] == 32
    assert d["lora"]["rank"] == 4
    assert d["model"]["base_width"] == 32


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        RunConfig.from_dict({"optimizer": {}})


def test_unknown_key_rejected_with_section_name():
    with pytest.raises(ConfigError, match="train"):
        RunConfig.from_dict({"train": {"learning_rate": 0.1}})


def test_partial_document_fills_defaults():
    cfg = RunConfig.from_dict({"train": {"steps": 5}})
    assert cfg.train.steps == 5
    assert cfg.train.batch_size == 4


def test_round_trip_is_semantically_identical(tmp_path):
    cfg = RunConfig.from_dict({"data": {"image_side": 32}, "lora": {"blocks": ["mid"]}})
    p = tmp_path / "cfg.json"
    cfg.save(p)
    again = RunConfig.load(p)
    assert again.to_dict() == cfg.to_dict()
    # and a second serialisation is byte-stable
    p2 = tmp_path / "cfg2.json"
    again.save(p2)
    assert p.read_bytes() == p2.read_bytes()


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError, match="invalid JSON"):
        RunConfig.load(p)


def test_validate_crop_size_bounds():
    cfg = RunConfig.from_dict({"train": {"crop_size": 64}})
    with pytest.raises(ConfigError, match="crop_size"):
        cfg.validate()
    cfg = RunConfig.from_dict({"train": {"crop_size": 10}})
    with pytest.raises(ConfigError, match="2x the largest"):
        cfg.validate()


def test_validate_enums():
    with pytest.raises(ConfigError, match="distill_loss"):
        RunConfig.from_dict({"train": {"distill_loss": "l1"}}).validate()
    with pytest.raises(ConfigError, match="prompt_style"):
        RunConfig.from_dict({"train": {"prompt_style": "plain"}}).validate()
    with pytest.raises(ConfigError, match="optimizer"):
        RunConfig.from_dict({"train": {"optimizer": "rmsprop"}}).validate()


def test_validate_passes_defaults():
    RunConfig().validate()


def test_config_fields_and_image_side_rule():
    assert sum(len(section) for section in RunConfig().to_dict().values()) == 42
    for side in (48, 64, 128):
        RunConfig.from_dict({"data": {"image_side": side}, "train": {"crop_size": side // 2}}).validate()
    with pytest.raises(ConfigError, match=r"data\.image_side 80 not divisible by 32"):
        RunConfig.from_dict({"data": {"image_side": 80}, "model": {"depth": 3}}).validate()


def test_nan_passes_every_bound_and_infinity_all_but_upper_ones():
    # non-finite numbers are left to the first step's non-finite guard, unless a bound excludes them
    floats = [(name, f) for name, cls in _SECTIONS.items() for f in fields(cls) if f.type is float]
    assert len(floats) == 10
    for name, f in floats:
        RunConfig.from_dict({name: {f.name: float("nan")}}).validate()
        if "below" in f.metadata:
            with pytest.raises(ConfigError, match=rf"{name}\.{f.name} must be < 1, got inf"):
                RunConfig.from_dict({name: {f.name: float("inf")}}).validate()
        else:
            RunConfig.from_dict({name: {f.name: float("inf")}}).validate()


def test_type_rules_keep_ints_floats_bools_and_lists_apart():
    RunConfig.from_dict({"train": {"lr": 1, "distill_weight": 0, "use_distill": False}}).validate()
    for section, key, value, rule in [("train", "crop_size", True, "an integer"),
                                      ("train", "distill_weight", False, "a number"),
                                      ("train", "use_adapters", 0, "a boolean"),
                                      ("train", "optimizer", 1, "a string"),
                                      ("lora", "blocks", ["mid", 3], "a list of strings")]:
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict({section: {key: value}}).validate()
        assert str(exc.value) == f"{section}.{key} must be {rule}, got {value!r}"

