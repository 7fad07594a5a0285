"""Binary checkpoint format: layout, round trips, error handling."""

import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from soekit.checkpoint import CheckpointError, load_checkpoint, restore, save_checkpoint, write_atomic
from soekit.config import RunConfig
from soekit.data import build_split, read_dataset, write_dataset, write_ppm
from soekit.tensor import Tensor


def sample_arrays():
    rng = np.random.default_rng(0)
    return {
        "unet.down.0.res.conv.w": rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
        "lora.mid.attn.wq.A": rng.standard_normal((2, 8)).astype(np.float32),
        "lora.mid.attn.wq.B": np.zeros((8, 2), np.float32),
        "scalar": np.asarray(3.25, np.float32),
    }


def test_save_load_save_is_byte_identical(tmp_path):
    config = {"frozen": True, "merged": False, "role": "teacher", "lr": 2e-3}
    p1 = save_checkpoint(tmp_path / "a.soek", sample_arrays(), config)
    arrays, blob = load_checkpoint(p1)
    p2 = save_checkpoint(tmp_path / "b.soek", arrays, blob)
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_preserves_values_and_order(tmp_path):
    arrays = sample_arrays()
    p = save_checkpoint(tmp_path / "c.soek", arrays, {"merged": True})
    back, blob = load_checkpoint(p)
    assert list(back) == list(arrays)
    for k in arrays:
        assert back[k].dtype == np.float32
        assert np.array_equal(back[k], arrays[k])
    assert blob == {"merged": True}


def test_header_layout():
    import soekit.checkpoint as C

    p = save_checkpoint("/tmp/soek-header-test.soek", {"x": np.zeros(2, np.float32)}, {})
    raw = p.read_bytes()
    assert raw[:4] == b"SOEK"
    version, count = struct.unpack_from("<II", raw, 4)
    assert version == C.VERSION and count == 1
    (name_len,) = struct.unpack_from("<H", raw, 12)
    assert raw[14 : 14 + name_len] == b"x"
    dtype_code, ndim = struct.unpack_from("<BB", raw, 14 + name_len)
    assert dtype_code == 0 and ndim == 1


def test_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.soek"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(p)


def test_rejects_non_f32_arrays(tmp_path):
    with pytest.raises(CheckpointError, match="float32"):
        save_checkpoint(tmp_path / "d.soek", {"x": np.zeros(2, np.float64)}, {})


def test_rejects_trailing_garbage(tmp_path):
    p = save_checkpoint(tmp_path / "e.soek", {}, {"a": 1})
    p.write_bytes(p.read_bytes() + b"junk")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(p)


@pytest.mark.parametrize("keep", [10, "half"])
def test_truncated_file_is_named(tmp_path, keep):
    p = save_checkpoint(tmp_path / "f.soek", sample_arrays(), {"a": 1})
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) // 2 if keep == "half" else keep])
    with pytest.raises(CheckpointError, match=f"{p}: truncated or corrupt"):
        load_checkpoint(p)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_load_refuses_a_non_finite_array_by_name(tmp_path, value):
    # as a save would: the array's payload starts after magic, counts, name, dtype, ndim and one dim
    p = save_checkpoint(tmp_path / "g.soek", {"x": np.zeros(2, np.float32)}, {})
    raw = p.read_bytes()
    p.write_bytes(raw[:21] + np.float32(value).tobytes() + raw[25:])
    with pytest.raises(CheckpointError, match=rf"^{re.escape(str(p))}: array 'x' has non-finite values$"):
        load_checkpoint(p)


def _interrupted_write(self, data):
    with open(self, "wb") as fh:
        fh.write(data[: len(data) // 2])
    raise OSError("no space left on device")


@pytest.mark.parametrize("arrays, interrupt, error", [
    ({"x": np.zeros(2, np.float64)}, False, "float32"),
    ({**sample_arrays(), "x": np.array([1.0, np.nan], np.float32)}, False, "array 'x' has non-finite values"),
    ({**sample_arrays(), "x": np.array([[-np.inf]], np.float32)}, False, "array 'x' has non-finite values"),
    (sample_arrays(), True, "no space"),
], ids=["float64-array", "nan-array", "inf-array", "interrupted-write"])
def test_failed_save_leaves_existing_file_and_no_tmp(tmp_path, monkeypatch, arrays, interrupt, error):
    p = save_checkpoint(tmp_path / "g.soek", sample_arrays(), {"a": 1})
    before = p.read_bytes()
    if interrupt:
        monkeypatch.setattr(Path, "write_bytes", _interrupted_write)
    with pytest.raises((CheckpointError, OSError), match=error):
        save_checkpoint(p, arrays, {"b": 2})
    assert p.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["g.soek"]


def _refuse_replace(src, dst):
    raise OSError("replace refused")


@pytest.mark.parametrize("write", [
    lambda p: write_atomic(p, "new text"),
    lambda p: save_checkpoint(p, sample_arrays(), {"a": 1}),
    lambda p: write_ppm(p, np.zeros((2, 3, 3), np.float32)),
    lambda p: RunConfig().save(p),
], ids=["text", "checkpoint", "ppm", "config"])
def test_a_refused_replace_leaves_the_old_file_and_no_tmp(tmp_path, monkeypatch, write):
    p = tmp_path / "artifact"
    p.write_bytes(b"old")
    monkeypatch.setattr(os, "replace", _refuse_replace)
    with pytest.raises(OSError, match="replace refused"):
        write(p)
    assert p.read_bytes() == b"old"
    assert [f.name for f in tmp_path.iterdir()] == ["artifact"]


def test_dataset_index_is_written_last_and_whole(tmp_path, monkeypatch):
    replace, moved = os.replace, []

    def refuse_index(src, dst):
        moved.append(Path(dst).relative_to(tmp_path).as_posix())
        if moved[-1] == "index.jsonl":
            raise OSError("replace refused")
        replace(src, dst)

    samples = build_split(5, "train-small", 3)
    monkeypatch.setattr(os, "replace", refuse_index)
    with pytest.raises(OSError, match="replace refused"):
        write_dataset(samples, tmp_path)
    # every image went first; a dataset whose index failed has none, so it cannot read as a smaller one
    assert moved == [f"images/{s.id}.ppm" for s in samples] + ["index.jsonl"]
    assert not (tmp_path / "index.jsonl").exists() and not list(tmp_path.rglob("*.tmp"))
    with pytest.raises(FileNotFoundError, match="dataset index not found"):
        read_dataset(tmp_path)
    monkeypatch.setattr(os, "replace", replace)
    assert [s.id for s in read_dataset(write_dataset(samples, tmp_path))] == [s.id for s in samples]


@pytest.mark.parametrize("change, message", [
    (lambda a: a.pop("lora.mid.attn.wq.A"), "missing array 'lora.mid.attn.wq.A'"),
    (lambda a: a.update({"unet.bogus": np.zeros(1, np.float32)}), "unexpected array 'unet.bogus'"),
    (lambda a: a.update({"lora.mid.attn.wq.B": np.zeros((8, 3), np.float32)}),
     r"array 'lora.mid.attn.wq.B' has shape \(8, 3\), expected \(8, 2\)"),
])
def test_restore_rejects_mismatch_untouched(change, message):
    arrays = {k: v for k, v in sample_arrays().items() if v.ndim}  # a Tensor is never 0-d
    params = {k: Tensor(np.zeros_like(v)) for k, v in arrays.items()}
    change(arrays)
    with pytest.raises(CheckpointError, match=f"ckpt.soek: {message}"):
        restore("ckpt.soek", params, arrays)
    assert all(not p.data.any() for p in params.values())
