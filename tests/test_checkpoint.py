"""Binary checkpoint container: roundtrip, determinism, corruption handling."""

import struct

import numpy as np
import pytest

from cfmlab.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from cfmlab.numerics import Tensor


def test_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "codebook/hand/0": rng.standard_normal((64, 8)),
        "flow/time_proj": rng.standard_normal((16, 32)),
        "scalar": np.float64(3.25),
        "empty_rank3": rng.standard_normal((2, 0, 3)),
    }
    p = tmp_path / "ck.bin"
    save_checkpoint(p, tensors)
    back = load_checkpoint(p)
    assert set(back) == set(tensors)
    for name, arr in tensors.items():
        got = back[name]
        assert got.dtype == np.float64
        assert got.shape == np.asarray(arr).shape
        assert np.array_equal(got, np.asarray(arr, dtype=np.float64))


def test_accepts_tensor_objects(tmp_path):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, {"w": Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)})
    assert np.array_equal(load_checkpoint(p)["w"], np.arange(6.0).reshape(2, 3))


def test_bytes_deterministic_and_order_free(tmp_path):
    a = {"b": np.ones((2, 2)), "a": np.zeros(3)}
    b = {"a": np.zeros(3), "b": np.ones((2, 2))}
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(pa, a)
    save_checkpoint(pb, b)
    assert pa.read_bytes() == pb.read_bytes()


def test_header_layout(tmp_path):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, {"x": np.array([1.0, 2.0])})
    raw = p.read_bytes()
    assert raw[:8] == MAGIC
    assert struct.unpack("<I", raw[8:12])[0] == 1
    assert struct.unpack("<I", raw[12:16])[0] == 1  # name length
    assert raw[16:17] == b"x"
    assert struct.unpack("<I", raw[17:21])[0] == 1  # rank
    assert struct.unpack("<Q", raw[21:29])[0] == 2  # dim
    assert np.frombuffer(raw[29:], dtype="<f8").tolist() == [1.0, 2.0]


def test_empty_checkpoint_roundtrip(tmp_path):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, {})
    assert load_checkpoint(p) == {}


def test_rejects_bad_magic(tmp_path):
    p = tmp_path / "ck.bin"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 4)
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_rejects_truncation(tmp_path):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, {"x": np.ones((4, 4))})
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_rejects_trailing_bytes(tmp_path):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, {"x": np.ones(2)})
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_rejects_non_finite_on_save(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "ck.bin", {"x": np.array([1.0, np.nan])})


def test_rejects_non_finite_on_load(tmp_path):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, {"x": np.array([1.0, 2.0])})
    raw = bytearray(p.read_bytes())
    raw[-8:] = struct.pack("<d", np.inf)
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def _single_tensor_file(name, shape, payload=b""):
    nb = name.encode("utf-8")
    return (MAGIC + struct.pack("<I", 1) + struct.pack("<I", len(nb)) + nb
            + struct.pack("<I", len(shape))
            + b"".join(struct.pack("<Q", d) for d in shape) + payload)


@pytest.mark.parametrize("shape", [(2**40, 2**40), (2**63, 2**63, 2), (3, 2**62),
                                   (0, 2**63), (0, 2**62, 2**62)])
def test_rejects_oversized_shape(tmp_path, shape):
    p = tmp_path / "ck.bin"
    p.write_bytes(_single_tensor_file("x", shape, struct.pack("<4d", 1, 2, 3, 4)))
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_zero_size_tensor_at_end_of_file_loads(tmp_path):
    p = tmp_path / "ck.bin"
    p.write_bytes(_single_tensor_file("x", (1000, 0, 7)))
    assert load_checkpoint(p)["x"].shape == (1000, 0, 7)


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, {"x": np.ones(3)})
    before = p.read_bytes()

    def broken_replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr("cfmlab.checkpoint.os.replace", broken_replace)
    with pytest.raises(OSError, match="disk went away"):
        save_checkpoint(p, {"x": np.zeros(5)})
    assert p.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ck.bin"]


def test_save_replaces_existing_file(tmp_path):
    p = tmp_path / "ck.bin"
    save_checkpoint(p, {"x": np.ones(3)})
    save_checkpoint(str(p), {"y": np.zeros(2)})
    assert set(load_checkpoint(p)) == {"y"}
    assert sorted(f.name for f in tmp_path.iterdir()) == ["ck.bin"]
