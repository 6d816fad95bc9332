"""Binary named-tensor container: round trips and corruption handling."""

import struct

import numpy as np
import pytest

from cru.checkpoint import MAGIC, load_tensors, save_tensors
from cru.errors import ParseError


def test_round_trip_preserves_values_shapes_order(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    tensors = {
        "w": rng.standard_normal((3, 4)),
        "b": rng.standard_normal(4),
        "scalar": np.array(2.5),
        "cube": rng.standard_normal((2, 3, 2)),
    }
    path = tmp_path / "t.bin"
    save_tensors(path, tensors)
    loaded = load_tensors(path)
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert loaded[name].shape == tensors[name].shape
        assert np.array_equal(loaded[name], tensors[name])


def test_round_trip_empty_container(tmp_path):
    path = tmp_path / "empty.bin"
    save_tensors(path, {})
    assert load_tensors(path) == {}


def test_unicode_names(tmp_path):
    path = tmp_path / "u.bin"
    save_tensors(path, {"emb.weights/θ": np.ones(2)})
    assert "emb.weights/θ" in load_tensors(path)


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ParseError, match="bad magic"):
        load_tensors(path)


def test_truncated_file_raises(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"w": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(ParseError, match="truncated"):
        load_tensors(path)


def test_duplicate_tensor_name_raises(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"w": np.ones(2)})
    blob = path.read_bytes()
    entry = blob[len(MAGIC) + 4:]
    path.write_bytes(MAGIC + struct.pack("<I", 2) + entry + entry)
    with pytest.raises(ParseError, match="tensor w appears more than once"):
        load_tensors(path)


def test_trailing_garbage_raises(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"w": np.ones(3)})
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(ParseError, match="trailing"):
        load_tensors(path)


def test_values_are_float64_little_endian(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"x": np.array([1.0, -2.0], dtype=np.float32)})
    loaded = load_tensors(path)
    assert loaded["x"].dtype == np.float64
    assert np.array_equal(loaded["x"], [1.0, -2.0])
    assert path.read_bytes().startswith(MAGIC)


def _corrupt_first_tensor(path, name_byte=None, dims=None):
    """Overwrite the first name byte, or the first tensor's dims, in place."""
    blob = bytearray(path.read_bytes())
    at = len(MAGIC) + 4
    (name_len,) = struct.unpack_from("<H", blob, at)
    at += 2
    if name_byte is not None:
        blob[at] = name_byte
    if dims is not None:
        struct.pack_into(f"<{len(dims)}I", blob, at + name_len + 1, *dims)
    path.write_bytes(bytes(blob))


def test_non_utf8_name_raises_parse_error(tmp_path):
    path = tmp_path / "t.bin"
    save_tensors(path, {"w": np.ones(3)})
    _corrupt_first_tensor(path, name_byte=0xFF)
    with pytest.raises(ParseError, match="UTF-8"):
        load_tensors(path)


def test_huge_dims_raise_parse_error(tmp_path):
    # 0xFFFFFFFF squared overflows a 64-bit element count.
    path = tmp_path / "t.bin"
    save_tensors(path, {"w": np.ones((2, 2))})
    _corrupt_first_tensor(path, dims=(0xFFFFFFFF, 0xFFFFFFFF))
    with pytest.raises(ParseError, match="truncated"):
        load_tensors(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_raises_parse_error(tmp_path, bad):
    path = tmp_path / "t.bin"
    save_tensors(path, {"w": np.ones(3), "out.bias": np.array([0.5, bad])})
    with pytest.raises(ParseError, match=r"t\.bin: tensor out\.bias holds non-finite entries"):
        load_tensors(path)


def test_loaded_tensors_are_fresh_writable_arrays(tmp_path):
    # load_checkpoint keeps these arrays as the parameters without a copy.
    path = tmp_path / "t.bin"
    save_tensors(path, {"a": np.ones((2, 3)), "b": np.zeros(4)})
    loaded = load_tensors(path)
    for arr in loaded.values():
        assert arr.flags.writeable and arr.flags.owndata
    assert not np.shares_memory(loaded["a"], loaded["b"])
