"""Binary named-tensor container: round trips and corruption handling."""

import struct
import tracemalloc

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


def memory_tensors():
    """About 3 MB of tensors, the largest last, where its check is the peak."""
    rng = np.random.Generator(np.random.PCG64(1))
    return {"fwd.W": rng.standard_normal((600, 200)), "fwd.b": rng.standard_normal(600),
            "scalar": np.array(0.5), "empty": np.zeros((0, 4)),
            "embedding.weights": rng.standard_normal((1300, 200))}


def traced_peak(fn):
    """fn()'s result and the peak of tracemalloc's traced memory above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_load_holds_one_copy_of_the_tensors(tmp_path):
    # The arrays returned, the isfinite temporary of the largest tensor (one
    # byte per entry), and 64 KiB for the file's read buffer, the names and
    # the dict. Reading the whole file first and copying each tensor out of it
    # peaked at twice the tensor bytes.
    tensors = memory_tensors()
    save_tensors(tmp_path / "t.bin", tensors)
    tensor_bytes = sum(a.nbytes for a in tensors.values())
    largest = max(a.size for a in tensors.values())
    loaded, peak = traced_peak(lambda: load_tensors(tmp_path / "t.bin"))
    assert peak <= tensor_bytes + largest + 64 * 1024, (peak, tensor_bytes)
    assert all(np.array_equal(loaded[name], a) for name, a in tensors.items())


def test_save_writes_float64_arrays_without_a_copy(tmp_path):
    # tobytes() copied each tensor, 2.08 MB for the largest here.
    tensors = memory_tensors()
    _, peak = traced_peak(lambda: save_tensors(tmp_path / "t.bin", tensors))
    assert peak < 64 * 1024, peak
