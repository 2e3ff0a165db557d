import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from mvcil.container import MAGIC, VERSION, ContainerError, read_container, write_container


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    header = {"kind": "test", "note": "free-form", "nested": {"a": [1, 2]}}
    arrays = {
        "floats": rng.standard_normal((5, 7)),
        "ints": rng.integers(-100, 100, size=(3,), dtype=np.int64),
        "bytes": rng.integers(0, 256, size=(2, 4), dtype=np.uint8),
        "scalar": np.float64(3.5),
        "empty": np.zeros((0, 4)),
        "bools": np.array([True, False, True]),
    }
    path = str(tmp_path / "box.mvcl")
    write_container(path, header, arrays)
    with open(path, "rb") as f:  # the docstring's layout: b"MVCL", then a u16 version of 1
        assert f.read(6) == b"MVCL\x01\x00"
    back_header, back = read_container(path)
    assert back_header == header
    assert set(back) == set(arrays)
    for name, arr in arrays.items():
        got = back[name]
        assert got.dtype == np.asarray(arr).dtype
        assert got.shape == np.asarray(arr).shape
        assert np.array_equal(got, arr)
    assert [p.name for p in tmp_path.iterdir()] == ["box.mvcl"]  # no temp litter


def test_big_endian_arrays_round_trip_as_given(tmp_path):
    arr = (np.arange(4) / 3).astype(">f8")
    path = str(tmp_path / "be.mvcl")
    write_container(path, {}, {"x": arr})
    _, back = read_container(path)
    assert back["x"].dtype == np.dtype(">f8")
    assert back["x"].tobytes() == arr.tobytes()


def test_non_contiguous_arrays(tmp_path):
    arrays = {
        "strided": np.arange(24, dtype=np.float64).reshape(4, 6)[:, ::2],  # copied on write
        "fortran": np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4)),
        "scalar": np.array(2.5),  # stays 0-d
    }
    assert not arrays["fortran"].flags.c_contiguous
    path = str(tmp_path / "strided.mvcl")
    write_container(path, {}, arrays)
    _, back = read_container(path)
    for name, arr in arrays.items():
        assert back[name].shape == arr.shape
        assert np.array_equal(back[name], arr)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.mvcl"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(ContainerError, match="bad magic"):
        read_container(str(path))


def test_unsupported_version(tmp_path):
    path = tmp_path / "v9.mvcl"
    path.write_bytes(MAGIC + struct.pack("<HI", 9, 2) + b"{}" + struct.pack("<I", 0))
    with pytest.raises(ContainerError, match="version 9"):
        read_container(str(path))


def test_truncation_names_the_field(tmp_path):
    good = tmp_path / "good.mvcl"
    write_container(str(good), {"k": 1}, {"x": np.arange(8, dtype=np.float64)})
    blob = good.read_bytes()
    cut = tmp_path / "cut.mvcl"
    cut.write_bytes(blob[:-4])  # drop the tail of the array data
    with pytest.raises(ContainerError, match="array x data"):
        read_container(str(cut))
    tiny = tmp_path / "tiny.mvcl"
    tiny.write_bytes(blob[:3])
    with pytest.raises(ContainerError, match="magic"):
        read_container(str(tiny))
    headless = tmp_path / "headless.mvcl"
    headless.write_bytes(blob[:8])
    with pytest.raises(ContainerError, match="version/header length"):
        read_container(str(headless))


def test_trailing_bytes_rejected(tmp_path):
    good = tmp_path / "good.mvcl"
    write_container(str(good), {}, {"x": np.arange(3, dtype=np.float64)})
    padded = tmp_path / "padded.mvcl"
    for extra in (1, 3):
        padded.write_bytes(good.read_bytes() + bytes(extra))
        with pytest.raises(ContainerError, match=f"^{extra} trailing bytes after last array$"):
            read_container(str(padded))


def test_a_short_array_read_is_truncation(tmp_path, monkeypatch):
    # the file shrinks after its size was read: the size check passes, and
    # the array data read comes back short
    path = tmp_path / "box.mvcl"
    write_container(str(path), {}, {"x": np.arange(3, dtype=np.float64)})
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])
    real = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
        (*real(fd)[:6], size, *real(fd)[7:])))
    with pytest.raises(ContainerError, match="^truncated container: reading array x data$"):
        read_container(str(path))


def test_returned_arrays_are_writable_copies(tmp_path):
    path = str(tmp_path / "w.mvcl")
    write_container(path, {}, {"x": np.arange(3, dtype=np.float64)})
    _, back = read_container(path)
    back["x"][0] = 99.0  # each array owns its buffer, not a readonly view
    assert back["x"][0] == 99.0
    assert back["x"].flags.owndata


@pytest.mark.parametrize("shape", [(2**32, 2**32), (2**62, 4), (2**40, 1)])
def test_corrupt_shape_is_truncation_without_allocating(tmp_path, shape):
    # element counts that wrap around in int64 must still be caught by the
    # size check, before any buffer of that size is allocated
    good = tmp_path / "good.mvcl"
    write_container(str(good), {}, {"x": np.zeros((2, 4))})
    blob = good.read_bytes()
    field = struct.pack("<2Q", 2, 4)
    assert blob.count(field) == 1
    bad = tmp_path / "bad.mvcl"
    bad.write_bytes(blob.replace(field, struct.pack("<2Q", *shape)))
    tracemalloc.start()
    try:
        with pytest.raises(ContainerError, match="array x data"):
            read_container(str(bad))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_object_dtype_rejected(tmp_path):
    # raw bytes must never be read into an array of Python references
    good = tmp_path / "good.mvcl"
    write_container(str(good), {}, {"x": np.zeros(2)})
    bad = tmp_path / "bad.mvcl"
    bad.write_bytes(good.read_bytes().replace(b"<f8", b"|O8"))
    with pytest.raises(ContainerError, match="array x has object dtype"):
        read_container(str(bad))


def test_unknown_dtype_names_the_array(tmp_path):
    good = tmp_path / "good.mvcl"
    write_container(str(good), {}, {"x": np.zeros(2)})
    bad = tmp_path / "bad.mvcl"
    bad.write_bytes(good.read_bytes().replace(b"<f8", b"zzz"))
    with pytest.raises(ContainerError, match="array x has unknown dtype 'zzz'"):
        read_container(str(bad))


def test_a_dtype_string_numpy_cannot_parse_names_the_array(tmp_path):
    # np.dtype raises SyntaxError on this string, not TypeError
    good = tmp_path / "good.mvcl"
    write_container(str(good), {}, {"x": np.zeros(2)})
    bad = tmp_path / "bad.mvcl"
    bad.write_bytes(good.read_bytes().replace(b"\x03<f8", b"\x05(08,)"))
    with pytest.raises(ContainerError, match=re.escape("array x has unknown dtype '(08,)'")):
        read_container(str(bad))


def test_header_must_be_an_object(tmp_path):
    path = tmp_path / "list.mvcl"
    path.write_bytes(MAGIC + struct.pack("<HI", VERSION, 2) + b"[]" + struct.pack("<I", 0))
    with pytest.raises(ContainerError, match="header is a JSON list"):
        read_container(str(path))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask022", "umask027"])
def test_outputs_follow_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        path = str(tmp_path / "box.mvcl")
        write_container(path, {}, {"x": np.zeros(2)})
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    assert os.stat(path).st_mode & 0o777 == mode
    assert os.stat(tmp_path / "plain").st_mode & 0o777 == mode
