"""Binary container for dataset caches and checkpoints.

Layout (all integers little-endian):

    magic      4 bytes  b"MVCL"
    version    u16      currently 1
    hdr_len    u32      length of the UTF-8 JSON header blob
    header     bytes    JSON object (dims, counts, seed, free-form metadata)
    n_arrays   u32
    then per array:
        name_len   u16
        name       UTF-8 bytes
        dtype_len  u8
        dtype      UTF-8 bytes, numpy dtype string in the array's own byte order
        ndim       u8
        shape      ndim * u64
        data       raw array bytes, C order

Round-trips are bit-exact: array bytes are written verbatim and read back
with the recorded dtype and shape.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import reprlib
import secrets
import struct

import numpy as np

MAGIC = b"MVCL"
VERSION = 1


class ContainerError(ValueError):
    """Malformed or truncated container file."""


def entry(path: str, doc, key: str, kind, error: type[ValueError] = ContainerError):
    """The value at dotted `key` of JSON document `doc` (read from `path`) if
    of `kind`: a JSON type, list[kind], tuple[k0, k1, ...] (a list, item i of
    kind ki), dict[str, kind] (an object of kind values) or a tuple of kinds.
    A missing entry or one of another kind raises `error` naming both."""
    value = doc
    for part in key.split("."):
        if type(value) is not dict or part not in value:
            raise error(f"{path!r} lacks entry {key!r}")
        value = value[part]
    if not _of_kind(value, kind):
        raise error(f"{path!r}: entry {key!r} is malformed: {reprlib.repr(value)}")
    return value


def _of_kind(value, kind) -> bool:
    if isinstance(kind, tuple):
        return any(_of_kind(value, k) for k in kind)
    origin = getattr(kind, "__origin__", None)
    if origin is tuple:
        return (type(value) is list and len(value) == len(kind.__args__)
                and all(map(_of_kind, value, kind.__args__)))
    if origin in (list, dict):
        items = value.values() if type(value) is dict else value
        return type(value) is origin and all(_of_kind(v, kind.__args__[-1]) for v in items)
    return type(value) is kind


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Open a temporary file next to `path` for writing. A clean exit
    renames it over `path`; an error removes it and leaves `path` as it was.

    The temporary is created with mode 0666 under a fresh random name, so
    the process umask sets the output's permissions as it does for `open`.
    """
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f"{os.path.basename(path)}.{secrets.token_hex(8)}.tmp")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_container(path: str, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write header + named arrays to `path` atomically (tmp file + rename)."""
    hdr_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<HI", VERSION, len(hdr_blob)))
        f.write(hdr_blob)
        f.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr, order="C")
            name_b = name.encode("utf-8")
            dtype_b = arr.dtype.str.encode("ascii")
            f.write(struct.pack("<H", len(name_b)))
            f.write(name_b)
            f.write(struct.pack("<B", len(dtype_b)))
            f.write(dtype_b)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
            f.write(arr.data)


def read_container(path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a container written by write_container; returns (header, arrays)."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        off = 0

        def claim(n: int, what: str) -> None:
            # checked against the bytes left in the file before anything of
            # size n is read or allocated
            nonlocal off
            if n > size - off:
                raise ContainerError(f"truncated container: reading {what} at offset {off}")
            off += n

        def take(n: int, what: str) -> bytes:
            claim(n, what)
            return f.read(n)

        if take(4, "magic") != MAGIC:
            raise ContainerError(f"bad magic in {path!r}: expected {MAGIC!r}")
        version, hdr_len = struct.unpack("<HI", take(6, "version/header length"))
        if version != VERSION:
            raise ContainerError(f"unsupported container version {version}")
        header = json.loads(take(hdr_len, "header").decode("utf-8"))
        if not isinstance(header, dict):
            raise ContainerError(f"header is a JSON {type(header).__name__}, not an object")
        (n_arrays,) = struct.unpack("<I", take(4, "array count"))
        arrays: dict[str, np.ndarray] = {}
        for i in range(n_arrays):
            (name_len,) = struct.unpack("<H", take(2, f"array {i} name length"))
            name = take(name_len, f"array {i} name").decode("utf-8")
            (dtype_len,) = struct.unpack("<B", take(1, f"array {name} dtype length"))
            dtype_str = take(dtype_len, f"array {name} dtype").decode("ascii")
            try:
                dtype = np.dtype(dtype_str)
            except (TypeError, ValueError, SyntaxError) as exc:  # as np.dtype raises them
                raise ContainerError(f"array {name} has unknown dtype {dtype_str!r}") from exc
            if dtype.hasobject:
                raise ContainerError(f"array {name} has object dtype {dtype.str!r}")
            (ndim,) = struct.unpack("<B", take(1, f"array {name} ndim"))
            shape = struct.unpack(f"<{ndim}Q", take(8 * ndim, f"array {name} shape"))
            # Python ints: a corrupt shape cannot wrap around to a small count
            claim(math.prod(shape) * dtype.itemsize, f"array {name} data")
            arr = np.empty(shape, dtype)
            if f.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
                raise ContainerError(f"truncated container: reading array {name} data")
            arrays[name] = arr
        if off != size:
            raise ContainerError(f"{size - off} trailing bytes after last array")
    return header, arrays
