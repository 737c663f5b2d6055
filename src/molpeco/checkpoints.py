"""Artifact files: every file the program writes goes through this module.

``replacing(path)`` is the one write path: it writes ``<path>.tmp`` and
moves it over ``path`` with ``os.replace``, so a failed or killed write
leaves ``path`` as it was. ``write_arrays`` / ``read_arrays`` hold the
binary layout of checkpoints ("MPCK0001") and the feature cache
("MPEC0005"); the binary copy of an embedding CSV has its own
(``cli.read_embeddings``). The layout:
magic, u32 little-endian JSON header length, canonical JSON header, u32
array count, then per array sorted by name (so identical contents
serialize byte-identically): u32 name length + UTF-8 name, u32 ndim, u32
dims, float64 little-endian payload. ``write_arrays`` also takes an array
as ``(shape, parts)``, the parts' values in turn, and writes it part by
part without building it. ``write_csv`` writes every CSV table.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .errors import DataError

CHECKPOINT_MAGIC = b"MPCK0001"


@contextlib.contextmanager
def replacing(path, mode: str = "w"):
    """A handle on ``<path>.tmp`` (UTF-8 text unless ``mode`` is binary)
    that replaces ``path`` if the block exits cleanly and is removed
    otherwise."""
    tmp = os.fspath(path) + ".tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, mode, **text) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_arrays(path, magic: bytes, arrays: dict, metadata: dict) -> None:
    meta_bytes = json.dumps(metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with replacing(path, "wb") as handle:
        handle.write(magic)
        handle.write(struct.pack("<I", len(meta_bytes)))
        handle.write(meta_bytes)
        handle.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            value = arrays[name]
            shape, parts = value if isinstance(value, tuple) else (np.shape(value), [value])
            name_bytes = name.encode("utf-8")
            handle.write(struct.pack("<I", len(name_bytes)))
            handle.write(name_bytes)
            handle.write(struct.pack(f"<I{len(shape)}I", len(shape), *shape))
            written = 0
            for part in parts:
                values = np.ascontiguousarray(part, dtype="<f8")
                handle.write(values.data)
                written += values.size
            if written != math.prod(shape):
                raise ValueError(f"array '{name}' of shape {shape} got {written} values")


def read_arrays(path, magic: bytes, what: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, name -> array) of a file written by ``write_arrays``.
    Raises DataError, naming the file as a ``what``, on a wrong magic, a
    truncated or undecodable file, or bytes after the last array."""
    with open(path, "rb") as handle:
        blob = handle.read()
    if blob[: len(magic)] != magic:
        raise DataError(f"'{path}' is not a {what} (bad magic {blob[:len(magic)]!r})")
    offset = len(magic)

    def take(count: int) -> bytes:
        nonlocal offset
        if offset + count > len(blob):
            raise DataError(f"{what} '{path}' is truncated")
        chunk = blob[offset:offset + count]
        offset += count
        return chunk

    try:
        (meta_len,) = struct.unpack("<I", take(4))
        metadata = json.loads(take(meta_len).decode("utf-8"))
        (count,) = struct.unpack("<I", take(4))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", take(4))
            name = take(name_len).decode("utf-8")
            (ndim,) = struct.unpack("<I", take(4))
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            size = math.prod(shape)
            if offset + 8 * size > len(blob):
                raise DataError(f"{what} '{path}' is truncated")
            # one copy, straight out of the file's bytes, not through take():
            # every array owns its memory and is writable
            arrays[name] = np.frombuffer(blob, "<f8", size, offset).reshape(shape).copy()
            offset += 8 * size
    except ValueError as exc:  # undecodable UTF-8 or JSON
        raise DataError(f"{what} '{path}' is corrupt: {exc}") from exc
    if offset != len(blob):
        raise DataError(f"{what} '{path}' has {len(blob) - offset} bytes after its last array")
    return metadata, arrays


def save_checkpoint(path, state: dict[str, np.ndarray], metadata: dict) -> None:
    write_arrays(path, CHECKPOINT_MAGIC, state, metadata)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    return read_arrays(path, CHECKPOINT_MAGIC, "parameter checkpoint")


def _cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return "" if value is None else str(value)


def write_csv(path, config_hash: str, header, rows) -> None:
    """A CSV table tagged with the configuration hash. A cell is empty for
    None, ``repr(float(x))`` for a float (exact round trip) and ``str(x)``
    otherwise."""
    with replacing(path) as handle:
        handle.write(f"# config_hash={config_hash}\n")
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(_cell(value) for value in row) + "\n")
