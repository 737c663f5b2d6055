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
part without building it. ``read_arrays`` reads each payload once, into a
read-only array of its own, and never holds the whole file.
``write_csv`` writes every CSV table.
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
    """(header, name -> array) of a file written by ``write_arrays``. Each
    array is read once, straight from the file into aligned memory of its
    own, and is read-only: the feature cache hands out views of its
    arrays, and ``MolPecoModel.load_state`` copies a checkpoint's arrays
    into the model's trainable parameters, which stay writable.
    Raises DataError, naming the file as a ``what``, on a wrong magic, a
    truncated or undecodable file, array names that are not strictly
    ascending (as ``write_arrays`` writes them), or bytes after the last
    array."""
    with open(path, "rb") as handle:
        size = os.fstat(handle.fileno()).st_size
        found = handle.read(len(magic))
        if found != magic:
            raise DataError(f"'{path}' is not a {what} (bad magic {found!r})")

        def take(count: int, into=bytearray):
            # the count is checked before ``into`` allocates: a damaged
            # length or dims field cannot ask for more memory than the file holds
            if count > size - handle.tell():
                raise DataError(f"{what} '{path}' is truncated")
            buffer = into(count)
            if handle.readinto(buffer) != count:
                raise DataError(f"{what} '{path}' is truncated")
            return buffer

        try:
            (meta_len,) = struct.unpack("<I", take(4))
            metadata = json.loads(take(meta_len).decode("utf-8"))
            (count,) = struct.unpack("<I", take(4))
            arrays: dict[str, np.ndarray] = {}
            for _ in range(count):
                (name_len,) = struct.unpack("<I", take(4))
                name = take(name_len).decode("utf-8")
                if arrays and name <= next(reversed(arrays)):
                    raise ValueError(f"array name '{name}' is not after "
                                     f"'{next(reversed(arrays))}'")
                (ndim,) = struct.unpack("<I", take(4))
                shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
                values = take(8 * math.prod(shape), lambda _: np.empty(shape, "<f8"))
                values.flags.writeable = False
                arrays[name] = values
        except ValueError as exc:  # undecodable UTF-8 or JSON, or names out of order
            raise DataError(f"{what} '{path}' is corrupt: {exc}") from exc
        if handle.tell() != size:
            raise DataError(f"{what} '{path}' has {size - handle.tell()} bytes after its "
                            "last array")
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
