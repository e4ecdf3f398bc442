"""How an artifact reaches disk, and how a bad one is refused.

Every file the package writes (.ticc, .ticd, stream_manifest.json,
progress.json, metrics.json, manifest.json, the CSV/JSON report) goes through
`atomic_write`, so a process killed at any instant leaves each artifact whole,
old or new; a stray `*.tmp` it leaves is harmless and replaced by the next
write. A writer hands `atomic_write` its buffers as they are (bytes, a
memoryview, an ndarray) and they are written in order, never joined first.
Every artifact is read through `Cursor` or `read_json`, which refuse a
malformed file with a `FormatError` naming it; a `Cursor` reads the whole file
once and hands out views of that buffer, never copies. The .ticc and .ticd
byte layouts live beside their types, in `model` and `datagen`. A config
object, from a config file or from inside an artifact, is checked against its
dataclass by `config_fields`, so each field, default and type is declared only there.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, RunError


def atomic_write(path, *chunks) -> None:
    """Replace `path` with the concatenation of `chunks`, buffers written in order, in one step:
    a reader sees the old bytes or the new, never part."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")  # never *.ticc or *.ticd, so no reader takes it for one
    with open(tmp, "wb") as f:
        f.writelines(chunks)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def write_json(path, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True).encode())


def read_json(path, *keys: str) -> dict:
    """A JSON artifact; undecodable JSON or a missing key is refused naming the file."""
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"unreadable {path.stem}: {exc.reason}", exc.start, str(path)) from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"unreadable {path.stem}: {exc.msg}", exc.pos, str(path)) from exc
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            raise RunError(f"{path}: missing field {key!r}")
    return obj


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# what a field's value must be, keyed by `Field.type`: source text, as config modules postpone annotations
_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "tuple[tuple[int, int], ...]": (lambda v: isinstance(v, (list, tuple)) and all(
        isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e)) for e in v),
        "an array of [step, count] integer pairs"),
}


def config_fields(cls, d) -> dict:
    """`d`, the JSON object of a `cls` config; an unknown field, a missing one that `cls`
    gives no default, or a value its annotation refuses (`_TYPES`) is a ConfigError naming it."""
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__}: not a JSON object")
    fields = dataclasses.fields(cls)
    if unknown := sorted(set(d) - {f.name for f in fields}):
        raise ConfigError(f"unknown field {unknown[0]!r}")
    for f in fields:
        if f.name not in d and f.default is dataclasses.MISSING:
            raise ConfigError(f"missing field {f.name!r}")
        if f.name in d and f.type in _TYPES and not _TYPES[f.type][0](d[f.name]):
            raise ConfigError(f"field {f.name!r} must be {_TYPES[f.type][1]}, got {d[f.name]!r}")
    return d


class Cursor:
    """Reads a binary artifact front to back; a short or overlong file is refused at its offset.

    The file is read whole into `buf`, and every field handed out is a
    read-only view of it: whoever keeps one, or an array over one, keeps the
    file's bytes alive.
    """

    def __init__(self, path):
        self.buf = memoryview(Path(path).read_bytes())
        self.path = path
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.buf):
            raise FormatError("truncated file", self.pos, self.path)
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        """The next fields of struct format `fmt`."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, n: int) -> np.ndarray:
        """The next n items of `dtype`, a read-only view of the buffer.

        A truncated read reports the offset of the first field that is cut
        off, as reading the items one field at a time would.
        """
        dtype = np.dtype(dtype)
        if self.pos + dtype.itemsize * n > len(self.buf):
            whole, part = divmod(len(self.buf) - self.pos, dtype.itemsize)
            fields = [dtype.fields[name][:2] for name in dtype.names] if dtype.names else [(dtype, 0)]
            cut = next(off for field, off in fields if off + field.itemsize > part)
            raise FormatError("truncated file", self.pos + whole * dtype.itemsize + cut, self.path)
        return np.frombuffer(self.take(dtype.itemsize * n), dtype=dtype)

    def end(self) -> None:
        if self.pos != len(self.buf):
            raise FormatError("trailing bytes", self.pos, self.path)
