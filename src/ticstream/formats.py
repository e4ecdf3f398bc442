"""How an artifact reaches disk, and how a bad one is refused.

Every file the package writes (.ticc, .ticd, stream_manifest.json,
progress.json, metrics.json, manifest.json, the CSV/JSON report) goes through
`atomic_write`, so a process killed at any instant leaves each artifact whole,
old or new; a stray `*.tmp` it leaves is harmless and replaced by the next
write. A writer hands `atomic_write` its buffers as they are (bytes, a
memoryview, an ndarray) and they are written in order, never joined first.
A run directory, and a data directory while a stream is written into it,
has one writer at a time: `lock_directory` holds an exclusive flock on its
empty `writer.lock`, the one file not written here.
Every artifact is read through `Cursor` or `read_json`, which refuse a
malformed file with a `FormatError` naming it; a `Cursor` reads the whole file
once and hands out views of that buffer, never copies. The .ticc and .ticd
byte layouts live beside their types, in `model` and `datagen`. A config
object, from a config file or from inside an artifact, is checked against its
dataclass by `config_fields`, so each field and default is declared only there.
What type a config value must have is decided only by `_TYPES`, keyed by the
field's annotation; `check_types` applies it to a config read by
`config_fields` and, from each config's `validate`, to one built in Python.
"""

from __future__ import annotations

import contextlib
import dataclasses
import fcntl
import json
import math
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


@contextlib.contextmanager
def lock_directory(directory, *, wait: bool = False):
    """Hold an exclusive lock on `directory` for the `with` block: a flock on its empty
    `writer.lock`, made if missing, as is the directory. A directory that another holder has locked is a RunError
    naming it, raised before any file changes, or with `wait` is locked once that holder lets
    go: a run directory refuses a second writer, and a data directory's waits for the first.
    The kernel drops the lock when its holder's process dies, so a killed writer leaves no stale
    lock. A second lock on the same directory conflicts even within one process, so whoever
    holds it calls only helpers that do not take it."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    with open(Path(directory) / "writer.lock", "ab") as f:
        try:
            fcntl.flock(f, fcntl.LOCK_EX if wait else fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RunError(f"{directory}: another writer holds its lock") from None
        yield


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


def _is_array(v, item) -> bool:  # a JSON array; a config built in Python may hold a tuple
    return isinstance(v, (list, tuple)) and all(map(item, v))


# what a field's value must be, keyed by `Field.type`: source text, as config modules postpone annotations
_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)), "a finite number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "list[str]": (lambda v: _is_array(v, lambda e: isinstance(e, str)), "an array of strings"),
    "list[int]": (lambda v: _is_array(v, _is_int), "an array of integers"),
    "tuple[tuple[int, int], ...]": (lambda v: _is_array(v, lambda e: _is_array(e, _is_int) and len(e) == 2),
                                    "an array of [step, count] integer pairs"),
}


def check_types(cls, values: dict) -> None:
    """A ConfigError naming the first field of dataclass `cls` whose value in `values` its
    annotation refuses (`_TYPES`); a field `values` lacks, or a nested config, is not checked here."""
    for f in dataclasses.fields(cls):
        if f.name in values and f.type in _TYPES and not _TYPES[f.type][0](values[f.name]):
            raise ConfigError(f"field {f.name!r} must be {_TYPES[f.type][1]}, got {values[f.name]!r}")


def config_fields(cls, d) -> dict:
    """`d`, the JSON object of a `cls` config; an unknown field, a missing one that `cls`
    gives no default, or a value its annotation refuses (`check_types`) is a ConfigError naming it."""
    if not isinstance(d, dict):
        raise ConfigError(f"{cls.__name__}: not a JSON object")
    fields = dataclasses.fields(cls)
    if unknown := sorted(set(d) - {f.name for f in fields}):
        raise ConfigError(f"unknown field {unknown[0]!r}")
    for f in fields:
        if f.name not in d and f.default is dataclasses.MISSING:
            raise ConfigError(f"missing field {f.name!r}")
    check_types(cls, d)
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
