import ast
import os
from pathlib import Path

import numpy as np
import pytest

import ticstream
from ticstream.formats import atomic_write

SOURCES = Path(ticstream.__file__).parent


def write_calls(source: str) -> list[tuple[int, str]]:
    """(line, call) for each call in `source` that writes or replaces a file."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif isinstance(f, ast.Attribute) and f.attr == "replace" and getattr(f.value, "id", None) == "os":
            found.append((node.lineno, "os.replace"))
        elif name == "open":
            # builtins.open(path, mode) or Path.open(mode); a mode that is not a
            # read-only literal counts as a write
            modes = node.args[1 if isinstance(f, ast.Name) else 0:][:1]
            modes += [k.value for k in node.keywords if k.arg == "mode"]
            if any(not (isinstance(m, ast.Constant) and set(m.value) <= set("rbt")) for m in modes):
                found.append((node.lineno, "open for writing"))
    return found


def test_scanner_finds_each_kind_of_write():
    source = ('open(p, "w"); open(p, mode="ab"); p.open("w"); p.write_text("x"); p.write_bytes(b"")\n'
              'os.replace(a, b); open(p); open(p, "rb"); p.open(); s.replace("a", "b")\n')
    assert [call for _, call in write_calls(source)] == [
        "open for writing", "open for writing", "open for writing", "write_text", "write_bytes", "os.replace",
    ]


def test_only_formats_writes_files():
    assert write_calls((SOURCES / "formats.py").read_text())
    for path in sorted(SOURCES.glob("*.py")):
        if path.name != "formats.py":
            assert write_calls(path.read_text()) == [], path.name


class Stop(BaseException):
    """A kill: nothing in the package catches it."""


def test_interrupted_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "progress.json"
    atomic_write(path, b"old")

    def killed(src, dst):
        raise Stop

    with monkeypatch.context() as m:
        m.setattr(os, "replace", killed)
        with pytest.raises(Stop):
            atomic_write(path, b"new")
    assert path.read_bytes() == b"old"
    assert (tmp_path / "progress.json.tmp").read_bytes() == b"new"
    atomic_write(path, b"newer")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["progress.json"]
    assert path.read_bytes() == b"newer"

    # chunks of any buffer type are written in order, unjoined
    rows = np.array([(7, 0.5), (8, -1.0), (9, 2.0)], dtype=[("id", "<u4"), ("x", "<f8")])
    chunks = (b"head", memoryview(b"0123456789")[2:5], rows, b"", np.zeros(0, rows.dtype), b"tail")
    want = b"head234" + rows.tobytes() + b"tail"
    with monkeypatch.context() as m:
        m.setattr(os, "replace", killed)
        with pytest.raises(Stop):
            atomic_write(path, *chunks)
    assert path.read_bytes() == b"newer"
    assert (tmp_path / "progress.json.tmp").read_bytes() == want
    atomic_write(path, *chunks)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["progress.json"]
    assert path.read_bytes() == want
