import ast
import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path

import pytest

import ticstream
from ticstream import errors
from ticstream.errors import ConfigError, FormatError, NumericError, RunError, TicError

PACKAGE_ERRORS = {name for name, obj in vars(errors).items() if inspect.isclass(obj) and issubclass(obj, TicError)}


def foreign_raises(source: str) -> list[int]:
    """The line of each `raise` in `source` that names no class of `ticstream.errors`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in PACKAGE_ERRORS):
                found.append(node.lineno)
    return found


def test_every_exception_class_is_in_the_hierarchy():
    found = set()
    for info in pkgutil.iter_modules(ticstream.__path__):
        module = importlib.import_module(f"ticstream.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__.startswith("ticstream"):
                found.add(obj)
    assert found == {TicError, ConfigError, RunError, FormatError, NumericError}
    for cls in found:
        assert cls.__module__ == "ticstream.errors"
        assert cls is TicError or issubclass(cls, (ConfigError, RunError))


@pytest.mark.parametrize("exc", [
    ConfigError("need at least one method and one seed"),
    RunError("empty query set"),
    NumericError("zero-norm embedding row"),
    FormatError("truncated file", 4354, "runs/lwf/seed_0/step_001.ticc"),
])
def test_pickle_round_trip(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args


def test_format_error_names_file_and_offset():
    exc = FormatError("truncated file", 4354, "runs/lwf/seed_0/step_001.ticc")
    assert str(exc) == "runs/lwf/seed_0/step_001.ticc: truncated file (byte offset 4354)"
    assert exc.offset == 4354
    assert pickle.loads(pickle.dumps(exc)).offset == 4354


def test_scanner_finds_foreign_raises():
    source = ('raise RunError("x")\nraise ValueError("x")\nraise KeyError\n'
              'raise FormatError("x", 0, "p") from None\ntry:\n    pass\nexcept OSError:\n    raise\n')
    assert foreign_raises(source) == [2, 3]


def test_every_raise_names_a_package_error_class():
    # the CLI picks its exit code by class, and a caller catches TicError: a builtin raised
    # inside the package would be a runtime error whatever its cause, and escape that catch
    for path in sorted(Path(ticstream.__file__).parent.glob("*.py")):
        assert foreign_raises(path.read_text()) == [], path.name
