import importlib
import inspect
import pickle
import pkgutil

import pytest

import ticstream
from ticstream.errors import ConfigError, FormatError, NumericError, RunError, TicError


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
