"""The package's exception classes; the CLI's exit code follows from the class.

TicError
├── ConfigError   the config or the command line is wrong (exit 1)
└── RunError      an artifact, a computation or an invariant failed (exit 2)
    ├── FormatError   a malformed .ticc, .ticd or run-directory JSON file
    └── NumericError  a non-finite or zero-norm value
"""


class TicError(Exception):
    pass


class ConfigError(TicError, ValueError):
    pass


class RunError(TicError, RuntimeError):
    pass


class FormatError(RunError):
    """FormatError(message, byte offset, path); all three stay in `args`, so it pickles."""

    @property
    def offset(self) -> int:
        return self.args[1]

    def __str__(self) -> str:
        return "{2}: {0} (byte offset {1})".format(*self.args)


class NumericError(RunError):
    pass
