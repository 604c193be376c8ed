"""Exception types shared across the workbench modules, and the checks
the JSON readers share to name the path of a malformed value."""

import json


class WorkbenchError(Exception):
    """Base class for domain errors raised by this package."""


class LimitError(WorkbenchError):
    """An input exceeds a documented size bound for exhaustive work."""


class NoRealizedTypeError(WorkbenchError):
    """A point set realizes no type; carries the first failed clause."""

    def __init__(self, clause: str, message: str):
        super().__init__(message)
        self.clause = clause


class MissingLabelError(WorkbenchError):
    """A demanded set label is absent from an assignment table."""

    def __init__(self, label: str):
        super().__init__(f"no set assigned to label {label!r}")
        self.label = label


class LexOrderError(WorkbenchError):
    """A row sequence is not lexicographically monotone; carries a witness."""

    def __init__(self, index: int, row: tuple, next_row: tuple):
        super().__init__(
            f"rows {index} and {index + 1} are out of lexicographic order: "
            f"{row} then {next_row}"
        )
        self.index = index
        self.witness = (row, next_row)


def _natural(value, path: str) -> int:
    # bool is an int subclass, but JSON true is not a number here
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{path}: expected a natural number, got {json.dumps(value)}")
    return value


def _naturals(value, path: str, size: int | None = None) -> list[int]:
    """``value`` as a list of natural numbers, exactly ``size`` of them if given."""
    if not isinstance(value, list) or size not in (None, len(value)):
        what = "a list of" if size is None else f"a list of {size}"
        raise ValueError(f"{path}: expected {what} natural numbers, got {json.dumps(value)}")
    return [_natural(v, f"{path}[{i}]") for i, v in enumerate(value)]
